/// \file strategies.hpp
/// \brief The multi-strategy synthesis library of the MCH operator.
///
/// Paper, Algorithm 2: critical-path nodes receive *level-oriented*
/// candidates (NPN-database rewriting, Shannon/mux trees), non-critical
/// nodes receive *area-oriented* candidates (SOP factoring, DSD).  Each
/// strategy resynthesizes a local function (a cut or MFFC function) from its
/// leaf signals into a caller-chosen gate basis, returning the candidate
/// root without touching the original logic -- candidates are *added*, never
/// substituted (Sec. III-A).

#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "mcs/resyn/basis.hpp"
#include "mcs/resyn/npn_db.hpp"
#include "mcs/resyn/sop.hpp"
#include "mcs/tt/truth_table.hpp"

namespace mcs {

/// Builds the factored form \p ff over \p leaves (literal i reads
/// leaves[i]) into the builder's network; what SopStrategy emits for
/// factor_sop(compute_isop(f)).
Signal build_factored(const BasisBuilder& bb, const FactoredForm& ff,
                      const std::vector<Signal>& leaves);

/// Interface of one synthesis strategy.
class ResynStrategy {
 public:
  virtual ~ResynStrategy() = default;

  /// Builds a realization of \p f(leaves) into \p net using \p basis.
  /// Returns std::nullopt when the strategy does not apply (e.g. too many
  /// inputs for the NPN database).
  virtual std::optional<Signal> synthesize(
      Network& net, GateBasis basis, const TruthTable& f,
      const std::vector<Signal>& leaves) const = 0;

  virtual std::string_view name() const noexcept = 0;
};

/// ISOP + algebraic factoring (area-oriented workhorse).
class SopStrategy final : public ResynStrategy {
 public:
  std::optional<Signal> synthesize(
      Network& net, GateBasis basis, const TruthTable& f,
      const std::vector<Signal>& leaves) const override;
  std::string_view name() const noexcept override { return "sop"; }
};

/// Top-down disjoint-support decomposition with AND/OR/XOR/MAJ top blocks;
/// the non-decomposable core falls back to SOP factoring.
class DsdStrategy final : public ResynStrategy {
 public:
  std::optional<Signal> synthesize(
      Network& net, GateBasis basis, const TruthTable& f,
      const std::vector<Signal>& leaves) const override;
  std::string_view name() const noexcept override { return "dsd"; }
};

/// Pure Shannon cofactoring into a balanced MUX tree (level-oriented).
class ShannonStrategy final : public ResynStrategy {
 public:
  std::optional<Signal> synthesize(
      Network& net, GateBasis basis, const TruthTable& f,
      const std::vector<Signal>& leaves) const override;
  std::string_view name() const noexcept override { return "shannon"; }
};

/// 4-input NPN-class database lookup (level- or area-optimized programs).
class NpnStrategy final : public ResynStrategy {
 public:
  explicit NpnStrategy(NpnDatabase::Objective objective)
      : objective_(objective) {}

  std::optional<Signal> synthesize(
      Network& net, GateBasis basis, const TruthTable& f,
      const std::vector<Signal>& leaves) const override;
  std::string_view name() const noexcept override {
    return objective_ == NpnDatabase::Objective::kLevel ? "npn-level"
                                                        : "npn-area";
  }

 private:
  NpnDatabase::Objective objective_;
};

/// A named bundle of strategies (the `lib` parameter of Algorithms 1-2).
class StrategyLibrary {
 public:
  StrategyLibrary() = default;

  void add(std::unique_ptr<ResynStrategy> s) {
    strategies_.push_back(std::move(s));
  }

  const std::vector<std::unique_ptr<ResynStrategy>>& strategies()
      const noexcept {
    return strategies_;
  }
  bool empty() const noexcept { return strategies_.empty(); }

  /// Level-oriented bundle: NPN database + Shannon + DSD.
  static StrategyLibrary level_oriented();
  /// Area-oriented bundle: SOP factoring + DSD + area NPN database.
  static StrategyLibrary area_oriented();

 private:
  std::vector<std::unique_ptr<ResynStrategy>> strategies_;
};

}  // namespace mcs
