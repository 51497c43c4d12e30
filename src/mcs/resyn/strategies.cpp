#include "mcs/resyn/strategies.hpp"

#include <cassert>

#include "mcs/resyn/sop.hpp"

namespace mcs {

Signal build_factored(const BasisBuilder& bb, const FactoredForm& ff,
                      const std::vector<Signal>& leaves) {
  std::vector<Signal> value(ff.nodes.size());
  for (std::size_t i = 0; i < ff.nodes.size(); ++i) {
    const auto& n = ff.nodes[i];
    switch (n.kind) {
      case FactoredForm::Kind::kConst0:
        value[i] = bb.constant(false);
        break;
      case FactoredForm::Kind::kConst1:
        value[i] = bb.constant(true);
        break;
      case FactoredForm::Kind::kLiteral:
        value[i] = leaves[n.var] ^ !n.positive;
        break;
      case FactoredForm::Kind::kAnd:
        value[i] = bb.and2(value[n.left], value[n.right]);
        break;
      case FactoredForm::Kind::kOr:
        value[i] = bb.or2(value[n.left], value[n.right]);
        break;
    }
  }
  return value[ff.root];
}

namespace {

Signal build_sop(const BasisBuilder& bb, const TruthTable& f,
                 const std::vector<Signal>& leaves) {
  const auto cubes = compute_isop(f);
  const auto ff = factor_sop(cubes, f.num_vars());
  return build_factored(bb, ff, leaves);
}

/// Recursive DSD with AND/OR/XOR/MAJ top decompositions; returns the signal
/// or falls back to `core` for the non-decomposable remainder.
template <typename CoreFn>
Signal dsd_rec(const BasisBuilder& bb, const TruthTable& f,
               const std::vector<Signal>& leaves, const CoreFn& core) {
  if (f.is_const0()) return bb.constant(false);
  if (f.is_const1()) return bb.constant(true);

  const int n = f.num_vars();
  // Collect the support once.
  std::vector<int> support;
  for (int v = 0; v < n; ++v) {
    if (f.depends_on(v)) support.push_back(v);
  }
  assert(!support.empty());
  if (support.size() == 1) {
    const int v = support[0];
    const TruthTable xv = TruthTable::projection(v, n);
    return leaves[v] ^ (f == ~xv);
  }

  // Single-variable top decompositions.
  for (const int v : support) {
    const TruthTable f0 = f.cofactor0(v);
    const TruthTable f1 = f.cofactor1(v);
    if (f0 == ~f1) {
      // f == xv ^ f0.
      return bb.xor2(leaves[v], dsd_rec(bb, f0, leaves, core));
    }
    if (f0.is_const0()) return bb.and2(leaves[v], dsd_rec(bb, f1, leaves, core));
    if (f1.is_const0()) return bb.and2(!leaves[v], dsd_rec(bb, f0, leaves, core));
    if (f0.is_const1()) return bb.or2(!leaves[v], dsd_rec(bb, f1, leaves, core));
    if (f1.is_const1()) return bb.or2(leaves[v], dsd_rec(bb, f0, leaves, core));
  }

  // Majority top decomposition: with a = xi^!p and b = xj^!q,
  // f == MAJ(a, b, g) iff f|(a=1,b=1) == 1, f|(a=0,b=0) == 0 and
  // f|(a=1,b=0) == f|(a=0,b=1) == g.
  if (bb.basis().use_maj) {
    auto cof = [](const TruthTable& t, int v, bool bit) {
      return bit ? t.cofactor1(v) : t.cofactor0(v);
    };
    for (std::size_t i = 0; i < support.size(); ++i) {
      for (std::size_t j = i + 1; j < support.size(); ++j) {
        const int vi = support[i];
        const int vj = support[j];
        for (int p = 0; p < 2; ++p) {
          for (int q = 0; q < 2; ++q) {
            if (!cof(cof(f, vi, p), vj, q).is_const1()) continue;
            if (!cof(cof(f, vi, !p), vj, !q).is_const0()) continue;
            const TruthTable ga = cof(cof(f, vi, p), vj, !q);
            const TruthTable gb = cof(cof(f, vi, !p), vj, q);
            if (!(ga == gb)) continue;
            const Signal a = leaves[vi] ^ (p == 0);
            const Signal b = leaves[vj] ^ (q == 0);
            return bb.maj3(a, b, dsd_rec(bb, ga, leaves, core));
          }
        }
      }
    }
  }

  return core(f, support);
}

}  // namespace

std::optional<Signal> SopStrategy::synthesize(
    Network& net, GateBasis basis, const TruthTable& f,
    const std::vector<Signal>& leaves) const {
  assert(static_cast<int>(leaves.size()) == f.num_vars());
  const BasisBuilder bb(net, basis);
  return build_sop(bb, f, leaves);
}

std::optional<Signal> DsdStrategy::synthesize(
    Network& net, GateBasis basis, const TruthTable& f,
    const std::vector<Signal>& leaves) const {
  assert(static_cast<int>(leaves.size()) == f.num_vars());
  const BasisBuilder bb(net, basis);
  // Non-decomposable cores are finished with SOP factoring.
  auto core = [&](const TruthTable& g,
                  const std::vector<int>& /*support*/) -> Signal {
    return build_sop(bb, g, leaves);
  };
  return dsd_rec(bb, f, leaves, core);
}

std::optional<Signal> ShannonStrategy::synthesize(
    Network& net, GateBasis basis, const TruthTable& f,
    const std::vector<Signal>& leaves) const {
  assert(static_cast<int>(leaves.size()) == f.num_vars());
  const BasisBuilder bb(net, basis);

  // Recursive Shannon expansion on the most binate variable.
  struct Rec {
    const BasisBuilder& bb;
    const std::vector<Signal>& leaves;

    Signal run(const TruthTable& g) const {
      if (g.is_const0()) return bb.constant(false);
      if (g.is_const1()) return bb.constant(true);
      std::vector<int> support;
      for (int v = 0; v < g.num_vars(); ++v) {
        if (g.depends_on(v)) support.push_back(v);
      }
      if (support.size() == 1) {
        const int v = support[0];
        return leaves[v] ^
               (g == ~TruthTable::projection(v, g.num_vars()));
      }
      // Most binate variable: minimize | |on(f0)| - |on(f1)| |.
      int best = support[0];
      int best_bias = -1;
      for (const int v : support) {
        const int bias =
            std::abs(g.cofactor0(v).count_ones() - g.cofactor1(v).count_ones());
        if (best_bias < 0 || bias < best_bias) {
          best_bias = bias;
          best = v;
        }
      }
      const Signal t = run(g.cofactor1(best));
      const Signal e = run(g.cofactor0(best));
      return bb.mux(leaves[best], t, e);
    }
  };
  return Rec{bb, leaves}.run(f);
}

std::optional<Signal> NpnStrategy::synthesize(
    Network& net, GateBasis basis, const TruthTable& f,
    const std::vector<Signal>& leaves) const {
  assert(static_cast<int>(leaves.size()) == f.num_vars());
  // Shrink to the true support; more than 4 variables is out of scope for
  // the 4-input database.
  std::vector<int> old_index;
  const TruthTable g = f.shrink_support(old_index);
  if (g.num_vars() > 4) return std::nullopt;
  std::vector<Signal> sub_leaves;
  sub_leaves.reserve(old_index.size());
  for (const int idx : old_index) sub_leaves.push_back(leaves[idx]);

  auto& db = NpnDatabase::shared(basis, objective_);
  return db.instantiate(net, g.num_vars() <= 6 ? g.to_tt6() : 0,
                        g.num_vars(), sub_leaves);
}

StrategyLibrary StrategyLibrary::level_oriented() {
  StrategyLibrary lib;
  lib.add(std::make_unique<NpnStrategy>(NpnDatabase::Objective::kLevel));
  lib.add(std::make_unique<ShannonStrategy>());
  lib.add(std::make_unique<DsdStrategy>());
  return lib;
}

StrategyLibrary StrategyLibrary::area_oriented() {
  StrategyLibrary lib;
  lib.add(std::make_unique<SopStrategy>());
  lib.add(std::make_unique<DsdStrategy>());
  lib.add(std::make_unique<NpnStrategy>(NpnDatabase::Objective::kArea));
  return lib;
}

}  // namespace mcs
