/// \file truth_table.hpp
/// \brief Dynamically sized truth tables (up to ~20 variables).
///
/// Used where cut functions can exceed 6 inputs: MFFC collapsing for the
/// area-oriented synthesis strategies, window simulation, and equivalence
/// checking of small cones.  Functions of <= 6 variables interoperate with
/// the single-word Tt6 representation (see tt6.hpp).

#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "mcs/common/hash.hpp"
#include "mcs/tt/tt6.hpp"

namespace mcs {

/// A truth table over `num_vars()` variables stored as 64-bit words.
class TruthTable {
 public:
  TruthTable() = default;

  /// Constant-zero function of \p num_vars variables.
  explicit TruthTable(int num_vars)
      : num_vars_(num_vars),
        words_(num_words(num_vars), 0ull) {
    assert(num_vars >= 0 && num_vars <= kMaxVars);
  }

  /// Builds from a single word (num_vars <= 6).
  static TruthTable from_tt6(Tt6 t, int num_vars) {
    TruthTable r(num_vars);
    r.words_[0] = tt6_replicate(t, num_vars);
    return r;
  }

  /// The projection x_i as a \p num_vars-variable function.
  static TruthTable projection(int var, int num_vars) {
    TruthTable r(num_vars);
    if (var < kTt6MaxVars) {
      for (auto& w : r.words_) w = tt6_var(var);
    } else {
      const std::size_t period = std::size_t{1} << (var - kTt6MaxVars);
      for (std::size_t i = 0; i < r.words_.size(); ++i) {
        if (i & period) r.words_[i] = ~0ull;
      }
    }
    return r;
  }

  static TruthTable constant(bool value, int num_vars) {
    TruthTable r(num_vars);
    if (value) {
      for (auto& w : r.words_) w = ~0ull;
      r.trim();
    }
    return r;
  }

  int num_vars() const noexcept { return num_vars_; }
  std::size_t num_bits() const noexcept {
    return std::size_t{1} << num_vars_;
  }
  const std::vector<std::uint64_t>& words() const noexcept { return words_; }
  std::vector<std::uint64_t>& words() noexcept { return words_; }

  /// Lowest word; for functions of <= 6 variables this is the Tt6 form.
  Tt6 to_tt6() const noexcept {
    assert(num_vars_ <= kTt6MaxVars);
    return tt6_replicate(words_[0], num_vars_);
  }

  bool get_bit(std::size_t index) const noexcept {
    return (words_[index >> 6] >> (index & 63)) & 1ull;
  }
  void set_bit(std::size_t index, bool value) noexcept {
    if (value) {
      words_[index >> 6] |= (1ull << (index & 63));
    } else {
      words_[index >> 6] &= ~(1ull << (index & 63));
    }
  }

  bool is_const0() const noexcept {
    for (auto w : words_) {
      if (w != 0) return false;
    }
    return true;
  }
  bool is_const1() const noexcept {
    TruthTable t = ~(*this);
    return t.is_const0();
  }

  int count_ones() const noexcept;

  bool depends_on(int var) const noexcept {
    return cofactor0(var) != cofactor1(var);
  }

  /// Negative/positive cofactors (still functions of num_vars variables).
  TruthTable cofactor0(int var) const;
  TruthTable cofactor1(int var) const;

  /// Swaps two variables.
  TruthTable swap_vars(int a, int b) const;

  /// Removes non-support variables; \p old_index_of[i] gets the previous
  /// index of new variable i.  Returns the shrunk table.
  TruthTable shrink_support(std::vector<int>& old_index_of) const;

  friend TruthTable operator~(TruthTable t) {
    for (auto& w : t.words_) w = ~w;
    t.trim();
    return t;
  }
  friend TruthTable operator&(TruthTable a, const TruthTable& b) {
    assert(a.num_vars_ == b.num_vars_);
    for (std::size_t i = 0; i < a.words_.size(); ++i) a.words_[i] &= b.words_[i];
    return a;
  }
  friend TruthTable operator|(TruthTable a, const TruthTable& b) {
    assert(a.num_vars_ == b.num_vars_);
    for (std::size_t i = 0; i < a.words_.size(); ++i) a.words_[i] |= b.words_[i];
    return a;
  }
  friend TruthTable operator^(TruthTable a, const TruthTable& b) {
    assert(a.num_vars_ == b.num_vars_);
    for (std::size_t i = 0; i < a.words_.size(); ++i) a.words_[i] ^= b.words_[i];
    return a;
  }
  friend bool operator==(const TruthTable& a, const TruthTable& b) {
    return a.num_vars_ == b.num_vars_ && a.words_ == b.words_;
  }

  std::uint64_t hash() const noexcept {
    std::uint64_t h = hash_mix64(static_cast<std::uint64_t>(num_vars_));
    for (auto w : words_) h = hash_combine(h, w);
    return h;
  }

  static constexpr int kMaxVars = 20;

  static std::size_t num_words(int num_vars) noexcept {
    return num_vars <= kTt6MaxVars ? 1
                                   : (std::size_t{1} << (num_vars - 6));
  }

 private:
  /// Keeps unused bits of the last (only) word in replicated canonical form.
  void trim() noexcept {
    if (num_vars_ < kTt6MaxVars) {
      words_[0] = tt6_replicate(words_[0], num_vars_);
    }
  }

  int num_vars_ = 0;
  std::vector<std::uint64_t> words_{0ull};
};

}  // namespace mcs
