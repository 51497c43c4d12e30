#include "mcs/tt/truth_table.hpp"

#include <bit>

namespace mcs {

int TruthTable::count_ones() const noexcept {
  if (num_vars_ <= kTt6MaxVars) {
    return std::popcount(words_[0] & tt6_mask(num_vars_));
  }
  int n = 0;
  for (auto w : words_) n += std::popcount(w);
  return n;
}

TruthTable TruthTable::cofactor0(int var) const {
  TruthTable r = *this;
  if (0 <= var && var < kTt6MaxVars) {
    for (auto& w : r.words_) w = tt6_cofactor0(w, var);
  } else {
    const std::size_t period = std::size_t{1} << (var - kTt6MaxVars);
    for (std::size_t i = 0; i < r.words_.size(); ++i) {
      if (i & period) r.words_[i] = r.words_[i ^ period];
    }
  }
  return r;
}

TruthTable TruthTable::cofactor1(int var) const {
  TruthTable r = *this;
  if (0 <= var && var < kTt6MaxVars) {
    for (auto& w : r.words_) w = tt6_cofactor1(w, var);
  } else {
    const std::size_t period = std::size_t{1} << (var - kTt6MaxVars);
    for (std::size_t i = 0; i < r.words_.size(); ++i) {
      if (!(i & period)) r.words_[i] = r.words_[i ^ period];
    }
  }
  return r;
}

TruthTable TruthTable::swap_vars(int a, int b) const {
  if (a == b) return *this;
  if (a > b) std::swap(a, b);
  TruthTable r = *this;
  if (b < kTt6MaxVars) {
    for (auto& w : r.words_) w = tt6_swap(w, a, b);
    return r;
  }
  if (a >= kTt6MaxVars) {
    // Both variables index whole words: swap word blocks.
    const std::size_t pa = std::size_t{1} << (a - kTt6MaxVars);
    const std::size_t pb = std::size_t{1} << (b - kTt6MaxVars);
    for (std::size_t i = 0; i < r.words_.size(); ++i) {
      const bool bit_a = (i & pa) != 0;
      const bool bit_b = (i & pb) != 0;
      if (bit_a && !bit_b) {
        std::swap(r.words_[i], r.words_[(i ^ pa) | pb]);
      }
    }
    return r;
  }
  // Mixed: variable a is inside words, b selects words.  Exchange the
  // a-positive half of word i (b=0) with the a-negative half of word i|pb.
  const std::size_t pb = std::size_t{1} << (b - kTt6MaxVars);
  const unsigned shift = 1u << a;
  const Tt6 hi_mask = kTt6Projections[a];
  for (std::size_t i = 0; i < r.words_.size(); ++i) {
    if (i & pb) continue;
    std::uint64_t& lo = r.words_[i];
    std::uint64_t& hi = r.words_[i | pb];
    const std::uint64_t lo_hi = lo & hi_mask;        // a=1, b=0 part
    const std::uint64_t hi_lo = hi & ~hi_mask;       // a=0, b=1 part
    lo = (lo & ~hi_mask) | (hi_lo << shift);
    hi = (hi & hi_mask) | (lo_hi >> shift);
  }
  return r;
}

TruthTable TruthTable::shrink_support(std::vector<int>& old_index_of) const {
  old_index_of.clear();
  TruthTable t = *this;
  int new_vars = 0;
  for (int v = 0; v < num_vars_; ++v) {
    if (!t.depends_on(v)) continue;
    if (v != new_vars) t = t.swap_vars(new_vars, v);
    old_index_of.push_back(v);
    ++new_vars;
  }
  TruthTable r(new_vars);
  const std::size_t words_needed = num_words(new_vars);
  for (std::size_t i = 0; i < words_needed; ++i) r.words()[i] = t.words()[i];
  if (new_vars < kTt6MaxVars) {
    r.words()[0] = tt6_replicate(r.words()[0], new_vars);
  }
  return r;
}

}  // namespace mcs
