/// \file cut.hpp
/// \brief Cuts: bounded leaf sets with local functions.
///
/// A cut of node n is a set of nodes (leaves) such that every PI-to-n path
/// crosses a leaf; the cut's function expresses n in terms of its leaves.
/// Cuts are the currency of every mapper in this library and of the MCH
/// construction (the candidates of Algorithm 2 are synthesized from cut
/// functions).  Leaf sets are kept sorted; functions are single-word truth
/// tables, so the maximum cut size is 6 (the paper's FPGA experiments use
/// 6-LUTs; ASIC matching uses 4-5).

#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>

#include "mcs/network/network.hpp"
#include "mcs/tt/tt6.hpp"

namespace mcs {

inline constexpr int kMaxCutSize = 6;

/// A cut: sorted leaves + function + mapper cost fields.  Cache-line
/// aligned: cut sets live densely packed in the enumeration arena, and the
/// alignment keeps every cut inside exactly one line during the all-pairs
/// merge walk (a 56-byte packed layout would straddle two lines for 7 of 8
/// cuts).
struct alignas(64) Cut {
  std::array<NodeId, kMaxCutSize> leaves{};
  std::uint8_t size = 0;
  /// Copied from a choice-class member's set into its head's (set by cut
  /// enumeration; leaf merges never set it).
  bool from_choice = false;
  Tt6 function = 0;          ///< function of the cut root over the leaves
  std::uint64_t signature = 0;  ///< bloom filter over leaf ids

  float delay = 0.0f;      ///< arrival estimate under the current pass
  float area_flow = 0.0f;  ///< area-flow / exact-area estimate

  bool is_trivial() const noexcept { return size == 1; }

  static std::uint64_t leaf_bit(NodeId n) noexcept {
    return 1ull << (n & 63u);
  }

  /// Builds the trivial cut {n} (function = x0).
  static Cut trivial(NodeId n) noexcept {
    Cut c;
    c.leaves[0] = n;
    c.size = 1;
    c.function = tt6_var(0);
    c.signature = leaf_bit(n);
    return c;
  }

  bool contains(NodeId n) const noexcept {
    if (!(signature & leaf_bit(n))) return false;
    return std::find(leaves.begin(), leaves.begin() + size, n) !=
           leaves.begin() + size;
  }

  /// True iff every leaf of this cut also appears in \p other (this
  /// dominates other; the dominated cut is redundant).  Both leaf arrays
  /// are sorted, so after the signature prefilter the subset test is one
  /// linear merge walk.
  bool dominates(const Cut& other) const noexcept {
    if (size > other.size) return false;
    if ((signature & other.signature) != signature) return false;
    if (size == other.size) {
      // Equal-size dominance is exact leaf equality: one flat compare
      // (the most common outcome -- duplicate merges -- on dense nets).
      return std::equal(leaves.begin(), leaves.begin() + size,
                        other.leaves.begin());
    }
    int i = 0;
    for (int j = 0; j < other.size; ++j) {
      if (leaves[i] < other.leaves[j]) return false;  // missing from other
      if (leaves[i] == other.leaves[j] && ++i == size) return true;
    }
    return false;
  }

  friend bool operator==(const Cut& a, const Cut& b) noexcept {
    if (a.size != b.size || a.signature != b.signature) return false;
    return std::equal(a.leaves.begin(), a.leaves.begin() + a.size,
                      b.leaves.begin());
  }
};

static_assert(sizeof(Cut) == 64, "a cut fills exactly one cache line");

/// Merges the leaf sets of \p a and \p b into \p out (sorted union).
/// Returns false when the union exceeds \p max_size.
///
/// The signature popcount is a lower bound on the true union size (distinct
/// leaves may share a bloom bit, never the reverse), so an over-popcount
/// union is rejected with one popcount instead of the merge loop -- the
/// common outcome on dense networks.
///
/// Both helpers are defined inline: they are the innermost operations of
/// cut enumeration (tens of millions of calls per mapping pass) and must
/// inline into the templated merge loop.
inline bool merge_cut_leaves_prefilter(const Cut& a, const Cut& b,
                                       int max_size) noexcept {
  return std::popcount(a.signature | b.signature) <= max_size;
}

inline bool merge_cut_leaves(const Cut& a, const Cut& b, int max_size,
                             Cut& out) noexcept {
  // Branch-reduced sorted union: emit min(la, lb), advance whichever side
  // supplied it (both on ties) -- compiles to conditional moves instead of
  // a data-dependent 3-way branch.
  int ia = 0, ib = 0, n = 0;
  while (ia < a.size && ib < b.size) {
    if (n == max_size) return false;
    const NodeId la = a.leaves[ia];
    const NodeId lb = b.leaves[ib];
    out.leaves[n++] = la < lb ? la : lb;
    ia += la <= lb;
    ib += lb <= la;
  }
  while (ia < a.size) {
    if (n == max_size) return false;
    out.leaves[n++] = a.leaves[ia++];
  }
  while (ib < b.size) {
    if (n == max_size) return false;
    out.leaves[n++] = b.leaves[ib++];
  }
  out.size = static_cast<std::uint8_t>(n);
  out.signature = a.signature | b.signature;
  return true;
}

/// merge_cut_leaves variant that additionally records where each input
/// leaf landed in the union (\p pos_a / \p pos_b, one entry per input
/// leaf).  The positions come for free out of the merge walk and let the
/// function expansion skip its leaf-matching rescan.
inline bool merge_cut_leaves_track(const Cut& a, const Cut& b, int max_size,
                                   Cut& out, std::uint8_t* pos_a,
                                   std::uint8_t* pos_b) noexcept {
  // The explicit kMaxCutSize clamp tells the optimizer the pos_* writes
  // stay inside their 6-entry arrays (a.size is a uint8 as far as GCC's
  // range analysis knows).
  const int an = std::min<int>(a.size, kMaxCutSize);
  const int bn = std::min<int>(b.size, kMaxCutSize);
  // Branch-reduced union walk (see merge_cut_leaves).  Both position
  // slots are stored unconditionally: a slot written for the side that did
  // not advance is rewritten -- correctly -- the next time that leaf is
  // considered, so only the final store survives.
  int ia = 0, ib = 0, n = 0;
  while (ia < an && ib < bn) {
    if (n == max_size) return false;
    const NodeId la = a.leaves[ia];
    const NodeId lb = b.leaves[ib];
    pos_a[ia] = static_cast<std::uint8_t>(n);
    pos_b[ib] = static_cast<std::uint8_t>(n);
    out.leaves[n++] = la < lb ? la : lb;
    ia += la <= lb;
    ib += lb <= la;
  }
  while (ia < an) {
    if (n == max_size) return false;
    pos_a[ia] = static_cast<std::uint8_t>(n);
    out.leaves[n++] = a.leaves[ia++];
  }
  while (ib < bn) {
    if (n == max_size) return false;
    pos_b[ib] = static_cast<std::uint8_t>(n);
    out.leaves[n++] = b.leaves[ib++];
  }
  out.size = static_cast<std::uint8_t>(n);
  out.signature = a.signature | b.signature;
  return true;
}

/// Expands \p f, a function of \p n variables, onto \p super_n variables
/// where input variable i moves to position pos[i] (strictly increasing,
/// as produced by merge_cut_leaves_track).
inline Tt6 expand_cut_function_at(Tt6 f, int n, const std::uint8_t* pos,
                                  int super_n) noexcept {
  if (n == super_n) return f;  // identity placement, already replicated
  if (n == 1) return tt6_var(pos[0]);  // trivial cut: a projection
  for (int i = n - 1; i >= 0; --i) {
    if (pos[i] != i) f = tt6_swap(f, i, pos[i]);
  }
  return tt6_replicate(f, super_n);
}

/// Expands \p f, a function over the (sorted) leaves of \p cut, to a
/// function over the (sorted) superset leaves of \p super.
/// \pre cut's leaves are a subset of super's leaves.
inline Tt6 expand_cut_function(Tt6 f, const Cut& cut, const Cut& super) {
  // Equal sizes: a subset of equal cardinality is the identical leaf set,
  // and stored functions are already in replicated canonical form.
  if (cut.size == super.size) return f;
  // Positions of cut's leaves within super's leaves (strictly increasing).
  std::array<int, kMaxCutSize> pos{};
  int j = 0;
  for (int i = 0; i < cut.size; ++i) {
    while (j < super.size && super.leaves[j] != cut.leaves[i]) ++j;
    assert(j < super.size && "expand_cut_function: cut is not a subset");
    pos[i] = j++;
  }
  // Move variable i to position pos[i], processing from the highest index so
  // previously placed variables are never displaced (pos is increasing and
  // the target slots hold vacuous variables).
  for (int i = cut.size - 1; i >= 0; --i) {
    if (pos[i] != i) f = tt6_swap(f, i, pos[i]);
  }
  return tt6_replicate(f, super.size);
}

}  // namespace mcs
