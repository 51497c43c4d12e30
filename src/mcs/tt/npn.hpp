/// \file npn.hpp
/// \brief NPN canonicalization of single-word truth tables.
///
/// Two functions are NPN-equivalent when one can be obtained from the other
/// by Negating inputs, Permuting inputs and/or Negating the output.  NPN
/// classes drive Boolean matching in the ASIC mapper (cut function vs.
/// library cell) and index the 4-input rewriting databases used by the
/// level-oriented synthesis strategy of the MCH operator (paper, Sec. III-A).

#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>

#include "mcs/tt/tt6.hpp"

namespace mcs {

/// An NPN transform T = (perm, input flips, output flip).
///
/// Applying T to a function f yields, operationally,
///   1. flip every input i with bit i set in `flips` (indices refer to the
///      *original* variable numbering of f),
///   2. move original variable `perm[i]` to position i,
///   3. complement the output when `out_flip` is set.
struct NpnTransform {
  std::array<int, 6> perm{0, 1, 2, 3, 4, 5};  ///< perm[new_pos] = old_var
  std::uint32_t flips = 0;                    ///< input-negation mask (old vars)
  bool out_flip = false;                      ///< output negation
  int num_vars = 0;

  /// Applies this transform to \p f.
  [[nodiscard]] Tt6 apply(Tt6 f) const noexcept {
    for (int v = 0; v < num_vars; ++v) {
      if (flips & (1u << v)) f = tt6_flip_var(f, v);
    }
    f = tt6_permute(f, perm, num_vars);
    if (out_flip) f = ~f;
    return tt6_replicate(f, num_vars);
  }
};

/// Result of NPN canonicalization: `canon == transform.apply(original)`.
struct NpnCanonResult {
  Tt6 canon = 0;
  NpnTransform transform;
};

/// Exact (exhaustive) NPN canonicalization.
///
/// Considers all n! * 2^n * 2 transforms -- permutations in
/// std::next_permutation order, then input flips ascending, then the output
/// phase -- and returns the smallest image together with the first
/// transform that produces it.  Ties matter: the transform fixes the pin
/// assignment, and through it the delay, of every library match.  Each
/// permutation is applied to f once; its 2^n flip images cost one
/// variable flip each.  Intended for n <= 5; cost grows as n! * 2^n.
[[nodiscard]] NpnCanonResult npn_canonicalize_exact(Tt6 f, int num_vars);

/// Describes how to realize a function `f` using an implementation of `g`
/// when canon(f) == canon(g):  f(u) = out ^ g(z) with
/// z_j = u[pin_to_leaf[j]] ^ bit j of pin_negation.
struct NpnMatch {
  std::array<int, 6> pin_to_leaf{0, 1, 2, 3, 4, 5};
  std::uint32_t pin_negation = 0;
  bool output_negation = false;
};

/// Composes the canonicalizing transforms of \p f (tf) and of \p g (tg) into
/// the pin mapping that implements f in terms of g.  \pre both transforms
/// have the same num_vars and both canonical forms are equal.
[[nodiscard]] NpnMatch npn_match(const NpnTransform& tf,
                                 const NpnTransform& tg) noexcept;

/// Memoizing wrapper around exact canonicalization for 4-variable functions.
/// The 4-input space has only 65536 functions and 222 NPN classes, so the
/// cache converges very quickly in rewriting loops.
class Npn4Cache {
 public:
  /// \p f is interpreted as a 4-variable function (low 16 bits, replicated).
  const NpnCanonResult& canonicalize(Tt6 f);

  std::size_t size() const noexcept { return cache_.size(); }

 private:
  std::unordered_map<std::uint16_t, NpnCanonResult> cache_;
};

}  // namespace mcs
