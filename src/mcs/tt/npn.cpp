#include "mcs/tt/npn.hpp"

#include <algorithm>
#include <bit>

namespace mcs {

NpnCanonResult npn_canonicalize_exact(Tt6 f, int num_vars) {
  f = tt6_replicate(f, num_vars);
  const Tt6 mask = tt6_mask(num_vars);
  const std::uint32_t num_flips = 1u << num_vars;

  NpnCanonResult best;
  best.transform.num_vars = num_vars;
  Tt6 best_image = 0;
  bool first = true;

  // Flipping original variable v and then permuting equals permuting and
  // then flipping v's new position, so each permutation is applied once
  // and its 2^n flip images derive from earlier ones, one flip each.
  std::array<Tt6, 64> image{};
  std::array<int, 6> p{0, 1, 2, 3, 4, 5};  // permutations of the first n
  do {
    std::array<int, 6> pos{};  // pos[old var] = its position after p
    for (int i = 0; i < num_vars; ++i) pos[p[i]] = i;
    image[0] = tt6_permute(f, p, num_vars);
    for (std::uint32_t flips = 1; flips < num_flips; ++flips) {
      image[flips] = tt6_flip_var(image[flips & (flips - 1)],
                                  pos[std::countr_zero(flips)]);
    }
    // Same order and strict `<` as applying every transform in turn, so a
    // tie keeps the first transform found.
    for (std::uint32_t flips = 0; flips < num_flips; ++flips) {
      for (const bool out : {false, true}) {
        const Tt6 candidate = (out ? ~image[flips] : image[flips]) & mask;
        if (first || candidate < best_image) {
          first = false;
          best_image = candidate;
          best.transform.perm = p;
          best.transform.flips = flips;
          best.transform.out_flip = out;
        }
      }
    }
  } while (std::next_permutation(p.begin(), p.begin() + num_vars));

  best.canon = tt6_replicate(best_image, num_vars);
  return best;
}

NpnMatch npn_match(const NpnTransform& tf, const NpnTransform& tg) noexcept {
  const int n = tf.num_vars;
  // Inverse of g's permutation: where did cell variable j end up?
  std::array<int, 6> g_inv{0, 1, 2, 3, 4, 5};
  for (int i = 0; i < n; ++i) g_inv[tg.perm[i]] = i;

  NpnMatch m;
  for (int j = 0; j < n; ++j) {
    const int leaf = tf.perm[g_inv[j]];
    m.pin_to_leaf[j] = leaf;
    const bool neg = ((tf.flips >> leaf) & 1u) != ((tg.flips >> j) & 1u);
    if (neg) m.pin_negation |= (1u << j);
  }
  m.output_negation = tf.out_flip != tg.out_flip;
  return m;
}

const NpnCanonResult& Npn4Cache::canonicalize(Tt6 f) {
  const auto key = static_cast<std::uint16_t>(f & tt6_mask(4));
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    it = cache_.emplace(key, npn_canonicalize_exact(key, 4)).first;
  }
  return it->second;
}

}  // namespace mcs
