/// Unit tests for single-word and dynamic truth tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "mcs/common/rng.hpp"
#include "mcs/tt/npn.hpp"
#include "mcs/tt/truth_table.hpp"
#include "mcs/tt/tt6.hpp"

namespace mcs {
namespace {

TEST(Tt6, ProjectionsAreConsistent) {
  for (int v = 0; v < 6; ++v) {
    const Tt6 t = tt6_var(v);
    for (std::uint32_t m = 0; m < 64; ++m) {
      const bool bit = (t >> m) & 1;
      EXPECT_EQ(bit, ((m >> v) & 1) != 0) << "var " << v << " minterm " << m;
    }
  }
}

TEST(Tt6, MaskSizes) {
  EXPECT_EQ(tt6_mask(0), 0x1ull);
  EXPECT_EQ(tt6_mask(1), 0x3ull);
  EXPECT_EQ(tt6_mask(2), 0xfull);
  EXPECT_EQ(tt6_mask(3), 0xffull);
  EXPECT_EQ(tt6_mask(6), ~0ull);
}

TEST(Tt6, CofactorsOfAnd) {
  const Tt6 f = tt6_var(0) & tt6_var(1);
  EXPECT_EQ(tt6_cofactor0(f, 0), tt6_const0());
  EXPECT_EQ(tt6_cofactor1(f, 0), tt6_var(1));
  EXPECT_TRUE(tt6_has_var(f, 0));
  EXPECT_TRUE(tt6_has_var(f, 1));
  EXPECT_FALSE(tt6_has_var(f, 2));
}

TEST(Tt6, FlipVar) {
  const Tt6 f = tt6_var(0) & tt6_var(2);
  const Tt6 g = tt6_flip_var(f, 2);
  EXPECT_EQ(g, tt6_var(0) & ~tt6_var(2));
  EXPECT_EQ(tt6_flip_var(g, 2), f);
}

TEST(Tt6, SwapArbitraryVars) {
  Rng rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    const Tt6 f = tt6_replicate(rng.next(), 6);
    const int a = static_cast<int>(rng.next_below(6));
    const int b = static_cast<int>(rng.next_below(6));
    const Tt6 g = tt6_swap(f, a, b);
    // Swapping twice is the identity.
    EXPECT_EQ(tt6_swap(g, a, b), f);
    // Pointwise check.
    for (std::uint32_t m = 0; m < 64; ++m) {
      std::uint32_t swapped = m & ~((1u << a) | (1u << b));
      if (m & (1u << a)) swapped |= (1u << b);
      if (m & (1u << b)) swapped |= (1u << a);
      EXPECT_EQ((g >> m) & 1, (f >> swapped) & 1);
    }
  }
}

TEST(Tt6, PermuteMatchesPointwiseDefinition) {
  Rng rng(11);
  for (int iter = 0; iter < 100; ++iter) {
    const int n = 4;
    const Tt6 f = tt6_replicate(rng.next(), n);
    std::array<int, 6> perm{0, 1, 2, 3, 4, 5};
    for (int i = n - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.next_below(i + 1)]);
    }
    const Tt6 g = tt6_permute(f, perm, n);
    // g(x0..x3) = f(y) with y[perm[i]] = x[i].
    for (std::uint32_t m = 0; m < (1u << n); ++m) {
      std::uint32_t y = 0;
      for (int i = 0; i < n; ++i) {
        if (m & (1u << i)) y |= (1u << perm[i]);
      }
      EXPECT_EQ((g >> m) & 1, (f >> y) & 1);
    }
  }
}

TEST(Tt6, ShrinkSupportRemovesVacuousVars) {
  // f = x1 & x3 as a 4-var function.
  Tt6 f = tt6_var(1) & tt6_var(3);
  std::array<int, 6> map{};
  const int n = tt6_shrink_support(f, 4, map);
  EXPECT_EQ(n, 2);
  EXPECT_EQ(map[0], 1);
  EXPECT_EQ(map[1], 3);
  EXPECT_EQ(f, tt6_var(0) & tt6_var(1));
}

TEST(Tt6, CountOnes) {
  EXPECT_EQ(tt6_count_ones(tt6_var(0), 1), 1);
  EXPECT_EQ(tt6_count_ones(tt6_var(0), 3), 4);
  EXPECT_EQ(tt6_count_ones(tt6_const1(), 6), 64);
}

TEST(Npn, CanonIsInvariantUnderRandomTransforms) {
  Rng rng(3);
  for (int iter = 0; iter < 100; ++iter) {
    const int n = 4;
    const Tt6 f = tt6_replicate(rng.next(), n);
    const auto rf = npn_canonicalize_exact(f, n);
    EXPECT_EQ(rf.transform.apply(f), rf.canon);

    // Apply a random NPN transform to f and re-canonicalize.
    NpnTransform t;
    t.num_vars = n;
    for (int i = n - 1; i > 0; --i) {
      std::swap(t.perm[i], t.perm[rng.next_below(i + 1)]);
    }
    t.flips = static_cast<std::uint32_t>(rng.next_below(1u << n));
    t.out_flip = rng.next_bool();
    const Tt6 g = t.apply(f);
    const auto rg = npn_canonicalize_exact(g, n);
    EXPECT_EQ(rf.canon, rg.canon) << "NPN-equivalent functions must share "
                                     "their canonical form";
  }
}

TEST(Npn, MatchReconstructsFunction) {
  Rng rng(5);
  for (int iter = 0; iter < 100; ++iter) {
    const int n = 4;
    const Tt6 f = tt6_replicate(rng.next(), n);
    // g: a random NPN transform of f.
    NpnTransform t;
    t.num_vars = n;
    for (int i = n - 1; i > 0; --i) {
      std::swap(t.perm[i], t.perm[rng.next_below(i + 1)]);
    }
    t.flips = static_cast<std::uint32_t>(rng.next_below(1u << n));
    t.out_flip = rng.next_bool();
    const Tt6 g = t.apply(f);

    const auto rf = npn_canonicalize_exact(f, n);
    const auto rg = npn_canonicalize_exact(g, n);
    ASSERT_EQ(rf.canon, rg.canon);
    const NpnMatch m = npn_match(rf.transform, rg.transform);

    // Rebuild f from g through the match: f(u) = out ^ g(z),
    // z_j = u[pin_to_leaf[j]] ^ pin_negation[j].
    for (std::uint32_t u = 0; u < (1u << n); ++u) {
      std::uint32_t z = 0;
      for (int j = 0; j < n; ++j) {
        bool bit = (u >> m.pin_to_leaf[j]) & 1;
        if (m.pin_negation & (1u << j)) bit = !bit;
        if (bit) z |= (1u << j);
      }
      bool val = (g >> z) & 1;
      if (m.output_negation) val = !val;
      EXPECT_EQ(val, ((f >> u) & 1) != 0);
    }
  }
}

/// Reference: every transform applied in turn, in the documented order
/// (permutations, then flips ascending, then the output phase), keeping
/// the first smallest image.
NpnCanonResult npn_canonicalize_reference(Tt6 f, int num_vars) {
  f = tt6_replicate(f, num_vars);
  NpnCanonResult best;
  best.canon = ~0ull;
  bool first = true;
  std::array<int, 6> p{0, 1, 2, 3, 4, 5};
  do {
    for (std::uint32_t flips = 0; flips < (1u << num_vars); ++flips) {
      for (int out = 0; out < 2; ++out) {
        NpnTransform t;
        t.num_vars = num_vars;
        t.perm = p;
        t.flips = flips;
        t.out_flip = (out == 1);
        const Tt6 image = t.apply(f) & tt6_mask(num_vars);
        if (first || image < (best.canon & tt6_mask(num_vars))) {
          first = false;
          best.canon = tt6_replicate(image, num_vars);
          best.transform = t;
        }
      }
    }
  } while (std::next_permutation(p.begin(), p.begin() + num_vars));
  return best;
}

::testing::AssertionResult same_canonicalization(Tt6 f, int num_vars) {
  const NpnCanonResult got = npn_canonicalize_exact(f, num_vars);
  const NpnCanonResult want = npn_canonicalize_reference(f, num_vars);
  const NpnTransform& a = got.transform;
  const NpnTransform& b = want.transform;
  if (got.canon == want.canon && a.perm == b.perm && a.flips == b.flips &&
      a.out_flip == b.out_flip && a.num_vars == b.num_vars) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << num_vars << "-var f=0x" << std::hex << f << ": canon 0x"
         << got.canon << " vs 0x" << want.canon << ", flips 0x" << a.flips
         << " vs 0x" << b.flips << ", out_flip " << a.out_flip << " vs "
         << b.out_flip;
}

TEST(Npn, ExactEqualsTransformByTransformReference) {
  // The transform (not just the canon) must match: ties keep the first
  // transform found, and the ASIC mapper's pin assignment follows it.
  for (int n = 0; n <= 4; ++n) {
    for (std::uint32_t f = 0; f < (1u << (1u << n)); ++f) {
      ASSERT_TRUE(same_canonicalization(f, n));
    }
  }
  Rng rng(2024);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(same_canonicalization(rng.next(), 5));
  }
}

TEST(Npn4Cache, CachesAndAgreesWithExact) {
  Npn4Cache cache;
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    const Tt6 f = tt6_replicate(rng.next(), 4);
    const auto& r = cache.canonicalize(f);
    const auto e = npn_canonicalize_exact(f, 4);
    EXPECT_EQ(r.canon, e.canon);
  }
  EXPECT_LE(cache.size(), 50u);
}

TEST(TruthTable, ProjectionAndOps) {
  const int n = 9;  // exercises multi-word paths
  const auto x0 = TruthTable::projection(0, n);
  const auto x7 = TruthTable::projection(7, n);
  const auto x8 = TruthTable::projection(8, n);
  const auto f = (x0 & x7) ^ x8;
  for (std::uint32_t m = 0; m < (1u << n); ++m) {
    const bool b0 = m & 1, b7 = m & (1 << 7), b8 = m & (1 << 8);
    EXPECT_EQ(f.get_bit(m), (b0 && b7) != b8);
  }
}

TEST(TruthTable, CofactorsLargeVars) {
  const int n = 8;
  const auto x2 = TruthTable::projection(2, n);
  const auto x7 = TruthTable::projection(7, n);
  const auto f = x2 & x7;
  EXPECT_EQ(f.cofactor0(7), TruthTable::constant(false, n));
  EXPECT_EQ(f.cofactor1(7), x2);
  EXPECT_TRUE(f.depends_on(2));
  EXPECT_TRUE(f.depends_on(7));
  EXPECT_FALSE(f.depends_on(0));
}

TEST(TruthTable, SwapVarsAllRegimes) {
  const int n = 8;
  Rng rng(17);
  for (int iter = 0; iter < 50; ++iter) {
    TruthTable f(n);
    for (auto& w : f.words()) w = rng.next();
    const int a = static_cast<int>(rng.next_below(n));
    const int b = static_cast<int>(rng.next_below(n));
    const auto g = f.swap_vars(a, b);
    EXPECT_EQ(g.swap_vars(a, b), f);
    for (std::uint32_t m = 0; m < (1u << n); ++m) {
      std::uint32_t s = m & ~((1u << a) | (1u << b));
      if (m & (1u << a)) s |= (1u << b);
      if (m & (1u << b)) s |= (1u << a);
      ASSERT_EQ(g.get_bit(m), f.get_bit(s)) << "a=" << a << " b=" << b;
    }
  }
}

TEST(TruthTable, ShrinkSupport) {
  const int n = 10;
  const auto f = TruthTable::projection(3, n) ^ TruthTable::projection(8, n);
  std::vector<int> old_idx;
  const auto g = f.shrink_support(old_idx);
  EXPECT_EQ(g.num_vars(), 2);
  ASSERT_EQ(old_idx.size(), 2u);
  EXPECT_EQ(old_idx[0], 3);
  EXPECT_EQ(old_idx[1], 8);
  EXPECT_EQ(g, TruthTable::projection(0, 2) ^ TruthTable::projection(1, 2));
}

TEST(TruthTable, Tt6Interop) {
  const Tt6 f = tt6_var(0) | tt6_var(2);
  const auto t = TruthTable::from_tt6(f, 3);
  EXPECT_EQ(t.to_tt6(), tt6_replicate(f, 3));
  EXPECT_EQ(t.count_ones(), tt6_count_ones(f, 3));
}

}  // namespace
}  // namespace mcs
