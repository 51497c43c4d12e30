/// Tests for cut data structures and priority-cut enumeration, including
/// choice-class merging (Algorithm 3's cut-sharing step).

#include <gtest/gtest.h>

#include "mcs/cut/enumeration.hpp"
#include "mcs/network/network_utils.hpp"
#include "test_util.hpp"

namespace mcs {
namespace {

TEST(Cut, TrivialCut) {
  const Cut c = Cut::trivial(42);
  EXPECT_TRUE(c.is_trivial());
  EXPECT_EQ(c.size, 1);
  EXPECT_TRUE(c.contains(42));
  EXPECT_FALSE(c.contains(41));
  EXPECT_EQ(c.function, tt6_var(0));
}

TEST(Cut, MergeLeaves) {
  Cut a = Cut::trivial(1);
  Cut b = Cut::trivial(3);
  Cut ab;
  ASSERT_TRUE(merge_cut_leaves(a, b, 6, ab));
  EXPECT_EQ(ab.size, 2);
  EXPECT_EQ(ab.leaves[0], 1u);
  EXPECT_EQ(ab.leaves[1], 3u);

  // Overflow is rejected.
  Cut big;
  big.size = 6;
  for (int i = 0; i < 6; ++i) {
    big.leaves[i] = static_cast<NodeId>(10 + i);
    big.signature |= Cut::leaf_bit(big.leaves[i]);
  }
  Cut out;
  EXPECT_FALSE(merge_cut_leaves(big, a, 6, out));
  EXPECT_TRUE(merge_cut_leaves(big, Cut::trivial(12), 6, out));
  EXPECT_EQ(out.size, 6);
}

TEST(Cut, Dominance) {
  Cut a;
  a.size = 2;
  a.leaves = {1, 2};
  a.signature = Cut::leaf_bit(1) | Cut::leaf_bit(2);
  Cut b;
  b.size = 3;
  b.leaves = {1, 2, 5};
  b.signature = a.signature | Cut::leaf_bit(5);
  EXPECT_TRUE(a.dominates(b));
  EXPECT_FALSE(b.dominates(a));
  EXPECT_TRUE(a.dominates(a));
}

TEST(Cut, ExpandFunction) {
  // f = x0 & x1 over leaves {3, 7}; expand to leaves {3, 5, 7}.
  Cut small;
  small.size = 2;
  small.leaves = {3, 7};
  Cut super;
  super.size = 3;
  super.leaves = {3, 5, 7};
  const Tt6 f = tt6_var(0) & tt6_var(1);
  const Tt6 g = expand_cut_function(f, small, super);
  EXPECT_TRUE(tt6_equal(g, tt6_var(0) & tt6_var(2), 3));
}

class CutEnumerationOnRandomNets : public ::testing::TestWithParam<int> {};

TEST_P(CutEnumerationOnRandomNets, CutFunctionsMatchConeFunctions) {
  const auto net = mcs::testing::random_network(
      {.num_pis = 6, .num_gates = 50, .num_pos = 4,
       .seed = static_cast<std::uint64_t>(GetParam())});
  CutEnumerator enumerator(net, {.cut_size = 4, .cut_limit = 8});
  enumerator.run(topo_order(net));

  for (const NodeId n : topo_order(net)) {
    if (!net.is_gate(n)) continue;
    for (const Cut& c : enumerator.cuts(n)) {
      std::vector<NodeId> leaves(c.leaves.begin(), c.leaves.begin() + c.size);
      const TruthTable expected =
          cone_function(net, Signal(n, false), leaves);
      ASSERT_LE(expected.num_vars(), 6);
      EXPECT_TRUE(tt6_equal(c.function, expected.to_tt6(), c.size))
          << "node " << n << " cut size " << int(c.size);
    }
  }
}

TEST_P(CutEnumerationOnRandomNets, RespectsSizeAndCountLimits) {
  const auto net = mcs::testing::random_network(
      {.num_pis = 8, .num_gates = 80, .num_pos = 4,
       .seed = static_cast<std::uint64_t>(GetParam() + 100)});
  const int k = 5, l = 6;
  CutEnumerator enumerator(net, {.cut_size = k, .cut_limit = l});
  enumerator.run(topo_order(net));
  for (const NodeId n : topo_order(net)) {
    const auto& cuts = enumerator.cuts(n);
    EXPECT_LE(cuts.size(), static_cast<std::size_t>(l) + 1)
        << "limit plus the trivial cut";
    for (const Cut& c : cuts) {
      EXPECT_LE(int(c.size), k);
      // Leaves sorted and unique.
      for (int i = 1; i < c.size; ++i) {
        EXPECT_LT(c.leaves[i - 1], c.leaves[i]);
      }
    }
    if (net.is_gate(n)) {
      EXPECT_TRUE(cuts.back().is_trivial());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutEnumerationOnRandomNets,
                         ::testing::Values(1, 2, 3, 4));

TEST(CutEnumeration, ArenaResetReproducesIdenticalCutSets) {
  // reset() must clear the slots without changing results: two passes over
  // the same order yield bit-identical cut sets (the mappers rely on this
  // for their re-enumerating recovery passes).
  const auto net = mcs::testing::random_network(
      {.num_pis = 8, .num_gates = 120, .num_pos = 6, .seed = 42});
  const auto order = topo_order(net);
  CutEnumerator enumerator(net, {.cut_size = 5, .cut_limit = 6});
  enumerator.run(order);

  std::vector<std::vector<Cut>> first(net.size());
  for (const NodeId n : order) {
    const auto cuts = enumerator.cuts(n);
    first[n].assign(cuts.begin(), cuts.end());
  }

  enumerator.reset(order.size());
  for (const NodeId n : order) {
    EXPECT_TRUE(enumerator.cuts(n).empty()) << "reset must clear all spans";
  }
  enumerator.run(order);

  for (const NodeId n : order) {
    const auto cuts = enumerator.cuts(n);
    ASSERT_EQ(cuts.size(), first[n].size()) << "node " << n;
    for (std::size_t i = 0; i < cuts.size(); ++i) {
      EXPECT_TRUE(cuts[i] == first[n][i]) << "node " << n << " cut " << i;
      EXPECT_EQ(cuts[i].function, first[n][i].function);
    }
  }
}

TEST(CutEnumeration, ArenaSpansAreContiguousPerNode) {
  // Each node's cuts must land in one contiguous block (the locality the
  // arena exists for): leaves stay sorted/unique and the span is addressable
  // as an array.
  const auto net = mcs::testing::random_network(
      {.num_pis = 6, .num_gates = 60, .num_pos = 4, .seed = 3});
  CutEnumerator enumerator(net, {.cut_size = 4, .cut_limit = 8});
  enumerator.run(topo_order(net));
  for (const NodeId n : topo_order(net)) {
    const std::span<const Cut> cuts = enumerator.cuts(n);
    ASSERT_FALSE(cuts.empty());
    for (std::size_t i = 1; i < cuts.size(); ++i) {
      EXPECT_EQ(&cuts[i], &cuts[0] + i);
    }
  }
}

TEST(CutEnumeration, ChoiceCutsAreMergedIntoRepresentative) {
  // r = (a & b) & c with member m = a & (b & c): the representative's cut
  // set must contain cuts whose structure comes from the member.
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal ab = net.create_and(a, b);
  const Signal r = net.create_and(ab, c);
  const Signal bc = net.create_and(b, c);
  const Signal m = net.create_and(a, bc);
  net.create_po(r);
  net.add_choice(r.node(), m.node(), false);

  CutEnumerator enumerator(net, {.cut_size = 4, .cut_limit = 10,
                                 .use_choices = true});
  enumerator.run(choice_topo_order(net));

  // Expect a cut {a, bc} on r (structure only available through m).
  bool found = false;
  for (const Cut& cut : enumerator.cuts(r.node())) {
    if (cut.size == 2 && cut.contains(a.node()) && cut.contains(bc.node())) {
      found = true;
      EXPECT_TRUE(tt6_equal(cut.function, tt6_var(0) & tt6_var(1), 2));
    }
  }
  EXPECT_TRUE(found);
}

TEST(CutEnumeration, ChoicePhaseFlipsMergedFunctions) {
  // Representative r = XOR3(a,b,c).  Member node m computes the complement
  // XNOR3 as a product of sums: ((a ~^ b) | c) & ((a ^ b) | !c), a genuine
  // AND-rooted node with function == !r, i.e. a phase-1 choice.
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal r = net.create_xor3(a, b, c);
  const Signal x_ab = net.create_xor(a, b);
  const Signal m = net.create_and(net.create_or(!x_ab, c),
                                  net.create_or(x_ab, !c));
  net.create_po(r);
  ASSERT_FALSE(r.complemented());
  ASSERT_FALSE(m.complemented());
  ASSERT_NE(r.node(), m.node());
  net.add_choice(r.node(), m.node(), /*phase=*/true);

  CutEnumerator enumerator(net, {.cut_size = 4, .cut_limit = 16,
                                 .use_choices = true});
  enumerator.run(choice_topo_order(net));

  // Every 3-PI-leaf cut on r must have the XOR3 function, including cuts
  // contributed by the complemented member.
  int checked = 0;
  const Tt6 xor3 = tt6_var(0) ^ tt6_var(1) ^ tt6_var(2);
  for (const Cut& cut : enumerator.cuts(r.node())) {
    if (cut.size == 3 && cut.contains(a.node()) && cut.contains(b.node()) &&
        cut.contains(c.node())) {
      EXPECT_TRUE(tt6_equal(cut.function, xor3, 3))
          << "merged choice cut function must be phase-corrected";
      ++checked;
    }
  }
  EXPECT_GE(checked, 1);
}

}  // namespace
}  // namespace mcs
