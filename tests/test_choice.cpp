/// Tests for the MCH operator (Algorithms 1-2) and the DCH baseline:
/// functional correctness of every choice class, acyclicity of the
/// augmented dependency graph, path classification, and heterogeneity of
/// the candidates.

#include <gtest/gtest.h>

#include "mcs/choice/dch.hpp"
#include "mcs/choice/mch.hpp"
#include "mcs/circuits/circuits.hpp"
#include "mcs/network/convert.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/opt/optimize.hpp"
#include "mcs/sat/cec.hpp"
#include "mcs/sat/miter.hpp"
#include "mcs/sim/simulator.hpp"
#include "test_util.hpp"

namespace mcs {
namespace {

/// Checks every choice class of \p net by random simulation + SAT.
void expect_choices_valid(const Network& net) {
  RandomSimulation sim(net, 8, 0x1234);
  sat::IncrementalMiter miter(net);
  for (NodeId n = 0; n < net.size(); ++n) {
    if (!net.has_choice(n)) continue;
    for (NodeId m = net.node(n).next_choice; m != kNullNode;
         m = net.node(m).next_choice) {
      const bool phase = net.node(m).choice_phase;
      ASSERT_TRUE(sim.values_equal(Signal(n, false), Signal(m, phase)))
          << "class of node " << n << " member " << m;
      ASSERT_EQ(miter.prove_equal(Signal(n, false), Signal(m, phase), -1),
                sat::Result::kUnsat);
    }
  }
}

/// The augmented dependency order must exist and respect both edge kinds.
void expect_choice_order_valid(const Network& net) {
  const auto order = choice_topo_order(net);
  std::vector<int> pos(net.size(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = (int)i;
  for (const NodeId n : order) {
    const Node& nd = net.node(n);
    for (int i = 0; i < nd.num_fanins; ++i) {
      ASSERT_LT(pos[nd.fanin[i].node()], pos[n]);
    }
    if (net.is_repr(n)) {
      for (NodeId m = nd.next_choice; m != kNullNode;
           m = net.node(m).next_choice) {
        ASSERT_GE(pos[m], 0);
        ASSERT_LT(pos[m], pos[n]) << "member must precede representative";
      }
    }
  }
}

TEST(CollectCritical, MarksLongestPaths) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal g1 = net.create_and(a, b);   // level 1
  const Signal g2 = net.create_and(g1, c);  // level 2
  const Signal g3 = net.create_and(g2, a);  // level 3 -- critical path
  const Signal h = net.create_and(b, c);    // level 1, off-path
  net.create_po(g3);
  net.create_po(h);
  const auto critical = collect_critical_nodes(net, 0.9);
  EXPECT_TRUE(critical[g3.node()]);
  EXPECT_TRUE(critical[g2.node()]);
  EXPECT_TRUE(critical[g1.node()]);
  EXPECT_FALSE(critical[h.node()]);
  // Lowering the ratio below h's relative depth makes h critical too.
  const auto all = collect_critical_nodes(net, 0.2);
  EXPECT_TRUE(all[h.node()]);
}

class MchOnRandomNetworks
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MchOnRandomNetworks, ChoicesAreValidAndOrderable) {
  const auto [seed, basis_id] = GetParam();
  const GateBasis bases[] = {GateBasis::aig(), GateBasis::xag(),
                             GateBasis::mig(), GateBasis::xmg()};
  const auto input = testing::random_network(
      {.num_pis = 6,
       .num_gates = 60,
       .num_pos = 4,
       .basis = GateBasis::aig(),
       .seed = static_cast<std::uint64_t>(seed)});

  MchParams params;
  params.candidate_basis = bases[basis_id];
  MchStats stats;
  const Network mch = build_mch(input, params, &stats);

  // Interface preserved, function preserved.
  ASSERT_EQ(mch.num_pis(), input.num_pis());
  ASSERT_EQ(mch.num_pos(), input.num_pos());
  EXPECT_EQ(check_equivalence(input, mch), CecResult::kEquivalent);

  // A meaningful number of choices is expected on random logic.
  EXPECT_GT(stats.num_choices_added, 0u);
  EXPECT_EQ(stats.num_choices_added, mch.num_choices());

  expect_choices_valid(mch);
  expect_choice_order_valid(mch);
}

INSTANTIATE_TEST_SUITE_P(SeedsAndBases, MchOnRandomNetworks,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(0, 1, 2, 3)));

TEST(Mch, StacksOnInheritedClasses) {
  // Inherited members may have larger ids than their heads, so ids are no
  // topological order of the input: the guard must rank by dependencies.
  const auto base = testing::random_network({.num_pis = 6,
                                             .num_gates = 80,
                                             .num_pos = 4,
                                             .basis = GateBasis::aig(),
                                             .seed = 29});
  const Network dch = build_dch({base, balance(base), rewrite(base)});
  ASSERT_GT(dch.num_choices(), 0u);
  const Network first = build_mch(base, {});
  for (const Network* input : {&dch, &first}) {
    MchParams params;
    params.candidate_basis = GateBasis::xag();
    params.critical_ratio = 0.2;
    params.cut_size = 5;
    params.max_choices_per_node = 6;
    MchStats stats;
    const Network mch = build_mch(*input, params, &stats);
    EXPECT_GT(stats.num_choices_added, 0u);
    EXPECT_EQ(check_equivalence(base, mch), CecResult::kEquivalent);
    std::string why;
    EXPECT_TRUE(mch.check(&why)) << why;
    expect_choices_valid(mch);
    expect_choice_order_valid(mch);
  }
}

TEST(Mch, CandidatesAreHeterogeneous) {
  // An AIG input with XMG candidates must contain MAJ/XOR choice nodes.
  const auto input = testing::random_network({.num_pis = 6,
                                              .num_gates = 80,
                                              .num_pos = 4,
                                              .basis = GateBasis::aig(),
                                              .seed = 5});
  ASSERT_TRUE(input.is_aig());
  MchParams params;
  params.candidate_basis = GateBasis::xmg();
  const Network mch = build_mch(input, params);
  const auto stats = network_stats(mch);
  EXPECT_GT(stats.num_xor2 + stats.num_xor3 + stats.num_maj3, 0u)
      << "XMG candidates should introduce non-AND structure";
}

TEST(Mch, RespectsPerNodeCap) {
  const auto input = testing::random_network({.num_gates = 60, .seed = 11});
  MchParams params;
  params.max_choices_per_node = 2;
  const Network mch = build_mch(input, params);
  for (NodeId n = 0; n < mch.size(); ++n) {
    if (!mch.has_choice(n)) continue;
    int k = 0;
    for (NodeId m = mch.node(n).next_choice; m != kNullNode;
         m = mch.node(m).next_choice) {
      ++k;
    }
    EXPECT_LE(k, 2);
  }
}

TEST(Mch, RatioControlsCriticalCoverage) {
  const auto input = testing::random_network(
      {.num_pis = 8, .num_gates = 120, .num_pos = 6, .seed = 13});
  const Network flat = cleanup(input);
  const auto strict = collect_critical_nodes(flat, 1.0);
  const auto loose = collect_critical_nodes(flat, 0.3);
  const auto count = [](const std::vector<bool>& v) {
    return std::count(v.begin(), v.end(), true);
  };
  EXPECT_LE(count(strict), count(loose));
  EXPECT_GT(count(strict), 0);
}

TEST(Dch, MergesSnapshotsIntoValidChoices) {
  // Snapshot 0: original; snapshot 1: structurally different equivalent.
  Network n1, n2;
  {
    const auto a = n1.create_pi(), b = n1.create_pi(), c = n1.create_pi();
    n1.create_po(n1.create_and(n1.create_and(a, b), c));
    n1.create_po(n1.create_xor(n1.create_and(a, b), c));
  }
  {
    const auto a = n2.create_pi(), b = n2.create_pi(), c = n2.create_pi();
    n2.create_po(n2.create_and(a, n2.create_and(b, c)));
    // XOR via its AND expansion: (ab)^c.
    const auto ab = n2.create_and(a, b);
    n2.create_po(n2.create_or(n2.create_and(ab, !c),
                              n2.create_and(!ab, c)));
  }
  DchStats stats;
  const Network dch = build_dch({n1, n2}, {}, &stats);
  EXPECT_EQ(check_equivalence(n1, dch), CecResult::kEquivalent);
  EXPECT_GT(stats.num_proven, 0u);
  EXPECT_GT(dch.num_choices(), 0u);
  expect_choices_valid(dch);
  expect_choice_order_valid(dch);
}

TEST(Dch, RandomNetworkWithRestructuredSnapshot) {
  const auto base = testing::random_network({.num_pis = 6,
                                             .num_gates = 50,
                                             .num_pos = 4,
                                             .basis = GateBasis::xmg(),
                                             .seed = 17});
  // A second snapshot: the AND-expanded version (different structure).
  const Network expanded = expand_to_aig(base);
  ASSERT_EQ(check_equivalence(base, expanded), CecResult::kEquivalent);

  DchStats stats;
  const Network dch = build_dch({base, expanded}, {}, &stats);
  EXPECT_EQ(check_equivalence(base, dch), CecResult::kEquivalent);
  expect_choices_valid(dch);
  expect_choice_order_valid(dch);
}

TEST(Dch, OneWalkMergeEqualsPerPoCopies) {
  // build_dch merges each snapshot with one copy_cones walk; a copy_cone
  // call per PO must give the identical network (Table I's DCH circuits).
  for (const Network& circuit :
       {circuits::multiplier(8), circuits::sin_approx(8), circuits::voter(63),
        circuits::sqrt_circuit(14)}) {
    const Network net = expand_to_aig(circuit);
    Network per_po;
    Network one_walk;
    std::vector<Signal> pis_a;
    std::vector<Signal> pis_b;
    for (std::size_t i = 0; i < net.num_pis(); ++i) {
      pis_a.push_back(per_po.create_pi());
      pis_b.push_back(one_walk.create_pi());
    }
    for (const Network& snap : {net, balance(net), rewrite(net)}) {
      for (const Signal s : snap.pos()) {
        per_po.create_po(copy_cone(snap, per_po, s, pis_a));
      }
      for (const Signal s : copy_cones(snap, one_walk, snap.pos(), pis_b)) {
        one_walk.create_po(s);
      }
    }
    EXPECT_GT(one_walk.num_gates(), net.num_gates());
    EXPECT_TRUE(structurally_identical(per_po, one_walk));
  }
}

TEST(Convert, BasisRoundTripsPreserveFunction) {
  const auto net = testing::random_network({.num_pis = 6,
                                            .num_gates = 60,
                                            .num_pos = 4,
                                            .basis = GateBasis::xmg(),
                                            .seed = 23});
  for (const GateBasis basis : {GateBasis::aig(), GateBasis::xag(),
                                GateBasis::mig(), GateBasis::xmg()}) {
    const Network conv = convert_basis(net, basis);
    EXPECT_EQ(check_equivalence(net, conv), CecResult::kEquivalent)
        << basis.name();
    const auto stats = network_stats(conv);
    if (!basis.use_xor) {
      EXPECT_EQ(stats.num_xor2 + stats.num_xor3, 0u);
    }
    if (!basis.use_maj) {
      EXPECT_EQ(stats.num_maj3, 0u);
    }
  }
}

TEST(Convert, DetectXorsFindsThePattern) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  // XOR(a, b) as OR(AND(a,!b), AND(!a,b)) in pure AIG form.
  const Signal x = net.create_or(net.create_and(a, !b),
                                 net.create_and(!a, b));
  net.create_po(x);
  ASSERT_TRUE(net.is_aig());
  const Network xag = detect_xors(net);
  EXPECT_EQ(check_equivalence(net, xag), CecResult::kEquivalent);
  EXPECT_EQ(network_stats(xag).num_xor2, 1u);
  EXPECT_EQ(xag.num_gates(), 1u);
}

TEST(Convert, DetectXorsOnAdderLikeLogic) {
  // Chain of XORs expanded to AIG, then recovered.
  Network net;
  std::vector<Signal> pis;
  for (int i = 0; i < 5; ++i) pis.push_back(net.create_pi());
  Signal acc = pis[0];
  for (int i = 1; i < 5; ++i) {
    acc = net.create_or(net.create_and(acc, !pis[i]),
                        net.create_and(!acc, pis[i]));
  }
  net.create_po(acc);
  const Network xag = detect_xors(net);
  EXPECT_EQ(check_equivalence(net, xag), CecResult::kEquivalent);
  EXPECT_EQ(network_stats(xag).num_xor2, 4u);
}

}  // namespace
}  // namespace mcs
