/// Tests for the technology-independent optimization passes (the
/// compress2rs-like baseline infrastructure) and the graph mapper.

#include <gtest/gtest.h>

#include "mcs/circuits/circuits.hpp"
#include "mcs/fail/fail.hpp"
#include "mcs/map/graph_mapper.hpp"
#include "mcs/network/convert.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/opt/optimize.hpp"
#include "mcs/sat/cec.hpp"
#include "mcs/sim/simulator.hpp"
#include "mcs/sweep/sweep.hpp"
#include "test_util.hpp"

namespace mcs {
namespace {

class OptPassesPreserveFunction : public ::testing::TestWithParam<int> {};

TEST_P(OptPassesPreserveFunction, AllPasses) {
  const auto net = testing::random_network(
      {.num_pis = 7,
       .num_gates = 100,
       .num_pos = 5,
       .basis = GateBasis::xmg(),
       .seed = static_cast<std::uint64_t>(GetParam())});

  const Network b = balance(net);
  EXPECT_EQ(check_equivalence(net, b), CecResult::kEquivalent) << "balance";

  const Network rf = refactor(net);
  EXPECT_EQ(check_equivalence(net, rf), CecResult::kEquivalent) << "refactor";

  const Network sw = fraig(net);
  EXPECT_EQ(check_equivalence(net, sw), CecResult::kEquivalent) << "fraig";

  const Network rw = rewrite(net);
  EXPECT_EQ(check_equivalence(net, rw), CecResult::kEquivalent) << "rewrite";

  const Network all = compress2rs_like(net, GateBasis::xmg(), 2);
  EXPECT_EQ(check_equivalence(net, all), CecResult::kEquivalent) << "script";
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptPassesPreserveFunction,
                         ::testing::Values(1, 2, 3, 4));

TEST(Balance, ReducesChainDepth) {
  Network net;
  std::vector<Signal> pis;
  for (int i = 0; i < 16; ++i) pis.push_back(net.create_pi());
  Signal acc = pis[0];
  for (int i = 1; i < 16; ++i) acc = net.create_and(acc, pis[i]);
  net.create_po(acc);
  ASSERT_EQ(net.depth(), 15u);
  const Network b = balance(net);
  EXPECT_EQ(b.depth(), 4u);
  EXPECT_EQ(check_equivalence(net, b), CecResult::kEquivalent);
}

TEST(Balance, BalancesXorChains) {
  Network net;
  std::vector<Signal> pis;
  for (int i = 0; i < 8; ++i) pis.push_back(net.create_pi());
  Signal acc = pis[0];
  for (int i = 1; i < 8; ++i) acc = net.create_xor(acc, pis[i]);
  net.create_po(acc);
  const Network b = balance(net);
  EXPECT_EQ(b.depth(), 3u);
}

TEST(Refactor, FactorsRedundantSop) {
  // (abc d) | (ab ce) | (a bcf) with no sharing: refactoring recovers
  // abc & (d|e|f).
  Network net;
  std::vector<Signal> in;
  for (int i = 0; i < 6; ++i) in.push_back(net.create_pi());
  auto and4 = [&](Signal w, Signal x, Signal y, Signal z) {
    return net.create_and(net.create_and(w, x), net.create_and(y, z));
  };
  const Signal t1 = and4(in[0], in[1], in[2], in[3]);
  const Signal t2 = net.create_and(net.create_and(in[0], in[1]),
                                   net.create_and(in[2], in[4]));
  const Signal t3 = net.create_and(in[0], net.create_and(in[1],
                                   net.create_and(in[2], in[5])));
  net.create_po(net.create_or(net.create_or(t1, t2), t3));
  const std::size_t before = net.num_gates();
  const Network rf = refactor(net);
  EXPECT_LT(rf.num_gates(), before);
  EXPECT_EQ(check_equivalence(net, rf), CecResult::kEquivalent);
}

TEST(Sweep, MergesDuplicatedStructure) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  // Same function built twice with different structure.
  const Signal f1 = net.create_and(net.create_and(a, b), c);
  const Signal f2 = net.create_and(a, net.create_and(b, c));
  net.create_po(net.create_xor(f1, net.create_pi("d")));
  net.create_po(net.create_or(f2, net.create_pi("e")));
  const Network sw = fraig(net);
  EXPECT_LT(sw.num_gates(), net.num_gates());
  EXPECT_EQ(check_equivalence(net, sw), CecResult::kEquivalent);
}

TEST(Resub, RecoversSharedSubexpressions) {
  // f = (a&b)&c and g = (a&b)^d computed without sharing the a&b term:
  // resubstitution re-expresses one of them over the other's divisors.
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal d = net.create_pi();
  // Deliberately skewed structures so strashing cannot share.
  const Signal f = net.create_and(net.create_and(a, c), b);
  const Signal g = net.create_xor(net.create_and(net.create_and(a, b), a), d);
  net.create_po(f);
  net.create_po(g);
  const Network rs = resub(net);
  EXPECT_LE(rs.num_gates(), net.num_gates());
  EXPECT_EQ(check_equivalence(net, rs), CecResult::kEquivalent);
}

TEST(Resub, KeepsNodeWhenSatRefutesSimulatedMatch) {
  // n = MAJ(a, b, !r) with r an AND of 14 inputs: r is 0 on all of resub's
  // simulation words, so there n reads a | b = !AND(!a, !b), a candidate
  // over n's first divisor pair.  SAT refutes it (r = 1, a != b), so n
  // must survive.
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  Signal r = net.create_pi();
  for (int i = 1; i < 14; ++i) r = net.create_and(r, net.create_pi());
  const Signal n = net.create_maj(a, b, !r);
  net.create_po(n);

  const ResubParams params;
  const RandomSimulation sim(net, params.sim_words, params.sim_seed);
  const std::uint64_t* wn = sim.node_values(n.node());
  const std::uint64_t* wa = sim.node_values(a.node());
  const std::uint64_t* wb = sim.node_values(b.node());
  for (int w = 0; w < params.sim_words; ++w) {
    ASSERT_EQ(wn[w] ^ (n.complemented() ? ~0ull : 0ull), wa[w] | wb[w])
        << "the candidate must match on the simulation words";
  }

  const Network rs = resub(net, params);
  EXPECT_EQ(rs.num_gates(), net.num_gates());
  EXPECT_EQ(rs.node(rs.po_at(0).node()).type, GateType::kMaj3);
  EXPECT_EQ(check_equivalence(net, rs), CecResult::kEquivalent);
}

TEST(Resub, NeverProvesANodeAgainstItsOwnGate) {
  // On the fraiged adder, no candidate matches simulation before a node's
  // own gate over its own fanins, which resub accepts without a proof: it
  // makes no SAT call and changes nothing.  A zero-length delay at the
  // solver's fault point counts the calls.
  const Network net = fraig(expand_to_aig(circuits::adder(8)));
  fail::configure("sat.solve=delay,ms=0");
  const Network rs = resub(net);
  const std::uint64_t solves = fail::injected_total();
  fail::disable();
  EXPECT_EQ(solves, 0u);
  EXPECT_TRUE(structurally_identical(rs, cleanup(net)));
}

TEST(Resub, PreservesFunctionOnSuiteCircuit) {
  const Network net = cleanup(
      testing::random_network({.num_pis = 8, .num_gates = 150, .seed = 91}));
  const Network rs = resub(net);
  EXPECT_LE(rs.num_gates(), net.num_gates());
  EXPECT_EQ(check_equivalence(net, rs), CecResult::kEquivalent);
}

TEST(Compress2rsLike, ImprovesRandomLogic) {
  const auto net = testing::random_network(
      {.num_pis = 8, .num_gates = 200, .num_pos = 6,
       .basis = GateBasis::aig(), .seed = 51});
  ScriptStats stats;
  const Network opt = compress2rs_like(net, GateBasis::aig(), 3, &stats);
  EXPECT_LE(opt.num_gates(), net.num_gates());
  EXPECT_GT(stats.iterations, 0);
  EXPECT_EQ(check_equivalence(net, opt), CecResult::kEquivalent);
}

class GraphMapOnRandomNets : public ::testing::TestWithParam<int> {};

TEST_P(GraphMapOnRandomNets, PreservesFunctionAcrossBases) {
  const auto net = testing::random_network(
      {.num_pis = 7,
       .num_gates = 80,
       .num_pos = 4,
       .basis = GateBasis::aig(),
       .seed = static_cast<std::uint64_t>(GetParam() + 60)});
  for (const GateBasis target : {GateBasis::aig(), GateBasis::mig(),
                                 GateBasis::xmg()}) {
    GraphMapParams params;
    params.target = target;
    GraphMapStats stats;
    const Network mapped = graph_map(net, params, &stats);
    EXPECT_EQ(check_equivalence(net, mapped), CecResult::kEquivalent)
        << target.name();
    EXPECT_GT(stats.num_cuts_selected, 0u);
    if (!target.use_xor) {
      const auto s = network_stats(mapped);
      EXPECT_EQ(s.num_xor2 + s.num_xor3, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphMapOnRandomNets,
                         ::testing::Values(1, 2, 3));

TEST(GraphMap, XmgTargetCompressesParity) {
  // An AIG parity tree collapses dramatically when graph-mapped into XMG.
  Network net;
  std::vector<Signal> pis;
  for (int i = 0; i < 8; ++i) pis.push_back(net.create_pi());
  std::vector<Signal> layer = pis;
  while (layer.size() > 1) {
    std::vector<Signal> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      const Signal a = layer[i], b = layer[i + 1];
      next.push_back(net.create_or(net.create_and(a, !b),
                                   net.create_and(!a, b)));
    }
    layer = next;
  }
  net.create_po(layer[0]);
  GraphMapParams params;
  params.target = GateBasis::xmg();
  const Network mapped = graph_map(net, params);
  EXPECT_LT(mapped.num_gates(), net.num_gates() / 2);
  EXPECT_EQ(check_equivalence(net, mapped), CecResult::kEquivalent);
}

TEST(GraphMap, IterationReachesFixpointAndMchEscapesIt) {
  const auto net = testing::random_network(
      {.num_pis = 8, .num_gates = 150, .num_pos = 5,
       .basis = GateBasis::aig(), .seed = 71});

  GraphMapParams params;
  params.target = GateBasis::xmg();
  int iters = 0;
  const Network local_opt = iterate_graph_map(net, params, 16, &iters);
  EXPECT_GT(iters, 0);
  EXPECT_EQ(check_equivalence(net, local_opt), CecResult::kEquivalent);
  // One more plain pass must not improve (fixpoint).
  const Network again = graph_map(local_opt, params);
  EXPECT_GE(again.num_gates(), local_opt.num_gates());

  // The MCH-based variant may keep improving past the local optimum.
  MchParams mch_params;
  mch_params.candidate_basis = GateBasis::xmg();
  const Network escaped =
      iterate_mch_graph_map(local_opt, params, mch_params);
  EXPECT_EQ(check_equivalence(net, escaped), CecResult::kEquivalent);
  EXPECT_LE(escaped.num_gates(), local_opt.num_gates());
}

}  // namespace
}  // namespace mcs
