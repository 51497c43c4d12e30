/// Tests for the choice-aware K-LUT mapper: functional correctness of the
/// mapped netlists (with and without choices), size/depth sanity, and the
/// MCH win condition on crafted examples.

#include <gtest/gtest.h>

#include "mcs/choice/mch.hpp"
#include "mcs/map/lut_mapper.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/sat/cec.hpp"
#include "mcs/sim/simulator.hpp"
#include "test_util.hpp"

namespace mcs {
namespace {

/// Verifies a LUT network against the original by word-parallel simulation
/// on random vectors plus full CEC of the rebuilt network.
void expect_lut_equivalent(const Network& net, const LutNetwork& lnet) {
  ASSERT_EQ(lnet.num_pis, static_cast<int>(net.num_pis()));
  ASSERT_EQ(lnet.po_refs.size(), net.num_pos());

  Rng rng(0xfeed);
  RandomSimulation sim(net, 4, 0x9999);
  // Re-simulate the LUT network with the same PI words.
  for (int w = 0; w < 4; ++w) {
    std::vector<std::uint64_t> pi_vals;
    for (std::size_t i = 0; i < net.num_pis(); ++i) {
      pi_vals.push_back(sim.node_values(net.pi_at(i))[w]);
    }
    const auto lut_pos = lnet.simulate(pi_vals);
    for (std::size_t i = 0; i < net.num_pos(); ++i) {
      const Signal s = net.po_at(i);
      const std::uint64_t expected =
          sim.node_values(s.node())[w] ^ (s.complemented() ? ~0ull : 0ull);
      ASSERT_EQ(lut_pos[i], expected) << "PO " << i << " word " << w;
    }
  }

  // Full formal check through the rebuilt network.
  const Network rebuilt = lut_network_to_network(lnet);
  ASSERT_EQ(check_equivalence(net, rebuilt), CecResult::kEquivalent);
}

class LutMapperOnRandomNets
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LutMapperOnRandomNets, MappingIsFunctionallyCorrect) {
  const auto [seed, k] = GetParam();
  const auto net = testing::random_network(
      {.num_pis = 8,
       .num_gates = 120,
       .num_pos = 6,
       .basis = GateBasis::xmg(),
       .seed = static_cast<std::uint64_t>(seed)});
  LutMapParams params;
  params.lut_size = k;
  params.use_choices = false;
  LutMapStats stats;
  const LutNetwork lnet = lut_map(net, params, &stats);
  EXPECT_GT(stats.num_luts, 0u);
  EXPECT_EQ(stats.num_luts, lnet.size());
  expect_lut_equivalent(net, lnet);
}

TEST_P(LutMapperOnRandomNets, MappingWithChoicesIsFunctionallyCorrect) {
  const auto [seed, k] = GetParam();
  const auto input = testing::random_network(
      {.num_pis = 7,
       .num_gates = 80,
       .num_pos = 5,
       .basis = GateBasis::aig(),
       .seed = static_cast<std::uint64_t>(seed + 40)});
  MchParams mch_params;
  mch_params.candidate_basis = GateBasis::xmg();
  const Network mch = build_mch(input, mch_params);
  ASSERT_GT(mch.num_choices(), 0u);

  LutMapParams params;
  params.lut_size = k;
  params.use_choices = true;
  const LutNetwork lnet = lut_map(mch, params);
  // The mapping implements the MCH network's interface == input's.
  expect_lut_equivalent(input, lnet);
}

INSTANTIATE_TEST_SUITE_P(SeedsAndK, LutMapperOnRandomNets,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(4, 6)));

TEST(LutMapper, DepthObjectiveIsNoWorseThanAreaObjective) {
  const auto net = testing::random_network(
      {.num_pis = 8, .num_gates = 200, .num_pos = 4, .seed = 33});
  LutMapParams delay_params;
  delay_params.objective = LutMapParams::Objective::kDelay;
  delay_params.use_choices = false;
  LutMapParams area_params;
  area_params.objective = LutMapParams::Objective::kArea;
  area_params.use_choices = false;
  const auto d = lut_map(net, delay_params);
  const auto a = lut_map(net, area_params);
  EXPECT_LE(d.depth(), a.depth());
}

TEST(LutMapper, SingleGateBecomesOneLut) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  net.create_po(net.create_and(a, b));
  const auto lnet = lut_map(net);
  EXPECT_EQ(lnet.size(), 1u);
  EXPECT_EQ(lnet.depth(), 1u);
}

TEST(LutMapper, ConstantAndPassThroughPos) {
  Network net;
  const Signal a = net.create_pi();
  net.create_po(a);
  net.create_po(!a);
  net.create_po(net.constant(true));
  const auto lnet = lut_map(net);
  expect_lut_equivalent(net, lnet);
}

TEST(LutMapper, SixInputConeFitsOneLut) {
  Network net;
  std::vector<Signal> pis;
  for (int i = 0; i < 6; ++i) pis.push_back(net.create_pi());
  Signal acc = pis[0];
  for (int i = 1; i < 6; ++i) acc = net.create_and(acc, pis[i]);
  net.create_po(acc);
  const auto lnet = lut_map(net, {.lut_size = 6, .use_choices = false});
  EXPECT_EQ(lnet.size(), 1u);
}

TEST(LutMapper, ChoicesCanOnlyHelpLutCount) {
  // Area-oriented mapping of an MCH network must not be worse than mapping
  // the original network with the same parameters: every original cut is
  // still available (choices only add candidates).
  for (int seed = 1; seed <= 5; ++seed) {
    const auto input = testing::random_network(
        {.num_pis = 8,
         .num_gates = 150,
         .num_pos = 5,
         .basis = GateBasis::aig(),
         .seed = static_cast<std::uint64_t>(seed * 101)});
    LutMapParams params;
    params.use_choices = true;
    const auto baseline = lut_map(cleanup(input), params);

    MchParams mch_params;
    mch_params.candidate_basis = GateBasis::xmg();
    const Network mch = build_mch(input, mch_params);
    const auto with_choices = lut_map(mch, params);

    // Not a strict theorem under greedy heuristics, but holds with margin
    // on random logic; allow a tiny tolerance for heuristic noise.
    EXPECT_LE(with_choices.size(), baseline.size() + 2) << "seed " << seed;
  }
}

TEST(LutMapper, MchWinsOnXorRichLogic) {
  // A parity tree expanded to AIG: 6-LUT mapping of the raw AIG wastes
  // LUTs; with XMG choices the mapper can pick wide XOR cuts.
  Network net;
  std::vector<Signal> pis;
  for (int i = 0; i < 16; ++i) pis.push_back(net.create_pi());
  std::vector<Signal> layer = pis;
  while (layer.size() > 1) {
    std::vector<Signal> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      const Signal a = layer[i], b = layer[i + 1];
      next.push_back(net.create_or(net.create_and(a, !b),
                                   net.create_and(!a, b)));
    }
    if (layer.size() % 2) next.push_back(layer.back());
    layer = next;
  }
  net.create_po(layer[0]);
  ASSERT_TRUE(net.is_aig());

  LutMapParams params;
  params.objective = LutMapParams::Objective::kArea;
  const auto baseline = lut_map(net, params);

  MchParams mch_params;
  mch_params.candidate_basis = GateBasis::xmg();
  mch_params.critical_ratio = 0.0;  // everything level-oriented
  const Network mch = build_mch(net, mch_params);
  const auto improved = lut_map(mch, params);

  EXPECT_LE(improved.size(), baseline.size());
  expect_lut_equivalent(net, improved);
}

/// Makes \p member, which computes the same function as \p head, a member
/// of head's choice class.
void attach_choice(Network& net, Signal head, Signal member) {
  net.add_choice(head.node(), member.node(),
                 head.complemented() != member.complemented());
}

/// a ^ b as three AND gates.
Signal aig_xor(Network& net, Signal a, Signal b) {
  return net.create_or(net.create_and(a, !b), net.create_and(!a, b));
}

TEST(LutMapper, ChoiceCutsCountOnlyCutsMergedFromMembers) {
  // The member's only cut, {a, b}, equals one of the head's own: it is
  // dominated, so the head keeps its own cut although it has a class.
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal head = aig_xor(net, a, b);
  net.create_po(head);
  attach_choice(net, head, net.create_xor(a, b));
  LutMapStats stats;
  const LutNetwork own = lut_map(net, {.lut_size = 2}, &stats);
  EXPECT_EQ(own.size(), 1u);
  EXPECT_EQ(stats.num_choice_cuts_used, 0u);
  expect_lut_equivalent(net, own);
}

TEST(LutMapper, ChoiceCutsCountAMemberCutThatWins) {
  // The head computes a ^ b through c, so with 2-LUTs its own cover needs
  // two LUTs; the XOR2 member's cut {a, b} wins and maps it with one.
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal t = aig_xor(net, a, b);
  const Signal head = net.create_or(net.create_and(t, c),
                                    net.create_and(t, !c));
  net.create_po(head);
  attach_choice(net, head, net.create_xor(a, b));
  LutMapStats stats;
  const LutNetwork with_choice = lut_map(net, {.lut_size = 2}, &stats);
  EXPECT_EQ(with_choice.size(), 1u);
  EXPECT_EQ(stats.num_choice_cuts_used, 1u);
  expect_lut_equivalent(net, with_choice);

  const LutNetwork without =
      lut_map(net, {.lut_size = 2, .use_choices = false}, &stats);
  EXPECT_EQ(without.size(), 2u);
  EXPECT_EQ(stats.num_choice_cuts_used, 0u);
}

}  // namespace
}  // namespace mcs
