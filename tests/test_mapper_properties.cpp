/// Property-style sweeps over both technology mappers: exact-area rounds
/// never hurt, delay relaxation trades monotonically, choice networks never
/// lose the original structure, and every configuration stays functionally
/// correct.  Also pins the covering rules both mappers share
/// (covering.hpp): the cost order, the frozen delay target and the initial
/// fanout estimates.

#include <gtest/gtest.h>

#include "mcs/choice/dch.hpp"
#include "mcs/choice/mch.hpp"
#include "mcs/map/asic_mapper.hpp"
#include "mcs/map/covering.hpp"
#include "mcs/map/lut_mapper.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/opt/optimize.hpp"
#include "mcs/sim/simulator.hpp"
#include "test_util.hpp"

namespace mcs {
namespace {

const TechLibrary& lib() {
  static const TechLibrary l = TechLibrary::asap7_mini();
  return l;
}

bool netlist_matches(const Network& ref, const CellNetlist& m) {
  RandomSimulation sim(ref, 8, 0x11);
  for (int w = 0; w < 8; ++w) {
    std::vector<std::uint64_t> pi;
    for (std::size_t i = 0; i < ref.num_pis(); ++i) {
      pi.push_back(sim.node_values(ref.pi_at(i))[w]);
    }
    const auto pos = m.simulate(pi);
    for (std::size_t i = 0; i < ref.num_pos(); ++i) {
      const Signal s = ref.po_at(i);
      if (pos[i] != (sim.node_values(s.node())[w] ^
                     (s.complemented() ? ~0ull : 0ull))) {
        return false;
      }
    }
  }
  return true;
}

class MapperPropertySweep : public ::testing::TestWithParam<int> {
 protected:
  Network subject() const {
    return cleanup(testing::random_network(
        {.num_pis = 8,
         .num_gates = 160,
         .num_pos = 6,
         .basis = GateBasis::aig(),
         .seed = static_cast<std::uint64_t>(GetParam() * 31)}));
  }
};

TEST_P(MapperPropertySweep, ExactAreaRoundsNeverHurtLutArea) {
  const Network net = subject();
  LutMapParams base;
  base.objective = LutMapParams::Objective::kArea;
  base.exact_area_rounds = 0;
  LutMapParams with_exact = base;
  with_exact.exact_area_rounds = 3;
  // Best-across-passes harvesting makes extra rounds monotone.
  EXPECT_LE(lut_map(net, with_exact).size(), lut_map(net, base).size());
}

TEST_P(MapperPropertySweep, AsicExactAreaRoundsNeverHurtArea) {
  const Network net = subject();
  AsicMapParams base;
  base.objective = AsicMapParams::Objective::kArea;
  base.exact_area_rounds = 0;
  AsicMapParams with_exact = base;
  with_exact.exact_area_rounds = 3;
  EXPECT_LE(asic_map(net, lib(), with_exact).area,
            asic_map(net, lib(), base).area + 1e-9);
}

TEST_P(MapperPropertySweep, DelayRelaxationTradesMonotonically) {
  const Network net = subject();
  double prev_area = 1e18;
  double opt_delay = 0.0;
  for (const double relax : {0.0, 0.1, 0.3}) {
    AsicMapParams p;
    p.objective = AsicMapParams::Objective::kDelay;
    p.delay_relaxation = relax;
    const auto m = asic_map(net, lib(), p);
    ASSERT_TRUE(netlist_matches(net, m));
    if (relax == 0.0) {
      opt_delay = m.delay;
    } else {
      // Delay stays within the relaxed budget of the strict optimum.
      EXPECT_LE(m.delay, opt_delay * (1.0 + relax) + 1e-6);
    }
    // Area must not grow materially as the budget loosens (greedy pass
    // decisions can wobble a few percent; a systematic regression would
    // blow well past this bound).
    EXPECT_LE(m.area, prev_area * 1.05 + 1e-9);
    prev_area = std::min(prev_area, m.area);
  }
}

TEST_P(MapperPropertySweep, MchPlusDchMappingStaysCorrectEverywhere) {
  const Network net = subject();
  const Network dch = build_dch({net, balance(net)});
  MchParams mch_params;
  mch_params.candidate_basis = GateBasis::xmg();
  const Network mch = build_mch(dch, mch_params);

  for (const auto objective :
       {AsicMapParams::Objective::kDelay, AsicMapParams::Objective::kArea}) {
    AsicMapParams p;
    p.objective = objective;
    const auto m = asic_map(mch, lib(), p);
    EXPECT_TRUE(netlist_matches(net, m));
  }
  for (const auto objective :
       {LutMapParams::Objective::kDelay, LutMapParams::Objective::kArea}) {
    LutMapParams p;
    p.objective = objective;
    const auto l = lut_map(mch, p);
    const Network back = lut_network_to_network(l);
    RandomSimulation sa(net, 4, 3), sb(back, 4, 3);
    for (std::size_t i = 0; i < net.num_pos(); ++i) {
      const Signal x = net.po_at(i), y = back.po_at(i);
      for (int w = 0; w < 4; ++w) {
        EXPECT_EQ(
            sa.node_values(x.node())[w] ^ (x.complemented() ? ~0ull : 0ull),
            sb.node_values(y.node())[w] ^ (y.complemented() ? ~0ull : 0ull));
      }
    }
  }
}

TEST_P(MapperPropertySweep, ChoiceMappingNeverWorseThanBaselineByMuch) {
  // Choices only add candidates; with exact area the mapped cost must not
  // regress beyond heuristic noise.
  const Network net = subject();
  MchParams mch_params;
  mch_params.candidate_basis = GateBasis::xmg();
  const Network mch = build_mch(net, mch_params);

  AsicMapParams p;
  p.objective = AsicMapParams::Objective::kArea;
  p.use_choices = false;
  const double base_area = asic_map(net, lib(), p).area;
  p.use_choices = true;
  const double mch_area = asic_map(mch, lib(), p).area;
  EXPECT_LE(mch_area, base_area * 1.05 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapperPropertySweep,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- the covering rules both mappers share ----------------------------------
// These pin today's heuristics.  A change that moves QoR on purpose (the
// cut ranking and fanout estimates are suspects for the choice gap) edits
// them on purpose.

using covering::CostOrder;

TEST(CostOrder, FeasibleCostBeatsInfeasibleWhateverItsArea) {
  const CostOrder order{.required = 10.0f};
  EXPECT_TRUE(order.better(10.0f, 1000.0f, 11.0f, 1.0f));
  EXPECT_FALSE(order.better(11.0f, 1.0f, 10.0f, 1000.0f));
  // Between feasible costs, area comes first.
  EXPECT_TRUE(order.better(9.0f, 1.0f, 2.0f, 2.0f));
}

TEST(CostOrder, SmallerDelayWinsAmongInfeasibleCosts) {
  const CostOrder order{.required = 10.0f};
  EXPECT_TRUE(order.better(11.0f, 1000.0f, 12.0f, 1.0f));
  EXPECT_TRUE(order.better(11.0f, 1.0f, 11.0f, 2.0f));  // then area
}

TEST(CostOrder, DelayFirstIgnoresTheRequiredTime) {
  const CostOrder order{.delay_first = true, .required = 10.0f};
  EXPECT_TRUE(order.better(9.0f, 1000.0f, 10.0f, 1.0f));  // both feasible
  EXPECT_TRUE(order.better(12.0f, 1.0f, 13.0f, 1.0f));    // neither
  EXPECT_FALSE(order.better(11.0f, 1.0f, 9.0f, 1000.0f));
  EXPECT_TRUE(order.better(11.0f, 1.0f, 11.0f, 2.0f));  // then area
}

TEST(CostOrder, TiesFallToFewerLeavesAndTrivialCutsRankLast) {
  Cut two = Cut::trivial(7);
  two.leaves[1] = 8;
  two.size = 2;
  Cut three = two;
  three.leaves[2] = 9;
  three.size = 3;
  for (Cut* c : {&two, &three}) {
    c->delay = 3.0f;
    c->area_flow = 4.0f;
  }
  Cut trivial = Cut::trivial(5);  // cheaper on every cost
  const CostOrder order{};
  EXPECT_TRUE(order(two, three));
  EXPECT_FALSE(order(three, two));
  EXPECT_TRUE(order(three, trivial));
  EXPECT_FALSE(order(trivial, three));
  EXPECT_FALSE(order(two, two));
}

TEST(DelayTarget, FreezesAtTheFirstCallsRelaxedDepth) {
  covering::DelayTarget target(0.5);
  EXPECT_LT(target.frozen(), 0.0f);
  EXPECT_FLOAT_EQ(target(10.0f), 15.0f);
  EXPECT_FLOAT_EQ(target(20.0f), 15.0f);  // recovery cannot ratchet it up
  EXPECT_FLOAT_EQ(target(8.0f), 12.0f);   // a shallower pass keeps its own
  EXPECT_FLOAT_EQ(target.frozen(), 15.0f);
}

TEST(FanoutEstimates, ANodeReachedOnlyThroughAChoiceClassStartsAtOne) {
  Network net;
  const Signal a = net.create_pi(), b = net.create_pi();
  const Signal c = net.create_pi(), d = net.create_pi();
  const Signal ab = net.create_and(a, b);
  const Signal root = net.create_and(ab, net.create_and(c, d));
  net.create_po(root);
  net.create_po(ab);
  // (a & c & b) & (a & c & d): a candidate for root whose shared node a & c
  // has two fanouts, both inside the candidate cone.
  const Signal ac = net.create_and(a, c);
  const Signal cand =
      net.create_and(net.create_and(ac, b), net.create_and(ac, d));
  net.add_choice(root.node(), cand.node(), false);

  const std::vector<float> est = covering::initial_fanout_estimates(net);
  EXPECT_FLOAT_EQ(est[ac.node()], 1.0f);
  EXPECT_FLOAT_EQ(est[cand.node()], 1.0f);
  EXPECT_FLOAT_EQ(est[ab.node()], 2.0f);  // root and a PO
  EXPECT_FLOAT_EQ(est[a.node()], 1.0f);   // ab only, not a & c
}

}  // namespace
}  // namespace mcs
