/// Tests for the technology library (mini-ASAP7, NPN match index) and the
/// phase-aware ASIC mapper.

#include <gtest/gtest.h>

#include "mcs/choice/mch.hpp"
#include "mcs/map/asic_mapper.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/sim/simulator.hpp"
#include "test_util.hpp"

namespace mcs {
namespace {

const TechLibrary& lib() {
  static const TechLibrary l = TechLibrary::asap7_mini();
  return l;
}

void expect_netlist_equivalent(const Network& net, const CellNetlist& m) {
  ASSERT_EQ(m.num_pis, static_cast<int>(net.num_pis()));
  ASSERT_EQ(m.po_refs.size(), net.num_pos());
  RandomSimulation sim(net, 8, 0x7777);
  for (int w = 0; w < 8; ++w) {
    std::vector<std::uint64_t> pi_vals;
    for (std::size_t i = 0; i < net.num_pis(); ++i) {
      pi_vals.push_back(sim.node_values(net.pi_at(i))[w]);
    }
    const auto pos = m.simulate(pi_vals);
    for (std::size_t i = 0; i < net.num_pos(); ++i) {
      const Signal s = net.po_at(i);
      const std::uint64_t expected =
          sim.node_values(s.node())[w] ^ (s.complemented() ? ~0ull : 0ull);
      ASSERT_EQ(pos[i], expected) << "PO " << i << " word " << w;
    }
  }
}

TEST(TechLibrary, Asap7MiniIsWellFormed) {
  const auto& l = lib();
  EXPECT_GE(l.cells().size(), 25u);
  EXPECT_GE(l.inverter(), 0);
  EXPECT_GE(l.buffer(), 0);
  for (const Cell& c : l.cells()) {
    EXPECT_GT(c.area, 0.0) << c.name;
    EXPECT_GT(c.max_pin_delay(), 0.0) << c.name;
    EXPECT_EQ(static_cast<int>(c.pin_delays.size()), c.num_pins) << c.name;
  }
}

TEST(TechLibrary, MatchIndexFindsAndClass) {
  const auto& l = lib();
  const Tt6 f = tt6_var(0) & tt6_var(1);
  const auto canon = npn_canonicalize_exact(f, 2);
  const auto* matches = l.matches(canon.canon, 2);
  ASSERT_NE(matches, nullptr);
  // AND2, NAND2, NOR2, OR2 are all NPN-equivalent to AND2.
  EXPECT_GE(matches->size(), 4u);
}

TEST(TechLibrary, MatchIndexFindsMajAndXorClasses) {
  const auto& l = lib();
  const Tt6 a = tt6_var(0), b = tt6_var(1), c = tt6_var(2);
  const auto maj = npn_canonicalize_exact((a & b) | (a & c) | (b & c), 3);
  ASSERT_NE(l.matches(maj.canon, 3), nullptr);
  const auto x3 = npn_canonicalize_exact(a ^ b ^ c, 3);
  ASSERT_NE(l.matches(x3.canon, 3), nullptr);
  const auto x2 = npn_canonicalize_exact(a ^ b, 2);
  ASSERT_NE(l.matches(x2.canon, 2), nullptr);
}

TEST(TechLibrary, BasicVariantDropsMajXor3) {
  const TechLibrary basic = TechLibrary::asap7_mini_basic();
  EXPECT_LT(basic.cells().size(), lib().cells().size());
  EXPECT_GE(basic.inverter(), 0);
  const Tt6 a = tt6_var(0), b = tt6_var(1), c = tt6_var(2);
  const auto maj = npn_canonicalize_exact((a & b) | (a & c) | (b & c), 3);
  EXPECT_EQ(basic.matches(maj.canon, 3), nullptr);
  const auto x2 = npn_canonicalize_exact(a ^ b, 2);
  EXPECT_NE(basic.matches(x2.canon, 2), nullptr) << "XOR2 cells remain";
}

TEST(AsicMapper, BasicLibraryMapsXagNetworks) {
  const TechLibrary basic = TechLibrary::asap7_mini_basic();
  const auto net = testing::random_network(
      {.num_pis = 7, .num_gates = 90, .num_pos = 4,
       .basis = GateBasis::xag(), .seed = 99});
  const auto m = asic_map(net, basic);
  expect_netlist_equivalent(net, m);
}

TEST(AsicMapper, SingleAndGate) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  net.create_po(net.create_and(a, b));
  AsicMapStats stats;
  const auto m = asic_map(net, lib(), {}, &stats);
  EXPECT_GE(stats.num_instances, 1u);
  expect_netlist_equivalent(net, m);
}

TEST(AsicMapper, ComplementedPoUsesInverterOrNegativeCell) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  net.create_po(!net.create_and(a, b));  // NAND: one cell, no inverter
  const auto m = asic_map(net, lib());
  EXPECT_EQ(m.size(), 1u) << "phase-aware matching should pick NAND2";
  expect_netlist_equivalent(net, m);
}

TEST(AsicMapper, ConstantAndPassThroughPos) {
  Network net;
  const Signal a = net.create_pi();
  net.create_po(net.constant(false));
  net.create_po(net.constant(true));
  net.create_po(a);
  net.create_po(!a);
  const auto m = asic_map(net, lib());
  expect_netlist_equivalent(net, m);
}

class AsicMapperOnRandomNets
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AsicMapperOnRandomNets, MappingIsFunctionallyCorrect) {
  const auto [seed, objective] = GetParam();
  const auto net = testing::random_network(
      {.num_pis = 8,
       .num_gates = 120,
       .num_pos = 6,
       .basis = GateBasis::xmg(),
       .seed = static_cast<std::uint64_t>(seed)});
  AsicMapParams params;
  params.objective = objective == 0 ? AsicMapParams::Objective::kDelay
                                    : AsicMapParams::Objective::kArea;
  params.use_choices = false;
  AsicMapStats stats;
  const auto m = asic_map(net, lib(), params, &stats);
  EXPECT_GT(stats.area, 0.0);
  EXPECT_GT(stats.delay, 0.0);
  expect_netlist_equivalent(net, m);
}

TEST_P(AsicMapperOnRandomNets, MappingWithChoicesIsFunctionallyCorrect) {
  const auto [seed, objective] = GetParam();
  const auto input = testing::random_network(
      {.num_pis = 7,
       .num_gates = 90,
       .num_pos = 5,
       .basis = GateBasis::aig(),
       .seed = static_cast<std::uint64_t>(seed + 7)});
  MchParams mch_params;
  mch_params.candidate_basis = GateBasis::xmg();
  const Network mch = build_mch(input, mch_params);
  ASSERT_GT(mch.num_choices(), 0u);

  AsicMapParams params;
  params.objective = objective == 0 ? AsicMapParams::Objective::kDelay
                                    : AsicMapParams::Objective::kArea;
  const auto m = asic_map(mch, lib(), params);
  expect_netlist_equivalent(input, m);
}

INSTANTIATE_TEST_SUITE_P(SeedsAndObjectives, AsicMapperOnRandomNets,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(0, 1)));

TEST(AsicMapper, DelayObjectiveIsFasterOrEqual) {
  const auto net = testing::random_network(
      {.num_pis = 8, .num_gates = 250, .num_pos = 4, .seed = 77});
  AsicMapParams d;
  d.objective = AsicMapParams::Objective::kDelay;
  d.use_choices = false;
  AsicMapParams a;
  a.objective = AsicMapParams::Objective::kArea;
  a.use_choices = false;
  const auto md = asic_map(net, lib(), d);
  const auto ma = asic_map(net, lib(), a);
  EXPECT_LE(md.delay, ma.delay + 1e-6);
  EXPECT_LE(ma.area, md.area + 1e-6);
}

TEST(AsicMapper, XorRichLogicBenefitsFromXagChoices) {
  // Parity ladder in pure AIG form; XMG/XAG candidates let the mapper use
  // the XOR2/XOR3 cells directly.
  Network net;
  std::vector<Signal> pis;
  for (int i = 0; i < 12; ++i) pis.push_back(net.create_pi());
  Signal acc = pis[0];
  for (std::size_t i = 1; i < pis.size(); ++i) {
    const Signal x = pis[i];
    acc = net.create_or(net.create_and(acc, !x), net.create_and(!acc, x));
  }
  net.create_po(acc);
  ASSERT_TRUE(net.is_aig());

  AsicMapParams params;
  params.objective = AsicMapParams::Objective::kArea;
  const auto baseline = asic_map(cleanup(net), lib(), params);

  MchParams mch_params;
  mch_params.candidate_basis = GateBasis::xmg();
  mch_params.critical_ratio = 0.0;
  const Network mch = build_mch(net, mch_params);
  const auto improved = asic_map(mch, lib(), params);

  // The NPN matcher already recovers XOR cells from 4-cuts of the AIG, so
  // the baseline is strong here; choices must never make it worse.
  EXPECT_LE(improved.area, baseline.area + 1e-6);
  expect_netlist_equivalent(net, improved);
}

TEST(AsicMapper, MffcChoicesRecoverSharingBeyondCutReach) {
  // PO2 computes (abcd | abce | abcf) as three independent product terms:
  // the common abc factor spans 6 leaves, invisible to any 4-cut.  The
  // MFFC-based area candidates of MCH refactor it to abc & (d|e|f).
  // PO1 is a deeper chain that absorbs the critical paths, keeping PO2's
  // cone in the area-oriented class.
  Network net;
  std::vector<Signal> in;
  for (int i = 0; i < 6; ++i) in.push_back(net.create_pi());
  std::vector<Signal> chain_in;
  for (int i = 0; i < 12; ++i) chain_in.push_back(net.create_pi());

  auto and3 = [&](Signal x, Signal y, Signal z) {
    return net.create_and(net.create_and(x, y), z);
  };
  const Signal t1 = net.create_and(and3(in[0], in[1], in[2]), in[3]);
  const Signal t2 = net.create_and(net.create_and(in[0], in[1]),
                                   net.create_and(in[2], in[4]));
  const Signal t3 = net.create_and(in[0], and3(in[1], in[2], in[5]));
  const Signal po2 = net.create_or(net.create_or(t1, t2), t3);

  Signal chain = chain_in[0];
  for (std::size_t i = 1; i < chain_in.size(); ++i) {
    chain = net.create_and(chain, chain_in[i]);  // left-deep: depth 11
  }
  net.create_po(chain);
  net.create_po(po2);

  AsicMapParams params;
  params.objective = AsicMapParams::Objective::kArea;
  const auto baseline = asic_map(cleanup(net), lib(), params);

  MchParams mch_params;
  mch_params.candidate_basis = GateBasis::xmg();
  mch_params.critical_ratio = 0.95;  // only the chain PO is critical
  mch_params.mffc_max_pi = 8;
  const Network mch = build_mch(net, mch_params);
  const auto improved = asic_map(mch, lib(), params);

  EXPECT_LT(improved.area, baseline.area);
  expect_netlist_equivalent(net, improved);
}

}  // namespace
}  // namespace mcs
