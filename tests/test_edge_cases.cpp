/// Edge-case and failure-injection tests across modules: degenerate
/// networks, malformed inputs, budget exhaustion and boundary sizes.

#include <gtest/gtest.h>

#include <sstream>

#include "mcs/choice/mch.hpp"
#include "mcs/circuits/circuits.hpp"
#include "mcs/circuits/wordlib.hpp"
#include "mcs/io/aiger.hpp"
#include "mcs/io/blif_read.hpp"
#include "mcs/map/asic_mapper.hpp"
#include "mcs/map/lut_mapper.hpp"
#include "mcs/network/convert.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/opt/optimize.hpp"
#include "mcs/sat/cec.hpp"
#include "mcs/sim/simulator.hpp"

namespace mcs {
namespace {

TEST(EdgeCases, EmptyNetworkFlows) {
  // No gates at all: constants and wires only.
  Network net;
  const Signal a = net.create_pi();
  net.create_po(a);
  net.create_po(net.constant(true));

  EXPECT_EQ(build_mch(net, {}).num_choices(), 0u);
  // A constant PO becomes one 0-input LUT (depth <= 1).
  EXPECT_LE(lut_map(net).depth(), 1u);
  const auto cells = asic_map(net, TechLibrary::asap7_mini());
  EXPECT_EQ(check_equivalence(net, cleanup(net)), CecResult::kEquivalent);
  EXPECT_EQ(balance(net).num_gates(), 0u);
  EXPECT_EQ(compress2rs_like(net, GateBasis::aig()).num_gates(), 0u);
  (void)cells;
}

TEST(EdgeCases, NetworkWithNoPos) {
  Network net;
  net.create_pi();
  net.create_pi();
  EXPECT_EQ(cleanup(net).num_gates(), 0u);
  EXPECT_EQ(lut_map(net).size(), 0u);
  EXPECT_EQ(topo_order(net).size(), 0u);
}

TEST(EdgeCases, SamePoDrivenTwiceWithBothPhases) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal g = net.create_and(a, b);
  net.create_po(g);
  net.create_po(!g);
  net.create_po(g);
  const auto lnet = lut_map(net);
  const Network back = lut_network_to_network(lnet);
  EXPECT_EQ(check_equivalence(net, back), CecResult::kEquivalent);
  const auto cells = asic_map(net, TechLibrary::asap7_mini());
  EXPECT_EQ(cells.po_refs.size(), 3u);
}

TEST(EdgeCases, MchOnSingleGateNetwork) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  net.create_po(net.create_and(a, b));
  const Network mch = build_mch(net, {});
  EXPECT_EQ(check_equivalence(net, mch), CecResult::kEquivalent);
}

TEST(EdgeCases, CecWithTinyConflictLimitReturnsUnknownNotWrong) {
  // A multiplier against its resynthesized XMG: the strashed miter leaves
  // PO pairs open, and a 1-conflict budget cannot close them.  With 32
  // inputs the miter is too wide to enumerate, so only SAT could decide.
  const Network a = expand_to_aig(circuits::multiplier(16));
  const Network b = compress2rs_like(a, GateBasis::xmg(), 1);
  CecOptions opts;
  opts.conflict_limit = 1;
  EXPECT_EQ(check_equivalence(a, b, opts), CecResult::kUnknown);
}

TEST(EdgeCases, CecEnumeratesSmallMiterUnderTinyConflictLimit) {
  // The same pair at 12 inputs: enumerating every pattern spends no
  // conflicts, so the 1-conflict budget still gets a verdict.
  const Network a = expand_to_aig(circuits::multiplier(6));
  const Network b = compress2rs_like(a, GateBasis::xmg(), 1);
  CecOptions opts;
  opts.conflict_limit = 1;
  EXPECT_EQ(check_equivalence(a, b, opts), CecResult::kEquivalent);
}

TEST(EdgeCases, AigerRejectsGarbage) {
  {
    std::stringstream ss("not an aiger file");
    EXPECT_THROW(read_aiger(ss), std::runtime_error);
  }
  {
    std::stringstream ss("aag 1 1 1 1 0\n2\n");  // latches
    EXPECT_THROW(read_aiger(ss), std::runtime_error);
  }
}

TEST(EdgeCases, WordLibZeroAndBoundaryValues) {
  Network net;
  const auto a = circuits::make_pi_word(net, 4, "a");
  const auto b = circuits::make_pi_word(net, 4, "b");
  // a - a == 0 with no borrow.
  Signal no_borrow = net.constant(false);
  const auto diff = circuits::sub(net, a, a, &no_borrow);
  for (const Signal s : diff) EXPECT_EQ(s, net.constant(false));
  EXPECT_EQ(no_borrow, net.constant(true));
  // x < x is false.
  EXPECT_EQ(circuits::less_than(net, b, b), net.constant(false));
  // Shift by zero-width amount is the identity.
  const auto same = circuits::shift_left(net, a, {});
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(same[i], a[i]);
}

TEST(EdgeCases, DividerByZeroYieldsAllOnesQuotient) {
  const auto net = circuits::divider(4);
  // Evaluate at b = 0, a = 5.
  std::vector<std::uint64_t> pi_vals(net.num_pis(), 0);
  // PIs: a[0..3], b[0..3]; set a = 5 on every simulated pattern.
  RandomSimulation dummy(net, 1, 1);
  (void)dummy;
  std::vector<std::uint8_t> value(net.size(), 0);
  auto eval_bit = [&](std::uint64_t aval, std::uint64_t bval, int po) {
    for (NodeId n = 0; n < net.size(); ++n) {
      const Node& nd = net.node(n);
      if (net.is_pi(n)) {
        // PI order: a then b.
        std::size_t idx = 0;
        for (; idx < net.num_pis(); ++idx) {
          if (net.pi_at(idx) == n) break;
        }
        value[n] = idx < 4 ? ((aval >> idx) & 1) : ((bval >> (idx - 4)) & 1);
        continue;
      }
      if (!net.is_gate(n)) continue;
      bool in[3] = {};
      for (int i = 0; i < nd.num_fanins; ++i) {
        in[i] = value[nd.fanin[i].node()] ^ nd.fanin[i].complemented();
      }
      switch (nd.type) {
        case GateType::kAnd2: value[n] = in[0] && in[1]; break;
        case GateType::kXor2: value[n] = in[0] != in[1]; break;
        case GateType::kMaj3: value[n] = (in[0] + in[1] + in[2]) >= 2; break;
        case GateType::kXor3: value[n] = in[0] ^ in[1] ^ in[2]; break;
        default: break;
      }
    }
    const Signal s = net.po_at(po);
    return bool(value[s.node()] ^ s.complemented());
  };
  // Quotient bits (POs 0..3) must all be 1 when dividing by zero.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(eval_bit(5, 0, i)) << "quotient bit " << i;
  }
}

TEST(EdgeCases, DetectXorsIsIdempotent) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  net.create_po(net.create_or(net.create_and(a, !b), net.create_and(!a, b)));
  const Network once = detect_xors(net);
  const Network twice = detect_xors(once);
  EXPECT_EQ(once.num_gates(), twice.num_gates());
  EXPECT_EQ(check_equivalence(net, twice), CecResult::kEquivalent);
}

TEST(EdgeCases, LutMapperHandlesWideTrivialFunctions) {
  // A 6-input AND of complemented inputs, mapped with k = 4: needs a
  // multi-level cover with complement handling at the leaves.
  Network net;
  std::vector<Signal> pis;
  for (int i = 0; i < 6; ++i) pis.push_back(net.create_pi());
  Signal acc = net.constant(true);
  for (const Signal s : pis) acc = net.create_and(acc, !s);
  net.create_po(!acc);
  const auto lnet = lut_map(net, {.lut_size = 4, .use_choices = false});
  const Network back = lut_network_to_network(lnet);
  EXPECT_EQ(check_equivalence(net, back), CecResult::kEquivalent);
}

}  // namespace
}  // namespace mcs
