/// Tests for the word-level construction library and the EPFL-analogue
/// benchmark generators: every arithmetic circuit is validated against a
/// software model on random inputs via simulation.

#include <gtest/gtest.h>

#include "mcs/circuits/circuits.hpp"
#include "mcs/circuits/wordlib.hpp"
#include "mcs/common/rng.hpp"
#include "mcs/flow/flow.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/sim/simulator.hpp"

namespace mcs {
namespace {

using circuits::Word;

/// Evaluates a network on a single input assignment (bit i of PI i).
std::vector<bool> eval(const Network& net,
                       const std::vector<bool>& pi_values) {
  std::vector<std::uint8_t> value(net.size(), 0);
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    value[net.pi_at(i)] = pi_values[i];
  }
  for (NodeId n = 0; n < net.size(); ++n) {
    const Node& nd = net.node(n);
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
  std::vector<bool> pos;
  for (const Signal s : net.pos()) {
    pos.push_back(value[s.node()] ^ s.complemented());
  }
  return pos;
}

std::uint64_t word_value(const std::vector<bool>& bits, int lo, int n) {
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i) {
    if (bits[lo + i]) v |= (1ull << i);
  }
  return v;
}

std::vector<bool> random_inputs(std::size_t n, Rng& rng) {
  std::vector<bool> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.next_bool();
  return v;
}

TEST(WordLib, AdderMatchesArithmetic) {
  Rng rng(1);
  const auto net = circuits::adder(16);
  for (int iter = 0; iter < 50; ++iter) {
    const auto in = random_inputs(net.num_pis(), rng);
    const auto out = eval(net, in);
    const std::uint64_t a = word_value(in, 0, 16);
    const std::uint64_t b = word_value(in, 16, 16);
    EXPECT_EQ(word_value(out, 0, 17), a + b);
  }
}

TEST(WordLib, MultiplierMatchesArithmetic) {
  Rng rng(2);
  const auto net = circuits::multiplier(8);
  for (int iter = 0; iter < 50; ++iter) {
    const auto in = random_inputs(net.num_pis(), rng);
    const auto out = eval(net, in);
    const std::uint64_t a = word_value(in, 0, 8);
    const std::uint64_t b = word_value(in, 8, 8);
    EXPECT_EQ(word_value(out, 0, 16), a * b);
  }
}

TEST(WordLib, DividerMatchesArithmetic) {
  Rng rng(3);
  const auto net = circuits::divider(8);
  for (int iter = 0; iter < 50; ++iter) {
    const auto in = random_inputs(net.num_pis(), rng);
    const std::uint64_t a = word_value(in, 0, 8);
    const std::uint64_t b = word_value(in, 8, 8);
    if (b == 0) continue;
    const auto out = eval(net, in);
    EXPECT_EQ(word_value(out, 0, 8), a / b) << a << "/" << b;
    EXPECT_EQ(word_value(out, 8, 8), a % b) << a << "%" << b;
  }
}

TEST(WordLib, SqrtMatchesArithmetic) {
  Rng rng(4);
  const auto net = circuits::sqrt_circuit(12);
  for (int iter = 0; iter < 30; ++iter) {
    const auto in = random_inputs(net.num_pis(), rng);
    const std::uint64_t a = word_value(in, 0, 12);
    const auto out = eval(net, in);
    const std::uint64_t r = word_value(out, 0, 6);
    EXPECT_LE(r * r, a);
    EXPECT_GT((r + 1) * (r + 1), a);
  }
}

TEST(WordLib, BarrelShifterRotates) {
  Rng rng(5);
  const auto net = circuits::barrel_shifter(16);
  for (int iter = 0; iter < 50; ++iter) {
    const auto in = random_inputs(net.num_pis(), rng);
    const std::uint64_t a = word_value(in, 0, 16);
    const std::uint64_t s = word_value(in, 16, 4);
    const auto out = eval(net, in);
    const std::uint64_t expect =
        ((a << s) | (a >> (16 - s))) & 0xffff;
    EXPECT_EQ(word_value(out, 0, 16), s == 0 ? a : expect);
  }
}

TEST(WordLib, Max4PicksMaximum) {
  Rng rng(6);
  const auto net = circuits::max4(8);
  for (int iter = 0; iter < 50; ++iter) {
    const auto in = random_inputs(net.num_pis(), rng);
    std::uint64_t ops[4];
    for (int i = 0; i < 4; ++i) ops[i] = word_value(in, 8 * i, 8);
    const auto out = eval(net, in);
    EXPECT_EQ(word_value(out, 0, 8),
              std::max(std::max(ops[0], ops[1]), std::max(ops[2], ops[3])));
  }
}

TEST(WordLib, VoterComputesMajority) {
  Rng rng(7);
  const auto net = circuits::voter(15);
  for (int iter = 0; iter < 50; ++iter) {
    const auto in = random_inputs(net.num_pis(), rng);
    int ones = 0;
    for (std::size_t i = 0; i < in.size(); ++i) ones += in[i];
    const auto out = eval(net, in);
    EXPECT_EQ(out[0], ones >= 8);
  }
}

TEST(WordLib, PriorityEncoderFindsMsb) {
  Rng rng(8);
  const auto net = circuits::priority_encoder(16);
  for (int iter = 0; iter < 50; ++iter) {
    const auto in = random_inputs(net.num_pis(), rng);
    const std::uint64_t a = word_value(in, 0, 16);
    const auto out = eval(net, in);
    if (a == 0) {
      EXPECT_FALSE(out[4]);  // valid flag
      continue;
    }
    EXPECT_TRUE(out[4]);
    EXPECT_EQ(word_value(out, 0, 4), 63 - __builtin_clzll(a));
  }
}

TEST(WordLib, DecoderIsOneHot) {
  Rng rng(9);
  const auto net = circuits::decoder(5);
  for (int iter = 0; iter < 20; ++iter) {
    const auto in = random_inputs(net.num_pis(), rng);
    const std::uint64_t a = word_value(in, 0, 5);
    const auto out = eval(net, in);
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(out[i], static_cast<std::uint64_t>(i) == a);
    }
  }
}

TEST(WordLib, ArbiterGrantsOneRequestor) {
  Rng rng(10);
  const auto net = circuits::round_robin_arbiter(8);
  for (int iter = 0; iter < 60; ++iter) {
    const auto in = random_inputs(net.num_pis(), rng);
    const std::uint64_t req = word_value(in, 0, 8);
    const std::uint64_t ptr = word_value(in, 8, 3);
    const auto out = eval(net, in);
    const std::uint64_t grant = word_value(out, 0, 8);
    if (req == 0) {
      EXPECT_EQ(grant, 0u);
      EXPECT_FALSE(out[8]);
      continue;
    }
    // Exactly one grant, to a requestor, and it is the first requestor at
    // or after the pointer (round robin).
    EXPECT_EQ(__builtin_popcountll(grant), 1);
    EXPECT_NE(grant & req, 0u);
    int expected = -1;
    for (int k = 0; k < 8; ++k) {
      const int idx = (static_cast<int>(ptr) + k) % 8;
      if ((req >> idx) & 1) {
        expected = idx;
        break;
      }
    }
    EXPECT_EQ(grant, 1ull << expected);
  }
}

TEST(Circuits, SuiteHasTwentyNamedCircuits) {
  const auto suite = circuits::epfl_suite(0.35);
  ASSERT_EQ(suite.size(), 20u);
  const char* expected[] = {"adder",   "bar",        "div",      "hyp",
                            "log2",    "max",        "multiplier", "sin",
                            "sqrt",    "square",     "arbiter",  "cavlc",
                            "ctrl",    "dec",        "i2c",      "int2float",
                            "mem_ctrl", "priority",  "router",   "voter"};
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(suite[i].name, expected[i]);
    EXPECT_GT(suite[i].net.num_gates(), 0u) << suite[i].name;
    EXPECT_GT(suite[i].net.num_pos(), 0u) << suite[i].name;
  }
}

TEST(Circuits, SuiteGenStagesRebuildTheirNetworks) {
  // Benches build their flow specs from these stages; a width-less `gen`
  // gives the full-scale circuit.
  for (const double scale : {0.05, 0.3, 0.6, 0.9, 1.0}) {
    for (const auto& bc : circuits::epfl_suite(scale)) {
      flow::FlowContext ctx;
      ASSERT_TRUE(flow::run_flow(bc.gen, ctx).ok) << bc.gen;
      EXPECT_TRUE(structurally_identical(ctx.net, bc.net)) << bc.gen;
      if (scale == 1.0) {
        ASSERT_TRUE(flow::run_flow("gen:" + bc.name, ctx).ok) << bc.name;
        EXPECT_TRUE(structurally_identical(ctx.net, bc.net)) << bc.name;
      }
    }
  }
}

TEST(Circuits, GeneratorsAreDeterministic) {
  const auto a = circuits::mem_ctrl_like();
  const auto b = circuits::mem_ctrl_like();
  EXPECT_EQ(a.num_gates(), b.num_gates());
  EXPECT_EQ(a.depth(), b.depth());
}

}  // namespace
}  // namespace mcs
