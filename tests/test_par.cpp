/// Unit tests for the mcs::par subsystem: thread-count resolution, level-window
/// partition + reassemble round trips (CEC-equivalent to the original),
/// choice preservation across sharding, the `par:` flow stages over
/// transforms and choice builders, and the determinism contract (1 thread
/// vs N threads yield bit-identical networks).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mcs/choice/mch.hpp"
#include "mcs/circuits/circuits.hpp"
#include "mcs/flow/flow.hpp"
#include "mcs/network/convert.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/opt/optimize.hpp"
#include "mcs/par/par_engine.hpp"
#include "mcs/par/partition.hpp"
#include "mcs/par/thread_pool.hpp"
#include "mcs/sat/cec.hpp"
#include "test_util.hpp"

namespace mcs {
namespace {

// --- thread pool ----------------------------------------------------------

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(ThreadPool::resolve_threads(3), 3u);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  EXPECT_GE(ThreadPool::resolve_threads(-1), 1u);
}

// --- partitioner ----------------------------------------------------------

/// Every gate-rooted PO of \p net must be produced by some shard.
void expect_pos_covered(const Network& net, const PartitionSet& parts) {
  std::set<NodeId> produced;
  for (const auto& p : parts.parts) {
    EXPECT_EQ(p.net.num_pis(), p.inputs.size());
    EXPECT_EQ(p.net.num_pos(), p.outputs.size());
    for (const NodeId n : p.outputs) produced.insert(n);
  }
  for (const auto s : net.pos()) {
    if (net.is_gate(s.node())) {
      EXPECT_TRUE(produced.count(s.node())) << "PO root not exported";
    }
  }
}

TEST(Partition, WindowsCoverEveryPoWithoutDuplication) {
  const Network net = circuits::multiplier(8);
  PartitionParams params;
  params.max_gates = 150;
  const PartitionSet parts = partition_network(net, params);
  EXPECT_GT(parts.parts.size(), 1u);
  expect_pos_covered(net, parts);
  // Internal boundaries mean zero duplication: total shard gates equal the
  // PO-reachable gate count (this is what keeps multipliers tractable).
  std::size_t shard_gates = 0;
  for (const auto& p : parts.parts) shard_gates += p.net.num_gates();
  std::size_t reachable = 0;
  for (const NodeId n : topo_order(net)) {
    if (net.is_gate(n)) ++reachable;
  }
  EXPECT_EQ(shard_gates, reachable);
}

TEST(Partition, RoundTripIsEquivalentOnAdder) {
  const Network net = circuits::adder(48);
  PartitionParams params;
  params.max_gates = 60;
  const PartitionSet parts = partition_network(net, params);
  EXPECT_GT(parts.parts.size(), 1u);
  const Network back = reassemble(net, parts);
  EXPECT_EQ(back.num_pis(), net.num_pis());
  EXPECT_EQ(back.num_pos(), net.num_pos());
  EXPECT_EQ(check_equivalence(net, back), CecResult::kEquivalent);
}

TEST(Partition, RoundTripIsEquivalentOnMultiplier) {
  const Network net = circuits::multiplier(8);
  PartitionParams params;
  params.max_gates = 150;
  const PartitionSet parts = partition_network(net, params);
  EXPECT_GT(parts.parts.size(), 1u);
  const Network back = reassemble(net, parts);
  EXPECT_EQ(check_equivalence(net, back), CecResult::kEquivalent);
}

TEST(Partition, RoundTripHandlesDegeneratePos) {
  // POs referencing constants and PIs directly must survive sharding.
  Network net;
  const Signal a = net.create_pi("a");
  const Signal b = net.create_pi("b");
  net.create_po(net.constant(true), "const1");
  net.create_po(!a, "na");
  net.create_po(net.create_and(a, b), "ab");
  PartitionParams params;
  params.max_gates = 1;
  const PartitionSet parts = partition_network(net, params);
  const Network back = reassemble(net, parts);
  EXPECT_EQ(check_equivalence(net, back), CecResult::kEquivalent);
  EXPECT_EQ(back.po_name(0), "const1");
}

TEST(Partition, KeepChoicesCarriesClassesIntoShards) {
  const Network net = expand_to_aig(circuits::adder(24));
  MchParams mch;
  mch.candidate_basis = GateBasis::xmg();
  const Network choices = build_mch(net, mch);
  ASSERT_GT(choices.num_choices(), 0u);

  PartitionParams params;
  params.max_gates = 80;
  params.keep_choices = true;
  const PartitionSet parts = partition_network(choices, params);
  std::size_t shard_choices = 0;
  for (const auto& p : parts.parts) shard_choices += p.net.num_choices();
  EXPECT_GT(shard_choices, 0u);

  const Network back = reassemble(choices, parts);
  EXPECT_GT(back.num_choices(), 0u);
  EXPECT_EQ(check_equivalence(net, back), CecResult::kEquivalent);
}

TEST(Partition, ParallelShardConstructionIsBitIdentical) {
  // The shard-construction fan-out (and the parallel reassemble pre-pass)
  // must produce exactly the serial result.
  const Network net = expand_to_aig(circuits::multiplier(8));
  PartitionParams serial;
  serial.max_gates = 150;
  serial.num_threads = 1;
  PartitionParams parallel = serial;
  parallel.num_threads = 4;

  const PartitionSet ps = partition_network(net, serial);
  const PartitionSet pp = partition_network(net, parallel);
  ASSERT_EQ(ps.parts.size(), pp.parts.size());
  for (std::size_t i = 0; i < ps.parts.size(); ++i) {
    EXPECT_EQ(ps.parts[i].inputs, pp.parts[i].inputs) << "shard " << i;
    EXPECT_EQ(ps.parts[i].outputs, pp.parts[i].outputs) << "shard " << i;
    EXPECT_TRUE(structurally_identical(ps.parts[i].net, pp.parts[i].net))
        << "shard " << i;
  }

  const Network rs = reassemble(net, ps, {.num_threads = 1});
  const Network rp = reassemble(net, ps, {.num_threads = 4});
  EXPECT_TRUE(structurally_identical(rs, rp));
  EXPECT_EQ(check_equivalence(net, rs), CecResult::kEquivalent);
}

// --- parallel drivers -----------------------------------------------------

/// Runs the flow \p stages on \p net with \p threads workers and shards of
/// at most \p max_gates gates.
flow::FlowContext run_par(const Network& net, const std::string& stages,
                          int threads, std::size_t max_gates,
                          flow::FlowReport* report_out = nullptr) {
  flow::FlowContext ctx;
  ctx.net = net;
  ctx.original = net;
  ctx.par.num_threads = threads;
  ctx.par.partition.max_gates = max_gates;
  flow::FlowReport report = flow::run_flow(stages, ctx);
  EXPECT_TRUE(report.ok) << stages << ": " << report.error;
  if (report_out != nullptr) *report_out = std::move(report);
  return ctx;
}

Network compress2rs_shard(const Network& shard) {
  return compress2rs_like(shard, GateBasis::xmg(), 2);
}

TEST(ParEngine, ParRunOptimizeIsEquivalentAndDeterministic) {
  const Network net = expand_to_aig(circuits::multiplier(8));
  ParParams one;
  one.num_threads = 1;
  one.partition.max_gates = 120;
  ParParams four = one;
  four.num_threads = 4;

  ParStats stats;
  const Network r1 = par_run(net, compress2rs_shard, one, &stats);
  EXPECT_GT(stats.num_partitions, 1u);
  const Network r4 = par_run(net, compress2rs_shard, four);

  EXPECT_EQ(check_equivalence(net, r1), CecResult::kEquivalent);
  EXPECT_LT(r1.num_gates(), net.num_gates());
  EXPECT_TRUE(structurally_identical(r1, r4))
      << "par_run must be bit-identical for any thread count";
}

TEST(ParEngine, ParCompress2rsReducesRandomNetworks) {
  const auto net = testing::random_network({.num_pis = 10,
                                            .num_gates = 400,
                                            .num_pos = 16,
                                            .basis = GateBasis::xmg(),
                                            .seed = 7});
  const flow::FlowContext ctx =
      run_par(net, "par:pass=compress2rs,rounds=2", 2, 100);
  EXPECT_EQ(check_equivalence(net, ctx.net), CecResult::kEquivalent);
  EXPECT_LE(ctx.net.num_gates(), net.num_gates());
}

TEST(ParEngine, ParMchAddsChoicesAndStaysEquivalent) {
  const Network net = expand_to_aig(circuits::adder(24));
  const flow::FlowContext two = run_par(net, "par:pass=mch", 2, 80);
  EXPECT_GT(two.net.num_choices(), 0u);
  EXPECT_EQ(check_equivalence(net, two.net), CecResult::kEquivalent);

  const flow::FlowContext one = run_par(net, "par:pass=mch", 1, 80);
  EXPECT_TRUE(structurally_identical(one.net, two.net))
      << "par:pass=mch must be bit-identical for any thread count";
}

constexpr const char* kParPaperFlow =
    "par:pass=compress2rs,rounds=1; par:pass=mch; map_lut; cec";

TEST(ParEngine, FullParallelFlowOnChoiceNetwork) {
  // Optimization and choices partitioned, LUT mapping on the flow's
  // threads, verified end to end by the flow's `cec`.
  flow::FlowReport report;
  run_par(circuits::adder(32), kParPaperFlow, 2, 100, &report);
  ASSERT_FALSE(report.stages.empty());
  EXPECT_EQ(report.stages.back().note, "equivalent (LUT network)");
}

TEST(ParEngine, FullParallelFlowOnMultiplier) {
  // Global sharing: each high output cone covers almost the whole array.
  // Level windows never duplicate it, which keeps the flow tractable.
  flow::FlowReport report;
  run_par(expand_to_aig(circuits::multiplier(8)), kParPaperFlow, 2, 200,
          &report);
  ASSERT_FALSE(report.stages.empty());
  EXPECT_EQ(report.stages.back().note, "equivalent (LUT network)");
}

}  // namespace
}  // namespace mcs
