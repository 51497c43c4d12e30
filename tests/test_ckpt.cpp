/// Tests for mcs::ckpt -- the transactional checkpoint layer: snapshot
/// round-trip bit-identity across every gate basis (ids, levels, choices,
/// names and all), file-backed snapshots with corruption rejection, the
/// Network::check() invariant audit, and the transactional stage runner
/// (rollback + retry / skip / fail policies under injected faults,
/// including the headline guarantee: a fault-injected retried flow ends
/// bit-identical to an uninjected run).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mcs/ckpt/snapshot.hpp"
#include "mcs/fail/fail.hpp"
#include "mcs/flow/flow.hpp"
#include "mcs/io/writers.hpp"
#include "mcs/obs/obs.hpp"
#include "test_util.hpp"

namespace mcs {
namespace {

/// The network as a comparable string: BLIF carries structure and names.
std::string blif_of(const Network& net) {
  std::ostringstream os;
  write_blif(net, os);
  return os.str();
}

/// Full round-trip assertion: restore(snapshot(net)) is *bit-identical*
/// to net -- the re-snapshot yields the same bytes, every audited
/// invariant holds, and the printed structure matches.
void expect_round_trip(const Network& net) {
  const std::vector<std::uint8_t> blob = ckpt::snapshot(net);
  const Network back = ckpt::restore(blob);

  std::string why;
  EXPECT_TRUE(back.check(&why)) << why;

  EXPECT_EQ(back.size(), net.size());
  EXPECT_EQ(back.num_pis(), net.num_pis());
  EXPECT_EQ(back.num_pos(), net.num_pos());
  EXPECT_EQ(back.num_gates(), net.num_gates());
  EXPECT_EQ(back.num_choices(), net.num_choices());
  EXPECT_EQ(back.depth(), net.depth());
  EXPECT_EQ(blif_of(back), blif_of(net));

  // The strongest form: serializing the restored network reproduces the
  // exact original bytes, checksum included.
  EXPECT_EQ(ckpt::snapshot(back), blob);
}

// --- round-trip bit-identity ------------------------------------------------

TEST(Snapshot, RoundTripAcrossEveryBasis) {
  for (const GateBasis basis :
       {GateBasis::aig(), GateBasis::xag(), GateBasis::mig(),
        GateBasis::xmg()}) {
    for (const std::uint64_t seed : {1u, 7u, 42u}) {
      testing::RandomNetworkSpec spec;
      spec.basis = basis;
      spec.num_gates = 120;
      spec.seed = seed;
      const Network net = testing::random_network(spec);
      SCOPED_TRACE(std::string(basis.name()) + " seed " +
                   std::to_string(seed));
      expect_round_trip(net);
    }
  }
}

TEST(Snapshot, RoundTripEmptyAndDegenerateNetworks) {
  expect_round_trip(Network{});  // constant node only

  Network pis_only;
  pis_only.create_pi("a");
  pis_only.create_pi("b");
  expect_round_trip(pis_only);

  Network const_po;  // PO driving constant-1, no gates at all
  const_po.create_po(const_po.constant(true), "always_on");
  expect_round_trip(const_po);
}

TEST(Snapshot, RoundTripPreservesNamesAndComplementedPos) {
  Network net;
  const Signal a = net.create_pi("in_a");
  const Signal b = net.create_pi("in_b");
  const Signal g = net.create_and(a, !b);
  net.create_po(!g, "out!x");
  net.create_po(g);  // unnamed PO alongside a named one
  expect_round_trip(net);

  const Network back = ckpt::restore(ckpt::snapshot(net));
  EXPECT_EQ(back.pi_name(0), "in_a");
  EXPECT_EQ(back.pi_name(1), "in_b");
  EXPECT_EQ(back.po_name(0), "out!x");
  EXPECT_EQ(back.po_name(1), net.po_name(1));  // auto-generated name kept
  EXPECT_EQ(back.po_at(0), !g);  // same ids, same phase
}

TEST(Snapshot, RoundTripPreservesChoiceClasses) {
  testing::RandomNetworkSpec spec;
  spec.num_gates = 60;
  Network net = testing::random_network(spec);
  // Two classes, one with a two-member chain (order within the intrusive
  // list is part of bit-identity: members are re-added in reverse).
  std::vector<NodeId> gates;
  for (NodeId n = 1; n < net.size() && gates.size() < 5; ++n) {
    if (net.is_gate(n)) gates.push_back(n);
  }
  ASSERT_GE(gates.size(), 5u);
  net.add_choice(gates[4], gates[0], /*phase=*/false);
  net.add_choice(gates[4], gates[1], /*phase=*/true);
  net.add_choice(gates[3], gates[2], /*phase=*/true);
  ASSERT_EQ(net.num_choices(), 3u);
  std::string why;
  ASSERT_TRUE(net.check(&why)) << why;
  expect_round_trip(net);
}

TEST(Snapshot, RoundTripPostFraigMult64) {
  // The acceptance benchmark's network: choice-laden, fraig-swept mult64.
  // Modest fraig effort keeps the test fast; the structure still carries
  // merged classes and every mixed gate type.
  flow::FlowContext ctx;
  const flow::FlowReport report = flow::run_flow(
      "gen:multiplier,bits=64; mch:ratio=0.5; "
      "fraig:rounds=2,conflicts=50,words=4",
      ctx);
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_GT(ctx.net.num_gates(), 0u);
  expect_round_trip(ctx.net);
}

// --- file-backed snapshots and corruption rejection -------------------------

TEST(Snapshot, FileRoundTripAndCorruptionDetection) {
  const std::string path = ::testing::TempDir() + "mcs_ckpt_roundtrip.snap";
  const Network net = testing::random_network({});
  ckpt::write_snapshot_file(net, path);
  const Network back = ckpt::read_snapshot_file(path);
  EXPECT_EQ(ckpt::snapshot(back), ckpt::snapshot(net));

  // Flip one payload byte: the checksum must catch it.
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);
  std::vector<char> flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x20;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  }
  EXPECT_THROW(ckpt::read_snapshot_file(path), ckpt::SnapshotError);

  // Truncation at any interesting boundary is rejected, never a crash.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3},
                                 std::size_t{12}, bytes.size() / 2,
                                 bytes.size() - 1}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_THROW(ckpt::read_snapshot_file(path), ckpt::SnapshotError)
        << "truncated to " << keep << " bytes";
  }

  // Garbage with a healthy size but no magic.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (int i = 0; i < 256; ++i) out.put(static_cast<char>(i * 7));
  }
  EXPECT_THROW(ckpt::read_snapshot_file(path), ckpt::SnapshotError);

  EXPECT_THROW(ckpt::read_snapshot_file(path + ".does-not-exist"),
               ckpt::SnapshotError);
  std::remove(path.c_str());
}

TEST(Snapshot, RestoreRejectsTamperedBlob) {
  const Network net = testing::random_network({});
  const std::vector<std::uint8_t> blob = ckpt::snapshot(net);
  EXPECT_THROW(ckpt::restore({}), ckpt::SnapshotError);
  std::vector<std::uint8_t> bad = blob;
  bad[0] = 'X';  // magic
  EXPECT_THROW(ckpt::restore(bad), ckpt::SnapshotError);
  bad = blob;
  bad.pop_back();  // checksum cut short
  EXPECT_THROW(ckpt::restore(bad), ckpt::SnapshotError);
}

// --- Network::check ---------------------------------------------------------

TEST(NetworkCheck, AcceptsHealthyNetworks) {
  std::string why;
  EXPECT_TRUE(Network{}.check(&why)) << why;
  for (const GateBasis basis : {GateBasis::aig(), GateBasis::xmg()}) {
    testing::RandomNetworkSpec spec;
    spec.basis = basis;
    const Network net = testing::random_network(spec);
    EXPECT_TRUE(net.check(&why)) << why;
  }
}

TEST(NetworkCheck, AcceptsPostFlowNetworks) {
  // check() must hold after every real pass, or the transactional runner
  // would flag healthy stages: run a representative flow and audit after.
  flow::FlowContext ctx;
  const flow::FlowReport report =
      flow::run_flow("gen:adder,bits=16; compress2rs:rounds=1; mch", ctx);
  ASSERT_TRUE(report.ok) << report.error;
  std::string why;
  EXPECT_TRUE(ctx.net.check(&why)) << why;
}

// --- transactional stage execution ------------------------------------------

class TxnTest : public ::testing::Test {
 protected:
  void TearDown() override { fail::disable(); }
};

TEST_F(TxnTest, RetryCompletesBitIdenticalToUninjectedRun) {
  // Reference: no faults, no checkpointing.
  flow::FlowContext clean;
  const std::string spec = "gen:adder,bits=16; rewrite; balance; resub";
  ASSERT_TRUE(flow::run_flow(spec, clean).ok);
  const std::string want = blif_of(clean.net);

  // Same flow under fire: the second mutating stage throws once, the
  // transactional runner rolls back and retries, and the result must be
  // the exact network the clean run produced.
  [[maybe_unused]] const std::uint64_t rollbacks_before =
      obs::counter("ckpt.rollbacks").value();
  [[maybe_unused]] const std::uint64_t retries_before =
      obs::counter("ckpt.retries").value();
  fail::configure("flow.stage=throw,after=2,count=1");
  flow::FlowContext injected;
  injected.txn.snapshot = true;
  injected.txn.on_failure = flow::TxnPolicy::OnFailure::kRetry;
  injected.txn.max_retries = 1;
  const flow::FlowReport report = flow::run_flow(spec, injected);
  fail::disable();

  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(blif_of(injected.net), want);
#ifndef MCS_OBS_DISABLE  // counters are no-op stubs in the disabled build
  EXPECT_GE(obs::counter("ckpt.rollbacks").value(), rollbacks_before + 1);
  EXPECT_GE(obs::counter("ckpt.retries").value(), retries_before + 1);
#endif
  // The failed attempt is part of the record: one more history entry than
  // the clean run, marked not-ok.
  EXPECT_EQ(injected.history.size(), clean.history.size() + 1);
  std::size_t failed = 0;
  for (const flow::StageReport& stage : injected.history) {
    if (!stage.ok) ++failed;
  }
  EXPECT_EQ(failed, 1u);
}

TEST_F(TxnTest, RetryBudgetExhaustedFailsTheStage) {
  fail::configure("flow.stage=throw,after=1");  // every later hit fires
  flow::FlowContext ctx;
  ctx.txn.snapshot = true;
  ctx.txn.on_failure = flow::TxnPolicy::OnFailure::kRetry;
  ctx.txn.max_retries = 2;
  const flow::FlowReport report =
      flow::run_flow("gen:adder,bits=8; rewrite", ctx);
  EXPECT_FALSE(report.ok);
  // 1 original attempt + 2 retries of the rewrite stage, all failed.
  std::size_t failed = 0;
  for (const flow::StageReport& stage : ctx.history) {
    if (!stage.ok) ++failed;
  }
  EXPECT_EQ(failed, 3u);
}

TEST_F(TxnTest, SkipDropsTheStageAndTheFlowContinues) {
  [[maybe_unused]] const std::uint64_t skips_before =
      obs::counter("ckpt.skips").value();
  fail::configure("flow.stage=throw,after=1");
  flow::FlowContext ctx;
  ctx.txn.snapshot = true;
  ctx.txn.on_failure = flow::TxnPolicy::OnFailure::kSkip;
  const flow::FlowReport report =
      flow::run_flow("gen:adder,bits=8; rewrite; balance", ctx);
  fail::disable();
  ASSERT_TRUE(report.ok) << report.error;
#ifndef MCS_OBS_DISABLE
  EXPECT_GE(obs::counter("ckpt.skips").value(), skips_before + 2);
#endif

  // The skipped stages rolled back: the network is exactly the generated
  // adder, untouched by rewrite/balance.
  flow::FlowContext plain;
  ASSERT_TRUE(flow::run_flow("gen:adder,bits=8", plain).ok);
  EXPECT_EQ(blif_of(ctx.net), blif_of(plain.net));

  std::size_t skipped = 0;
  for (const flow::StageReport& stage : ctx.history) {
    if (stage.note.rfind("skipped after rollback:", 0) == 0) ++skipped;
  }
  EXPECT_EQ(skipped, 2u);
}

TEST_F(TxnTest, FailPolicyStopsImmediatelyWithoutRollback) {
  [[maybe_unused]] const std::uint64_t rollbacks_before =
      obs::counter("ckpt.rollbacks").value();
  fail::configure("flow.stage=throw,after=1,count=1");
  flow::FlowContext ctx;
  ctx.txn.snapshot = true;
  ctx.txn.on_failure = flow::TxnPolicy::OnFailure::kFail;
  const flow::FlowReport report =
      flow::run_flow("gen:adder,bits=8; rewrite", ctx);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(obs::counter("ckpt.rollbacks").value(), rollbacks_before);
}

TEST_F(TxnTest, ValidationFaultSiteTriggersRollback) {
  // flow.validate fires inside the post-stage audit window: the stage ran
  // and mutated the network, so recovery requires an actual rollback.
  [[maybe_unused]] const std::uint64_t rollbacks_before =
      obs::counter("ckpt.rollbacks").value();
  fail::configure("flow.validate=throw,after=1,count=1");
  flow::FlowContext ctx;
  ctx.txn.snapshot = true;
  ctx.txn.validate = true;
  ctx.txn.on_failure = flow::TxnPolicy::OnFailure::kRetry;
  const flow::FlowReport report =
      flow::run_flow("gen:adder,bits=8; rewrite", ctx);
  fail::disable();
  ASSERT_TRUE(report.ok) << report.error;
#ifndef MCS_OBS_DISABLE
  EXPECT_GE(obs::counter("ckpt.rollbacks").value(), rollbacks_before + 1);
#endif
}

TEST_F(TxnTest, SimSignatureSpotCheckPassesHonestTransforms) {
  flow::FlowContext ctx;
  ctx.txn.snapshot = true;
  ctx.txn.sim_words = 8;
  const flow::FlowReport report =
      flow::run_flow("gen:adder,bits=16; rewrite; balance", ctx);
  EXPECT_TRUE(report.ok) << report.error;
}

TEST_F(TxnTest, CkptPassArmsThePolicyFromAFlowSpec) {
  flow::FlowContext ctx;
  const flow::FlowReport report = flow::run_flow(
      "ckpt:mode=skip,retries=3,validate=true,sim_words=4; gen:adder,bits=8",
      ctx);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_TRUE(ctx.txn.snapshot);
  EXPECT_TRUE(ctx.txn.validate);
  EXPECT_EQ(ctx.txn.on_failure, flow::TxnPolicy::OnFailure::kSkip);
  EXPECT_EQ(ctx.txn.max_retries, 3);
  EXPECT_EQ(ctx.txn.sim_words, 4);

  ASSERT_TRUE(flow::run_flow("ckpt:mode=off", ctx).ok);
  EXPECT_FALSE(ctx.txn.snapshot);

  EXPECT_FALSE(flow::run_flow("ckpt:mode=sometimes", ctx).ok);
}

}  // namespace
}  // namespace mcs
