/// Unit tests for the mcs::flow layer: validated scalar parsing, pass
/// registry invariants, spec-string parse/validate round trips (including
/// malformed specs), end-to-end run_flow() equivalence against hand-wired
/// pass sequences, `cec`/`sim` over every mapped artifact, the generic
/// par_run determinism contract over registered passes, and the README pass
/// table (auto-checked against the registry).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mcs/choice/mch.hpp"
#include "mcs/circuits/circuits.hpp"
#include "mcs/fail/fail.hpp"
#include "mcs/flow/flow.hpp"
#include "mcs/map/lut_mapper.hpp"
#include "mcs/network/convert.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/opt/optimize.hpp"
#include "mcs/par/par_engine.hpp"
#include "mcs/sat/cec.hpp"
#include "mcs/server/json.hpp"

namespace mcs {
namespace {

using flow::Flow;
using flow::FlowContext;
using flow::FlowError;
using flow::FlowReport;
using flow::PassArgs;
using flow::PassInfo;
using flow::PassRegistry;

// --- validated scalar parsing ----------------------------------------------

TEST(FlowParse, IntRejectsJunk) {
  EXPECT_EQ(flow::parse_int("64"), 64);
  EXPECT_EQ(flow::parse_int(" -3 "), -3);
  EXPECT_FALSE(flow::parse_int("").has_value());
  EXPECT_FALSE(flow::parse_int("abc").has_value());
  EXPECT_FALSE(flow::parse_int("12x").has_value());
  EXPECT_FALSE(flow::parse_int("1.5").has_value());
  EXPECT_FALSE(flow::parse_int("99999999999999999999999").has_value());
}

TEST(FlowParse, DoubleRejectsJunk) {
  EXPECT_DOUBLE_EQ(*flow::parse_double("0.9"), 0.9);
  EXPECT_DOUBLE_EQ(*flow::parse_double("2"), 2.0);
  EXPECT_FALSE(flow::parse_double("").has_value());
  EXPECT_FALSE(flow::parse_double("0.9x").has_value());
  EXPECT_FALSE(flow::parse_double("ratio").has_value());
  // Non-finite values pass no range check (every comparison with NaN is
  // false), so the parser refuses them for every double parameter.
  EXPECT_FALSE(flow::parse_double("nan").has_value());
  EXPECT_FALSE(flow::parse_double("inf").has_value());
  EXPECT_FALSE(flow::parse_double("-inf").has_value());
}

TEST(FlowParse, BoolAndBasis) {
  EXPECT_EQ(flow::parse_bool("true"), true);
  EXPECT_EQ(flow::parse_bool("0"), false);
  EXPECT_FALSE(flow::parse_bool("yes").has_value());
  EXPECT_EQ(*flow::parse_basis("xmg"), GateBasis::xmg());
  EXPECT_EQ(*flow::parse_basis("aig"), GateBasis::aig());
  EXPECT_FALSE(flow::parse_basis("qmg").has_value());
}

// --- registry ---------------------------------------------------------------

TEST(FlowRegistry, EveryRegisteredPassIsFindable) {
  const auto all = PassRegistry::instance().all();
  ASSERT_FALSE(all.empty());
  std::set<std::string> names;
  for (const PassInfo* pass : all) {
    EXPECT_EQ(PassRegistry::instance().find(pass->name), pass);
    EXPECT_TRUE(names.insert(pass->name).second)
        << "duplicate pass " << pass->name;
    EXPECT_FALSE(pass->summary.empty()) << pass->name;
    EXPECT_TRUE(static_cast<bool>(pass->run)) << pass->name;
  }
  EXPECT_EQ(PassRegistry::instance().find("no_such_pass"), nullptr);
}

TEST(FlowRegistry, OnlyTransformsMayRunPerShard) {
  // A `par` stage acts as a transform, so no other kind may be parallel_ok.
  PassInfo mapping;
  mapping.name = "sharded_mapping";
  mapping.kind = flow::PassKind::kMapping;
  mapping.parallel_ok = true;
  mapping.run = [](FlowContext&, const PassArgs&) {};
  EXPECT_THROW(PassRegistry::instance().add(mapping), std::logic_error);
  EXPECT_EQ(PassRegistry::instance().find("sharded_mapping"), nullptr);
}

TEST(FlowRegistry, CoversTheWholeShellVocabulary) {
  // Every command of the pre-registry shell must exist as a pass.
  for (const char* name :
       {"gen", "read_aiger", "write_aiger", "write_blif", "write_verilog",
        "ps", "strash", "to", "balance", "rewrite", "refactor", "resub",
        "compress2rs", "dch", "mch", "map_lut", "map_asic", "graph_map",
        "threads", "partsize", "cec", "seed", "par", "detect_xors"}) {
    EXPECT_NE(PassRegistry::instance().find(name), nullptr) << name;
  }
}

TEST(FlowRegistry, HelpMentionsEveryPass) {
  const std::string help = PassRegistry::instance().help();
  for (const PassInfo* pass : PassRegistry::instance().all()) {
    EXPECT_NE(help.find("  " + pass->name), std::string::npos) << pass->name;
  }
}

// --- arg binding ------------------------------------------------------------

TEST(FlowArgs, PositionalAndKeyedBindingAgree) {
  const PassInfo* gen = PassRegistry::instance().find("gen");
  ASSERT_NE(gen, nullptr);
  const PassArgs positional = PassArgs::bind(*gen, {"multiplier", "8"});
  const PassArgs keyed = PassArgs::bind(*gen, {"bits=8", "name=multiplier"});
  EXPECT_EQ(positional.get_string("name"), "multiplier");
  EXPECT_EQ(positional.get_int("bits"), 8);
  EXPECT_EQ(keyed.get_string("name"), "multiplier");
  EXPECT_EQ(keyed.get_int("bits"), 8);
}

TEST(FlowArgs, DefaultsApplyWhenUnbound) {
  const PassInfo* mch = PassRegistry::instance().find("mch");
  ASSERT_NE(mch, nullptr);
  const PassArgs args = PassArgs::bind(*mch, {});
  EXPECT_EQ(args.get_basis("basis"), GateBasis::xmg());
  EXPECT_DOUBLE_EQ(args.get_double("ratio"), 0.9);
  EXPECT_FALSE(args.has("ratio"));
}

TEST(FlowArgs, RejectsBadBindings) {
  const PassInfo* gen = PassRegistry::instance().find("gen");
  const PassInfo* read = PassRegistry::instance().find("read_aiger");
  ASSERT_NE(gen, nullptr);
  ASSERT_NE(read, nullptr);
  EXPECT_THROW(PassArgs::bind(*gen, {"bits=junk"}), FlowError);
  EXPECT_THROW(PassArgs::bind(*gen, {"bits=1.5"}), FlowError);
  EXPECT_THROW(PassArgs::bind(*gen, {"nope=1"}), FlowError);
  EXPECT_THROW(PassArgs::bind(*gen, {"adder", "8", "surplus"}), FlowError);
  EXPECT_THROW(PassArgs::bind(*gen, {"bits=1", "bits=2"}), FlowError);
  EXPECT_THROW(PassArgs::bind(*read, {}), FlowError);  // missing required
}

// --- flow spec parsing ------------------------------------------------------

TEST(FlowSpec, ParsesAndCanonicalizes) {
  const Flow f = Flow::parse(
      "gen:multiplier,bits=8 ; compress2rs ; mch:basis=xmg,ratio=0.9; "
      "map_lut:k=6;cec");
  ASSERT_EQ(f.stages().size(), 5u);
  EXPECT_EQ(f.stages()[0].pass->name, "gen");
  EXPECT_EQ(f.stages()[4].pass->name, "cec");
  EXPECT_EQ(f.canonical(),
            "gen:name=multiplier,bits=8; compress2rs; "
            "mch:basis=xmg,ratio=0.9; map_lut:k=6; cec");
  // A canonical spec re-parses to itself (round trip).
  EXPECT_EQ(Flow::parse(f.canonical()).canonical(), f.canonical());
}

TEST(FlowSpec, MalformedSpecsThrowBeforeExecution) {
  EXPECT_THROW(Flow::parse(""), FlowError);
  EXPECT_THROW(Flow::parse(" ; ; "), FlowError);
  EXPECT_THROW(Flow::parse("no_such_pass"), FlowError);
  EXPECT_THROW(Flow::parse("gen:adder; frobnicate; cec"), FlowError);
  EXPECT_THROW(Flow::parse("gen:bits=oops"), FlowError);
  EXPECT_THROW(Flow::parse("mch:ratio=high"), FlowError);
  EXPECT_THROW(Flow::parse("gen; mch:ratio=nan"), FlowError);
  EXPECT_THROW(Flow::parse(":bits=2"), FlowError);
  EXPECT_THROW(Flow::parse("map_lut:k=6,k=6"), FlowError);
  // par validates its inner pass and forwarded args at parse time.
  EXPECT_THROW(Flow::parse("par:pass=no_such"), FlowError);
  EXPECT_THROW(Flow::parse("par:pass=cec"), FlowError);
  EXPECT_THROW(Flow::parse("par:pass=rewrite,k=junk"), FlowError);
  // Mappings run whole: `map_lut` has threads of its own, and a shard
  // boundary would force a LUT output at every crossing signal.
  EXPECT_THROW(Flow::parse("par:pass=map_lut"), FlowError);
  EXPECT_THROW(Flow::parse("par:pass=map_asic"), FlowError);
  EXPECT_THROW(Flow::parse("par:pass=par"), FlowError);  // no nesting
  // A shard never sees the LUT mapping that strash expands.
  EXPECT_THROW(Flow::parse("par:pass=strash"), FlowError);
}

TEST(FlowSpec, EveryParsedStageIsARegistryHit) {
  const Flow f = Flow::parse("gen; balance; rewrite; fraig; map_lut");
  for (const auto& stage : f.stages()) {
    EXPECT_EQ(PassRegistry::instance().find(stage.pass->name), stage.pass);
  }
}

// --- end-to-end flows -------------------------------------------------------

TEST(FlowRun, PaperFlowMatchesHandWiredSequence) {
  // The acceptance flow: opt -> mch -> map_lut -> cec through run_flow()
  // must produce a LUT network structurally identical to the hand-wired
  // sequence of direct pass calls.
  FlowContext ctx;
  const FlowReport report = flow::run_flow(
      "gen:adder,bits=16; compress2rs:rounds=2; mch; map_lut:k=4; cec", ctx);
  EXPECT_TRUE(report.ok) << report.error;
  ASSERT_EQ(report.stages.size(), 5u);
  ASSERT_TRUE(ctx.luts.has_value());

  const Network net = circuits::adder(16);
  const Network opt = compress2rs_like(net, GateBasis::xmg(), 2);
  const Network choices = build_mch(opt, MchParams{});
  LutMapParams lut_params;
  lut_params.lut_size = 4;
  const LutNetwork expected = lut_map(choices, lut_params);

  EXPECT_TRUE(*ctx.luts == expected)
      << "run_flow must reproduce the hand-wired pass sequence bit for bit";
  EXPECT_EQ(report.stages.back().pass, "cec");
  EXPECT_EQ(report.stages.back().note, "equivalent (LUT network)");
}

TEST(FlowRun, ReportCarriesPerStageStats) {
  FlowContext ctx;
  std::vector<std::pair<std::size_t, std::size_t>> streamed;  // index, luts
  ctx.on_stage = [&](const flow::StageReport& stage, std::size_t index) {
    streamed.emplace_back(index, stage.luts);
  };
  const FlowReport report =
      flow::run_flow("gen:adder,bits=16; compress2rs:rounds=2; map_lut:k=4",
                     ctx);
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_EQ(report.stages.size(), 3u);
  EXPECT_GT(report.stages[0].gates, 0u);
  EXPECT_LE(report.stages[1].gates, report.stages[0].gates);
  EXPECT_GT(report.stages[2].luts, 0u);
  EXPECT_GT(report.stages[2].lut_depth, 0u);
  EXPECT_GE(report.total_seconds, 0.0);
  // The streamed reports mirror the returned ones, numbered in order.
  EXPECT_EQ(ctx.report_count, 3u);
  ASSERT_EQ(streamed.size(), 3u);
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].first, i);
    EXPECT_EQ(streamed[i].second, report.stages[i].luts);
  }
  // JSON serialization is well-formed enough to contain every pass name.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"pass\": \"gen\""), std::string::npos);
  EXPECT_NE(json.find("\"luts\": "), std::string::npos);
  EXPECT_NE(json.find("\"ok\": true"), std::string::npos);
}

TEST(FlowRun, EveryContextOwnsItsMetricDomain) {
  // A context gets its metric domain when it is built, and run_flow keeps
  // it: every stage's metrics are deltas of that one domain.
  FlowContext ctx;
  ASSERT_NE(ctx.domain, nullptr);
  const obs::Domain* domain = ctx.domain.get();
  const FlowReport report = flow::run_flow("gen:adder,bits=8", ctx);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(ctx.domain.get(), domain);
}

#ifndef MCS_OBS_DISABLE  // counters are no-op stubs in the disabled build
TEST(FlowRun, BareRunStageReportsOnlyItsOwnWork) {
  // The shell runs every command through run_stage on a context that never
  // ran a flow.  Its stage metrics must still be the stage's own work: a
  // counter that a thread outside any domain bumps while the stage runs
  // stays out of the report.
  obs::Counter& outside = obs::counter("test.outside_work");
  const Flow gen = Flow::parse("gen:adder,bits=8");
  FlowContext ctx;
  std::atomic<bool> stop{false};
  std::thread bumper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      outside.increment();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  fail::configure("flow.stage=delay,ms=50");  // a window the bumps land in
  const std::uint64_t bumps_before = outside.value();
  const flow::StageReport stage =
      flow::run_stage(ctx, *gen.stages()[0].pass, gen.stages()[0].args);
  const std::uint64_t bumps_after = outside.value();
  fail::disable();
  stop.store(true, std::memory_order_relaxed);
  bumper.join();

  ASSERT_TRUE(stage.ok) << stage.note;
  EXPECT_GT(bumps_after, bumps_before);
  EXPECT_FALSE(stage.metrics.counters.empty());  // gen's own work
  for (const obs::MetricValue& mv : stage.metrics.counters) {
    EXPECT_NE(mv.name, "test.outside_work");
  }
}

TEST(FlowRun, MappingStagesCountTheirCutEnumerationPasses) {
  // One delay, two area-flow and two exact-area passes; the ASIC mapper
  // runs the same three kinds of pass.
  FlowContext ctx;
  const FlowReport report = flow::run_flow(
      "threads:n=2; gen:multiplier,bits=6; map_lut:k=4; map_asic", ctx);
  ASSERT_TRUE(report.ok) << report.error;
  auto counter = [](const flow::StageReport& stage, const char* name) {
    for (const obs::MetricValue& mv : stage.metrics.counters) {
      if (mv.name == name) return mv.value;
    }
    return std::int64_t{0};
  };
  const flow::StageReport& lut = report.stages[2];
  const auto gates = static_cast<std::int64_t>(ctx.net.size());
  EXPECT_EQ(counter(lut, "cut.enum_runs"), 5);
  EXPECT_GT(counter(lut, "cut.nodes_enumerated"), 0);
  EXPECT_LE(counter(lut, "cut.nodes_enumerated"), 5 * gates);
  EXPECT_GT(counter(lut, "cut.cuts_stored"),
            counter(lut, "cut.nodes_enumerated"));
  EXPECT_EQ(counter(report.stages[3], "cut.enum_runs"), 5);
}
#endif

TEST(FlowRun, TransformsInvalidateStaleMappings) {
  // A transform after a mapping must drop the mapped artifacts, so `cec`
  // verifies the *current* network, not a stale LUT mapping.
  FlowContext ctx;
  const FlowReport report = flow::run_flow(
      "gen:adder,bits=8; map_lut:k=4; rewrite; cec", ctx);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_FALSE(ctx.luts.has_value());
  EXPECT_EQ(report.stages.back().note, "equivalent");  // not "(LUT network)"
  EXPECT_EQ(report.stages.back().luts, 0u);
}

TEST(FlowRun, StrashExpandsALutMappingToItsAig) {
  FlowContext ctx;
  ASSERT_TRUE(flow::run_flow("gen:adder,bits=8; map_lut:k=4", ctx).ok);
  const Network expected = expand_to_aig(lut_network_to_network(*ctx.luts));
  const FlowReport report = flow::run_flow("strash; cec", ctx);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_TRUE(structurally_identical(ctx.net, expected));
  EXPECT_FALSE(ctx.luts.has_value());
  EXPECT_EQ(report.stages.back().note, "equivalent");
}

TEST(FlowRun, StrashWithoutAMappingRehashes) {
  FlowContext ctx;
  ASSERT_TRUE(flow::run_flow("gen:sin,bits=6; rewrite", ctx).ok);
  const Network expected = cleanup(ctx.net);
  ASSERT_TRUE(flow::run_flow("strash", ctx).ok);
  EXPECT_TRUE(structurally_identical(ctx.net, expected));
}

TEST(FlowRun, DetectXorsBuildsAnXag) {
  FlowContext ctx;
  const FlowReport report = flow::run_flow(
      "gen:sin,bits=6; to:basis=aig; detect_xors; ps; cec", ctx);
  ASSERT_TRUE(report.ok) << report.error;
  const std::string& ps = report.stages[3].note;
  const std::size_t at = ps.find("xor2=");
  ASSERT_NE(at, std::string::npos) << ps;
  EXPECT_GT(std::stoul(ps.substr(at + 5)), 0u) << ps;
  EXPECT_EQ(report.stages[4].note, "equivalent");
}

TEST(FlowRun, ShardedTransformDropsAStaleMapping) {
  // A `par` stage rewrites the network, so `cec` after it must verify the
  // new network, not the LUTs mapped before it.
  FlowContext ctx;
  const FlowReport report = flow::run_flow(
      "gen:adder,bits=16; map_lut:k=4; cec; par:pass=rewrite; cec", ctx);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_GT(report.stages[1].luts, 0u);
  EXPECT_GT(report.stages[1].lut_depth, 0u);
  EXPECT_EQ(report.stages[2].note, "equivalent (LUT network)");
  EXPECT_EQ(report.stages[3].luts, 0u);
  EXPECT_EQ(report.stages[4].note, "equivalent");
}

TEST(FlowRun, CecAndSimCheckTheMappedCells) {
  FlowContext ctx;
  const FlowReport report =
      flow::run_flow("gen:adder,bits=8; mch; map_asic; cec; sim", ctx);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.stages[3].note, "equivalent (cell netlist)");
  EXPECT_NE(report.stages[4].note.find("(cell netlist)"), std::string::npos)
      << report.stages[4].note;

  // Swap the cell driving PO 0 for its complement with the same pin count
  // (NAND2 for AND2, ...): the choice network is untouched, the cells are
  // wrong, and both checks must say so.
  ASSERT_TRUE(ctx.cells.has_value());
  CellNetlist& cells = *ctx.cells;
  ASSERT_FALSE(cells.po_const[0]);
  CellNetlist::Instance& driver =
      cells.instances.at(cells.po_refs[0] - cells.num_pis);
  const int old_cell = driver.cell;
  const Cell& old = cells.library->cell(old_cell);
  for (std::size_t c = 0; c < cells.library->cells().size(); ++c) {
    const Cell& cand = cells.library->cell(static_cast<int>(c));
    if (cand.num_pins == old.num_pins && cand.function == ~old.function) {
      driver.cell = static_cast<int>(c);
    }
  }
  ASSERT_NE(driver.cell, old_cell) << "no complement of " << old.name;
  for (const char* check : {"cec", "sim"}) {
    const FlowReport bad = flow::run_flow(check, ctx);
    EXPECT_FALSE(bad.ok) << check;
    EXPECT_NE(bad.error.find("NOT equivalent"), std::string::npos)
        << bad.error;
  }
}

TEST(FlowRun, CecChecksCellsOfConstantOutputs) {
  // A constant PO has no driving instance; the rebuilt netlist must still
  // produce the constant.
  Network net;
  const Signal a = net.create_pi("a");
  const Signal b = net.create_pi("b");
  net.create_po(net.constant(true), "one");
  net.create_po(net.constant(false), "zero");
  net.create_po(net.create_xor(a, b), "x");
  FlowContext ctx;
  ctx.net = net;
  ctx.original = net;
  const FlowReport report = flow::run_flow("map_asic; cec; sim", ctx);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.stages[1].note, "equivalent (cell netlist)");
}

TEST(FlowRun, FailedStageStopsTheFlow) {
  FlowContext ctx;
  // `cec` without a loaded reference fails; `balance` must not run.
  const FlowReport report = flow::run_flow("cec; balance", ctx);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.stages.size(), 1u);
  EXPECT_FALSE(report.stages[0].ok);
  EXPECT_NE(report.error.find("no reference"), std::string::npos)
      << report.error;
}

TEST(FlowRun, SettingsPassesSteerTheParallelDrivers) {
  FlowContext ctx;
  const FlowReport report = flow::run_flow(
      "threads:n=2; partsize:gates=100; gen:adder,bits=32; "
      "par:pass=compress2rs,rounds=1; cec",
      ctx);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(ctx.par.num_threads, 2);
  EXPECT_EQ(ctx.par.partition.max_gates, 100u);
}

TEST(FlowRun, ParMetaPassMatchesSerialWrapperAndIsDeterministic) {
  // The generic partition-parallel driver over a *registered* pass must be
  // bit-identical for 1 vs N threads, and equivalent to the input.
  FlowContext one;
  one.par.num_threads = 1;
  one.par.partition.max_gates = 120;
  FlowContext four;
  four.par.num_threads = 4;
  four.par.partition.max_gates = 120;

  const std::string spec =
      "gen:multiplier,bits=8; to:aig; par:pass=rewrite,k=4; cec";
  ASSERT_TRUE(flow::run_flow(spec, one).ok);
  ASSERT_TRUE(flow::run_flow(spec, four).ok);
  EXPECT_TRUE(structurally_identical(one.net, four.net))
      << "par:pass=rewrite must be bit-identical for any thread count";
}

// --- generic par_run over registered passes ---------------------------------

/// Wraps a registered flow pass as a ShardPassFn for mcs::par::par_run.
ShardPassFn shard_fn(const PassInfo& pass, const PassArgs& args) {
  return [&pass, args](const Network& shard) {
    flow::FlowContext sub;
    sub.net = shard;
    pass.run(sub, args);
    return std::move(sub.net);
  };
}

TEST(FlowParRun, ArbitraryRegisteredPassIsDeterministicAcrossThreads) {
  const Network net = circuits::multiplier(8);
  for (const char* name : {"rewrite", "compress2rs", "balance"}) {
    const PassInfo* pass = PassRegistry::instance().find(name);
    ASSERT_NE(pass, nullptr) << name;
    ASSERT_TRUE(pass->parallel_ok) << name;
    const PassArgs args = PassArgs::bind(*pass, {});

    ParParams one;
    one.num_threads = 1;
    one.partition.max_gates = 150;
    ParParams four = one;
    four.num_threads = 4;

    const Network r1 = par_run(net, shard_fn(*pass, args), one);
    const Network r4 = par_run(net, shard_fn(*pass, args), four);
    EXPECT_TRUE(structurally_identical(r1, r4))
        << "par_run(" << name << ") must not depend on the thread count";
    EXPECT_EQ(check_equivalence(net, r1), CecResult::kEquivalent) << name;
  }
}

// --- cooperative cancellation -----------------------------------------------

TEST(FlowCancel, TokenSemantics) {
  flow::CancelToken token;
  EXPECT_EQ(token.stop_reason(), nullptr);
  token.set_deadline_after(std::chrono::hours(1));
  EXPECT_EQ(token.stop_reason(), nullptr);
  token.set_deadline_after(std::chrono::nanoseconds(-1));  // disarm
  EXPECT_FALSE(token.deadline_passed());
  token.set_deadline_after(std::chrono::nanoseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(token.deadline_passed());
  EXPECT_STREQ(token.stop_reason(), "timeout");
  token.request_cancel();  // an explicit cancel wins over the deadline
  EXPECT_STREQ(token.stop_reason(), "cancelled");
}

TEST(FlowCancel, PreTrippedTokenStopsBeforeFirstStage) {
  FlowContext ctx;
  ctx.cancel = std::make_shared<flow::CancelToken>();
  ctx.cancel->request_cancel();
  const FlowReport report = flow::run_flow("gen:adder,bits=8; rewrite", ctx);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.stages.size(), 1u);
  EXPECT_FALSE(report.stages[0].ok);
  EXPECT_EQ(report.stages[0].pass, "gen");  // the stage that never ran
  EXPECT_EQ(report.stages[0].args, "name=adder,bits=8");
  EXPECT_EQ(report.stages[0].note, "cancelled");
  EXPECT_EQ(report.error, "gen: cancelled");
}

TEST(FlowCancel, ExpiredDeadlineStopsWithTimeout) {
  FlowContext ctx;
  ctx.cancel = std::make_shared<flow::CancelToken>();
  ctx.cancel->set_deadline_after(std::chrono::nanoseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const FlowReport report = flow::run_flow("gen:adder,bits=8", ctx);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.stages.size(), 1u);
  EXPECT_EQ(report.stages[0].note, "timeout");
}

TEST(FlowCancel, OnStageHookSeesEveryStageIncludingSynthetic) {
  FlowContext ctx;
  ctx.cancel = std::make_shared<flow::CancelToken>();
  std::vector<std::pair<std::string, std::size_t>> seen;
  ctx.on_stage = [&](const flow::StageReport& r, std::size_t index) {
    seen.emplace_back(r.pass, index);
    if (seen.size() == 2) ctx.cancel->request_cancel();
  };
  const FlowReport report = flow::run_flow(
      "gen:adder,bits=8; map_lut:k=4; rewrite:basis=aig; balance", ctx);
  EXPECT_FALSE(report.ok);
  // gen and map_lut ran; rewrite became the synthetic cancelled stage (the
  // hook sees it like any other); balance never appeared.
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::string, std::size_t>{"gen", 0}));
  EXPECT_EQ(seen[1], (std::pair<std::string, std::size_t>{"map_lut", 1}));
  EXPECT_EQ(seen[2], (std::pair<std::string, std::size_t>{"rewrite", 2}));
  ASSERT_EQ(report.stages.size(), 3u);
  const flow::StageReport& stopped = report.stages.back();
  EXPECT_EQ(stopped.note, "cancelled");
  // A stopped report carries its stage's args and the mapping in place,
  // like a report of a stage that ran.
  EXPECT_EQ(stopped.args, "basis=aig");
  EXPECT_GT(stopped.luts, 0u);
  EXPECT_EQ(stopped.luts, report.stages[1].luts);
  EXPECT_EQ(stopped.lut_depth, report.stages[1].lut_depth);
}

// --- stage JSON --------------------------------------------------------------

TEST(FlowReportJson, StageJsonParsesWithTheServerParser) {
  // The server streams StageReport::to_json verbatim; the in-repo JSON
  // parser must accept every emitted stage object (escaping, doubles, the
  // nested metrics/spans structure).
  FlowContext ctx;
  const FlowReport report = flow::run_flow("gen:adder,bits=8; map_lut:k=4", ctx);
  ASSERT_TRUE(report.ok);
  for (const flow::StageReport& stage : report.stages) {
    const server::Json parsed = server::Json::parse(stage.to_json());
    ASSERT_TRUE(parsed.is_object());
    EXPECT_EQ(parsed.find("pass")->as_string(), stage.pass);
    EXPECT_EQ(parsed.find("ok")->as_bool(), stage.ok);
    EXPECT_EQ(parsed.find("gates")->as_int(),
              static_cast<std::int64_t>(stage.gates));
    EXPECT_NE(parsed.find("metrics"), nullptr);
    EXPECT_NE(parsed.find("spans"), nullptr);
  }
  const server::Json whole = server::Json::parse(report.to_json());
  EXPECT_TRUE(whole.find("ok")->as_bool());
  EXPECT_EQ(whole.find("stages")->items().size(), report.stages.size());
}

TEST(FlowReportJson, ControlCharactersAreEscaped) {
  // A control byte in a stage's args reaches its note through the error
  // message; both reports must still be one valid JSON value each.
  FlowContext ctx;
  const FlowReport report =
      flow::run_flow("read_aiger:file=bad\x01name.aig", ctx);
  ASSERT_FALSE(report.ok);
  ASSERT_EQ(report.stages.size(), 1u);
  const flow::StageReport& stage = report.stages[0];
  ASSERT_NE(stage.note.find('\x01'), std::string::npos) << stage.note;

  const server::Json parsed = server::Json::parse(stage.to_json());
  EXPECT_EQ(parsed.find("args")->as_string(), stage.args);
  EXPECT_EQ(parsed.find("note")->as_string(), stage.note);
  const server::Json whole = server::Json::parse(report.to_json());
  EXPECT_EQ(whole.find("error")->as_string(), report.error);
  EXPECT_EQ(whole.find("stages")->items()[0].find("note")->as_string(),
            stage.note);
}

// --- README pass table ------------------------------------------------------

#ifdef MCS_SOURCE_DIR
TEST(FlowDocs, ReadmePassTableMatchesRegistry) {
  std::ifstream in(std::string(MCS_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(in.good()) << "README.md not found next to the sources";

  // Parse only the "### Registered passes" section; its rows look like:
  // | `name` | params | description |
  std::map<std::string, std::string> documented;  // name -> params cell
  std::string line;
  bool in_section = false;
  while (std::getline(in, line)) {
    if (line.rfind("#", 0) == 0) {
      in_section = line.find("Registered passes") != std::string::npos;
      continue;
    }
    if (!in_section) continue;
    if (line.rfind("| `", 0) != 0) continue;
    const std::size_t name_end = line.find('`', 3);
    if (name_end == std::string::npos) continue;
    const std::string name = line.substr(3, name_end - 3);
    std::size_t cell_start = line.find('|', name_end);
    if (cell_start == std::string::npos) continue;
    ++cell_start;
    const std::size_t cell_end = line.find('|', cell_start);
    if (cell_end == std::string::npos) continue;
    std::string cell = line.substr(cell_start, cell_end - cell_start);
    while (!cell.empty() && cell.front() == ' ') cell.erase(cell.begin());
    while (!cell.empty() && cell.back() == ' ') cell.pop_back();
    documented[name] = cell;
  }

  std::string expected_table;
  for (const PassInfo* pass : PassRegistry::instance().all()) {
    expected_table += "| `" + pass->name + "` | " + flow::params_summary(*pass) +
                      " | " + pass->summary + " |\n";
  }

  for (const PassInfo* pass : PassRegistry::instance().all()) {
    ASSERT_TRUE(documented.count(pass->name))
        << "README pass table is missing `" << pass->name
        << "`; the table must be:\n"
        << expected_table;
    EXPECT_EQ(documented[pass->name], flow::params_summary(*pass))
        << "README params column for `" << pass->name
        << "` is stale; the table must be:\n"
        << expected_table;
  }
  for (const auto& [name, cell] : documented) {
    EXPECT_NE(PassRegistry::instance().find(name), nullptr)
        << "README documents `" << name << "`, which is not registered";
  }
}
#endif

}  // namespace
}  // namespace mcs
