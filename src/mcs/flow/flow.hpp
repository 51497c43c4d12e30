/// \file flow.hpp
/// \brief Unified pass/pipeline API: composable passes, a pass registry and
/// a flow-spec mini-language.
///
/// The paper's experimental setup is a *flow* -- optimize, build choices,
/// map, verify -- but each step used to be a free function with its own
/// `*Params` struct, hand-wired separately in the shell, the parallel
/// drivers and every bench.  This layer gives all of them one abstraction:
///
///   - FlowContext: the state a flow threads through its stages (working
///     network, reference snapshot, mapped artifacts, tech library, thread
///     pool settings, RNG seed, its own metric domain, the count of stage
///     reports recorded so far).
///   - PassInfo + PassRegistry: every pass self-describes (name, summary,
///     typed param schema) and registers once; shells, flows and benches
///     all dispatch through registry lookups.  `help` text and the README
///     pass table are generated/checked from the same schemas.
///   - Flow: a pipeline parsed from a spec string, e.g.
///         "gen:multiplier,bits=64; compress2rs; mch:basis=xmg,ratio=0.9;
///          map_lut:k=6; cec"
///     Stages are `name[:arg,...]`; args are `key=value` or positional (in
///     schema order).  The whole spec is validated *before* execution.
///   - run_stage: the one stage runner.  The shell, Flow::run and the job
///     server all execute stages through it, so every stage gets the same
///     timing, metrics window, rollback policy and report streaming.
///   - FlowReport: structured per-stage results (gates/depth/LUTs/time),
///     JSON-serializable for scripted runs (see bench_util's emitter).
///
/// Adding a new pass costs one registration: fill a PassInfo (schema +
/// run lambda over FlowContext) in the subsystem's `*_passes.cpp` and it is
/// immediately available as a shell command, a flow stage, and -- for
/// network transforms and choice builders -- a target of the
/// partition-parallel driver (`par:pass=<name>`; see mcs/par/par_engine.hpp).

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mcs/map/asic_mapper.hpp"
#include "mcs/map/lut_mapper.hpp"
#include "mcs/map/techlib.hpp"
#include "mcs/network/network.hpp"
#include "mcs/obs/obs.hpp"
#include "mcs/par/par_engine.hpp"
#include "mcs/resyn/basis.hpp"

namespace mcs::flow {

/// Raised on malformed flow specs, unknown passes/params, junk argument
/// values and pass failures (e.g. a failing `cec` stage).
class FlowError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// --- validated scalar parsing ----------------------------------------------

/// Strict parsers: the whole trimmed token must be consumed, otherwise
/// std::nullopt (no atoi-style silent truncation of junk to 0).
/// parse_double also rejects non-finite values (nan, inf), which would
/// slip through every range check a pass makes.
std::optional<long long> parse_int(std::string_view text);
std::optional<double> parse_double(std::string_view text);
std::optional<bool> parse_bool(std::string_view text);
std::optional<GateBasis> parse_basis(std::string_view text);

// --- pass schemas -----------------------------------------------------------

enum class ParamType { kInt, kUint64, kDouble, kBool, kString, kBasis };

/// One parameter of a pass.  A parameter may be bound by key (`bits=64`) or
/// positionally (bare tokens bind to the schema's params in order).
struct ParamSpec {
  std::string key;
  ParamType type = ParamType::kString;
  std::string default_value;  ///< textual; empty and !required = truly optional
  bool required = false;
  std::string help;
};

enum class PassKind {
  kSource,     ///< loads/generates the working network (resets the reference)
  kTransform,  ///< Network -> Network
  kChoice,     ///< Network -> choice Network (classes must survive reassembly)
  kMapping,    ///< Network -> LutNetwork / CellNetlist
  kAnalysis,   ///< reads state (ps, cec)
  kOutput,     ///< writes files
  kSetting,    ///< mutates flow settings (threads, partsize, seed)
};

struct FlowContext;
struct PassInfo;

/// Parsed, type-validated arguments of one pass invocation.  Construction
/// (bind) rejects unknown keys, duplicate keys, surplus positionals, junk
/// values and missing required params with a descriptive FlowError.
class PassArgs {
 public:
  PassArgs() = default;

  /// Binds raw tokens (`key=value` or positional) against \p info's schema.
  static PassArgs bind(const PassInfo& info,
                       const std::vector<std::string>& tokens);

  bool has(const std::string& key) const;

  /// Typed getters; fall back to the schema default when the key was not
  /// bound.  Calling a getter for an unbound key without a default is a
  /// programming error and throws.
  long long get_int(const std::string& key) const;
  std::uint64_t get_uint64(const std::string& key) const;
  double get_double(const std::string& key) const;
  bool get_bool(const std::string& key) const;
  std::string get_string(const std::string& key) const;
  GateBasis get_basis(const std::string& key) const;

  /// Unmatched key=value pairs (only passes with allow_extra_args collect
  /// these; the `par` meta-pass forwards them to its inner pass).
  const std::vector<std::pair<std::string, std::string>>& extras() const {
    return extras_;
  }

  /// Canonical textual form, e.g. "basis=xmg,ratio=0.9" (bound args only).
  std::string canonical() const;

 private:
  std::string raw(const std::string& key) const;  ///< bound value or default

  const PassInfo* info_ = nullptr;
  std::vector<std::pair<std::string, std::string>> values_;
  std::vector<std::pair<std::string, std::string>> extras_;
};

/// A registered pass: self-describing metadata plus the run hook.
struct PassInfo {
  std::string name;
  std::string summary;
  PassKind kind = PassKind::kTransform;
  std::vector<ParamSpec> params;

  /// Collect unknown key=value args instead of rejecting them (used by the
  /// `par` meta-pass to forward params to its inner pass).
  bool allow_extra_args = false;

  /// Safe to run per shard under the partition-parallel driver
  /// (`par:pass=<name>`), whose shards are reassembled.  Only network
  /// transforms and choice builders qualify (registration rejects other
  /// kinds), so a `par` stage acts as a transform.
  bool parallel_ok = false;

  /// Executes the pass.  Failures are reported by throwing FlowError.
  std::function<void(FlowContext&, const PassArgs&)> run;

  /// Optional extra parse-time validation (after bind), e.g. the `par`
  /// meta-pass validating its forwarded inner-pass args.
  std::function<void(const PassArgs&)> validate;
};

/// "k=6, zero=false" rendering of a schema (defaults shown; required /
/// default-less params as a bare key).  Shared by `help` and the README
/// pass table (checked in tests/test_flow.cpp).
std::string params_summary(const PassInfo& info);

/// The global pass registry.  Built-in passes (opt, choice, map, par, io,
/// gen, analysis, settings) register on first access; libraries embedding
/// mcs may add their own passes at startup.
class PassRegistry {
 public:
  static PassRegistry& instance();

  /// Registers \p info.  Throws std::logic_error on duplicate names,
  /// duplicate param keys or schema defaults that fail their own type.
  void add(PassInfo info);

  /// Looks up a pass by name; nullptr when unknown.
  const PassInfo* find(std::string_view name) const;

  /// All passes in registration order.
  std::vector<const PassInfo*> all() const;

  /// Generated command reference, grouped by PassKind (the shell's `help`).
  std::string help() const;

 private:
  PassRegistry();

  std::vector<std::unique_ptr<PassInfo>> passes_;
  std::unordered_map<std::string, const PassInfo*> by_name_;
};

// --- cooperative cancellation -----------------------------------------------

/// Cooperative stop control for a running flow: a cancellation flag plus an
/// optional wall-clock deadline.  Flow::run()/run_flow() (and the job
/// server's per-stage scheduler) consult the token at *stage boundaries*
/// only -- a running pass is never interrupted, so passes stay oblivious
/// and intermediate state is never torn.  A tripped token stops the flow
/// with a failed synthetic stage whose note is the stop reason
/// ("cancelled" or "timeout").
///
/// The token is shared (shared_ptr in FlowContext) between the flow runner
/// and any number of controlling threads; every member is thread-safe.
class CancelToken {
 public:
  void request_cancel() noexcept {
    cancelled_.store(true, std::memory_order_relaxed);
  }
  bool cancel_requested() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Arms the wall-clock deadline \p timeout from now; non-positive
  /// durations disarm it.
  void set_deadline_after(std::chrono::nanoseconds timeout) noexcept {
    if (timeout.count() <= 0) {
      armed_.store(false, std::memory_order_relaxed);
      return;
    }
    deadline_ns_.store(
        (std::chrono::steady_clock::now().time_since_epoch() + timeout)
            .count(),
        std::memory_order_relaxed);
    armed_.store(true, std::memory_order_relaxed);
  }

  bool deadline_passed() const noexcept {
    return armed_.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now().time_since_epoch().count() >=
               deadline_ns_.load(std::memory_order_relaxed);
  }

  /// nullptr while runnable, else the stop reason.  An explicit cancel
  /// wins over a passed deadline (the controller's intent is clearer).
  const char* stop_reason() const noexcept {
    if (cancel_requested()) return "cancelled";
    if (deadline_passed()) return "timeout";
    return nullptr;
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> armed_{false};
  std::atomic<std::int64_t> deadline_ns_{0};  ///< steady_clock since-epoch
};

// --- transactional stage execution ------------------------------------------

/// Policy of the checkpoint/rollback layer (mcs::ckpt) woven into stage
/// execution.  All-off by default: the disabled path costs one branch per
/// stage (<2% on the mult64 reference flow -- see scripts/bench guard in
/// tests).  Armed via the `ckpt` settings pass
/// (`ckpt:mode=retry,retries=2,validate=on,sim_words=8`) or directly on
/// FlowContext::txn.
struct TxnPolicy {
  /// What to do after a stage throws, trips an injected fault or fails
  /// validation, once the network is rolled back to the pre-stage
  /// snapshot.
  enum class OnFailure {
    kFail,   ///< report the failed stage; the flow stops (default)
    kRetry,  ///< re-run the stage, up to max_retries times, then fail
    kSkip,   ///< skip the stage: synthetic ok report, the flow continues
  };

  /// Snapshot the working network before every mutating stage (source /
  /// transform / choice kinds) so it can be rolled back.  The on_failure
  /// policies require it, and also apply to mapping stages, which leave
  /// the network alone and need no snapshot.  validate/sim_words also work
  /// standalone (a violation then simply fails the stage, with nothing to
  /// roll back to).
  bool snapshot = false;

  /// Run Network::check() after every stage; a violation fails the stage
  /// (and rolls back like a throw when snapshotting is on).
  bool validate = false;

  /// > 0: sim-signature equivalence spot check over transform/choice
  /// stages -- PO signatures from this many 64-bit random-simulation
  /// words must be unchanged by the stage (necessary condition of
  /// functional equivalence; a mismatch is a proven bug).
  int sim_words = 0;
  std::uint64_t sim_seed = 0x5eedc0deULL;  ///< PI stimulus seed

  OnFailure on_failure = OnFailure::kFail;
  int max_retries = 1;  ///< retry budget per stage under kRetry
};

// --- flow state and reports -------------------------------------------------

/// Timing and result snapshot of one executed stage.
struct StageReport {
  std::string pass;
  std::string args;  ///< canonical args, "" when none
  bool ok = true;
  std::string note;  ///< pass message, or the error text when !ok
  double seconds = 0.0;

  // Working-network snapshot after the stage.
  std::size_t gates = 0;
  std::uint32_t depth = 0;
  std::size_t choices = 0;

  // Mapped artifacts, when present.
  std::size_t luts = 0;
  std::uint32_t lut_depth = 0;
  std::size_t cells = 0;
  double area = 0.0;
  double delay = 0.0;

  // Observability: the counters of the flow's metric domain that moved
  // while this stage ran (deltas: this stage's own work, whatever else the
  // process does meanwhile) plus the domain's gauges at stage end, and --
  // with tracing on -- the spans that started during the stage, aggregated
  // by name.  Both empty when the library is built with MCS_OBS_DISABLE.
  obs::MetricsSnapshot metrics;
  std::vector<obs::SpanStats> spans;

  /// One self-contained JSON object for this stage -- the unit the job
  /// server streams to clients as stages complete (FlowReport::to_json
  /// emits the same objects inside its "stages" array).
  std::string to_json() const;
};

/// Structured result of a whole flow; stages in execution order (a failed
/// stage is recorded and stops the flow).
struct FlowReport {
  bool ok = true;
  std::string error;  ///< first failure message, "" when ok
  double total_seconds = 0.0;
  std::vector<StageReport> stages;

  /// One self-contained JSON object (no external dependencies).
  std::string to_json() const;
};

/// The state a flow threads through its passes.
struct FlowContext {
  Network net;                      ///< working network
  std::optional<Network> original;  ///< reference snapshot for `cec`
  std::optional<LutNetwork> luts;   ///< last LUT mapping
  std::optional<CellNetlist> cells;  ///< last standard-cell mapping
  TechLibrary lib = TechLibrary::asap7_mini();
  ParParams par;           ///< threads + partitioning for the parallel passes
  std::uint64_t seed = 0;  ///< flow RNG seed; 0 = per-pass defaults
  bool verbose = false;    ///< passes print per-stage summaries (the shell)
  std::string note;        ///< set by the running pass, harvested per stage

  /// Stage reports recorded on this context so far -- failed attempts,
  /// skipped and stopped stages included.  It is the index on_stage hands
  /// the next report, and the job server's done line reports it.
  std::size_t report_count = 0;

  /// Cooperative stop control: when set, Flow::run()/run_flow() (and the
  /// job server) check the token at every stage boundary and stop with a
  /// failed "cancelled"/"timeout" stage instead of running the next pass.
  /// Mid-stage work is never interrupted.
  std::shared_ptr<CancelToken> cancel;

  /// Streaming hook: invoked once for every recorded report (failed
  /// attempts and the synthetic skipped or cancelled/timeout stage
  /// included) with the report and its index, before the next stage
  /// starts.  The job server streams per-stage JSON to its clients from
  /// here.  Must not throw.
  std::function<void(const StageReport&, std::size_t)> on_stage;

  /// Checkpoint/rollback policy (see TxnPolicy); disabled by default.
  TxnPolicy txn;

  /// This flow's metric-attribution domain, created with the context and
  /// never null.  run_stage installs it (obs::Scope) around every stage --
  /// the pool propagates it to all tasks -- and reads the stage's metrics
  /// window from it, so StageReport::metrics is the stage's exact delta
  /// even while other flows share the process and its pool.  Copies of a
  /// context share it.  Must outlive every pool task of the flow (holding
  /// it on the context guarantees that).
  std::shared_ptr<obs::Domain> domain = std::make_shared<obs::Domain>();
};

/// Executes one bound pass on \p ctx -- the only stage runner; the shell,
/// Flow::run and the job server's scheduler all call it.  Times the pass
/// under ctx.domain, captures errors (returned as !ok, never thrown),
/// snapshots stats, counts the report in ctx.report_count, invokes
/// ctx.on_stage and prints a summary when ctx.verbose.
///
/// With ctx.txn.snapshot on, a mutating pass (source/transform/choice
/// kind) runs on a binary snapshot of the network: when the stage fails --
/// a throw, an injected fault or a ctx.txn validation failure -- the
/// pre-stage network is restored and ctx.txn.on_failure applies (budgeted
/// retry / skip with a synthetic ok report / fail).  Mapping stages retry
/// and skip the same way without a snapshot.  Every failed attempt is
/// recorded and streamed like a normal stage; the returned report is the
/// last one.
StageReport run_stage(FlowContext& ctx, const PassInfo& pass,
                      const PassArgs& args);

/// A validated pipeline of bound passes.
class Flow {
 public:
  struct Stage {
    const PassInfo* pass = nullptr;
    PassArgs args;
  };

  /// Parses and validates \p spec (see file comment for the grammar).
  /// Throws FlowError on any malformed stage; nothing is executed.
  static Flow parse(const std::string& spec);

  const std::vector<Stage>& stages() const { return stages_; }

  /// Canonical spec string ("gen:name=adder,bits=16; compress2rs; ...").
  std::string canonical() const;

  /// Runs the stages in order on \p ctx; stops at the first failure.
  FlowReport run(FlowContext& ctx) const;

 private:
  std::vector<Stage> stages_;
};

/// The stage-boundary interruption check shared by Flow::run and the job
/// server's per-stage scheduler: when ctx.cancel reports a stop reason,
/// records a failed StageReport for the not-run \p next stage (its pass
/// and canonical args, note = the reason, the current network and mapped
/// artifacts snapshotted) like any other report, and returns it.
/// std::nullopt while runnable (or when no token is set).
std::optional<StageReport> check_interrupted(FlowContext& ctx,
                                             const Flow::Stage& next);

/// Parses and runs \p spec on \p ctx (the shared entry point of the shell's
/// `flow` command, the benches and the tests).  Parse errors throw
/// FlowError; stage failures are reported in the returned FlowReport.
FlowReport run_flow(const std::string& spec, FlowContext& ctx);

/// Same, on a fresh default FlowContext.
FlowReport run_flow(const std::string& spec);

}  // namespace mcs::flow
