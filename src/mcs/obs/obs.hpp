/// \file obs.hpp
/// \brief mcs::obs -- always-on metrics, tracing and profiling substrate.
///
/// Every layer of the parallel synthesis stack (thread pool, strash, cut
/// arena, sweep, CEC, simulation, flow stages) reports into this subsystem;
/// the flow layer snapshots it per stage, the shell exposes it as the
/// `stats` / `trace` commands, and `MCS_TRACE=<file>` captures a whole
/// headless run.  Three pillars:
///
///   - **Metrics**: a process-wide registry of named counters, gauges and
///     histograms.  Counter/histogram increments land in *per-thread* cells
///     (plain load/store on memory the owning thread writes exclusively --
///     no locked RMW, no false sharing, ~1ns per add) and are aggregated
///     only when somebody reads: observation is cheap enough to stay
///     compiled into release builds.  Cells of finished threads are folded
///     into a retired accumulator, so totals survive pool reconstruction.
///   - **Attribution**: a metric *domain* (`obs::Domain`) is a second,
///     job-scoped accumulator.  While a thread holds an `obs::Scope` every
///     counter/histogram increment is recorded twice -- in the process-wide
///     registry as before, and in the active domain.  The thread pool
///     inherits the submitting thread's domain into its batches, so a flow
///     running on N workers still attributes all of its work to its own
///     domain even when jobs share the pool.  Domain increments accumulate
///     in a thread-local scratch block and are folded into the domain's
///     shared cells only at scope transitions (batch boundaries), preserving
///     the write-exclusive hot path.  A scope also meters thread CPU time
///     (CLOCK_THREAD_CPUTIME_ID) into its domain, switching attribution on
///     every scope transition so a worker that serves batches of several
///     jobs charges each its own share.
///   - **Tracing**: RAII scoped spans (`obs::Span`) with nesting depth and
///     thread attribution, buffered per thread and exportable as Chrome
///     `chrome://tracing` / Perfetto `trace_events` JSON, so one `run_flow`
///     renders as a flame chart of passes -> shards -> pool batches.
///     Tracing is off by default; a disabled span costs one relaxed load.
///
/// On top of the registry sits the *telemetry ring*: an optional sampler
/// thread (`sampler_start`) snapshots every metric each N ms into a
/// fixed-size ring with histogram percentiles, exported as JSON
/// (`ring_json`) and Prometheus text exposition format (`prometheus_text`)
/// -- the server's `stats` verb and `mcs_top` read from here.
///
/// Determinism contract: nothing in this subsystem feeds back into any
/// algorithm -- metrics and spans only *observe*.  The 1-vs-N bit-identity
/// suites run with tracing enabled to enforce that.
///
/// Compile-time escape hatch: building with -DMCS_OBS_DISABLE (CMake option
/// of the same name) turns the whole API into no-op inline stubs, so the
/// zero-cost path is provable by construction and checked in CI.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mcs::obs {

/// One aggregated metric reading (see snapshot()).
struct MetricValue {
  std::string name;
  std::int64_t value = 0;
};

/// A whole-registry reading: counters are monotonic sums over all threads
/// (live and retired); gauges are last-written values.
struct MetricsSnapshot {
  std::vector<MetricValue> counters;
  std::vector<MetricValue> gauges;
};

/// Aggregated view of the spans recorded since some point in time.
struct SpanStats {
  std::string name;
  std::size_t count = 0;
  double seconds = 0.0;  ///< summed wall-clock duration
};

/// One histogram's aggregated buckets (see histogram_snapshots()).
struct HistogramSnapshot {
  std::string name;
  std::vector<std::uint64_t> buckets;  ///< kHistBuckets log2 buckets
  std::uint64_t count = 0;             ///< total samples
  std::uint64_t sum = 0;               ///< sum of observed values
};

/// Per-domain high-water marks recorded by subsystems that track peak
/// memory (strash tables, cut arenas).
enum class DomainPeak : int { kStrashBytes = 0, kArenaBytes = 1 };
inline constexpr int kDomainPeaks = 2;

/// Counters that differ between \p now and \p before (name -> delta), plus
/// \p now's gauges verbatim.  Pure data transform; works on global and
/// domain snapshots alike.
inline MetricsSnapshot snapshot_diff(const MetricsSnapshot& now,
                                     const MetricsSnapshot& before) {
  MetricsSnapshot delta;
  delta.gauges = now.gauges;
  for (const MetricValue& mv : now.counters) {
    std::int64_t base = 0;
    for (const MetricValue& prev : before.counters) {
      if (prev.name == mv.name) {
        base = prev.value;
        break;
      }
    }
    if (mv.value != base) delta.counters.push_back({mv.name, mv.value - base});
  }
  return delta;
}

/// Interpolated percentile (p in [0,1]) over log2 buckets as laid out by
/// Histogram: bucket 0 holds exact zeros, bucket b >= 1 covers
/// [2^(b-1), 2^b - 1].  Linear interpolation inside the chosen bucket;
/// 0 when the histogram is empty.
inline double percentile_from_buckets(const std::vector<std::uint64_t>& buckets,
                                      double p) {
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const double target = p * static_cast<double>(total);
  std::uint64_t acc = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const double before = static_cast<double>(acc);
    acc += buckets[b];
    if (static_cast<double>(acc) >= target) {
      if (b == 0) return 0.0;
      const double lower =
          static_cast<double>(std::uint64_t{1} << (b - 1));
      const double upper = 2.0 * lower - 1.0;
      const double frac =
          (target - before) / static_cast<double>(buckets[b]);
      return lower + frac * (upper - lower);
    }
  }
  return 0.0;  // unreachable: total > 0 guarantees the loop returns
}

#ifndef MCS_OBS_DISABLE

class Domain;

namespace detail {

/// Slots per thread block.  Counters take one slot, histograms take
/// kHistBuckets + 1 consecutive slots (buckets + running sum); allocation
/// beyond the block falls back to a shared atomic (correct, merely
/// contended).
inline constexpr std::size_t kMaxSlots = 1024;
inline constexpr int kHistBuckets = 24;  ///< log2 buckets, last = overflow

/// Per-thread attribution state: the active domain and a plain (non-atomic,
/// write-exclusive) scratch block of pending deltas for it.  The scratch is
/// folded into the domain's shared cells only when the scope changes, so
/// hot-path increments never touch shared memory.
struct DomainState {
  Domain* current = nullptr;
  std::uint64_t last_cpu_ns = 0;
  std::uint64_t scratch[kMaxSlots] = {};
};

/// Per-thread metric cells.  Only the owning thread writes a cell, so the
/// increment is a relaxed load+store pair (no locked RMW); aggregators read
/// the atomics relaxed.  Registered in a global list on first use, retired
/// (values folded into a global accumulator) on thread exit.  The domain
/// attribution state lives in the same thread_local so one TLS resolution
/// (and one init-guard check) serves both halves of an increment.
struct ThreadCells {
  std::atomic<std::uint64_t> cells[kMaxSlots];
  DomainState domain;
  ThreadCells();
  ~ThreadCells();
};

/// Inline so the two hottest instructions of Counter::add (TLS address +
/// relaxed store) inline into callers; the thread_local's guard check is
/// the only per-access cost after the first touch.
inline ThreadCells& thread_cells() {
  thread_local ThreadCells cells;
  return cells;
}

inline DomainState& domain_state() { return thread_cells().domain; }

/// CLOCK_THREAD_CPUTIME_ID in nanoseconds (this thread's CPU time).
std::uint64_t thread_cpu_ns() noexcept;

void record_span(const char* name_literal, const std::string& name_owned,
                 std::uint64_t start_us, std::uint64_t dur_us,
                 std::uint64_t epoch);

extern std::atomic<bool> g_tracing;

/// Bumped by trace_clear(); a span records only if the epoch it started in
/// is still current, so in-flight spans cannot repopulate a cleared trace.
extern std::atomic<std::uint64_t> g_trace_epoch;

}  // namespace detail

/// Microseconds since process start (steady clock); the timestamp base of
/// every trace event.
std::uint64_t now_us() noexcept;

// --- attribution ------------------------------------------------------------

/// A job-scoped metric accumulator.  Install with an obs::Scope; every
/// counter/histogram increment made while the scope is active lands here as
/// well as in the process-wide registry.  Shared cells are only written at
/// scope transitions (a relaxed fetch_add per touched slot), so domains add
/// no contention to hot paths even when many pool workers share one.
///
/// Lifetime: a domain must outlive every ThreadPool::submit_bulk call made
/// while it is installed; the call returns only after every worker that
/// joined the batch has flushed into the domain, so the domain may be freed
/// right after (the flow layer keeps it on the FlowContext, which outlives
/// the flow run).
class Domain {
 public:
  Domain() {
    for (auto& c : cells_) c.store(0, std::memory_order_relaxed);
  }
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  /// Folds a scratch delta into the shared cell.  Slots past the per-thread
  /// block are process-global only -- the domain simply misses them (the
  /// registry stays correct; attribution degrades, never corrupts).
  void add_slot(std::uint32_t slot, std::uint64_t delta) noexcept {
    if (slot < detail::kMaxSlots)
      cells_[slot].fetch_add(delta, std::memory_order_relaxed);
  }

  void add_cpu_ns(std::uint64_t ns) noexcept {
    cpu_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  /// Attributed CPU time over every thread that ran under this domain.
  std::uint64_t cpu_us() const noexcept {
    return cpu_ns_.load(std::memory_order_relaxed) / 1000;
  }

  void peak_max(DomainPeak k, std::int64_t v) noexcept {
    std::atomic<std::int64_t>& p = peaks_[static_cast<int>(k)];
    std::int64_t cur = p.load(std::memory_order_relaxed);
    while (v > cur &&
           !p.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t peak(DomainPeak k) const noexcept {
    return peaks_[static_cast<int>(k)].load(std::memory_order_relaxed);
  }

  /// Aggregated reading of this domain, in snapshot() shape: counters (and
  /// histogram `.count` / `.p50_bucket` derivations) hold the domain's own
  /// totals; gauges carry the domain peaks (`obs.domain.*`).  Process
  /// gauges are deliberately absent -- they are instantaneous global values
  /// that cannot be attributed.  Flushes the calling thread's pending
  /// scratch first, so a scope-holding thread sees its own increments.
  MetricsSnapshot snapshot();

 private:
  friend class Scope;
  std::atomic<std::uint64_t> cells_[detail::kMaxSlots];
  std::atomic<std::uint64_t> cpu_ns_{0};
  std::atomic<std::int64_t> peaks_[kDomainPeaks] = {};
};

/// RAII binding of a Domain to the current thread.  Nested scopes stack;
/// re-entering the already-active domain (e.g. a pool caller participating
/// in its own batch) is a no-op, so CPU time is never double counted.
/// Passing nullptr detaches the thread (increments go global-only).
class Scope {
 public:
  explicit Scope(Domain* d) noexcept {
    detail::DomainState& st = detail::domain_state();
    if (st.current == d) return;  // same domain (or both null): nothing to do
    active_ = true;
    prev_ = st.current;
    switch_domain(st, d);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (active_) switch_domain(detail::domain_state(), prev_);
  }

  /// The calling thread's active domain (null when detached).  The thread
  /// pool captures this at submit time to inherit attribution into batches.
  static Domain* current() noexcept { return detail::domain_state().current; }

 private:
  /// Flushes pending scratch and CPU time to the outgoing domain, then
  /// installs \p next and restarts the CPU meter.  Defined in obs.cpp.
  static void switch_domain(detail::DomainState& st, Domain* next) noexcept;

  bool active_ = false;
  Domain* prev_ = nullptr;
};

/// Records a peak-memory observation against the calling thread's active
/// domain (no-op when detached).  Subsystems with process-global high-water
/// gauges (strash, cut arena) call this next to their set_max.
inline void domain_peak_max(DomainPeak k, std::int64_t v) noexcept {
  detail::DomainState& st = detail::domain_state();
  if (st.current != nullptr) st.current->peak_max(k, v);
}

// --- metrics ----------------------------------------------------------------

/// A monotonic counter.  Obtain once (registry lookup takes a mutex), then
/// add() freely from any thread.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept {
    if (slot_ < detail::kMaxSlots) {
      detail::ThreadCells& tc = detail::thread_cells();
      std::atomic<std::uint64_t>& c = tc.cells[slot_];
      c.store(c.load(std::memory_order_relaxed) + delta,
              std::memory_order_relaxed);
      if (tc.domain.current != nullptr) tc.domain.scratch[slot_] += delta;
    } else {
      overflow_->fetch_add(delta, std::memory_order_relaxed);
    }
  }
  void increment() noexcept { add(1); }

  /// Aggregated total over all threads, live and retired.
  std::uint64_t value() const;

 private:
  friend Counter& counter(std::string_view);
  explicit Counter(std::uint32_t slot) : slot_(slot) {}
  std::uint32_t slot_;
  /// Shared fallback cell, resolved at registration (slots never move), so
  /// overflow adds stay a single lock-free fetch_add.  Null below kMaxSlots.
  std::atomic<std::uint64_t>* overflow_ = nullptr;
};

/// A last-value gauge (single atomic; set/add from any thread).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  /// set(v) if v is greater than the current value (e.g. high-water marks).
  void set_max(std::int64_t v) noexcept {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend Gauge& gauge(std::string_view);
  Gauge() = default;
  std::atomic<std::int64_t> value_{0};
};

/// A log2-bucketed histogram of non-negative samples (value v lands in
/// bucket floor(log2(v))+1, zero in bucket 0; the last bucket absorbs
/// overflow).  Buckets are per-thread cells like counters; one extra slot
/// accumulates the running sum for Prometheus export.
class Histogram {
 public:
  void observe(std::uint64_t v) noexcept {
    const std::uint64_t orig = v;
    int b = 0;
    while (v != 0 && b < detail::kHistBuckets - 1) {
      v >>= 1;
      ++b;
    }
    bump(base_ + static_cast<std::uint32_t>(b), b, 1);
    bump(base_ + static_cast<std::uint32_t>(detail::kHistBuckets),
         detail::kHistBuckets, orig);
  }

  /// Aggregated per-bucket totals (kHistBuckets entries).
  std::vector<std::uint64_t> buckets() const;
  std::uint64_t total() const;
  /// Sum of all observed values (live + retired threads).
  std::uint64_t sum() const;
  /// Interpolated percentile of the observed distribution, p in [0,1].
  double percentile(double p) const { return percentile_from_buckets(buckets(), p); }

 private:
  friend Histogram& histogram(std::string_view);
  explicit Histogram(std::uint32_t base) : base_(base) {}

  void bump(std::uint32_t slot, int local, std::uint64_t delta) noexcept {
    if (slot < detail::kMaxSlots) {
      detail::ThreadCells& tc = detail::thread_cells();
      std::atomic<std::uint64_t>& c = tc.cells[slot];
      c.store(c.load(std::memory_order_relaxed) + delta,
              std::memory_order_relaxed);
      if (tc.domain.current != nullptr) tc.domain.scratch[slot] += delta;
    } else {
      overflow_[local]->fetch_add(delta, std::memory_order_relaxed);
    }
  }

  std::uint32_t base_;
  /// Per-bucket (plus sum) shared fallback cells for slots past kMaxSlots,
  /// resolved at registration; entries for in-block slots stay null.
  std::atomic<std::uint64_t>* overflow_[detail::kHistBuckets + 1] = {};
};

/// Registry lookup-or-create.  The returned references are stable for the
/// process lifetime; hot paths cache them in function-local statics.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// Aggregated reading of every registered metric, names sorted.
/// Histograms appear among the counters as `<name>.count` (total samples)
/// and `<name>.p50_bucket` (upper bound of the median log2 bucket).
MetricsSnapshot snapshot();

/// Every registered histogram with raw buckets, count and sum; names
/// sorted.  Feeds metrics_text percentile columns, the telemetry ring and
/// the Prometheus export.
std::vector<HistogramSnapshot> histogram_snapshots();

/// Human-readable table of the whole registry (the shell's `stats`),
/// including a histogram section with p50/p95/p99 columns.
std::string metrics_text();

/// One JSON object {"counters": {...}, "gauges": {...}}.
std::string metrics_json();

/// The registry in Prometheus text exposition format: counters and gauges
/// as scalar families, histograms as `_bucket{le="..."}` cumulative series
/// plus `_sum` / `_count` (metric names sanitized, '.' -> '_').
std::string prometheus_text();

// --- telemetry ring ---------------------------------------------------------

/// Starts (or restarts with new parameters) the background sampler thread:
/// every \p interval_ms it snapshots the registry (with per-histogram
/// p50/p95/p99) into a ring of the last \p ring_capacity samples.
/// Overhead is one registry aggregation per tick, independent of load.
void sampler_start(unsigned interval_ms, std::size_t ring_capacity);

/// Stops and joins the sampler thread; the ring's contents are retained.
void sampler_stop();

bool sampler_running();

/// The retained ring as one JSON object:
/// {"interval_ms":N,"capacity":N,"samples":[{"t_us":...,"counters":{...},
///  "gauges":{...},"percentiles":{"<hist>":{"p50":...,"p95":...,"p99":...,
///  "count":N}}}, ...]} (oldest first).
std::string ring_json();

// --- tracing ----------------------------------------------------------------

inline bool tracing_enabled() noexcept {
  return detail::g_tracing.load(std::memory_order_relaxed);
}

/// Turns span recording on/off.  Enabling does not clear prior events;
/// see trace_clear().
void set_tracing(bool on);

/// Drops every recorded span.
void trace_clear();

/// Number of spans recorded so far (live + retired threads).
std::size_t trace_size();

/// The recorded spans as Chrome trace-event JSON ("X" complete events with
/// per-thread lanes and thread_name metadata); open in chrome://tracing or
/// https://ui.perfetto.dev.
std::string trace_json();

/// Writes trace_json() to \p path; false on I/O failure.
bool trace_dump(const std::string& path);

/// Aggregates spans whose *start* lies at/after \p since_us by name.
/// Sorted by summed duration, longest first.
std::vector<SpanStats> aggregate_spans(std::uint64_t since_us);

/// Names the calling thread in trace exports (e.g. "pool-worker-3").
void set_thread_name(const std::string& name);

/// If the MCS_TRACE environment variable names a file, enables tracing and
/// registers an atexit hook dumping the trace there.  Idempotent; called
/// from run_flow, the shell and the bench mains so headless runs are
/// covered without plumbing.
void init_from_env();

/// RAII scoped span.  When tracing is off, construction is one relaxed
/// load.  Two constructors: a string-literal one (zero-copy) and an owning
/// one for dynamic names (only evaluated when tracing is on -- pass a
/// maker lambda to avoid building strings eagerly on hot paths).
class Span {
 public:
  /// \p name must outlive the span (string literals qualify).
  explicit Span(const char* name) noexcept {
    if (tracing_enabled()) begin(name);
  }
  /// Owning variant for dynamic names.
  explicit Span(std::string name) {
    if (tracing_enabled()) {
      owned_ = std::move(name);
      begin(nullptr);
    }
  }
  /// Lazy-name variant: \p make_name() is only called when tracing is on.
  template <typename Fn,
            typename = decltype(std::string(std::declval<Fn>()()))>
  explicit Span(const Fn& make_name) {
    if (tracing_enabled()) {
      owned_ = make_name();
      begin(nullptr);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    // Re-check tracing so a span in flight across set_tracing(false) does
    // not record; the epoch guard likewise drops spans that straddle a
    // trace_clear() instead of repopulating the cleared buffers.
    if (active_ && tracing_enabled()) {
      detail::record_span(literal_, owned_, start_us_, now_us() - start_us_,
                          epoch_);
    }
  }

 private:
  void begin(const char* literal) noexcept {
    active_ = true;
    literal_ = literal;
    epoch_ = detail::g_trace_epoch.load(std::memory_order_relaxed);
    start_us_ = now_us();
  }

  bool active_ = false;
  const char* literal_ = nullptr;
  std::string owned_;
  std::uint64_t start_us_ = 0;
  std::uint64_t epoch_ = 0;
};

#else  // MCS_OBS_DISABLE -----------------------------------------------------

// No-op stubs: identical call surface, zero code on every hot path.  The
// read-side API returns empty data so the shell/flow plumbing still links.

inline std::uint64_t now_us() noexcept { return 0; }

class Domain {
 public:
  Domain() = default;
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;
  void add_slot(std::uint32_t, std::uint64_t) noexcept {}
  void add_cpu_ns(std::uint64_t) noexcept {}
  std::uint64_t cpu_us() const noexcept { return 0; }
  void peak_max(DomainPeak, std::int64_t) noexcept {}
  std::int64_t peak(DomainPeak) const noexcept { return 0; }
  MetricsSnapshot snapshot() { return {}; }
};

class Scope {
 public:
  explicit Scope(Domain*) noexcept {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  static Domain* current() noexcept { return nullptr; }
};

inline void domain_peak_max(DomainPeak, std::int64_t) noexcept {}

class Counter {
 public:
  void add(std::uint64_t) noexcept {}
  void increment() noexcept {}
  std::uint64_t value() const noexcept { return 0; }
};

class Gauge {
 public:
  void set(std::int64_t) noexcept {}
  void add(std::int64_t) noexcept {}
  void set_max(std::int64_t) noexcept {}
  std::int64_t value() const noexcept { return 0; }
};

class Histogram {
 public:
  void observe(std::uint64_t) noexcept {}
  std::vector<std::uint64_t> buckets() const { return {}; }
  std::uint64_t total() const noexcept { return 0; }
  std::uint64_t sum() const noexcept { return 0; }
  double percentile(double) const noexcept { return 0.0; }
};

Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

inline MetricsSnapshot snapshot() { return {}; }
inline std::vector<HistogramSnapshot> histogram_snapshots() { return {}; }
std::string metrics_text();
std::string metrics_json();
std::string prometheus_text();

inline void sampler_start(unsigned, std::size_t) {}
inline void sampler_stop() {}
inline bool sampler_running() { return false; }
std::string ring_json();

inline bool tracing_enabled() noexcept { return false; }
inline void set_tracing(bool) {}
inline void trace_clear() {}
inline std::size_t trace_size() { return 0; }
std::string trace_json();
inline bool trace_dump(const std::string&) { return false; }
inline std::vector<SpanStats> aggregate_spans(std::uint64_t) { return {}; }
inline void set_thread_name(const std::string&) {}
inline void init_from_env() {}

class Span {
 public:
  explicit Span(const char*) noexcept {}
  explicit Span(std::string) noexcept {}
  template <typename Fn,
            typename = decltype(std::string(std::declval<Fn>()()))>
  explicit Span(const Fn&) noexcept {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

#endif  // MCS_OBS_DISABLE

/// Counters of the process-wide registry that changed between \p before
/// and now (name -> delta), plus the current gauge values.
inline MetricsSnapshot snapshot_delta(const MetricsSnapshot& before) {
  return snapshot_diff(snapshot(), before);
}

}  // namespace mcs::obs
