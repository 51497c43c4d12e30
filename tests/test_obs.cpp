/// Unit tests for mcs::obs: per-thread counter sharding aggregates to the
/// same totals as a serial loop (including after worker-thread retirement),
/// gauges/histograms behave, the Chrome trace-event export is well-formed
/// JSON with correctly nested spans and per-thread attribution, and -- the
/// determinism contract -- fraig and the partition-parallel optimizer stay
/// bit-identical with tracing on vs off at 1 and N threads.
///
/// Every metric/tracing assertion is guarded for MCS_OBS_DISABLE builds
/// (the API collapses to no-op stubs there); the determinism tests compile
/// and run in both configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mcs/circuits/circuits.hpp"
#include "mcs/flow/flow.hpp"
#include "mcs/network/convert.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/obs/obs.hpp"
#include "mcs/par/thread_pool.hpp"
#include "mcs/sweep/sweep.hpp"

namespace mcs {
namespace {

// --- a minimal JSON validator ----------------------------------------------
// Recursive-descent acceptor for the full JSON grammar; the trace and
// metrics exports must round-trip it byte-exactly (pos == size at the end).

class JsonValidator {
 public:
  static bool valid(const std::string& s) {
    JsonValidator v(s);
    v.ws();
    if (!v.value()) return false;
    v.ws();
    return v.pos_ == s.size();
  }

 private:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  bool eat(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool lit(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        ++pos_;  // accept any escaped char (incl. the 'u' of \uXXXX)
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control characters are illegal in JSON
      }
    }
    return false;
  }
  bool number() {
    eat('-');
    std::size_t digits = 0;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_, ++digits;
    if (digits == 0) return false;
    if (eat('.')) {
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return true;
  }
  bool value() {
    ws();
    switch (peek()) {
      case '{': {
        ++pos_;
        ws();
        if (eat('}')) return true;
        do {
          ws();
          if (!string()) return false;
          ws();
          if (!eat(':')) return false;
          if (!value()) return false;
          ws();
        } while (eat(','));
        return eat('}');
      }
      case '[': {
        ++pos_;
        ws();
        if (eat(']')) return true;
        do {
          if (!value()) return false;
          ws();
        } while (eat(','));
        return eat(']');
      }
      case '"':
        return string();
      case 't':
        return lit("true");
      case 'f':
        return lit("false");
      case 'n':
        return lit("null");
      default:
        return number();
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(ObsJsonValidator, SelfCheck) {
  EXPECT_TRUE(JsonValidator::valid("{}"));
  EXPECT_TRUE(JsonValidator::valid(R"({"a": [1, -2.5e3, "x\"y"], "b": {}})"));
  EXPECT_TRUE(JsonValidator::valid("[true, false, null]"));
  EXPECT_FALSE(JsonValidator::valid("{"));
  EXPECT_FALSE(JsonValidator::valid("{\"a\": }"));
  EXPECT_FALSE(JsonValidator::valid("{} trailing"));
  EXPECT_FALSE(JsonValidator::valid("{\"a\"\n: \"\x01\"}"));
}

#ifndef MCS_OBS_DISABLE

// --- metrics ----------------------------------------------------------------

TEST(ObsMetrics, CounterAggregatesAcrossPoolWorkers) {
  obs::Counter& c = obs::counter("test.pool_adds");
  const std::uint64_t before = c.value();

  constexpr std::size_t kItems = 5000;
  std::uint64_t serial = 0;
  for (std::size_t i = 0; i < kItems; ++i) serial += i + 1;

  {
    ThreadPool pool(4);
    pool.submit_bulk(
        kItems, [&](std::size_t i) { c.add(i + 1); }, 4);
  }
  // The pool is destroyed: the workers' per-thread cells have been folded
  // into the retired accumulator, and the total must still be exact.
  EXPECT_EQ(c.value() - before, serial);
}

TEST(ObsMetrics, CounterSurvivesManyShortLivedThreads) {
  obs::Counter& c = obs::counter("test.short_threads");
  const std::uint64_t before = c.value();
  for (int round = 0; round < 8; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&c] { c.add(10); });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(c.value() - before, 8u * 4u * 10u);
}

TEST(ObsMetrics, GaugeSetMaxIsHighWaterMark) {
  obs::Gauge& g = obs::gauge("test.hwm");
  g.set(0);
  g.set_max(7);
  g.set_max(3);
  EXPECT_EQ(g.value(), 7);
  g.set_max(11);
  EXPECT_EQ(g.value(), 11);
  g.set(2);  // plain set still lowers
  EXPECT_EQ(g.value(), 2);
}

TEST(ObsMetrics, HistogramBucketsByLog2) {
  obs::Histogram& h = obs::histogram("test.hist");
  const std::uint64_t before = h.total();
  h.observe(0);   // bucket 0
  h.observe(1);   // bucket 1
  h.observe(2);   // bucket 2
  h.observe(3);   // bucket 2
  h.observe(~0ull);  // overflow bucket
  EXPECT_EQ(h.total() - before, 5u);
  const std::vector<std::uint64_t> buckets = h.buckets();
  ASSERT_GE(buckets.size(), 3u);
  EXPECT_GE(buckets[2], 2u) << "2 and 3 share the log2 bucket";
  EXPECT_GE(buckets.back(), 1u) << "huge samples land in the last bucket";
}

TEST(ObsMetrics, SnapshotDeltaReportsOnlyMovedCounters) {
  obs::Counter& moved = obs::counter("test.delta_moved");
  obs::counter("test.delta_still");  // registered but untouched

  const obs::MetricsSnapshot before = obs::snapshot();
  moved.add(42);
  const obs::MetricsSnapshot delta = obs::snapshot_delta(before);

  bool saw_moved = false;
  for (const obs::MetricValue& mv : delta.counters) {
    EXPECT_NE(mv.name, "test.delta_still")
        << "untouched counters must not appear in a delta";
    if (mv.name == "test.delta_moved") {
      saw_moved = true;
      EXPECT_EQ(mv.value, 42);
    }
  }
  EXPECT_TRUE(saw_moved);
}

TEST(ObsMetrics, LookupIsStableAndIdempotent) {
  obs::Counter& a = obs::counter("test.same_name");
  obs::Counter& b = obs::counter("test.same_name");
  EXPECT_EQ(&a, &b) << "lookup-or-create must return the same instance";
}

TEST(ObsMetrics, MetricsJsonIsValid) {
  obs::counter("test.json_presence").add(1);
  const std::string json = obs::metrics_json();
  EXPECT_TRUE(JsonValidator::valid(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("test.json_presence"), std::string::npos);
}

// --- tracing ----------------------------------------------------------------

/// One parsed "X" event from the Chrome trace export.
struct ParsedEvent {
  long tid = 0;
  std::string name;
  unsigned long long ts = 0;
  unsigned long long dur = 0;
};

/// Extracts the complete ("X") events; the emitter writes fields in a fixed
/// order so a scan is enough (the JSON validator covers grammar).
std::vector<ParsedEvent> parse_events(const std::string& json) {
  std::vector<ParsedEvent> out;
  std::size_t pos = 0;
  const std::string marker = "{\"ph\":\"X\",\"pid\":1,\"tid\":";
  while ((pos = json.find(marker, pos)) != std::string::npos) {
    pos += marker.size();
    ParsedEvent ev;
    ev.tid = std::strtol(json.c_str() + pos, nullptr, 10);
    const std::size_t name_at = json.find("\"name\":\"", pos) + 8;
    const std::size_t name_end = json.find('"', name_at);
    ev.name = json.substr(name_at, name_end - name_at);
    const std::size_t ts_at = json.find("\"ts\":", name_end) + 5;
    ev.ts = std::strtoull(json.c_str() + ts_at, nullptr, 10);
    const std::size_t dur_at = json.find("\"dur\":", ts_at) + 6;
    ev.dur = std::strtoull(json.c_str() + dur_at, nullptr, 10);
    out.push_back(std::move(ev));
  }
  return out;
}

class ObsTracing : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing(true);
    obs::trace_clear();
  }
  void TearDown() override {
    obs::set_tracing(false);
    obs::trace_clear();
  }
};

TEST_F(ObsTracing, SpansNestAndExportValidChromeJson) {
  {
    obs::Span outer("outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      obs::Span inner("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    { obs::Span inner2(std::string("inner2")); }
  }
  EXPECT_EQ(obs::trace_size(), 3u);

  const std::string json = obs::trace_json();
  ASSERT_TRUE(JsonValidator::valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

  const std::vector<ParsedEvent> events = parse_events(json);
  ASSERT_EQ(events.size(), 3u);
  const ParsedEvent* outer = nullptr;
  const ParsedEvent* inner = nullptr;
  for (const ParsedEvent& ev : events) {
    if (ev.name == "outer") outer = &ev;
    if (ev.name == "inner") inner = &ev;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->tid, inner->tid) << "same thread, same lane";
  // Well-formed nesting: the child interval lies inside the parent's.
  EXPECT_GE(inner->ts, outer->ts);
  EXPECT_LE(inner->ts + inner->dur, outer->ts + outer->dur);
  EXPECT_GE(outer->dur, inner->dur);
}

TEST_F(ObsTracing, ThreadAttributionAndNames) {
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([t] {
      obs::set_thread_name("obs-test-" + std::to_string(t));
      obs::Span span([&] { return "work:" + std::to_string(t); });
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }
  for (std::thread& t : threads) t.join();

  const std::string json = obs::trace_json();
  ASSERT_TRUE(JsonValidator::valid(json)) << json;
  const std::vector<ParsedEvent> events = parse_events(json);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid)
      << "spans from distinct threads must land in distinct lanes";
  // Thread-name metadata events accompany the named threads.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("obs-test-0"), std::string::npos);
  EXPECT_NE(json.find("obs-test-1"), std::string::npos);
}

TEST_F(ObsTracing, PoolWorkersAppearInTrace) {
  ThreadPool pool(2);
  pool.submit_bulk(
      64,
      [](std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      },
      2);

  const std::string json = obs::trace_json();
  ASSERT_TRUE(JsonValidator::valid(json)) << json;
  EXPECT_NE(json.find("pool-worker-"), std::string::npos)
      << "worker threads must self-identify in the trace";
  EXPECT_NE(json.find("pool:batch"), std::string::npos);
}

TEST_F(ObsTracing, DumpRoundTripsThroughFile) {
  { obs::Span span("dumped"); }
  const std::string path =
      ::testing::TempDir() + "/mcs_obs_trace_test.json";
  ASSERT_TRUE(obs::trace_dump(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(content, obs::trace_json());
  EXPECT_TRUE(JsonValidator::valid(content));
  EXPECT_NE(content.find("\"dumped\""), std::string::npos);
}

TEST_F(ObsTracing, AggregateSpansFoldsByName) {
  const std::uint64_t start = obs::now_us();
  for (int i = 0; i < 3; ++i) {
    obs::Span span("agg:repeat");
  }
  const std::vector<obs::SpanStats> spans = obs::aggregate_spans(start);
  const auto it =
      std::find_if(spans.begin(), spans.end(),
                   [](const obs::SpanStats& s) { return s.name == "agg:repeat"; });
  ASSERT_NE(it, spans.end());
  EXPECT_EQ(it->count, 3u);
}

TEST_F(ObsTracing, DisabledSpanRecordsNothing) {
  obs::set_tracing(false);
  { obs::Span span("invisible"); }
  EXPECT_EQ(obs::trace_size(), 0u);
}

TEST_F(ObsTracing, InFlightSpansDropAcrossClearAndDisable) {
  // A span alive across trace_clear() must not repopulate the cleared
  // buffers when it ends ...
  {
    obs::Span span("straddles-clear");
    obs::trace_clear();
  }
  EXPECT_EQ(obs::trace_size(), 0u);
  // ... and one alive across set_tracing(false) must not record either.
  {
    obs::Span span("straddles-disable");
    obs::set_tracing(false);
  }
  EXPECT_EQ(obs::trace_size(), 0u);
}

TEST_F(ObsTracing, ConcurrentRecordAndAggregateIsSafe) {
  // Writers record spans while another thread exports/aggregates/clears:
  // the exact interleaving submit_bulk leaves behind (a worker finishing
  // its batch span after the caller resumed).  Run under TSAN this is the
  // regression test for the record_span data race.
  // Writers are bounded (not free-spinning) so the buffers can't outgrow
  // the readers and balloon the trace_json cost under sanitizers.
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([] {
      for (int i = 0; i < 20000; ++i) {
        obs::Span span("stress:span");
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    (void)obs::aggregate_spans(0);
    (void)obs::trace_size();
    if (i % 4 == 0) obs::trace_clear();
    ASSERT_TRUE(JsonValidator::valid(obs::trace_json()));
  }
  for (std::thread& t : writers) t.join();
  EXPECT_TRUE(JsonValidator::valid(obs::trace_json()));
}

// --- histogram percentiles --------------------------------------------------
// percentile_from_buckets is the single derivation shared by metrics_text,
// the telemetry ring and Histogram::percentile; pin its bucket math here.

TEST(ObsPercentile, EmptyIsZeroAndPIsClamped) {
  EXPECT_DOUBLE_EQ(obs::percentile_from_buckets({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(obs::percentile_from_buckets({0, 0, 0}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(obs::histogram("test.pct.empty").percentile(0.5), 0.0);

  // Out-of-range p clamps to [0, 1] instead of extrapolating: ten samples
  // in bucket 2 = [2, 3] bound every percentile to that range.
  const std::vector<std::uint64_t> ten_in_bucket2 = {0, 0, 10, 0};
  EXPECT_DOUBLE_EQ(obs::percentile_from_buckets(ten_in_bucket2, -1.0), 2.0);
  EXPECT_DOUBLE_EQ(obs::percentile_from_buckets(ten_in_bucket2, 7.0), 3.0);
}

TEST(ObsPercentile, ZeroBucketReportsExactZeros) {
  // Bucket 0 holds exact zeros; a percentile landing there is 0.0, not an
  // interpolated fraction of some power-of-two range.
  obs::Histogram& h = obs::histogram("test.pct.zeros");
  h.observe(0);
  h.observe(0);
  h.observe(1);
  h.observe(1);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.75), 1.0);  // bucket 1 = [1, 1]
}

TEST(ObsPercentile, InterpolatesWithinLog2Bucket) {
  obs::Histogram& h = obs::histogram("test.pct.interp");
  for (std::uint64_t v : {4, 5, 6, 7}) h.observe(v);  // all in bucket 3=[4,7]
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.sum(), 22u);
  EXPECT_DOUBLE_EQ(h.percentile(0.25), 4.75);  // 4 + 1/4 * (7-4)
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 5.5);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 7.0);
}

TEST(ObsPercentile, MonotoneAcrossBuckets) {
  obs::Histogram& h = obs::histogram("test.pct.monotone");
  for (std::uint64_t v = 1; v <= 1024; ++v) h.observe(v);
  double prev = 0.0;
  for (const double p : {0.1, 0.25, 0.5, 0.9, 0.95, 0.99}) {
    const double q = h.percentile(p);
    EXPECT_GE(q, prev) << "percentile not monotone at p=" << p;
    prev = q;
  }
  // Uniform 1..1024: the tail percentiles must land in the top buckets.
  EXPECT_GE(h.percentile(0.99), 512.0);
  EXPECT_LE(h.percentile(0.99), 1024.0);
}

// --- metric domains ---------------------------------------------------------
// The obs v2 attribution layer: a thread-bound Scope routes every increment
// to both the process registry and the installed Domain, pool tasks inherit
// the submitter's domain, and Domain::snapshot is an exact per-domain view.

std::int64_t metric_value(const std::vector<obs::MetricValue>& list,
                          const std::string& name) {
  for (const obs::MetricValue& mv : list) {
    if (mv.name == name) return mv.value;
  }
  return -1;
}

TEST(ObsDomains, ScopeRoutesIncrementsToDomainAndGlobal) {
  obs::Counter& c = obs::counter("test.domain.routed");
  const std::uint64_t global_before = c.value();
  obs::Domain inside;
  {
    obs::Scope scope(&inside);
    c.add(7);
  }
  c.add(2);  // outside any scope: global only
  EXPECT_EQ(c.value(), global_before + 9);
  EXPECT_EQ(metric_value(inside.snapshot().counters, "test.domain.routed"), 7);
}

TEST(ObsDomains, NestedScopesSwitchDomains) {
  obs::Counter& c = obs::counter("test.domain.nested");
  obs::Domain outer;
  obs::Domain inner;
  EXPECT_EQ(obs::Scope::current(), nullptr);
  {
    obs::Scope outer_scope(&outer);
    EXPECT_EQ(obs::Scope::current(), &outer);
    c.add(1);
    {
      obs::Scope inner_scope(&inner);
      EXPECT_EQ(obs::Scope::current(), &inner);
      c.add(10);
    }
    EXPECT_EQ(obs::Scope::current(), &outer);
    c.add(100);
  }
  EXPECT_EQ(obs::Scope::current(), nullptr);
  EXPECT_EQ(metric_value(outer.snapshot().counters, "test.domain.nested"),
            101);
  EXPECT_EQ(metric_value(inner.snapshot().counters, "test.domain.nested"), 10);
}

TEST(ObsDomains, SameDomainReentryDoesNotDoubleCount) {
  obs::Counter& c = obs::counter("test.domain.reentry");
  obs::Domain d;
  {
    obs::Scope scope(&d);
    c.add(1);
    {
      obs::Scope again(&d);  // no-op: same domain already installed
      c.add(1);
    }
    c.add(1);  // the outer scope must still be active here
  }
  EXPECT_EQ(metric_value(d.snapshot().counters, "test.domain.reentry"), 3);
}

TEST(ObsDomains, HistogramsAttributeToDomains) {
  obs::Histogram& h = obs::histogram("test.domain.hist");
  obs::Domain d;
  {
    obs::Scope scope(&d);
    h.observe(4);
    h.observe(6);
  }
  h.observe(100);  // outside: global only
  const obs::MetricsSnapshot snap = d.snapshot();
  EXPECT_EQ(metric_value(snap.counters, "test.domain.hist.count"), 2);
  EXPECT_EQ(metric_value(snap.counters, "test.domain.hist.p50_bucket"), 7);
}

TEST(ObsDomains, PoolTasksInheritSubmitterDomain) {
  // The serving-stack contract: work fanned out through the pool is
  // attributed to the domain that was active at submit time, and all of it
  // has landed there by the time submit_bulk returns -- the pool stays
  // alive, so no worker teardown can be what flushes it.
  obs::Counter& c = obs::counter("test.domain.pool");
  constexpr std::int64_t kItems = 1000;
  ThreadPool pool(4);
  obs::Domain d;
  for (std::int64_t round = 1; round <= 20; ++round) {
    {
      obs::Scope scope(&d);
      pool.submit_bulk(
          kItems, [&](std::size_t) { c.increment(); }, 4);
    }
    ASSERT_EQ(metric_value(d.snapshot().counters, "test.domain.pool"),
              round * kItems)
        << "round " << round;
  }
}

TEST(ObsDomains, DomainMayDieAsSoonAsSubmitBulkReturns) {
  // A job frees its domain right after its last fan-out.  submit_bulk must
  // not return before every worker that joined the batch has closed its
  // scope, which flushes into the domain; otherwise a late flush writes
  // into freed memory (ASan: heap-use-after-free, TSan: a race with the
  // delete).  Many short rounds make that window likely to be hit.
  obs::Counter& c = obs::counter("test.domain.lifetime");
  ThreadPool pool(4);
  for (int round = 0; round < 50000; ++round) {
    auto d = std::make_unique<obs::Domain>();
    {
      obs::Scope scope(d.get());
      pool.submit_bulk(
          8, [&](std::size_t) { c.increment(); }, 4);
    }
    d.reset();
  }
}

TEST(ObsDomains, ConcurrentDomainsStayExact) {
  // Two threads, each with its own domain, hammer the same counter: the
  // per-domain totals must be exact (no cross-talk), and the global view
  // must see the sum.  This is the unit-level version of the per-job
  // bit-equality contract in test_server.
  obs::Counter& c = obs::counter("test.domain.concurrent");
  const std::uint64_t global_before = c.value();
  obs::Domain a;
  obs::Domain b;
  auto work = [&](obs::Domain* d, std::uint64_t per_add, int iters) {
    obs::Scope scope(d);
    for (int i = 0; i < iters; ++i) c.add(per_add);
  };
  std::thread ta(work, &a, 1, 50000);
  std::thread tb(work, &b, 3, 50000);
  ta.join();
  tb.join();
  EXPECT_EQ(metric_value(a.snapshot().counters, "test.domain.concurrent"),
            50000);
  EXPECT_EQ(metric_value(b.snapshot().counters, "test.domain.concurrent"),
            150000);
  EXPECT_EQ(c.value(), global_before + 200000);
}

TEST(ObsDomains, CpuTimeAccruesToActiveDomain) {
  obs::Domain d;
  {
    obs::Scope scope(&d);
    // Deliberate busy work: CLOCK_THREAD_CPUTIME_ID only advances with
    // actual CPU consumption, so sleeping would not register.
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < 20'000'000; ++i) sink = sink + i;
  }
  EXPECT_GT(d.cpu_us(), 0u);
}

TEST(ObsDomains, PeaksSurfaceAsSnapshotGauges) {
  obs::Domain d;
  {
    obs::Scope scope(&d);
    obs::domain_peak_max(obs::DomainPeak::kStrashBytes, 1 << 20);
    obs::domain_peak_max(obs::DomainPeak::kStrashBytes, 1 << 10);  // lower: kept
    obs::domain_peak_max(obs::DomainPeak::kArenaBytes, 123);
  }
  obs::domain_peak_max(obs::DomainPeak::kArenaBytes, 1 << 30);  // no scope: dropped
  EXPECT_EQ(d.peak(obs::DomainPeak::kStrashBytes), 1 << 20);
  EXPECT_EQ(d.peak(obs::DomainPeak::kArenaBytes), 123);
  const obs::MetricsSnapshot snap = d.snapshot();
  EXPECT_EQ(metric_value(snap.gauges, "obs.domain.strash_bytes_max"), 1 << 20);
  EXPECT_EQ(metric_value(snap.gauges, "obs.domain.arena_bytes_max"), 123);
}

TEST(ObsDomains, SnapshotDiffDropsUnchangedCounters) {
  obs::MetricsSnapshot before;
  before.counters = {{"a", 5}, {"b", 7}};
  obs::MetricsSnapshot now;
  now.counters = {{"a", 5}, {"b", 9}, {"c", 2}};
  now.gauges = {{"g", 42}};
  const obs::MetricsSnapshot delta = obs::snapshot_diff(now, before);
  ASSERT_EQ(delta.counters.size(), 2u);
  EXPECT_EQ(metric_value(delta.counters, "b"), 2);
  EXPECT_EQ(metric_value(delta.counters, "c"), 2);
  EXPECT_EQ(metric_value(delta.counters, "a"), -1);  // unchanged: absent
  ASSERT_EQ(delta.gauges.size(), 1u);
  EXPECT_EQ(metric_value(delta.gauges, "g"), 42);
}

// --- telemetry ring & exports -----------------------------------------------

TEST(ObsSampler, RingCollectsBoundedSamples) {
  ASSERT_FALSE(obs::sampler_running());
  obs::counter("test.ring.activity").add(5);
  obs::sampler_start(/*interval_ms=*/5, /*ring_capacity=*/4);
  EXPECT_TRUE(obs::sampler_running());
  // Wait until the ring has wrapped at least once (>= 5 sampling periods),
  // polling instead of a fixed sleep so slow CI machines pass too.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto count_samples = [](const std::string& json) {
    std::size_t n = 0;
    for (std::size_t at = json.find("\"t_us\""); at != std::string::npos;
         at = json.find("\"t_us\"", at + 1)) {
      ++n;
    }
    return n;
  };
  std::string json;
  while (std::chrono::steady_clock::now() < deadline) {
    json = obs::ring_json();
    if (count_samples(json) >= 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(JsonValidator::valid(json)) << json;
  // Bounded: capacity 4 means exactly 4 samples once the ring has wrapped.
  EXPECT_EQ(count_samples(json), 4u);
  EXPECT_NE(json.find("test.ring.activity"), std::string::npos);
  obs::sampler_stop();
  EXPECT_FALSE(obs::sampler_running());
}

TEST(ObsExports, PrometheusExpositionShape) {
  obs::counter("test.prom.count").add(3);
  obs::gauge("test.prom.level").set(11);
  obs::Histogram& h = obs::histogram("test.prom.lat");
  h.observe(5);
  h.observe(9);
  const std::string text = obs::prometheus_text();
  // Names are sanitized ('.' -> '_'), each metric gets a # TYPE line, and
  // histograms export cumulative buckets with the mandatory +Inf bound.
  EXPECT_NE(text.find("# TYPE test_prom_count counter"), std::string::npos);
  EXPECT_NE(text.find("test_prom_count 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_level gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_lat histogram"), std::string::npos);
  EXPECT_NE(text.find("test_prom_lat_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_lat_sum 14"), std::string::npos);
  EXPECT_NE(text.find("test_prom_lat_count 2"), std::string::npos);
  // Histogram-derived pseudo counters must NOT leak as separate counters.
  EXPECT_EQ(text.find("test_prom_lat_count counter"), std::string::npos);
  EXPECT_EQ(text.find("p50_bucket"), std::string::npos);
  // No unsanitized names escape.
  EXPECT_EQ(text.find("test.prom"), std::string::npos);
}

TEST(ObsExports, MetricsTextListsPercentiles) {
  obs::histogram("test.text.pct").observe(4);
  const std::string text = obs::metrics_text();
  // The name appears both as derived counters (.count) and as the native
  // histogram line; one of its lines must carry the percentile columns.
  bool found = false;
  for (std::size_t at = text.find("test.text.pct"); at != std::string::npos;
       at = text.find("test.text.pct", at + 1)) {
    const std::size_t eol = text.find('\n', at);
    const std::string line = text.substr(at, eol - at);
    if (line.find("p50") != std::string::npos &&
        line.find("p95") != std::string::npos &&
        line.find("p99") != std::string::npos) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found) << text;
}

#endif  // MCS_OBS_DISABLE

// --- determinism contract ---------------------------------------------------
// Observation must never change results: fraig and the partition-parallel
// optimizer produce bit-identical networks with tracing off vs on, at one
// and several threads.  These compile in MCS_OBS_DISABLE builds too (the
// tracing toggles are no-ops there; the 1-vs-N identity still holds).

class ObsDeterminism : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::set_tracing(false);
    obs::trace_clear();
  }
};

TEST_F(ObsDeterminism, FraigBitIdenticalWithTracingOnOff) {
  const Network net = expand_to_aig(circuits::multiplier(8));

  obs::set_tracing(false);
  FraigParams ref_params;
  ref_params.num_threads = 1;
  const Network reference = fraig(net, ref_params);

  obs::set_tracing(true);
  for (const int threads : {1, 4}) {
    FraigParams params;
    params.num_threads = threads;
    const Network traced = fraig(net, params);
    EXPECT_TRUE(structurally_identical(traced, reference))
        << "fraig diverged with tracing on at " << threads << " threads";
  }
}

TEST_F(ObsDeterminism, ParCompress2rsBitIdenticalWithTracingOnOff) {
  const Network net = expand_to_aig(circuits::multiplier(8));
  auto run = [&](int threads) {
    flow::FlowContext ctx;
    ctx.net = net;
    ctx.par.num_threads = threads;
    const flow::FlowReport report =
        flow::run_flow("par:pass=compress2rs,rounds=2,basis=aig", ctx);
    EXPECT_TRUE(report.ok) << report.error;
    return ctx.net;
  };

  obs::set_tracing(false);
  const Network reference = run(1);

  obs::set_tracing(true);
  for (const int threads : {1, 4}) {
    EXPECT_TRUE(structurally_identical(run(threads), reference))
        << "par:pass=compress2rs diverged with tracing on at " << threads
        << " threads";
  }
}

}  // namespace
}  // namespace mcs
