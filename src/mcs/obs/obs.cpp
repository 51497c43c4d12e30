/// \file obs.cpp
/// \brief Registry, per-thread cell lifecycle, domains, the telemetry ring
/// and trace export for mcs::obs.

#include "mcs/obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "mcs/common/json.hpp"

namespace mcs::obs {

#ifndef MCS_OBS_DISABLE

namespace {

// ---------------------------------------------------------------------------
// Metric registry

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

struct MetricInfo {
  std::string name;
  MetricKind kind;
  std::uint32_t slot;  // first slot (histograms span kHistBuckets + 1 slots)
};

struct TraceEvent {
  const char* literal;   // nullptr when the name is owned
  std::string owned;
  std::uint64_t start_us;
  std::uint64_t dur_us;
};

struct TraceBufData {
  int tid = 0;
  std::string name;
  std::vector<TraceEvent> events;
};

/// Live per-thread trace buffer.  The owning thread appends under `mu`
/// (record_span, set_thread_name); aggregating readers hold reg.mu to walk
/// the buffer lists and additionally take each buffer's `mu` to touch its
/// events.  Lock order: reg.mu before buf.mu; writers take buf.mu alone, so
/// a worker finishing a late span can never race trace_json/aggregate_spans
/// or trace_clear on another thread.
struct ThreadTraceBuf : TraceBufData {
  std::mutex mu;
};

/// Everything mutex-guarded lives here; the hot paths never touch it after
/// their function-local statics are initialised.
struct Registry {
  std::mutex mu;

  // metrics
  std::unordered_map<std::string, std::size_t> index;  // name -> infos idx
  std::vector<MetricInfo> infos;
  std::vector<std::unique_ptr<Counter>> counters;
  std::vector<std::unique_ptr<Gauge>> gauges;
  std::vector<std::unique_ptr<Histogram>> histograms;
  std::uint32_t next_slot = 0;
  std::vector<detail::ThreadCells*> live_cells;
  std::uint64_t retired[detail::kMaxSlots] = {};
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> overflow;

  // tracing
  int next_tid = 0;
  std::vector<ThreadTraceBuf*> live_bufs;
  std::vector<TraceBufData> retired_bufs;  // dead threads: reg.mu suffices

  std::uint64_t read_slot_locked(std::uint32_t slot) const {
    if (slot >= detail::kMaxSlots) {
      const std::size_t i = slot - detail::kMaxSlots;
      return i < overflow.size()
                 ? overflow[i]->load(std::memory_order_relaxed)
                 : 0;
    }
    std::uint64_t sum = retired[slot];
    for (const detail::ThreadCells* tc : live_cells)
      sum += tc->cells[slot].load(std::memory_order_relaxed);
    return sum;
  }
};

Registry& registry() {
  // Leaked intentionally: threads (pool workers, detached users) may touch
  // their cells during static destruction; a leaked registry outlives them.
  static Registry* r = new Registry();
  return *r;
}

std::uint32_t allocate_slots(Registry& reg, std::uint32_t count) {
  const std::uint32_t base = reg.next_slot;
  reg.next_slot += count;
  while (reg.next_slot > detail::kMaxSlots &&
         reg.overflow.size() < reg.next_slot - detail::kMaxSlots) {
    reg.overflow.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
  return base;
}

const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

struct ThreadTraceHolder {
  ThreadTraceBuf buf;
  ThreadTraceHolder() {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    buf.tid = reg.next_tid++;
    reg.live_bufs.push_back(&buf);
  }
  ~ThreadTraceHolder() {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.live_bufs.erase(
        std::find(reg.live_bufs.begin(), reg.live_bufs.end(), &buf));
    // Only this thread writes buf, and readers reach it via live_bufs under
    // reg.mu (held here), so the data slice can be moved out lock-free.
    if (!buf.events.empty() || !buf.name.empty())
      reg.retired_bufs.push_back(std::move(static_cast<TraceBufData&>(buf)));
  }
};

ThreadTraceBuf& thread_trace_buf() {
  thread_local ThreadTraceHolder holder;
  return holder.buf;
}

std::string g_trace_path;  // set once by init_from_env before the atexit hook

void dump_trace_at_exit() {
  if (!g_trace_path.empty()) trace_dump(g_trace_path);
}

/// Appends the derived counter entries of one histogram (`<name>.count`,
/// `<name>.p50_bucket`).  Shared by the global snapshot and Domain
/// snapshots so both produce bit-identical derivations from equal buckets.
void append_histogram_derived(std::vector<MetricValue>& out,
                              const std::string& name,
                              const std::vector<std::uint64_t>& buckets) {
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  out.push_back({name + ".count", static_cast<std::int64_t>(total)});
  // median bucket upper bound: the smallest value v such that
  // buckets <= floor(log2(v))+1 cover half the samples
  std::uint64_t acc = 0;
  int median_bucket = 0;
  for (int b = 0; b < detail::kHistBuckets; ++b) {
    acc += buckets[static_cast<std::size_t>(b)];
    if (acc * 2 >= total) {
      median_bucket = b;
      break;
    }
  }
  const std::int64_t upper =
      median_bucket == 0 ? 0 : (std::int64_t{1} << median_bucket) - 1;
  out.push_back({name + ".p50_bucket", upper});
}

}  // namespace

namespace detail {

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_trace_epoch{0};

ThreadCells::ThreadCells() {
  for (auto& c : cells) c.store(0, std::memory_order_relaxed);
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.live_cells.push_back(this);
}

ThreadCells::~ThreadCells() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.live_cells.erase(
      std::find(reg.live_cells.begin(), reg.live_cells.end(), this));
  for (std::size_t s = 0; s < kMaxSlots; ++s)
    reg.retired[s] += cells[s].load(std::memory_order_relaxed);
}

std::uint64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void record_span(const char* name_literal, const std::string& name_owned,
                 std::uint64_t start_us, std::uint64_t dur_us,
                 std::uint64_t epoch) {
  ThreadTraceBuf& buf = thread_trace_buf();
  TraceEvent ev;
  ev.literal = name_literal;
  if (name_literal == nullptr) ev.owned = name_owned;
  ev.start_us = start_us;
  ev.dur_us = dur_us;
  std::lock_guard<std::mutex> lock(buf.mu);
  // trace_clear bumps the epoch before clearing each buffer under buf.mu,
  // so checking under the same lock guarantees a cleared buffer never gains
  // a pre-clear event afterwards.
  if (epoch != g_trace_epoch.load(std::memory_order_relaxed)) return;
  buf.events.push_back(std::move(ev));
}

}  // namespace detail

std::uint64_t now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - g_process_start)
          .count());
}

// --- attribution ------------------------------------------------------------

void Scope::switch_domain(detail::DomainState& st, Domain* next) noexcept {
  if (st.current != nullptr) {
    Domain& d = *st.current;
    for (std::size_t i = 0; i < detail::kMaxSlots; ++i) {
      if (st.scratch[i] != 0) {
        d.cells_[i].fetch_add(st.scratch[i], std::memory_order_relaxed);
        st.scratch[i] = 0;
      }
    }
    const std::uint64_t now = detail::thread_cpu_ns();
    d.cpu_ns_.fetch_add(now - st.last_cpu_ns, std::memory_order_relaxed);
    st.last_cpu_ns = now;
  } else if (next != nullptr) {
    st.last_cpu_ns = detail::thread_cpu_ns();
  }
  st.current = next;
}

// --- metrics ----------------------------------------------------------------

namespace {

// Name -> object side tables (the Registry keeps ownership + slot layout;
// these give lookup-or-create its fast path without poking at privates).
struct TypedRegistry {
  std::unordered_map<std::string, Counter*> counters;
  std::unordered_map<std::string, Gauge*> gauges;
  std::unordered_map<std::string, Histogram*> histograms;
};

TypedRegistry& typed() {
  static TypedRegistry* t = new TypedRegistry();
  return *t;
}

}  // namespace

Counter& counter(std::string_view name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::string key(name);
  auto it = typed().counters.find(key);
  if (it != typed().counters.end()) return *it->second;
  const std::uint32_t slot = allocate_slots(reg, 1);
  reg.index.emplace(key, reg.infos.size());
  reg.infos.push_back({key, MetricKind::kCounter, slot});
  reg.counters.emplace_back(new Counter(slot));
  Counter* c = reg.counters.back().get();
  if (slot >= detail::kMaxSlots)
    c->overflow_ = reg.overflow[slot - detail::kMaxSlots].get();
  typed().counters.emplace(std::move(key), c);
  return *c;
}

Gauge& gauge(std::string_view name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::string key(name);
  auto it = typed().gauges.find(key);
  if (it != typed().gauges.end()) return *it->second;
  reg.index.emplace(key, reg.infos.size());
  reg.infos.push_back({key, MetricKind::kGauge, 0});
  reg.gauges.emplace_back(new Gauge());
  Gauge* g = reg.gauges.back().get();
  typed().gauges.emplace(std::move(key), g);
  return *g;
}

Histogram& histogram(std::string_view name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::string key(name);
  auto it = typed().histograms.find(key);
  if (it != typed().histograms.end()) return *it->second;
  const std::uint32_t base = allocate_slots(
      reg, static_cast<std::uint32_t>(detail::kHistBuckets) + 1);
  reg.index.emplace(key, reg.infos.size());
  reg.infos.push_back({key, MetricKind::kHistogram, base});
  reg.histograms.emplace_back(new Histogram(base));
  Histogram* h = reg.histograms.back().get();
  for (int b = 0; b <= detail::kHistBuckets; ++b) {
    const std::uint32_t slot = base + static_cast<std::uint32_t>(b);
    if (slot >= detail::kMaxSlots)
      h->overflow_[b] = reg.overflow[slot - detail::kMaxSlots].get();
  }
  typed().histograms.emplace(std::move(key), h);
  return *h;
}

std::uint64_t Counter::value() const {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  return reg.read_slot_locked(slot_);
}

std::vector<std::uint64_t> Histogram::buckets() const {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<std::uint64_t> out(detail::kHistBuckets, 0);
  for (int b = 0; b < detail::kHistBuckets; ++b)
    out[static_cast<std::size_t>(b)] =
        reg.read_slot_locked(base_ + static_cast<std::uint32_t>(b));
  return out;
}

std::uint64_t Histogram::total() const {
  std::uint64_t sum = 0;
  for (std::uint64_t b : buckets()) sum += b;
  return sum;
}

std::uint64_t Histogram::sum() const {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  return reg.read_slot_locked(base_ +
                              static_cast<std::uint32_t>(detail::kHistBuckets));
}

MetricsSnapshot Domain::snapshot() {
  // Fold this thread's pending scratch in first, so a scope-holding thread
  // (e.g. run_stage bracketing a stage) observes its own increments.
  detail::DomainState& st = detail::domain_state();
  if (st.current == this) {
    for (std::size_t i = 0; i < detail::kMaxSlots; ++i) {
      if (st.scratch[i] != 0) {
        cells_[i].fetch_add(st.scratch[i], std::memory_order_relaxed);
        st.scratch[i] = 0;
      }
    }
  }
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  MetricsSnapshot snap;
  std::vector<const MetricInfo*> sorted;
  sorted.reserve(reg.infos.size());
  for (const MetricInfo& info : reg.infos) sorted.push_back(&info);
  std::sort(sorted.begin(), sorted.end(),
            [](const MetricInfo* a, const MetricInfo* b) {
              return a->name < b->name;
            });
  auto cell = [&](std::uint32_t slot) -> std::uint64_t {
    return slot < detail::kMaxSlots
               ? cells_[slot].load(std::memory_order_relaxed)
               : 0;  // overflow slots are process-global only
  };
  for (const MetricInfo* info : sorted) {
    switch (info->kind) {
      case MetricKind::kCounter:
        snap.counters.push_back(
            {info->name, static_cast<std::int64_t>(cell(info->slot))});
        break;
      case MetricKind::kGauge:
        break;  // process gauges are instantaneous and unattributable
      case MetricKind::kHistogram: {
        std::vector<std::uint64_t> buckets(
            static_cast<std::size_t>(detail::kHistBuckets));
        for (int b = 0; b < detail::kHistBuckets; ++b)
          buckets[static_cast<std::size_t>(b)] =
              cell(info->slot + static_cast<std::uint32_t>(b));
        append_histogram_derived(snap.counters, info->name, buckets);
        break;
      }
    }
  }
  // Domain-owned gauges: the peak-memory marks (sorted order preserved).
  snap.gauges.push_back(
      {"obs.domain.arena_bytes_max", peak(DomainPeak::kArenaBytes)});
  snap.gauges.push_back(
      {"obs.domain.strash_bytes_max", peak(DomainPeak::kStrashBytes)});
  return snap;
}

MetricsSnapshot snapshot() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  MetricsSnapshot snap;
  // Deterministic order: sort by name.
  std::vector<const MetricInfo*> sorted;
  sorted.reserve(reg.infos.size());
  for (const MetricInfo& info : reg.infos) sorted.push_back(&info);
  std::sort(sorted.begin(), sorted.end(),
            [](const MetricInfo* a, const MetricInfo* b) {
              return a->name < b->name;
            });
  for (const MetricInfo* info : sorted) {
    switch (info->kind) {
      case MetricKind::kCounter:
        snap.counters.push_back(
            {info->name,
             static_cast<std::int64_t>(reg.read_slot_locked(info->slot))});
        break;
      case MetricKind::kGauge: {
        auto it = typed().gauges.find(info->name);
        snap.gauges.push_back({info->name, it->second->value()});
        break;
      }
      case MetricKind::kHistogram: {
        std::vector<std::uint64_t> buckets(
            static_cast<std::size_t>(detail::kHistBuckets));
        for (int b = 0; b < detail::kHistBuckets; ++b)
          buckets[static_cast<std::size_t>(b)] =
              reg.read_slot_locked(info->slot + static_cast<std::uint32_t>(b));
        append_histogram_derived(snap.counters, info->name, buckets);
        break;
      }
    }
  }
  return snap;
}

std::vector<HistogramSnapshot> histogram_snapshots() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<HistogramSnapshot> out;
  for (const MetricInfo& info : reg.infos) {
    if (info.kind != MetricKind::kHistogram) continue;
    HistogramSnapshot hs;
    hs.name = info.name;
    hs.buckets.resize(static_cast<std::size_t>(detail::kHistBuckets));
    for (int b = 0; b < detail::kHistBuckets; ++b) {
      hs.buckets[static_cast<std::size_t>(b)] =
          reg.read_slot_locked(info.slot + static_cast<std::uint32_t>(b));
      hs.count += hs.buckets[static_cast<std::size_t>(b)];
    }
    hs.sum = reg.read_slot_locked(
        info.slot + static_cast<std::uint32_t>(detail::kHistBuckets));
    out.push_back(std::move(hs));
  }
  std::sort(out.begin(), out.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

std::string metrics_text() {
  const MetricsSnapshot snap = snapshot();
  const std::vector<HistogramSnapshot> hists = histogram_snapshots();
  std::string out;
  std::size_t width = 0;
  for (const MetricValue& mv : snap.counters)
    width = std::max(width, mv.name.size());
  for (const MetricValue& mv : snap.gauges)
    width = std::max(width, mv.name.size());
  for (const HistogramSnapshot& hs : hists)
    width = std::max(width, hs.name.size());
  auto row = [&](const MetricValue& mv) {
    out += "  ";
    out += mv.name;
    out.append(width - mv.name.size() + 1, ' ');
    out += std::to_string(mv.value);
    out += '\n';
  };
  if (!snap.counters.empty()) out += "counters:\n";
  for (const MetricValue& mv : snap.counters) row(mv);
  if (!snap.gauges.empty()) out += "gauges:\n";
  for (const MetricValue& mv : snap.gauges) row(mv);
  if (!hists.empty()) out += "histograms:\n";
  for (const HistogramSnapshot& hs : hists) {
    out += "  ";
    out += hs.name;
    out.append(width - hs.name.size() + 1, ' ');
    char line[160];
    std::snprintf(line, sizeof(line),
                  "count %llu sum %llu p50 %.1f p95 %.1f p99 %.1f",
                  static_cast<unsigned long long>(hs.count),
                  static_cast<unsigned long long>(hs.sum),
                  percentile_from_buckets(hs.buckets, 0.50),
                  percentile_from_buckets(hs.buckets, 0.95),
                  percentile_from_buckets(hs.buckets, 0.99));
    out += line;
    out += '\n';
  }
  if (out.empty()) out = "(no metrics recorded)\n";
  return out;
}

std::string metrics_json() {
  const MetricsSnapshot snap = snapshot();
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const MetricValue& mv : snap.counters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, mv.name);
    out += "\":";
    out += std::to_string(mv.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const MetricValue& mv : snap.gauges) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, mv.name);
    out += "\":";
    out += std::to_string(mv.value);
  }
  out += "}}";
  return out;
}

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*; everything else
/// (notably the '.' separators of the registry) becomes '_'.
std::string prom_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

}  // namespace

std::string prometheus_text() {
  const MetricsSnapshot snap = snapshot();
  const std::vector<HistogramSnapshot> hists = histogram_snapshots();
  // Histogram-derived pseudo counters (`.count`, `.p50_bucket`) are listed
  // among snap.counters; skip them here -- histograms export natively.
  std::string out;
  for (const MetricValue& mv : snap.counters) {
    bool derived = false;
    for (const HistogramSnapshot& hs : hists) {
      if (mv.name.size() > hs.name.size() &&
          mv.name.compare(0, hs.name.size(), hs.name) == 0 &&
          mv.name[hs.name.size()] == '.') {
        derived = true;
        break;
      }
    }
    if (derived) continue;
    const std::string n = prom_name(mv.name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(mv.value) + "\n";
  }
  for (const MetricValue& mv : snap.gauges) {
    const std::string n = prom_name(mv.name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + std::to_string(mv.value) + "\n";
  }
  for (const HistogramSnapshot& hs : hists) {
    const std::string n = prom_name(hs.name);
    out += "# TYPE " + n + " histogram\n";
    std::uint64_t cum = 0;
    for (int b = 0; b < detail::kHistBuckets - 1; ++b) {
      cum += hs.buckets[static_cast<std::size_t>(b)];
      const std::uint64_t le =
          b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
      out += n + "_bucket{le=\"" + std::to_string(le) + "\"} " +
             std::to_string(cum) + "\n";
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(hs.count) + "\n";
    out += n + "_sum " + std::to_string(hs.sum) + "\n";
    out += n + "_count " + std::to_string(hs.count) + "\n";
  }
  return out;
}

// --- telemetry ring ---------------------------------------------------------

namespace {

struct RingSample {
  std::uint64_t t_us = 0;
  MetricsSnapshot snap;
  struct HistPcts {
    std::string name;
    std::uint64_t count = 0;
    double p50 = 0, p95 = 0, p99 = 0;
  };
  std::vector<HistPcts> pcts;
};

struct Sampler {
  std::mutex mu;
  std::condition_variable cv;
  std::thread thread;
  bool running = false;
  bool stop = false;
  unsigned interval_ms = 0;
  std::size_t capacity = 0;
  std::deque<RingSample> ring;
};

Sampler& sampler() {
  // Leaked for the same reason as the registry: the ring may be read while
  // other statics destruct.
  static Sampler* s = new Sampler();
  return *s;
}

RingSample take_sample() {
  RingSample smp;
  smp.t_us = now_us();
  smp.snap = snapshot();
  for (const HistogramSnapshot& hs : histogram_snapshots()) {
    RingSample::HistPcts p;
    p.name = hs.name;
    p.count = hs.count;
    p.p50 = percentile_from_buckets(hs.buckets, 0.50);
    p.p95 = percentile_from_buckets(hs.buckets, 0.95);
    p.p99 = percentile_from_buckets(hs.buckets, 0.99);
    smp.pcts.push_back(std::move(p));
  }
  return smp;
}

void sampler_loop(Sampler& s) {
  set_thread_name("obs-sampler");
  for (;;) {
    unsigned interval_ms;
    {
      std::unique_lock<std::mutex> lock(s.mu);
      interval_ms = s.interval_ms;
      if (s.cv.wait_for(lock, std::chrono::milliseconds(interval_ms),
                        [&] { return s.stop; })) {
        return;
      }
    }
    RingSample smp = take_sample();  // aggregates outside the sampler lock
    std::lock_guard<std::mutex> lock(s.mu);
    s.ring.push_back(std::move(smp));
    while (s.ring.size() > s.capacity) s.ring.pop_front();
  }
}

}  // namespace

void sampler_start(unsigned interval_ms, std::size_t ring_capacity) {
  sampler_stop();
  Sampler& s = sampler();
  std::lock_guard<std::mutex> lock(s.mu);
  s.stop = false;
  s.interval_ms = interval_ms == 0 ? 1 : interval_ms;
  s.capacity = ring_capacity == 0 ? 1 : ring_capacity;
  while (s.ring.size() > s.capacity) s.ring.pop_front();
  s.running = true;
  s.thread = std::thread([&s] { sampler_loop(s); });
}

void sampler_stop() {
  Sampler& s = sampler();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.running) return;
    s.stop = true;
  }
  s.cv.notify_all();
  s.thread.join();
  std::lock_guard<std::mutex> lock(s.mu);
  s.running = false;
}

bool sampler_running() {
  Sampler& s = sampler();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.running;
}

std::string ring_json() {
  Sampler& s = sampler();
  std::lock_guard<std::mutex> lock(s.mu);
  std::string out = "{\"interval_ms\":";
  out += std::to_string(s.interval_ms);
  out += ",\"capacity\":";
  out += std::to_string(s.capacity);
  out += ",\"samples\":[";
  bool first_sample = true;
  auto object = [&](const std::vector<MetricValue>& values) {
    bool first = true;
    out += '{';
    for (const MetricValue& mv : values) {
      if (!first) out += ',';
      first = false;
      out += '"';
      append_json_escaped(out, mv.name);
      out += "\":";
      out += std::to_string(mv.value);
    }
    out += '}';
  };
  for (const RingSample& smp : s.ring) {
    if (!first_sample) out += ',';
    first_sample = false;
    out += "{\"t_us\":";
    out += std::to_string(smp.t_us);
    out += ",\"counters\":";
    object(smp.snap.counters);
    out += ",\"gauges\":";
    object(smp.snap.gauges);
    out += ",\"percentiles\":{";
    bool first = true;
    for (const RingSample::HistPcts& p : smp.pcts) {
      if (!first) out += ',';
      first = false;
      out += '"';
      append_json_escaped(out, p.name);
      out += "\":{\"count\":";
      out += std::to_string(p.count);
      char buf[96];
      std::snprintf(buf, sizeof(buf), ",\"p50\":%.2f,\"p95\":%.2f,\"p99\":%.2f}",
                    p.p50, p.p95, p.p99);
      out += buf;
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

// --- tracing ----------------------------------------------------------------

void set_tracing(bool on) {
  detail::g_tracing.store(on, std::memory_order_relaxed);
}

void trace_clear() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  // Invalidate in-flight spans first: once a buffer is cleared below, any
  // span that started before this call sees a stale epoch and drops itself.
  detail::g_trace_epoch.fetch_add(1, std::memory_order_relaxed);
  for (ThreadTraceBuf* buf : reg.live_bufs) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    buf->events.clear();
  }
  reg.retired_bufs.clear();
}

std::size_t trace_size() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::size_t n = 0;
  for (ThreadTraceBuf* buf : reg.live_bufs) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    n += buf->events.size();
  }
  for (const TraceBufData& buf : reg.retired_bufs) n += buf.events.size();
  return n;
}

void set_thread_name(const std::string& name) {
  ThreadTraceBuf& buf = thread_trace_buf();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.name = name;
}

namespace {

void append_trace_events(std::string& out, const TraceBufData& buf,
                         bool& first) {
  if (!buf.name.empty()) {
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(buf.tid);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    append_json_escaped(out, buf.name);
    out += "\"}}";
  }
  for (const TraceEvent& ev : buf.events) {
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(buf.tid);
    out += ",\"name\":\"";
    append_json_escaped(out, ev.literal != nullptr ? std::string_view(ev.literal)
                                                   : std::string_view(ev.owned));
    out += "\",\"ts\":";
    out += std::to_string(ev.start_us);
    out += ",\"dur\":";
    out += std::to_string(ev.dur_us);
    out += '}';
  }
}

}  // namespace

std::string trace_json() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (ThreadTraceBuf* buf : reg.live_bufs) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    append_trace_events(out, *buf, first);
  }
  for (const TraceBufData& buf : reg.retired_bufs)
    append_trace_events(out, buf, first);
  out += "]}";
  return out;
}

bool trace_dump(const std::string& path) {
  const std::string json = trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

std::vector<SpanStats> aggregate_spans(std::uint64_t since_us) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::map<std::string, SpanStats> agg;
  auto fold = [&](const TraceBufData& buf) {
    for (const TraceEvent& ev : buf.events) {
      if (ev.start_us < since_us) continue;
      const std::string name =
          ev.literal != nullptr ? std::string(ev.literal) : ev.owned;
      SpanStats& st = agg[name];
      st.name = name;
      st.count += 1;
      st.seconds += static_cast<double>(ev.dur_us) * 1e-6;
    }
  };
  for (ThreadTraceBuf* buf : reg.live_bufs) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    fold(*buf);
  }
  for (const TraceBufData& buf : reg.retired_bufs) fold(buf);
  std::vector<SpanStats> out;
  out.reserve(agg.size());
  for (auto& [name, st] : agg) out.push_back(std::move(st));
  std::sort(out.begin(), out.end(), [](const SpanStats& a, const SpanStats& b) {
    if (a.seconds != b.seconds) return a.seconds > b.seconds;
    return a.name < b.name;
  });
  return out;
}

void init_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* path = std::getenv("MCS_TRACE");
    if (path == nullptr || *path == '\0') return;
    g_trace_path = path;
    set_tracing(true);
    std::atexit(dump_trace_at_exit);
  });
}

#else  // MCS_OBS_DISABLE -----------------------------------------------------

namespace {
// Single shared no-op instances: the stubs carry no state.
Counter g_counter;
Gauge g_gauge;
Histogram g_histogram;
}  // namespace

Counter& counter(std::string_view) { return g_counter; }
Gauge& gauge(std::string_view) { return g_gauge; }
Histogram& histogram(std::string_view) { return g_histogram; }
std::string metrics_text() { return "(observability disabled at build time)\n"; }
std::string metrics_json() { return "{\"counters\":{},\"gauges\":{}}"; }
std::string prometheus_text() { return ""; }
std::string ring_json() {
  return "{\"interval_ms\":0,\"capacity\":0,\"samples\":[]}";
}
std::string trace_json() {
  return "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}";
}

#endif  // MCS_OBS_DISABLE

}  // namespace mcs::obs
