/// Shared infrastructure for the table/figure reproduction benches:
/// timing, geometric means, table printing and fast functional checks.

#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include "mcs/common/json.hpp"
#include "mcs/flow/flow.hpp"
#include "mcs/map/asic_mapper.hpp"
#include "mcs/network/network.hpp"
#include "mcs/obs/obs.hpp"
#include "mcs/sim/simulator.hpp"

namespace mcs::bench {

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Geometric mean of positive values (zeros are clamped to a small epsilon
/// so degenerate rows cannot zero the whole mean).
inline double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double acc = 0.0;
  for (const double v : values) acc += std::log(std::max(v, 1e-9));
  return std::exp(acc / static_cast<double>(values.size()));
}

/// Improvement of `ours` vs `base` in percent (positive = better/smaller).
inline double improvement(double base, double ours) {
  return 100.0 * (base - ours) / base;
}

/// Reads environment variable \p name with \p parse (flow::parse_int or
/// flow::parse_double) as a number in [\p lo, \p hi]; \p dflt when unset.
/// Junk ("4junk", "nan") or an out-of-range value is a usage error: the
/// bench exits 2 naming the variable rather than run on a value it
/// silently substituted.
template <class T, class Parse>
T env_number(const char* name, T dflt, T lo, T hi, Parse parse) {
  const char* text = std::getenv(name);
  if (text == nullptr) return dflt;
  const auto v = parse(text);
  if (!v || *v < lo || *v > hi) {
    std::fprintf(stderr, "%s must be %s in [%g, %g], got '%s'\n", name,
                 std::is_integral_v<T> ? "a whole number" : "a number",
                 static_cast<double>(lo), static_cast<double>(hi), text);
    std::exit(2);
  }
  return static_cast<T>(*v);
}

/// Scale factor for the generated suite: MCS_SCALE in [0.05, 1]; the
/// default keeps the full 6-flow evaluation around a few minutes on one core.
inline double suite_scale_or(double dflt) {
  return env_number("MCS_SCALE", dflt, 0.05, 1.0, flow::parse_double);
}
inline double suite_scale() { return suite_scale_or(0.6); }

/// Fast functional check: word-parallel random simulation of the original
/// network vs an ASIC cell netlist (the unit tests carry the full formal
/// CEC burden; benches use 2048 random vectors).
inline bool sim_check(const Network& net, const CellNetlist& m,
                      std::uint64_t seed = 0xbadc0de) {
  RandomSimulation sim(net, 32, seed);
  for (int w = 0; w < 32; ++w) {
    std::vector<std::uint64_t> pi_vals;
    for (std::size_t i = 0; i < net.num_pis(); ++i) {
      pi_vals.push_back(sim.node_values(net.pi_at(i))[w]);
    }
    const auto pos = m.simulate(pi_vals);
    for (std::size_t i = 0; i < net.num_pos(); ++i) {
      const Signal s = net.po_at(i);
      const std::uint64_t expect =
          sim.node_values(s.node())[w] ^ (s.complemented() ? ~0ull : 0ull);
      if (pos[i] != expect) return false;
    }
  }
  return true;
}

/// Secondary sink for all JsonLine output: when MCS_BENCH_OUT names a file,
/// every line is appended there in addition to stdout (opened once, shared
/// by every bench in the process).  This is how bench runs leave a
/// machine-readable trace (e.g. BENCH_kernel.json) for compare_bench.py
/// without redirect plumbing in CI.
inline std::FILE* bench_out_file() {
  static std::FILE* f = [] {
    const char* path = std::getenv("MCS_BENCH_OUT");
    return path != nullptr ? std::fopen(path, "a") : nullptr;
  }();
  return f;
}

/// Minimal machine-readable result emitter: one JSON object per line, e.g.
///   bench::JsonLine("parallel").field("threads", 4).field("seconds", 1.5);
/// prints {"bench": "parallel", "threads": 4, "seconds": 1.5} on
/// destruction.  Keeps the bench outputs greppable and scriptable without
/// a JSON dependency.  Pass an explicit FILE* to write somewhere other
/// than stdout (+ the MCS_BENCH_OUT duplicate).
class JsonLine {
 public:
  explicit JsonLine(const std::string& bench, std::FILE* out = nullptr)
      : out_(out) {
    line_ = "{\"bench\": " + json_quote(bench);
  }
  JsonLine(const JsonLine&) = delete;
  JsonLine& operator=(const JsonLine&) = delete;
  ~JsonLine() {
    std::fprintf(out_ ? out_ : stdout, "%s}\n", line_.c_str());
    if (out_ == nullptr) {
      if (std::FILE* dup = bench_out_file()) {
        std::fprintf(dup, "%s}\n", line_.c_str());
        std::fflush(dup);
      }
    }
  }

  JsonLine& field(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return raw(key, buf);
  }
  JsonLine& field(const std::string& key, std::size_t value) {
    return raw(key, std::to_string(value));
  }
  JsonLine& field(const std::string& key, int value) {
    return raw(key, std::to_string(value));
  }
  JsonLine& field(const std::string& key, const std::string& value) {
    return raw(key, json_quote(value));
  }
  JsonLine& field(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  /// Embeds \p json verbatim as a nested value (the caller guarantees it is
  /// well-formed JSON); used for the per-row metrics objects.
  JsonLine& object(const std::string& key, const std::string& json) {
    return raw(key, json);
  }

 private:
  // json_quote escapes control characters (e.g. newlines in captured
  // error notes), which would break the one-JSON-object-per-line contract.
  JsonLine& raw(const std::string& key, const std::string& value) {
    line_ += ", " + json_quote(key) + ": " + value;
    return *this;
  }
  std::FILE* out_;
  std::string line_;
};

/// Counter movement over a code region, attachable to bench rows as a
/// nested `"metrics"` object (flat counter-name -> delta).  compare_bench.py
/// diffs these alongside wall time, catching work-amount regressions (e.g.
/// strash probe blow-ups, sweep SAT-call count changes) that timing noise
/// hides.  With MCS_OBS_DISABLE the object is empty and the diff is a
/// no-op.
class MetricsWindow {
 public:
  MetricsWindow() : before_(obs::snapshot()) {}

  /// Restarts the window (e.g. after warm-up iterations).
  void reset() { before_ = obs::snapshot(); }

  /// The counters that moved since construction/reset, as one JSON object.
  std::string delta_json() const {
    const obs::MetricsSnapshot d = obs::snapshot_delta(before_);
    std::string out = "{";
    for (std::size_t i = 0; i < d.counters.size(); ++i) {
      if (i) out += ", ";
      out += '"' + d.counters[i].name + "\": " +
             std::to_string(d.counters[i].value);
    }
    out += "}";
    return out;
  }

  void attach(JsonLine& line) const { line.object("metrics", delta_json()); }

 private:
  obs::MetricsSnapshot before_;
};

/// Emits a flow::FlowReport as JSON lines: one line per stage plus a
/// summary line, each tagged with the bench and circuit names.  This is
/// how the flow-based benches keep their output greppable/scriptable.
inline void emit_flow_report(const std::string& bench,
                             const std::string& circuit,
                             const flow::FlowReport& report) {
  for (std::size_t i = 0; i < report.stages.size(); ++i) {
    const flow::StageReport& s = report.stages[i];
    JsonLine line(bench);
    line.field("circuit", circuit)
        .field("stage", i)
        .field("pass", s.pass)
        .field("args", s.args)
        .field("ok", s.ok)
        .field("seconds", s.seconds)
        .field("gates", s.gates)
        .field("depth", static_cast<std::size_t>(s.depth))
        .field("choices", s.choices);
    if (s.luts) {
      line.field("luts", s.luts)
          .field("lut_depth", static_cast<std::size_t>(s.lut_depth));
    }
    if (s.cells) {
      line.field("cells", s.cells).field("area", s.area).field("delay",
                                                               s.delay);
    }
    if (!s.note.empty()) line.field("note", s.note);
  }
  JsonLine(bench)
      .field("circuit", circuit)
      .field("summary", true)
      .field("ok", report.ok)
      .field("total_seconds", report.total_seconds);
}

/// Network-vs-network simulation check (same PI/PO interface).
inline bool sim_check(const Network& a, const Network& b,
                      std::uint64_t seed = 0xbadc0de) {
  RandomSimulation sa(a, 32, seed);
  RandomSimulation sb(b, 32, seed);
  for (std::size_t i = 0; i < a.num_pos(); ++i) {
    const Signal pa = a.po_at(i);
    const Signal pb = b.po_at(i);
    const std::uint64_t flip =
        pa.complemented() != pb.complemented() ? ~0ull : 0ull;
    for (int w = 0; w < 32; ++w) {
      if ((sa.node_values(pa.node())[w] ^ flip) !=
          sb.node_values(pb.node())[w]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace mcs::bench
