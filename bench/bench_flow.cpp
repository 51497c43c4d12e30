/// \file bench_flow.cpp
/// \brief The paper flow (optimize -> mch -> map_lut -> cec) as a flow
/// spec, run over a slice of the generated suite through the shared
/// run_flow() entry point.  Demonstrates that a bench is now one spec
/// string instead of a hand-wired pass sequence, and emits one JSON line
/// per stage (see bench_util::emit_flow_report).
///
/// Knobs:
///   MCS_FLOW_SPEC      override the per-circuit spec; "%s" is replaced by
///                      the circuit's `gen` stage (default paper flow)
///   MCS_FLOW_THREADS   > 1 switches to the parallel variant with that
///                      worker count: optimization and choices under
///                      `par:`, then `map_lut:k=6` on the same threads
///   MCS_FLOW_ONLY      run just the named circuit (e.g. "multiplier") --
///                      pairs with MCS_FLOW_SPEC for single-flow timing
///   MCS_FLOW_REPEAT    run the suite N times (default 1) and print the
///                      summed flow seconds -- the stable-timing loop of
///                      the obs-overhead check (enabled+sampler build vs
///                      -DMCS_OBS_DISABLE must stay within a few percent)
///   MCS_FLOW_SAMPLER   > 0 runs the whole suite with the telemetry
///                      sampler live at that interval in ms (ring of 120),
///                      mirroring a serving deployment; no-op stub under
///                      MCS_OBS_DISABLE
///
/// A numeric knob that is junk or out of range exits 2, naming the variable.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mcs/flow/flow.hpp"

using namespace mcs;

namespace {

struct Circuit {
  const char* name;
  const char* gen;  ///< the flow `gen` stage (kept small for CI runs)
};

constexpr Circuit kCircuits[] = {
    {"adder", "gen:adder,bits=32"},
    {"bar", "gen:bar,bits=16"},
    {"multiplier", "gen:multiplier,bits=8"},
    {"dec", "gen:dec,bits=5"},
    {"ctrl", "gen:ctrl"},
};

}  // namespace

int main() {
  obs::init_from_env();
  const char* spec_env = std::getenv("MCS_FLOW_SPEC");
  const int threads =
      bench::env_number("MCS_FLOW_THREADS", 1, 0, 256, flow::parse_int);
  const char* only = std::getenv("MCS_FLOW_ONLY");
  const int repeat =
      bench::env_number("MCS_FLOW_REPEAT", 1, 1, 10000, flow::parse_int);
  const int interval_ms =
      bench::env_number("MCS_FLOW_SAMPLER", 0, 0, 60000, flow::parse_int);
  if (interval_ms > 0) {
    obs::sampler_start(static_cast<unsigned>(interval_ms), 120);
  }

  const std::string serial_tail =
      "; compress2rs:rounds=2; mch:basis=xmg,ratio=0.9; map_lut:k=6; cec";
  const std::string parallel_tail =
      "; par:pass=compress2rs,rounds=2; par:pass=mch,basis=xmg,ratio=0.9; "
      "map_lut:k=6; cec";

  bool all_ok = true;
  double total_seconds = 0.0;
  for (int iter = 0; iter < repeat; ++iter) {
    for (const Circuit& circuit : kCircuits) {
      if (only && circuit.name != std::string(only)) continue;
      std::string spec;
      if (spec_env) {
        spec = spec_env;
        const std::size_t hole = spec.find("%s");
        if (hole != std::string::npos) {
          spec.replace(hole, 2, circuit.gen);
        }
      } else {
        spec = std::string(circuit.gen) +
               (threads > 1 ? parallel_tail : serial_tail);
      }

      flow::FlowContext ctx;
      ctx.par.num_threads = threads;
      const flow::FlowReport report = flow::run_flow(spec, ctx);
      if (iter == 0) {
        bench::emit_flow_report("flow", circuit.name, report);
      }
      all_ok = all_ok && report.ok;
      total_seconds += report.total_seconds;
    }
  }
  if (repeat > 1) {
    std::fprintf(stderr, "bench_flow: %d iterations, %.3f s summed flow time\n",
                 repeat, total_seconds);
  }
  obs::sampler_stop();
  return all_ok ? 0 : 1;
}
