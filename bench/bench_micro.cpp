/// Microbenchmarks for the core kernels: structural hashing, cut
/// enumeration, SAT sweeping, the partition-parallel drivers, CEC, random
/// simulation, MCH construction, NPN canonicalization and both mappers.
///
/// Each mode runs a fixed set of hand-timed benches and appends one JSON
/// object per line (see bench_util::JsonLine) to PATH:
///   - `--json[=PATH]`: the perf-baseline kernel suite (best of N
///     repetitions; default PATH BENCH_kernel.json);
///   - `--json-par[=PATH]`: thread scaling of the parallel drivers, CEC and
///     simulation (default BENCH_par.json);
///   - `--json-sweep[=PATH]`: thread scaling of the fraig engine (default
///     BENCH_sweep.json).
/// The files are the input of bench/compare_bench.py and the committed
/// perf trajectory.  Without a mode the binary prints usage and exits 2, so
/// a bare run never appends to a committed baseline.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "mcs/choice/mch.hpp"
#include "mcs/circuits/circuits.hpp"
#include "mcs/common/rng.hpp"
#include "mcs/cut/enumeration.hpp"
#include "mcs/map/asic_mapper.hpp"
#include "mcs/map/lut_mapper.hpp"
#include "mcs/network/convert.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/opt/optimize.hpp"
#include "mcs/par/par_engine.hpp"
#include "mcs/sat/cec.hpp"
#include "mcs/sim/simulator.hpp"
#include "mcs/sweep/sweep.hpp"
#include "mcs/tt/npn.hpp"

namespace {

using namespace mcs;

const Network& medium_circuit() {
  static const Network net = expand_to_aig(circuits::multiplier(8));
  return net;
}

const Network& large_circuit() {
  static const Network net = expand_to_aig(circuits::multiplier(64));
  return net;
}

// --- perf-baseline kernel suite ---------------------------------------------

/// Times fn() `reps` times and returns the best (minimum) seconds.
template <typename Fn>
double best_of(int reps, const Fn& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    bench::Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

void run_kernel_suite(const char* path) {
  std::FILE* out = std::fopen(path, "a");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(stderr, "bench_micro: kernel suite -> %s\n", path);

  {
    // Steady-state per-pass enumeration (reset + run), exactly how the
    // mappers drive the kernel across their recovery passes.
    const Network& net = large_circuit();
    const auto order = topo_order(net);
    CutEnumerator cuts(net, {.cut_size = 6, .cut_limit = 8});
    std::size_t cuts_total = 0;
    bench::MetricsWindow window;
    const double s = best_of(5, [&] {
      cuts.reset();
      cuts.run(order);
      cuts_total = cuts.total_cuts();
    });
    bench::JsonLine("cut_enum_mult64_k6", out)
        .field("seconds", s)
        .field("gates", net.num_gates())
        .field("cuts", cuts_total)
        .field("items_per_sec", static_cast<double>(net.num_gates()) / s)
        .object("metrics", window.delta_json());
  }
  {
    // Batched: one run is ~0.4 ms, too short for a stable reading.
    constexpr int kBatch = 50;
    const Network& net = medium_circuit();
    const auto order = topo_order(net);
    CutEnumerator cuts(net, {.cut_size = 4, .cut_limit = 8});
    const double s = best_of(5, [&] {
      for (int i = 0; i < kBatch; ++i) {
        cuts.reset();
        cuts.run(order);
      }
    }) / kBatch;
    bench::JsonLine("cut_enum_mult8_k4", out)
        .field("seconds", s)
        .field("gates", net.num_gates())
        .field("items_per_sec", static_cast<double>(net.num_gates()) / s);
  }
  {
    constexpr int kOps = 500000;
    bench::MetricsWindow window;
    const double s = best_of(7, [&] {
      Network net;
      Rng rng(7);
      std::vector<Signal> pool;
      for (int i = 0; i < 64; ++i) pool.push_back(net.create_pi());
      for (int i = 0; i < kOps; ++i) {
        const Signal a = pool[rng.next_below(pool.size())] ^ rng.next_bool();
        const Signal b = pool[rng.next_below(pool.size())] ^ rng.next_bool();
        pool.push_back(net.create_and(a, b));
      }
    });
    bench::JsonLine("strash_insert", out)
        .field("seconds", s)
        .field("items_per_sec", static_cast<double>(kOps) / s)
        .object("metrics", window.delta_json());
  }
  {
    // Hit-path lookups: every gate of the large circuit resolved again
    // (batched for a stable reading).
    constexpr int kBatch = 20;
    const Network& net = large_circuit();
    std::size_t hits = 0;
    bench::MetricsWindow window;
    const double s = best_of(5, [&] {
      hits = 0;
      for (int i = 0; i < kBatch; ++i) {
        for (NodeId n = 0; n < net.size(); ++n) {
          if (!net.is_gate(n)) continue;
          const Node& nd = net.node(n);
          hits += net.lookup_gate(nd.type, nd.fanin) == n;
        }
      }
    }) / kBatch;
    bench::JsonLine("strash_lookup", out)
        .field("seconds", s)
        .field("hits", hits / kBatch)
        .field("items_per_sec",
               static_cast<double>(hits / kBatch) / s)
        .object("metrics", window.delta_json());
  }
  {
    const Network& net = medium_circuit();
    std::size_t luts = 0;
    const double s = best_of(5, [&] {
      LutMapStats stats;
      const LutNetwork l = lut_map(net, {}, &stats);
      luts = l.size();
    });
    bench::JsonLine("lut_map_mult8", out)
        .field("seconds", s)
        .field("luts", luts)
        .field("items_per_sec", static_cast<double>(net.num_gates()) / s);
  }
  {
    const Network& net = medium_circuit();
    const TechLibrary lib = TechLibrary::asap7_mini();
    const double s = best_of(2, [&] {
      AsicMapParams p;
      asic_map(net, lib, p);
    });
    bench::JsonLine("asic_map_mult8", out)
        .field("seconds", s)
        .field("items_per_sec", static_cast<double>(net.num_gates()) / s);
  }
  {
    const Network& net = medium_circuit();
    const double s = best_of(2, [&] {
      MchParams params;
      params.candidate_basis = GateBasis::xmg();
      build_mch(net, params);
    });
    bench::JsonLine("mch_mult8", out)
        .field("seconds", s)
        .field("items_per_sec", static_cast<double>(net.num_gates()) / s);
  }
  {
    // Large enough that the acyclicity guard's cost per attach shows: its
    // work counters (searches, re-rankings) ride along in `metrics`.
    const Network net = expand_to_aig(circuits::multiplier(32));
    std::size_t choices = 0;
    bench::MetricsWindow window;
    const double s = best_of(2, [&] {
      MchStats stats;
      build_mch(net, {}, &stats);
      choices = stats.num_choices_added;
    });
    bench::JsonLine("mch_mult32", out)
        .field("seconds", s)
        .field("choices", choices)
        .field("items_per_sec", static_cast<double>(net.num_gates()) / s)
        .object("metrics", window.delta_json());
  }
  {
    // Every 4-input function, the space the NPN-4 caches and the ASIC
    // mapper's match lists draw from.
    constexpr std::uint32_t kFunctions = 1u << 16;
    std::size_t classes = 0;  // functions that are their own canon: 222
    const double s = best_of(3, [&] {
      classes = 0;
      for (std::uint32_t f = 0; f < kFunctions; ++f) {
        const Tt6 canon = npn_canonicalize_exact(f, 4).canon;
        classes += (canon & tt6_mask(4)) == f;
      }
    });
    bench::JsonLine("npn_canon4", out)
        .field("seconds", s)
        .field("classes", classes)
        .field("items_per_sec", static_cast<double>(kFunctions) / s);
  }
  {
    // The 12-bit multiplier's LUT-flow sign-off (24 inputs): the opening
    // solve, then enumeration of every input pattern.  Work per check:
    // gate_words simulated, solves (cec.batches) and the fraig passes'
    // sat_calls, 0 unless the check falls back onto them.
    flow::FlowContext ctx;
    flow::run_flow(
        "gen:multiplier,bits=12; compress2rs:rounds=2; "
        "mch:basis=xmg,ratio=0.9; map_lut:k=6",
        ctx);
    const Network mapped = lut_network_to_network(*ctx.luts);
    constexpr int kReps = 3;
    auto count = [](const char* name) { return obs::counter(name).value(); };
    const std::uint64_t gate_words = count("sim.gate_words");
    const std::uint64_t solves = count("cec.batches");
    const std::uint64_t sat_calls = count("sweep.sat_calls");
    bench::MetricsWindow window;
    const double s = best_of(kReps, [&] {
      if (check_equivalence(*ctx.original, mapped) != CecResult::kEquivalent) {
        std::fprintf(stderr, "bench_micro: cec_lut_mult12 not proven\n");
        std::exit(1);
      }
    });
    const std::uint64_t words = (count("sim.gate_words") - gate_words) / kReps;
    bench::JsonLine("cec_lut_mult12", out)
        .field("seconds", s)
        .field("gate_words", words)
        .field("solves", (count("cec.batches") - solves) / kReps)
        .field("sat_calls", (count("sweep.sat_calls") - sat_calls) / kReps)
        .field("items_per_sec", static_cast<double>(words) / s)
        .object("metrics", window.delta_json());
  }
  std::fclose(out);
}

// --- par_scaling suite ------------------------------------------------------

/// Thread-scaling suite over the end-to-end parallel paths: par_run with
/// compress2rs_like (the work of `par:pass=compress2rs`), lut_map's own
/// parallel passes on the whole MCH network (the work of `map_lut`), CEC
/// and random simulation on the 64-bit multiplier at 1/2/4/8 threads.  One
/// JSON line per (bench, threads) pair carrying seconds, speedup vs the
/// run's own 1-thread time, a determinism check against the 1-thread
/// result, and the machine's hardware concurrency (committed baselines from
/// small machines are flagged, not trusted).
/// MCS_PAR_BENCH_BITS (4..128) shrinks the multiplier for CI smoke runs.
void run_par_suite(const char* path) {
  const int bits = bench::env_number("MCS_PAR_BENCH_BITS", 64, 4, 128,
                                     flow::parse_int);
  std::FILE* out = std::fopen(path, "a");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot open %s\n", path);
    std::exit(1);
  }
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::fprintf(stderr,
               "bench_micro: par_scaling suite (multiplier %d, hardware "
               "concurrency %zu) -> %s\n",
               bits, hw, path);
  const Network net = expand_to_aig(circuits::multiplier(bits));
  const std::string circuit = "multiplier" + std::to_string(bits);
  const int thread_counts[] = {1, 2, 4, 8};

  auto emit = [&](const char* bench, int threads, double seconds,
                  double base_seconds, bool deterministic) {
    bench::JsonLine(bench, out)
        .field("circuit", circuit)
        .field("threads", threads)
        .field("seconds", seconds)
        .field("speedup", seconds > 0.0 ? base_seconds / seconds : 0.0)
        .field("deterministic", deterministic)
        .field("hardware_threads", static_cast<std::size_t>(hw));
  };

  {
    Network reference;
    double base = 0.0;
    for (const int t : thread_counts) {
      ParParams params;
      params.num_threads = t;
      params.partition.max_gates = 2000;
      bench::Timer timer;
      const Network result = par_run(
          net,
          [](const Network& shard) {
            return compress2rs_like(shard, GateBasis::xmg(), 1);
          },
          params);
      const double s = timer.seconds();
      if (t == 1) {
        base = s;
        reference = result;
      }
      emit("par_opt_mult", t, s, base, structurally_identical(result, reference));
    }
  }
  {
    const Network mch = build_mch(net, {});
    LutNetwork reference;
    double base = 0.0;
    for (const int t : thread_counts) {
      LutMapParams params;
      params.num_threads = t;
      bench::Timer timer;
      const LutNetwork luts = lut_map(mch, params);
      const double s = timer.seconds();
      if (t == 1) {
        base = s;
        reference = luts;
      }
      emit("map_lut_mult", t, s, base, luts == reference);
    }
  }
  {
    // CEC: ripple adder vs its resynthesized XMG, a tractable miter
    // (multiplier miters are SAT-hard regardless of the harness).  Stage 1
    // is the level-blocked parallel simulation; of stage 2 only the fraig
    // passes run on several threads.  The two networks must differ, or the
    // strashed miter closes every pair and no proof is timed.
    const Network ripple = expand_to_aig(circuits::adder(4 * bits));
    const Network resynth = compress2rs_like(ripple, GateBasis::xmg(), 1);
    if (structurally_identical(ripple, resynth)) {
      std::fprintf(stderr, "bench_micro: cec_adder pair is identical\n");
      std::exit(1);
    }
    const std::string cec_circuit = "adder" + std::to_string(4 * bits);
    double base = 0.0;
    CecResult reference = CecResult::kUnknown;
    for (const int t : thread_counts) {
      CecOptions opts;
      opts.num_threads = t;
      CecResult r = CecResult::kUnknown;
      const double s =
          best_of(2, [&] { r = check_equivalence(ripple, resynth, opts); });
      if (t == 1) {
        base = s;
        reference = r;
      }
      bench::JsonLine("cec_adder", out)
          .field("circuit", cec_circuit)
          .field("threads", t)
          .field("seconds", s)
          .field("speedup", s > 0.0 ? base / s : 0.0)
          .field("deterministic", r == reference)
          .field("equivalent", r == CecResult::kEquivalent)
          .field("hardware_threads", static_cast<std::size_t>(hw));
    }
  }
  {
    // The raw level-blocked simulation sweep (64 words per node).
    std::uint64_t ref_sig = 0;
    double base = 0.0;
    for (const int t : thread_counts) {
      std::uint64_t sig = 0;
      const double s = best_of(3, [&] {
        RandomSimulation sim(net, 64, 0xbeef, t);
        sig = sim.signature(net.po_at(net.num_pos() - 1));
      });
      if (t == 1) {
        base = s;
        ref_sig = sig;
      }
      emit("sim_mult", t, s, base, sig == ref_sig);
    }
  }
  std::fclose(out);
}

// --- sweep scaling suite ----------------------------------------------------

/// Thread-scaling suite over the SAT-sweeping engine: fraig on the 64-bit
/// multiplier at 1/2/4/8 threads (one JSON line each, with speedup vs the
/// run's own 1-thread time and a bit-identity determinism check), and the
/// proof-heavy workload -- a 256-bit AIG-vs-XMG adder miter whose hundreds
/// of locally-provable pairs must collapse every PO to constant 0.
/// MCS_SWEEP_BENCH_BITS (4..128) shrinks the multiplier for CI smoke runs.
void run_sweep_suite(const char* path) {
  const int bits = bench::env_number("MCS_SWEEP_BENCH_BITS", 64, 4, 128,
                                     flow::parse_int);
  std::FILE* out = std::fopen(path, "a");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot open %s\n", path);
    std::exit(1);
  }
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::fprintf(stderr,
               "bench_micro: sweep scaling suite (multiplier %d, hardware "
               "concurrency %zu) -> %s\n",
               bits, hw, path);
  const Network net = expand_to_aig(circuits::multiplier(bits));
  const std::string circuit = "multiplier" + std::to_string(bits);

  Network reference;
  double base = 0.0;
  for (const int t : {1, 2, 4, 8}) {
    FraigParams params;
    params.num_threads = t;
    FraigStats stats;
    bench::MetricsWindow window;
    bench::Timer timer;
    const Network result = fraig(net, params, &stats);
    const double s = timer.seconds();
    if (t == 1) {
      base = s;
      reference = result;
    }
    bench::JsonLine("fraig_mult", out)
        .field("circuit", circuit)
        .field("threads", t)
        .field("seconds", s)
        .field("speedup", s > 0.0 ? base / s : 0.0)
        .field("deterministic", structurally_identical(result, reference))
        .field("gates", result.num_gates())
        .field("proven", stats.num_proven)
        .field("rounds", stats.num_rounds)
        .field("hardware_threads", static_cast<std::size_t>(hw))
        .object("metrics", window.delta_json());
  }

  // The proof-heavy workload: both 256-bit adder forms in one network,
  // POs pairwise XORed.  Every carry/sum pair is locally provable, so the
  // engine cascades through hundreds of miters and every PO collapses to
  // constant 0 (checked per row as `collapsed`).
  {
    const Network xmg = circuits::adder(256);
    const Network aig = expand_to_aig(xmg);
    Network miter;
    std::vector<Signal> pis;
    for (std::size_t i = 0; i < aig.num_pis(); ++i) {
      pis.push_back(miter.create_pi());
    }
    for (std::size_t i = 0; i < aig.num_pos(); ++i) {
      const Signal pa = copy_cone(aig, miter, aig.po_at(i), pis);
      const Signal pb = copy_cone(xmg, miter, xmg.po_at(i), pis);
      miter.create_po(miter.create_xor(pa, pb));
    }
    Network miter_reference;
    double miter_base = 0.0;
    for (const int t : {1, 2, 4, 8}) {
      FraigParams params;
      params.num_threads = t;
      FraigStats stats;
      bench::MetricsWindow window;
      bench::Timer timer;
      const Network result = fraig(miter, params, &stats);
      const double s = timer.seconds();
      if (t == 1) {
        miter_base = s;
        miter_reference = result;
      }
      bench::JsonLine("fraig_adder_miter", out)
          .field("circuit", std::string("adder256_aig_vs_xmg"))
          .field("threads", t)
          .field("seconds", s)
          .field("speedup", s > 0.0 ? miter_base / s : 0.0)
          .field("deterministic",
                 structurally_identical(result, miter_reference))
          .field("collapsed", result.num_gates() == 0)
          .field("proven", stats.num_proven)
          .field("hardware_threads", static_cast<std::size_t>(hw))
          .object("metrics", window.delta_json());
    }
  }
  std::fclose(out);
}

/// The PATH of `FLAG=PATH`, \p fallback for a bare FLAG, or nullptr when
/// the flag is absent.
const char* flag_path(int argc, char** argv, const std::string& flag,
                      const char* fallback) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == flag) return fallback;
    if (arg.rfind(flag + "=", 0) == 0) return argv[i] + flag.size() + 1;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  obs::init_from_env();
  const struct {
    const char* flag;
    const char* baseline;
    void (*run)(const char* path);
  } kSuites[] = {
      {"--json-par", "BENCH_par.json", run_par_suite},
      {"--json-sweep", "BENCH_sweep.json", run_sweep_suite},
      {"--json", "BENCH_kernel.json", run_kernel_suite},
  };
  for (const auto& suite : kSuites) {
    if (const char* path = flag_path(argc, argv, suite.flag, suite.baseline)) {
      suite.run(path);
      return 0;
    }
  }
  std::fprintf(stderr,
               "usage: bench_micro --json[=PATH] | --json-par[=PATH] | "
               "--json-sweep[=PATH]\n");
  return 2;
}
