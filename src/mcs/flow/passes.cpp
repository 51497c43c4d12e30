/// \file passes.cpp
/// \brief Core pass registrations: benchmark generation, AIGER/BLIF/Verilog
/// io, network analysis (ps/cec), structural housekeeping (strash, to,
/// detect_xors) and the flow settings (threads/partsize/seed).

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

#include "mcs/circuits/circuits.hpp"
#include "mcs/flow/flow.hpp"
#include "mcs/flow/registration.hpp"
#include "mcs/io/aiger.hpp"
#include "mcs/io/writers.hpp"
#include "mcs/network/convert.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/par/thread_pool.hpp"
#include "mcs/sat/cec.hpp"
#include "mcs/sim/simulator.hpp"

// The registrations below use designated initializers and deliberately
// leave defaulted PassInfo/ParamSpec members out; GCC's -Wextra flags
// every omitted member, so silence that one diagnostic here.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
#endif

namespace mcs::flow {

namespace {

void load_network(FlowContext& ctx, Network net) {
  ctx.net = std::move(net);
  ctx.original = ctx.net;
  ctx.luts.reset();
  ctx.cells.reset();
}

/// What `cec` and `sim` verify: every mapped artifact present, rebuilt as a
/// network, or the working network when nothing is mapped.  Calls
/// \p check(subject, label) on each, where label is " (LUT network)",
/// " (cell netlist)" or "", and returns the label naming all of them.
std::string check_subjects(
    const FlowContext& ctx,
    const std::function<void(const Network&, const std::string&)>& check) {
  std::string names;
  auto check_mapped = [&](const Network& rebuilt, const std::string& name) {
    check(rebuilt, " (" + name + ")");
    names += (names.empty() ? "" : ", ") + name;
  };
  if (ctx.luts) check_mapped(lut_network_to_network(*ctx.luts), "LUT network");
  if (ctx.cells) {
    check_mapped(cell_netlist_to_network(*ctx.cells), "cell netlist");
  }
  if (names.empty()) {
    check(ctx.net, "");
    return "";
  }
  return " (" + names + ")";
}

}  // namespace

void register_core_passes(PassRegistry& registry) {
  // --- sources --------------------------------------------------------------
  registry.add({
      .name = "gen",
      .summary = "generate a benchmark circuit (EPFL-analogue suite)",
      .kind = PassKind::kSource,
      .params = {{.key = "name",
                  .type = ParamType::kString,
                  .default_value = "adder",
                  .help = "circuit family"},
                 {.key = "bits",
                  .type = ParamType::kInt,
                  .default_value = "0",
                  .help = "width; 0 = family default"}},
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            const std::string name = args.get_string("name");
            const long long bits = args.get_int("bits");
            if (bits < 0) {
              throw FlowError("gen: bits must be >= 0");
            }
            for (const circuits::CircuitFamily& f :
                 circuits::circuit_families()) {
              if (name != f.name) continue;
              load_network(ctx, f.make(bits > 0 ? static_cast<int>(bits)
                                                : f.full_bits));
              ctx.note = "generated " + name;
              return;
            }
            std::string known;
            for (const circuits::CircuitFamily& f :
                 circuits::circuit_families()) {
              if (!known.empty()) known += ", ";
              known += f.name;
            }
            throw FlowError("gen: unknown circuit '" + name +
                            "' (known: " + known + ")");
          },
  });

  registry.add({
      .name = "read_aiger",
      .summary = "load an AIGER file (ascii or binary)",
      .kind = PassKind::kSource,
      .params = {{.key = "file",
                  .type = ParamType::kString,
                  .required = true,
                  .help = "path to .aig/.aag"}},
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            load_network(ctx, read_aiger_file(args.get_string("file")));
            ctx.note = "read " + args.get_string("file");
          },
  });

  // --- transforms -----------------------------------------------------------
  // After map_lut, strash re-expresses the LUT mapping as an AIG, as ABC's
  // `strash` does after `if`: the LUT cover's redundant structure is what
  // Table II's remapping starts from.  Not parallel_ok: a shard never sees
  // the mapping.
  registry.add({
      .name = "strash",
      .summary = "re-hash the network and drop dangling nodes (after map_lut: "
                 "the LUT mapping as an AIG)",
      .kind = PassKind::kTransform,
      .run =
          [](FlowContext& ctx, const PassArgs&) {
            ctx.net = ctx.luts
                          ? expand_to_aig(lut_network_to_network(*ctx.luts))
                          : cleanup(ctx.net);
          },
  });

  registry.add({
      .name = "to",
      .summary = "convert the network to a gate basis",
      .kind = PassKind::kTransform,
      .params = {{.key = "basis",
                  .type = ParamType::kBasis,
                  .default_value = "aig",
                  .help = "target basis"}},
      .parallel_ok = true,
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            ctx.net = convert_basis(ctx.net, args.get_basis("basis"));
          },
  });

  registry.add({
      .name = "detect_xors",
      .summary = "promote 3-AND XOR patterns to XOR2 nodes (AIG -> XAG)",
      .kind = PassKind::kTransform,
      .run = [](FlowContext& ctx,
                const PassArgs&) { ctx.net = detect_xors(ctx.net); },
  });

  // --- analysis -------------------------------------------------------------
  registry.add({
      .name = "ps",
      .summary = "print network / mapping statistics",
      .kind = PassKind::kAnalysis,
      .run =
          [](FlowContext& ctx, const PassArgs&) {
            const NetworkStats s = network_stats(ctx.net);
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "pi=%zu po=%zu and=%zu xor2=%zu maj=%zu xor3=%zu",
                          ctx.net.num_pis(), ctx.net.num_pos(), s.num_and2,
                          s.num_xor2, s.num_maj3, s.num_xor3);
            ctx.note = buf;
          },
  });

  registry.add({
      .name = "cec",
      .summary =
          "verify against the originally loaded network (sim, every input "
          "pattern when few, fraig + SAT)",
      .kind = PassKind::kAnalysis,
      .run =
          [](FlowContext& ctx, const PassArgs&) {
            if (!ctx.original) {
              throw FlowError("cec: no reference network loaded");
            }
            CecOptions copts;
            copts.num_threads = ctx.par.num_threads;
            const std::string checked = check_subjects(
                ctx, [&](const Network& subject, const std::string& label) {
                  const CecResult r =
                      check_equivalence(*ctx.original, subject, copts);
                  if (r == CecResult::kNotEquivalent) {
                    throw FlowError("NOT equivalent" + label);
                  }
                  if (r == CecResult::kUnknown) {
                    throw FlowError("unknown (resource limit)" + label);
                  }
                });
            ctx.note = "equivalent" + checked;
          },
  });

  registry.add({
      .name = "sim",
      .summary = "random-simulation check against the original (no SAT)",
      .kind = PassKind::kAnalysis,
      .params = {{.key = "words",
                  .type = ParamType::kInt,
                  .default_value = "32",
                  .help = "64-bit random words per node"}},
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            if (!ctx.original) {
              throw FlowError("sim: no reference network loaded");
            }
            const long long words = args.get_int("words");
            if (words < 1 || words > 4096) {
              throw FlowError("sim: words must be in [1, 4096]");
            }
            const std::uint64_t seed = ctx.seed != 0 ? ctx.seed : 0xc0ffee;
            const std::string checked = check_subjects(
                ctx, [&](const Network& subject, const std::string& label) {
                  const std::ptrdiff_t diff_po =
                      sim_falsify(*ctx.original, subject,
                                  static_cast<int>(words), seed,
                                  ctx.par.num_threads);
                  if (diff_po >= 0) {
                    throw FlowError("NOT equivalent on random vectors (PO " +
                                    std::to_string(diff_po) + ")" + label);
                  }
                });
            ctx.note = "matched on " + std::to_string(words * 64) +
                       " random vectors" + checked;
          },
  });

  // --- output ---------------------------------------------------------------
  registry.add({
      .name = "write_aiger",
      .summary = "write the network (AND-expanded) as AIGER",
      .kind = PassKind::kOutput,
      .params = {{.key = "file",
                  .type = ParamType::kString,
                  .required = true,
                  .help = "output path"}},
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            write_aiger_file(expand_to_aig(ctx.net), args.get_string("file"));
            ctx.note = "wrote " + args.get_string("file");
          },
  });

  registry.add({
      .name = "write_blif",
      .summary = "write the network (or LUT mapping) as BLIF",
      .kind = PassKind::kOutput,
      .params = {{.key = "file",
                  .type = ParamType::kString,
                  .required = true,
                  .help = "output path"}},
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            std::ofstream os(args.get_string("file"));
            if (!os) {
              throw FlowError("write_blif: cannot open " +
                              args.get_string("file"));
            }
            if (ctx.luts) {
              write_blif(*ctx.luts, os);
            } else {
              write_blif(ctx.net, os);
            }
            ctx.note = "wrote " + args.get_string("file");
          },
  });

  registry.add({
      .name = "write_verilog",
      .summary = "write the network (or cell netlist) as Verilog",
      .kind = PassKind::kOutput,
      .params = {{.key = "file",
                  .type = ParamType::kString,
                  .required = true,
                  .help = "output path"}},
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            std::ofstream os(args.get_string("file"));
            if (!os) {
              throw FlowError("write_verilog: cannot open " +
                              args.get_string("file"));
            }
            if (ctx.cells) {
              write_verilog(*ctx.cells, os);
            } else {
              write_verilog(ctx.net, os);
            }
            ctx.note = "wrote " + args.get_string("file");
          },
  });

  // --- settings -------------------------------------------------------------
  registry.add({
      .name = "threads",
      .summary = "set worker threads for the parallel passes (0 = auto)",
      .kind = PassKind::kSetting,
      .params = {{.key = "n",
                  .type = ParamType::kInt,
                  .help = "thread count; omit to print the current setting"}},
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            if (args.has("n")) {
              ctx.par.num_threads = static_cast<int>(args.get_int("n"));
            }
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "threads: %zu (requested %d, hardware %u)",
                          ThreadPool::resolve_threads(ctx.par.num_threads),
                          ctx.par.num_threads,
                          std::thread::hardware_concurrency());
            ctx.note = buf;
          },
  });

  registry.add({
      .name = "partsize",
      .summary = "set the partition size target for the parallel passes",
      .kind = PassKind::kSetting,
      .params = {{.key = "gates",
                  .type = ParamType::kInt,
                  .help = "soft gate cap per shard; omit to print"}},
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            if (args.has("gates")) {
              const long long v = args.get_int("gates");
              if (v <= 0) throw FlowError("partsize: gates must be > 0");
              ctx.par.partition.max_gates = static_cast<std::size_t>(v);
            }
            ctx.note = "partsize: " +
                       std::to_string(ctx.par.partition.max_gates) + " gates";
          },
  });

  registry.add({
      .name = "seed",
      .summary = "set the flow RNG seed (0 = per-pass defaults)",
      .kind = PassKind::kSetting,
      .params = {{.key = "value",
                  .type = ParamType::kUint64,
                  .default_value = "0",
                  .help = "seed"}},
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            ctx.seed = args.get_uint64("value");
            ctx.note = "seed: " + std::to_string(ctx.seed);
          },
  });
}

}  // namespace mcs::flow
