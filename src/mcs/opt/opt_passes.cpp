/// \file opt_passes.cpp
/// \brief Flow registrations for the technology-independent optimization
/// passes (balance / rewrite / refactor / resub / compress2rs).
/// Each registration adapts typed key=value args onto the pass's existing
/// `*Params` struct; a nonzero FlowContext seed overrides the simulation
/// seeds so a whole flow can be re-randomized from one knob.

#include "mcs/flow/flow.hpp"
#include "mcs/flow/registration.hpp"
#include "mcs/opt/optimize.hpp"

// The registrations below use designated initializers and deliberately
// leave defaulted PassInfo/ParamSpec members out; GCC's -Wextra flags
// every omitted member, so silence that one diagnostic here.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
#endif

namespace mcs::flow {

void register_opt_passes(PassRegistry& registry) {
  registry.add({
      .name = "balance",
      .summary = "associativity-flattening tree balancing (depth)",
      .kind = PassKind::kTransform,
      .parallel_ok = true,
      .run = [](FlowContext& ctx,
                const PassArgs&) { ctx.net = balance(ctx.net); },
  });

  registry.add({
      .name = "rewrite",
      .summary = "cut rewriting through the NPN-4 database",
      .kind = PassKind::kTransform,
      .params = {{.key = "k",
                  .type = ParamType::kInt,
                  .default_value = "4",
                  .help = "cut size"},
                 {.key = "zero",
                  .type = ParamType::kBool,
                  .default_value = "false",
                  .help = "accept zero-cost rewrites"},
                 {.key = "basis",
                  .type = ParamType::kBasis,
                  .default_value = "xmg",
                  .help = "replacement basis"}},
      .parallel_ok = true,
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            RewriteParams params;
            params.cut_size = static_cast<int>(args.get_int("k"));
            params.zero_cost = args.get_bool("zero");
            params.basis = args.get_basis("basis");
            ctx.net = rewrite(ctx.net, params);
          },
  });

  registry.add({
      .name = "refactor",
      .summary = "MFFC collapse + ISOP refactoring (area)",
      .kind = PassKind::kTransform,
      .params = {{.key = "leaves",
                  .type = ParamType::kInt,
                  .default_value = "10",
                  .help = "MFFC leaf bound"},
                 {.key = "zero",
                  .type = ParamType::kBool,
                  .default_value = "false",
                  .help = "accept zero-cost rewrites"},
                 {.key = "basis",
                  .type = ParamType::kBasis,
                  .default_value = "xmg",
                  .help = "replacement basis"}},
      .parallel_ok = true,
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            RefactorParams params;
            params.max_leaves = static_cast<int>(args.get_int("leaves"));
            params.zero_cost = args.get_bool("zero");
            params.basis = args.get_basis("basis");
            ctx.net = refactor(ctx.net, params);
          },
  });

  registry.add({
      .name = "resub",
      .summary = "simulation-guided SAT-verified resubstitution",
      .kind = PassKind::kTransform,
      .params = {{.key = "window",
                  .type = ParamType::kInt,
                  .default_value = "24",
                  .help = "divisor candidates per node"},
                 {.key = "basis",
                  .type = ParamType::kBasis,
                  .default_value = "xmg",
                  .help = "replacement basis"}},
      .parallel_ok = true,
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            ResubParams params;
            params.max_window = static_cast<int>(args.get_int("window"));
            params.basis = args.get_basis("basis");
            if (ctx.seed != 0) params.sim_seed = ctx.seed;
            ctx.net = resub(ctx.net, params);
          },
  });

  registry.add({
      .name = "compress2rs",
      .summary = "the full optimization script, iterated to convergence",
      .kind = PassKind::kTransform,
      .params = {{.key = "rounds",
                  .type = ParamType::kInt,
                  .default_value = "3",
                  .help = "maximum rounds"},
                 {.key = "basis",
                  .type = ParamType::kBasis,
                  .default_value = "xmg",
                  .help = "working basis"}},
      .parallel_ok = true,
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            ScriptStats stats;
            ctx.net = compress2rs_like(ctx.net, args.get_basis("basis"),
                                       static_cast<int>(args.get_int("rounds")),
                                       &stats);
            ctx.note = std::to_string(stats.iterations) + " iterations";
          },
  });
}

}  // namespace mcs::flow
