/// \file sweep_passes.cpp
/// \brief Flow registration for the parallel SAT-sweeping engine: the
/// `fraig` pass (simulation-seeded, counterexample-refined, batched
/// parallel SAT sweeping).

#include "mcs/flow/flow.hpp"
#include "mcs/flow/registration.hpp"
#include "mcs/sweep/sweep.hpp"

// The registrations below use designated initializers and deliberately
// leave defaulted PassInfo/ParamSpec members out; GCC's -Wextra flags
// every omitted member, so silence that one diagnostic here.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
#endif

namespace mcs::flow {

void register_sweep_passes(PassRegistry& registry) {
  registry.add({
      .name = "fraig",
      .summary = "parallel SAT sweeping (sim classes + cex-refined proofs)",
      .kind = PassKind::kTransform,
      .params = {{.key = "conflicts",
                  .type = ParamType::kInt,
                  .default_value = "300",
                  .help = "SAT budget per candidate pair, counted since "
                          "the solver's last restart (300 allows up to "
                          "1836 conflicts); -1 = unlimited"},
                 {.key = "rounds",
                  .type = ParamType::kInt,
                  .default_value = "16",
                  .help = "max simulate/prove/refine rounds"},
                 {.key = "words",
                  .type = ParamType::kInt,
                  .default_value = "16",
                  .help = "random words seeding the classes"}},
      .parallel_ok = true,
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            FraigParams params;
            params.num_threads = ctx.par.num_threads;
            params.conflict_limit = args.get_int("conflicts");
            params.max_rounds = static_cast<int>(args.get_int("rounds"));
            if (params.max_rounds < 1) {
              throw FlowError("fraig: rounds must be >= 1");
            }
            const long long words = args.get_int("words");
            if (words < 1 || words > 4096) {
              throw FlowError("fraig: words must be in [1, 4096]");
            }
            params.sim_words = static_cast<int>(words);
            if (ctx.seed != 0) params.sim_seed = ctx.seed;
            FraigStats stats;
            ctx.net = fraig(ctx.net, params, &stats);
            ctx.note = std::to_string(stats.num_proven) + " merged, " +
                       std::to_string(stats.num_disproven) + " cex, " +
                       std::to_string(stats.num_unknown) + " unknown in " +
                       std::to_string(stats.num_rounds) + " rounds on " +
                       std::to_string(stats.num_threads) + " threads";
          },
  });
}

}  // namespace mcs::flow
