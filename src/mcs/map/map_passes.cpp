/// \file map_passes.cpp
/// \brief Flow registrations for the choice-aware mappers: `map_lut`
/// (K-LUT FPGA mapping), `map_asic` (standard-cell mapping onto the
/// FlowContext's TechLibrary) and `graph_map` (mapping-based representation
/// conversion / optimization).

#include <cstdio>

#include "mcs/flow/flow.hpp"
#include "mcs/flow/registration.hpp"
#include "mcs/map/asic_mapper.hpp"
#include "mcs/map/graph_mapper.hpp"
#include "mcs/map/lut_mapper.hpp"

// The registrations below use designated initializers and deliberately
// leave defaulted PassInfo/ParamSpec members out; GCC's -Wextra flags
// every omitted member, so silence that one diagnostic here.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
#endif

namespace mcs::flow {

void register_map_passes(PassRegistry& registry) {
  registry.add({
      .name = "map_lut",
      .summary = "choice-aware K-LUT mapping (delay and area-flow passes on "
                 "the flow's threads, exact-area passes serial)",
      .kind = PassKind::kMapping,
      .params = {{.key = "k",
                  .type = ParamType::kInt,
                  .default_value = "6",
                  .help = "LUT size"},
                 {.key = "obj",
                  .type = ParamType::kString,
                  .default_value = "area",
                  .help = "area | delay"},
                 {.key = "choices",
                  .type = ParamType::kBool,
                  .default_value = "true",
                  .help = "use choice classes"}},
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            LutMapParams params;
            params.lut_size = static_cast<int>(args.get_int("k"));
            params.use_choices = args.get_bool("choices");
            params.num_threads = ctx.par.num_threads;
            const std::string obj = args.get_string("obj");
            if (obj == "delay") {
              params.objective = LutMapParams::Objective::kDelay;
            } else if (obj == "area") {
              params.objective = LutMapParams::Objective::kArea;
            } else {
              throw FlowError("map_lut: obj must be 'area' or 'delay'");
            }
            if (params.lut_size < 2 || params.lut_size > 6) {
              throw FlowError("map_lut: k must be in [2, 6]");
            }
            LutMapStats stats;
            ctx.luts = lut_map(ctx.net, params, &stats);
            ctx.note = std::to_string(stats.num_choice_cuts_used) +
                       " choice cuts used";
          },
  });

  registry.add({
      .name = "map_asic",
      .summary = "choice-aware standard-cell mapping (FlowContext library)",
      .kind = PassKind::kMapping,
      .params = {{.key = "obj",
                  .type = ParamType::kString,
                  .default_value = "delay",
                  .help = "delay | area"},
                 {.key = "relax",
                  .type = ParamType::kDouble,
                  .default_value = "0",
                  .help = "delay-target relaxation fraction"}},
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            AsicMapParams params;
            const std::string obj = args.get_string("obj");
            if (obj == "area") {
              params.objective = AsicMapParams::Objective::kArea;
            } else if (obj == "delay") {
              params.objective = AsicMapParams::Objective::kDelay;
            } else {
              throw FlowError("map_asic: obj must be 'delay' or 'area'");
            }
            params.delay_relaxation = args.get_double("relax");
            ctx.cells = asic_map(ctx.net, ctx.lib, params);
            if (ctx.verbose) {
              for (const auto& [name, count] : ctx.cells->cell_histogram()) {
                std::printf("  %-10s x%d\n", name.c_str(), count);
              }
            }
          },
  });

  registry.add({
      .name = "graph_map",
      .summary = "graph mapping into a target representation",
      .kind = PassKind::kTransform,
      .params = {{.key = "basis",
                  .type = ParamType::kBasis,
                  .default_value = "xmg",
                  .help = "target basis"},
                 {.key = "obj",
                  .type = ParamType::kString,
                  .default_value = "size",
                  .help = "size | depth"}},
      .parallel_ok = true,
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            GraphMapParams params;
            params.target = args.get_basis("basis");
            const std::string obj = args.get_string("obj");
            if (obj == "depth") {
              params.objective = GraphMapParams::Objective::kDepth;
            } else if (obj == "size") {
              params.objective = GraphMapParams::Objective::kSize;
            } else {
              throw FlowError("graph_map: obj must be 'size' or 'depth'");
            }
            ctx.net = graph_map(ctx.net, params);
          },
  });
}

}  // namespace mcs::flow
