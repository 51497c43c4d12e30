/// \file par_passes.cpp
/// \brief Flow registration for the partition-parallel driver: the `par`
/// meta-pass runs any registered transform or choice builder marked
/// parallel_ok per shard through par_run() (`par:pass=rewrite,k=4`,
/// `par:pass=mch`).  Thread count and shard size come from the FlowContext
/// (`threads` / `partsize` settings passes).

#include <string>
#include <utility>
#include <vector>

#include "mcs/flow/flow.hpp"
#include "mcs/flow/registration.hpp"
#include "mcs/par/par_engine.hpp"

// The registrations below use designated initializers and deliberately
// leave defaulted PassInfo/ParamSpec members out; GCC's -Wextra flags
// every omitted member, so silence that one diagnostic here.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
#endif

namespace mcs::flow {

namespace {

/// Rebuilds `key=value` tokens from the extras collected by `par`.
std::vector<std::string> forwarded_tokens(const PassArgs& args) {
  std::vector<std::string> tokens;
  for (const auto& [k, v] : args.extras()) tokens.push_back(k + "=" + v);
  return tokens;
}

const PassInfo& inner_pass_or_throw(const PassArgs& args) {
  const std::string name = args.get_string("pass");
  const PassInfo* inner = PassRegistry::instance().find(name);
  if (!inner) throw FlowError("par: unknown pass '" + name + "'");
  if (!inner->parallel_ok) {
    throw FlowError("par: pass '" + name + "' cannot run per partition");
  }
  return *inner;
}

}  // namespace

void register_par_passes(PassRegistry& registry) {
  registry.add({
      .name = "par",
      .summary = "run a transform or choice builder per partition "
                 "(par:pass=rewrite,k=4)",
      .kind = PassKind::kTransform,
      .params = {{.key = "pass",
                  .type = ParamType::kString,
                  .required = true,
                  .help = "inner pass name; extra key=value args forwarded"}},
      .allow_extra_args = true,
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            const PassInfo& inner = inner_pass_or_throw(args);
            const PassArgs inner_args =
                PassArgs::bind(inner, forwarded_tokens(args));
            ParParams par = ctx.par;
            // Choice constructions must see existing classes; reassembly
            // keeps those and the ones they add.
            par.partition.keep_choices = inner.kind == PassKind::kChoice;
            ParStats ps;
            // The inner pass on one shard, in a context of its own.
            ctx.net = par_run(
                ctx.net,
                [&](const Network& shard) {
                  FlowContext sub;
                  sub.seed = ctx.seed;
                  sub.par.num_threads = 1;  // no nested pools
                  sub.net = shard;
                  inner.run(sub, inner_args);
                  return std::move(sub.net);
                },
                par, &ps);
            ctx.note = "par:" + inner.name + ": " +
                       std::to_string(ps.num_partitions) + " partitions on " +
                       std::to_string(ps.num_threads) + " threads";
          },
      .validate =
          [](const PassArgs& args) {
            // Parse-time: the inner pass must exist, be shard-safe, and
            // accept every forwarded argument.
            const PassInfo& inner = inner_pass_or_throw(args);
            PassArgs::bind(inner, forwarded_tokens(args));
          },
  });
}

}  // namespace mcs::flow
