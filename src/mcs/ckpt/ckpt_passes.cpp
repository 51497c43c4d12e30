/// \file ckpt_passes.cpp
/// \brief Flow registration for the checkpoint/rollback layer: the `ckpt`
/// settings pass arms the transactional stage runner from flow specs and
/// the shell (`ckpt:mode=retry,retries=2,validate=on,sim_words=8`), so a
/// flow opts into rollback and validation without any API plumbing.

#include <string>

#include "mcs/flow/flow.hpp"
#include "mcs/flow/registration.hpp"

#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
#endif

namespace mcs::flow {

void register_ckpt_passes(PassRegistry& registry) {
  registry.add({
      .name = "ckpt",
      .summary = "arm transactional stage execution (validate/rollback, "
                 "mcs::ckpt)",
      .kind = PassKind::kSetting,
      .params =
          {{.key = "mode",
            .type = ParamType::kString,
            .default_value = "retry",
            .help = "failure policy: retry | skip (both roll the stage "
                    "back) | fail; off disables validation as well"},
           {.key = "retries",
            .type = ParamType::kInt,
            .default_value = "1",
            .help = "retry budget per stage under mode=retry"},
           {.key = "validate",
            .type = ParamType::kBool,
            .default_value = "true",
            .help = "run the Network::check() invariant audit after every "
                    "stage"},
           {.key = "sim_words",
            .type = ParamType::kInt,
            .default_value = "0",
            .help = "> 0: sim-signature equivalence spot check over "
                    "transform/choice stages, with this many 64-bit words"},
           {.key = "sim_seed",
            .type = ParamType::kUint64,
            .default_value = "1592639710",  // TxnPolicy's 0x5eedc0de
            .help = "PI stimulus seed of the spot check"}},
      .run =
          [](FlowContext& ctx, const PassArgs& args) {
            const std::string mode = args.get_string("mode");
            if (mode == "off") {
              ctx.txn = TxnPolicy{};
              ctx.note = "checkpointing off";
              return;
            }
            TxnPolicy txn;
            if (mode == "retry") {
              txn.on_failure = TxnPolicy::OnFailure::kRetry;
            } else if (mode == "skip") {
              txn.on_failure = TxnPolicy::OnFailure::kSkip;
            } else if (mode == "fail") {
              txn.on_failure = TxnPolicy::OnFailure::kFail;
            } else {
              throw FlowError("ckpt: mode must be retry, skip, fail or off, "
                              "got '" + mode + "'");
            }
            const long long retries = args.get_int("retries");
            if (retries < 0 || retries > 1000) {
              throw FlowError("ckpt: retries must be in [0, 1000]");
            }
            txn.max_retries = static_cast<int>(retries);
            txn.validate = args.get_bool("validate");
            const long long words = args.get_int("sim_words");
            if (words < 0 || words > 4096) {
              throw FlowError("ckpt: sim_words must be in [0, 4096]");
            }
            txn.sim_words = static_cast<int>(words);
            txn.sim_seed = args.get_uint64("sim_seed");
            ctx.txn = txn;
            ctx.note = "mode=" + mode +
                       (txn.validate ? ", validate on" : ", validate off") +
                       (txn.sim_words > 0
                            ? ", sim_words=" + std::to_string(txn.sim_words)
                            : "");
          },
  });
}

}  // namespace mcs::flow
