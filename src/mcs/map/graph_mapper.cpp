#include "mcs/map/graph_mapper.hpp"

#include <cassert>

#include "mcs/choice/dch.hpp"
#include "mcs/map/lut_mapper.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/opt/optimize.hpp"
#include "mcs/resyn/npn_db.hpp"
#include "mcs/resyn/strategies.hpp"

namespace mcs {

Network graph_map(const Network& net, const GraphMapParams& params,
                  GraphMapStats* stats) {
  // Phase 1: cut-based covering (the LUT mapper is exactly the covering
  // engine needed) with 4-input cuts, the size the NPN database covers.
  LutMapParams lut_params;
  lut_params.lut_size = 4;
  lut_params.use_choices = params.use_choices;
  lut_params.objective = params.objective == GraphMapParams::Objective::kDepth
                             ? LutMapParams::Objective::kDelay
                             : LutMapParams::Objective::kArea;
  const LutNetwork cover = lut_map(net, lut_params);

  // Phase 2: instantiate each selected cut in the target basis, choosing
  // the best structure among the strategy candidates per cut.
  Network dst;
  auto& db = NpnDatabase::shared(
      params.target, params.objective == GraphMapParams::Objective::kDepth
                         ? NpnDatabase::Objective::kLevel
                         : NpnDatabase::Objective::kArea);
  const SopStrategy sop;

  dst.reserve(cover.num_pis + 4 * cover.luts.size());
  std::vector<Signal> value(cover.num_pis + cover.luts.size());
  for (int i = 0; i < cover.num_pis; ++i) {
    value[i] = dst.create_pi(net.pi_name(i));
  }
  for (std::size_t i = 0; i < cover.luts.size(); ++i) {
    const auto& lut = cover.luts[i];
    std::vector<Signal> leaves;
    leaves.reserve(lut.inputs.size());
    for (const auto r : lut.inputs) leaves.push_back(value[r]);
    const int k = static_cast<int>(lut.inputs.size());

    std::optional<Signal> s;
    if (k <= 4) {
      s = db.instantiate(dst, lut.function, k, leaves);
    }
    if (!s) {
      s = sop.synthesize(dst, params.target,
                         TruthTable::from_tt6(lut.function, k), leaves);
    }
    assert(s.has_value());
    value[cover.num_pis + i] = *s;
  }
  for (std::size_t i = 0; i < cover.po_refs.size(); ++i) {
    dst.create_po(value[cover.po_refs[i]] ^ static_cast<bool>(cover.po_compl[i]),
                  net.po_name(i));
  }
  Network result = cleanup(dst);

  if (stats) {
    stats->num_cuts_selected = cover.luts.size();
    stats->gates_before = net.num_gates();
    stats->gates_after = result.num_gates();
    stats->depth_before = net.depth();
    stats->depth_after = result.depth();
  }
  return result;
}

namespace {

bool strictly_better(const Network& a, const Network& b,
                     GraphMapParams::Objective obj) {
  const auto ka = obj == GraphMapParams::Objective::kDepth
                      ? std::make_pair(a.depth(),
                                       static_cast<std::uint32_t>(a.num_gates()))
                      : std::make_pair(static_cast<std::uint32_t>(a.num_gates()),
                                       a.depth());
  const auto kb = obj == GraphMapParams::Objective::kDepth
                      ? std::make_pair(b.depth(),
                                       static_cast<std::uint32_t>(b.num_gates()))
                      : std::make_pair(static_cast<std::uint32_t>(b.num_gates()),
                                       b.depth());
  return ka < kb;
}

/// Pareto acceptance: no axis worse, at least one strictly better.
bool pareto_better(const Network& a, const Network& b) {
  const bool no_worse =
      a.num_gates() <= b.num_gates() && a.depth() <= b.depth();
  const bool strictly =
      a.num_gates() < b.num_gates() || a.depth() < b.depth();
  return no_worse && strictly;
}

}  // namespace

Network iterate_graph_map(Network net, const GraphMapParams& params,
                          int max_iters, int* iters_done) {
  int iters = 0;
  for (; iters < max_iters; ++iters) {
    Network next = graph_map(net, params);
    if (!strictly_better(next, net, params.objective)) break;
    net = std::move(next);
  }
  if (iters_done) *iters_done = iters;
  return net;
}

Network iterate_mch_graph_map(Network net, const GraphMapParams& params,
                              const MchParams& mch_params, int max_iters,
                              int* iters_done) {
  // Each round builds a choice network that combines DCH-style structural
  // snapshots (the current network plus a balanced variant) with MCH's
  // heterogeneous per-window candidates, then maps it under both
  // objectives.  A candidate result is adopted only when it Pareto-improves
  // (node count and depth): the diverse candidates let the flow move past
  // local optima of the plain iteration (paper, Sec. III-C / Fig. 6)
  // without trading one metric for the other.
  int iters = 0;
  for (; iters < max_iters; ++iters) {
    const Network with_snapshots = build_dch({net, balance(net)});
    const Network mch = build_mch(with_snapshots, mch_params);

    GraphMapParams size_params = params;
    size_params.use_choices = true;
    size_params.objective = GraphMapParams::Objective::kSize;
    GraphMapParams depth_params = size_params;
    depth_params.objective = GraphMapParams::Objective::kDepth;

    Network by_size = graph_map(mch, size_params);
    Network by_depth = graph_map(mch, depth_params);

    const bool size_ok = pareto_better(by_size, net);
    const bool depth_ok = pareto_better(by_depth, net);
    if (size_ok && depth_ok) {
      net = strictly_better(by_size, by_depth, params.objective)
                ? std::move(by_size)
                : std::move(by_depth);
    } else if (size_ok) {
      net = std::move(by_size);
    } else if (depth_ok) {
      net = std::move(by_depth);
    } else {
      break;
    }
  }
  if (iters_done) *iters_done = iters;
  return net;
}

}  // namespace mcs
