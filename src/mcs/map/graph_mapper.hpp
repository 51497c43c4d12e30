/// \file graph_mapper.hpp
/// \brief Graph mapping: mapping-based representation conversion and logic
/// optimization (paper Sec. III-C and Fig. 5; Calvino et al., ASP-DAC'22).
///
/// Graph mapping covers the subject network with cuts -- exactly like
/// technology mapping, including choice-class merging -- but instead of
/// library cells it instantiates each selected cut as a small optimized
/// structure in a target gate basis.  Used for:
///   - converting between representations (AIG <-> MIG/XMG, Fig. 1),
///   - mapping-based logic optimization iterated to a fixpoint (Fig. 6),
///   - the MCH-based variant that escapes local optima by drawing the
///     candidate structures from a mixed choice network.

#pragma once

#include "mcs/choice/mch.hpp"
#include "mcs/network/network.hpp"
#include "mcs/resyn/basis.hpp"

namespace mcs {

struct GraphMapParams {
  GateBasis target = GateBasis::xmg();
  bool use_choices = true;  ///< honor choice classes of the input
  enum class Objective { kDepth, kSize };
  Objective objective = Objective::kSize;
};

struct GraphMapStats {
  std::size_t num_cuts_selected = 0;
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  std::uint32_t depth_before = 0;
  std::uint32_t depth_after = 0;
};

/// One graph-mapping pass: cover with cuts, re-express each selected cut in
/// the target basis (best of the NPN database / SOP / DSD per cut).
Network graph_map(const Network& net, const GraphMapParams& params = {},
                  GraphMapStats* stats = nullptr);

/// Iterates graph_map until neither gate count nor depth improves; this is
/// the "Graph Map" baseline of the paper's Fig. 6 (a local optimum).
Network iterate_graph_map(Network net, const GraphMapParams& params = {},
                          int max_iters = 16, int* iters_done = nullptr);

/// Iterated MCH-based graph mapping: alternates MCH construction and
/// choice-aware graph mapping until convergence (the paper's "MCH for
/// Graph Map" flow).
Network iterate_mch_graph_map(Network net, const GraphMapParams& params,
                              const MchParams& mch_params, int max_iters = 16,
                              int* iters_done = nullptr);

}  // namespace mcs
