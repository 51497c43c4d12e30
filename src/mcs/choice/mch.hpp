/// \file mch.hpp
/// \brief Mixed Structural Choices construction (the paper's Algorithms 1-2).
///
/// The MCH operator builds a *mixed choice network*: the input network is
/// preserved verbatim (its nodes become class representatives) while
/// functionally equivalent candidate structures -- synthesized in a
/// different, typically more expressive gate basis -- are attached as choice
/// nodes.  Candidates are produced by a *multi-strategy* pass driven by path
/// classification:
///
///   - nodes on critical paths (selected by the ratio parameter r) receive
///     level-oriented candidates (NPN database, Shannon, DSD),
///   - all other nodes receive area-oriented candidates (SOP factoring,
///     DSD), synthesized both from their cuts and from their MFFCs.
///
/// Nothing is ever replaced: equivalence is preserved by construction
/// (candidates are synthesized from exact cut/MFFC functions).  A candidate
/// whose cone contains its representative would make a covering cycle; the
/// rank-ordered ChoiceGuard (network_utils.hpp) rejects exactly those, and
/// needs no traversal for a candidate ranked below its representative --
/// the common case, since candidates are built on the representative's cut
/// leaves.  The resulting network feeds directly into the choice-aware
/// mappers (Algorithm 3).

#pragma once

#include <cstddef>

#include "mcs/network/network.hpp"
#include "mcs/resyn/basis.hpp"
#include "mcs/resyn/strategies.hpp"

namespace mcs {

/// Parameters of Algorithm 1.
struct MchParams {
  int cut_size = 4;      ///< k: maximum cut size for candidate extraction
  int mffc_max_pi = 8;   ///< K: maximum MFFC leaf count
  double critical_ratio = 0.9;  ///< r: POs with level >= r * depth are critical

  /// Basis in which candidates are synthesized; mixing this with the input
  /// representation is what makes the choices "heterogeneous".
  GateBasis candidate_basis = GateBasis::xmg();

  /// Maximum number of choices attached to one representative (keeps the
  /// choice network and mapping time bounded).
  int max_choices_per_node = 4;

  /// Strategy bundles; when null the defaults
  /// (StrategyLibrary::level_oriented / ::area_oriented) are used.
  const StrategyLibrary* level_lib = nullptr;
  const StrategyLibrary* area_lib = nullptr;
};

/// Construction statistics (reported by the benches).
struct MchStats {
  std::size_t num_critical_nodes = 0;
  std::size_t num_candidates_tried = 0;
  std::size_t num_choices_added = 0;
  std::size_t num_rejected_same = 0;     ///< strash found the original node
  std::size_t num_rejected_cycle = 0;    ///< ChoiceGuard found a cycle
  std::size_t num_rejected_class = 0;    ///< candidate already classed
  std::size_t num_rejected_cap = 0;      ///< per-node cap reached
};

/// Builds the mixed choice network for \p input (Algorithm 1).
/// The returned network contains a verbatim copy of \p input plus choice
/// candidates; its PI/PO interface is identical.
Network build_mch(const Network& input, const MchParams& params,
                  MchStats* stats = nullptr);

/// Returns the set of critical nodes used for path classification: nodes
/// with zero slack with respect to the POs whose level is at least
/// r * depth.  Exposed for tests and ablations.
std::vector<bool> collect_critical_nodes(const Network& net, double ratio);

}  // namespace mcs
