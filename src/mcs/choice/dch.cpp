#include "mcs/choice/dch.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <vector>

#include "mcs/network/network_utils.hpp"
#include "mcs/sweep/sweep.hpp"

namespace mcs {

Network build_dch(const std::vector<Network>& snapshots,
                  const DchParams& params, DchStats* stats_out) {
  assert(!snapshots.empty());
  DchStats stats;

  // --- merge all snapshots into one strashed network -------------------
  Network dst;
  std::vector<Signal> pi_map;
  for (std::size_t i = 0; i < snapshots[0].num_pis(); ++i) {
    pi_map.push_back(dst.create_pi(snapshots[0].pi_name(i)));
  }
  std::vector<Signal> primary_pos;  // snapshot[0]'s POs in dst space
  for (const Network& snap : snapshots) {
    assert(snap.num_pis() == snapshots[0].num_pis());
    assert(snap.num_pos() == snapshots[0].num_pos());
    std::vector<Signal> pos = copy_cones(snap, dst, snap.pos(), pi_map);
    if (&snap == &snapshots[0]) primary_pos = std::move(pos);
  }

  // --- prove equivalence classes with the mcs::sweep engine ------------
  // Simulation-seeded candidate classes, parallel batched cone-restricted
  // miters with proof cascading, counterexample-driven refinement.  The
  // alternative structures contributed by the other snapshots live here as
  // dangling cones, so the engine must consider unreachable nodes too; the
  // constant class is disabled (a constant is no useful choice member).
  FraigParams fp;
  fp.num_threads = params.num_threads;
  fp.sim_seed = params.sim_seed;
  fp.sweep_constants = false;
  fp.include_dangling = true;
  FraigStats fs;
  const std::vector<ProvenEquiv> proven = sweep_equivalences(dst, fp, &fs);
  stats.num_candidate_pairs = fs.num_candidate_pairs;
  stats.num_disproven = fs.num_disproven;
  stats.num_timeout = fs.num_unknown;

  // --- proven classes become choice classes ----------------------------
  // The engine's representative is the class *minimum*; choice classes
  // want the *largest* id as their head, so every dependency edge -- gate
  // to fanin, head to member -- points to a smaller id and the choice
  // network is acyclic without a reachability search.  Regroup each
  // proven class and re-phase its members against the largest node.
  std::unordered_map<NodeId, std::vector<ProvenEquiv>> classes;
  std::vector<NodeId> reprs;
  for (const ProvenEquiv& e : proven) {
    auto& members = classes[e.repr];
    if (members.empty()) reprs.push_back(e.repr);
    members.push_back(e);
  }
  std::sort(reprs.begin(), reprs.end());
  for (const NodeId r : reprs) {
    // The whole class in dst space: (node, phase vs r), including r.
    std::vector<std::pair<NodeId, bool>> members{{r, false}};
    for (const ProvenEquiv& e : classes[r]) {
      members.push_back({e.node, e.phase});
    }
    const auto [head, head_phase] = members.back();  // largest id (sorted)
    for (const auto& [node, phase] : members) {
      if (node == head) continue;
      if (!dst.is_repr(node) || dst.node(node).next_choice != kNullNode ||
          !dst.is_repr(head)) {
        continue;  // defensive; engine classes are disjoint
      }
      assert(node < head);
      dst.add_choice(head, node, phase ^ head_phase);
      ++stats.num_proven;
    }
  }

  // --- POs must point at representatives -------------------------------
  for (std::size_t i = 0; i < primary_pos.size(); ++i) {
    Signal s = primary_pos[i];
    if (!dst.is_repr(s.node())) {
      const Node& nd = dst.node(s.node());
      s = Signal(nd.repr, s.complemented() ^ nd.choice_phase);
    }
    dst.create_po(s, snapshots[0].po_name(i));
  }

  if (stats_out) *stats_out = stats;
  return dst;
}

}  // namespace mcs
