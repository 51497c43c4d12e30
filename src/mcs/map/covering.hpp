/// \file covering.hpp
/// \brief The covering heuristics `map_lut` and `map_asic` share: the pass
/// schedule with its keep-the-best harvest, the fanout estimates of area
/// flow, the feasibility-first cost order and the frozen delay target.
///
/// Both mappers are priority-cut mappers (Mishchenko, Cho, Chatterjee,
/// Brayton, ICCAD 2007).  What they cover differs -- nodes with K-LUTs, or
/// (node, phase) pairs with cells and inverters -- so reference-counted
/// exact area, the cover walk and extraction stay in each mapper.

#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "mcs/cut/cut.hpp"
#include "mcs/network/network_utils.hpp"

namespace mcs::covering {

inline constexpr float kInf = std::numeric_limits<float>::infinity();

/// Area-flow passes after the first pass.
inline constexpr int kAreaFlowRounds = 2;

enum class Pass {
  kFirst,      ///< delay first under the delay objective
  kAreaFlow,   ///< area flow under the required times
  kExactArea,  ///< reference-counted exact area under the required times
};

/// Runs one kFirst pass, kAreaFlowRounds kAreaFlow passes and
/// \p exact_area_rounds kExactArea passes.  run_pass(pass) runs a pass and
/// walks its cover; extract(Stats*) then builds its mapping.  Passes are
/// greedy and recovery may regress, so the mapping with the smallest
/// key(stats) is returned (the earliest on a tie), its stats in \p stats.
template <typename Stats, typename RunPass, typename Extract, typename Key>
auto run_schedule(int exact_area_rounds, Stats* stats, RunPass run_pass,
                  Extract extract, Key key) {
  decltype(extract(stats)) best;
  Stats best_stats;
  bool have_best = false;
  auto step = [&](Pass pass) {
    run_pass(pass);
    Stats s;
    auto candidate = extract(&s);
    if (!have_best || key(s) < key(best_stats)) {
      best = std::move(candidate);
      best_stats = s;
      have_best = true;
    }
  };
  step(Pass::kFirst);
  for (int i = 0; i < kAreaFlowRounds; ++i) step(Pass::kAreaFlow);
  for (int i = 0; i < exact_area_rounds; ++i) step(Pass::kExactArea);
  if (stats) *stats = best_stats;
  return best;
}

/// Fanout estimates before the first pass: fanouts in the PO-reachable
/// original graph (POs included), at least 1.  Choice cones are mutually
/// exclusive alternatives, and counting their edges would fake sharing no
/// single cover can realize, so a node reached only through a choice class
/// starts at 1.
inline std::vector<float> initial_fanout_estimates(const Network& net) {
  std::vector<float> fanouts(net.size(), 0.0f);
  for (const NodeId n : topo_order(net)) {
    const Node& nd = net.node(n);
    for (int i = 0; i < nd.num_fanins; ++i) ++fanouts[nd.fanin[i].node()];
  }
  for (const Signal s : net.pos()) ++fanouts[s.node()];
  for (float& f : fanouts) f = std::max(1.0f, f);
  return fanouts;
}

/// Blends a node's references in the current cover into its estimate.
inline float blend_fanout(float estimate, std::uint32_t cover_refs) {
  return std::max(1.0f,
                  (estimate + 2.0f * static_cast<float>(cover_refs)) / 3.0f);
}

/// The order both mappers rank a (delay, area) cost by.  Delay first:
/// delay, then area.  Otherwise area first, but a feasible cost (delay <=
/// required) beats an infeasible one, and between infeasible costs the
/// smaller delay wins, so slack violations cannot snowball across passes.
struct CostOrder {
  bool delay_first = false;
  float required = kInf;  ///< ignored when delay_first

  /// True when (da, aa) ranks strictly before (db, ab).
  bool better(float da, float aa, float db, float ab) const noexcept {
    return before(da, aa, db, ab, [] { return false; });
  }

  /// Cuts by (delay, area_flow): trivial cuts rank last, as they cannot
  /// implement the node, and ties fall to fewer leaves.
  bool operator()(const Cut& a, const Cut& b) const noexcept {
    if (a.is_trivial() != b.is_trivial()) return b.is_trivial();
    return before(a.delay, a.area_flow, b.delay, b.area_flow,
                  [&] { return a.size < b.size; });
  }

 private:
  template <typename Tie>
  bool before(float da, float aa, float db, float ab, Tie tie) const noexcept {
    if (!delay_first) {
      const bool a_ok = da <= required;
      const bool b_ok = db <= required;
      if (a_ok != b_ok) return a_ok;
      if (a_ok && aa != ab) return aa < ab;
    }
    if (da != db) return da < db;
    if (aa != ab) return aa < ab;
    return tie();
  }
};

/// The POs' required time under the delay objective: the first call
/// freezes the target at that pass's depth, relaxed by a fraction, so
/// recovery passes cannot ratchet it up; each call returns the smaller of
/// its own relaxed depth and the frozen target.
class DelayTarget {
 public:
  explicit DelayTarget(double relaxation = 0.0)
      : scale_(1.0f + static_cast<float>(relaxation)) {}

  float operator()(float depth) {
    const float relaxed = depth * scale_;
    if (frozen_ < 0.0f) frozen_ = relaxed;
    return std::min(relaxed, frozen_);
  }

  float frozen() const noexcept { return frozen_; }  ///< < 0 before a call

 private:
  float scale_;
  float frozen_ = -1.0f;
};

}  // namespace mcs::covering
