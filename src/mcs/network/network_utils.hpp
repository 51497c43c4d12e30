/// \file network_utils.hpp
/// \brief Traversal, cone, copy and cleanup utilities over the mixed network.

#pragma once

#include <array>
#include <optional>
#include <vector>

#include "mcs/network/network.hpp"
#include "mcs/tt/truth_table.hpp"

namespace mcs {

/// Topological order of all nodes reachable from the POs through fanin edges
/// only (choice members not reachable this way are excluded).
std::vector<NodeId> topo_order(const Network& net);

/// topo_order() of the cones of \p roots: the depth-first post-order that
/// visits the roots in list order and each node's fanins in slot order.
/// Uses the network's shared traversal marks.
std::vector<NodeId> topo_order(const Network& net,
                               const std::vector<Signal>& roots);

/// Choice-aware topological order covering every node reachable from the POs
/// through fanins *or* choice lists.  Guarantees:
///   - fanins precede their fanouts,
///   - every choice-class member precedes its representative.
/// This is the processing order required by choice-aware cut enumeration
/// (paper, Alg. 3): when the representative is reached, the cut sets of all
/// its members are already available for merging.
std::vector<NodeId> choice_topo_order(const Network& net);

/// Dependency depth of every node of \p order: 0 for a node without
/// fanins, otherwise one more than its deepest fanin or -- with
/// \p follow_choices, for a class head -- member.  \p order must list every
/// node after its fanins (and, with follow_choices, a head after its
/// members), as topo_order() and choice_topo_order() do; nodes outside it
/// read 0.  Nodes of equal depth never depend on each other, so any order
/// sorted by depth is again a valid processing order.
std::vector<std::uint32_t> dependency_depth(const Network& net,
                                            const std::vector<NodeId>& order,
                                            bool follow_choices);

/// All nodes reachable from \p roots through fanin edges (and, with
/// \p follow_choices, the choice members of reached representatives,
/// including the members' own cones), as an ascending-id list.  Ascending
/// node ids are a valid topological order for fanin edges (fanins always
/// precede their fanouts in a strashed Network).
///
/// \p seen is caller-owned scratch (cleared here).  The network's shared
/// traversal marks are deliberately NOT used, so concurrent calls on the
/// same network -- the parallel shard-construction and CNF-encoding
/// phases -- are safe.
std::vector<NodeId> collect_cone_nodes(const Network& net,
                                       const std::vector<NodeId>& roots,
                                       bool follow_choices,
                                       std::vector<char>& seen);

/// The acyclicity guard of the MCH construction (paper, Sec. III-A:
/// candidates must not create covering cycles) for a network that keeps
/// growing between attaches.
///
/// Choice-aware algorithms follow the *dependency* relation: a gate
/// depends on its fanins and a class head on its members (their cut sets
/// are computed first).  Attaching member m to head h adds the edge
/// h -> m, which is safe exactly when h is not reachable from m.
///
/// Invariant: every node has a rank, and the rank never increases along a
/// dependency edge, so a node ranked below h cannot reach h.
///   - Construction ranks every node by its dependency_depth() over a
///     choice-aware topological order of all nodes: one O(N) pass.  A
///     dangling candidate so ranks just above its fanins, wherever its id
///     lies.
///   - A node created after the last ranking has no members yet and takes
///     the maximum rank of its fanins; ranks are extended before each
///     attach, O(1) per new node.
///   - attach(h, m) with rank(m) < rank(h) links without a traversal.
///     Otherwise (ties included) it searches from m over fanins and
///     members, skipping nodes ranked below rank(h), and rejects m when the
///     search reaches h.  Attaching a tied member keeps the invariant.  An
///     accepted member that outranks its head breaks it, so the whole
///     network is re-ranked (O(N)) before the next attach.
/// The answers equal a full reachability search; ranks only decide how
/// much of it is needed.  An MCH candidate is built on its head's cut
/// leaves, so it nearly always ranks below the head or ties with it: on
/// Table I's MCH flows 1.6% of the attaches search and none re-ranks.
class ChoiceGuard {
 public:
  explicit ChoiceGuard(Network& net);

  /// Attaches \p member to the class of \p head with \p phase (see
  /// Network::add_choice) unless \p head is reachable from \p member;
  /// returns whether it attached.  \pre Network::add_choice's
  /// preconditions hold.
  bool attach(NodeId head, NodeId member, bool phase);

  /// Attaches that needed the search.
  std::size_t searches() const noexcept { return searches_; }
  /// Whole-network rankings after the one made at construction.
  std::size_t reranks() const noexcept { return reranks_; }

 private:
  void rank_all();
  bool reaches_head(NodeId member, NodeId head);

  Network& net_;
  std::vector<std::uint32_t> rank_;
  std::vector<NodeId> stack_;
  bool stale_ = false;  ///< an attach broke the invariant
  std::size_t searches_ = 0;
  std::size_t reranks_ = 0;
};

/// A fanout-free cone rooted at some node.
struct Cone {
  std::vector<NodeId> inner;   ///< gates inside the cone (topological order)
  std::vector<NodeId> leaves;  ///< boundary nodes (inputs of the cone)
};

/// Maximum fanout-free cone of \p root.  Gates whose entire fanout lies
/// inside the cone are included.  Returns an empty cone (no inner nodes)
/// when the leaf count would exceed \p max_leaves.
Cone compute_mffc(const Network& net, NodeId root, int max_leaves);

/// Computes the local function of \p root in terms of \p leaves by
/// simulating the cone with truth tables.  All cone paths must terminate at
/// \p leaves (or constants).  \pre leaves.size() <= TruthTable::kMaxVars.
TruthTable cone_function(const Network& net, Signal root,
                         const std::vector<NodeId>& leaves);

/// Copies the cones of \p roots from \p src into \p dst, substituting the
/// i-th PI of \p src with \p pi_map[i], and returns the copies of the roots.
/// One copy_gates() run over topo_order(src, roots): logic shared between
/// the cones is copied once, and the result, and \p dst, equal those of
/// one copy per root in order (such a copy re-finds the logic earlier roots
/// created through strash and creates nothing new there).  Uses \p src's
/// traversal marks, so no two threads may copy from one \p src at once.
std::vector<Signal> copy_cones(const Network& src, Network& dst,
                               const std::vector<Signal>& roots,
                               const std::vector<Signal>& pi_map);

/// copy_cones() of the one root \p root.
inline Signal copy_cone(const Network& src, Network& dst, Signal root,
                        const std::vector<Signal>& pi_map) {
  return copy_cones(src, dst, {root}, pi_map)[0];
}

/// The fanins of gate \p n of \p src as copied into another network: the
/// copy \p map holds for each fanin node, with the edge's complement
/// applied.  Unused fanin slots read the constant 0.
inline std::array<Signal, 3> copied_fanins(const Network& src, NodeId n,
                                           const std::vector<Signal>& map) {
  const Node& nd = src.node(n);
  std::array<Signal, 3> in{};
  for (int i = 0; i < nd.num_fanins; ++i) {
    in[i] = map[nd.fanin[i].node()] ^ nd.fanin[i].complemented();
  }
  return in;
}

/// The library's gate-copy loop: re-strashes the gates of \p nodes (other
/// nodes are skipped) into \p dst in list order, recording each copy in
/// \p map (indexed by src node id; map[0] becomes dst's constant 0).
/// \p nodes must list every gate after its fanins, and \p map must hold
/// the copies of the other nodes they read (PIs, shard boundary nodes).
/// dst numbers new nodes in creation order, so the list's order decides
/// the copy's ids.  For each gate n, \p substitute(n, map, dst) may build
/// n's replacement in \p dst and return it, or return std::nullopt to copy
/// n as itself; as a template parameter it is inlined into the loop.
template <typename Substitute>
void copy_gates(const Network& src, const std::vector<NodeId>& nodes,
                Network& dst, std::vector<Signal>& map,
                Substitute&& substitute) {
  map[0] = dst.constant(false);
  for (const NodeId n : nodes) {
    if (!src.is_gate(n)) continue;
    if (const std::optional<Signal> s = substitute(n, map, dst)) {
      map[n] = *s;
    } else {
      map[n] = dst.create_gate(src.node(n).type, copied_fanins(src, n, map));
    }
  }
}

/// copy_gates() with every gate copied as itself.
inline void copy_gates(const Network& src, const std::vector<NodeId>& nodes,
                       Network& dst, std::vector<Signal>& map) {
  copy_gates(src, nodes, dst, map,
             [](NodeId, const std::vector<Signal>&,
                Network&) -> std::optional<Signal> { return std::nullopt; });
}

/// The library's choice-class transfer: after copy_gates(src, nodes, dst,
/// map), links each copied member to its copied head, visiting heads in
/// list order.  A node counts as copied when it is a gate of \p nodes.  A
/// link is dropped when its member was not copied, when re-strashing
/// merged member and head, when either copy is already a class member, or
/// when the member's copy already heads a class.
void copy_choices(const Network& src, const std::vector<NodeId>& nodes,
                  Network& dst, const std::vector<Signal>& map);

/// Rebuilds \p net gate by gate into a fresh network, reserved for
/// net.size() nodes: \p net's named PIs, copy_gates(net, order, ...,
/// substitute), then \p net's named POs over the copies.  \p order must
/// cover every PO's cone.  Logic that nothing reads stays; cleanup() drops it.
template <typename Substitute>
Network rebuild(const Network& net, const std::vector<NodeId>& order,
                Substitute&& substitute) {
  Network dst;
  dst.reserve(net.size());
  std::vector<Signal> map(net.size());
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    map[net.pi_at(i)] = dst.create_pi(net.pi_name(i));
  }
  copy_gates(net, order, dst, map, substitute);
  for (std::size_t i = 0; i < net.num_pos(); ++i) {
    const Signal s = net.po_at(i);
    dst.create_po(map[s.node()] ^ s.complemented(), net.po_name(i));
  }
  return dst;
}

/// Options for cleanup().
struct CleanupOptions {
  bool keep_choices = false;  ///< preserve choice classes in the copy
};

/// Returns a compacted copy of \p net: \p net's named PIs, copy_gates()
/// over topo_order(net), then the named POs.  Only nodes reachable from the
/// POs survive; nodes are re-strashed, which can merge structurally
/// duplicate logic.  With keep_choices the copy runs over
/// choice_topo_order(net) instead, and copy_choices() carries the classes
/// whose heads that order reaches.
Network cleanup(const Network& net, const CleanupOptions& opts = {});

/// Recomputes node levels assuming unit gate delays; returns network depth.
/// (Levels are maintained incrementally on construction; this is used by
/// tests and by algorithms that temporarily invalidate levels.)
std::uint32_t recompute_levels(Network& net);

/// Sums of structural statistics used all over the benches.
struct NetworkStats {
  std::size_t num_gates = 0;
  std::size_t num_and2 = 0;
  std::size_t num_xor2 = 0;
  std::size_t num_maj3 = 0;
  std::size_t num_xor3 = 0;
  std::uint32_t depth = 0;
  std::size_t num_choices = 0;
};

NetworkStats network_stats(const Network& net);

/// True iff the two networks are structurally bit-identical: same node
/// table (types, fanins, choice links and phases) and the same PI/PO
/// interface.  Mutable traversal scratch state is ignored.  This is the
/// check behind the mcs::par determinism contract (results must not depend
/// on the thread count); it is stricter than functional equivalence.
bool structurally_identical(const Network& a, const Network& b);

}  // namespace mcs
