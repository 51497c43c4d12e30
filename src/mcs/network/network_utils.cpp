#include "mcs/network/network_utils.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace mcs {

namespace {

/// Iterative post-order DFS over fanins, optionally following choice lists.
/// Appends nodes to `order` in a valid topological order.
class TopoVisitor {
 public:
  TopoVisitor(const Network& net, bool follow_choices)
      : net_(net), follow_choices_(follow_choices) {
    net_.new_traversal();
  }

  void visit(NodeId start) {
    if (net_.marked(start)) return;
    stack_.push_back({start, 0});
    while (!stack_.empty()) {
      auto& [n, state] = stack_.back();
      if (net_.marked(n)) {
        stack_.pop_back();
        continue;
      }
      const Node& nd = net_.node(n);
      // Children: fanins first, then (for representatives) class members.
      const int num_children =
          nd.num_fanins +
          (follow_choices_ ? count_members(n) : 0);
      if (state < nd.num_fanins) {
        const NodeId child = nd.fanin[state].node();
        ++state;
        if (!net_.marked(child)) stack_.push_back({child, 0});
        continue;
      }
      if (state < num_children) {
        const NodeId member = member_at(n, state - nd.num_fanins);
        ++state;
        if (!net_.marked(member)) stack_.push_back({member, 0});
        continue;
      }
      net_.mark(n);
      order_.push_back(n);
      stack_.pop_back();
    }
  }

  std::vector<NodeId> take() { return std::move(order_); }

 private:
  int count_members(NodeId n) const {
    if (!net_.is_repr(n)) return 0;  // only class heads own the member list
    int c = 0;
    for (NodeId m = net_.node(n).next_choice; m != kNullNode;
         m = net_.node(m).next_choice) {
      ++c;
    }
    return c;
  }
  NodeId member_at(NodeId n, int idx) const {
    NodeId m = net_.node(n).next_choice;
    while (idx-- > 0) m = net_.node(m).next_choice;
    return m;
  }

  const Network& net_;
  bool follow_choices_;
  std::vector<std::pair<NodeId, int>> stack_;
  std::vector<NodeId> order_;
};

}  // namespace

std::vector<NodeId> collect_cone_nodes(const Network& net,
                                       const std::vector<NodeId>& roots,
                                       bool follow_choices,
                                       std::vector<char>& seen) {
  seen.assign(net.size(), 0);
  std::vector<NodeId> stack;
  std::vector<NodeId> nodes;
  auto push = [&](NodeId n) {
    if (!seen[n]) {
      seen[n] = 1;
      stack.push_back(n);
      nodes.push_back(n);
    }
  };
  for (const NodeId r : roots) push(r);
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    const Node& nd = net.node(n);
    for (int i = 0; i < nd.num_fanins; ++i) push(nd.fanin[i].node());
    if (follow_choices && net.is_repr(n)) {
      for (NodeId m = nd.next_choice; m != kNullNode;
           m = net.node(m).next_choice) {
        push(m);
      }
    }
  }
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

std::vector<NodeId> topo_order(const Network& net) {
  return topo_order(net, net.pos());
}

std::vector<NodeId> topo_order(const Network& net,
                               const std::vector<Signal>& roots) {
  TopoVisitor v(net, /*follow_choices=*/false);
  for (const Signal s : roots) v.visit(s.node());
  return v.take();
}

std::vector<NodeId> choice_topo_order(const Network& net) {
  TopoVisitor v(net, /*follow_choices=*/true);
  for (const auto s : net.pos()) v.visit(s.node());
  return v.take();
}

std::vector<std::uint32_t> dependency_depth(const Network& net,
                                            const std::vector<NodeId>& order,
                                            bool follow_choices) {
  std::vector<std::uint32_t> depth(net.size(), 0);
  for (const NodeId n : order) {
    const Node& nd = net.node(n);
    std::uint32_t d = 0;
    for (int i = 0; i < nd.num_fanins; ++i) {
      d = std::max(d, depth[nd.fanin[i].node()] + 1);
    }
    if (follow_choices && net.is_repr(n)) {
      for (NodeId m = nd.next_choice; m != kNullNode;
           m = net.node(m).next_choice) {
        d = std::max(d, depth[m] + 1);
      }
    }
    depth[n] = d;
  }
  return depth;
}

ChoiceGuard::ChoiceGuard(Network& net) : net_(net) { rank_all(); }

void ChoiceGuard::rank_all() {
  TopoVisitor v(net_, /*follow_choices=*/true);
  for (NodeId n = 0; n < net_.size(); ++n) v.visit(n);
  rank_ = dependency_depth(net_, v.take(), /*follow_choices=*/true);
  stale_ = false;
}

bool ChoiceGuard::reaches_head(NodeId member, NodeId head) {
  const std::uint32_t floor = rank_[head];
  net_.new_traversal();
  net_.mark(member);
  stack_.assign(1, member);
  auto push = [&](NodeId c) {
    if (c == head) return true;
    if (rank_[c] >= floor && !net_.marked(c)) {
      net_.mark(c);
      stack_.push_back(c);
    }
    return false;
  };
  while (!stack_.empty()) {
    const NodeId n = stack_.back();
    stack_.pop_back();
    const Node& nd = net_.node(n);
    for (int i = 0; i < nd.num_fanins; ++i) {
      if (push(nd.fanin[i].node())) return true;
    }
    // Only a class head depends on the member list.
    if (net_.is_repr(n)) {
      for (NodeId m = nd.next_choice; m != kNullNode;
           m = net_.node(m).next_choice) {
        if (push(m)) return true;
      }
    }
  }
  return false;
}

bool ChoiceGuard::attach(NodeId head, NodeId member, bool phase) {
  if (stale_) {
    rank_all();
    ++reranks_;
  }
  for (auto n = static_cast<NodeId>(rank_.size()); n < net_.size(); ++n) {
    const Node& nd = net_.node(n);
    assert(net_.is_repr(n) && nd.next_choice == kNullNode);
    std::uint32_t r = 0;
    for (int i = 0; i < nd.num_fanins; ++i) {
      r = std::max(r, rank_[nd.fanin[i].node()]);
    }
    rank_.push_back(r);
  }
  if (rank_[member] >= rank_[head]) {
    ++searches_;
    if (reaches_head(member, head)) return false;
    stale_ = rank_[member] > rank_[head];
  }
  net_.add_choice(head, member, phase);
  return true;
}

Cone compute_mffc(const Network& net, NodeId root, int max_leaves) {
  Cone cone;
  if (!net.is_gate(root)) return cone;

  // Simulated dereferencing: decrement fanout counts of the root's cone;
  // a gate whose count drops to zero belongs to the MFFC.
  std::unordered_map<NodeId, std::uint32_t> count;
  std::vector<NodeId> inner;
  std::vector<NodeId> stack{root};
  net.new_traversal();
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    inner.push_back(n);
    const Node& nd = net.node(n);
    for (int i = 0; i < nd.num_fanins; ++i) {
      const NodeId c = nd.fanin[i].node();
      auto [it, inserted] = count.emplace(c, net.node(c).fanout_size);
      assert(it->second > 0);
      --it->second;
      if (it->second == 0 && net.is_gate(c) && !net.marked(c)) {
        net.mark(c);
        stack.push_back(c);
      }
    }
  }

  // Leaves: referenced nodes with remaining references, plus referenced
  // PIs; constants are not leaves.
  std::vector<NodeId> leaves;
  for (const auto& [n, remaining] : count) {
    const bool in_cone = net.marked(n);
    if (in_cone && remaining == 0) continue;
    if (net.is_const0(n)) continue;
    leaves.push_back(n);
  }
  if (static_cast<int>(leaves.size()) > max_leaves) return cone;

  std::sort(leaves.begin(), leaves.end());
  // `inner` was collected root-first; reverse for topological order.
  std::reverse(inner.begin(), inner.end());
  cone.inner = std::move(inner);
  cone.leaves = std::move(leaves);
  return cone;
}

TruthTable cone_function(const Network& net, Signal root,
                         const std::vector<NodeId>& leaves) {
  const int n = static_cast<int>(leaves.size());
  assert(n <= TruthTable::kMaxVars);

  std::unordered_map<NodeId, TruthTable> value;
  value.emplace(NodeId{0}, TruthTable::constant(false, n));
  for (int i = 0; i < n; ++i) {
    value.emplace(leaves[i], TruthTable::projection(i, n));
  }

  // Iterative evaluation with an explicit stack.
  std::vector<NodeId> stack{root.node()};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    if (value.count(id)) {
      stack.pop_back();
      continue;
    }
    const Node& nd = net.node(id);
    assert(net.is_gate(id) && "cone_function: cone escapes the given leaves");
    bool ready = true;
    for (int i = 0; i < nd.num_fanins; ++i) {
      const NodeId c = nd.fanin[i].node();
      if (!value.count(c)) {
        if (ready) ready = false;
        stack.push_back(c);
      }
    }
    if (!ready) continue;
    std::array<TruthTable, 3> in;
    for (int i = 0; i < nd.num_fanins; ++i) {
      in[i] = value.at(nd.fanin[i].node());
      if (nd.fanin[i].complemented()) in[i] = ~in[i];
    }
    TruthTable out;
    switch (nd.type) {
      case GateType::kAnd2:
        out = in[0] & in[1];
        break;
      case GateType::kXor2:
        out = in[0] ^ in[1];
        break;
      case GateType::kMaj3:
        out = (in[0] & in[1]) | (in[0] & in[2]) | (in[1] & in[2]);
        break;
      case GateType::kXor3:
        out = in[0] ^ in[1] ^ in[2];
        break;
      default:
        assert(false);
    }
    value.emplace(id, std::move(out));
    stack.pop_back();
  }

  TruthTable result = value.at(root.node());
  if (root.complemented()) result = ~result;
  return result;
}

std::vector<Signal> copy_cones(const Network& src, Network& dst,
                               const std::vector<Signal>& roots,
                               const std::vector<Signal>& pi_map) {
  assert(pi_map.size() == src.num_pis());
  std::vector<Signal> map(src.size());
  for (std::size_t i = 0; i < src.num_pis(); ++i) map[src.pi_at(i)] = pi_map[i];
  copy_gates(src, topo_order(src, roots), dst, map);
  std::vector<Signal> out;
  out.reserve(roots.size());
  for (const Signal r : roots) out.push_back(map[r.node()] ^ r.complemented());
  return out;
}

void copy_choices(const Network& src, const std::vector<NodeId>& nodes,
                  Network& dst, const std::vector<Signal>& map) {
  std::vector<bool> copied(src.size(), false);
  for (const NodeId n : nodes) copied[n] = src.is_gate(n);
  for (const NodeId n : nodes) {
    if (!copied[n] || !src.is_repr(n)) continue;
    for (NodeId m = src.node(n).next_choice; m != kNullNode;
         m = src.node(m).next_choice) {
      if (!copied[m]) continue;
      const NodeId new_repr = map[n].node();
      const NodeId new_member = map[m].node();
      if (new_member == new_repr) continue;  // re-strashing merged them
      if (!dst.is_repr(new_member) || !dst.is_repr(new_repr)) continue;
      if (dst.node(new_member).next_choice != kNullNode) continue;
      const bool phase = src.node(m).choice_phase ^ map[n].complemented() ^
                         map[m].complemented();
      dst.add_choice(new_repr, new_member, phase);
    }
  }
}

Network cleanup(const Network& net, const CleanupOptions& opts) {
  const std::vector<NodeId> order =
      opts.keep_choices ? choice_topo_order(net) : topo_order(net);
  Network dst;
  dst.reserve(net.size());
  std::vector<Signal> map(net.size());
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    map[net.pi_at(i)] = dst.create_pi(net.pi_name(i));
  }
  copy_gates(net, order, dst, map);
  for (std::size_t i = 0; i < net.num_pos(); ++i) {
    const Signal s = net.po_at(i);
    dst.create_po(map[s.node()] ^ s.complemented(), net.po_name(i));
  }
  if (opts.keep_choices) copy_choices(net, order, dst, map);
  return dst;
}

std::uint32_t recompute_levels(Network& net) {
  for (NodeId n = 0; n < net.size(); ++n) {
    Node& nd = net.node(n);
    if (!net.is_gate(n)) {
      nd.level = 0;
      continue;
    }
    std::uint32_t lvl = 0;
    for (int i = 0; i < nd.num_fanins; ++i) {
      lvl = std::max(lvl, net.node(nd.fanin[i].node()).level);
    }
    nd.level = lvl + 1;
  }
  net.invalidate_depth_cache();
  return net.depth();
}

NetworkStats network_stats(const Network& net) {
  NetworkStats s;
  for (NodeId n = 0; n < net.size(); ++n) {
    switch (net.node(n).type) {
      case GateType::kAnd2:
        ++s.num_and2;
        break;
      case GateType::kXor2:
        ++s.num_xor2;
        break;
      case GateType::kMaj3:
        ++s.num_maj3;
        break;
      case GateType::kXor3:
        ++s.num_xor3;
        break;
      default:
        break;
    }
  }
  s.num_gates = s.num_and2 + s.num_xor2 + s.num_maj3 + s.num_xor3;
  s.depth = net.depth();
  s.num_choices = net.num_choices();
  return s;
}

bool structurally_identical(const Network& a, const Network& b) {
  if (a.size() != b.size() || a.pis() != b.pis() ||
      a.num_pos() != b.num_pos()) {
    return false;
  }
  for (NodeId n = 0; n < a.size(); ++n) {
    const Node& x = a.node(n);
    const Node& y = b.node(n);
    if (x.type != y.type || x.num_fanins != y.num_fanins ||
        x.repr != y.repr || x.next_choice != y.next_choice ||
        x.choice_phase != y.choice_phase) {
      return false;
    }
    for (int i = 0; i < x.num_fanins; ++i) {
      if (x.fanin[i] != y.fanin[i]) return false;
    }
  }
  for (std::size_t i = 0; i < a.num_pos(); ++i) {
    if (a.po_at(i) != b.po_at(i)) return false;
  }
  return true;
}

}  // namespace mcs
