#include "mcs/network/network.hpp"

#include <algorithm>

namespace mcs {

const char* gate_type_name(GateType t) noexcept {
  switch (t) {
    case GateType::kConst0:
      return "const0";
    case GateType::kPi:
      return "pi";
    case GateType::kAnd2:
      return "and2";
    case GateType::kXor2:
      return "xor2";
    case GateType::kMaj3:
      return "maj3";
    case GateType::kXor3:
      return "xor3";
  }
  return "?";
}

Network::Network() {
  // Node 0 is the constant-zero node.
  nodes_.emplace_back();
  ++type_counts_[static_cast<std::size_t>(GateType::kConst0)];
}

Signal Network::create_pi(std::string name) {
  Node n;
  n.type = GateType::kPi;
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(n);
  pis_.push_back(id);
  pi_names_.push_back(name.empty() ? "pi" + std::to_string(pis_.size() - 1)
                                   : std::move(name));
  ++type_counts_[static_cast<std::size_t>(GateType::kPi)];
  return Signal(id, false);
}

void Network::create_po(Signal s, std::string name) {
  pos_.push_back(s);
  po_names_.push_back(name.empty() ? "po" + std::to_string(pos_.size() - 1)
                                   : std::move(name));
  ++nodes_[s.node()].fanout_size;
  if (depth_cache_valid_) {
    depth_cache_ = std::max(depth_cache_, nodes_[s.node()].level);
  }
}

NodeId Network::create_node(GateType t, const std::array<Signal, 3>& fanins,
                            int arity) {
  const StrashTable::Key key{fanins[0].raw(), fanins[1].raw(),
                             fanins[2].raw()};
  if (const NodeId hit = strash_.lookup(t, key); hit != kNullNode) return hit;

  Node n;
  n.type = t;
  n.num_fanins = static_cast<std::uint8_t>(arity);
  n.fanin = fanins;
  std::uint32_t lvl = 0;
  for (int i = 0; i < arity; ++i) {
    lvl = std::max(lvl, nodes_[fanins[i].node()].level);
    ++nodes_[fanins[i].node()].fanout_size;
  }
  n.level = lvl + 1;
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(n);
  strash_.insert(t, key, id);
  ++num_gates_;
  ++type_counts_[static_cast<std::size_t>(t)];
  return id;
}

NodeId Network::lookup_gate(GateType t,
                            const std::array<Signal, 3>& fanins) const {
  return strash_.lookup(
      t, {fanins[0].raw(), fanins[1].raw(), fanins[2].raw()});
}

Signal Network::create_and(Signal a, Signal b) {
  // Constant and trivial rules.
  if (a == constant(false) || b == constant(false)) return constant(false);
  if (a == constant(true)) return b;
  if (b == constant(true)) return a;
  if (a == b) return a;
  if (a == !b) return constant(false);
  if (b < a) std::swap(a, b);
  return Signal(create_node(GateType::kAnd2, {a, b, Signal()}, 2), false);
}

Signal Network::create_or(Signal a, Signal b) {
  return !create_and(!a, !b);
}

Signal Network::create_xor(Signal a, Signal b) {
  if (a == constant(false)) return b;
  if (a == constant(true)) return !b;
  if (b == constant(false)) return a;
  if (b == constant(true)) return !a;
  if (a == b) return constant(false);
  if (a == !b) return constant(true);
  // Push complements to the output: XOR(a, b) == XOR(!a, b) ^ 1.
  const bool phase = a.complemented() ^ b.complemented();
  a = Signal(a.node(), false);
  b = Signal(b.node(), false);
  if (b < a) std::swap(a, b);
  return Signal(create_node(GateType::kXor2, {a, b, Signal()}, 2), phase);
}

Signal Network::create_maj(Signal a, Signal b, Signal c) {
  // Constant special cases: MAJ(a, b, 0) == AND, MAJ(a, b, 1) == OR.
  if (a.node() == 0) return a.complemented() ? create_or(b, c) : create_and(b, c);
  if (b.node() == 0) return b.complemented() ? create_or(a, c) : create_and(a, c);
  if (c.node() == 0) return c.complemented() ? create_or(a, b) : create_and(a, b);
  // Equal / complementary pairs: MAJ(x, x, y) == x, MAJ(x, !x, y) == y.
  if (a == b) return a;
  if (a == !b) return c;
  if (a == c) return a;
  if (a == !c) return b;
  if (b == c) return b;
  if (b == !c) return a;
  // Sort by node id (nodes are distinct here).
  if (b.node() < a.node()) std::swap(a, b);
  if (c.node() < b.node()) std::swap(b, c);
  if (b.node() < a.node()) std::swap(a, b);
  // Self-duality: if two or more fanins are complemented, flip all fanins
  // and the output so at most one complement edge remains.
  const int num_compl = static_cast<int>(a.complemented()) +
                        static_cast<int>(b.complemented()) +
                        static_cast<int>(c.complemented());
  bool phase = false;
  if (num_compl >= 2) {
    a = !a;
    b = !b;
    c = !c;
    phase = true;
  }
  return Signal(create_node(GateType::kMaj3, {a, b, c}, 3), phase);
}

Signal Network::create_xor3(Signal a, Signal b, Signal c) {
  // Fold constants into 2-input XOR.
  if (a.node() == 0) return create_xor(b, c) ^ a.complemented();
  if (b.node() == 0) return create_xor(a, c) ^ b.complemented();
  if (c.node() == 0) return create_xor(a, b) ^ c.complemented();
  // Equal / complementary pairs cancel.
  if (a == b) return c;
  if (a == !b) return !c;
  if (a == c) return b;
  if (a == !c) return !b;
  if (b == c) return a;
  if (b == !c) return !a;
  // Push all complements to the output.
  const bool phase =
      a.complemented() ^ b.complemented() ^ c.complemented();
  a = Signal(a.node(), false);
  b = Signal(b.node(), false);
  c = Signal(c.node(), false);
  if (b < a) std::swap(a, b);
  if (c < b) std::swap(b, c);
  if (b < a) std::swap(a, b);
  return Signal(create_node(GateType::kXor3, {a, b, c}, 3), phase);
}

Signal Network::create_ite(Signal cond, Signal then_s, Signal else_s) {
  return create_or(create_and(cond, then_s), create_and(!cond, else_s));
}

Signal Network::create_gate(GateType t, const std::array<Signal, 3>& fanins) {
  switch (t) {
    case GateType::kAnd2:
      return create_and(fanins[0], fanins[1]);
    case GateType::kXor2:
      return create_xor(fanins[0], fanins[1]);
    case GateType::kMaj3:
      return create_maj(fanins[0], fanins[1], fanins[2]);
    case GateType::kXor3:
      return create_xor3(fanins[0], fanins[1], fanins[2]);
    default:
      assert(false && "create_gate: not a gate type");
      return constant(false);
  }
}

NodeId Network::restore_gate(GateType t,
                             const std::array<Signal, 3>& fanins) {
  assert(t >= GateType::kAnd2 && "restore_gate: not a gate type");
  return create_node(t, fanins, gate_arity(t));
}

std::uint32_t Network::depth() const noexcept {
  if (!depth_cache_valid_) {
    std::uint32_t d = 0;
    for (const auto s : pos_) d = std::max(d, nodes_[s.node()].level);
    depth_cache_ = d;
    depth_cache_valid_ = true;
  }
  return depth_cache_;
}

bool Network::is_aig() const noexcept {
  return num_gates_of(GateType::kXor2) == 0 &&
         num_gates_of(GateType::kMaj3) == 0 &&
         num_gates_of(GateType::kXor3) == 0;
}

void Network::add_choice(NodeId repr, NodeId member, bool phase) {
  assert(repr != member);
  assert(is_repr(repr));
  assert(is_repr(member));
  assert(nodes_[member].next_choice == kNullNode);
  Node& m = nodes_[member];
  m.repr = repr;
  m.choice_phase = phase;
  // Insert at the head of the representative's list.
  m.next_choice = nodes_[repr].next_choice;
  nodes_[repr].next_choice = member;
  ++num_choices_;
}

bool Network::check(std::string* error) const {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  const auto at = [](const char* what, NodeId n) {
    return std::string(what) + " at node " + std::to_string(n);
  };

  if (nodes_.empty() || nodes_[0].type != GateType::kConst0 ||
      nodes_[0].num_fanins != 0 || nodes_[0].level != 0) {
    return fail("node 0 is not the constant-zero node");
  }
  if (pis_.size() != pi_names_.size() || pos_.size() != po_names_.size()) {
    return fail("PI/PO name arrays out of sync");
  }

  // Per-node structure: valid type, matching arity, in-range fanins that
  // precede the node (append-only construction makes ids a topo order),
  // and the level recurrence create_node maintains.
  std::array<std::size_t, 6> counts{};
  std::vector<std::uint32_t> fanouts(nodes_.size(), 0);
  std::size_t gates = 0;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& nd = nodes_[id];
    if (static_cast<std::uint8_t>(nd.type) > 5) {
      return fail(at("unknown gate type", id));
    }
    if (nd.type == GateType::kConst0 && id != 0) {
      return fail(at("second constant node", id));
    }
    const int arity = gate_arity(nd.type);
    if (nd.num_fanins != arity) return fail(at("arity/type mismatch", id));
    std::uint32_t lvl = 0;
    for (int i = 0; i < arity; ++i) {
      const NodeId f = nd.fanin[static_cast<std::size_t>(i)].node();
      if (f >= id) return fail(at("fanin breaks topological order", id));
      lvl = std::max(lvl, nodes_[f].level);
      ++fanouts[f];
    }
    const std::uint32_t expect = arity > 0 ? lvl + 1 : 0;
    if (nd.level != expect) return fail(at("stale level", id));
    ++counts[static_cast<std::size_t>(nd.type)];
    if (is_gate(id)) ++gates;
  }
  if (counts != type_counts_) return fail("type counters out of date");
  if (gates != num_gates_) return fail("gate counter out of date");

  // PI/PO consistency.  pis_ is strictly ascending (create_pi appends), so
  // equal counts + all-kPi entries pin an exact bijection with PI nodes.
  for (std::size_t i = 0; i < pis_.size(); ++i) {
    if (pis_[i] >= nodes_.size() || !is_pi(pis_[i])) {
      return fail("pis_ entry " + std::to_string(i) + " is not a PI node");
    }
    if (i > 0 && pis_[i] <= pis_[i - 1]) return fail("pis_ not ascending");
  }
  if (pis_.size() != counts[static_cast<std::size_t>(GateType::kPi)]) {
    return fail("pis_ misses PI nodes");
  }
  std::uint32_t max_po_level = 0;
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    if (pos_[i].node() >= nodes_.size()) {
      return fail("PO " + std::to_string(i) + " out of range");
    }
    ++fanouts[pos_[i].node()];
    max_po_level = std::max(max_po_level, nodes_[pos_[i].node()].level);
  }
  if (depth_cache_valid_ && depth_cache_ != max_po_level) {
    return fail("stale depth cache");
  }
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].fanout_size != fanouts[id]) {
      return fail(at("stale fanout count", id));
    }
  }

  // Choice classes: members point at true representatives, chains are
  // null-terminated without cycles, no node sits in two chains, and the
  // aggregate member count matches the cached counter.
  std::size_t members = 0;
  std::vector<bool> chained(nodes_.size(), false);
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& nd = nodes_[id];
    if (nd.repr != kNullNode) {
      ++members;
      if (nd.repr >= nodes_.size() || nd.repr == id ||
          nodes_[nd.repr].repr != kNullNode) {
        return fail(at("choice member without a representative", id));
      }
    }
    if (!is_repr(id)) continue;
    std::size_t len = 0;
    for (NodeId m = nd.next_choice; m != kNullNode; m = nodes_[m].next_choice) {
      if (m >= nodes_.size() || nodes_[m].repr != id || chained[m] ||
          ++len > nodes_.size()) {
        return fail(at("broken choice chain", id));
      }
      chained[m] = true;
    }
  }
  if (members != num_choices_) return fail("choice counter out of date");
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].repr != kNullNode && !chained[id]) {
      return fail(at("choice member missing from its chain", id));
    }
  }

  // Dependency cycles: a gate depends on its fanins and a class head on its
  // members, and choice-aware algorithms need an order respecting both.  A
  // member built on top of its head has none (and choice_topo_order would
  // recurse until memory runs out), so colour every node once: a DFS edge
  // into a node still open closes a cycle.
  enum : std::uint8_t { kNew, kOpen, kDone };
  std::vector<std::uint8_t> colour(nodes_.size(), kNew);
  struct Frame {
    NodeId n;
    int fanin;      // next fanin to follow
    NodeId member;  // next member to follow (heads only)
  };
  std::vector<Frame> stack;
  const auto open = [&](NodeId n) {
    colour[n] = kOpen;
    stack.push_back({n, 0, is_repr(n) ? nodes_[n].next_choice : kNullNode});
  };
  for (NodeId root = 0; root < nodes_.size(); ++root) {
    if (colour[root] != kNew) continue;
    open(root);
    while (!stack.empty()) {
      Frame& f = stack.back();
      NodeId child = kNullNode;
      if (f.fanin < nodes_[f.n].num_fanins) {
        child = nodes_[f.n].fanin[static_cast<std::size_t>(f.fanin++)].node();
      } else if (f.member != kNullNode) {
        child = f.member;
        f.member = nodes_[child].next_choice;
      } else {
        colour[f.n] = kDone;
        stack.pop_back();
        continue;
      }
      if (colour[child] == kOpen) return fail(at("choice cycle", child));
      if (colour[child] == kNew) open(child);
    }
  }

  // Strash coverage: every gate must be findable under its own key, or
  // future create_* calls would silently duplicate structure.
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (!is_gate(id)) continue;
    if (lookup_gate(nodes_[id].type, nodes_[id].fanin) != id) {
      return fail(at("gate missing from the strash table", id));
    }
  }
  return true;
}

}  // namespace mcs
