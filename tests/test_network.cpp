/// Unit tests for the mixed network: strashing rules, constant folding,
/// levels, choices and their acyclicity guard, traversal utilities, cones
/// and cleanup.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <tuple>

#include "mcs/common/rng.hpp"
#include "mcs/network/network.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/sim/simulator.hpp"
#include "test_util.hpp"

namespace mcs {
namespace {

TEST(Network, ConstantsAndPis) {
  Network net;
  EXPECT_EQ(net.size(), 1u);
  EXPECT_TRUE(net.is_const0(0));
  const Signal a = net.create_pi("a");
  EXPECT_TRUE(net.is_pi(a.node()));
  EXPECT_EQ(net.num_pis(), 1u);
  EXPECT_EQ(net.pi_name(0), "a");
  EXPECT_EQ(net.constant(true), !net.constant(false));
}

TEST(Network, AndFoldingRules) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  EXPECT_EQ(net.create_and(a, net.constant(false)), net.constant(false));
  EXPECT_EQ(net.create_and(a, net.constant(true)), a);
  EXPECT_EQ(net.create_and(a, a), a);
  EXPECT_EQ(net.create_and(a, !a), net.constant(false));
  const Signal g1 = net.create_and(a, b);
  const Signal g2 = net.create_and(b, a);
  EXPECT_EQ(g1, g2) << "strashing must canonicalize operand order";
  EXPECT_EQ(net.num_gates(), 1u);
}

TEST(Network, XorNormalizesComplements) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal x1 = net.create_xor(a, b);
  const Signal x2 = net.create_xor(!a, b);
  const Signal x3 = net.create_xor(a, !b);
  const Signal x4 = net.create_xor(!a, !b);
  EXPECT_EQ(x1, !x2);
  EXPECT_EQ(x2, x3);
  EXPECT_EQ(x1, x4);
  EXPECT_EQ(net.num_gates(), 1u) << "all four XORs share one node";
  EXPECT_EQ(net.create_xor(a, a), net.constant(false));
  EXPECT_EQ(net.create_xor(a, !a), net.constant(true));
}

TEST(Network, MajSpecialCases) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  // Constant fanins degrade to AND/OR.
  EXPECT_EQ(net.create_maj(a, b, net.constant(false)), net.create_and(a, b));
  EXPECT_EQ(net.create_maj(a, b, net.constant(true)), net.create_or(a, b));
  // Duplicate / complementary fanins.
  EXPECT_EQ(net.create_maj(a, a, c), a);
  EXPECT_EQ(net.create_maj(a, !a, c), c);
  // Self-duality normalization.
  const Signal m1 = net.create_maj(a, b, c);
  const Signal m2 = net.create_maj(!a, !b, !c);
  EXPECT_EQ(m1, !m2);
}

TEST(Network, MajSelfDualSimulation) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  net.create_po(net.create_maj(!a, !b, c));  // two complements: normalized
  const auto pos = simulate_pos(net);
  // MAJ(!a,!b,c) truth table over (a,b,c).
  for (int m = 0; m < 8; ++m) {
    const bool va = m & 1, vb = m & 2, vc = m & 4;
    const int ones = !va + !vb + vc;
    EXPECT_EQ(pos[0].get_bit(m), ones >= 2);
  }
}

TEST(Network, Xor3PushesComplementsOut) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal x1 = net.create_xor3(a, b, c);
  const Signal x2 = net.create_xor3(!a, b, c);
  const Signal x3 = net.create_xor3(!a, !b, !c);
  EXPECT_EQ(x1, !x2);
  EXPECT_EQ(x1, !x3);
  EXPECT_EQ(net.num_gates(), 1u);
  EXPECT_EQ(net.create_xor3(a, a, c), c);
  EXPECT_EQ(net.create_xor3(a, !a, c), !c);
}

TEST(Network, LevelsAndDepth) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal g1 = net.create_and(a, b);
  const Signal g2 = net.create_and(g1, c);
  net.create_po(g2);
  EXPECT_EQ(net.level(g1.node()), 1u);
  EXPECT_EQ(net.level(g2.node()), 2u);
  EXPECT_EQ(net.depth(), 2u);
  Network copy = net;
  EXPECT_EQ(recompute_levels(copy), 2u);
}

TEST(Network, FanoutCounts) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal g1 = net.create_and(a, b);
  const Signal g2 = net.create_and(g1, !a);
  net.create_po(g1);
  net.create_po(g2);
  EXPECT_EQ(net.node(a.node()).fanout_size, 2u);  // g1 and g2
  EXPECT_EQ(net.node(g1.node()).fanout_size, 2u); // g2 and PO
  EXPECT_EQ(net.node(g2.node()).fanout_size, 1u); // PO
}

TEST(Network, ChoiceLinks) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal r = net.create_and(net.create_and(a, b), c);
  const Signal m = net.create_and(a, net.create_and(b, c));
  net.create_po(r);
  ASSERT_NE(r.node(), m.node());
  EXPECT_TRUE(net.is_repr(r.node()));
  net.add_choice(r.node(), m.node(), false);
  EXPECT_TRUE(net.has_choice(r.node()));
  EXPECT_FALSE(net.is_repr(m.node()));
  EXPECT_EQ(net.repr_of(m.node()), r.node());
  EXPECT_EQ(net.num_choices(), 1u);
}

TEST(Network, CheckRejectsChoiceCycles) {
  {
    // A member built on top of its own head.
    Network net;
    const Signal a = net.create_pi();
    const Signal b = net.create_pi();
    const Signal g1 = net.create_and(a, b);
    const Signal g2 = net.create_and(g1, a);
    net.create_po(g1);
    std::string why;
    ASSERT_TRUE(net.check(&why)) << why;
    net.add_choice(g1.node(), g2.node(), false);
    EXPECT_FALSE(net.check(&why));
    EXPECT_NE(why.find("choice cycle at node"), std::string::npos) << why;
  }
  {
    // Through two classes: each member depends on the other class's head,
    // so no single class shows the cycle.
    Network net;
    const Signal a = net.create_pi();
    const Signal b = net.create_pi();
    const Signal c = net.create_pi();
    const Signal h1 = net.create_and(a, b);
    const Signal h2 = net.create_and(a, c);
    const Signal m1 = net.create_and(h2, b);
    const Signal m2 = net.create_and(h1, c);
    net.create_po(h1);
    net.create_po(h2);
    net.add_choice(h1.node(), m1.node(), false);
    std::string why;
    ASSERT_TRUE(net.check(&why)) << why;
    net.add_choice(h2.node(), m2.node(), false);
    EXPECT_FALSE(net.check(&why));
    EXPECT_NE(why.find("choice cycle at node"), std::string::npos) << why;
  }
}

TEST(NetworkUtils, TopoOrderRespectsFanins) {
  const auto net = testing::random_network({});
  const auto order = topo_order(net);
  std::vector<int> pos(net.size(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = (int)i;
  for (const NodeId n : order) {
    const Node& nd = net.node(n);
    for (int i = 0; i < nd.num_fanins; ++i) {
      EXPECT_LT(pos[nd.fanin[i].node()], pos[n]);
    }
  }
}

TEST(NetworkUtils, ChoiceTopoOrderPutsMembersFirst) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal r = net.create_and(net.create_and(a, b), c);
  const Signal m = net.create_and(a, net.create_and(b, c));
  net.create_po(r);
  net.add_choice(r.node(), m.node(), false);
  const auto order = choice_topo_order(net);
  std::vector<int> pos(net.size(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = (int)i;
  ASSERT_GE(pos[m.node()], 0) << "member must be visited";
  EXPECT_LT(pos[m.node()], pos[r.node()]);
  for (const NodeId n : order) {
    const Node& nd = net.node(n);
    for (int i = 0; i < nd.num_fanins; ++i) {
      EXPECT_LT(pos[nd.fanin[i].node()], pos[n]);
    }
  }
}

/// Oracle for ChoiceGuard: is \p target reachable from \p from over
/// fanins and (for class heads) members?
bool depends_on(const Network& net, NodeId from, NodeId target) {
  std::vector<char> seen(net.size(), 0);
  std::vector<NodeId> stack{from};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (n == target) return true;
    if (seen[n]) continue;
    seen[n] = 1;
    const Node& nd = net.node(n);
    for (int i = 0; i < nd.num_fanins; ++i) stack.push_back(nd.fanin[i].node());
    if (!net.is_repr(n)) continue;
    for (NodeId m = nd.next_choice; m != kNullNode;
         m = net.node(m).next_choice) {
      stack.push_back(m);
    }
  }
  return false;
}

TEST(ChoiceGuard, AgreesWithReachabilityOracle) {
  std::size_t accepted = 0, rejected = 0, searches = 0, reranks = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    Network net = testing::random_network(
        {.num_pis = 6, .num_gates = 40, .num_pos = 4, .seed = seed});
    ChoiceGuard guard(net);
    Rng rng(seed);
    const auto pick = [&] {
      return Signal(static_cast<NodeId>(rng.next_below(net.size())),
                    rng.next_bool());
    };
    const auto any_gate = [&] {
      NodeId n = 0;
      while (!net.is_gate(n)) {
        n = static_cast<NodeId>(rng.next_below(net.size()));
      }
      return n;
    };
    for (int q = 0; q < 200; ++q) {
      // The network grows between attaches, as under the MCH strategies.
      for (auto k = rng.next_below(4); k-- > 0;) {
        net.create_xor3(pick(), pick(), pick());
      }
      const NodeId head = any_gate();
      if (!net.is_repr(head)) continue;
      NodeId member = 0;
      switch (rng.next_below(3)) {
        case 0:  // built on top of the head: must be rejected
          member = net.create_and(Signal(head, false), pick()).node();
          break;
        case 1:  // a fresh candidate somewhere in the network
          member = net.create_maj(pick(), pick(), pick()).node();
          break;
        default:  // an existing node, often ranked above the head
          member = any_gate();
          break;
      }
      if (member == head || !net.is_gate(member) || !net.is_repr(member) ||
          net.node(member).next_choice != kNullNode) {
        continue;
      }
      const bool safe = !depends_on(net, member, head);
      ASSERT_EQ(guard.attach(head, member, rng.next_bool()), safe)
          << "seed " << seed << ", query " << q;
      ++(safe ? accepted : rejected);
      std::string why;
      ASSERT_TRUE(net.check(&why)) << why;
    }
    searches += guard.searches();
    reranks += guard.reranks();
  }
  // Every path of the guard ran: attaches without a search, searches that
  // rejected, and members outranking their head that forced a re-rank.
  EXPECT_LT(searches, accepted + rejected);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(reranks, 0u);
}

TEST(NetworkUtils, MffcOfTree) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal d = net.create_pi();
  const Signal g1 = net.create_and(a, b);
  const Signal g2 = net.create_and(c, d);
  const Signal g3 = net.create_and(g1, g2);
  net.create_po(g3);
  const auto cone = compute_mffc(net, g3.node(), 8);
  EXPECT_EQ(cone.inner.size(), 3u) << "whole tree is fanout-free";
  EXPECT_EQ(cone.leaves.size(), 4u);
}

TEST(NetworkUtils, MffcStopsAtSharedNodes) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal g1 = net.create_and(a, b);
  const Signal g2 = net.create_and(g1, c);
  net.create_po(g2);
  net.create_po(g1);  // g1 is shared: not in MFFC of g2
  const auto cone = compute_mffc(net, g2.node(), 8);
  EXPECT_EQ(cone.inner.size(), 1u);
  ASSERT_EQ(cone.leaves.size(), 2u);
  EXPECT_TRUE(std::find(cone.leaves.begin(), cone.leaves.end(), g1.node()) !=
              cone.leaves.end());
}

TEST(NetworkUtils, ConeFunctionMatchesSimulation) {
  const auto net = testing::random_network({.num_pis = 5, .num_gates = 30});
  const auto pos = simulate_pos(net);
  std::vector<NodeId> pis(net.pis());
  for (std::size_t i = 0; i < net.num_pos(); ++i) {
    EXPECT_EQ(cone_function(net, net.po_at(i), pis), pos[i]);
  }
}

TEST(NetworkUtils, CleanupDropsDanglingAndPreservesFunction) {
  auto net = testing::random_network({.num_pis = 5, .num_gates = 40});
  const auto before = simulate_pos(net);
  const Network compact = cleanup(net);
  const auto after = simulate_pos(compact);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]);
  }
  EXPECT_LE(compact.num_gates(), net.num_gates());
  // Every gate in the compact network is reachable from a PO.
  const auto order = topo_order(compact);
  std::size_t gates_in_order = 0;
  for (const NodeId n : order) {
    if (compact.is_gate(n)) ++gates_in_order;
  }
  EXPECT_EQ(gates_in_order, compact.num_gates());
}

TEST(NetworkUtils, CleanupKeepsChoices) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal r = net.create_and(net.create_and(a, b), c);
  const Signal m = net.create_and(a, net.create_and(b, c));
  net.create_po(r);
  net.add_choice(r.node(), m.node(), false);
  const Network kept = cleanup(net, {.keep_choices = true});
  EXPECT_EQ(kept.num_choices(), 1u);
  const Network dropped = cleanup(net);
  EXPECT_EQ(dropped.num_choices(), 0u);
}

TEST(NetworkUtils, CleanupKeepsClassesReachedThroughMemberCones) {
  // Head h1 lies in no PO cone: only the member cone of the higher-id head
  // h2 reaches it.  Both classes survive the copy.
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal d = net.create_pi();
  const Signal ab = net.create_and(a, b);
  const Signal h1 = net.create_and(ab, c);
  const Signal m1 = net.create_and(a, net.create_and(b, c));
  const Signal m2 = net.create_and(h1, d);
  const Signal h2 = net.create_and(ab, net.create_and(c, d));
  ASSERT_LT(h1.node(), h2.node());
  net.create_po(h2);
  net.add_choice(h1.node(), m1.node(), false);
  net.add_choice(h2.node(), m2.node(), false);

  const Network kept = cleanup(net, {.keep_choices = true});
  std::string why;
  EXPECT_TRUE(kept.check(&why)) << why;
  EXPECT_EQ(kept.num_choices(), 2u);
  EXPECT_EQ(simulate_pos(kept), simulate_pos(net));
}

TEST(NetworkUtils, CopyConeSubstitutesLeaves) {
  Network src;
  const Signal a = src.create_pi();
  const Signal b = src.create_pi();
  const Signal f = src.create_xor(a, src.create_and(a, b));
  Network dst;
  const Signal x = dst.create_pi();
  const Signal y = dst.create_pi();
  const Signal g = copy_cone(src, dst, f, {y, x});  // swap the inputs
  dst.create_po(g);
  const auto pos = simulate_pos(dst);
  // g(x, y) = f(y, x) = y ^ (y & x).
  for (int m = 0; m < 4; ++m) {
    const bool vx = m & 1, vy = m & 2;
    EXPECT_EQ(pos[0].get_bit(m), vy != (vy && vx));
  }
}

/// No-substitution hook for rebuild().
std::optional<Signal> copy_as_is(NodeId, const std::vector<Signal>&,
                                 Network&) {
  return std::nullopt;
}

TEST(NetworkUtils, RebuildThenCleanupEqualsCleanup) {
  // Named PIs, random gates of every type, named POs over recent gates:
  // the early gates that no PO reads dangle.
  Network net;
  Rng rng(17);
  std::vector<Signal> pool;
  for (int i = 0; i < 6; ++i) {
    pool.push_back(net.create_pi("in" + std::to_string(i)));
  }
  const GateType types[] = {GateType::kAnd2, GateType::kXor2, GateType::kMaj3,
                            GateType::kXor3};
  auto pick = [&] {
    return pool[rng.next_below(pool.size())] ^ rng.next_bool();
  };
  for (int i = 0; i < 60; ++i) {
    const Signal s = net.create_gate(types[rng.next_below(4)],
                                     {pick(), pick(), pick()});
    if (net.is_gate(s.node())) pool.push_back(s);
  }
  for (int i = 0; i < 3; ++i) {
    net.create_po(pool[pool.size() - 1 - 2 * i] ^ (i == 1),
                  "out" + std::to_string(i));
  }
  const Network expected = cleanup(net);
  ASSERT_LT(expected.num_gates(), net.num_gates()) << "no dangling logic";

  // Ascending ids list every node, the dangling ones included.
  std::vector<NodeId> ascending(net.size());
  for (NodeId n = 0; n < net.size(); ++n) ascending[n] = n;
  const Network copy = rebuild(net, ascending, copy_as_is);
  EXPECT_EQ(copy.num_gates(), net.num_gates());
  EXPECT_TRUE(structurally_identical(cleanup(copy), expected));
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    EXPECT_EQ(copy.pi_name(i), net.pi_name(i));
  }
  for (std::size_t i = 0; i < net.num_pos(); ++i) {
    EXPECT_EQ(copy.po_name(i), net.po_name(i));
  }
}

TEST(NetworkUtils, RebuildHookChangesExactlyThePosReadingTheGate) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal d = net.create_pi();
  const Signal g = net.create_and(a, b);
  net.create_po(g);                         // reads g
  net.create_po(net.create_and(!g, c));     // reads g through a gate
  net.create_po(net.create_xor(c, d));      // does not read g
  net.create_po(net.create_maj(a, b, !d));  // nor does this
  const Network out = rebuild(
      net, topo_order(net),
      [&](NodeId n, const std::vector<Signal>& map,
          Network& dst) -> std::optional<Signal> {
        if (n != g.node()) return std::nullopt;
        return dst.create_xor(map[a.node()], map[b.node()]);
      });
  const auto before = simulate_pos(net);
  const auto after = simulate_pos(out);
  ASSERT_EQ(after.size(), before.size());
  EXPECT_NE(after[0], before[0]);
  EXPECT_NE(after[1], before[1]);
  EXPECT_EQ(after[2], before[2]);
  EXPECT_EQ(after[3], before[3]);
  for (int m = 0; m < 16; ++m) {
    EXPECT_EQ(after[0].get_bit(m), ((m & 1) != 0) != ((m & 2) != 0));
  }
}

TEST(NetworkUtils, CopyGatesIntoExistingNetworkOverGivenPis) {
  // As CEC builds its miter: the destination already has its PIs and some
  // logic, and the source's PIs map onto those PIs.
  const Network src =
      testing::random_network({.num_pis = 5, .num_gates = 50, .seed = 7});
  Network dst;
  std::vector<Signal> pis;
  for (std::size_t i = 0; i < src.num_pis(); ++i) {
    pis.push_back(dst.create_pi());
  }
  dst.create_po(dst.create_and(pis[0], !pis[1]));

  std::vector<NodeId> roots;
  for (const Signal s : src.pos()) roots.push_back(s.node());
  std::vector<char> seen;
  const std::vector<NodeId> cone = collect_cone_nodes(src, roots, false, seen);
  for (int copy = 0; copy < 2; ++copy) {
    std::vector<Signal> map(src.size());
    for (std::size_t i = 0; i < src.num_pis(); ++i) {
      map[src.pi_at(i)] = pis[i];
    }
    const std::size_t gates_before = dst.num_gates();
    copy_gates(src, cone, dst, map);
    // The second copy finds every gate of the first through strash.
    if (copy == 1) {
      EXPECT_EQ(dst.num_gates(), gates_before);
    }
    for (const Signal s : src.pos()) {
      dst.create_po(map[s.node()] ^ s.complemented());
    }
  }
  const auto want = simulate_pos(src);
  const auto got = simulate_pos(dst);
  ASSERT_EQ(got.size(), 1 + 2 * want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[1 + i], want[i]);
    EXPECT_EQ(got[1 + want.size() + i], want[i]);
  }
}

// --- open-addressed strash table -------------------------------------------

TEST(Network, StrashResolvesEveryGateOnRandomNetworks) {
  // The open-addressed table must agree with the node array: every created
  // gate resolves back to its own id (hit path), across several rehash
  // boundaries (well past the initial capacity).
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto net = testing::random_network(
        {.num_pis = 10, .num_gates = 5000, .num_pos = 8, .seed = seed});
    for (NodeId n = 0; n < net.size(); ++n) {
      if (!net.is_gate(n)) continue;
      const Node& nd = net.node(n);
      ASSERT_EQ(net.lookup_gate(nd.type, nd.fanin), n)
          << "strash lookup disagrees with the node array (seed " << seed
          << ")";
    }
  }
}

TEST(Network, StrashMatchesReferenceMapOnRandomCreations) {
  // Drive the same random creation sequence through the Network and a
  // shadow map keyed by the *returned normalized* signal: a sequence item
  // seen twice must return the identical signal (no duplicate nodes, no
  // lost entries in the probe sequences).
  Network net;
  Rng rng(99);
  std::vector<Signal> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(net.create_pi());
  std::map<std::tuple<std::uint32_t, std::uint32_t>, Signal> shadow;
  for (int i = 0; i < 3000; ++i) {
    const Signal a = pool[rng.next_below(pool.size())] ^ rng.next_bool();
    const Signal b = pool[rng.next_below(pool.size())] ^ rng.next_bool();
    const Signal s = net.create_and(a, b);
    // Canonical key: create_and commutes and normalizes, so key on the
    // sorted raw pair.
    const auto key = std::make_tuple(std::min(a.raw(), b.raw()),
                                     std::max(a.raw(), b.raw()));
    const auto [it, inserted] = shadow.emplace(key, s);
    if (!inserted) {
      EXPECT_EQ(it->second, s) << "same operands must strash to one node";
    }
    pool.push_back(s);
  }
}

TEST(Network, ReserveDoesNotChangeConstruction) {
  const auto build = [](bool reserve) {
    Network net;
    if (reserve) net.reserve(4096);
    Rng rng(5);
    std::vector<Signal> pool;
    for (int i = 0; i < 8; ++i) pool.push_back(net.create_pi());
    for (int i = 0; i < 1000; ++i) {
      const Signal a = pool[rng.next_below(pool.size())] ^ rng.next_bool();
      const Signal b = pool[rng.next_below(pool.size())] ^ rng.next_bool();
      pool.push_back(rng.next_bool() ? net.create_and(a, b)
                                     : net.create_xor(a, b));
    }
    net.create_po(pool.back());
    return net;
  };
  const Network plain = build(false);
  const Network reserved = build(true);
  EXPECT_TRUE(structurally_identical(plain, reserved));
}

// --- cached depth / per-type counters ---------------------------------------

TEST(Network, CachedDepthTracksPosAndLevelRecompute) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal g1 = net.create_and(a, b);
  EXPECT_EQ(net.depth(), 0u) << "no POs yet";
  net.create_po(a);
  EXPECT_EQ(net.depth(), 0u);
  net.create_po(g1);
  EXPECT_EQ(net.depth(), 1u);
  const Signal g2 = net.create_and(g1, !a);
  EXPECT_EQ(net.depth(), 1u) << "unreferenced gate does not deepen";
  net.create_po(g2);
  EXPECT_EQ(net.depth(), 2u);
  // Level mutation invalidates through the explicit hook.
  EXPECT_EQ(recompute_levels(net), 2u);
}

TEST(Network, NumGatesOfMatchesExhaustiveCount) {
  const auto net = testing::random_network(
      {.num_pis = 6, .num_gates = 300, .num_pos = 4, .seed = 11});
  for (const GateType t :
       {GateType::kConst0, GateType::kPi, GateType::kAnd2, GateType::kXor2,
        GateType::kMaj3, GateType::kXor3}) {
    std::size_t expect = 0;
    for (NodeId n = 0; n < net.size(); ++n) {
      if (net.node(n).type == t) ++expect;
    }
    EXPECT_EQ(net.num_gates_of(t), expect)
        << "incremental counter diverged for " << gate_type_name(t);
  }
}

TEST(NetworkUtils, StatsCountGateTypes) {
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  net.create_po(net.create_and(a, b));
  net.create_po(net.create_xor(a, c));
  net.create_po(net.create_maj(a, b, c));
  net.create_po(net.create_xor3(a, b, c));
  const auto s = network_stats(net);
  EXPECT_EQ(s.num_and2, 1u);
  EXPECT_EQ(s.num_xor2, 1u);
  EXPECT_EQ(s.num_maj3, 1u);
  EXPECT_EQ(s.num_xor3, 1u);
  EXPECT_EQ(s.num_gates, 4u);
  EXPECT_EQ(s.depth, 1u);
}

}  // namespace
}  // namespace mcs
