#include "mcs/opt/optimize.hpp"

#include <algorithm>
#include <optional>
#include <queue>
#include <unordered_map>

#include "mcs/cut/enumeration.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/resyn/npn_db.hpp"
#include "mcs/resyn/sop.hpp"
#include "mcs/resyn/strategies.hpp"
#include "mcs/sat/miter.hpp"
#include "mcs/sim/simulator.hpp"
#include "mcs/sweep/sweep.hpp"

namespace mcs {

// ---------------------------------------------------------------------------
// balance
// ---------------------------------------------------------------------------

namespace {

/// Collects the flattened operand list of a maximal same-type chain rooted
/// at \p n.  Only single-fanout, non-complemented (for AND; XOR edges are
/// always non-complemented after strashing) children of the same type are
/// flattened.
void flatten_chain(const Network& net, NodeId n, GateType type,
                   std::vector<Signal>& operands) {
  const Node& nd = net.node(n);
  for (int i = 0; i < nd.num_fanins; ++i) {
    const Signal f = nd.fanin[i];
    const Node& child = net.node(f.node());
    if (!f.complemented() && child.type == type && child.fanout_size == 1) {
      flatten_chain(net, f.node(), type, operands);
    } else {
      operands.push_back(f);
    }
  }
}

}  // namespace

Network balance(const Network& net) {
  return cleanup(rebuild(
      net, topo_order(net),
      [&](NodeId n, const std::vector<Signal>& map,
          Network& dst) -> std::optional<Signal> {
        const GateType type = net.node(n).type;
        if (type != GateType::kAnd2 && type != GateType::kXor2) {
          return std::nullopt;
        }
        std::vector<Signal> operands;
        flatten_chain(net, n, type, operands);
        // Huffman-style combination by level: always merge the two
        // shallowest operands.
        using Item = std::pair<std::uint32_t, Signal>;
        auto cmp = [](const Item& a, const Item& b) {
          if (a.first != b.first) return a.first > b.first;
          return b.second < a.second;  // deterministic tie-break
        };
        std::priority_queue<Item, std::vector<Item>, decltype(cmp)> pq(cmp);
        for (const Signal s : operands) {
          const Signal t = map[s.node()] ^ s.complemented();
          pq.push({dst.node(t.node()).level, t});
        }
        while (pq.size() > 1) {
          const Signal a = pq.top().second;
          pq.pop();
          const Signal b = pq.top().second;
          pq.pop();
          const Signal c = type == GateType::kAnd2 ? dst.create_and(a, b)
                                                   : dst.create_xor(a, b);
          pq.push({dst.node(c.node()).level, c});
        }
        return pq.top().second;
      }));
}

// ---------------------------------------------------------------------------
// refactor
// ---------------------------------------------------------------------------

Network refactor(const Network& net, const RefactorParams& params) {
  const Network result = cleanup(rebuild(
      net, topo_order(net),
      [&](NodeId n, const std::vector<Signal>& map,
          Network& dst) -> std::optional<Signal> {
        const Cone mffc = compute_mffc(net, n, params.max_leaves);
        if (mffc.inner.size() < 3 || mffc.leaves.empty()) return std::nullopt;
        const TruthTable f = cone_function(net, Signal(n, false), mffc.leaves);
        const auto cubes = compute_isop(f);
        const auto ff = factor_sop(cubes, f.num_vars());
        // Factored-form cost: internal operators ~ literals - 1.
        const int est_new = std::max(0, ff.num_literals() - 1);
        const int est_old = static_cast<int>(mffc.inner.size());
        if (est_new < est_old || (params.zero_cost && est_new == est_old)) {
          std::vector<Signal> leaves;
          leaves.reserve(mffc.leaves.size());
          for (const NodeId leaf : mffc.leaves) leaves.push_back(map[leaf]);
          return build_factored(BasisBuilder(dst, params.basis), ff, leaves);
        }
        return std::nullopt;
      }));
  // Refactoring is greedy; keep the smaller of input/output.
  return result.num_gates() <= net.num_gates() ? result : cleanup(net);
}

// ---------------------------------------------------------------------------
// resub (simulation-guided, SAT-verified resubstitution)
// ---------------------------------------------------------------------------

namespace {

/// SAT budget per resubstitution check, as Solver::solve counts it:
/// conflicts since the last restart, so 300 allows up to 1,836.
constexpr std::int64_t kResubConflictLimit = 300;

/// Divisor window: nearby TFI nodes of \p n (breadth-first), all with
/// smaller ids than n so replacements can never create cycles.
std::vector<NodeId> divisor_window(const Network& net, NodeId n,
                                   int max_window) {
  std::vector<NodeId> window;
  net.new_traversal();
  std::vector<NodeId> queue{n};
  net.mark(n);
  std::size_t head = 0;
  while (head < queue.size() &&
         static_cast<int>(window.size()) < max_window) {
    const Node& nd = net.node(queue[head++]);
    for (int i = 0; i < nd.num_fanins; ++i) {
      const NodeId c = nd.fanin[i].node();
      if (net.marked(c) || net.is_const0(c)) continue;
      net.mark(c);
      window.push_back(c);
      queue.push_back(c);
    }
  }
  return window;
}

}  // namespace

Network resub(const Network& net, const ResubParams& params) {
  RandomSimulation sim(net, params.sim_words, params.sim_seed);
  // topo_order() visits the PO cones only, and divisors lie in the cone of
  // their node, so encoding the PO cones up front covers every proof.
  sat::IncrementalMiter miter(net);
  miter.encode(net.pos());

  struct Replacement {
    GateType type;
    Signal a, b;
    bool out_compl;
  };
  std::vector<std::optional<Replacement>> repl(net.size());

  // Candidate binary ops (in terms of non-complemented divisor words).
  struct BinOp {
    GateType type;
    bool ca, cb;  // input complements
  };
  std::vector<BinOp> ops = {{GateType::kAnd2, false, false},
                            {GateType::kAnd2, true, false},
                            {GateType::kAnd2, false, true},
                            {GateType::kAnd2, true, true}};
  if (params.basis.use_xor) ops.push_back({GateType::kXor2, false, false});

  const int W = params.sim_words;
  auto words_of = [&](NodeId d) { return sim.node_values(d); };

  std::size_t budget = 1u << 22;  // overall pair budget
  const std::vector<NodeId> order = topo_order(net);
  for (const NodeId n : order) {
    if (!net.is_gate(n)) continue;
    // Only profitable when the node's MFFC has at least 2 gates.
    const Cone mffc = compute_mffc(net, n, 16);
    if (mffc.inner.size() < 2) continue;

    const Node& nd = net.node(n);
    const auto window = divisor_window(net, n, params.max_window);
    const std::uint64_t* wn = words_of(n);
    bool done = false;
    for (std::size_t i = 0; i < window.size() && !done; ++i) {
      for (std::size_t j = i + 1; j < window.size() && !done; ++j) {
        if (budget == 0) break;
        --budget;
        const std::uint64_t* wa = words_of(window[i]);
        const std::uint64_t* wb = words_of(window[j]);
        for (const BinOp& op : ops) {
          // Evaluate candidate on the simulation words; accept phase too.
          bool eq = true, eq_compl = true;
          for (int w = 0; w < W && (eq || eq_compl); ++w) {
            const std::uint64_t a = wa[w] ^ (op.ca ? ~0ull : 0ull);
            const std::uint64_t b = wb[w] ^ (op.cb ? ~0ull : 0ull);
            const std::uint64_t v = op.type == GateType::kAnd2
                                        ? (a & b)
                                        : (a ^ b);
            if (v != wn[w]) eq = false;
            if (~v != wn[w]) eq_compl = false;
          }
          if (!eq && !eq_compl) continue;
          const bool phase = !eq;
          const Signal a(window[i], op.ca);
          const Signal b(window[j], op.cb);
          // The window opens with n's fanins, so a 2-input node reaches its
          // own gate here: a tautology whose proof would install the gate
          // the plain copy builds anyway, so the search stops unproven.
          // Earlier ops on the pair still replace n when its fanins are
          // equal, complementary or constant.
          if (!phase && op.type == nd.type && a == nd.fanin[0] &&
              b == nd.fanin[1]) {
            done = true;
            break;
          }
          // SAT proof: n ^ phase == op(a, b) everywhere.
          if (miter.prove_gate(Signal(n, phase), op.type, a, b,
                               kResubConflictLimit) == sat::Result::kUnsat) {
            repl[n] = Replacement{op.type, a, b, phase};
            done = true;
            break;
          }
        }
      }
    }
  }

  const Network result = cleanup(rebuild(
      net, order,
      [&](NodeId n, const std::vector<Signal>& map,
          Network& dst) -> std::optional<Signal> {
        if (!repl[n]) return std::nullopt;
        const Replacement& r = *repl[n];
        const Signal a = map[r.a.node()] ^ r.a.complemented();
        const Signal b = map[r.b.node()] ^ r.b.complemented();
        const Signal g = r.type == GateType::kAnd2 ? dst.create_and(a, b)
                                                   : dst.create_xor(a, b);
        return g ^ r.out_compl;
      }));
  return result.num_gates() <= net.num_gates() ? result : cleanup(net);
}

// ---------------------------------------------------------------------------
// rewrite (cut rewriting through the NPN-4 database)
// ---------------------------------------------------------------------------

namespace {

/// Number of cone nodes of (n, cut) that disappear if n is re-expressed
/// from the cut leaves: nodes whose entire fanout stays inside the cone.
int cut_cone_savings(const Network& net, NodeId n, const Cut& cut) {
  int saved = 0;
  net.new_traversal();
  std::vector<NodeId> stack{n};
  net.mark(n);
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    ++saved;
    const Node& nd = net.node(x);
    for (int i = 0; i < nd.num_fanins; ++i) {
      const NodeId c = nd.fanin[i].node();
      if (cut.contains(c) || !net.is_gate(c) || net.marked(c)) continue;
      // Only single-fanout nodes are guaranteed to die with the cone.
      if (net.node(c).fanout_size != 1) continue;
      net.mark(c);
      stack.push_back(c);
    }
  }
  return saved;
}

}  // namespace

Network rewrite(const Network& net, const RewriteParams& params) {
  auto& db = NpnDatabase::shared(params.basis, NpnDatabase::Objective::kArea);
  const std::vector<NodeId> order = topo_order(net);
  CutEnumerator cuts(net, {.cut_size = params.cut_size});
  cuts.run(order);

  const Network result = cleanup(rebuild(
      net, order,
      [&](NodeId n, const std::vector<Signal>& map,
          Network& dst) -> std::optional<Signal> {
        // Plain rebuild first (cheap, benefits from strashing).
        const std::size_t before_plain = dst.num_gates();
        const Signal plain =
            dst.create_gate(net.node(n).type, copied_fanins(net, n, map));
        const int plain_added =
            static_cast<int>(dst.num_gates() - before_plain);

        Signal best = plain;
        int best_gain = 0;
        for (const Cut& cut : cuts.cuts(n)) {
          if (cut.is_trivial() || cut.size < 2) continue;
          const int saved = cut_cone_savings(net, n, cut);
          std::vector<Signal> leaves;
          leaves.reserve(cut.size);
          for (int i = 0; i < cut.size; ++i) {
            leaves.push_back(map[cut.leaves[i]]);
          }
          const std::size_t before = dst.num_gates();
          const auto cand =
              db.instantiate(dst, cut.function, cut.size, leaves);
          if (!cand) continue;
          const int added = static_cast<int>(dst.num_gates() - before);
          // Gain relative to the plain rebuild of the same cone.
          const int gain = (saved + plain_added - 1) - added;
          if (gain > best_gain || (params.zero_cost && gain == best_gain &&
                                   cand->node() != best.node())) {
            best = *cand;
            best_gain = gain;
          }
        }
        return best;
      }));
  return result.num_gates() <= net.num_gates() ? result : cleanup(net);
}

// ---------------------------------------------------------------------------
// compress2rs_like
// ---------------------------------------------------------------------------

Network compress2rs_like(const Network& net, GateBasis basis, int max_rounds,
                         ScriptStats* stats) {
  Network best = cleanup(net);
  if (stats) {
    stats->initial_gates = best.num_gates();
    stats->initial_depth = best.depth();
  }
  Network cur = best;
  int rounds = 0;
  for (int r = 0; r < max_rounds; ++r) {
    ++rounds;
    cur = balance(cur);
    cur = rewrite(cur, {.basis = basis});
    cur = refactor(cur, {.basis = basis});
    cur = resub(cur, {.basis = basis});
    cur = fraig(cur);
    cur = balance(cur);
    const bool better =
        cur.num_gates() < best.num_gates() ||
        (cur.num_gates() == best.num_gates() && cur.depth() < best.depth());
    if (!better) break;
    best = cur;
  }
  if (stats) {
    stats->iterations = rounds;
    stats->final_gates = best.num_gates();
    stats->final_depth = best.depth();
  }
  return best;
}

}  // namespace mcs
