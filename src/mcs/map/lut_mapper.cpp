#include "mcs/map/lut_mapper.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <functional>
#include <limits>
#include <map>
#include <memory>

#include "mcs/cut/enumeration.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/par/thread_pool.hpp"
#include "mcs/resyn/strategies.hpp"

namespace mcs {

std::uint32_t LutNetwork::depth() const {
  std::vector<std::uint32_t> level(num_pis + luts.size(), 0);
  for (std::size_t i = 0; i < luts.size(); ++i) {
    std::uint32_t lvl = 0;
    for (const auto ref : luts[i].inputs) {
      lvl = std::max(lvl, level[ref]);
    }
    level[num_pis + i] = lvl + 1;
  }
  std::uint32_t d = 0;
  for (const auto ref : po_refs) d = std::max(d, level[ref]);
  return d;
}

std::vector<std::uint64_t> LutNetwork::simulate(
    const std::vector<std::uint64_t>& pi_values) const {
  assert(pi_values.size() == static_cast<std::size_t>(num_pis));
  std::vector<std::uint64_t> value(num_pis + luts.size(), 0);
  for (int i = 0; i < num_pis; ++i) value[i] = pi_values[i];
  for (std::size_t i = 0; i < luts.size(); ++i) {
    const Lut& lut = luts[i];
    std::uint64_t out = 0;
    // Evaluate bit-parallel: for each of the 64 patterns assemble the
    // input index and look it up in the truth table.
    for (int bit = 0; bit < 64; ++bit) {
      unsigned idx = 0;
      for (std::size_t k = 0; k < lut.inputs.size(); ++k) {
        if ((value[lut.inputs[k]] >> bit) & 1ull) idx |= (1u << k);
      }
      if ((lut.function >> idx) & 1ull) out |= (1ull << bit);
    }
    value[num_pis + i] = out;
  }
  std::vector<std::uint64_t> pos;
  pos.reserve(po_refs.size());
  for (std::size_t i = 0; i < po_refs.size(); ++i) {
    pos.push_back(po_compl[i] ? ~value[po_refs[i]] : value[po_refs[i]]);
  }
  return pos;
}

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// Per-node mapping state across passes.
struct NodeState {
  Cut best;            ///< current best cut
  float arrival = 0.0f;
  float area_flow = 0.0f;
  float required = kInf;
  std::uint32_t map_refs = 0;  ///< references in the current cover
  float est_refs = 1.0f;       ///< smoothed fanout estimate for area flow
  bool has_cut = false;
};

/// Cut ranking of one node under a pass's costs.
struct CutOrder {
  bool delay_first;  ///< delay, then area flow (first pass, delay objective)
  float required;    ///< the node's required time (area-first ranking)

  bool operator()(const Cut& a, const Cut& b) const noexcept {
    // Trivial cuts always rank last: they cannot implement the node.
    if (a.is_trivial() != b.is_trivial()) return b.is_trivial();
    if (delay_first) {
      if (a.delay != b.delay) return a.delay < b.delay;
      if (a.area_flow != b.area_flow) return a.area_flow < b.area_flow;
    } else {
      // Area first, but never violate this node's required time.  When
      // neither cut is feasible, race back toward feasibility (delay
      // first) so slack violations cannot snowball across passes.
      const bool a_ok = a.delay <= required;
      const bool b_ok = b.delay <= required;
      if (a_ok != b_ok) return a_ok;
      if (!a_ok) {
        if (a.delay != b.delay) return a.delay < b.delay;
        if (a.area_flow != b.area_flow) return a.area_flow < b.area_flow;
      } else {
        if (a.area_flow != b.area_flow) return a.area_flow < b.area_flow;
        if (a.delay != b.delay) return a.delay < b.delay;
      }
    }
    return a.size < b.size;
  }
};

/// \p order stably sorted by dependency depth: nodes of one depth never
/// depend on each other, and every dependency of a node comes before it.
std::vector<NodeId> depth_schedule(const Network& net,
                                   const std::vector<NodeId>& order,
                                   bool follow_choices) {
  const std::vector<std::uint32_t> depth =
      dependency_depth(net, order, follow_choices);
  std::vector<NodeId> schedule = order;
  std::stable_sort(schedule.begin(), schedule.end(),
                   [&](NodeId a, NodeId b) { return depth[a] < depth[b]; });
  return schedule;
}

inline void spin_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

class LutMapper {
 public:
  LutMapper(const Network& net, const LutMapParams& params)
      : net_(net),
        params_(params),
        state_(net.size()),
        order_(params.use_choices ? choice_topo_order(net)
                                  : topo_order(net)),
        enumerator_(net, {.cut_size = params.lut_size,
                          .cut_limit = params.cut_limit,
                          .use_choices = params.use_choices}),
        flags_(new std::atomic<std::uint32_t>[net.size()]) {
    // One participant per thread, but never more than there are chunks.
    const std::size_t chunks = (order_.size() + kChunk - 1) / kChunk;
    const std::size_t participants = std::max<std::size_t>(
        1, std::min(ThreadPool::resolve_threads(params.num_threads), chunks));
    // Any topological order is a valid schedule.  The depth order lets
    // participants work side by side; alone, one keeps the DFS order, whose
    // fanin cut sets are still in cache.
    schedule_ = participants > 1
                    ? depth_schedule(net, order_, params.use_choices)
                    : order_;
    workers_.reserve(participants);
    for (std::size_t p = 0; p < participants; ++p) {
      workers_.emplace_back(enumerator_);
    }
    // Fanout estimates seeded from the PO-reachable original graph only:
    // choice cones are mutually exclusive alternatives and counting their
    // edges would fake sharing no single cover can realize.
    std::vector<std::uint32_t> local_fanout(net_.size(), 0);
    for (const NodeId n : topo_order(net)) {
      const Node& nd = net_.node(n);
      for (int i = 0; i < nd.num_fanins; ++i) {
        ++local_fanout[nd.fanin[i].node()];
      }
    }
    for (const Signal s : net_.pos()) ++local_fanout[s.node()];
    for (NodeId n = 0; n < net_.size(); ++n) {
      state_[n].est_refs =
          std::max<float>(1.0f, static_cast<float>(local_fanout[n]));
    }
  }

  LutNetwork run(LutMapStats* stats) {
    // Passes are greedy; the best extraction seen across all passes is
    // returned (later recovery rounds usually help but may regress).
    LutNetwork best;
    LutMapStats best_stats;
    bool have_best = false;
    auto harvest = [&]() {
      LutMapStats s;
      LutNetwork candidate = extract(&s);
      const auto key = [&](const LutNetwork& l, std::uint32_t depth) {
        return params_.objective == LutMapParams::Objective::kDelay
                   ? std::make_pair(static_cast<std::size_t>(depth), l.size())
                   : std::make_pair(l.size(),
                                    static_cast<std::size_t>(depth));
      };
      if (!have_best ||
          key(candidate, candidate.depth()) < key(best, best.depth())) {
        best = std::move(candidate);
        best_stats = s;
        have_best = true;
      }
    };

    // Pass 1: depth-oriented (also initializes area flow).
    flow_pass(/*delay_first=*/params_.objective ==
              LutMapParams::Objective::kDelay);
    compute_cover_and_required();
    harvest();
    // Area-flow recovery.
    for (int i = 0; i < params_.area_flow_rounds; ++i) {
      flow_pass(/*delay_first=*/false);
      compute_cover_and_required();
      harvest();
    }
    // Exact-area recovery.
    for (int i = 0; i < params_.exact_area_rounds; ++i) {
      exact_area_pass();
      compute_cover_and_required();
      harvest();
    }
    if (stats) *stats = best_stats;
    return best;
  }

 private:
  /// Schedule positions claimed at once by a flow-pass participant.
  static constexpr std::size_t kChunk = 16;
  /// Polls of an unpublished dependency before the participant blocks.
  static constexpr int kSpins = 128;

  /// Publication states of a node in a flow pass.
  enum : std::uint32_t {
    kPending = 0,
    kWaited = 1,  ///< pending, and a participant blocks on it
    kDone = 2,
    kAborted = 3,  ///< a participant failed; everyone leaves the pass
  };

  float cut_delay(const Cut& c) const {
    float d = 0.0f;
    for (int i = 0; i < c.size; ++i) {
      d = std::max(d, state_[c.leaves[i]].arrival);
    }
    return d + 1.0f;
  }

  float cut_area_flow(const Cut& c) const {
    float a = 1.0f;
    for (int i = 0; i < c.size; ++i) {
      const auto& ls = state_[c.leaves[i]];
      a += ls.area_flow / ls.est_refs;
    }
    return a;
  }

  /// Exact area via reference counting on the live cover (ABC style).
  /// area_ref(n) makes one more reference to n; when n enters the cover its
  /// own LUT plus the recursive cost of newly covered leaves is charged.
  float area_ref(NodeId n) {
    if (!net_.is_gate(n)) return 0.0f;
    auto& st = state_[n];
    if (st.map_refs++ > 0) return 0.0f;
    float a = 1.0f;
    const Cut& c = st.best;
    for (int i = 0; i < c.size; ++i) a += area_ref(c.leaves[i]);
    return a;
  }
  float area_deref(NodeId n) {
    if (!net_.is_gate(n)) return 0.0f;
    auto& st = state_[n];
    assert(st.map_refs > 0);
    if (--st.map_refs > 0) return 0.0f;
    float a = 1.0f;
    const Cut& c = st.best;
    for (int i = 0; i < c.size; ++i) a += area_deref(c.leaves[i]);
    return a;
  }

  /// Marginal exact area of implementing \p c on top of the current cover
  /// (side-effect free: the probe refs then derefs).
  float cut_exact_area_probe(const Cut& c) {
    float a = 1.0f;
    for (int i = 0; i < c.size; ++i) a += area_ref(c.leaves[i]);
    for (int i = 0; i < c.size; ++i) area_deref(c.leaves[i]);
    return a;
  }

  /// Makes the front of \p n's fresh cut set its best cut.
  void take_best(NodeId n) {
    auto& st = state_[n];
    if (!net_.is_gate(n)) {
      st.arrival = 0.0f;
      st.area_flow = 0.0f;
      st.has_cut = false;
      return;
    }
    const Cut& best = enumerator_.cuts(n).front();
    assert(!best.is_trivial());
    st.best = best;
    st.arrival = best.delay;
    st.area_flow = best.area_flow;
    st.has_cut = true;
  }

  /// A delay or area-flow pass.  A node's costs read only the arrivals and
  /// area flows of its cut leaves, which its fanins and class members
  /// computed earlier in the pass, and it writes only its own state and
  /// cut slot.  So the schedule runs as one pool batch: participants
  /// claim chunks of it in order and wait, per node, for its dependencies
  /// to be published.  The lowest unfinished node can always run, so no
  /// barrier per depth level is needed, and the result is that of any
  /// serial topological order, whatever the thread count.
  void flow_pass(bool delay_first) {
    obs::Span span("cut:enum");
    enumerator_.reset_slots(schedule_.size());
    for (const NodeId n : schedule_) {
      flags_[n].store(kPending, std::memory_order_relaxed);
    }
    auto annotate = [this](NodeId n, Cut& c) {
      if (!net_.is_gate(n)) {
        c.delay = 0.0f;
        c.area_flow = 0.0f;
        return;
      }
      c.delay = cut_delay(c);
      c.area_flow = cut_area_flow(c);
    };
    const std::size_t num_chunks = (schedule_.size() + kChunk - 1) / kChunk;
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> aborted{false};
    const std::function<void(std::size_t)> participant = [&](std::size_t p) {
      CutEnumerator::Worker& worker = workers_[p];
      try {
        for (;;) {
          const std::size_t chunk =
              cursor.fetch_add(1, std::memory_order_relaxed);
          if (chunk >= num_chunks || aborted.load(std::memory_order_relaxed)) {
            return;
          }
          const std::size_t end =
              std::min(schedule_.size(), (chunk + 1) * kChunk);
          for (std::size_t i = chunk * kChunk; i < end; ++i) {
            const NodeId n = schedule_[i];
            if (!await_dependencies(n)) return;
            // LUT costs derive from leaf arrivals/areas only, so the
            // enumerator may defer truth-table derivation past admission.
            enumerator_.run_slot(worker, i, n, LeafOnlyAnnotate{annotate},
                                 CutOrder{delay_first, state_[n].required});
            take_best(n);
            publish(n, kDone);
          }
        }
      } catch (...) {
        // Release every waiter; submit_bulk rethrows the failure.
        aborted.store(true, std::memory_order_relaxed);
        for (const NodeId n : schedule_) publish(n, kAborted);
        throw;
      }
    };
    ThreadPool::global().submit_bulk(workers_.size(), participant,
                                     workers_.size());
    enumerator_.count_pass(schedule_.size());
  }

  /// Waits until the fanins of \p n (and, with choices, its class members)
  /// are published; false when the pass aborted.
  bool await_dependencies(NodeId n) {
    const Node& nd = net_.node(n);
    for (int i = 0; i < nd.num_fanins; ++i) {
      if (!await(nd.fanin[i].node())) return false;
    }
    if (params_.use_choices && net_.is_repr(n)) {
      for (NodeId m = nd.next_choice; m != kNullNode;
           m = net_.node(m).next_choice) {
        if (!await(m)) return false;
      }
    }
    return true;
  }

  /// Spins briefly on \p d's flag, then blocks, so long waits cost no CPU
  /// time.  False when the pass aborted.
  bool await(NodeId d) {
    std::atomic<std::uint32_t>& flag = flags_[d];
    std::uint32_t v = flag.load(std::memory_order_acquire);
    for (int i = 0; v == kPending && i < kSpins; ++i) {
      spin_pause();
      v = flag.load(std::memory_order_acquire);
    }
    while (v != kDone) {
      if (v == kAborted) return false;
      // Mark the flag so its publisher knows to wake this waiter.
      if (v == kPending &&
          !flag.compare_exchange_weak(v, kWaited, std::memory_order_acquire)) {
        continue;
      }
      flag.wait(kWaited, std::memory_order_acquire);
      v = flag.load(std::memory_order_acquire);
    }
    return true;
  }

  void publish(NodeId n, std::uint32_t state) {
    if (flags_[n].exchange(state, std::memory_order_release) == kWaited) {
      flags_[n].notify_all();
    }
  }

  /// An exact-area pass, serial in choice-aware topological order: each
  /// node's probes read, and its choice updates, one shared
  /// reference-counted cover, so the result depends on the node order.
  /// The node's current cut is temporarily removed from the live cover so
  /// probes measure true marginal area, and the winning cut is
  /// re-referenced afterwards (incremental cover update).
  void exact_area_pass() {
    obs::Span span("cut:enum");
    enumerator_.reset();
    auto annotate = [this](NodeId n, Cut& c) {
      if (!net_.is_gate(n)) {
        c.delay = 0.0f;
        c.area_flow = 0.0f;
        return;
      }
      c.delay = cut_delay(c);
      c.area_flow = cut_exact_area_probe(c);
    };
    for (const NodeId n : order_) {
      auto& st = state_[n];
      const bool in_cover = net_.is_gate(n) && st.map_refs > 0;
      if (in_cover) {
        const Cut& c = st.best;
        for (int i = 0; i < c.size; ++i) area_deref(c.leaves[i]);
      }
      enumerator_.run_single(n, LeafOnlyAnnotate{annotate},
                             CutOrder{false, st.required});
      take_best(n);
      if (in_cover) {
        const Cut& c = st.best;
        for (int i = 0; i < c.size; ++i) area_ref(c.leaves[i]);
      }
    }
    enumerator_.count_pass(order_.size());
  }

  /// Extracts the current cover to compute map_refs and required times.
  void compute_cover_and_required() {
    for (auto& st : state_) {
      st.map_refs = 0;
      st.required = kInf;
    }
    // March from the POs over best cuts.
    std::vector<NodeId> visit;
    for (const Signal s : net_.pos()) {
      if (net_.is_gate(s.node()) && state_[s.node()].map_refs++ == 0) {
        visit.push_back(s.node());
      }
    }
    std::size_t head = 0;
    std::vector<NodeId> cover;
    while (head < visit.size()) {
      const NodeId n = visit[head++];
      cover.push_back(n);
      const Cut& c = state_[n].best;
      for (int i = 0; i < c.size; ++i) {
        const NodeId leaf = c.leaves[i];
        if (net_.is_gate(leaf) && state_[leaf].map_refs++ == 0) {
          visit.push_back(leaf);
        }
      }
    }

    // Blend real cover references into the fanout estimates (dangling
    // choice cones inflate raw fanout counts).
    for (auto& st : state_) {
      st.est_refs = std::max(
          1.0f, (st.est_refs + 2.0f * static_cast<float>(st.map_refs)) / 3.0f);
    }

    // Required times.  For the delay objective the target is frozen at the
    // first (delay-optimal) pass so recovery passes cannot ratchet it.
    float target;
    if (params_.objective == LutMapParams::Objective::kDelay) {
      float depth = 0.0f;
      for (const Signal s : net_.pos()) {
        depth = std::max(depth, state_[s.node()].arrival);
      }
      if (target_delay_ < 0.0f) target_delay_ = depth;
      target = std::min(depth, target_delay_);
    } else {
      target = kInf;
    }
    for (const Signal s : net_.pos()) {
      auto& st = state_[s.node()];
      st.required = std::min(st.required, target);
    }
    // `cover` is in PO-to-PI discovery order; a node's fanout cone within
    // the cover is discovered no later than the node itself, so a forward
    // sweep propagates required times correctly.
    for (const NodeId n : cover) {
      const auto& st = state_[n];
      const Cut& c = st.best;
      const float leaf_req = st.required - 1.0f;
      for (int i = 0; i < c.size; ++i) {
        auto& ls = state_[c.leaves[i]];
        ls.required = std::min(ls.required, leaf_req);
      }
    }
  }

  LutNetwork extract(LutMapStats* stats) {
    LutNetwork out;
    out.num_pis = static_cast<int>(net_.num_pis());

    std::vector<std::int32_t> ref(net_.size(), -1);
    for (std::size_t i = 0; i < net_.num_pis(); ++i) {
      ref[net_.pi_at(i)] = static_cast<std::int32_t>(i);
    }

    std::size_t choice_cuts = 0;
    // Recursive extraction with an explicit stack.
    auto extract_node = [&](NodeId root) {
      if (ref[root] >= 0) return;
      std::vector<std::pair<NodeId, int>> stack{{root, 0}};
      while (!stack.empty()) {
        auto& [n, phase] = stack.back();
        if (ref[n] >= 0) {
          stack.pop_back();
          continue;
        }
        assert(state_[n].has_cut);
        const Cut& c = state_[n].best;
        if (phase == 0) {
          phase = 1;
          bool pushed = false;
          for (int i = 0; i < c.size; ++i) {
            const NodeId leaf = c.leaves[i];
            if (ref[leaf] < 0) {
              assert(net_.is_gate(leaf));
              stack.push_back({leaf, 0});
              pushed = true;
            }
          }
          if (pushed) continue;
        }
        LutNetwork::Lut lut;
        lut.function = c.function;
        for (int i = 0; i < c.size; ++i) {
          lut.inputs.push_back(ref[c.leaves[i]]);
        }
        // A cut merged from a choice member covers nodes outside the
        // representative's own cone.
        if (c.from_choice) ++choice_cuts;
        ref[n] = static_cast<std::int32_t>(out.num_pis + out.luts.size());
        out.luts.push_back(std::move(lut));
        stack.pop_back();
      }
    };

    for (const Signal s : net_.pos()) {
      const NodeId n = s.node();
      if (net_.is_const0(n)) {
        // Constant PO: a 0-input LUT.
        LutNetwork::Lut lut;
        lut.function = 0;
        out.luts.push_back(lut);
        out.po_refs.push_back(
            static_cast<std::int32_t>(out.num_pis + out.luts.size() - 1));
        out.po_compl.push_back(s.complemented());
        continue;
      }
      if (net_.is_pi(n)) {
        out.po_refs.push_back(ref[n]);
        out.po_compl.push_back(s.complemented());
        continue;
      }
      extract_node(n);
      out.po_refs.push_back(ref[n]);
      out.po_compl.push_back(s.complemented());
    }

    if (stats) {
      stats->num_luts = out.luts.size();
      stats->depth = out.depth();
      stats->num_choice_cuts_used = choice_cuts;
    }
    return out;
  }

  const Network& net_;
  LutMapParams params_;
  std::vector<NodeState> state_;
  std::vector<NodeId> order_;     ///< exact-area passes: choice-aware topo
  std::vector<NodeId> schedule_;  ///< flow passes: order_ sorted by depth
  CutEnumerator enumerator_;
  std::vector<CutEnumerator::Worker> workers_;  ///< one per participant
  std::unique_ptr<std::atomic<std::uint32_t>[]> flags_;  ///< per node
  float target_delay_ = -1.0f;  ///< frozen after the first delay pass
};

}  // namespace

LutNetwork lut_map(const Network& net, const LutMapParams& params,
                   LutMapStats* stats) {
  LutMapper mapper(net, params);
  return mapper.run(stats);
}

Network lut_network_to_network(const LutNetwork& lnet) {
  Network out;
  out.reserve(lnet.num_pis + 4 * lnet.luts.size());
  std::vector<Signal> value(lnet.num_pis + lnet.luts.size());
  for (int i = 0; i < lnet.num_pis; ++i) value[i] = out.create_pi();

  // A mapping repeats few functions (6,808 LUTs of the 64-bit multiplier
  // have 65 distinct ones): factor each (function, arity) once.
  std::map<std::pair<Tt6, std::size_t>, FactoredForm> forms;
  const BasisBuilder bb(out, GateBasis::xmg());
  for (std::size_t i = 0; i < lnet.luts.size(); ++i) {
    const auto& lut = lnet.luts[i];
    std::vector<Signal> leaves;
    leaves.reserve(lut.inputs.size());
    for (const auto r : lut.inputs) leaves.push_back(value[r]);
    auto [it, fresh] = forms.try_emplace({lut.function, lut.inputs.size()});
    if (fresh) {
      const int arity = static_cast<int>(lut.inputs.size());
      it->second = factor_sop(
          compute_isop(TruthTable::from_tt6(lut.function, arity)), arity);
    }
    value[lnet.num_pis + i] = build_factored(bb, it->second, leaves);
  }
  for (std::size_t i = 0; i < lnet.po_refs.size(); ++i) {
    out.create_po(value[lnet.po_refs[i]] ^ static_cast<bool>(lnet.po_compl[i]));
  }
  return out;
}

}  // namespace mcs
