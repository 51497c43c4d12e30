#include "mcs/map/asic_mapper.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <span>
#include <unordered_map>

#include "mcs/cut/enumeration.hpp"
#include "mcs/map/lut_mapper.hpp"
#include "mcs/network/network_utils.hpp"

namespace mcs {

std::vector<std::uint64_t> CellNetlist::simulate(
    const std::vector<std::uint64_t>& pi_values) const {
  assert(pi_values.size() == static_cast<std::size_t>(num_pis));
  std::vector<std::uint64_t> value(num_pis + instances.size(), 0);
  for (int i = 0; i < num_pis; ++i) value[i] = pi_values[i];
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    const Cell& c = library->cell(inst.cell);
    std::uint64_t out = 0;
    for (int bit = 0; bit < 64; ++bit) {
      unsigned idx = 0;
      for (std::size_t k = 0; k < inst.fanins.size(); ++k) {
        if ((value[inst.fanins[k]] >> bit) & 1ull) idx |= (1u << k);
      }
      if ((c.function >> idx) & 1ull) out |= (1ull << bit);
    }
    value[num_pis + i] = out;
  }
  std::vector<std::uint64_t> pos;
  pos.reserve(po_refs.size());
  for (std::size_t i = 0; i < po_refs.size(); ++i) {
    if (po_const[i]) {
      pos.push_back(po_const_value[i] ? ~0ull : 0ull);
    } else {
      pos.push_back(value[po_refs[i]]);
    }
  }
  return pos;
}

std::vector<std::pair<std::string, int>> CellNetlist::cell_histogram() const {
  std::map<std::string, int> h;
  for (const auto& inst : instances) ++h[library->cell(inst.cell).name];
  return {h.begin(), h.end()};
}

Network cell_netlist_to_network(const CellNetlist& cells) {
  LutNetwork lnet;
  lnet.num_pis = cells.num_pis;
  for (const auto& inst : cells.instances) {
    lnet.luts.push_back({inst.fanins, cells.library->cell(inst.cell).function});
  }
  for (std::size_t i = 0; i < cells.po_refs.size(); ++i) {
    if (cells.po_const[i]) {
      lnet.luts.push_back({});  // 0-input constant-0 LUT
      lnet.po_refs.push_back(
          static_cast<std::int32_t>(lnet.num_pis + lnet.luts.size() - 1));
      lnet.po_compl.push_back(cells.po_const_value[i]);
    } else {
      lnet.po_refs.push_back(cells.po_refs[i]);
      lnet.po_compl.push_back(false);
    }
  }
  return lut_network_to_network(lnet);
}

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// Leaves per cut: library cells have at most 4 pins.
constexpr int kCutSize = 4;

/// Area-flow passes after the delay pass.
constexpr int kAreaFlowRounds = 2;

struct Match {
  int cell = -1;
  int num_pins = 0;
  std::array<NodeId, 4> pin_leaf{};
  std::array<bool, 4> pin_phase{};
  bool from_inverter = false;  ///< realized as INV(other phase)
  float arrival = kInf;
  float area_flow = kInf;
  bool valid() const noexcept { return cell >= 0 || from_inverter; }
};

struct PhaseState {
  Match best;
  float arrival = kInf;
  float area_flow = kInf;
  float required = kInf;
  std::uint32_t map_refs = 0;  ///< references in the current cover
};

struct NodeState {
  PhaseState ph[2];
  float est_refs = 1.0f;
};

class AsicMapper {
 public:
  AsicMapper(const Network& net, const TechLibrary& lib,
             const AsicMapParams& params)
      : net_(net),
        lib_(lib),
        params_(params),
        state_(net.size()),
        order_(params.use_choices ? choice_topo_order(net)
                                  : topo_order(net)),
        enumerator_(net, {.cut_size = kCutSize,
                          .use_choices = params.use_choices}) {
    assert(lib_.inverter() >= 0);
    inv_delay_ = static_cast<float>(lib_.cell(lib_.inverter()).pin_delays[0]);
    inv_area_ = static_cast<float>(lib_.cell(lib_.inverter()).area);
    // Fanout estimates seeded from the PO-reachable original graph only.
    // Candidate cones are mutually exclusive alternatives: counting their
    // edges would make shared leaves look far cheaper than any single
    // cover can realize.  Candidate-interior nodes start at 1 and the
    // per-pass blending with real cover references adapts from there.
    std::vector<std::uint32_t> local_fanout(net_.size(), 0);
    for (const NodeId n : topo_order(net_)) {
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

  CellNetlist run(AsicMapStats* stats) {
    // Passes are greedy; keep the best extraction across passes under the
    // requested objective (recovery rounds usually help but may regress).
    CellNetlist best;
    AsicMapStats best_stats;
    bool have_best = false;
    auto harvest = [&]() {
      AsicMapStats s;
      CellNetlist candidate = extract(&s);
      const auto key = [&](const CellNetlist& n) {
        if (params_.objective == AsicMapParams::Objective::kDelay) {
          // Minimize area among extractions inside the (possibly relaxed)
          // delay budget; outside it, minimize the violation first.
          const double excess =
              target_delay_ >= 0.0f
                  ? std::max(0.0, n.delay - double(target_delay_) - 1e-6)
                  : 0.0;
          return std::make_tuple(excess, n.area, n.delay);
        }
        return std::make_tuple(n.area, n.delay, 0.0);
      };
      if (!have_best || key(candidate) < key(best)) {
        best = std::move(candidate);
        best_stats = s;
        have_best = true;
      }
    };
    mapping_pass(Mode::kDelay);
    compute_required();
    harvest();
    for (int i = 0; i < kAreaFlowRounds; ++i) {
      mapping_pass(Mode::kAreaFlow);
      compute_required();
      harvest();
    }
    for (int i = 0; i < params_.exact_area_rounds; ++i) {
      mapping_pass(Mode::kExactArea);
      compute_required();
      harvest();
    }
    if (stats) *stats = best_stats;
    return best;
  }

 private:
  enum class Mode { kDelay, kAreaFlow, kExactArea };

  /// \name Reference-counted exact area over the live (node, phase) cover.
  /// @{
  float area_ref(NodeId n, bool ph) {
    auto& ps = state_[n].ph[ph];
    if (ps.map_refs++ > 0) return 0.0f;
    if (!net_.is_gate(n)) return ph ? inv_area_ : 0.0f;
    const Match& m = ps.best;
    assert(m.valid());
    if (m.from_inverter) return inv_area_ + area_ref(n, !ph);
    float a = static_cast<float>(lib_.cell(m.cell).area);
    for (int j = 0; j < m.num_pins; ++j) {
      a += area_ref(m.pin_leaf[j], m.pin_phase[j]);
    }
    return a;
  }
  float area_deref(NodeId n, bool ph) {
    auto& ps = state_[n].ph[ph];
    assert(ps.map_refs > 0);
    if (--ps.map_refs > 0) return 0.0f;
    if (!net_.is_gate(n)) return ph ? inv_area_ : 0.0f;
    const Match& m = ps.best;
    if (m.from_inverter) return inv_area_ + area_deref(n, !ph);
    float a = static_cast<float>(lib_.cell(m.cell).area);
    for (int j = 0; j < m.num_pins; ++j) {
      a += area_deref(m.pin_leaf[j], m.pin_phase[j]);
    }
    return a;
  }
  /// Marginal area of realizing \p m on top of the current cover
  /// (side-effect free probe).
  float match_exact_area(const Match& m, NodeId n, bool ph) {
    if (m.from_inverter) {
      const float a = inv_area_ + area_ref(n, !ph);
      area_deref(n, !ph);
      return a;
    }
    float a = static_cast<float>(lib_.cell(m.cell).area);
    for (int j = 0; j < m.num_pins; ++j) {
      a += area_ref(m.pin_leaf[j], m.pin_phase[j]);
    }
    for (int j = 0; j < m.num_pins; ++j) {
      area_deref(m.pin_leaf[j], m.pin_phase[j]);
    }
    return a;
  }
  /// Detaches / reattaches the children of a phase's current match while
  /// the node's own incoming references stay put.
  void detach_match(NodeId n, bool ph) {
    const Match& m = state_[n].ph[ph].best;
    if (!m.valid()) return;
    if (m.from_inverter) {
      area_deref(n, !ph);
      return;
    }
    for (int j = 0; j < m.num_pins; ++j) {
      area_deref(m.pin_leaf[j], m.pin_phase[j]);
    }
  }
  void attach_match(NodeId n, bool ph) {
    const Match& m = state_[n].ph[ph].best;
    if (!m.valid()) return;
    if (m.from_inverter) {
      area_ref(n, !ph);
      return;
    }
    for (int j = 0; j < m.num_pins; ++j) {
      area_ref(m.pin_leaf[j], m.pin_phase[j]);
    }
  }
  /// @}

  /// Leaf cost accessors treat PIs/constants as free in phase 0 and as one
  /// inverter in phase 1.
  float leaf_arrival(NodeId n, bool ph) const {
    return state_[n].ph[ph].arrival;
  }
  float leaf_flow(NodeId n, bool ph) const {
    return state_[n].ph[ph].area_flow;
  }

  void init_source(NodeId n) {
    auto& st = state_[n];
    st.ph[0].arrival = 0.0f;
    st.ph[0].area_flow = 0.0f;
    st.ph[0].best = Match{};
    st.ph[1].arrival = inv_delay_;
    st.ph[1].area_flow = inv_area_;
    st.ph[1].best = Match{};
    st.ph[1].best.from_inverter = true;
  }

  /// One library match of a support-reduced cut function: the cell, its
  /// output phase and, per pin, the support variable, phase and delay.
  struct CellMatch {
    int cell = -1;
    float area = 0.0f;
    std::array<float, 4> pin_delay{};
    std::int8_t num_pins = 0;
    bool out_phase = false;
    std::array<std::int8_t, 4> pin_var{};
    std::array<bool, 4> pin_phase{};
  };

  /// The library matches of the \p m-variable function \p g, in library
  /// order, composed once per function and reused by every cut whose
  /// function shrinks to it.  The span stays valid until the next call.
  std::span<const CellMatch> matches_of(Tt6 g, int m) {
    const std::uint32_t key = (static_cast<std::uint32_t>(m) << 16) |
                              static_cast<std::uint32_t>(g & tt6_mask(4));
    const auto [it, inserted] = match_lists_.try_emplace(key);
    auto& [begin, end] = it->second;
    if (inserted) {
      begin = end = match_pool_.size();
      const NpnCanonResult canon = npn_canonicalize_exact(g, m);
      if (const auto* entries = lib_.matches(canon.canon, m)) {
        for (const auto& entry : *entries) {
          const Cell& cell = lib_.cell(entry.cell);
          const NpnMatch nm = npn_match(canon.transform, entry.transform);
          CellMatch& cm = match_pool_.emplace_back();
          cm.cell = entry.cell;
          cm.num_pins = static_cast<std::int8_t>(cell.num_pins);
          cm.area = static_cast<float>(cell.area);
          cm.out_phase = nm.output_negation;
          for (int j = 0; j < cell.num_pins; ++j) {
            cm.pin_var[j] = static_cast<std::int8_t>(nm.pin_to_leaf[j]);
            cm.pin_phase[j] = (nm.pin_negation >> j) & 1u;
            cm.pin_delay[j] = static_cast<float>(cell.pin_delays[j]);
          }
          ++end;
        }
      }
    }
    return {match_pool_.data() + begin, end - begin};
  }

  /// Enumerates all library matches of \p cut; calls fn(match, out_phase).
  template <typename Fn>
  void for_each_match(const Cut& cut, const Fn& fn) {
    // Shrink the cut function to its true support.
    Tt6 g = cut.function;
    std::array<int, 6> shrink_map{};
    const int m = tt6_shrink_support(g, cut.size, shrink_map);
    if (m == 0 || m > 4) return;  // constant or too wide for cells

    for (const CellMatch& cm : matches_of(g, m)) {
      Match match;
      match.cell = cm.cell;
      match.num_pins = cm.num_pins;
      float arrival = 0.0f;
      float flow = cm.area;
      for (int j = 0; j < cm.num_pins; ++j) {
        const NodeId leaf = cut.leaves[shrink_map[cm.pin_var[j]]];
        const bool lph = cm.pin_phase[j];
        match.pin_leaf[j] = leaf;
        match.pin_phase[j] = lph;
        arrival = std::max(arrival, leaf_arrival(leaf, lph) + cm.pin_delay[j]);
        flow += leaf_flow(leaf, lph) / state_[leaf].est_refs;
      }
      match.arrival = arrival;
      match.area_flow = flow;
      fn(match, cm.out_phase);
    }
  }

  void consider_match(NodeId n, Mode mode, const Cut& cut) {
    for_each_match(cut, [&](const Match& match, bool out_ph) {
      if (mode == Mode::kExactArea) {
        Match exact = match;
        exact.area_flow = match_exact_area(exact, n, out_ph);
        update_best(state_[n].ph[out_ph], exact, mode);
      } else {
        update_best(state_[n].ph[out_ph], match, mode);
      }
    });
  }

  void update_best(PhaseState& ps, const Match& match, Mode mode) {
    if (!ps.best.valid()) {
      ps.best = match;
      ps.arrival = match.arrival;
      ps.area_flow = match.area_flow;
      return;
    }
    bool better;
    if (mode == Mode::kDelay &&
        params_.objective == AsicMapParams::Objective::kDelay) {
      better = std::make_pair(match.arrival, match.area_flow) <
               std::make_pair(ps.arrival, ps.area_flow);
    } else {
      // Area-first, but do not violate the phase's required time.  When
      // nothing is feasible, race back toward feasibility (arrival first):
      // comparing area there lets slack violations snowball across passes.
      const float req = ps.required;
      const bool m_ok = match.arrival <= req;
      const bool b_ok = ps.arrival <= req;
      if (m_ok != b_ok) {
        better = m_ok;
      } else if (!m_ok) {
        better = std::make_pair(match.arrival, match.area_flow) <
                 std::make_pair(ps.arrival, ps.area_flow);
      } else {
        better = std::make_pair(match.area_flow, match.arrival) <
                 std::make_pair(ps.area_flow, ps.arrival);
      }
    }
    if (better) {
      ps.best = match;
      ps.arrival = match.arrival;
      ps.area_flow = match.area_flow;
    }
  }

  void inverter_closure(NodeId n, Mode mode) {
    auto& st = state_[n];
    for (int dir = 0; dir < 2; ++dir) {
      for (int ph = 0; ph < 2; ++ph) {
        const PhaseState& other = st.ph[1 - ph];
        if (!other.best.valid()) continue;
        Match inv;
        inv.from_inverter = true;
        inv.arrival = other.arrival + inv_delay_;
        inv.area_flow = mode == Mode::kExactArea
                            ? match_exact_area(inv, n, ph != 0)
                            : other.area_flow + inv_area_;
        update_best(st.ph[ph], inv, mode);
      }
    }
  }

  void mapping_pass(Mode mode) {
    obs::Span span("cut:enum");
    // Persistent enumerator: reset() keeps the cut arena across passes.
    enumerator_.reset(order_.size());
    // Priority cuts: rank every cut by the cost of its best library match,
    // so cheap-to-realize structures survive the per-node cut cap even when
    // choice merging floods the set.
    const bool delay_priority =
        params_.objective == AsicMapParams::Objective::kDelay;
    auto annotate = [&](NodeId n, Cut& c) {
      c.delay = 0.0f;
      c.area_flow = 0.0f;
      if (!net_.is_gate(n)) return;
      c.delay = kInf;
      c.area_flow = kInf;
      for_each_match(c, [&](const Match& match, bool /*out_ph*/) {
        const bool better =
            delay_priority
                ? std::make_pair(match.arrival, match.area_flow) <
                      std::make_pair(c.delay, c.area_flow)
                : std::make_pair(match.area_flow, match.arrival) <
                      std::make_pair(c.area_flow, c.delay);
        if (better) {
          c.delay = match.arrival;
          c.area_flow = match.area_flow;
        }
      });
    };
    auto cut_better = [&](const Cut& a, const Cut& b) {
      if (a.is_trivial() != b.is_trivial()) return b.is_trivial();
      if (delay_priority) {
        if (a.delay != b.delay) return a.delay < b.delay;
        if (a.area_flow != b.area_flow) return a.area_flow < b.area_flow;
      } else {
        if (a.area_flow != b.area_flow) return a.area_flow < b.area_flow;
        if (a.delay != b.delay) return a.delay < b.delay;
      }
      return a.size < b.size;
    };

    const bool exact = mode == Mode::kExactArea;
    for (std::size_t i = 0; i < order_.size(); ++i) {
      const NodeId n = order_[i];
      if (!net_.is_gate(n)) {
        enumerator_.run_slot(i, n, annotate, cut_better);
        init_source(n);
        continue;
      }
      auto& st = state_[n];

      // Exact mode: remove this node's phases from the live cover so the
      // probes measure true marginal areas; restore afterwards with the
      // (possibly new) matches.  The phase realized as an inverter of the
      // other holds an internal reference on it, so it must be drained
      // first -- draining the other phase first would consume that
      // reference and the inverter's release would double-deref.
      std::uint32_t removed[2] = {0, 0};
      if (exact) {
        assert(!(st.ph[0].best.from_inverter &&
                 st.ph[1].best.from_inverter));
        const int first = st.ph[0].best.from_inverter ? 0 : 1;
        for (const int ph : {first, 1 - first}) {
          while (st.ph[ph].map_refs > 0) {
            area_deref(n, ph != 0);
            ++removed[ph];
          }
        }
      }

      st.ph[0].best = Match{};
      st.ph[1].best = Match{};
      st.ph[0].arrival = st.ph[1].arrival = kInf;
      st.ph[0].area_flow = st.ph[1].area_flow = kInf;

      enumerator_.run_slot(i, n, annotate, cut_better);
      for (const Cut& cut : enumerator_.cuts(n)) {
        if (cut.is_trivial()) continue;
        consider_match(n, mode, cut);
      }
      inverter_closure(n, mode);
      assert((st.ph[0].best.valid() || st.ph[1].best.valid()) &&
             "library cannot realize a node: missing base cells");
      assert(st.ph[0].best.valid() && st.ph[1].best.valid());

      if (exact) {
        for (int ph = 0; ph < 2; ++ph) {
          for (std::uint32_t k = 0; k < removed[ph]; ++k) {
            area_ref(n, ph != 0);
          }
        }
      }
    }
    enumerator_.count_pass(order_.size());
  }

  void compute_required() {
    for (auto& st : state_) {
      st.ph[0].required = kInf;
      st.ph[1].required = kInf;
    }

    // Walk the current cover to count real references, then blend them into
    // the fanout estimates (choice cones inflate raw fanout counts, which
    // would otherwise make area flow over-optimistic about sharing).
    {
      std::vector<std::array<std::uint32_t, 2>> refs(
          state_.size(), std::array<std::uint32_t, 2>{0, 0});
      std::vector<std::pair<NodeId, bool>> visit;
      for (const Signal s : net_.pos()) {
        if (refs[s.node()][s.complemented()]++ == 0 &&
            net_.is_gate(s.node())) {
          visit.push_back({s.node(), s.complemented()});
        }
      }
      std::size_t head = 0;
      while (head < visit.size()) {
        const auto [n, ph] = visit[head++];
        const Match& m = state_[n].ph[ph].best;
        if (m.from_inverter) {
          if (refs[n][!ph]++ == 0 && net_.is_gate(n)) {
            visit.push_back({n, !ph});
          }
          continue;
        }
        for (int j = 0; j < m.num_pins; ++j) {
          const NodeId leaf = m.pin_leaf[j];
          if (refs[leaf][m.pin_phase[j]]++ == 0 && net_.is_gate(leaf)) {
            visit.push_back({leaf, m.pin_phase[j]});
          }
        }
      }
      for (NodeId n = 0; n < state_.size(); ++n) {
        const float total = static_cast<float>(refs[n][0] + refs[n][1]);
        state_[n].est_refs =
            std::max(1.0f, (state_[n].est_refs + 2.0f * total) / 3.0f);
        // Seed the live-cover counters used by exact-area passes.
        state_[n].ph[0].map_refs = refs[n][0];
        state_[n].ph[1].map_refs = refs[n][1];
      }
    }
    float target = 0.0f;
    if (params_.objective == AsicMapParams::Objective::kDelay) {
      for (const Signal s : net_.pos()) {
        target = std::max(target,
                          state_[s.node()].ph[s.complemented()].arrival);
      }
      // Freeze the delay target at the first (delay-optimal) pass so later
      // area-recovery passes cannot ratchet the budget upward; an optional
      // relaxation factor trades a bounded delay slack for area.
      if (target_delay_ < 0.0f) {
        target_delay_ =
            target * (1.0f + static_cast<float>(params_.delay_relaxation));
      }
      target = std::min(target * (1.0f + static_cast<float>(
                                             params_.delay_relaxation)),
                        target_delay_);
    } else {
      target = kInf;
    }
    for (const Signal s : net_.pos()) {
      auto& ps = state_[s.node()].ph[s.complemented()];
      ps.required = std::min(ps.required, target);
    }

    // Reverse sweep over the mapping order propagates required times; the
    // inverter link between the two phases of one node is handled first.
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      const NodeId n = *it;
      auto& st = state_[n];
      for (int ph = 0; ph < 2; ++ph) {
        if (st.ph[ph].best.from_inverter) {
          st.ph[1 - ph].required = std::min(
              st.ph[1 - ph].required, st.ph[ph].required - inv_delay_);
        }
      }
      if (!net_.is_gate(n)) continue;
      for (int ph = 0; ph < 2; ++ph) {
        const Match& m = st.ph[ph].best;
        if (!m.valid() || m.from_inverter) continue;
        const Cell& cell = lib_.cell(m.cell);
        for (int j = 0; j < m.num_pins; ++j) {
          auto& ls = state_[m.pin_leaf[j]].ph[m.pin_phase[j]];
          ls.required =
              std::min(ls.required,
                       st.ph[ph].required -
                           static_cast<float>(cell.pin_delays[j]));
        }
      }
    }
  }

  CellNetlist extract(AsicMapStats* stats) {
    CellNetlist out;
    out.library = &lib_;
    out.num_pis = static_cast<int>(net_.num_pis());

    // Memoized reference per (node, phase).
    std::vector<std::array<std::int32_t, 2>> ref(net_.size(), {-1, -1});
    for (std::size_t i = 0; i < net_.num_pis(); ++i) {
      ref[net_.pi_at(i)][0] = static_cast<std::int32_t>(i);
    }

    std::size_t inverters = 0;
    // Iterative demand-driven extraction.
    struct Frame {
      NodeId n;
      bool ph;
      int stage;
    };
    auto extract_signal = [&](NodeId root, bool root_ph) {
      std::vector<Frame> stack{{root, root_ph, 0}};
      while (!stack.empty()) {
        auto& [n, ph, stage] = stack.back();
        if (ref[n][ph] >= 0) {
          stack.pop_back();
          continue;
        }
        // PIs in phase 1: an inverter on the PI.
        if (!net_.is_gate(n)) {
          assert(net_.is_pi(n) && ph);
          CellNetlist::Instance inst;
          inst.cell = lib_.inverter();
          inst.fanins = {ref[n][0]};
          ref[n][1] =
              static_cast<std::int32_t>(out.num_pis + out.instances.size());
          out.instances.push_back(std::move(inst));
          ++inverters;
          stack.pop_back();
          continue;
        }
        const Match& m = state_[n].ph[ph].best;
        assert(m.valid());
        if (m.from_inverter) {
          if (ref[n][!ph] < 0) {
            if (stage == 0) {
              stage = 1;
              stack.push_back({n, !ph, 0});
              continue;
            }
          }
          CellNetlist::Instance inst;
          inst.cell = lib_.inverter();
          inst.fanins = {ref[n][!ph]};
          ref[n][ph] =
              static_cast<std::int32_t>(out.num_pis + out.instances.size());
          out.instances.push_back(std::move(inst));
          ++inverters;
          stack.pop_back();
          continue;
        }
        if (stage == 0) {
          stage = 1;
          bool pushed = false;
          for (int j = 0; j < m.num_pins; ++j) {
            if (ref[m.pin_leaf[j]][m.pin_phase[j]] < 0) {
              stack.push_back({m.pin_leaf[j], m.pin_phase[j], 0});
              pushed = true;
            }
          }
          if (pushed) continue;
        }
        CellNetlist::Instance inst;
        inst.cell = m.cell;
        for (int j = 0; j < m.num_pins; ++j) {
          inst.fanins.push_back(ref[m.pin_leaf[j]][m.pin_phase[j]]);
        }
        ref[n][ph] =
            static_cast<std::int32_t>(out.num_pis + out.instances.size());
        out.instances.push_back(std::move(inst));
        stack.pop_back();
      }
    };

    for (const Signal s : net_.pos()) {
      if (net_.is_const0(s.node())) {
        out.po_refs.push_back(-1);
        out.po_const.push_back(true);
        out.po_const_value.push_back(s.complemented());
        continue;
      }
      extract_signal(s.node(), s.complemented());
      out.po_refs.push_back(ref[s.node()][s.complemented()]);
      out.po_const.push_back(false);
      out.po_const_value.push_back(false);
    }

    // Honest area/delay from the actual instances.
    double area = 0.0;
    std::vector<double> arrival(out.num_pis + out.instances.size(), 0.0);
    for (std::size_t i = 0; i < out.instances.size(); ++i) {
      const auto& inst = out.instances[i];
      const Cell& cell = lib_.cell(inst.cell);
      area += cell.area;
      double arr = 0.0;
      for (std::size_t j = 0; j < inst.fanins.size(); ++j) {
        arr = std::max(arr, arrival[inst.fanins[j]] + cell.pin_delays[j]);
      }
      arrival[out.num_pis + i] = arr;
    }
    double delay = 0.0;
    for (std::size_t i = 0; i < out.po_refs.size(); ++i) {
      if (!out.po_const[i]) delay = std::max(delay, arrival[out.po_refs[i]]);
    }
    out.area = area;
    out.delay = delay;

    if (stats) {
      stats->num_instances = out.instances.size();
      stats->num_inverters = inverters;
      stats->area = area;
      stats->delay = delay;
    }
    return out;
  }

  const Network& net_;
  const TechLibrary& lib_;
  AsicMapParams params_;
  std::vector<NodeState> state_;
  std::vector<NodeId> order_;
  CutEnumerator enumerator_;
  float inv_delay_ = 0.0f;
  float inv_area_ = 0.0f;
  float target_delay_ = -1.0f;  ///< frozen after the first delay pass
  /// matches_of() results: (support size, function) -> [begin, end) of
  /// match_pool_, one flat pool instead of a list per function.
  std::unordered_map<std::uint32_t, std::pair<std::size_t, std::size_t>>
      match_lists_;
  std::vector<CellMatch> match_pool_;
};

}  // namespace

CellNetlist asic_map(const Network& net, const TechLibrary& lib,
                     const AsicMapParams& params, AsicMapStats* stats) {
  AsicMapper mapper(net, lib, params);
  return mapper.run(stats);
}

}  // namespace mcs
