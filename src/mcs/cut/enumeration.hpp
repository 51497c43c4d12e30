/// \file enumeration.hpp
/// \brief Priority-cut enumeration with optional choice-class merging.
///
/// Implements the cut computation used by the MCH builder (paper, Alg. 1
/// line 3) and by both technology mappers (Alg. 3 lines 1-8).  With
/// `use_choices`, after the cuts of a representative are computed the cut
/// sets of all its choice-class members are folded into the representative's
/// set (phase-corrected), exactly as in Algorithm 3: the mapper then
/// transparently evaluates structures coming from different logic
/// representations.
///
/// The caller supplies the processing order (`topo_order` or
/// `choice_topo_order`) plus optional annotate/compare hooks, which lets the
/// mappers re-run enumeration per pass with pass-specific costs
/// (priority cuts).
///
/// Hot-path design (this is the inner loop of every mapper and of MCH
/// construction):
///   - Cut sets live in a CutStore arena (one contiguous buffer, one
///     fixed slot per scheduled node) instead of a vector-of-vectors: no
///     per-node allocations, and a node builds its set in place in its
///     slot.
///   - The per-node working set lives in a Worker.  Serial passes use the
///     enumerator's own; a parallel pass gives each participant one.
///   - run/run_slot are templated on the annotate/compare functors, so
///     mapper lambdas inline into the merge loop -- no indirect call per
///     cut.
///   - A merged cut's truth table is only derived after the leaf-union +
///     signature dominance test admits it: dominated merges (the common
///     case on dense networks) cost two leaf merges and a signature check,
///     never a table expansion.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "mcs/cut/cut.hpp"
#include "mcs/cut/cut_store.hpp"
#include "mcs/network/network.hpp"

namespace mcs {

struct CutEnumParams {
  int cut_size = 6;   ///< k: maximum number of leaves
  int cut_limit = 8;  ///< l: maximum number of stored cuts per node
  bool use_choices = false;
};

/// Default no-op annotation hook.
struct CutNoAnnotate {
  static constexpr bool kNeedsFunction = false;
  void operator()(NodeId, Cut&) const noexcept {}
};

/// Marks an annotate functor as deriving its costs from the cut's *leaves*
/// only (never from cut.function).  For such hooks the enumerator runs the
/// full admission -- dominance, dominated-removal and the cut_limit
/// ranking -- before the merged cut's truth table is derived, so rejected
/// merges never pay for a table expansion.  The compare hook must likewise
/// not read cut.function (every comparator in this library ranks on
/// size/leaves/annotated costs).
template <typename F>
struct LeafOnlyAnnotate {
  static constexpr bool kNeedsFunction = false;
  const F& fn;
  void operator()(NodeId n, Cut& c) const { fn(n, c); }
};

/// Detects `A::kNeedsFunction == false`; defaults to true (safe: the
/// ASIC mapper's annotate hook NPN-matches the cut function).
template <typename A, typename = void>
struct CutAnnotateNeedsFunction : std::true_type {};
template <typename A>
struct CutAnnotateNeedsFunction<A, std::void_t<decltype(A::kNeedsFunction)>>
    : std::bool_constant<A::kNeedsFunction> {};

/// Default ranking: fewer leaves first, then lexicographic leaf ids for
/// determinism.
struct CutDefaultBetter {
  bool operator()(const Cut& a, const Cut& b) const noexcept {
    if (a.size != b.size) return a.size < b.size;
    return std::lexicographical_compare(a.leaves.begin(),
                                        a.leaves.begin() + a.size,
                                        b.leaves.begin(),
                                        b.leaves.begin() + b.size);
  }
};

class CutEnumerator {
 public:
  /// One enumeration participant's working set: the cut set under
  /// construction, its packed signature/size side arrays and the merge
  /// scratch.  The serial entry points use the enumerator's own worker; a
  /// parallel pass gives each participant its own (see run_slot()), so
  /// several threads can build the sets of distinct nodes at once.
  class Worker {
   public:
    explicit Worker(const CutEnumerator& owner)
        : net_(owner.net_),
          params_(owner.params_),
          store_(owner.store_),
          wsig_(owner.slot_size()),
          wsize_(owner.slot_size()) {}

   private:
    friend class CutEnumerator;

    /// Builds the cut set of \p n in place at \p tail (one slot of room)
    /// and returns its size.  \pre the sets of n's fanins and, with
    /// choices, of its class members are committed.
    template <typename Annotate, typename Compare>
    std::size_t build(NodeId n, Cut* tail, const Annotate& annotate,
                      const Compare& better) {
      if (!net_.is_gate(n)) {
        // PIs and the constant have only the trivial cut.
        tail[0] = Cut::trivial(n);
        annotate(n, tail[0]);
        return 1;
      }
      tail_ = tail;
      count_ = 0;
      enumerate_node(n, annotate, better);
      if (params_.use_choices && net_.has_choice(n)) {
        merge_choice_cuts(n, annotate, better);
      }
      // The trivial cut is always available (appended last, not counted in
      // the limit) so downstream merges can stop at this node.
      Cut t = Cut::trivial(n);
      annotate(n, t);
      tail_[count_++] = t;
      return count_;
    }


    template <typename Annotate, typename Compare>
    void enumerate_node(NodeId n, const Annotate& annotate,
                        const Compare& better) {
      const Node& nd = net_.node(n);
      const std::span<const Cut> set_a = store_.cuts(nd.fanin[0].node());
      const std::span<const Cut> set_b = store_.cuts(nd.fanin[1].node());
      assert(!set_a.empty() && !set_b.empty() &&
             "fanin cuts missing: order is not topological");

      auto derive_function = [&](Cut& merged, const Cut& ca, const Cut& cb,
                                 const Cut* cc) {
        // 2-input merges reuse the leaf positions recorded by the tracked
        // merge; the (rare) 3-input path re-derives them by subset matching.
        Tt6 fa, fb;
        if (cc == nullptr) {
          fa = expand_cut_function_at(ca.function, ca.size, posa_.data(),
                                      merged.size);
          fb = expand_cut_function_at(cb.function, cb.size, posb_.data(),
                                      merged.size);
        } else {
          fa = expand_cut_function(ca.function, ca, merged);
          fb = expand_cut_function(cb.function, cb, merged);
        }
        if (nd.fanin[0].complemented()) fa = ~fa;
        if (nd.fanin[1].complemented()) fb = ~fb;
        Tt6 f = 0;
        switch (nd.type) {
          case GateType::kAnd2:
            f = fa & fb;
            break;
          case GateType::kXor2:
            f = fa ^ fb;
            break;
          case GateType::kMaj3:
          case GateType::kXor3: {
            Tt6 fc = expand_cut_function(cc->function, *cc, merged);
            if (nd.fanin[2].complemented()) fc = ~fc;
            f = nd.type == GateType::kMaj3
                    ? ((fa & fb) | (fa & fc) | (fb & fc))
                    : (fa ^ fb ^ fc);
            break;
          }
          default:
            assert(false);
        }
        merged.function = tt6_replicate(f, merged.size);
      };

      // The popcount overflow prefilter stays inline in the pair loops (a
      // handful of instructions rejecting ~a quarter of all pairs); the
      // rest of the combine is a single out-of-line body per functor pair,
      // keeping the loops themselves tiny.
      const int k = params_.cut_size;
      auto combine = [&](const Cut& ca, const Cut& cb, const Cut* cc) {
        // Stage 1: leaf union + signature (prefilter already passed).
        // The scratch cut is a member so the per-combine default-init of a
        // 56-byte local (22M+ times per pass) never happens;
        // merge_cut_leaves writes every field the admission stages read.
        Cut& merged = scratch_;
        if (cc == nullptr) {
          if (!merge_cut_leaves_track(ca, cb, k, merged, posa_.data(),
                                      posb_.data())) {
            return;
          }
        } else {
          Cut& ab = scratch3_;
          if (!merge_cut_leaves(ca, cb, k, ab)) return;
          if (!merge_cut_leaves_prefilter(ab, *cc, k)) return;
          if (!merge_cut_leaves(ab, *cc, k, merged)) return;
        }
        // Stage 2: dominance admission before any truth-table work.
        if (dominated_by_existing(merged)) return;
        // Stage 3: costs, limit admission, function, ordered insertion.
        // Leaf-only annotate hooks (the common case) let the full admission
        // run first, so limit-rejected merges never derive a truth table.
        if constexpr (!CutAnnotateNeedsFunction<Annotate>::value) {
          annotate(n, merged);
          const int pos = admit_position(merged, better);
          if (pos < 0) return;
          derive_function(merged, ca, cb, cc);
          insert_at(pos, merged);
        } else {
          derive_function(merged, ca, cb, cc);
          annotate(n, merged);
          const int pos = admit_position(merged, better);
          if (pos < 0) return;
          insert_at(pos, merged);
        }
      };

      if (nd.num_fanins == 2) {
        for (const Cut& ca : set_a) {
          const std::uint64_t sig_a = ca.signature;
          for (const Cut& cb : set_b) {
            if (std::popcount(sig_a | cb.signature) > k) continue;
            combine(ca, cb, nullptr);
          }
        }
      } else {
        const std::span<const Cut> set_c = store_.cuts(nd.fanin[2].node());
        assert(!set_c.empty());
        for (const Cut& ca : set_a) {
          const std::uint64_t sig_a = ca.signature;
          for (const Cut& cb : set_b) {
            if (std::popcount(sig_a | cb.signature) > k) continue;
            for (const Cut& cc : set_c) combine(ca, cb, &cc);
          }
        }
      }
    }

    template <typename Annotate, typename Compare>
    void merge_choice_cuts(NodeId repr, const Annotate& annotate,
                           const Compare& better) {
      for (NodeId m = net_.node(repr).next_choice; m != kNullNode;
           m = net_.node(m).next_choice) {
        const bool phase = net_.node(m).choice_phase;
        for (const Cut& c : store_.cuts(m)) {
          if (c.is_trivial()) continue;  // members are not mapping leaves
          assert(!c.contains(repr) && "choice cut reaches its representative");
          if (dominated_by_existing(c)) continue;
          Cut copy = c;
          copy.from_choice = true;
          if (phase) {
            copy.function = tt6_replicate(~copy.function, copy.size);
          }
          annotate(repr, copy);
          const int pos = admit_position(copy, better);
          if (pos >= 0) insert_at(pos, copy);
        }
      }
    }

    /// True iff a cut already in the working set dominates \p cut (the new
    /// cut is redundant; equal leaf sets count as dominated).  The packed
    /// signature/size side arrays keep the scan on two cache lines; the
    /// 64-byte cuts themselves are only touched for the rare sig-subset
    /// survivors.
    bool dominated_by_existing(const Cut& cut) const noexcept {
      const std::uint64_t sig = cut.signature;
      for (std::size_t i = 0; i < count_; ++i) {
        if ((wsig_[i] & ~sig) != 0 || wsize_[i] > cut.size) continue;
        if (tail_[i].dominates(cut)) return true;
      }
      return false;
    }

    /// Admission of a non-dominated \p cut: drops existing cuts it
    /// dominates and returns its ordered-insertion index, or -1 when the
    /// working set is full and the cut ranks past its tail.  Separated
    /// from insert_at() so combine() can defer the truth-table derivation
    /// of admitted cuts until after the verdict (the comparator never
    /// reads cut.function).
    template <typename Compare>
    int admit_position(const Cut& cut, const Compare& better) {
      // A cut at the size cap cannot dominate anything already present: an
      // equal-size dominated cut would have the identical leaf set, and
      // those were already rejected by dominated_by_existing().
      if (cut.size < params_.cut_size) {
        const std::uint64_t sig = cut.signature;
        std::size_t w = 0;
        for (std::size_t r = 0; r < count_; ++r) {
          const bool drop = (sig & ~wsig_[r]) == 0 && cut.size <= wsize_[r] &&
                            cut.dominates(tail_[r]);
          if (drop) continue;
          if (w != r) {
            tail_[w] = tail_[r];
            wsig_[w] = wsig_[r];
            wsize_[w] = wsize_[r];
          }
          ++w;
        }
        count_ = w;
      }
      // Linear ordered-position scan: the working set holds at most
      // cut_limit (~8) cuts, where a predictable early-exiting forward walk
      // beats binary search.
      std::size_t pos = 0;
      while (pos < count_ && better(tail_[pos], cut)) ++pos;
      if (pos == count_ &&
          count_ >= static_cast<std::size_t>(params_.cut_limit)) {
        return -1;
      }
      return static_cast<int>(pos);
    }

    void insert_at(int pos, const Cut& cut) noexcept {
      // When the set is at the cap, the last cut is about to fall off:
      // skip moving it.
      std::size_t move = count_ - static_cast<std::size_t>(pos);
      if (count_ >= static_cast<std::size_t>(params_.cut_limit)) {
        move = move == 0 ? 0 : move - 1;
      } else {
        ++count_;
      }
      std::memmove(tail_ + pos + 1, tail_ + pos, move * sizeof(Cut));
      std::memmove(wsig_.data() + pos + 1, wsig_.data() + pos,
                   move * sizeof(std::uint64_t));
      std::memmove(wsize_.data() + pos + 1, wsize_.data() + pos, move);
      tail_[pos] = cut;
      wsig_[pos] = cut.signature;
      wsize_[pos] = cut.size;
    }

    const Network& net_;
    const CutEnumParams params_;
    const CutStore& store_;  ///< the committed sets merges read
    Cut* tail_ = nullptr;    ///< working set of the node being enumerated
    std::size_t count_ = 0;  ///< live cuts in the working set
    /// Packed signatures/sizes of the working set, kept in sync by
    /// insert_at/admit_position: the dominance scans read these two
    /// compact arrays instead of striding over 64-byte cuts.
    std::vector<std::uint64_t> wsig_;
    std::vector<std::uint8_t> wsize_;
    Cut scratch_;   ///< merge scratch (avoids per-combine init)
    Cut scratch3_;  ///< intermediate scratch of 3-input merges
    std::array<std::uint8_t, kMaxCutSize> posa_{};  ///< leaf placements of ca
    std::array<std::uint8_t, kMaxCutSize> posb_{};  ///< leaf placements of cb
  };

  CutEnumerator(const Network& net, const CutEnumParams& params)
      : net_(net), params_(params), store_(net.size()), worker_(*this) {
    assert(params_.cut_size <= kMaxCutSize);
  }

  // Workers point at their enumerator.
  CutEnumerator(const CutEnumerator&) = delete;
  CutEnumerator& operator=(const CutEnumerator&) = delete;

  /// Re-arms the enumerator for a pass over \p num_slots scheduled nodes:
  /// the node at schedule position i builds its set in slot i (run_slot()),
  /// so the arena never moves during the pass.  The buffer is kept, so
  /// steady-state passes allocate nothing.
  void reset(std::size_t num_slots) { store_.reset(num_slots, slot_size()); }

  /// Enumerates cuts for every node of \p order (which must be
  /// topologically sorted; use choice_topo_order() with use_choices),
  /// order[i] in slot i of a fresh reset().
  template <typename Annotate, typename Compare>
  void run(const std::vector<NodeId>& order, const Annotate& annotate,
           const Compare& better) {
    obs::Span span("cut:enum");
    reset(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      run_slot(i, order[i], annotate, better);
    }
    count_pass(order.size());
  }
  void run(const std::vector<NodeId>& order) {
    run(order, CutNoAnnotate{}, CutDefaultBetter{});
  }

  /// Builds the cut set of node \p n at position \p slot of the reset()
  /// schedule on the enumerator's own worker.  Its fanins (and, with
  /// choices, its class members) must have been built already.  Lets
  /// mappers interleave enumeration with per-node cost state (priority
  /// cuts).
  template <typename Annotate, typename Compare>
  void run_slot(std::size_t slot, NodeId n, const Annotate& annotate,
                const Compare& better) {
    run_slot(worker_, slot, n, annotate, better);
  }

  /// run_slot() on \p worker's working set.  Threads with distinct workers
  /// may build distinct nodes at once, provided each node's fanin and
  /// member sets were committed, and published to the building thread,
  /// before it starts.
  template <typename Annotate, typename Compare>
  void run_slot(Worker& worker, std::size_t slot, NodeId n,
                const Annotate& annotate, const Compare& better) {
    store_.commit_slot(
        n, slot, worker.build(n, store_.slot(slot), annotate, better));
  }

  /// Records one finished enumeration pass over \p num_nodes nodes in the
  /// cut counters.  run() calls it; callers that drive run_slot()
  /// themselves call it once per pass.
  void count_pass(std::size_t num_nodes) const {
    static obs::Counter& runs = obs::counter("cut.enum_runs");
    static obs::Counter& nodes = obs::counter("cut.nodes_enumerated");
    static obs::Counter& cuts = obs::counter("cut.cuts_stored");
    runs.increment();
    nodes.add(num_nodes);
    cuts.add(store_.total_cuts());
  }

  /// The cut set of \p n.  Valid until the next reset() or run() (the
  /// arena may move when it grows).
  std::span<const Cut> cuts(NodeId n) const noexcept { return store_.cuts(n); }

  /// Total number of cuts over all nodes (statistics).
  std::size_t total_cuts() const noexcept { return store_.total_cuts(); }

 private:
  /// Room for one node's set: the cut limit, one cut of transient headroom
  /// for insert-then-cap, and the trivial cut.
  std::size_t slot_size() const noexcept {
    return static_cast<std::size_t>(params_.cut_limit) + 2;
  }

  const Network& net_;
  CutEnumParams params_;
  CutStore store_;
  Worker worker_;  ///< the serial entry points' working set
};

}  // namespace mcs
