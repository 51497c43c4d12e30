/// \file simulator.hpp
/// \brief Word-parallel logic simulation of mixed networks.
///
/// Two flavors:
///   - random simulation with W 64-bit words per node (signature computation
///     for SAT sweeping / DCH and fast falsification in CEC),
///   - exhaustive simulation producing complete truth tables of every node /
///     PO for networks with few primary inputs (test oracles).

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "mcs/network/network.hpp"
#include "mcs/tt/truth_table.hpp"

namespace mcs {

/// The gate kernel of the word-parallel simulators: writes words
/// [begin_word, end_word) of a \p type gate to \p out, reading fanin k's
/// words at \p in[k], each XORed with its complement mask \p flip[k]
/// (all ones or 0).  Inline, so a caller with a constant word range gets a
/// loop of fixed length.
inline void eval_gate_words(GateType type,
                            const std::array<const std::uint64_t*, 3>& in,
                            const std::array<std::uint64_t, 3>& flip,
                            std::uint64_t* out, int begin_word,
                            int end_word) noexcept {
  const std::uint64_t* a = in[0];
  const std::uint64_t* b = in[1];
  const std::uint64_t ac = flip[0];
  const std::uint64_t bc = flip[1];
  switch (type) {
    case GateType::kAnd2:
      for (int i = begin_word; i < end_word; ++i) {
        out[i] = (a[i] ^ ac) & (b[i] ^ bc);
      }
      break;
    case GateType::kXor2:
      for (int i = begin_word; i < end_word; ++i) {
        out[i] = (a[i] ^ ac) ^ (b[i] ^ bc);
      }
      break;
    case GateType::kMaj3:
    case GateType::kXor3: {
      const std::uint64_t* c = in[2];
      const std::uint64_t cc = flip[2];
      if (type == GateType::kMaj3) {
        for (int i = begin_word; i < end_word; ++i) {
          const std::uint64_t x = a[i] ^ ac;
          const std::uint64_t y = b[i] ^ bc;
          const std::uint64_t z = c[i] ^ cc;
          out[i] = (x & y) | (x & z) | (y & z);
        }
      } else {
        for (int i = begin_word; i < end_word; ++i) {
          out[i] = (a[i] ^ ac) ^ (b[i] ^ bc) ^ (c[i] ^ cc);
        }
      }
      break;
    }
    default:
      break;
  }
}

/// Random word-parallel simulation.
///
/// Every node (including choice members and dangling candidate cones) gets
/// `num_words` 64-bit values, computed in one serial sweep in ascending
/// node-id order (a topological order).  PI words are *seed-derived per
/// node*: the words of the i-th interface PI are a pure function of
/// (seed, i), never of any draw order, so two networks with the same PI
/// count see identical input vectors for the same seed (what the CEC
/// falsification stage relies on).
///
/// Incremental re-simulation: construction may *budget* capacity for extra
/// words (\p reserve_extra_words) and add_pattern_words() then appends
/// directed words per PI -- how the SAT-sweeping engine (mcs/sweep) feeds
/// counterexample patterns back into the signatures without recomputing the
/// random words.  The budget is lazy: the value table is allocated with the
/// tight `num_words` stride and only re-strided (one copy) on the first
/// add_pattern_words() call, so sweeps that never see a counterexample --
/// the common case on equivalence-heavy netlists -- never pay for the
/// reservation in memory or in construction-time zero-fill.
class RandomSimulation {
 public:
  /// \p reserve_extra_words: budget for add_pattern_words() calls (not
  /// allocated until the first call actually needs it).
  RandomSimulation(const Network& net, int num_words, std::uint64_t seed,
                   int reserve_extra_words = 0);

  int num_words() const noexcept { return num_words_; }

  /// Words still available for add_pattern_words() within the budget.
  int spare_words() const noexcept { return budget_words_ - num_words_; }

  /// Appends \p count simulation words in one incremental sweep:
  /// \p pi_words[w * num_pis + i] becomes value word (num_words() + w) of
  /// the i-th interface PI, and every gate is re-evaluated for the new
  /// words only (ascending node ids are a topological order).  Signatures
  /// and values_equal() immediately reflect the added patterns.
  /// \pre pi_words.size() == count * net.num_pis(), 1 <= count <=
  /// spare_words().
  void add_pattern_words(const std::vector<std::uint64_t>& pi_words,
                         int count);

  /// Value words of node \p n (non-complemented function).
  const std::uint64_t* node_values(NodeId n) const noexcept {
    return values_.data() + static_cast<std::size_t>(n) * capacity_words_;
  }

  /// Signature (hash of the value words) of the *function* of signal \p s.
  /// Complemented signals hash the complemented words, so equal signatures
  /// are a necessary condition for functional equality of signals.
  std::uint64_t signature(Signal s) const noexcept;

  /// True iff the simulated values of the two signals agree on every vector.
  bool values_equal(Signal a, Signal b) const noexcept;

 private:
  std::uint64_t* mutable_values(NodeId n) noexcept {
    return values_.data() + static_cast<std::size_t>(n) * capacity_words_;
  }
  void eval_node(NodeId n, int begin_word, int end_word) noexcept;
  /// Grows the per-node stride to budget_words_ (one row-by-row copy);
  /// no-op once capacity_words_ == budget_words_.
  void restride_to_budget();

  const Network& net_;
  int num_words_;
  int capacity_words_;  ///< current allocation stride per node
  int budget_words_;    ///< num_words at construction + reserve_extra_words
  std::vector<std::uint64_t> values_;
};

/// Random-simulation falsification of two networks with the same PI/PO
/// interface: simulates both on identical seed-derived input words and
/// returns the index of the first PO whose values differ (respecting PO
/// complement flags), or -1 when every PO agrees on every vector.  This is
/// CEC stage 1 and the flow `sim` pass -- one implementation for both.
std::ptrdiff_t sim_falsify(const Network& a, const Network& b, int num_words,
                           std::uint64_t seed);

/// Exhaustive simulation: complete truth table of every PO over the PIs.
/// \pre net.num_pis() <= TruthTable::kMaxVars.
std::vector<TruthTable> simulate_pos(const Network& net);

}  // namespace mcs
