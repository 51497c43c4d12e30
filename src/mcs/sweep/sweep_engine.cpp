#include "mcs/sweep/sweep.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

#include "mcs/fail/fail.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/obs/obs.hpp"
#include "mcs/par/thread_pool.hpp"
#include "mcs/sat/miter.hpp"
#include "mcs/sim/simulator.hpp"

namespace mcs {

namespace {

/// Candidate pairs per proof batch.  One batch = one IncrementalMiter on
/// one worker; the size trades encode reuse (bigger batches share cones
/// and cascade more proofs through one solver) against fan-out granularity.
constexpr std::size_t kPairBatch = 32;

/// Counterexample words injected per refinement round (64 patterns each).
/// Surplus counterexamples are dropped; their pairs re-prove next round,
/// and every injected pattern is guaranteed to split the class it came
/// from, so rounds strictly refine.
constexpr int kMaxCexWordsPerRound = 8;

/// Cap on the simulation words reserved for refinement, decoupling the
/// up-front values_ allocation from max_rounds (rounds can be huge; most
/// runs reach fixpoint in 1-3 rounds).  When the reserve runs dry the
/// engine simply stops refining -- sound, just fewer rounds.
constexpr int kMaxReserveWords = 4 * kMaxCexWordsPerRound;

struct Candidate {
  NodeId member;
  NodeId repr;
  bool phase;  ///< function(member) == function(repr) ^ phase (per sim)
};

enum class Verdict : std::uint8_t { kProven, kCex, kUnknown };

struct PairResult {
  Verdict verdict = Verdict::kUnknown;
  std::vector<std::uint8_t> cex;  ///< PI assignment, kCex only
};

/// True iff all \p num_words value words equal \p fill.
bool words_are(const std::uint64_t* w, int num_words, std::uint64_t fill) {
  for (int i = 0; i < num_words; ++i) {
    if (w[i] != fill) return false;
  }
  return true;
}

}  // namespace

std::vector<ProvenEquiv> sweep_equivalences(const Network& net,
                                            const FraigParams& params,
                                            FraigStats* stats_out) {
  obs::Span sweep_span("sweep:equivalences");
  FraigStats stats;
  const std::size_t threads = ThreadPool::resolve_threads(params.num_threads);
  stats.num_threads = threads;
  stats.initial_gates = net.num_gates();

  // Nodes eligible as candidates: gates, and (unless include_dangling)
  // only those reachable from the POs -- merging a PO cone onto a dangling
  // representative would redirect onto logic the rebuild drops.
  std::vector<std::uint8_t> eligible(net.size(), 0);
  if (params.include_dangling) {
    for (NodeId n = 1; n < net.size(); ++n) eligible[n] = net.is_gate(n);
  } else {
    for (const NodeId n : topo_order(net)) eligible[n] = net.is_gate(n);
  }

  const int max_rounds = std::max(1, params.max_rounds);
  RandomSimulation sim(
      net, params.sim_words, params.sim_seed, params.num_threads,
      /*reserve_extra_words=*/
      max_rounds <= 4 ? max_rounds * kMaxCexWordsPerRound : kMaxReserveWords);

  std::vector<ProvenEquiv> proven;
  // proven_at[n] = index into `proven` of n's equality, or -1.  Batches use
  // it to look cascadable facts up by cone node instead of scanning the
  // whole proven list; mutated only between rounds.
  std::vector<std::int32_t> proven_at(net.size(), -1);
  std::vector<std::uint8_t> merged(net.size(), 0);
  // Pairs that hit the conflict limit are never retried: refinement cannot
  // change a class that produced no counterexample.
  std::unordered_set<std::uint64_t> unknown_pairs;
  const auto pair_key = [](const Candidate& c) {
    return (static_cast<std::uint64_t>(c.member) << 32) | c.repr;
  };

  for (int round = 0; round < max_rounds; ++round) {
    // --- 1. candidate classes from the current signatures ----------------
    std::vector<Candidate> pairs;
    {
      const int words = sim.num_words();
      std::unordered_map<std::uint64_t, std::vector<NodeId>> groups;
      for (NodeId n = 1; n < net.size(); ++n) {
        if (!eligible[n] || merged[n]) continue;
        const std::uint64_t* w = sim.node_values(n);
        if (params.sweep_constants) {
          // All-0 / all-1 values: candidate for the constant class.  The
          // node still joins its signature group below -- if the constant
          // proof hits the conflict limit, the node-vs-node pair may still
          // be provable (near-identical cones make easy miters), so
          // routing constants exclusively would lose merges.
          if (words_are(w, words, 0ull)) {
            pairs.push_back({n, 0, false});
          } else if (words_are(w, words, ~0ull)) {
            pairs.push_back({n, 0, true});
          }
        }
        const std::uint64_t h0 = sim.signature(Signal(n, false));
        const std::uint64_t h1 = sim.signature(Signal(n, true));
        groups[std::min(h0, h1)].push_back(n);
      }
      for (auto& [hash, nodes] : groups) {
        if (nodes.size() < 2) continue;
        // Smallest id is the representative: every merge then points from
        // a later node to an earlier one, so redirections never chase
        // chains or create cycles.  (Node ids are already ascending here.)
        const NodeId repr = nodes.front();
        for (std::size_t i = 1; i < nodes.size(); ++i) {
          const NodeId m = nodes[i];
          // Establish the phase from the values; signature collisions are
          // filtered here (values must match exactly in one phase).
          bool phase;
          if (sim.values_equal(Signal(m, false), Signal(repr, false))) {
            phase = false;
          } else if (sim.values_equal(Signal(m, false), Signal(repr, true))) {
            phase = true;
          } else {
            continue;
          }
          pairs.push_back({m, repr, phase});
        }
      }
    }
    // (member, repr) order is the canonical pair order: a member appears in
    // at most two pairs (constant first -- repr 0 sorts lowest -- then its
    // class repr), so the sort erases the hash-map iteration order.
    std::sort(pairs.begin(), pairs.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.member != b.member ? a.member < b.member
                                            : a.repr < b.repr;
              });
    pairs.erase(std::remove_if(pairs.begin(), pairs.end(),
                               [&](const Candidate& c) {
                                 return unknown_pairs.count(pair_key(c)) > 0;
                               }),
                pairs.end());
    if (stats.num_candidate_pairs + pairs.size() > params.max_pairs) {
      pairs.resize(params.max_pairs - std::min(params.max_pairs,
                                               stats.num_candidate_pairs));
    }
    if (pairs.empty()) break;
    ++stats.num_rounds;

    // --- 2. parallel batched proving -------------------------------------
    // Batches are fixed-size slices of the canonical pair list -- a
    // function of the candidates alone, never of the thread count -- and
    // results land in indexed slots, so the outcome is identical for 1 and
    // N threads (submit_bulk's min-index determinism covers exceptions).
    const std::size_t num_batches =
        (pairs.size() + kPairBatch - 1) / kPairBatch;
    std::vector<PairResult> results(pairs.size());
    std::vector<std::int64_t> batch_conflicts(num_batches, 0);
    static obs::Counter& sat_calls = obs::counter("sweep.sat_calls");
    static obs::Counter& conflicts = obs::counter("sweep.conflicts");
    static obs::Counter& cascades = obs::counter("sweep.cascade_asserts");
    ThreadPool::global().submit_bulk(
        num_batches,
        [&](std::size_t b) {
          obs::Span batch_span("sweep:batch");
          // Propagates via the pool's min-index exception capture: the
          // whole fraig pass fails deterministically, never the process.
          fail::point("sweep.batch");
          const std::size_t begin = b * kPairBatch;
          const std::size_t end = std::min(pairs.size(), begin + kPairBatch);
          sat::IncrementalMiter miter(net);
          // Encode the batch's shared cone in one traversal, then assert
          // the equalities proven in earlier rounds that fall inside it
          // (cross-round proof cascading; each is a proven fact), looked
          // up by cone node through proven_at.
          std::vector<Signal> roots;
          roots.reserve(2 * (end - begin));
          for (std::size_t i = begin; i < end; ++i) {
            roots.push_back(Signal(pairs[i].member, false));
            roots.push_back(Signal(pairs[i].repr, pairs[i].phase));
          }
          std::uint64_t num_cascades = 0;
          for (const NodeId n : miter.encode(roots)) {
            const std::int32_t idx = proven_at[n];
            if (idx < 0) continue;
            const ProvenEquiv& e = proven[idx];
            if (miter.encoded(e.repr)) {
              miter.assert_equal(Signal(e.node, false),
                                 Signal(e.repr, e.phase));
              ++num_cascades;
            }
          }
          for (std::size_t i = begin; i < end; ++i) {
            const Candidate& c = pairs[i];
            const Signal a(c.member, false);
            const Signal b_sig(c.repr, c.phase);
            switch (miter.prove_equal(a, b_sig, params.conflict_limit)) {
              case sat::Result::kUnsat:
                results[i].verdict = Verdict::kProven;
                // In-batch cascading: deeper miters of this batch collapse.
                miter.assert_equal(a, b_sig);
                ++num_cascades;
                break;
              case sat::Result::kSat: {
                results[i].verdict = Verdict::kCex;
                std::vector<std::uint8_t>& cex = results[i].cex;
                cex.resize(net.num_pis());
                for (std::size_t p = 0; p < net.num_pis(); ++p) {
                  cex[p] = miter.pi_model(p) ? 1 : 0;
                }
                break;
              }
              default:
                results[i].verdict = Verdict::kUnknown;
                break;
            }
          }
          // Flushed once per batch (owner-thread cells; cheap but tidy).
          sat_calls.add(end - begin);
          batch_conflicts[b] = miter.num_conflicts();
          conflicts.add(static_cast<std::uint64_t>(batch_conflicts[b]));
          cascades.add(num_cascades);
        },
        threads);
    for (const std::int64_t c : batch_conflicts) stats.num_conflicts += c;

    // --- 3. deterministic merge + counterexample refinement --------------
    std::vector<const std::vector<std::uint8_t>*> cex_list;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const Candidate& c = pairs[i];
      ++stats.num_candidate_pairs;
      switch (results[i].verdict) {
        case Verdict::kProven:
          if (merged[c.member]) break;  // already merged (constant wins)
          proven_at[c.member] = static_cast<std::int32_t>(proven.size());
          proven.push_back({c.member, c.repr, c.phase});
          merged[c.member] = 1;
          ++stats.num_proven;
          break;
        case Verdict::kCex:
          ++stats.num_disproven;
          if (cex_list.size() <
              std::min(static_cast<std::size_t>(kMaxCexWordsPerRound),
                       static_cast<std::size_t>(sim.spare_words())) *
                  64) {
            cex_list.push_back(&results[i].cex);
          }
          break;
        case Verdict::kUnknown:
          ++stats.num_unknown;
          unknown_pairs.insert(pair_key(c));
          break;
      }
    }
    if (cex_list.empty()) {
      // Fixpoint, or the word reserve ran dry: no class can refine
      // further -- everything left is merged or permanently undecided.
      break;
    }
    if (round + 1 == max_rounds) break;  // nobody would consume the words
    // Pack the counterexamples 64 per word (bit j of word w = pattern
    // w*64+j; unused bits stay 0 -- the all-zero input is just one more
    // valid simulation vector) and re-simulate all new words in one
    // incremental sweep.
    const std::size_t num_new_words = (cex_list.size() + 63) / 64;
    std::vector<std::uint64_t> pi_words(num_new_words * net.num_pis(), 0ull);
    for (std::size_t k = 0; k < cex_list.size(); ++k) {
      const std::vector<std::uint8_t>& cex = *cex_list[k];
      std::uint64_t* words = pi_words.data() + (k / 64) * net.num_pis();
      for (std::size_t p = 0; p < net.num_pis(); ++p) {
        if (cex[p]) words[p] |= 1ull << (k % 64);
      }
    }
    sim.add_pattern_words(pi_words, static_cast<int>(num_new_words));
    stats.num_patterns_added += num_new_words;
    obs::counter("sweep.cex_words").add(num_new_words);
  }
  obs::counter("sweep.proven").add(stats.num_proven);
  obs::counter("sweep.disproven").add(stats.num_disproven);
  obs::counter("sweep.unknown").add(stats.num_unknown);
  obs::counter("sweep.rounds").add(stats.num_rounds);

  // Already in ascending member order within each round; make the whole
  // list canonical for consumers.
  std::sort(proven.begin(), proven.end(),
            [](const ProvenEquiv& a, const ProvenEquiv& b) {
              return a.node < b.node;
            });
  if (stats_out) *stats_out = stats;
  return proven;
}

Network fraig(const Network& net, const FraigParams& params,
              FraigStats* stats_out) {
  FraigStats stats;
  const std::vector<ProvenEquiv> proven =
      sweep_equivalences(net, params, &stats);

  // merge[n] = (target, phase): n is functionally target ^ phase.  A
  // target (class minimum) can itself be merged only onto the constant
  // node; the ascending-id rebuild below resolves such one-level chains
  // naturally (map[target] is final before any member reads it).
  std::vector<std::pair<NodeId, bool>> merge(net.size(), {kNullNode, false});
  for (const ProvenEquiv& e : proven) merge[e.node] = {e.repr, e.phase};

  // Rebuild, redirecting merged nodes; the strash rewires the fanouts.
  // Ascending node ids are a valid topological order in a strashed Network
  // AND guarantee every merge target (repr < node) is rebuilt before its
  // members -- a DFS post-order from the POs guarantees neither for
  // representatives living in a different PO cone.  Dangling nodes rebuilt
  // along the way are dropped by the cleanup below.
  Network dst;
  dst.reserve(net.size());
  std::vector<Signal> map(net.size());
  map[0] = dst.constant(false);
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    map[net.pi_at(i)] = dst.create_pi(net.pi_name(i));
  }
  for (NodeId n = 1; n < net.size(); ++n) {
    if (!net.is_gate(n)) continue;
    if (merge[n].first != kNullNode) {
      map[n] = map[merge[n].first] ^ merge[n].second;
      continue;
    }
    const Node& nd = net.node(n);
    std::array<Signal, 3> in{};
    for (int i = 0; i < nd.num_fanins; ++i) {
      in[i] = map[nd.fanin[i].node()] ^ nd.fanin[i].complemented();
    }
    map[n] = dst.create_gate(nd.type, in);
  }
  for (std::size_t i = 0; i < net.num_pos(); ++i) {
    const Signal s = net.po_at(i);
    dst.create_po(map[s.node()] ^ s.complemented(), net.po_name(i));
  }
  Network result = cleanup(dst);
  stats.final_gates = result.num_gates();
  if (stats_out) *stats_out = stats;
  return result;
}

}  // namespace mcs
