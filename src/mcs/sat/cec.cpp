#include "mcs/sat/cec.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <limits>
#include <vector>

#include "mcs/network/network_utils.hpp"
#include "mcs/obs/obs.hpp"
#include "mcs/par/thread_pool.hpp"
#include "mcs/sat/miter.hpp"
#include "mcs/sim/simulator.hpp"
#include "mcs/sweep/sweep.hpp"
#include "mcs/tt/tt6.hpp"

namespace mcs {

namespace {

constexpr std::int64_t kUnlimited = std::numeric_limits<std::int64_t>::max();

/// One step of the proof schedule: a simulation of the miter on every
/// input pattern when that costs at most \p limit gate-words, a SAT solve
/// of the open pairs' miter with \p limit conflicts, or a fraig pass over
/// the miter network with \p limit conflicts per candidate pair.
struct Step {
  enum Kind { kEnumerate, kSolve, kFraig } kind;
  std::int64_t limit;
};

/// Enumeration decides small-input miters outright and spends no
/// conflicts; the first solve decides wide but easy ones; the fraig passes
/// then merge the pairs through internal equivalences, the cheap ones
/// first, and the last solve settles whatever is left.  Measured on the
/// LUT flows' checks (Release, one thread, 4-core x86 VM): with the fraig
/// passes first, sin10's check took 19.7 s instead of 0.3 s; without the
/// 300 and 1000 passes, the 10-bit multiplier's took 45 s instead of 3.8 s.
/// The enumeration caps sit at the crossovers with SAT, on the same VM
/// (enumeration runs at 1.5-3 G gate-words/s).  Every such check with up
/// to 20 inputs costs at most 2^22.6 gate-words (bar16) and enumerates in
/// under 10 ms, where SAT took up to 1.3 s (the 8-bit multiplier).  The
/// 12- and 14-bit adders (2^25.7, 2^29.9) settle in the first solve in a
/// few ms, which enumerating would not beat: hence 2^24 before it.  After
/// it, the 12-bit multiplier (2^29.7) enumerates in 0.3-0.5 s where the
/// rest of the SAT schedule took 10-13 s, and sqrt24 (2^31.1) in 1-1.6 s
/// where SAT ran past 100 s; each 2 more inputs cost 4x, so the 14-bit
/// multiplier (2^34.2) keeps SAT: hence 2^32.
constexpr Step kSchedule[] = {
    {Step::kEnumerate, std::int64_t{1} << 24},
    {Step::kSolve, 2000},
    {Step::kEnumerate, std::int64_t{1} << 32},
    {Step::kFraig, 10},
    {Step::kFraig, 30},
    {Step::kFraig, 100},
    {Step::kFraig, 300},
    {Step::kFraig, 1000},
    {Step::kSolve, kUnlimited}};

/// 64-bit words per row in one enumeration block: each participant
/// simulates its share of the patterns one block at a time.
constexpr std::size_t kBlockWords = 32;

/// Gate-words below which an enumeration participant is not worth a
/// thread.
constexpr std::uint64_t kEnumerateGrain = std::uint64_t{1} << 16;

/// Decides the miter by simulating it on every input pattern: the networks
/// are equivalent iff \p diff, the OR of the open pairs' differences, is 0
/// on all of them.  Input i < 6 of diff's cone varies inside each 64-bit
/// word, input i >= 6 with bit i - 6 of the word index.  Returns kUnknown,
/// without simulating, when that costs more than \p cap gate-words
/// (2^max(0, n - 6) words for the cone's n inputs, times its gates).
CecResult enumerate_patterns(const Network& miter, Signal diff,
                             std::int64_t cap, int num_threads) {
  std::vector<char> seen;
  const std::vector<NodeId> cone =
      collect_cone_nodes(miter, {diff.node()}, false, seen);
  std::vector<NodeId> pis;  // the cone's inputs; input i is pis[i]
  std::vector<NodeId> gates;
  for (const NodeId n : cone) {
    if (miter.is_pi(n)) pis.push_back(n);
    if (miter.is_gate(n)) gates.push_back(n);
  }
  const int word_vars = std::max(0, static_cast<int>(pis.size()) - 6);
  if (word_vars > 32 ||
      (gates.size() << word_vars) > static_cast<std::uint64_t>(cap)) {
    return CecResult::kUnknown;
  }
  obs::Span span("cec:exhaustive");

  // Each node's words live in a row that a later gate reuses once the
  // node's last reader has run, so a participant keeps about the cone's
  // live width in rows, not its size.  Row 0 is the constant's.  An op
  // reads rows through Signals whose node() is a row index.
  struct Op {
    GateType type;
    std::array<Signal, 3> in;
    std::uint32_t out;
  };
  std::vector<std::uint32_t> last_reader(miter.size(), 0);
  for (std::uint32_t g = 0; g < gates.size(); ++g) {
    const Node& nd = miter.node(gates[g]);
    for (int k = 0; k < nd.num_fanins; ++k) {
      last_reader[nd.fanin[k].node()] = g;
    }
  }
  last_reader[diff.node()] = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> row(miter.size(), 0);
  std::vector<std::uint32_t> free_rows;
  std::uint32_t num_rows = 1;
  auto take_row = [&] {
    if (free_rows.empty()) return num_rows++;
    const std::uint32_t r = free_rows.back();
    free_rows.pop_back();
    return r;
  };
  for (const NodeId pi : pis) row[pi] = take_row();
  std::vector<Op> ops;
  ops.reserve(gates.size());
  for (std::uint32_t g = 0; g < gates.size(); ++g) {
    const Node& nd = miter.node(gates[g]);
    Op op{nd.type, {}, take_row()};
    for (int k = 0; k < nd.num_fanins; ++k) {
      const NodeId f = nd.fanin[k].node();
      op.in[k] = Signal(row[f], nd.fanin[k].complemented());
      const bool repeated =
          std::any_of(nd.fanin.begin(), nd.fanin.begin() + k,
                      [&](Signal s) { return s.node() == f; });
      if (f != 0 && last_reader[f] == g && !repeated) {
        free_rows.push_back(row[f]);
      }
    }
    row[gates[g]] = op.out;
    ops.push_back(op);
  }

  // A miter with fewer words than a block simulates some patterns twice.
  constexpr std::size_t block = kBlockWords;
  const std::uint64_t num_blocks =
      std::max<std::uint64_t>(1, (std::uint64_t{1} << word_vars) / block);
  const std::size_t participants = std::clamp<std::uint64_t>(
      (gates.size() << word_vars) / kEnumerateGrain, 1,
      std::min<std::uint64_t>(ThreadPool::resolve_threads(num_threads),
                              num_blocks));
  std::atomic<bool> differs{false};
  ThreadPool::global().submit_bulk(
      participants,
      [&](std::size_t p) {
        std::vector<std::uint64_t> values(num_rows * block, 0);
        auto words = [&](std::uint32_t r) { return values.data() + r * block; };
        const std::uint64_t first = num_blocks * p / participants;
        const std::uint64_t end = num_blocks * (p + 1) / participants;
        std::uint64_t b = first;
        for (; b < end && !differs.load(); ++b) {
          for (std::size_t i = 0; i < pis.size(); ++i) {
            std::uint64_t* w = words(row[pis[i]]);
            for (std::size_t k = 0; k < block; ++k) {
              const std::uint64_t word = b * block + k;
              w[k] = i < 6 ? tt6_var(static_cast<int>(i))
                           : ((word >> (i - 6)) & 1) ? ~0ull : 0ull;
            }
          }
          for (const Op& op : ops) {
            std::array<const std::uint64_t*, 3> in{};
            std::array<std::uint64_t, 3> flip{};
            for (int k = 0; k < 3; ++k) {
              in[k] = words(op.in[k].node());
              flip[k] = op.in[k].complemented() ? ~0ull : 0ull;
            }
            eval_gate_words(op.type, in, flip, words(op.out), 0, block);
          }
          const std::uint64_t* d = words(row[diff.node()]);
          const std::uint64_t flip = diff.complemented() ? ~0ull : 0ull;
          for (std::size_t k = 0; k < block; ++k) {
            if (d[k] ^ flip) differs.store(true);
          }
        }
        obs::counter("sim.gate_words").add((b - first) * block * gates.size());
      },
      participants);
  obs::counter("cec.exhaustive").increment();
  return differs.load() ? CecResult::kNotEquivalent : CecResult::kEquivalent;
}

/// Copies the PO cones of \p src into \p dst over the PIs \p pis and adds
/// the copied POs to \p dst: one walk with one map, in ascending node ids
/// (a topological order).  copy_cone()'s depth-first order made most
/// LUT-flow proofs slower, the 8-bit multiplier's by about 15%.
void copy_pos(const Network& src, Network& dst,
              const std::vector<Signal>& pis) {
  std::vector<NodeId> roots;
  for (std::size_t i = 0; i < src.num_pos(); ++i) {
    roots.push_back(src.po_at(i).node());
  }
  std::vector<Signal> map(src.size());
  map[0] = dst.constant(false);
  for (std::size_t i = 0; i < src.num_pis(); ++i) map[src.pi_at(i)] = pis[i];
  std::vector<char> seen;
  for (const NodeId n : collect_cone_nodes(src, roots, false, seen)) {
    if (!src.is_gate(n)) continue;
    const Node& nd = src.node(n);
    std::array<Signal, 3> in{};
    for (int k = 0; k < nd.num_fanins; ++k) {
      in[k] = map[nd.fanin[k].node()] ^ nd.fanin[k].complemented();
    }
    map[n] = dst.create_gate(nd.type, in);
  }
  for (std::size_t i = 0; i < src.num_pos(); ++i) {
    const Signal s = src.po_at(i);
    dst.create_po(map[s.node()] ^ s.complemented());
  }
}

}  // namespace

CecResult check_equivalence(const Network& a, const Network& b,
                            const CecOptions& opts) {
  assert(a.num_pis() == b.num_pis());
  assert(a.num_pos() == b.num_pos());
  obs::Span cec_span("cec:check");
  obs::counter("cec.checks").increment();

  // Stage 1: random-simulation falsification (level-blocked parallel; PI
  // words are seed-derived per interface index, so both networks see the
  // same vectors and any thread count sees the same values).
  if (sim_falsify(a, b, opts.sim_words, opts.sim_seed, opts.num_threads) >=
      0) {
    obs::counter("cec.sim_refuted").increment();
    return CecResult::kNotEquivalent;
  }

  // Stage 2: one strashed miter network with shared PIs, a's POs then b's;
  // pair i is open while POs i and num_pos + i are different signals.
  const std::size_t num_pos = a.num_pos();
  Network miter;
  miter.reserve(a.size() + b.size());
  std::vector<Signal> pis;
  for (std::size_t i = 0; i < a.num_pis(); ++i) {
    pis.push_back(miter.create_pi());
  }
  copy_pos(a, miter, pis);
  copy_pos(b, miter, pis);

  const std::int64_t budget =
      opts.conflict_limit < 0 ? kUnlimited : opts.conflict_limit;
  std::int64_t spent = 0;
  for (const Step& step : kSchedule) {
    // The OR of the pairs' differences: constant 0 once every pair has
    // merged.  Its gates dangle, so the next fraig pass drops them.
    Signal diff = miter.constant(false);
    for (std::size_t i = 0; i < num_pos; ++i) {
      diff = miter.create_or(
          diff, miter.create_xor(miter.po_at(i), miter.po_at(num_pos + i)));
    }
    if (diff == miter.constant(false)) return CecResult::kEquivalent;

    if (step.kind == Step::kEnumerate) {
      const CecResult r =
          enumerate_patterns(miter, diff, step.limit, opts.num_threads);
      if (r != CecResult::kUnknown) return r;
      continue;
    }
    // A spent budget skips the SAT steps; enumeration still runs.
    const std::int64_t remaining = budget - spent;
    if (remaining <= 0) continue;

    if (step.kind == Step::kSolve) {
      obs::counter("cec.batches").increment();
      sat::IncrementalMiter solver(miter);
      const sat::Result r = solver.prove_equal(
          diff, miter.constant(false), std::min(step.limit, remaining));
      spent += solver.num_conflicts();
      if (r == sat::Result::kUnsat) return CecResult::kEquivalent;
      if (r == sat::Result::kSat) return CecResult::kNotEquivalent;
      continue;
    }
    FraigParams params;
    params.num_threads = opts.num_threads;
    params.conflict_limit = step.limit;
    params.max_pairs = std::min(
        params.max_pairs, static_cast<std::size_t>(remaining / step.limit));
    if (params.max_pairs == 0) continue;
    FraigStats stats;
    miter = fraig(miter, params, &stats);
    spent += stats.num_conflicts;
  }
  return CecResult::kUnknown;
}

}  // namespace mcs
