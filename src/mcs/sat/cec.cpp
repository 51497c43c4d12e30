#include "mcs/sat/cec.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <vector>

#include "mcs/network/network_utils.hpp"
#include "mcs/obs/obs.hpp"
#include "mcs/sat/miter.hpp"
#include "mcs/sim/simulator.hpp"
#include "mcs/sweep/sweep.hpp"

namespace mcs {

namespace {

constexpr std::int64_t kUnlimited = std::numeric_limits<std::int64_t>::max();

/// One step of the proof schedule: a SAT solve of the open pairs' miter
/// with \p limit conflicts, or a fraig pass over the miter network with
/// \p limit conflicts per candidate pair.
struct Step {
  enum Kind { kSolve, kFraig } kind;
  std::int64_t limit;
};

/// The first solve decides easy miters outright; the fraig passes then
/// merge the pairs through internal equivalences, the cheap ones first, and
/// the last solve settles whatever is left.  Measured on the LUT flows'
/// checks (Release, one thread, 4-core x86 VM): with the fraig passes
/// first, sin10's check took 19.7 s instead of 0.3 s; without the 300 and
/// 1000 passes, the 10-bit multiplier's took 45 s instead of 3.8 s.
constexpr Step kSchedule[] = {
    {Step::kSolve, 2000}, {Step::kFraig, 10},   {Step::kFraig, 30},
    {Step::kFraig, 100},  {Step::kFraig, 300},  {Step::kFraig, 1000},
    {Step::kSolve, kUnlimited}};

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
    const std::int64_t remaining = budget - spent;
    if (remaining <= 0) return CecResult::kUnknown;

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
