/// Unit tests for the end-to-end parallel scaling work: the thread pool
/// (batched fan-out, claim orders, exception determinism, nested batches,
/// growth, MCS_THREADS), random simulation's seed-derived inputs and lazy
/// re-stride, CEC with its parallel fraig passes and the LUT mapper's
/// parallel passes -- each with the 1-vs-N bit-identity contract -- plus
/// cost-ordered shard scheduling determinism on shards of shuffled sizes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mcs/circuits/circuits.hpp"
#include "mcs/common/rng.hpp"
#include "mcs/fail/fail.hpp"
#include "mcs/flow/flow.hpp"
#include "mcs/map/lut_mapper.hpp"
#include "mcs/network/convert.hpp"
#include "mcs/network/network_utils.hpp"
#include "mcs/obs/obs.hpp"
#include "mcs/opt/optimize.hpp"
#include "mcs/par/par_engine.hpp"
#include "mcs/par/thread_pool.hpp"
#include "mcs/sat/cec.hpp"
#include "mcs/sim/simulator.hpp"
#include "test_util.hpp"

namespace mcs {
namespace {

// --- thread pool ------------------------------------------------------------

TEST(ThreadPoolBulk, RunsEveryIndexOnceForAnyOrderAndWorkerCount) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 731;
  std::vector<std::uint32_t> order(kN);
  std::iota(order.begin(), order.end(), 0u);
  // A deterministic shuffle (reverse + swap pairs) -- claim order must not
  // change what runs.
  std::reverse(order.begin(), order.end());
  for (std::size_t i = 0; i + 1 < kN; i += 2) std::swap(order[i], order[i + 1]);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    std::vector<int> hits(kN, 0);
    pool.submit_bulk(
        kN, [&](std::size_t i) { ++hits[i]; }, workers, order.data());
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i], 1) << "index " << i << " at " << workers
                            << " workers";
    }
  }
}

TEST(ThreadPoolBulk, RethrowsSmallestFailingIndex) {
  struct IndexedError : std::runtime_error {
    explicit IndexedError(std::size_t i)
        : std::runtime_error("task failed"), index(i) {}
    std::size_t index;
  };
  ThreadPool pool(4);
  // Claim order is descending, so the *largest* failing index fails first
  // in time; the smallest one must surface regardless.
  std::vector<std::uint32_t> order(64);
  std::iota(order.begin(), order.end(), 0u);
  std::reverse(order.begin(), order.end());
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    std::atomic<int> ran{0};
    try {
      pool.submit_bulk(
          64,
          [&](std::size_t i) {
            ran.fetch_add(1);
            if (i == 13 || i == 57) throw IndexedError(i);
          },
          workers, order.data());
      FAIL() << "expected an exception";
    } catch (const IndexedError& e) {
      EXPECT_EQ(e.index, 13u) << workers << " workers";
    }
    EXPECT_EQ(ran.load(), 64) << "every index still runs";
  }
}

TEST(ThreadPoolBulk, NestedBulkRunsInline) {
  // submit_bulk from inside a pool worker must not deadlock: it degrades
  // to the inline path.
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  pool.submit_bulk(
      4,
      [&](std::size_t) {
        pool.submit_bulk(
            8, [&](std::size_t) { sum.fetch_add(1); }, 4);
      },
      4);
  EXPECT_EQ(sum.load(), 32);
}

TEST(ThreadPool, SubmitBulkGrowsThePool) {
  // A 1-worker pool asked for 3 participants spawns a second worker.  Each
  // thread's first item waits (bounded) until three distinct threads are
  // inside the batch, which only a grown pool can reach.
  ThreadPool pool(1);
  constexpr std::size_t kN = 100;
  std::vector<int> hits(kN, 0);
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> seen;
  pool.submit_bulk(
      kN,
      [&](std::size_t i) {
        ++hits[i];
        std::unique_lock<std::mutex> lock(mu);
        if (!seen.insert(std::this_thread::get_id()).second) return;
        cv.notify_all();
        cv.wait_for(lock, std::chrono::seconds(10),
                    [&]() { return seen.size() >= 3; });
      },
      3);
  EXPECT_EQ(seen.size(), 3u);
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, McsThreadsEnvironmentVariable) {
  // Restore any ambient MCS_THREADS afterwards: the CI matrix runs this
  // whole binary under MCS_THREADS=1/4 and the later tests must see it.
  // resolve_threads reads the environment ONCE and caches the default, so
  // each setenv below is followed by refresh_thread_default() -- the test
  // hook that drops the cache (production code never calls it).
  const char* ambient = std::getenv("MCS_THREADS");
  const std::string saved = ambient != nullptr ? ambient : "";

  ASSERT_EQ(::setenv("MCS_THREADS", "3", 1), 0);
  ThreadPool::refresh_thread_default();
  EXPECT_EQ(ThreadPool::resolve_threads(0), 3u);
  EXPECT_EQ(ThreadPool::resolve_threads(-1), 3u);
  EXPECT_EQ(ThreadPool::resolve_threads(2), 2u) << "explicit request wins";

  // Without a refresh the first resolution stays authoritative: later env
  // changes must NOT leak into resolve_threads (read-once contract).
  ASSERT_EQ(::setenv("MCS_THREADS", "7", 1), 0);
  EXPECT_EQ(ThreadPool::resolve_threads(0), 3u)
      << "cached default must ignore env changes after first resolution";

  // Anything but a whole number falls back to the hardware default.  The
  // last token differs from that default in its leading digits, so a
  // prefix parse cannot pass for the fallback.
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (const std::string& junk :
       {std::string("junk"), std::string("4junk"),
        std::to_string(hw + 1) + "junk"}) {
    ASSERT_EQ(::setenv("MCS_THREADS", junk.c_str(), 1), 0);
    ThreadPool::refresh_thread_default();
    EXPECT_EQ(ThreadPool::resolve_threads(0), hw) << junk;
  }
  ASSERT_EQ(::unsetenv("MCS_THREADS"), 0);
  ThreadPool::refresh_thread_default();
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);

  if (ambient != nullptr) {
    ASSERT_EQ(::setenv("MCS_THREADS", saved.c_str(), 1), 0);
  }
  ThreadPool::refresh_thread_default();
}

// --- random simulation ------------------------------------------------------

TEST(ParallelSim, PiWordsAreSeedDerivedPerInterfaceIndex) {
  // Two structurally different networks with the same PI count must see
  // identical input vectors -- the property the CEC falsification stage
  // (and every cross-network sim check) relies on.
  const Network a = circuits::adder(16);
  Network b;
  std::vector<Signal> pis;
  for (std::size_t i = 0; i < a.num_pis(); ++i) pis.push_back(b.create_pi());
  b.create_po(b.create_and(pis.front(), pis.back()));
  ASSERT_EQ(a.num_pis(), b.num_pis());

  const RandomSimulation sa(a, 8, 0xfeed);
  const RandomSimulation sb(b, 8, 0xfeed);
  for (std::size_t i = 0; i < a.num_pis(); ++i) {
    EXPECT_EQ(0, std::memcmp(sa.node_values(a.pi_at(i)),
                             sb.node_values(b.pi_at(i)),
                             8 * sizeof(std::uint64_t)))
        << "PI " << i;
  }
}

TEST(ParallelSim, LazyRestridePreservesExistingWords) {
  // The reserve_extra_words budget materializes lazily: the table keeps the
  // tight num_words stride until the first add_pattern_words() call, and
  // the one-shot re-stride must carry every existing value over untouched.
  const Network net = expand_to_aig(circuits::adder(16));
  RandomSimulation sim(net, 8, 0xbeef, /*reserve_extra_words=*/4);
  EXPECT_EQ(sim.spare_words(), 4);

  // Before any add, the reservation is invisible: values bit-match an
  // unreserved simulation of the same seed.
  const RandomSimulation tight(net, 8, 0xbeef);
  for (NodeId n = 0; n < net.size(); ++n) {
    ASSERT_EQ(0, std::memcmp(sim.node_values(n), tight.node_values(n),
                             8 * sizeof(std::uint64_t)))
        << "node " << n;
  }

  std::vector<std::uint64_t> before(net.size() * 8);
  for (NodeId n = 0; n < net.size(); ++n) {
    std::copy(sim.node_values(n), sim.node_values(n) + 8,
              before.begin() + static_cast<std::size_t>(n) * 8);
  }

  // First add triggers the re-stride.
  std::vector<std::uint64_t> pattern(net.num_pis(), 0x0123456789abcdefull);
  sim.add_pattern_words(pattern, 1);
  EXPECT_EQ(sim.num_words(), 9);
  EXPECT_EQ(sim.spare_words(), 3);
  for (NodeId n = 0; n < net.size(); ++n) {
    ASSERT_EQ(0, std::memcmp(sim.node_values(n),
                             before.data() + static_cast<std::size_t>(n) * 8,
                             8 * sizeof(std::uint64_t)))
        << "re-stride corrupted the existing words of node " << n;
  }

  // Later adds append within the (now materialized) budget; overrunning it
  // still fails loudly instead of spilling into the next node's row.
  const std::vector<std::uint64_t> pattern3(net.num_pis() * 3,
                                            0x0123456789abcdefull);
  sim.add_pattern_words(pattern3, 3);
  EXPECT_EQ(sim.spare_words(), 0);
  EXPECT_THROW(sim.add_pattern_words(pattern, 1), std::length_error);
}

// --- parallel CEC -----------------------------------------------------------

TEST(ParallelCec, VerdictMatchesSerialOnEquivalentPair) {
  // Optimized vs original is the realistic "structurally different but
  // equivalent" shape.  Under every conflict budget the verdict is one
  // function of the networks, whatever the thread count.
  const Network net = expand_to_aig(circuits::adder(32));
  const Network opt = compress2rs_like(net, GateBasis::xmg(), 1);
  ASSERT_FALSE(structurally_identical(net, opt));
  for (const std::int64_t budget : {0, 100, 1000, -1}) {
    CecResult serial = CecResult::kNotEquivalent;
    for (const int threads : {1, 2, 4}) {
      CecOptions opts;
      opts.num_threads = threads;
      opts.conflict_limit = budget;
      const CecResult r = check_equivalence(net, opt, opts);
      if (threads == 1) serial = r;
      EXPECT_EQ(r, serial) << threads << " threads, budget " << budget;
      EXPECT_NE(r, CecResult::kNotEquivalent) << "budget " << budget;
    }
    if (budget < 0) {
      EXPECT_EQ(serial, CecResult::kEquivalent);
    }
  }
}

TEST(ParallelCec, VerdictMatchesSerialOnBrokenPair) {
  const Network net = circuits::adder(24);
  // Rebuild with one PO's function subtly wrong (swap AND for OR at the
  // top of the last PO) by complementing that PO.
  Network broken = net;
  {
    // Same interface, last PO complemented: sim falsifies instantly.
    Network fresh;
    std::vector<Signal> pis;
    for (std::size_t i = 0; i < net.num_pis(); ++i) {
      pis.push_back(fresh.create_pi(net.pi_name(i)));
    }
    std::vector<Signal> pi_map = pis;
    for (std::size_t i = 0; i < net.num_pos(); ++i) {
      Signal s = copy_cone(net, fresh, net.po_at(i), pi_map);
      if (i + 1 == net.num_pos()) s = !s;
      fresh.create_po(s, net.po_name(i));
    }
    broken = fresh;
  }
  for (const int threads : {1, 2, 4}) {
    CecOptions opts;
    opts.num_threads = threads;
    EXPECT_EQ(check_equivalence(net, broken, opts),
              CecResult::kNotEquivalent)
        << threads << " threads";
  }
}

/// An AND of \p bits fresh inputs on nine POs, against constant 0 on the
/// same interface: the two differ only on the all-ones pattern, which
/// 256 random vectors are unlikely to hit.
std::pair<Network, Network> and_chain_vs_zero(int bits) {
  Network a;
  Signal acc = a.constant(true);
  for (int i = 0; i < bits; ++i) acc = a.create_and(acc, a.create_pi());
  for (int i = 0; i < 9; ++i) a.create_po(acc);
  Network b;
  for (int i = 0; i < bits; ++i) b.create_pi();
  for (int i = 0; i < 9; ++i) b.create_po(b.constant(false));
  return {std::move(a), std::move(b)};
}

/// Deltas of the CEC and sweep counters across one check.
struct CecCounters {
  std::uint64_t solves = obs::counter("cec.batches").value();
  std::uint64_t enumerated = obs::counter("cec.exhaustive").value();
  std::uint64_t sat_calls = obs::counter("sweep.sat_calls").value();

  std::uint64_t solves_since() const {
    return obs::counter("cec.batches").value() - solves;
  }
  std::uint64_t enumerated_since() const {
    return obs::counter("cec.exhaustive").value() - enumerated;
  }
  std::uint64_t sat_calls_since() const {
    return obs::counter("sweep.sat_calls").value() - sat_calls;
  }
};

TEST(ParallelCec, SatStageFindsDeepDisagreement) {
  // 40 inputs are too many to enumerate, so the SAT stage must find the
  // one disagreeing pattern, for any thread count.
  const auto [a, b] = and_chain_vs_zero(40);
  for (const int threads : {1, 4}) {
    CecOptions opts;
    opts.num_threads = threads;
    opts.sim_words = 4;
    const CecCounters before;
    EXPECT_EQ(check_equivalence(a, b, opts), CecResult::kNotEquivalent)
        << threads << " threads";
#ifndef MCS_OBS_DISABLE
    EXPECT_EQ(before.enumerated_since(), 0u);
    EXPECT_EQ(before.solves_since(), 1u);
#endif
  }
}

TEST(ParallelCec, EnumerationFindsDeepDisagreement) {
  // At 24 inputs the miter costs 2^18 words times a few dozen gates, so
  // enumeration finds the all-ones pattern before any solve.
  const auto [a, b] = and_chain_vs_zero(24);
  for (const int threads : {1, 2, 4}) {
    CecOptions opts;
    opts.num_threads = threads;
    opts.sim_words = 4;
    const CecCounters before;
    EXPECT_EQ(check_equivalence(a, b, opts), CecResult::kNotEquivalent)
        << threads << " threads";
#ifndef MCS_OBS_DISABLE
    EXPECT_EQ(before.enumerated_since(), 1u);
    EXPECT_EQ(before.solves_since(), 0u);
#endif
  }
}

/// \p net with PO \p po complemented on the one input pattern
/// \p minterm (bit i is PI i).
Network flip_minterm(const Network& net, std::size_t po,
                     std::uint64_t minterm) {
  Network out;
  std::vector<Signal> pis;
  Signal hit = out.constant(true);
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    pis.push_back(out.create_pi());
    hit = out.create_and(hit, pis.back() ^ !((minterm >> i) & 1));
  }
  for (std::size_t i = 0; i < net.num_pos(); ++i) {
    const Signal s = copy_cone(net, out, net.po_at(i), pis);
    out.create_po(i == po ? out.create_xor(s, hit) : s);
  }
  return out;
}

TEST(ParallelCec, EnumerationAgreesWithTruthTables) {
  // Seeded random pairs on 2-18 inputs: a random network against another
  // one, against its AIG expansion, and against either with one PO
  // flipped on one pattern.  Past ~10 inputs random simulation mostly
  // misses that pattern, so enumeration decides; the verdict must match
  // the truth tables at every thread count.
  int differing = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    testing::RandomNetworkSpec spec;
    spec.num_pis = 2 + static_cast<int>(seed % 17);
    spec.num_gates = 30 + static_cast<int>(seed % 5) * 10;
    spec.num_pos = 3;
    spec.seed = seed;
    const Network a = testing::random_network(spec);
    const Network aig = expand_to_aig(a);
    spec.seed += 1000;
    Rng rng(seed);
    const std::uint64_t minterm = rng.next() & ((1ull << spec.num_pis) - 1);
    const std::vector<Network> others = {
        testing::random_network(spec), aig, flip_minterm(a, seed % 3, minterm),
        flip_minterm(aig, (seed + 1) % 3, minterm)};
    const std::vector<TruthTable> want = simulate_pos(a);
    for (const Network& b : others) {
      const bool equal = simulate_pos(b) == want;
      differing += !equal;
      for (const int threads : {1, 2, 4}) {
        CecOptions opts;
        opts.num_threads = threads;
        EXPECT_EQ(check_equivalence(a, b, opts),
                  equal ? CecResult::kEquivalent : CecResult::kNotEquivalent)
            << "seed " << seed << ", " << threads << " threads";
      }
    }
  }
  EXPECT_GE(differing, 48);
}

TEST(ParallelCec, EnumerationRefutesObservableLutBitFlips) {
  // Single-bit flips of the LUT functions of multiplier 8's mapping, with
  // random simulation off so that enumeration decides each one.  A flip
  // changes the function iff some input pattern shows the flipped minterm
  // at the LUT's inputs while toggling its output reaches a PO; 1,147 of
  // the mapping's 3,972 flips do not.  Every 32nd LUT keeps the test
  // fast.
  const Network net = circuits::multiplier(8);
  const LutNetwork luts = lut_map(net);
  int refuted = 0;
  for (std::size_t i = 0; i < luts.luts.size(); i += 32) {
    const LutNetwork::Lut& lut = luts.luts[i];
    // Truth tables of the POs, then of the LUT's inputs, with the LUT as
    // mapped and with its output complemented.
    LutNetwork probe = luts;
    for (const std::int32_t r : lut.inputs) {
      probe.po_refs.push_back(r);
      probe.po_compl.push_back(false);
    }
    const std::vector<TruthTable> base =
        simulate_pos(lut_network_to_network(probe));
    probe.luts[i].function = ~lut.function;
    const std::vector<TruthTable> toggled =
        simulate_pos(lut_network_to_network(probe));
    TruthTable reaches(static_cast<int>(net.num_pis()));
    for (std::size_t po = 0; po < net.num_pos(); ++po) {
      reaches = reaches | (base[po] ^ toggled[po]);
    }
    for (std::size_t bit = 0; bit < (std::size_t{1} << lut.inputs.size());
         ++bit) {
      TruthTable shows = reaches;
      for (std::size_t k = 0; k < lut.inputs.size(); ++k) {
        const TruthTable& in = base[net.num_pos() + k];
        shows = shows & ((bit >> k) & 1 ? in : ~in);
      }
      LutNetwork flipped = luts;
      flipped.luts[i].function ^= 1ull << bit;
      CecOptions opts;
      opts.sim_words = 0;
      opts.num_threads = 1 + static_cast<int>(bit % 4);
      const CecResult r =
          check_equivalence(net, lut_network_to_network(flipped), opts);
      EXPECT_EQ(r, shows.is_const0() ? CecResult::kEquivalent
                                     : CecResult::kNotEquivalent)
          << "LUT " << i << ", bit " << bit;
      refuted += r == CecResult::kNotEquivalent;
    }
  }
  EXPECT_GT(refuted, 0);
}

TEST(ParallelCec, EnumeratedCheckMakesNoSatCall) {
  const Network net = circuits::multiplier(8);
  const Network mapped = lut_network_to_network(lut_map(net));
  for (const int threads : {1, 4}) {
    CecOptions opts;
    opts.num_threads = threads;
    const CecCounters before;
    EXPECT_EQ(check_equivalence(net, mapped, opts), CecResult::kEquivalent);
#ifndef MCS_OBS_DISABLE
    EXPECT_EQ(before.enumerated_since(), 1u);
    EXPECT_EQ(before.solves_since(), 0u);
    EXPECT_EQ(before.sat_calls_since(), 0u);
#endif
  }
}

TEST(ParallelCec, ZeroConflictBudgetStillDecidesSmallMiters) {
  const Network a = expand_to_aig(circuits::multiplier(6));
  const Network b = compress2rs_like(a, GateBasis::xmg(), 1);
  const Network broken = flip_minterm(b, 7, 0xabc);
  for (const int threads : {1, 2, 4}) {
    CecOptions opts;
    opts.num_threads = threads;
    opts.conflict_limit = 0;
    EXPECT_EQ(check_equivalence(a, b, opts), CecResult::kEquivalent);
    opts.sim_words = 0;
    EXPECT_EQ(check_equivalence(a, broken, opts), CecResult::kNotEquivalent);
  }
}

TEST(ParallelCec, MiterJustOverTheSmallCapTakesTheFirstSolve) {
  // An AND chain against an AND tree over the same n inputs: the miter
  // has about 2n gates and 2^(n-6) words.  At 24 inputs that is ~2^23.6
  // gate-words, under the first enumeration step's 2^24 cap; at 25 it is
  // ~2^24.6, so the opening solve decides it.
  for (const int bits : {24, 25}) {
    Network chain;
    Network tree;
    std::vector<Signal> leaves;
    Signal acc = chain.constant(true);
    for (int i = 0; i < bits; ++i) {
      acc = chain.create_and(acc, chain.create_pi());
      leaves.push_back(tree.create_pi());
    }
    chain.create_po(acc);
    while (leaves.size() > 1) {
      std::vector<Signal> next;
      for (std::size_t i = 0; i + 1 < leaves.size(); i += 2) {
        next.push_back(tree.create_and(leaves[i], leaves[i + 1]));
      }
      if (leaves.size() % 2) next.push_back(leaves.back());
      leaves = std::move(next);
    }
    tree.create_po(leaves[0]);
    const CecCounters before;
    EXPECT_EQ(check_equivalence(chain, tree), CecResult::kEquivalent);
#ifndef MCS_OBS_DISABLE
    EXPECT_EQ(before.enumerated_since(), bits == 24 ? 1u : 0u) << bits;
    EXPECT_EQ(before.solves_since(), bits == 24 ? 0u : 1u) << bits;
#endif
  }
}

// --- cost-ordered shard scheduling ------------------------------------------

TEST(CostOrderedScheduling, DeterministicOnShuffledShardSizes) {
  // A multiplier sliced into many level windows of very different sizes
  // (bands of the array vary widely in gate count): the largest-first claim
  // order exercises out-of-submission-order completion, and the result must
  // still be bit-identical to 1 thread.
  const Network net = expand_to_aig(circuits::multiplier(8));
  ParParams one;
  one.num_threads = 1;
  one.partition.max_gates = 100;
  ParStats stats;
  const Network r1 = par_run(
      net,
      [](const Network& shard) {
        return compress2rs_like(shard, GateBasis::xmg(), 1);
      },
      one, &stats);
  EXPECT_GT(stats.num_partitions, 3u) << "want shards of mixed sizes";
  for (const int threads : {2, 4, 8}) {
    ParParams many = one;
    many.num_threads = threads;
    const Network rn = par_run(
        net,
        [](const Network& shard) {
          return compress2rs_like(shard, GateBasis::xmg(), 1);
        },
        many);
    EXPECT_TRUE(structurally_identical(r1, rn))
        << "par_run diverged at " << threads << " threads";
  }
  EXPECT_EQ(check_equivalence(net, r1), CecResult::kEquivalent);
}

// --- parallel LUT mapping ----------------------------------------------------

/// Runs \p prefix once, then `map_lut:<args>` on copies of its context at
/// 1, 2, 3, 4 and 8 threads: every mapping must equal the 1-thread one.
void expect_map_lut_thread_independent(const std::string& prefix,
                                       const std::string& args) {
  flow::FlowContext base;
  const flow::FlowReport made = flow::run_flow(prefix, base);
  ASSERT_TRUE(made.ok) << made.error;
  LutNetwork reference;
  for (const int threads : {1, 2, 3, 4, 8}) {
    flow::FlowContext ctx = base;
    const flow::FlowReport report = flow::run_flow(
        "threads:n=" + std::to_string(threads) + "; map_lut:" + args, ctx);
    ASSERT_TRUE(report.ok) << report.error;
    ASSERT_TRUE(ctx.luts.has_value());
    if (threads == 1) {
      reference = *ctx.luts;
      EXPECT_GT(reference.size(), 0u);
    } else {
      EXPECT_EQ(*ctx.luts, reference)
          << prefix << "; map_lut:" << args << " diverged at " << threads
          << " threads";
    }
  }
}

TEST(ParallelLutMap, MchNetworkMapsEquallyAtAnyThreadCount) {
  const std::string mch =
      "gen:multiplier,bits=16; compress2rs:rounds=1; mch:basis=xmg,ratio=0.9";
  expect_map_lut_thread_independent(mch, "k=6");
  expect_map_lut_thread_independent(mch, "k=6,obj=delay");
  expect_map_lut_thread_independent(mch, "k=6,choices=false");
}

TEST(ParallelLutMap, DchNetworkMapsEquallyAtAnyThreadCount) {
  expect_map_lut_thread_independent(
      "gen:sin,bits=8; to:basis=aig; compress2rs:rounds=1,basis=aig; dch",
      "k=6");
}

class ParallelLutMapFaults : public ::testing::Test {
 protected:
  void TearDown() override { fail::disable(); }
};

TEST_F(ParallelLutMapFaults, PoolFaultFailsTheStageAndRetryRecovers) {
  flow::FlowContext base;
  ASSERT_TRUE(flow::run_flow("gen:multiplier,bits=10; compress2rs:rounds=1; "
                             "mch:basis=xmg,ratio=0.9",
                             base)
                  .ok);
  flow::FlowContext clean = base;
  ASSERT_TRUE(flow::run_flow("threads:n=4; map_lut", clean).ok);

  // A participant of the first parallel pass throws before it starts: the
  // others finish the pass, and the stage fails with the fault.
  flow::FlowContext failing = base;
  const flow::FlowReport failed = flow::run_flow(
      "threads:n=4; faults:spec=pool.task=throw|count=1; map_lut", failing);
  fail::disable();
  EXPECT_FALSE(failed.ok);
  EXPECT_FALSE(failing.luts.has_value());

  // Every participant throws: no node is mapped, and the stage still ends.
  const flow::FlowReport all_failed = flow::run_flow(
      "threads:n=4; faults:spec=pool.task=throw; map_lut", failing);
  fail::disable();
  EXPECT_FALSE(all_failed.ok);

  // Rolled back and retried, the stage returns the uninjected mapping.
  flow::FlowContext retried = base;
  const flow::FlowReport report = flow::run_flow(
      "ckpt:mode=retry; threads:n=4; faults:spec=pool.task=throw|count=1; "
      "map_lut",
      retried);
  fail::disable();
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_TRUE(retried.luts.has_value());
  EXPECT_EQ(*retried.luts, *clean.luts);
}

}  // namespace
}  // namespace mcs
