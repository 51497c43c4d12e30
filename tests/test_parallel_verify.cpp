/// Unit tests for the end-to-end parallel scaling work: the thread pool
/// (batched fan-out, claim orders, exception determinism, nested batches,
/// growth, MCS_THREADS), level-blocked parallel random simulation and
/// CEC with its parallel fraig passes -- each with the 1-vs-N bit-identity
/// contract -- plus cost-ordered shard scheduling determinism on shards of
/// shuffled sizes.

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
#include <vector>

#include "mcs/circuits/circuits.hpp"
#include "mcs/network/convert.hpp"
#include "mcs/network/network_utils.hpp"
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

// --- parallel random simulation ---------------------------------------------

TEST(ParallelSim, BitIdenticalForAnyThreadCount) {
  // Wide enough that several levels exceed the parallel grain.
  const Network net = expand_to_aig(circuits::multiplier(16));
  const RandomSimulation ref(net, 16, 0x5eed, /*num_threads=*/1);
  for (const int threads : {2, 4}) {
    const RandomSimulation par(net, 16, 0x5eed, threads);
    for (NodeId n = 0; n < net.size(); ++n) {
      ASSERT_EQ(0, std::memcmp(ref.node_values(n), par.node_values(n),
                               16 * sizeof(std::uint64_t)))
          << "node " << n << " diverged at " << threads << " threads";
    }
    for (const Signal po : net.pos()) {
      EXPECT_EQ(ref.signature(po), par.signature(po));
    }
  }
}

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
  RandomSimulation sim(net, 8, 0xbeef, /*num_threads=*/1,
                       /*reserve_extra_words=*/4);
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

TEST(ParallelCec, SatStageFindsDeepDisagreement) {
  // A mismatch random simulation is unlikely to hit: two networks that
  // agree except when all inputs are 1 (AND chain vs constant 0).  The
  // SAT stage must find it for any thread count.
  constexpr int kBits = 24;
  Network a;
  {
    Signal acc = a.constant(true);
    for (int i = 0; i < kBits; ++i) acc = a.create_and(acc, a.create_pi());
    for (int i = 0; i < 9; ++i) a.create_po(acc);
  }
  Network b;
  {
    for (int i = 0; i < kBits; ++i) b.create_pi();
    for (int i = 0; i < 9; ++i) b.create_po(b.constant(false));
  }
  for (const int threads : {1, 4}) {
    CecOptions opts;
    opts.num_threads = threads;
    opts.sim_words = 4;  // 256 random vectors: won't hit the all-ones case
    EXPECT_EQ(check_equivalence(a, b, opts), CecResult::kNotEquivalent)
        << threads << " threads";
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

}  // namespace
}  // namespace mcs
