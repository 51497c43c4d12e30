/// \file thread_pool.hpp
/// \brief A persistent worker pool that runs indexed batches.
///
/// This is the execution substrate of the `mcs::par` subsystem and of every
/// other parallel phase in the library (partitioning, reassembly, sweeping,
/// CEC's enumeration, LUT mapping's flow passes).  submit_bulk() is its one
/// entry point: one batch object, on the caller's stack, fans N indexed
/// calls out to the workers *and the calling thread*; indices are claimed
/// through an atomic cursor, optionally through a caller-given claim order
/// (the shard driver passes largest-shard-first).  No per-call
/// std::function allocation happens.
///
/// Determinism contract: scheduling never influences *what* is computed --
/// only wall-clock time.  submit_bulk() writes results wherever fn(i) writes
/// them (indexed slots), and when calls throw, the exception of the smallest
/// failing index is rethrown, regardless of completion order or thread
/// count.
///
/// ThreadPool::global() is the process-wide persistent pool: constructed on
/// first use, sized by resolve_threads(0), grown on demand when a batch asks
/// for more parallelism than the hardware default -- spawning a worker costs
/// ~50us once, versus a pool construction per par_run call in the old
/// design.  resolve_threads() honors the MCS_THREADS environment variable,
/// so benches, tests and the shell pick up a thread count without
/// per-command flags.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mcs {

namespace obs {
class Domain;  // metric-attribution domain (see mcs/obs/obs.hpp)
}

class ThreadPool {
 public:
  /// Spawns \p num_threads workers; 0 means resolve_threads(0) workers.
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide persistent pool (constructed on first use).
  static ThreadPool& global();

  /// Runs fn(i) for every i in [0, n), on up to \p max_workers participants
  /// *including the calling thread*, growing the pool (up to kMaxWorkers)
  /// when it has fewer workers than the batch can use.
  ///
  /// Returns only after every call has finished *and* every worker that
  /// joined the batch has left it, so nothing the batch touched -- fn, the
  /// order array, the caller's obs::Domain, which each worker's metric scope
  /// flushes into on the way out -- is used after the return.
  ///
  /// \p order, when non-null, is a permutation of [0, n): indices are
  /// *claimed* in that order (the shard driver passes largest-first so a
  /// big shard never starts last), which affects scheduling only -- results are
  /// bit-identical for any order and any thread count.
  ///
  /// With max_workers <= 1, n <= 1, or when called from inside a pool
  /// worker or while another batch is active, every call runs inline on the
  /// calling thread (deadlock-free nesting).  If calls throw, every index
  /// still runs and the exception of the smallest failing index is
  /// rethrown.
  void submit_bulk(std::size_t n, const std::function<void(std::size_t)>& fn,
                   std::size_t max_workers,
                   const std::uint32_t* order = nullptr);

  /// Resolves a user-facing thread-count request: values >= 1 are taken
  /// verbatim; values < 1 mean "use the process default" -- the MCS_THREADS
  /// environment variable, or, when unset/invalid, the hardware concurrency
  /// (at least 1).  The default is computed *once*, on the first defaulted
  /// resolution, and cached: later changes to the environment are invisible
  /// (multi-job safety -- a job server mutating its environment cannot
  /// retroactively change the pool geometry of in-flight work).  The cached
  /// value is surfaced as the `config.threads_default` gauge.
  static std::size_t resolve_threads(int requested) noexcept;

  /// Drops the cached resolve_threads default so the next defaulted call
  /// re-reads MCS_THREADS.  A test hook; production code never needs it.
  static void refresh_thread_default() noexcept;

  /// Upper bound on workers of one pool (explicit oversubscription requests
  /// beyond this are clamped; a backstop, not a tuning knob).
  static constexpr std::size_t kMaxWorkers = 64;

 private:
  /// One submit_bulk() fan-out.  Lives on the submitter's stack: the
  /// submitter waits for every joined worker to leave before returning.
  struct Batch {
    const std::function<void(std::size_t)>* fn = nullptr;
    const std::uint32_t* order = nullptr;  ///< nullptr = identity
    /// The submitter's metric domain, captured at submit time; every
    /// participant installs it around its claim loop so batch work is
    /// attributed to the submitting job (null = detached).
    obs::Domain* domain = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};  ///< claim cursor into [0, n)
    int slots = 0;   ///< workers still allowed to join (guarded by mutex_)
    int joined = 0;  ///< workers inside participate() (guarded by mutex_)
    std::size_t err_index = ~std::size_t{0};  ///< guarded by mutex_
    std::exception_ptr err;                   ///< guarded by mutex_
  };

  void participate(Batch& batch);
  void worker_loop(std::size_t index);
  void spawn_workers_locked(std::size_t target);

  std::mutex mutex_;  ///< guards batch_, stop_, workers_ and Batch fields
  std::condition_variable wake_;  ///< workers wait for a batch or stop_
  std::condition_variable left_;  ///< submitter waits for joined == 0
  Batch* batch_ = nullptr;  ///< active submit_bulk open to joiners, if any
  bool stop_ = false;
  std::vector<std::thread> workers_;  ///< last: the threads use the above
};

}  // namespace mcs
