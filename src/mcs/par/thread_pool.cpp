#include "mcs/par/thread_pool.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>

#include "mcs/fail/fail.hpp"
#include "mcs/obs/obs.hpp"

namespace mcs {

namespace {

/// Cached resolve_threads(<1) default; -1 = not yet computed.  Read once
/// and kept for the process lifetime (see resolve_threads docs).
std::atomic<long> g_default_threads{-1};

/// Pool owning the current thread, when it is a worker thread.  Used to run
/// nested submit_bulk() calls inline (deadlock-free nesting).
thread_local ThreadPool* tl_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = resolve_threads(0);
  std::lock_guard<std::mutex> lock(mutex_);
  spawn_workers_locked(num_threads);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(resolve_threads(0));
  return pool;
}

void ThreadPool::spawn_workers_locked(std::size_t target) {
  target = std::min(target, kMaxWorkers);
  while (workers_.size() < target && !stop_) {
    const std::size_t index = workers_.size();
    workers_.emplace_back([this, index]() { worker_loop(index); });
  }
  // High-water worker count across every pool in the process (checking for
  // the global pool here would recurse into global()'s construction).
  obs::gauge("pool.workers").set_max(
      static_cast<std::int64_t>(workers_.size()));
}

std::size_t ThreadPool::resolve_threads(int requested) noexcept {
  if (requested >= 1) return static_cast<std::size_t>(requested);
  long cached = g_default_threads.load(std::memory_order_acquire);
  if (cached < 0) {
    long resolved = 0;
    if (const char* env = std::getenv("MCS_THREADS")) {
      // The whole value must be a number: "4junk" falls back like "junk".
      const char* end = env + std::strlen(env);
      long v = 0;
      const auto [p, ec] = std::from_chars(env, end, v);
      if (ec == std::errc() && p == end && v >= 1 && v <= 1024) resolved = v;
    }
    if (resolved == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      resolved = static_cast<long>(std::max(1u, hw));
    }
    // First resolution wins when two threads race here; both then agree.
    long expected = -1;
    if (g_default_threads.compare_exchange_strong(expected, resolved,
                                                  std::memory_order_acq_rel)) {
      cached = resolved;
    } else {
      cached = expected;
    }
    try {
      obs::gauge("config.threads_default").set(cached);
    } catch (...) {
      // Registry allocation failure must not break thread resolution.
    }
  }
  return static_cast<std::size_t>(cached);
}

void ThreadPool::refresh_thread_default() noexcept {
  g_default_threads.store(-1, std::memory_order_release);
}

void ThreadPool::participate(Batch& b) {
  // One scope for the whole claim loop (a no-op on the submitting thread,
  // whose domain is already active): batch items are attributed to the
  // submitting job on every participant.  It closes, flushing into
  // b.domain, before this returns.
  obs::Scope domain_scope(b.domain);
  obs::Span span("pool:batch");
  static obs::Counter& items = obs::counter("pool.batch_items");
  for (;;) {
    const std::size_t k = b.next.fetch_add(1, std::memory_order_relaxed);
    if (k >= b.n) break;
    items.increment();
    const std::size_t i = b.order != nullptr ? b.order[k] : k;
    try {
      // Inside the per-item try: an injected throw is captured with the
      // same min-index determinism as a real call's exception (a bare throw
      // on the worker loop would terminate the process).
      fail::point("pool.task");
      (*b.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (i < b.err_index) {
        b.err_index = i;
        b.err = std::current_exception();
      }
    }
  }
}

void ThreadPool::submit_bulk(std::size_t n,
                             const std::function<void(std::size_t)>& fn,
                             std::size_t max_workers,
                             const std::uint32_t* order) {
  if (n == 0) return;
  auto run_inline = [&]() {
    std::size_t err_index = ~std::size_t{0};
    std::exception_ptr err;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = order != nullptr ? order[k] : k;
      try {
        fail::point("pool.task");
        fn(i);
      } catch (...) {
        if (i < err_index) {
          err_index = i;
          err = std::current_exception();
        }
      }
    }
    if (err) std::rethrow_exception(err);
  };
  if (max_workers <= 1 || n <= 1 || tl_pool == this) {
    run_inline();
    return;
  }

  static obs::Counter& batches = obs::counter("pool.bulk_batches");
  batches.increment();

  Batch batch;
  batch.fn = &fn;
  batch.order = order;
  batch.domain = obs::Scope::current();
  batch.n = n;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (batch_ != nullptr || stop_) {
      // One fan-out at a time; a second concurrent caller degrades to the
      // (correct, merely unaccelerated) inline path.
      lock.unlock();
      run_inline();
      return;
    }
    // The caller participates too, so at most n - 1 workers (and never
    // more than requested) can contribute; don't spawn threads that would
    // only find the claim cursor exhausted.
    const std::size_t useful = std::min(max_workers - 1, n - 1);
    spawn_workers_locked(useful);
    batch.slots = static_cast<int>(std::min(useful, workers_.size()));
    batch_ = &batch;
  }
  wake_.notify_all();
  participate(batch);
  {
    // Close the batch to joiners, then wait for the ones inside to leave.
    // That is also the wait for every item: this thread's claim loop ended
    // with the cursor exhausted, and a joiner leaves only after finishing
    // the items it claimed.
    std::unique_lock<std::mutex> lock(mutex_);
    batch_ = nullptr;
    left_.wait(lock, [&]() { return batch.joined == 0; });
  }
  if (batch.err) std::rethrow_exception(batch.err);
}

void ThreadPool::worker_loop(std::size_t index) {
  tl_pool = this;
  obs::set_thread_name("pool-worker-" + std::to_string(index));
  static obs::Counter& idle_us = obs::counter("pool.idle_us");
  static obs::Counter& busy_us = obs::counter("pool.busy_us");
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const std::uint64_t wait_start = obs::now_us();
    wake_.wait(lock, [&]() {
      return stop_ ||
             (batch_ != nullptr && batch_->slots > 0 &&
              batch_->next.load(std::memory_order_relaxed) < batch_->n);
    });
    idle_us.add(obs::now_us() - wait_start);
    if (stop_) return;
    Batch& batch = *batch_;
    --batch.slots;
    ++batch.joined;
    lock.unlock();
    const std::uint64_t busy_start = obs::now_us();
    participate(batch);
    busy_us.add(obs::now_us() - busy_start);
    lock.lock();
    // The last access to the batch: the submitter may return (and free it)
    // as soon as the lock is released.
    if (--batch.joined == 0) left_.notify_all();
  }
}

}  // namespace mcs
