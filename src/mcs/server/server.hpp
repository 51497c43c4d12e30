/// \file server.hpp
/// \brief mcs::server -- a persistent multi-tenant synthesis job server.
///
/// JobServer turns the library into a long-running service: many clients
/// submit synthesis jobs (flow-spec strings, optionally with an inline
/// AIGER/BLIF input network) over the newline-delimited JSON protocol
/// (protocol.hpp), each job runs as its own flow::FlowContext through the
/// registered passes, and per-stage StageReport JSON -- including the
/// mcs::obs metrics/span deltas -- streams back to the submitting client
/// as stages complete.
///
/// **Fair scheduling.**  Jobs multiplex over a small set of runner threads
/// at *stage* granularity with a weighted-deficit (virtual-time) queue:
/// every job carries a vtime that grows by `stage_seconds / weight` per
/// executed stage, runners always dispatch the runnable job with the
/// smallest vtime, and newly accepted jobs start at the observed vtime
/// floor.  A heavy mult64 fraig therefore cannot starve a hundred small
/// adder maps: after its first expensive stage its vtime is far above the
/// floor, so every waiting small job is dispatched first, while the other
/// runner slots keep draining short jobs even during the heavy stage
/// itself.  Stages execute through flow::run_stage, the flow layer's one
/// stage runner (a job's `ckpt` rollback policy included), and fan out
/// internally on the shared ThreadPool::global() -- the scheduler decides
/// *which* job's stage runs next, the pool decides how a stage's own
/// parallelism lands on the hardware.
///
/// **Cancellation and timeouts.**  Each job owns a flow::CancelToken
/// (cancel request + wall-clock deadline armed at accept time), checked at
/// every stage boundary -- a cancel during a running stage takes effect
/// when that stage finishes, never tearing a pass mid-flight.  Stopped
/// jobs emit a final synthetic stage ("cancelled"/"timeout") and a "done"
/// line; other jobs are unaffected.
///
/// **Transports.**  The core is transport-agnostic: attach() registers a
/// client sink, handle_line() feeds one protocol line and detach() drops
/// the client.  tools/mcs_server.cpp builds every transport on these three
/// calls: stdin/stdout (the `mcs_server --pipe` mode used by tests and CI
/// -- no networking involved) and Unix/TCP socket listeners.
///
/// **Observability.**  Every job runs under a `server:job` span (each
/// stage additionally under `server:stage`), and the server maintains
/// `server.*` counters (accepted/completed/cancelled/timed-out/...),
/// queue-wait and job-latency histograms and running/queued gauges -- see
/// the README metric catalogue.  Each job's FlowContext carries its own
/// obs::Domain (inherited by every pool task the job fans out), so
/// streamed per-stage "metrics" are exact per-job deltas even under
/// concurrency, and the job's attributed CPU time (`server.job_cpu_us`)
/// and peak arena/strash bytes are live in the "jobs" admin verb.  The
/// ctor starts the obs ring sampler (telemetry_interval_ms/telemetry_ring)
/// and the admin verbs "stats" / "health" / "jobs" answer at any time --
/// including mid-drain -- which is what `mcs_top` polls.
///
/// **Robustness.**  With ServerOptions::journal_path set, every job
/// transition lands in a durable fsync'd journal (journal.hpp) before the
/// client hears about it; a restarted worker (see `mcs_server --supervise`)
/// replays accepted-but-unfinished jobs (done lines marked "retried") and
/// answers "attach" requests for completed ones from the retained done
/// cache.  With stage_checkpoints on, each journaled job additionally
/// snapshots its network (mcs::ckpt) at every completed stage, so the
/// replay *resumes* at the last checkpointed stage instead of re-running
/// the flow from scratch -- the done line then carries "resumed_stage".
/// The journal itself auto-compacts past journal_max_bytes, rewriting to
/// the live state (in-flight accepts + latest checkpoints + done cache)
/// so a long-lived daemon's journal stays bounded.  Degradation guards (max inline-input bytes, per-client job
/// quota, memory high-water shedding) reject excess load with an "error"
/// line instead of letting it take the process down, and the mcs::fail
/// injection sites (server.line / server.emit / server.input) let tests
/// and CI prove all of this under deterministic fire.
///
/// **Multi-tenant safety.**  Jobs share pool workers, so process-wide
/// state must be either immutable, thread-local, or observation-only.
/// The audit (PR 7): ThreadPool::global() is result-neutral by the
/// determinism contract; obs never feeds back; the pass registry is
/// immutable after first access; `NpnDatabase::shared` is thread_local
/// with entries that are pure functions of the class key (see
/// npn_db.hpp), so interleaving jobs on one worker cannot change any
/// result -- tests/test_server.cpp proves two concurrent flows are
/// bit-identical to their serial runs.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "mcs/flow/flow.hpp"
#include "mcs/server/journal.hpp"
#include "mcs/server/protocol.hpp"

namespace mcs::server {

struct ServerOptions {
  /// Concurrent job-runner threads (stage-granular multiplexing happens on
  /// top of these).  <= 0 derives a default: at least 2 slots -- so small
  /// jobs keep flowing while a heavy stage occupies one slot even on one
  /// core -- capped at the resolved thread default and at 8.
  int job_slots = 0;

  /// Default ctx.par.num_threads for jobs that do not request their own
  /// (0 = the process default, i.e. MCS_THREADS / hardware).
  int threads_per_job = 1;

  /// Default wall-clock budget per job in milliseconds; 0 = unlimited.
  /// A job's own "timeout_ms" overrides.
  std::int64_t default_timeout_ms = 0;

  /// Submissions beyond this many in-flight jobs are rejected (backpressure
  /// instead of unbounded queue growth).
  std::size_t max_jobs_in_flight = 4096;

  /// Stream per-stage "stage" lines (on by default; "done" always sent).
  bool stream_stages = true;

  // --- graceful degradation guards ------------------------------------------

  /// Inline "input" text larger than this is rejected before parsing
  /// (one malicious submit must not balloon the daemon).
  std::size_t max_input_bytes = std::size_t{16} << 20;

  /// Per-client in-flight job quota; submissions beyond it are rejected
  /// (one chatty tenant cannot monopolize the job table).
  std::size_t max_jobs_per_client = 1024;

  /// Reject new submissions once the process's kernel-arena high-water
  /// marks (obs gauges `strash.bytes_max` + `cut.arena_bytes_max`) exceed
  /// this many MiB; 0 = off.  High-water marks only rise, so a tripped
  /// guard stays tripped until the (supervised) worker is recycled --
  /// shedding load beats being OOM-killed mid-job.
  std::size_t max_memory_mb = 0;

  // --- crash recovery -------------------------------------------------------

  /// Path of the fsync'd NDJSON job journal (see journal.hpp); "" = no
  /// journaling.  On construction the journal is replayed: jobs accepted
  /// but unfinished by a previous life are re-queued (their done lines
  /// carry "retried": true) and completed jobs' done lines are retained
  /// to answer "attach" requests.
  std::string journal_path{};

  /// Auto-compact the journal once it grows past this many bytes: rewrite
  /// it down to the live state (in-flight accepts + latest checkpoints +
  /// the done cache) through Journal::rewrite_and_reopen.  0 = never.
  std::size_t journal_max_bytes = std::size_t{64} << 20;

  /// Done lines retained for "attach" after completion (FIFO-bounded);
  /// also the journal's compaction budget (Journal::analyze keep_done).
  std::size_t done_cache = 256;

  /// Write a network snapshot (mcs::ckpt) at every completed stage of a
  /// journaled job, so a crashed worker's replacement resumes the job at
  /// the last checkpointed stage instead of stage 0.  Only active when
  /// journal_path is set.
  bool stage_checkpoints = true;

  /// Directory of the per-job stage checkpoint files; "" derives
  /// "<journal_path>.ckpt".  Created on startup if missing.
  std::string ckpt_dir{};

  // --- retained telemetry ---------------------------------------------------

  /// Period of the obs ring sampler (registry snapshots retained in memory
  /// and served by the "stats" verb); 0 disables the sampler.  The sampler
  /// is process-global: the first server to start it owns it, and stops it
  /// on destruction.
  unsigned telemetry_interval_ms = 500;

  /// Capacity of the retained telemetry ring (oldest samples evicted).
  std::size_t telemetry_ring = 120;
};

class JobServer {
 public:
  /// A client's output: receives complete protocol lines (no newline).
  /// Invoked from runner and protocol threads, serialized per client by
  /// the server.  Must not call back into the JobServer.
  using Sink = std::function<void(const std::string& line)>;

  explicit JobServer(ServerOptions options = {});

  /// Drains (waits for every accepted job) and joins the runners.
  ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Registers a client; the returned id scopes job ids and routes
  /// responses to \p sink.
  std::uint64_t attach(Sink sink);

  /// Unregisters a client; its pending responses are dropped.  Returns
  /// only once no call of the client's sink is running, and none starts
  /// afterwards, so the caller may then free what the sink writes to.
  /// With \p cancel_jobs, the client's in-flight jobs are cancelled (socket
  /// disconnect semantics); without, they run to completion unobserved.
  void detach(std::uint64_t client, bool cancel_jobs = false);

  /// Feeds one protocol line from \p client.  Responses (including all
  /// errors) arrive through the client's sink; this never throws on
  /// malformed input, and a failed line leaves the server healthy.
  void handle_line(std::uint64_t client, const std::string& line);

  /// Requests cancellation of the named job regardless of owning client
  /// (the in-process/admin path; protocol "cancel" is client-scoped).
  /// False when no in-flight job has this id.
  bool cancel(std::string_view job_id);

  /// Stops accepting submissions and blocks until every accepted job has
  /// finished.  Idempotent.
  void drain();

  bool draining() const;
  std::size_t jobs_in_flight() const;
  ServerCounters counters() const;

 private:
  struct Client {
    Sink sink;
    std::mutex write_mutex;  ///< one response line at a time
    /// Set by detach() under write_mutex; emit() then drops the line.
    bool detached = false;
  };

  struct Job {
    std::uint64_t seq = 0;  ///< accept order; vtime tiebreak
    /// Owning client.  Atomic because "attach" re-binds a replayed or
    /// orphaned job to a new client while its stages may be streaming
    /// (writers hold mutex_; the on_stage closure reads lock-free).
    std::atomic<std::uint64_t> client{0};
    std::string id;
    double weight = 1.0;
    bool retried = false;   ///< replayed from the journal after a crash
    /// First stage the job actually executes after a checkpoint restore;
    /// -1 = not resumed.  Set during journal recovery, before runners
    /// exist, and read-only afterwards.
    std::ptrdiff_t resumed_stage = -1;
    /// Verbatim submit line, kept for journal auto-compaction (the
    /// rewritten journal re-emits the job's "accepted" entry).  Written
    /// under mutex_ at accept time, read under mutex_ during compaction.
    std::string request_line;
    /// The job's "started" entry is on disk (journal auto-compaction must
    /// preserve it).  Atomic: set by runners without mutex_.
    std::atomic<bool> journal_started{false};
    /// Index of the last stage whose "stage_ckpt" entry was journaled;
    /// -1 = none.  Atomic for the same reason.
    std::atomic<std::ptrdiff_t> last_ckpt_journaled{-1};
    bool orig_ckpt_written = false;  ///< runner-only state, no lock needed
    std::string emit;       ///< "aiger" = inline the result in "done"
    flow::Flow flow;
    flow::FlowContext ctx;
    std::shared_ptr<flow::CancelToken> token;
    /// Atomic: advanced by the owning runner between stages without
    /// mutex_, read by the "jobs" admin verb under it.
    std::atomic<std::size_t> next_stage{0};
    double vtime = 0.0;  ///< consumed seconds / weight (fair-share key)
    bool running = false;    ///< a runner is executing a stage right now
    bool finalized = false;  ///< done line sent (guards double-finalize)
    std::chrono::steady_clock::time_point accepted_at;
    /// started / queue_wait_seconds are written under mutex_ at first
    /// dispatch so the "jobs" verb can read them under the same lock.
    bool started = false;
    double queue_wait_seconds = 0.0;
    std::unique_ptr<obs::Span> span;  ///< server:job, accept -> done
  };

  void handle_submit(std::uint64_t client, const Request& req);
  void handle_cancel(std::uint64_t client, const Request& req);
  void handle_attach(std::uint64_t client, const Request& req);
  // Admin verbs: observation-only, never touch job state, and safe (by
  // design: drain() releases mutex_ while it waits) during an active drain.
  void handle_stats(std::uint64_t client);
  void handle_health(std::uint64_t client);
  void handle_jobs(std::uint64_t client);
  /// Journal recovery (constructor, before runners start): compact the
  /// old journal, seed the done cache, re-queue unfinished jobs.
  void recover_from_journal();
  /// Recovery detail: fast-forwards a replayed job to its last stage
  /// checkpoint (restore snapshot, audit it, bump next_stage); any
  /// failure falls back to a from-scratch replay.
  void resume_job_from_checkpoint(const PendingJob& pending);
  bool cancel_job_locked(const std::shared_ptr<Job>& job,
                         std::unique_lock<std::mutex>& lock);
  void runner_loop(std::size_t index);
  /// Sends the final "done" line and retires the job.  \p status is one of
  /// "ok" / "error" / "cancelled" / "timeout".
  void finalize(const std::shared_ptr<Job>& job, std::string_view status,
                const std::string& error);
  void emit(std::uint64_t client, const std::string& line);
  void update_gauges_locked();
  ServerCounters counters_locked() const;

  // --- stage checkpoints (mcs::ckpt) ---------------------------------------
  /// Path of a job's stage snapshot ("<ckpt_dir>/<sanitized id><suffix>").
  std::string ckpt_path(const std::string& job_id, const char* suffix) const;
  /// Snapshots job state after a completed stage: the working network
  /// (and, once, the sim-reference original) to disk, then a "stage_ckpt"
  /// journal entry.  Failures degrade to a warning -- the job still has
  /// its stage entries and replays from stage 0.
  void write_stage_checkpoint(const std::shared_ptr<Job>& job,
                              std::size_t completed_stage);
  /// Deletes a finished job's checkpoint files (best effort).
  void remove_stage_checkpoints(const std::shared_ptr<Job>& job);
  /// Rewrites the journal down to live state when it outgrows
  /// options_.journal_max_bytes.
  void maybe_compact_journal();

  ServerOptions options_;
  std::chrono::steady_clock::time_point started_at_;  ///< uptime base
  bool sampler_owner_ = false;  ///< this server started the global sampler

  mutable std::mutex mutex_;
  std::condition_variable cv_ready_;    ///< runners wait for ready jobs
  std::condition_variable cv_drained_;  ///< drain() waits for empty
  bool stop_ = false;
  bool draining_ = false;
  std::uint64_t next_client_ = 1;
  std::uint64_t next_seq_ = 1;
  double vfloor_ = 0.0;  ///< max vtime ever dispatched; entry point for new jobs
  std::map<std::uint64_t, std::shared_ptr<Client>> clients_;
  /// In-flight jobs by (client, id) -- the uniqueness domain of job ids.
  std::map<std::pair<std::uint64_t, std::string>, std::shared_ptr<Job>> jobs_;
  /// Runnable jobs keyed by (vtime, seq): begin() is the fair-share pick.
  std::map<std::pair<double, std::uint64_t>, std::shared_ptr<Job>> ready_;
  ServerCounters counters_;
  std::vector<std::thread> runners_;

  /// Crash-recovery journal (inactive when options_.journal_path is "").
  Journal journal_;
  bool replaying_ = false;  ///< ctor-only: marks re-queued jobs retried
  /// Done lines of recently finished jobs, the "attach" answer cache
  /// (bounded FIFO; also rebuilt from the journal on recovery).
  std::map<std::string, std::string> done_cache_;
  std::vector<std::string> done_cache_order_;
};

}  // namespace mcs::server
