#include "mcs/server/server.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "mcs/ckpt/snapshot.hpp"
#include "mcs/fail/fail.hpp"
#include "mcs/io/aiger.hpp"
#include "mcs/io/blif_read.hpp"
#include "mcs/network/convert.hpp"
#include "mcs/par/thread_pool.hpp"

namespace mcs::server {

namespace {

/// Cached metric handles (registry lookup takes a mutex; handles are
/// process-stable).  All server metrics are catalogued in the README.
struct ServerMetrics {
  obs::Counter& jobs_accepted = obs::counter("server.jobs_accepted");
  obs::Counter& jobs_completed = obs::counter("server.jobs_completed");
  obs::Counter& jobs_failed = obs::counter("server.jobs_failed");
  obs::Counter& jobs_cancelled = obs::counter("server.jobs_cancelled");
  obs::Counter& jobs_timed_out = obs::counter("server.jobs_timed_out");
  obs::Counter& jobs_rejected = obs::counter("server.jobs_rejected");
  obs::Counter& protocol_errors = obs::counter("server.protocol_errors");
  obs::Counter& stages_run = obs::counter("server.stages_run");
  obs::Counter& restarts = obs::counter("server.restarts");
  obs::Counter& jobs_retried = obs::counter("server.jobs_retried");
  obs::Counter& jobs_resumed = obs::counter("ckpt.resumes");
  obs::Counter& ckpt_stage_writes = obs::counter("ckpt.stage_writes");
  obs::Counter& journal_compactions = obs::counter("ckpt.journal_compactions");
  obs::Gauge& strash_bytes = obs::gauge("strash.bytes_max");
  obs::Gauge& cut_arena_bytes = obs::gauge("cut.arena_bytes_max");
  obs::Histogram& queue_wait_us = obs::histogram("server.queue_wait_us");
  obs::Histogram& job_latency_us = obs::histogram("server.job_latency_us");
  obs::Histogram& job_cpu_us = obs::histogram("server.job_cpu_us");
  obs::Gauge& jobs_running = obs::gauge("server.jobs_running");
  obs::Gauge& jobs_queued = obs::gauge("server.jobs_queued");
  obs::Gauge& jobs_in_flight_hwm = obs::gauge("server.jobs_in_flight_hwm");
};

ServerMetrics& metrics() {
  static ServerMetrics m;
  return m;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Suffix of the per-stage snapshot file.  The stage index is part of the
/// name so a crash between a snapshot's rename and its "stage_ckpt"
/// journal entry can never pair a journal index with a newer network: the
/// journaled index always resolves to exactly its own file.
std::string stage_suffix(std::ptrdiff_t stage) {
  return ".s" + std::to_string(stage) + ".snap";
}

int default_job_slots() {
  const int resolved = static_cast<int>(ThreadPool::resolve_threads(0));
  // At least 2 slots so short jobs keep flowing past one heavy stage even
  // on a single core; capped because slots multiplex *jobs*, not cores --
  // each stage still fans out on the shared pool.
  return std::clamp(resolved, 2, 8);
}

}  // namespace

JobServer::JobServer(ServerOptions options)
    : options_(options), started_at_(std::chrono::steady_clock::now()) {
  if (options_.job_slots <= 0) options_.job_slots = default_job_slots();
  // The telemetry ring sampler is process-global; the first server to
  // start it owns its lifetime.  sampler_running() stays false when obs is
  // compiled out, so sampler_owner_ never arms there.
  if (options_.telemetry_interval_ms > 0 && !obs::sampler_running()) {
    obs::sampler_start(options_.telemetry_interval_ms,
                       options_.telemetry_ring);
    sampler_owner_ = obs::sampler_running();
  }
  if (options_.journal_path.empty()) options_.stage_checkpoints = false;
  if (options_.stage_checkpoints) {
    if (options_.ckpt_dir.empty()) {
      options_.ckpt_dir = options_.journal_path + ".ckpt";
    }
    if (::mkdir(options_.ckpt_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr,
                   "mcs_server: cannot create checkpoint dir %s (%s); "
                   "stage checkpoints off\n",
                   options_.ckpt_dir.c_str(), std::strerror(errno));
      options_.stage_checkpoints = false;
    }
  }
  // Recovery runs before the runners exist: replayed jobs queue up
  // exactly like live submissions and dispatch once the slots spin up.
  if (!options_.journal_path.empty()) recover_from_journal();
  runners_.reserve(static_cast<std::size_t>(options_.job_slots));
  for (int i = 0; i < options_.job_slots; ++i) {
    runners_.emplace_back(
        [this, i] { runner_loop(static_cast<std::size_t>(i)); });
  }
}

void JobServer::recover_from_journal() {
  std::size_t skipped = 0;
  const std::vector<JournalEntry> entries =
      Journal::load(options_.journal_path, &skipped);
  const Recovery rec = Journal::analyze(entries, options_.done_cache);
  // Compact before reopening: pending jobs re-journal their accepted
  // entries on re-submission below, so only the done cache carries over.
  Journal::compact(options_.journal_path, rec);
  journal_.open(options_.journal_path);

  for (const auto& [job, line] : rec.completed) {
    if (done_cache_.emplace(job, line).second) {
      done_cache_order_.push_back(job);
    }
  }
  if (!rec.clean_shutdown && rec.entries > 0) {
    // This process replaces one that died with work on the books.
    metrics().restarts.increment();
    std::fprintf(stderr,
                 "mcs_server: unclean journal (%zu entries, %zu torn): "
                 "replaying %zu unfinished job(s)\n",
                 rec.entries, skipped, rec.pending.size());
  }
  replaying_ = true;
  for (const PendingJob& pending : rec.pending) {
    // Client 0 is never attached: responses drop until the owner
    // re-attaches by job id.  The replay reuses the full live submit
    // path, so validation/quota/journal behavior is identical.
    handle_line(0, pending.request);
    resume_job_from_checkpoint(pending);
  }
  replaying_ = false;
}

/// Patches a just-replayed job so it resumes after its last checkpointed
/// stage instead of at stage 0.  Runs in the constructor, before any
/// runner exists, so the job's state is free to patch without races.
/// Every failure (missing/corrupt snapshot, invariant-audit reject)
/// degrades to a warning and a from-scratch replay -- a checkpoint is an
/// optimization, never a correctness dependency.
void JobServer::resume_job_from_checkpoint(const PendingJob& pending) {
  if (!options_.stage_checkpoints || pending.ckpt_index < 0) return;
  const auto it = jobs_.find(std::make_pair(std::uint64_t{0}, pending.id));
  if (it == jobs_.end()) return;  // replay itself was rejected
  const std::shared_ptr<Job>& job = it->second;
  const std::vector<flow::Flow::Stage>& stages = job->flow.stages();
  const std::size_t ckpt_index = static_cast<std::size_t>(pending.ckpt_index);
  if (ckpt_index >= stages.size()) {
    std::fprintf(stderr,
                 "mcs_server: job %s checkpoint index %td exceeds its flow "
                 "(%zu stages); replaying from scratch\n",
                 pending.id.c_str(), pending.ckpt_index, stages.size());
    return;
  }
  // The snapshot holds the network of the last network-changing stage at
  // or before the checkpoint; the job resumes after that stage, so every
  // mapping or check after it runs again.  Without one, it is a plain
  // retry from stage 0.
  std::size_t resume_at = 0;
  for (std::size_t i = 0; i <= ckpt_index; ++i) {
    if (flow::changes_network(stages[i].pass->kind)) resume_at = i + 1;
  }
  if (resume_at == 0) return;
  const std::string snap =
      ckpt_path(pending.id, stage_suffix(pending.ckpt_index).c_str());
  try {
    Network net = ckpt::read_snapshot_file(snap);
    std::string why;
    if (!net.check(&why)) {
      throw ckpt::SnapshotError("restored network fails invariant audit: " +
                                why);
    }
    std::optional<Network> original;
    const std::string orig = ckpt_path(pending.id, ".orig.snap");
    if (::access(orig.c_str(), R_OK) == 0) {
      original = ckpt::read_snapshot_file(orig);
      if (!original->check(&why)) {
        throw ckpt::SnapshotError("restored original fails invariant audit: " +
                                  why);
      }
    }
    // The settings before the resume point, re-applied without a report.
    for (std::size_t i = 0; i < resume_at; ++i) {
      if (stages[i].pass->kind == flow::PassKind::kSetting) {
        stages[i].pass->run(job->ctx, stages[i].args);
      }
    }
    job->ctx.note.clear();
    if (original) {
      job->ctx.original = std::move(original);
      job->orig_ckpt_written = true;
    }
    job->ctx.net = std::move(net);
    job->next_stage = resume_at;
    job->resumed_stage = static_cast<std::ptrdiff_t>(resume_at);
    // Re-journal the checkpoint: recovery compacted the old journal away,
    // and a second crash before the next fresh checkpoint must still find
    // this one (the snapshot file is untouched on disk).
    JournalEntry e;
    e.kind = JournalEntry::Kind::kStageCkpt;
    e.job = pending.id;
    e.index = static_cast<std::size_t>(pending.ckpt_index);
    journal_.append(e);
    job->last_ckpt_journaled.store(pending.ckpt_index,
                                   std::memory_order_relaxed);
    ++counters_.resumed;
    metrics().jobs_resumed.increment();
    std::fprintf(stderr, "mcs_server: job %s resumes at stage %zu/%zu\n",
                 pending.id.c_str(), resume_at, stages.size());
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "mcs_server: job %s checkpoint unusable (%s); replaying "
                 "from scratch\n",
                 pending.id.c_str(), e.what());
  }
}

JobServer::~JobServer() {
  drain();
  if (journal_.is_open()) {
    JournalEntry e;
    e.kind = JournalEntry::Kind::kShutdown;
    journal_.append(e);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_ready_.notify_all();
  for (std::thread& t : runners_) t.join();
  if (sampler_owner_) obs::sampler_stop();
}

std::uint64_t JobServer::attach(Sink sink) {
  auto client = std::make_shared<Client>();
  client->sink = std::move(sink);
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = next_client_++;
  clients_.emplace(id, std::move(client));
  return id;
}

void JobServer::detach(std::uint64_t client, bool cancel_jobs) {
  std::shared_ptr<Client> gone;
  std::vector<std::shared_ptr<flow::CancelToken>> to_cancel;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = clients_.find(client); it != clients_.end()) {
      gone = std::move(it->second);
      clients_.erase(it);
    }
    if (cancel_jobs) {
      for (const auto& [key, job] : jobs_) {
        if (key.first == client) to_cancel.push_back(job->token);
      }
    }
  }
  if (gone != nullptr) {
    // An emit that found the client before the erase may be inside the
    // sink right now: wait it out, and mark the client so no later one
    // calls the sink.  The caller may free what the sink writes to as
    // soon as this returns.
    std::lock_guard<std::mutex> write_lock(gone->write_mutex);
    gone->detached = true;
  }
  // Queued jobs are not plucked from the ready queue here: their runner
  // dispatch hits check_interrupted immediately and finalizes them (the
  // done line then goes nowhere, which is exactly detach semantics).
  for (const auto& token : to_cancel) token->request_cancel();
  if (!to_cancel.empty()) cv_ready_.notify_all();
}

void JobServer::emit(std::uint64_t client, const std::string& line) {
  std::shared_ptr<Client> c;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = clients_.find(client);
    if (it == clients_.end()) return;  // detached; drop the line
    c = it->second;
  }
  std::lock_guard<std::mutex> write_lock(c->write_mutex);
  if (c->detached) return;  // detached after the lookup; drop the line
  try {
    fail::point("server.emit");  // simulates a sink dying mid-write
    c->sink(line);
  } catch (...) {
    // A dying sink (broken pipe wrapper etc.) must not take the server
    // down; the client's lines are simply lost.
  }
}

void JobServer::handle_line(std::uint64_t client, const std::string& line) {
  // Blank lines are keep-alive no-ops, not protocol errors.
  if (line.find_first_not_of(" \t\r\n") == std::string::npos) return;

  Request req;
  try {
    // Injected faults land in the catch below and become protocol-error
    // responses -- the daemon-stays-healthy contract under fire.
    fail::point("server.line");
    req = parse_request(line);
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.protocol_errors;
    }
    metrics().protocol_errors.increment();
    emit(client, error_line("", e.what()));
    return;
  }

  switch (req.kind) {
    case Request::Kind::kSubmit:
      handle_submit(client, req);
      return;
    case Request::Kind::kCancel:
      handle_cancel(client, req);
      return;
    case Request::Kind::kAttach:
      handle_attach(client, req);
      return;
    case Request::Kind::kPing:
      emit(client, pong_line(counters()));
      return;
    case Request::Kind::kStats:
      handle_stats(client);
      return;
    case Request::Kind::kHealth:
      handle_health(client);
      return;
    case Request::Kind::kJobs:
      handle_jobs(client);
      return;
    case Request::Kind::kShutdown: {
      ServerCounters snap;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        draining_ = true;
        snap = counters_locked();
      }
      emit(client, draining_line(snap));
      return;
    }
  }
}

void JobServer::handle_submit(std::uint64_t client, const Request& req) {
  auto reject = [&](const std::string& why) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.rejected;
    }
    metrics().jobs_rejected.increment();
    emit(client, error_line(req.id, why));
  };

  // Graceful degradation, cheapest checks first: an oversized inline
  // input is refused before it is parsed, and a memory-pressured process
  // sheds new load instead of growing toward an OOM kill.
  if (req.input_text.size() > options_.max_input_bytes) {
    reject("input: " + std::to_string(req.input_text.size()) +
           " bytes exceeds the inline limit of " +
           std::to_string(options_.max_input_bytes) + " bytes");
    return;
  }
  if (options_.max_memory_mb > 0) {
    const std::int64_t used = metrics().strash_bytes.value() +
                              metrics().cut_arena_bytes.value();
    if (used > static_cast<std::int64_t>(options_.max_memory_mb) << 20) {
      reject("server memory high-water exceeded (" +
             std::to_string(used >> 20) + " MiB > " +
             std::to_string(options_.max_memory_mb) +
             " MiB); resubmit later");
      return;
    }
  }

  auto job = std::make_shared<Job>();
  job->client.store(client, std::memory_order_relaxed);
  job->id = req.id;
  job->weight = req.weight;
  job->retried = replaying_;
  job->emit = req.emit;

  // Everything about the job that can fail is validated here, before it
  // becomes visible: flow spec parse, inline input parse.  A rejected
  // submit leaves no trace beyond the counter.
  try {
    job->flow = flow::Flow::parse(req.flow_spec);
  } catch (const flow::FlowError& e) {
    reject(std::string("flow: ") + e.what());
    return;
  }
  if (job->flow.stages().empty()) {
    reject("flow: empty pipeline");
    return;
  }

  if (!req.input_format.empty()) {
    try {
      // A short-read fault truncates the inline text, exercising the
      // reject path the way a torn transport would.
      const std::size_t n =
          fail::short_read("server.input", req.input_text.size());
      std::istringstream in(n == req.input_text.size()
                                ? req.input_text
                                : req.input_text.substr(0, n));
      Network net =
          req.input_format == "aiger" ? read_aiger(in) : read_blif(in);
      job->ctx.net = std::move(net);
      job->ctx.original = job->ctx.net;
    } catch (const std::exception& e) {
      reject(std::string("input: ") + e.what());
      return;
    }
  }

  job->ctx.par.num_threads =
      req.threads > 0 ? req.threads : options_.threads_per_job;
  job->token = std::make_shared<flow::CancelToken>();
  const std::int64_t timeout_ms =
      req.timeout_ms > 0 ? req.timeout_ms : options_.default_timeout_ms;
  if (timeout_ms > 0) {
    job->token->set_deadline_after(std::chrono::milliseconds(timeout_ms));
  }
  job->ctx.cancel = job->token;
  if (options_.stream_stages) {
    // Captures `this`, a raw Job* and values only: the job must not own a
    // closure that owns the job.  JobServer outlives every job (the
    // destructor drains) and the raw pointer is only dereferenced from
    // inside a running stage, where the runner holds the shared_ptr.  The
    // owning client is re-read per stage so "attach" re-routes streaming
    // mid-job.
    job->ctx.on_stage = [this, raw = job.get(), id = job->id](
                            const flow::StageReport& report,
                            std::size_t index) {
      emit(raw->client.load(std::memory_order_relaxed),
           stage_line(id, index, report));
    };
  }
  job->accepted_at = std::chrono::steady_clock::now();

  std::string why;
  std::size_t queued = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (draining_) {
      why = "server is draining; submission refused";
    } else if (jobs_.size() >= options_.max_jobs_in_flight) {
      why = "server at capacity (" +
            std::to_string(options_.max_jobs_in_flight) +
            " jobs in flight); resubmit later";
    } else if (jobs_.count(std::make_pair(client, job->id)) != 0) {
      why = "duplicate job id \"" + job->id + "\" (still in flight)";
    } else {
      // Per-client quota: keys sharing a client id are contiguous in the
      // (client, id)-ordered map.
      std::size_t client_jobs = 0;
      for (auto it = jobs_.lower_bound(std::make_pair(client, std::string()));
           it != jobs_.end() && it->first.first == client; ++it) {
        ++client_jobs;
      }
      if (client_jobs >= options_.max_jobs_per_client) {
        why = "per-client quota reached (" +
              std::to_string(options_.max_jobs_per_client) +
              " jobs in flight); resubmit later";
      } else {
        job->seq = next_seq_++;
        job->vtime = vfloor_;
        jobs_.emplace(std::make_pair(client, job->id), job);
        ready_.emplace(std::make_pair(job->vtime, job->seq), job);
        ++counters_.accepted;
        if (job->retried) ++counters_.retried;
        queued = ready_.size();
        update_gauges_locked();
        metrics().jobs_in_flight_hwm.set_max(
            static_cast<std::int64_t>(jobs_.size()));
        if (journal_.is_open()) {
          // Inside the critical section so no runner can journal this
          // job's "started" before its "accepted" hits the disk.  The
          // request line sticks around on the job for auto-compaction.
          job->request_line = submit_line(req);
          JournalEntry e;
          e.kind = JournalEntry::Kind::kAccepted;
          e.job = job->id;
          e.payload = job->request_line;
          journal_.append(e);
        }
      }
    }
  }
  if (!why.empty()) {
    reject(why);
    return;
  }
  cv_ready_.notify_one();
  metrics().jobs_accepted.increment();
  if (job->retried) metrics().jobs_retried.increment();
  emit(client, accepted_line(job->id, queued));
}

void JobServer::handle_attach(std::uint64_t client, const Request& req) {
  std::string response;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Find an in-flight job with this id; an orphan replayed from the
    // journal (internal client 0) wins over any live client's job.
    std::shared_ptr<Job> found;
    std::uint64_t found_client = 0;
    for (const auto& [key, job] : jobs_) {
      if (key.second != req.id) continue;
      if (found == nullptr || key.first == 0) {
        found = job;
        found_client = key.first;
      }
      if (key.first == 0) break;
    }
    if (found != nullptr) {
      if (found_client != client &&
          jobs_.count(std::make_pair(client, req.id)) != 0) {
        response = error_line(
            req.id, "attach: a job with this id is already yours");
      } else {
        if (found_client != client) {
          jobs_.erase(std::make_pair(found_client, req.id));
          jobs_.emplace(std::make_pair(client, req.id), found);
          found->client.store(client, std::memory_order_relaxed);
        }
        response =
            attached_line(req.id, found->running ? "running" : "queued");
      }
    } else if (auto it = done_cache_.find(req.id); it != done_cache_.end()) {
      response = it->second;  // the exact done line, replayed
    } else {
      response = error_line(req.id,
                            "attach: unknown job (never accepted, or its "
                            "done line aged out of the cache)");
    }
  }
  emit(client, response);
}

void JobServer::handle_stats(std::uint64_t client) {
  // Everything here is observation-only: counters under mutex_, the obs
  // registry / ring / Prometheus rendering lock-free or under obs's own
  // locks -- so "stats" answers even while drain() blocks on cv_drained_.
  emit(client, stats_line(counters(), seconds_since(started_at_),
                          obs::metrics_json(), obs::ring_json(),
                          obs::prometheus_text()));
}

void JobServer::handle_health(std::uint64_t client) {
  HealthInfo h;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    h.draining = draining_;
    h.queued = ready_.size();
    h.running = jobs_.size() - ready_.size();
  }
  h.uptime_seconds = seconds_since(started_at_);
  h.journal_bytes = journal_.is_open() ? journal_.bytes() : 0;
  h.memory_bytes =
      metrics().strash_bytes.value() + metrics().cut_arena_bytes.value();
  h.memory_limit_bytes =
      static_cast<std::int64_t>(options_.max_memory_mb) << 20;
  h.telemetry = obs::sampler_running();
  emit(client, health_line(h));
}

void JobServer::handle_jobs(std::uint64_t client) {
  std::vector<JobInfo> rows;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rows.reserve(jobs_.size());
    for (const auto& [key, job] : jobs_) {
      JobInfo info;
      info.id = job->id;
      info.state = job->running ? "running" : "queued";
      const std::size_t at = job->next_stage.load(std::memory_order_relaxed);
      info.stage = at;
      info.stages = job->flow.stages().size();
      if (at < info.stages) info.pass = job->flow.stages()[at].pass->name;
      info.weight = job->weight;
      info.seconds = seconds_since(job->accepted_at);
      info.queue_wait_seconds = job->started ? job->queue_wait_seconds : 0.0;
      info.cpu_us = job->ctx.domain->cpu_us();
      info.strash_bytes = job->ctx.domain->peak(obs::DomainPeak::kStrashBytes);
      info.arena_bytes = job->ctx.domain->peak(obs::DomainPeak::kArenaBytes);
      rows.push_back(std::move(info));
    }
  }
  emit(client, jobs_line(rows));
}

void JobServer::handle_cancel(std::uint64_t client, const Request& req) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = jobs_.find(std::make_pair(client, req.id));
  if (it == jobs_.end()) {
    lock.unlock();
    emit(client, error_line(req.id, "cancel: no such in-flight job"));
    return;
  }
  std::shared_ptr<Job> job = it->second;  // keep alive past the map erase
  cancel_job_locked(job, lock);
}

bool JobServer::cancel(std::string_view job_id) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (const auto& [key, job] : jobs_) {
    if (key.second == job_id) {
      std::shared_ptr<Job> keep = job;
      return cancel_job_locked(keep, lock);
    }
  }
  return false;
}

/// Requests cancellation of \p job.  A *queued* job (not running, still in
/// the ready queue) is finalized right here -- it will never touch a
/// runner.  A *running* job only gets its token tripped; the owning runner
/// observes it at the next stage boundary.  May release \p lock (and does
/// not re-acquire it); callers must not rely on it afterwards.
bool JobServer::cancel_job_locked(const std::shared_ptr<Job>& job,
                                  std::unique_lock<std::mutex>& lock) {
  job->token->request_cancel();
  if (job->running || job->finalized) return true;
  ready_.erase(std::make_pair(job->vtime, job->seq));
  update_gauges_locked();
  lock.unlock();
  finalize(job, "cancelled", "cancelled before start");
  return true;
}

void JobServer::runner_loop(std::size_t /*index*/) {
  for (;;) {
    std::shared_ptr<Job> job;
    bool first_dispatch = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_ready_.wait(lock, [this] { return stop_ || !ready_.empty(); });
      if (stop_ && ready_.empty()) return;
      auto it = ready_.begin();
      job = it->second;
      ready_.erase(it);
      job->running = true;
      // The dispatch floor only ever rises: newly accepted jobs enter at
      // the vtime of the fair-share frontier instead of at 0, so a
      // long-lived server does not hand newcomers an unbounded credit.
      vfloor_ = std::max(vfloor_, job->vtime);
      update_gauges_locked();
      // First dispatch fixes the queue wait while mutex_ is held, so the
      // "jobs" verb reads a consistent started/queue_wait pair.
      if (!job->started) {
        job->started = true;
        job->queue_wait_seconds = seconds_since(job->accepted_at);
        first_dispatch = true;
      }
    }

    if (first_dispatch) {
      metrics().queue_wait_us.observe(
          static_cast<std::uint64_t>(job->queue_wait_seconds * 1e6));
      job->span = std::make_unique<obs::Span>("server:job");
      if (journal_.is_open()) {
        JournalEntry e;
        e.kind = JournalEntry::Kind::kStarted;
        e.job = job->id;
        journal_.append(e);
        job->journal_started.store(true, std::memory_order_relaxed);
      }
    }

    // A resumed job whose checkpoint covered the final stage has nothing
    // left to run -- its previous life died between the last stage and
    // the done entry.
    if (job->next_stage >= job->flow.stages().size()) {
      finalize(job, "ok", "");
      continue;
    }

    const flow::Flow::Stage& stage = job->flow.stages()[job->next_stage];

    // Stage boundary: a tripped token stops the job with a synthetic
    // failed stage (streamed like any other) instead of running the pass.
    if (auto stopped = flow::check_interrupted(job->ctx, stage)) {
      const bool timed_out = stopped->note == "timeout";
      finalize(job, timed_out ? "timeout" : "cancelled", stopped->note);
      continue;
    }

    flow::StageReport report;
    {
      obs::Span span("server:stage");
      // With the job's TxnPolicy armed (the `ckpt` pass), a throwing,
      // fault-injected or invariant-breaking stage rolls the network back
      // to its pre-stage snapshot and retries or skips per policy instead
      // of failing the job outright.
      report = flow::run_stage(job->ctx, *stage.pass, stage.args);
    }
    metrics().stages_run.increment();
    // Floor per-stage cost so zero-measure stages still advance vtime and
    // a flood of trivial jobs cannot pin the queue head forever.
    job->vtime += std::max(report.seconds, 1e-7) / job->weight;
    ++job->next_stage;
    if (report.ok && journal_.is_open()) {
      JournalEntry e;
      e.kind = JournalEntry::Kind::kStage;
      e.job = job->id;
      e.index = job->next_stage - 1;
      journal_.append(e);
      // Only a stage that changed the network has a new one to save; a
      // resume re-runs the stages after it.
      if (flow::changes_network(stage.pass->kind)) {
        write_stage_checkpoint(job, job->next_stage - 1);
      }
      maybe_compact_journal();
    }

    if (!report.ok) {
      finalize(job, "error",
               report.note.empty() ? (report.pass + " failed")
                                   : (report.pass + ": " + report.note));
      continue;
    }
    if (job->next_stage >= job->flow.stages().size()) {
      finalize(job, "ok", "");
      continue;
    }

    // Check again after the stage so a cancel/timeout that landed while
    // the pass ran finalizes now instead of after another queue round-trip.
    const flow::Flow::Stage& next = job->flow.stages()[job->next_stage];
    if (auto stopped = flow::check_interrupted(job->ctx, next)) {
      const bool timed_out = stopped->note == "timeout";
      finalize(job, timed_out ? "timeout" : "cancelled", stopped->note);
      continue;
    }

    {
      std::lock_guard<std::mutex> lock(mutex_);
      job->running = false;
      ready_.emplace(std::make_pair(job->vtime, job->seq), job);
      update_gauges_locked();
    }
    cv_ready_.notify_one();
  }
}

void JobServer::finalize(const std::shared_ptr<Job>& job,
                         std::string_view status_in,
                         const std::string& error_in) {
  // The result artifact is serialized before the job leaves the table:
  // a failure here downgrades the status (the client asked for the
  // netlist; "ok" without it would be a silent lie).
  std::string status(status_in);
  std::string error = error_in;
  DoneExtras extras;
  extras.retried = job->retried;
  extras.resumed_stage = job->resumed_stage;
  if (status == "ok" && job->emit == "aiger") {
    try {
      std::ostringstream os;
      if (job->ctx.net.is_aig()) {
        write_aiger(job->ctx.net, os, /*binary=*/false);
      } else {
        const Network aig = expand_to_aig(job->ctx.net);
        write_aiger(aig, os, /*binary=*/false);
      }
      extras.artifact_format = "aiger";
      extras.artifact_text = os.str();
    } catch (const std::exception& e) {
      status = "error";
      error = std::string("artifact: ") + e.what();
    }
  }

  const double total_seconds = seconds_since(job->accepted_at);
  const std::string line =
      done_line(job->id, status, error, job->ctx.report_count,
                total_seconds, job->queue_wait_seconds, job->ctx, extras);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (job->finalized) return;
    job->finalized = true;
    job->running = false;
    jobs_.erase(std::make_pair(job->client.load(std::memory_order_relaxed),
                               job->id));
    if (status == "ok") {
      ++counters_.completed;
    } else if (status == "cancelled") {
      ++counters_.cancelled;
    } else if (status == "timeout") {
      ++counters_.timed_out;
    } else {
      ++counters_.failed;
    }
    update_gauges_locked();
    // Retain the done line for late attach() calls, FIFO-bounded.
    if (done_cache_.emplace(job->id, line).second) {
      done_cache_order_.push_back(job->id);
      if (done_cache_order_.size() > options_.done_cache) {
        done_cache_.erase(done_cache_order_.front());
        done_cache_order_.erase(done_cache_order_.begin());
      }
    } else {
      done_cache_[job->id] = line;  // id reuse: newest outcome wins
    }
  }

  ServerMetrics& m = metrics();
  if (status == "ok") {
    m.jobs_completed.increment();
  } else if (status == "cancelled") {
    m.jobs_cancelled.increment();
  } else if (status == "timeout") {
    m.jobs_timed_out.increment();
  } else {
    m.jobs_failed.increment();
  }
  m.job_latency_us.observe(static_cast<std::uint64_t>(total_seconds * 1e6));
  // Attributed CPU over every thread that worked for this job's domain --
  // the per-job cost number the wall-clock latency histogram cannot give.
  m.job_cpu_us.observe(job->ctx.domain->cpu_us());
  job->span.reset();  // records server:job on this thread

  if (journal_.is_open()) {
    // Durability before acknowledgment: the entry is on disk before the
    // client can see the done line.  A crash in between replays the job
    // (at-least-once); a crash after never re-runs it.
    JournalEntry e;
    e.kind = JournalEntry::Kind::kDone;
    e.job = job->id;
    e.status = status;
    e.payload = line;
    journal_.append(e);
  }
  remove_stage_checkpoints(job);
  maybe_compact_journal();

  emit(job->client.load(std::memory_order_relaxed), line);

  cv_drained_.notify_all();
}

void JobServer::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  cv_drained_.wait(lock, [this] { return jobs_.empty(); });
}

bool JobServer::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

std::size_t JobServer::jobs_in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return jobs_.size();
}

ServerCounters JobServer::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_locked();
}

ServerCounters JobServer::counters_locked() const {
  ServerCounters c = counters_;
  c.queued = ready_.size();
  c.running = jobs_.size() - ready_.size();
  c.draining = draining_;
  return c;
}

void JobServer::update_gauges_locked() {
  metrics().jobs_queued.set(static_cast<std::int64_t>(ready_.size()));
  metrics().jobs_running.set(
      static_cast<std::int64_t>(jobs_.size() - ready_.size()));
}

// --- stage checkpoints (mcs::ckpt) ------------------------------------------

std::string JobServer::ckpt_path(const std::string& job_id,
                                 const char* suffix) const {
  // Job ids are client-chosen: escape everything outside [A-Za-z0-9_.-]
  // as %XX so an id cannot traverse out of the checkpoint directory.
  std::string name;
  name.reserve(job_id.size());
  for (const char c : job_id) {
    const bool plain = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                       c == '-';
    if (plain) {
      name += c;
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      name += buf;
    }
  }
  return options_.ckpt_dir + "/" + name + suffix;
}

void JobServer::write_stage_checkpoint(const std::shared_ptr<Job>& job,
                                       std::size_t completed_stage) {
  if (!options_.stage_checkpoints || !journal_.is_open()) return;
  try {
    // The cec/simcheck reference network is part of the resumable state:
    // snapshot it once, the first time a stage leaves one behind.
    if (!job->orig_ckpt_written && job->ctx.original.has_value()) {
      ckpt::write_snapshot_file(*job->ctx.original,
                                ckpt_path(job->id, ".orig.snap"));
      job->orig_ckpt_written = true;
    }
    const std::ptrdiff_t prev =
        job->last_ckpt_journaled.load(std::memory_order_relaxed);
    const std::ptrdiff_t stage = static_cast<std::ptrdiff_t>(completed_stage);
    ckpt::write_snapshot_file(job->ctx.net,
                              ckpt_path(job->id, stage_suffix(stage).c_str()));
    JournalEntry e;
    e.kind = JournalEntry::Kind::kStageCkpt;
    e.job = job->id;
    e.index = completed_stage;
    journal_.append(e);
    job->last_ckpt_journaled.store(stage, std::memory_order_relaxed);
    // The previous snapshot is deleted only after the new entry is
    // durable, so the journal's newest stage_ckpt always has its file.
    if (prev >= 0 && prev != stage) {
      ::unlink(ckpt_path(job->id, stage_suffix(prev).c_str()).c_str());
    }
    metrics().ckpt_stage_writes.increment();
  } catch (const std::exception& e) {
    // Injected ckpt.write faults land here too: checkpointing degrades to
    // a warning, the job itself is unaffected (a crash replays it from
    // its last good checkpoint, or stage 0).
    std::fprintf(stderr,
                 "mcs_server: stage checkpoint for job %s failed: %s\n",
                 job->id.c_str(), e.what());
  }
}

void JobServer::remove_stage_checkpoints(const std::shared_ptr<Job>& job) {
  if (!options_.stage_checkpoints) return;
  const std::ptrdiff_t last =
      job->last_ckpt_journaled.load(std::memory_order_relaxed);
  if (last >= 0) {
    ::unlink(ckpt_path(job->id, stage_suffix(last).c_str()).c_str());
  }
  if (job->orig_ckpt_written) {
    ::unlink(ckpt_path(job->id, ".orig.snap").c_str());
  }
}

void JobServer::maybe_compact_journal() {
  if (!journal_.is_open() || options_.journal_max_bytes == 0) return;
  if (journal_.bytes() <= options_.journal_max_bytes) return;
  // mutex_ is held across the rewrite so a submit (which journals its
  // accepted entry under mutex_) can never fall between the state
  // snapshot below and the file swap -- it lands fully before (and is in
  // the snapshot) or fully after (and appends to the new file).  Runner
  // appends without mutex_ can land in the discarded old file; those are
  // stage/checkpoint markers whose loss only degrades a future resume,
  // never a job's at-least-once execution.  Lock order (mutex_ then the
  // journal's append lock) matches handle_submit.
  std::lock_guard<std::mutex> lock(mutex_);
  if (journal_.bytes() <= options_.journal_max_bytes) return;  // lost the race
  std::vector<JournalEntry> entries;
  for (const auto& [key, job] : jobs_) {
    if (job->request_line.empty()) continue;  // accepted while degraded
    JournalEntry a;
    a.kind = JournalEntry::Kind::kAccepted;
    a.job = job->id;
    a.payload = job->request_line;
    entries.push_back(std::move(a));
    if (job->journal_started.load(std::memory_order_relaxed)) {
      JournalEntry s;
      s.kind = JournalEntry::Kind::kStarted;
      s.job = job->id;
      entries.push_back(std::move(s));
    }
    const std::ptrdiff_t ck =
        job->last_ckpt_journaled.load(std::memory_order_relaxed);
    if (ck >= 0) {
      JournalEntry c;
      c.kind = JournalEntry::Kind::kStageCkpt;
      c.job = job->id;
      c.index = static_cast<std::size_t>(ck);
      entries.push_back(std::move(c));
    }
  }
  for (const std::string& id : done_cache_order_) {
    const auto it = done_cache_.find(id);
    if (it == done_cache_.end()) continue;
    JournalEntry d;
    d.kind = JournalEntry::Kind::kDone;
    d.job = id;
    d.status = "kept";
    d.payload = it->second;
    entries.push_back(std::move(d));
  }
  journal_.rewrite_and_reopen(options_.journal_path, entries);
  metrics().journal_compactions.increment();
}

}  // namespace mcs::server
