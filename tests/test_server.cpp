/// Tests for mcs::server -- the JSON protocol layer (parser, request
/// validation, response builders) and the JobServer itself: streaming stage
/// reports, weighted-deficit fairness, per-job cancellation and timeouts,
/// every flow error path (the daemon must stay healthy), drain semantics,
/// and the multi-tenant determinism contract: concurrent jobs from
/// *different* flows produce networks bit-identical to their serial runs
/// (the `thread_local NpnDatabase::shared` regression).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "mcs/ckpt/snapshot.hpp"
#include "mcs/fail/fail.hpp"
#include "mcs/flow/flow.hpp"
#include "mcs/io/aiger.hpp"
#include "mcs/obs/obs.hpp"
#include "mcs/server/journal.hpp"
#include "mcs/server/json.hpp"
#include "mcs/server/protocol.hpp"
#include "mcs/server/server.hpp"

namespace mcs::server {
namespace {

using namespace std::chrono_literals;

// --- json -------------------------------------------------------------------

TEST(Json, ParsesObjectsArraysScalars) {
  const Json v = Json::parse(
      R"({"a": 1.5, "b": "x\n\"y\"", "c": [true, false, null], "d": {"e": -3}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.find("a")->as_number(), 1.5);
  EXPECT_EQ(v.find("b")->as_string(), "x\n\"y\"");
  ASSERT_TRUE(v.find("c")->is_array());
  EXPECT_EQ(v.find("c")->items().size(), 3u);
  EXPECT_TRUE(v.find("c")->items()[0].as_bool());
  EXPECT_TRUE(v.find("c")->items()[2].is_null());
  EXPECT_EQ(v.find("d")->find("e")->as_int(), -3);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, UnicodeEscapesBecomeUtf8) {
  EXPECT_EQ(Json::parse(R"("Aé€")").as_string(),
            "A\xc3\xa9\xe2\x82\xac");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("{} trailing"), JsonError);
  EXPECT_THROW(Json::parse("{'single': 1}"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("\"bad \\q escape\""), JsonError);
  EXPECT_THROW(Json::parse("01x"), JsonError);
  EXPECT_THROW(Json::parse(R"("\ud800")"), JsonError);  // lone surrogate
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW(Json::parse(deep), JsonError);  // depth bound
}

TEST(Json, TypeMismatchThrows) {
  const Json v = Json::parse(R"({"n": 1})");
  EXPECT_THROW(v.find("n")->as_string(), JsonError);
  EXPECT_THROW(v.as_number(), JsonError);
}

TEST(Json, QuoteEscapesControlBytes) {
  EXPECT_EQ(json_quote("a\"b\\c\nd\x01"), R"("a\"b\\c\nd\u0001")");
  // Round-trip: whatever json_quote emits must parse back to the input.
  const std::string nasty = "tab\t nl\n cr\r quote\" back\\ bell\x07";
  EXPECT_EQ(Json::parse(json_quote(nasty)).as_string(), nasty);
}

// --- protocol ---------------------------------------------------------------

TEST(Protocol, ParsesSubmitWithAllFields) {
  const Request req = parse_request(
      R"({"type": "submit", "id": "j1", "flow": "gen:adder,bits=8",)"
      R"( "timeout_ms": 500, "threads": 2, "weight": 2.5,)"
      R"( "input": {"format": "aiger", "text": "aag 0 0 0 0 0\n"}})");
  EXPECT_EQ(req.kind, Request::Kind::kSubmit);
  EXPECT_EQ(req.id, "j1");
  EXPECT_EQ(req.flow_spec, "gen:adder,bits=8");
  EXPECT_EQ(req.timeout_ms, 500);
  EXPECT_EQ(req.threads, 2);
  EXPECT_DOUBLE_EQ(req.weight, 2.5);
  EXPECT_EQ(req.input_format, "aiger");
  EXPECT_EQ(req.input_text, "aag 0 0 0 0 0\n");
}

TEST(Protocol, SubmitRoundTripsThroughBuilder) {
  Request req;
  req.kind = Request::Kind::kSubmit;
  req.id = "weird \"id\"\n";
  req.flow_spec = "gen:adder,bits=8; compress2rs";
  req.weight = 0.5;
  req.input_format = "blif";
  req.input_text = ".model m\n.end\n";
  const Request back = parse_request(submit_line(req));
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.flow_spec, req.flow_spec);
  EXPECT_DOUBLE_EQ(back.weight, req.weight);
  EXPECT_EQ(back.input_format, req.input_format);
  EXPECT_EQ(back.input_text, req.input_text);
}

TEST(Protocol, RejectsBadRequests) {
  EXPECT_THROW(parse_request("not json"), ProtocolError);
  EXPECT_THROW(parse_request("[1, 2]"), ProtocolError);
  EXPECT_THROW(parse_request(R"({"type": "frobnicate"})"), ProtocolError);
  EXPECT_THROW(parse_request(R"({"type": "submit", "id": "x"})"),
               ProtocolError);  // missing flow
  EXPECT_THROW(parse_request(R"({"type": "submit", "flow": "f"})"),
               ProtocolError);  // missing id
  EXPECT_THROW(
      parse_request(R"({"type": "submit", "id": "", "flow": "f"})"),
      ProtocolError);
  EXPECT_THROW(parse_request(R"({"type": "submit", "id": 7, "flow": "f"})"),
               ProtocolError);  // mistyped id
  EXPECT_THROW(
      parse_request(
          R"({"type": "submit", "id": "x", "flow": "f", "weight": 0})"),
      ProtocolError);
  EXPECT_THROW(
      parse_request(
          R"({"type": "submit", "id": "x", "flow": "f", "timeout_ms": -1})"),
      ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"type": "submit", "id": "x", "flow": "f",)"
                    R"( "input": {"format": "verilog", "text": "m"}})"),
      ProtocolError);
  EXPECT_THROW(parse_request(R"({"type": "cancel"})"), ProtocolError);
}

TEST(Protocol, IgnoresUnknownExtraFields) {
  const Request req = parse_request(
      R"({"type": "submit", "id": "j", "flow": "f", "future_field": [1]})");
  EXPECT_EQ(req.id, "j");
}

// --- server test harness ----------------------------------------------------

/// In-process client: collects response lines, parses them on demand.
class TestClient {
 public:
  explicit TestClient(JobServer& server) : server_(server) {
    id_ = server.attach([this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mutex_);
      lines_.push_back(line);
    });
  }
  ~TestClient() { server_.detach(id_); }

  void send(const std::string& line) { server_.handle_line(id_, line); }

  std::vector<std::string> lines() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }

  /// Blocks until a "done" (or job-scoped "error") line for \p job arrived;
  /// returns its status ("ok"/"error"/"cancelled"/"timeout") or "rejected".
  std::string wait_outcome(const std::string& job,
                           std::chrono::milliseconds timeout = 30s) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const std::string& line : lines_) {
          const Json msg = Json::parse(line);
          const Json* type = msg.find("type");
          const Json* j = msg.find("job");
          if (j == nullptr || j->as_string() != job) continue;
          if (type->as_string() == "done")
            return msg.find("status")->as_string();
          if (type->as_string() == "error") return "rejected";
        }
      }
      if (std::chrono::steady_clock::now() > deadline) return "TIMEOUT";
      std::this_thread::sleep_for(1ms);
    }
  }

  /// Order in which jobs finished (their "done" lines).
  std::vector<std::string> done_order() const {
    std::vector<std::string> order;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& line : lines_) {
      const Json msg = Json::parse(line);
      if (const Json* t = msg.find("type"); t && t->as_string() == "done")
        order.push_back(msg.find("job")->as_string());
    }
    return order;
  }

  /// Streamed stage reports of \p job, parsed.
  std::vector<Json> stages_of(const std::string& job) const {
    std::vector<Json> stages;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& line : lines_) {
      Json msg = Json::parse(line);
      const Json* t = msg.find("type");
      if (t && t->as_string() == "stage" &&
          msg.find("job")->as_string() == job) {
        stages.push_back(std::move(msg));
      }
    }
    return stages;
  }

 private:
  JobServer& server_;
  std::uint64_t id_ = 0;
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

std::string submit(const std::string& id, const std::string& flow,
                   std::int64_t timeout_ms = 0, double weight = 1.0) {
  Request req;
  req.kind = Request::Kind::kSubmit;
  req.id = id;
  req.flow_spec = flow;
  req.timeout_ms = timeout_ms;
  req.weight = weight;
  return submit_line(req);
}

/// Latest emitted line whose "type" is \p type, parsed; null if none.
Json last_line_of_type(const std::vector<std::string>& lines,
                       const std::string& type) {
  Json found = Json::null();
  for (const std::string& line : lines) {
    Json msg = Json::parse(line);
    if (const Json* t = msg.find("type"); t && t->as_string() == type) {
      found = std::move(msg);
    }
  }
  return found;
}

/// Polls the "jobs" admin verb until \p id reports state "running"
/// (ASSERT-fails after 30s).  Used with a one-shot `flow.stage` delay to
/// pin a job observably in flight regardless of machine speed.
void wait_until_running(TestClient& client, const std::string& id) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    client.send(jobs_request_line());
    const Json jobs = last_line_of_type(client.lines(), "jobs");
    if (jobs.is_object()) {
      for (const Json& row : jobs.find("jobs")->items()) {
        if (row.find("id")->as_string() == id &&
            row.find("state")->as_string() == "running") {
          return;
        }
      }
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << id << " never reached the running state";
    std::this_thread::sleep_for(1ms);
  }
}

// --- server: happy path -----------------------------------------------------

TEST(JobServer, StreamsStagesAndCompletes) {
  JobServer server(ServerOptions{.job_slots = 2});
  TestClient client(server);
  client.send(submit("j1", "gen:adder,bits=8; compress2rs; map_lut:k=4"));
  EXPECT_EQ(client.wait_outcome("j1"), "ok");

  const auto stages = client.stages_of("j1");
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(stages[0].find("index")->as_int(), 0);
  const Json* rep = stages[0].find("stage");
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->find("pass")->as_string(), "gen");
  EXPECT_TRUE(rep->find("ok")->as_bool());
  EXPECT_GT(rep->find("gates")->as_int(), 0);
  // The stage payload carries the obs delta (counters moved during gen).
  EXPECT_NE(rep->find("metrics"), nullptr);
  EXPECT_EQ(stages[2].find("stage")->find("pass")->as_string(), "map_lut");

  const ServerCounters c = server.counters();
  EXPECT_EQ(c.accepted, 1u);
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(server.jobs_in_flight(), 0u);
}

TEST(JobServer, InlineInputNetworkFeedsSourcelessFlow) {
  // A 1-AND AIGER fed inline; the flow has no gen/read stage.
  const std::string aag = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n";
  Request req;
  req.kind = Request::Kind::kSubmit;
  req.id = "inline";
  req.flow_spec = "strash; map_lut:k=4";
  req.input_format = "aiger";
  req.input_text = aag;

  JobServer server(ServerOptions{.job_slots = 1});
  TestClient client(server);
  client.send(submit_line(req));
  EXPECT_EQ(client.wait_outcome("inline"), "ok");
  const auto stages = client.stages_of("inline");
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].find("stage")->find("gates")->as_int(), 1);
}

// --- server: error paths (the daemon must stay healthy through all) ---------

TEST(JobServer, SurvivesEveryClientError) {
  JobServer server(ServerOptions{.job_slots = 2});
  TestClient client(server);

  // 1. Malformed JSON -> job-less protocol error.
  client.send("this is not json");
  // 2. Unknown pass -> rejected at submit.
  client.send(submit("bad-pass", "definitely_not_a_pass"));
  // 3. Invalid param value -> rejected at submit.
  client.send(submit("bad-param", "gen:adder,bits=banana"));
  // 4. Unknown param key -> rejected at submit.
  client.send(submit("bad-key", "gen:adder,frobs=3"));
  // 5. Bad inline input -> rejected at submit.
  client.send(
      R"({"type": "submit", "id": "bad-input", "flow": "strash",)"
      R"( "input": {"format": "aiger", "text": "not an aiger file"}})");
  // 6. Mid-flow stage failure -> accepted, then done status "error".
  client.send(submit("bad-stage", "read_aiger:file=/nonexistent/x.aig"));
  // 7. Cancelling an unknown job -> error, no crash.
  client.send(cancel_line("never-existed"));

  EXPECT_EQ(client.wait_outcome("bad-pass"), "rejected");
  EXPECT_EQ(client.wait_outcome("bad-param"), "rejected");
  EXPECT_EQ(client.wait_outcome("bad-key"), "rejected");
  EXPECT_EQ(client.wait_outcome("bad-input"), "rejected");
  EXPECT_EQ(client.wait_outcome("bad-stage"), "error");

  // The failed stage still produced a well-formed streamed report.
  const auto stages = client.stages_of("bad-stage");
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_FALSE(stages[0].find("stage")->find("ok")->as_bool());

  // After all that, the server still runs jobs to completion.
  client.send(submit("healthy", "gen:adder,bits=8; compress2rs"));
  EXPECT_EQ(client.wait_outcome("healthy"), "ok");

  const ServerCounters c = server.counters();
  EXPECT_EQ(c.protocol_errors, 1u);
  EXPECT_EQ(c.rejected, 4u);
  EXPECT_EQ(c.failed, 1u);
  EXPECT_EQ(c.completed, 1u);  // only "healthy" finished ok
  EXPECT_EQ(server.jobs_in_flight(), 0u);
}

TEST(JobServer, RejectsDuplicateInFlightIds) {
  JobServer server(ServerOptions{.job_slots = 1});
  TestClient client(server);
  client.send(submit("dup", "gen:multiplier,bits=32; compress2rs"));
  client.send(submit("dup", "gen:adder,bits=8"));  // still in flight
  EXPECT_EQ(client.wait_outcome("dup"), "rejected");  // the *second* answer
  // The first "dup" still completes fine.
  for (int i = 0; i < 30000; ++i) {
    if (server.jobs_in_flight() == 0) break;
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(server.counters().completed, 1u);
}

TEST(JobServer, DetachWaitsForASinkCallInProgress) {
  // The client's owner frees what its sink writes to as soon as detach()
  // returns, so detach must wait out a runner already inside the sink and
  // let no later call start.  Declared before the server: the sink's state
  // must outlive every runner.
  std::mutex mutex;
  std::condition_variable cv;
  bool entered = false;
  std::atomic<bool> left{false};
  std::atomic<bool> detached{false};
  std::atomic<int> calls_after_detach{0};
  JobServer server(ServerOptions{.job_slots = 1});
  const std::uint64_t client = server.attach([&](const std::string& line) {
    if (detached.load()) calls_after_detach.fetch_add(1);
    if (line.find("\"type\": \"stage\"") == std::string::npos) return;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (entered) return;
      entered = true;
    }
    cv.notify_all();
    std::this_thread::sleep_for(200ms);
    left.store(true);
  });
  server.handle_line(client,
                     submit("slow-sink", "gen:adder,bits=8; compress2rs"));
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 30s, [&] { return entered; }));
  }
  server.detach(client);
  detached.store(true);
  EXPECT_TRUE(left.load()) << "detach returned while the sink was running";

  // The rest of the job runs unobserved: its later lines go nowhere.
  for (int i = 0; i < 30000 && server.jobs_in_flight() != 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(server.jobs_in_flight(), 0u);
  EXPECT_EQ(calls_after_detach.load(), 0);
}

// --- server: cancellation and timeouts --------------------------------------

TEST(JobServer, CancelsRunningJobAtStageBoundary) {
  JobServer server(ServerOptions{.job_slots = 1});
  TestClient client(server);
  // A one-shot delay pins the job inside its first stage so the cancel
  // deterministically lands mid-flight (a fast machine can otherwise
  // finish the whole flow before the cancel is issued).
  fail::configure("flow.stage=delay,ms=300,count=1");
  client.send(
      submit("victim",
             "gen:multiplier,bits=32; compress2rs; compress2rs; compress2rs"));
  wait_until_running(client, "victim");
  const bool cancelled = server.cancel("victim");
  fail::disable();
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(client.wait_outcome("victim"), "cancelled");

  // The synthetic final stage is streamed and marked failed.  (In the
  // microscopic window where the cancel lands while the job sits re-queued
  // between stages it is finalized without one; every streamed stage is
  // then a completed, ok one.)
  const auto stages = client.stages_of("victim");
  ASSERT_GE(stages.size(), 1u);
  const Json* last = stages.back().find("stage");
  if (!last->find("ok")->as_bool()) {
    EXPECT_EQ(last->find("note")->as_string(), "cancelled");
  }

  // Unaffected future work.
  client.send(submit("after", "gen:adder,bits=8"));
  EXPECT_EQ(client.wait_outcome("after"), "ok");
  EXPECT_EQ(server.counters().cancelled, 1u);
}

TEST(JobServer, CancelsQueuedJobImmediately) {
  JobServer server(ServerOptions{.job_slots = 1});
  TestClient client(server);
  client.send(submit("hog", "gen:multiplier,bits=32; compress2rs"));
  client.send(submit("queued", "gen:adder,bits=8"));
  client.send(cancel_line("queued"));  // likely still behind the hog
  const std::string status = client.wait_outcome("queued");
  // Raced: either it was still queued (cancelled, zero stages) or it
  // slipped onto the runner first (ok).  Both leave the server coherent.
  EXPECT_TRUE(status == "cancelled" || status == "ok") << status;
  EXPECT_EQ(client.wait_outcome("hog"), "ok");
  EXPECT_EQ(server.jobs_in_flight(), 0u);
}

TEST(JobServer, EnforcesPerJobTimeout) {
  JobServer server(ServerOptions{.job_slots = 2});
  TestClient client(server);
  client.send(submit("slow", "gen:multiplier,bits=32; compress2rs; compress2rs",
                     /*timeout_ms=*/5));
  EXPECT_EQ(client.wait_outcome("slow"), "timeout");

  // Other jobs are untouched by a neighbour's deadline.
  client.send(submit("fine", "gen:adder,bits=8; compress2rs"));
  EXPECT_EQ(client.wait_outcome("fine"), "ok");
  EXPECT_EQ(server.counters().timed_out, 1u);
}

TEST(JobServer, ServerDefaultTimeoutApplies) {
  JobServer server(
      ServerOptions{.job_slots = 1, .default_timeout_ms = 5});
  TestClient client(server);
  // Two slow stages: the deadline has certainly passed by the boundary in
  // front of the second one (the token is only checked at boundaries).
  client.send(
      submit("slow", "gen:multiplier,bits=32; compress2rs; compress2rs"));
  EXPECT_EQ(client.wait_outcome("slow"), "timeout");
}

// --- server: fairness -------------------------------------------------------

TEST(JobServer, SmallJobsOvertakeAHeavyOne) {
  // One heavy optimization plus a burst of small maps, submitted *after*
  // the heavy job: with stage-granular fair scheduling every small job
  // must finish before the heavy one does.
  JobServer server(ServerOptions{.job_slots = 2});
  TestClient client(server);
  client.send(submit("heavy", "gen:multiplier,bits=64; compress2rs"));
  for (int i = 0; i < 4; ++i) {
    client.send(submit("small" + std::to_string(i),
                       "gen:adder,bits=8; map_lut:k=4"));
  }
  EXPECT_EQ(client.wait_outcome("heavy"), "ok");
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(client.wait_outcome("small" + std::to_string(i)), "ok");
  }
  const std::vector<std::string> order = client.done_order();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order.back(), "heavy")
      << "heavy job should finish last, got order: " << [&] {
           std::string s;
           for (const auto& o : order) s += o + " ";
           return s;
         }();
}

// --- server: drain ----------------------------------------------------------

TEST(JobServer, DrainFinishesAcceptedWorkAndRejectsNew) {
  JobServer server(ServerOptions{.job_slots = 2});
  TestClient client(server);
  client.send(submit("j1", "gen:multiplier,bits=32; compress2rs"));
  client.send(shutdown_line());
  client.send(submit("late", "gen:adder,bits=8"));
  EXPECT_EQ(client.wait_outcome("late"), "rejected");
  server.drain();
  EXPECT_EQ(client.wait_outcome("j1"), "ok");
  EXPECT_EQ(server.jobs_in_flight(), 0u);
  const ServerCounters c = server.counters();
  EXPECT_TRUE(c.draining);
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.rejected, 1u);
}

// --- server: multi-tenant determinism ---------------------------------------

/// Two *different* rewrite-heavy flows (different bases, so different
/// thread_local NpnDatabase::shared entries) run many times concurrently
/// through the server; every run must be bit-identical to the serial
/// run_flow result.  This is the regression for interleaving jobs on
/// shared workers -- see NpnDatabase::shared's concurrency contract.
TEST(JobServer, ConcurrentMixedFlowsMatchSerialBitForBit) {
  const std::string dir = ::testing::TempDir();
  const std::string flow_a =
      "gen:adder,bits=16; rewrite:basis=aig; refactor:basis=aig; write_aiger:file=";
  const std::string flow_b =
      "gen:multiplier,bits=8; compress2rs:basis=xmg; write_aiger:file=";

  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());
    return text.str();
  };

  // Serial references, on this thread, through plain run_flow.
  {
    flow::FlowContext ctx;
    EXPECT_TRUE(flow::run_flow(flow_a + dir + "ref_a.aig", ctx).ok);
  }
  {
    flow::FlowContext ctx;
    EXPECT_TRUE(flow::run_flow(flow_b + dir + "ref_b.aig", ctx).ok);
  }
  const std::string ref_a = slurp(dir + "ref_a.aig");
  const std::string ref_b = slurp(dir + "ref_b.aig");
  ASSERT_FALSE(ref_a.empty());
  ASSERT_FALSE(ref_b.empty());

  // Concurrent mixed batch through the server (3 of each, interleaved).
  JobServer server(ServerOptions{.job_slots = 4});
  TestClient client(server);
  for (int i = 0; i < 3; ++i) {
    client.send(submit("a" + std::to_string(i),
                       flow_a + dir + "srv_a" + std::to_string(i) + ".aig"));
    client.send(submit("b" + std::to_string(i),
                       flow_b + dir + "srv_b" + std::to_string(i) + ".aig"));
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.wait_outcome("a" + std::to_string(i)), "ok");
    EXPECT_EQ(client.wait_outcome("b" + std::to_string(i)), "ok");
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(slurp(dir + "srv_a" + std::to_string(i) + ".aig"), ref_a)
        << "job a" << i << " diverged from the serial run";
    EXPECT_EQ(slurp(dir + "srv_b" + std::to_string(i) + ".aig"), ref_b)
        << "job b" << i << " diverged from the serial run";
  }
}

// --- obs v2: per-job metric attribution --------------------------------------

/// Extracts the raw `"metrics": {...}` sub-document of a streamed stage
/// line, byte for byte.  Comparing serialized text (not parsed values) is
/// deliberate: the acceptance bar for domain attribution is *bit-equality*
/// of the per-stage deltas, so even an ordering or formatting wobble fails.
std::string metrics_blob(const std::string& line) {
  const std::size_t key = line.find("\"metrics\": {");
  if (key == std::string::npos) return {};
  const std::size_t open = line.find('{', key);
  int depth = 0;
  for (std::size_t i = open; i < line.size(); ++i) {
    if (line[i] == '{') ++depth;
    if (line[i] == '}' && --depth == 0) return line.substr(open, i - open + 1);
  }
  return {};
}

/// The metrics sub-documents of \p job's streamed stage lines, in stage
/// order.
std::vector<std::string> stage_metric_blobs(
    const std::vector<std::string>& lines, const std::string& job) {
  std::vector<std::string> blobs;
  for (const std::string& line : lines) {
    const Json msg = Json::parse(line);
    const Json* t = msg.find("type");
    const Json* j = msg.find("job");
    if (t != nullptr && t->as_string() == "stage" && j != nullptr &&
        j->as_string() == job) {
      blobs.push_back(metrics_blob(line));
    }
  }
  return blobs;
}

/// The obs v2 attribution contract (ISSUE acceptance): with per-job metric
/// domains, a job's per-stage counter deltas are *its own work only*, so
/// running N jobs concurrently must reproduce the serial deltas bit for
/// bit.  Before v2 the deltas read the process-global registry and
/// concurrent neighbors bled into each other's numbers.
TEST(JobServer, ConcurrentJobMetricsMatchSerialBitForBit) {
  const std::string flow_a =
      "gen:adder,bits=16; rewrite:basis=aig; refactor:basis=aig";
  const std::string flow_b = "gen:multiplier,bits=8; compress2rs";

  // Serial references: one job at a time on a single-slot server.
  std::vector<std::string> ref_a;
  std::vector<std::string> ref_b;
  {
    JobServer server(ServerOptions{.job_slots = 1});
    TestClient client(server);
    client.send(submit("ref-a", flow_a));
    ASSERT_EQ(client.wait_outcome("ref-a"), "ok");
    client.send(submit("ref-b", flow_b));
    ASSERT_EQ(client.wait_outcome("ref-b"), "ok");
    ref_a = stage_metric_blobs(client.lines(), "ref-a");
    ref_b = stage_metric_blobs(client.lines(), "ref-b");
  }
  ASSERT_EQ(ref_a.size(), 3u);
  ASSERT_EQ(ref_b.size(), 2u);
  for (const std::string& blob : ref_a) ASSERT_FALSE(blob.empty());
  for (const std::string& blob : ref_b) ASSERT_FALSE(blob.empty());

  // Interleaved batch: two of each flow, all four in flight at once.
  JobServer server(ServerOptions{.job_slots = 4});
  TestClient client(server);
  const std::string a[] = {"a0", "a1"};
  const std::string b[] = {"b0", "b1"};
  for (int i = 0; i < 2; ++i) {
    client.send(submit(a[i], flow_a));
    client.send(submit(b[i], flow_b));
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(client.wait_outcome(a[i]), "ok");
    ASSERT_EQ(client.wait_outcome(b[i]), "ok");
  }
  const std::vector<std::string> lines = client.lines();
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(stage_metric_blobs(lines, a[i]), ref_a)
        << "job " << a[i] << "'s metric deltas diverged from the serial run";
    EXPECT_EQ(stage_metric_blobs(lines, b[i]), ref_b)
        << "job " << b[i] << "'s metric deltas diverged from the serial run";
  }
}

// --- obs v2: admin verbs ------------------------------------------------------

TEST(JobServer, AdminVerbsReportCountersHealthAndJobRows) {
  JobServer server(ServerOptions{.job_slots = 1});
  TestClient client(server);

  // A queued job behind a running one so the "jobs" table shows both
  // scheduler states.  A one-shot delay on the first stage boundary keeps
  // "front" observably running -- with warm caches the whole flow can
  // otherwise finish between two polls.
  fail::configure("flow.stage=delay,ms=300,count=1");
  client.send(submit("front", "gen:multiplier,bits=64; compress2rs"));
  client.send(submit("back", "gen:adder,bits=8"));

  // Poll until the first job is dispatched (state "running").
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  Json jobs = Json::null();
  for (;;) {
    client.send(jobs_request_line());
    jobs = last_line_of_type(client.lines(), "jobs");
    ASSERT_TRUE(jobs.is_object());
    const Json* rows = jobs.find("jobs");
    ASSERT_NE(rows, nullptr);
    bool front_running = false;
    for (const Json& row : rows->items()) {
      if (row.find("id")->as_string() == "front" &&
          row.find("state")->as_string() == "running") {
        front_running = true;
      }
    }
    // Both rows must be visible: the submits are pipelined, so "back" can
    // lag "front"'s dispatch by a beat.
    if (front_running && rows->items().size() == 2) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      fail::disable();
      FAIL() << "job never reached the running state";
    }
    std::this_thread::sleep_for(1ms);
  }
  fail::disable();

  // Row shape: both jobs present with their scheduler state and the
  // attribution fields wired to the job's domain.
  const Json* rows = jobs.find("jobs");
  ASSERT_EQ(rows->items().size(), 2u);
  bool saw_back = false;
  for (const Json& row : rows->items()) {
    if (row.find("id")->as_string() != "back") continue;
    saw_back = true;
    EXPECT_EQ(row.find("state")->as_string(), "queued");
    EXPECT_EQ(row.find("stage")->as_int(), 0);
    EXPECT_EQ(row.find("stages")->as_int(), 1);
    EXPECT_EQ(row.find("pass")->as_string(), "gen");
    EXPECT_EQ(row.find("cpu_us")->as_int(), 0);  // never dispatched
    ASSERT_NE(row.find("queue_wait_seconds"), nullptr);
  }
  EXPECT_TRUE(saw_back);

  // "stats" embeds the obs registry exports verbatim plus the counters.
  client.send(stats_request_line());
  const Json stats = last_line_of_type(client.lines(), "stats");
  ASSERT_TRUE(stats.is_object());
  EXPECT_GE(stats.find("accepted")->as_int(), 2);
  EXPECT_GE(stats.find("uptime_seconds")->as_number(), 0.0);
  ASSERT_NE(stats.find("metrics"), nullptr);
  EXPECT_TRUE(stats.find("metrics")->is_object());
  ASSERT_NE(stats.find("ring"), nullptr);
  ASSERT_NE(stats.find("prometheus"), nullptr);
  EXPECT_TRUE(stats.find("prometheus")->is_string());

  // "health" answers with scheduler load and the telemetry-sampler state.
  client.send(health_request_line());
  const Json health = last_line_of_type(client.lines(), "health");
  ASSERT_TRUE(health.is_object());
  EXPECT_EQ(health.find("status")->as_string(), "ok");
  EXPECT_EQ(health.find("running")->as_int() + health.find("queued")->as_int(),
            2);
  ASSERT_NE(health.find("journal_bytes"), nullptr);
  ASSERT_NE(health.find("memory_bytes"), nullptr);
#ifndef MCS_OBS_DISABLE
  EXPECT_TRUE(health.find("telemetry")->as_bool());  // default options: on
#else
  EXPECT_FALSE(health.find("telemetry")->as_bool());  // sampler stubbed out
#endif

  client.send(cancel_line("front"));
  client.send(cancel_line("back"));
  server.drain();
}

TEST(JobServer, AdminVerbsAnswerDuringActiveDrain) {
  JobServer server(ServerOptions{.job_slots = 1});
  TestClient client(server);
  client.send(submit("slow", "gen:multiplier,bits=64; compress2rs"));
  client.send(shutdown_line());

  // drain() blocks until "slow" finishes; observation must not.
  std::thread draining([&] { server.drain(); });
  client.send(health_request_line());
  client.send(stats_request_line());
  client.send(jobs_request_line());

  const Json health = last_line_of_type(client.lines(), "health");
  ASSERT_TRUE(health.is_object());
  EXPECT_EQ(health.find("status")->as_string(), "draining");
  const Json stats = last_line_of_type(client.lines(), "stats");
  ASSERT_TRUE(stats.is_object());
  EXPECT_GE(stats.find("accepted")->as_int(), 1);
  const Json jobs = last_line_of_type(client.lines(), "jobs");
  ASSERT_TRUE(jobs.is_object());

  draining.join();
  EXPECT_EQ(client.wait_outcome("slow"), "ok");
  EXPECT_EQ(server.jobs_in_flight(), 0u);
}

// --- journal ----------------------------------------------------------------

TEST(Journal, EntriesRoundTripThroughToLine) {
  JournalEntry accepted;
  accepted.kind = JournalEntry::Kind::kAccepted;
  accepted.job = "weird \"job\"\n";
  accepted.payload = submit("weird \"job\"\n", "gen:adder,bits=8");
  JournalEntry started;
  started.kind = JournalEntry::Kind::kStarted;
  started.job = "j";
  JournalEntry stage;
  stage.kind = JournalEntry::Kind::kStage;
  stage.job = "j";
  stage.index = 3;
  JournalEntry done;
  done.kind = JournalEntry::Kind::kDone;
  done.job = "j";
  done.status = "ok";
  done.payload = R"({"type": "done", "job": "j", "status": "ok"})";
  JournalEntry shutdown;
  shutdown.kind = JournalEntry::Kind::kShutdown;

  for (const JournalEntry& e :
       {accepted, started, stage, done, shutdown}) {
    const JournalEntry back = JournalEntry::parse(e.to_line());
    EXPECT_EQ(back.kind, e.kind);
    EXPECT_EQ(back.job, e.job);
    EXPECT_EQ(back.payload, e.payload);
    EXPECT_EQ(back.index, e.index);
    EXPECT_EQ(back.status, e.status);
  }
}

TEST(Journal, LoadToleratesATornTailLine) {
  const std::string path = ::testing::TempDir() + "mcs_journal_torn.ndjson";
  {
    Journal j;
    j.open(path);
    JournalEntry e;
    e.kind = JournalEntry::Kind::kAccepted;
    e.job = "j1";
    e.payload = submit("j1", "gen:adder,bits=8");
    j.append(e);
    e.job = "j2";
    e.payload = submit("j2", "gen:adder,bits=8");
    j.append(e);
  }
  {
    // Simulate a crash mid-append: a truncated, unterminated last line.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << R"({"e": "done", "job": "j1", "sta)";
  }
  std::size_t skipped = 0;
  const std::vector<JournalEntry> entries = Journal::load(path, &skipped);
  EXPECT_EQ(entries.size(), 2u);
  EXPECT_EQ(skipped, 1u);  // the torn tail, counted but not fatal
  std::remove(path.c_str());
}

TEST(Journal, AnalyzeSeparatesPendingFromCompleted) {
  const std::string sub1 = submit("j1", "gen:adder,bits=8");
  const std::string sub2 = submit("j2", "gen:adder,bits=8");
  std::vector<JournalEntry> entries;
  JournalEntry e;
  e.kind = JournalEntry::Kind::kAccepted;
  e.job = "j1";
  e.payload = sub1;
  entries.push_back(e);
  e.job = "j2";
  e.payload = sub2;
  entries.push_back(e);
  e = {};
  e.kind = JournalEntry::Kind::kStarted;
  e.job = "j1";
  entries.push_back(e);
  e = {};
  e.kind = JournalEntry::Kind::kDone;
  e.job = "j1";
  e.status = "ok";
  e.payload = "done-line-j1";
  entries.push_back(e);

  Recovery rec = Journal::analyze(entries);
  EXPECT_FALSE(rec.clean_shutdown);  // no trailing shutdown entry
  ASSERT_EQ(rec.pending.size(), 1u);
  EXPECT_EQ(rec.pending[0].id, "j2");  // j1 finished; only j2 needs replay
  EXPECT_EQ(rec.pending[0].request, sub2);
  EXPECT_EQ(rec.pending[0].ckpt_index, -1);  // no checkpoint journaled
  ASSERT_EQ(rec.completed.size(), 1u);
  EXPECT_EQ(rec.completed[0].first, "j1");
  EXPECT_EQ(rec.completed[0].second, "done-line-j1");

  e = {};
  e.kind = JournalEntry::Kind::kShutdown;
  entries.push_back(e);
  rec = Journal::analyze(entries);
  EXPECT_TRUE(rec.clean_shutdown);

  // Id reuse across lives: the newest done line wins, deduplicated.
  e = {};
  e.kind = JournalEntry::Kind::kAccepted;
  e.job = "j1";
  e.payload = sub1;
  entries.push_back(e);
  e = {};
  e.kind = JournalEntry::Kind::kDone;
  e.job = "j1";
  e.status = "ok";
  e.payload = "done-line-j1-second-life";
  entries.push_back(e);
  rec = Journal::analyze(entries);
  ASSERT_EQ(rec.completed.size(), 1u);
  EXPECT_EQ(rec.completed[0].second, "done-line-j1-second-life");
}

TEST(Journal, CompactKeepsOnlyRetainedDoneEntries) {
  const std::string path = ::testing::TempDir() + "mcs_journal_compact.ndjson";
  {
    Journal j;
    j.open(path);
    JournalEntry e;
    e.kind = JournalEntry::Kind::kAccepted;
    e.job = "j1";
    e.payload = submit("j1", "gen:adder,bits=8");
    j.append(e);
    e.kind = JournalEntry::Kind::kDone;
    e.status = "ok";
    e.payload = "done-line-j1";
    j.append(e);
    e.kind = JournalEntry::Kind::kAccepted;
    e.job = "j2";
    e.payload = submit("j2", "gen:adder,bits=8");
    j.append(e);
  }
  const Recovery rec = Journal::analyze(Journal::load(path, nullptr));
  Journal::compact(path, rec);

  // The compacted journal replays to: nothing pending (pending jobs are
  // re-journaled by the server on re-submission), j1's done line kept.
  const Recovery after = Journal::analyze(Journal::load(path, nullptr));
  EXPECT_TRUE(after.pending.empty());
  ASSERT_EQ(after.completed.size(), 1u);
  EXPECT_EQ(after.completed[0].first, "j1");
  EXPECT_EQ(after.completed[0].second, "done-line-j1");
  std::remove(path.c_str());
}

// --- server: crash recovery -------------------------------------------------

TEST(JobServer, ReplaysUnfinishedJournalJobsAsRetried) {
  const std::string path = ::testing::TempDir() + "mcs_journal_replay.ndjson";
  std::remove(path.c_str());
  {
    // A journal left behind by a worker that died mid-job: the accept is
    // on the books, no done line, no shutdown marker.
    Journal j;
    j.open(path);
    JournalEntry e;
    e.kind = JournalEntry::Kind::kAccepted;
    e.job = "crashjob";
    e.payload = submit("crashjob", "gen:adder,bits=8; compress2rs");
    j.append(e);
  }

  JobServer server(ServerOptions{.job_slots = 1, .journal_path = path});
  EXPECT_EQ(server.counters().retried, 1u);

  // The replayed job runs unobserved (internal client 0) until its owner
  // re-binds by id; from then on its lines -- or its cached done line,
  // if it already finished -- reach this client.
  TestClient client(server);
  client.send(attach_line("crashjob"));
  EXPECT_EQ(client.wait_outcome("crashjob"), "ok");

  bool saw_done = false;
  for (const std::string& line : client.lines()) {
    const Json msg = Json::parse(line);
    const Json* t = msg.find("type");
    if (t == nullptr || t->as_string() != "done") continue;
    saw_done = true;
    const Json* retried = msg.find("retried");
    ASSERT_NE(retried, nullptr) << line;
    EXPECT_TRUE(retried->as_bool());
  }
  EXPECT_TRUE(saw_done);

  // Attaching to a job the journal never heard of is an error, not a hang.
  client.send(attach_line("never-existed"));
  EXPECT_EQ(client.wait_outcome("never-existed"), "rejected");
  std::remove(path.c_str());
}

TEST(JobServer, CleanShutdownReplaysNothingAndAnswersAttachFromCache) {
  const std::string path = ::testing::TempDir() + "mcs_journal_clean.ndjson";
  std::remove(path.c_str());
  {
    JobServer server(ServerOptions{.job_slots = 1, .journal_path = path});
    TestClient client(server);
    client.send(submit("j1", "gen:adder,bits=8"));
    EXPECT_EQ(client.wait_outcome("j1"), "ok");
  }  // destructor journals the shutdown marker

  JobServer server(ServerOptions{.job_slots = 1, .journal_path = path});
  EXPECT_EQ(server.counters().retried, 0u);
  EXPECT_EQ(server.jobs_in_flight(), 0u);

  // The retained done line still answers a late re-attach.
  TestClient client(server);
  client.send(attach_line("j1"));
  EXPECT_EQ(client.wait_outcome("j1"), "ok");
  std::remove(path.c_str());
}

// --- server: stage-level resume (mcs::ckpt) ---------------------------------

TEST(Journal, StageCkptEntriesRoundTripAndDriveTheResumeIndex) {
  JournalEntry e;
  e.kind = JournalEntry::Kind::kStageCkpt;
  e.job = "j1";
  e.index = 3;
  const JournalEntry back = JournalEntry::parse(e.to_line());
  EXPECT_EQ(back.kind, JournalEntry::Kind::kStageCkpt);
  EXPECT_EQ(back.job, "j1");
  EXPECT_EQ(back.index, 3u);

  std::vector<JournalEntry> entries;
  JournalEntry a;
  a.kind = JournalEntry::Kind::kAccepted;
  a.job = "j1";
  a.payload = submit("j1", "gen:adder,bits=8; compress2rs; rewrite");
  entries.push_back(a);
  Recovery rec = Journal::analyze(entries);
  ASSERT_EQ(rec.pending.size(), 1u);
  EXPECT_EQ(rec.pending[0].ckpt_index, -1);  // no checkpoint yet

  e.index = 0;
  entries.push_back(e);
  e.index = 2;
  entries.push_back(e);
  rec = Journal::analyze(entries);
  ASSERT_EQ(rec.pending.size(), 1u);
  EXPECT_EQ(rec.pending[0].ckpt_index, 2);  // the latest checkpoint wins

  // A checkpoint entry without its accepted entry (compaction artifact /
  // torn journal) must not fabricate a pending job.
  rec = Journal::analyze({e});
  EXPECT_TRUE(rec.pending.empty());

  JournalEntry d;
  d.kind = JournalEntry::Kind::kDone;
  d.job = "j1";
  d.status = "ok";
  d.payload = "done-line";
  entries.push_back(d);
  rec = Journal::analyze(entries);
  EXPECT_TRUE(rec.pending.empty());
}

TEST(JobServer, ResumesReplayedJobFromItsStageCheckpoint) {
  const std::string path = ::testing::TempDir() + "mcs_journal_resume.ndjson";
  const std::string ckpt_dir = path + ".ckpt";
  std::remove(path.c_str());

  // Fabricate the on-disk state of a worker killed right after stage 0 of
  // a three-stage flow: the journal pairs the accepted entry with a
  // "stage_ckpt", and the checkpoint directory holds the stage-0 snapshot
  // (exactly what write_stage_checkpoint leaves behind).
  flow::FlowContext ctx;
  flow::run_flow("gen:adder,bits=8", ctx);
  ::mkdir(ckpt_dir.c_str(), 0755);
  ckpt::write_snapshot_file(ctx.net, ckpt_dir + "/resumejob.s0.snap");
  {
    Journal j;
    j.open(path);
    JournalEntry e;
    e.kind = JournalEntry::Kind::kAccepted;
    e.job = "resumejob";
    e.payload = submit("resumejob", "gen:adder,bits=8; compress2rs; rewrite");
    j.append(e);
    e = {};
    e.kind = JournalEntry::Kind::kStarted;
    e.job = "resumejob";
    j.append(e);
    e.kind = JournalEntry::Kind::kStage;
    e.index = 0;
    j.append(e);
    e.kind = JournalEntry::Kind::kStageCkpt;
    j.append(e);
  }

  JobServer server(ServerOptions{.job_slots = 1, .journal_path = path});
  EXPECT_EQ(server.counters().retried, 1u);
  EXPECT_EQ(server.counters().resumed, 1u);

  TestClient client(server);
  client.send(attach_line("resumejob"));
  EXPECT_EQ(client.wait_outcome("resumejob"), "ok");

  // The done line says where execution actually restarted.
  bool saw_done = false;
  for (const std::string& line : client.lines()) {
    const Json msg = Json::parse(line);
    const Json* t = msg.find("type");
    if (t == nullptr || t->as_string() != "done") continue;
    saw_done = true;
    const Json* retried = msg.find("retried");
    ASSERT_NE(retried, nullptr) << line;
    EXPECT_TRUE(retried->as_bool());
    const Json* resumed = msg.find("resumed_stage");
    ASSERT_NE(resumed, nullptr) << line;
    EXPECT_EQ(resumed->as_int(), 1);  // stage 0 was checkpointed, skip it
  }
  EXPECT_TRUE(saw_done);

  std::remove(path.c_str());
  std::remove((ckpt_dir + "/resumejob.s0.snap").c_str());
  ::rmdir(ckpt_dir.c_str());
}

/// Leaves the on-disk state of a worker killed right after stage \p index
/// of job \p id: the journal's accepted, started and stage entries up to
/// \p index, a "stage_ckpt" entry at \p index, and the network after that
/// stage plus the reference network in the checkpoint directory.
void fabricate_crash(const std::string& path, const std::string& id,
                     const std::string& spec, std::size_t index) {
  const flow::Flow flow = flow::Flow::parse(spec);
  flow::FlowContext ctx;
  for (std::size_t i = 0; i <= index; ++i) {
    const flow::Flow::Stage& stage = flow.stages()[i];
    ASSERT_TRUE(flow::run_stage(ctx, *stage.pass, stage.args).ok);
  }
  const std::string dir = path + ".ckpt/";
  ::mkdir(dir.c_str(), 0755);
  ckpt::write_snapshot_file(
      ctx.net, dir + id + ".s" + std::to_string(index) + ".snap");
  ckpt::write_snapshot_file(*ctx.original, dir + id + ".orig.snap");
  Journal j;
  j.open(path);
  JournalEntry e;
  e.kind = JournalEntry::Kind::kAccepted;
  e.job = id;
  e.payload = submit(id, spec);
  j.append(e);
  e = {};
  e.kind = JournalEntry::Kind::kStarted;
  e.job = id;
  j.append(e);
  for (std::size_t i = 0; i <= index; ++i) {
    e.kind = JournalEntry::Kind::kStage;
    e.index = i;
    j.append(e);
  }
  e.kind = JournalEntry::Kind::kStageCkpt;
  j.append(e);
}

/// Recovers the journal at \p path and collects the resumed job \p id's
/// stage reports and done line.  A one-shot delay holds the job in its
/// first resumed stage until the client has attached.
std::vector<Json> resume_and_collect(const std::string& path,
                                     const std::string& id, Json* done) {
  fail::configure("flow.stage=delay,ms=300,count=1");
  JobServer server(ServerOptions{.job_slots = 1, .journal_path = path});
  TestClient client(server);
  client.send(attach_line(id));
  EXPECT_EQ(client.wait_outcome(id), "ok");
  fail::disable();
  EXPECT_EQ(server.counters().resumed, 1u);
  *done = last_line_of_type(client.lines(), "done");
  return client.stages_of(id);
}

TEST(JobServer, ResumeAfterAMappingStageMapsAgain) {
  const std::string path =
      ::testing::TempDir() + "mcs_journal_resume_map.ndjson";
  std::remove(path.c_str());
  const std::string spec = "gen:adder,bits=8; compress2rs; map_lut:k=4; cec";
  flow::FlowContext uninterrupted;
  const flow::FlowReport want = flow::run_flow(spec, uninterrupted);
  ASSERT_TRUE(want.ok) << want.error;
  ASSERT_EQ(want.stages[3].luts, 15u);

  // Killed after map_lut, with a checkpoint journaled for it: the snapshot
  // holds only the network, so the job resumes after compress2rs and maps
  // again.
  fabricate_crash(path, "mapjob", spec, 2);
  Json done = Json::null();
  const std::vector<Json> stages = resume_and_collect(path, "mapjob", &done);
  ASSERT_TRUE(done.is_object());
  EXPECT_EQ(done.find("resumed_stage")->as_int(), 2);
  EXPECT_EQ(done.find("luts")->as_int(), 15);
  ASSERT_FALSE(stages.empty());
  const Json* cec = stages.back().find("stage");
  EXPECT_EQ(cec->find("pass")->as_string(), "cec");
  EXPECT_EQ(cec->find("luts")->as_int(), 15);
  EXPECT_EQ(cec->find("note")->as_string(), "equivalent (LUT network)");

  std::remove(path.c_str());
  ::rmdir((path + ".ckpt").c_str());
}

TEST(JobServer, ResumeReappliesTheSettingsBeforeIt) {
  const std::string path =
      ::testing::TempDir() + "mcs_journal_resume_set.ndjson";
  std::remove(path.c_str());
  fabricate_crash(path, "setjob", "threads:n=3; gen:adder,bits=8; threads",
                  1);
  Json done = Json::null();
  const std::vector<Json> stages = resume_and_collect(path, "setjob", &done);
  ASSERT_TRUE(done.is_object());
  EXPECT_EQ(done.find("resumed_stage")->as_int(), 2);
  // Only the resumed stage streams: the re-applied setting makes no report.
  ASSERT_EQ(stages.size(), 1u);
  const std::string note = stages[0].find("stage")->find("note")->as_string();
  EXPECT_NE(note.find("requested 3"), std::string::npos) << note;

  std::remove(path.c_str());
  ::rmdir((path + ".ckpt").c_str());
}

TEST(JobServer, CheckpointsOnlyAfterStagesThatChangeTheNetwork) {
  const std::string path =
      ::testing::TempDir() + "mcs_journal_ckpt_kinds.ndjson";
  std::remove(path.c_str());
  {
    JobServer server(ServerOptions{.job_slots = 1, .journal_path = path});
    TestClient client(server);
    client.send(submit("ck1", "gen:adder,bits=8; map_lut:k=4; cec"));
    EXPECT_EQ(client.wait_outcome("ck1"), "ok");
  }
  std::size_t checkpoints = 0;
  for (const JournalEntry& e : Journal::load(path)) {
    if (e.kind == JournalEntry::Kind::kStageCkpt && e.job == "ck1") {
      ++checkpoints;
      EXPECT_EQ(e.index, 0u);  // after gen
    }
  }
  EXPECT_EQ(checkpoints, 1u);

  std::remove(path.c_str());
  ::rmdir((path + ".ckpt").c_str());
}

TEST(JobServer, CorruptCheckpointDegradesToReplayFromScratch) {
  const std::string path = ::testing::TempDir() + "mcs_journal_badck.ndjson";
  const std::string ckpt_dir = path + ".ckpt";
  std::remove(path.c_str());
  ::mkdir(ckpt_dir.c_str(), 0755);
  {
    std::ofstream snap(ckpt_dir + "/badck.s0.snap", std::ios::binary);
    snap << "MCSS garbage, not a snapshot";
  }
  {
    Journal j;
    j.open(path);
    JournalEntry e;
    e.kind = JournalEntry::Kind::kAccepted;
    e.job = "badck";
    e.payload = submit("badck", "gen:adder,bits=8; compress2rs");
    j.append(e);
    e = {};
    e.kind = JournalEntry::Kind::kStageCkpt;
    e.job = "badck";
    e.index = 0;
    j.append(e);
  }

  // The unusable checkpoint must cost nothing but the shortcut: the job
  // replays from stage 0 and still completes.
  JobServer server(ServerOptions{.job_slots = 1, .journal_path = path});
  EXPECT_EQ(server.counters().retried, 1u);
  EXPECT_EQ(server.counters().resumed, 0u);
  TestClient client(server);
  client.send(attach_line("badck"));
  EXPECT_EQ(client.wait_outcome("badck"), "ok");

  std::remove(path.c_str());
  std::remove((ckpt_dir + "/badck.s0.snap").c_str());
  ::rmdir(ckpt_dir.c_str());
}

TEST(JobServer, AutoCompactsTheJournalPastMaxBytes) {
  const std::string path =
      ::testing::TempDir() + "mcs_journal_autocompact.ndjson";
  const std::string ckpt_dir = path + ".ckpt";
  std::remove(path.c_str());
#ifndef MCS_OBS_DISABLE
  const std::uint64_t compactions_before =
      obs::counter("ckpt.journal_compactions").value();
#endif
  {
    // 256 bytes: every post-stage watermark check is over budget, so the
    // journal is rewritten down to live state continuously.
    JobServer server(ServerOptions{.job_slots = 1,
                                   .journal_path = path,
                                   .journal_max_bytes = 256});
    TestClient client(server);
    client.send(submit("c1", "gen:adder,bits=8; compress2rs"));
    EXPECT_EQ(client.wait_outcome("c1"), "ok");
    client.send(submit("c2", "gen:adder,bits=8; compress2rs"));
    EXPECT_EQ(client.wait_outcome("c2"), "ok");
  }  // drains, journals the shutdown marker
#ifndef MCS_OBS_DISABLE
  EXPECT_GT(obs::counter("ckpt.journal_compactions").value(),
            compactions_before);
#endif

  // The compacted journal holds only the live state: the done cache and
  // the shutdown marker -- no per-stage progress history.
  std::size_t skipped = 0;
  const auto entries = Journal::load(path, &skipped);
  EXPECT_EQ(skipped, 0u);
  EXPECT_LE(entries.size(), 5u);
  for (const JournalEntry& e : entries) {
    EXPECT_NE(e.kind, JournalEntry::Kind::kStage);
    EXPECT_NE(e.kind, JournalEntry::Kind::kStageCkpt);
  }

  // ...and it still replays correctly: clean shutdown, attach from cache.
  JobServer server(ServerOptions{.job_slots = 1, .journal_path = path});
  EXPECT_EQ(server.counters().retried, 0u);
  TestClient client(server);
  client.send(attach_line("c2"));
  EXPECT_EQ(client.wait_outcome("c2"), "ok");

  std::remove(path.c_str());
  ::rmdir(ckpt_dir.c_str());
}

TEST(JobServer, DoneCacheBoundIsConfigurable) {
  JobServer server(ServerOptions{.job_slots = 1, .done_cache = 1});
  TestClient client(server);
  client.send(submit("d1", "gen:adder,bits=8"));
  EXPECT_EQ(client.wait_outcome("d1"), "ok");
  client.send(submit("d2", "gen:adder,bits=8"));
  EXPECT_EQ(client.wait_outcome("d2"), "ok");

  // Only the newest done line is retained for late attaches.
  TestClient late(server);
  late.send(attach_line("d2"));
  EXPECT_EQ(late.wait_outcome("d2"), "ok");
  late.send(attach_line("d1"));
  EXPECT_EQ(late.wait_outcome("d1"), "rejected");
}

// --- server: degradation guards ---------------------------------------------

TEST(JobServer, RejectsOversizeInlineInput) {
  JobServer server(
      ServerOptions{.job_slots = 1, .max_input_bytes = 16});
  TestClient client(server);
  Request req;
  req.kind = Request::Kind::kSubmit;
  req.id = "big";
  req.flow_spec = "strash";
  req.input_format = "aiger";
  req.input_text = std::string(64, 'x');  // rejected before parsing
  client.send(submit_line(req));
  EXPECT_EQ(client.wait_outcome("big"), "rejected");
  EXPECT_EQ(server.counters().rejected, 1u);

  // Under the limit still works.
  client.send(submit("small", "gen:adder,bits=8"));
  EXPECT_EQ(client.wait_outcome("small"), "ok");
}

TEST(JobServer, EnforcesPerClientJobQuota) {
  JobServer server(
      ServerOptions{.job_slots = 1, .max_jobs_per_client = 1});
  TestClient client(server);
  client.send(submit("hog", "gen:multiplier,bits=32; compress2rs"));
  client.send(submit("over", "gen:adder,bits=8"));  // hog still in flight
  EXPECT_EQ(client.wait_outcome("over"), "rejected");
  EXPECT_EQ(client.wait_outcome("hog"), "ok");

  // The quota frees with the job.
  client.send(submit("after", "gen:adder,bits=8"));
  EXPECT_EQ(client.wait_outcome("after"), "ok");
}

#ifndef MCS_OBS_DISABLE
TEST(JobServer, ShedsLoadPastTheMemoryHighWater) {
  // The guard reads the obs high-water gauges; crank one past the limit.
  // High-water marks only rise, so this test pins it back down afterwards
  // via set_max being a no-op -- use a dedicated large value and accept
  // that later tests see it too (the guard is off for them: default 0).
  obs::gauge("strash.bytes_max").set_max(std::int64_t{2} << 20);
  JobServer server(
      ServerOptions{.job_slots = 1, .max_memory_mb = 1});
  TestClient client(server);
  client.send(submit("shed", "gen:adder,bits=8"));
  EXPECT_EQ(client.wait_outcome("shed"), "rejected");
  EXPECT_EQ(server.counters().rejected, 1u);
}
#endif

// --- server: inline result artifacts ----------------------------------------

TEST(JobServer, EmitAigerInlinesTheResultNetlist) {
  JobServer server(ServerOptions{.job_slots = 1});
  TestClient client(server);
  Request req;
  req.kind = Request::Kind::kSubmit;
  req.id = "art";
  req.flow_spec = "gen:adder,bits=8; compress2rs";
  req.emit = "aiger";
  client.send(submit_line(req));
  EXPECT_EQ(client.wait_outcome("art"), "ok");

  const Json* artifact = nullptr;
  Json done = Json::null();
  for (const std::string& line : client.lines()) {
    Json msg = Json::parse(line);
    const Json* t = msg.find("type");
    if (t && t->as_string() == "done") {
      done = std::move(msg);
      artifact = done.find("artifact");
    }
  }
  ASSERT_NE(artifact, nullptr) << "done line carries no artifact";
  EXPECT_EQ(artifact->find("format")->as_string(), "aiger");

  // The inline text is a complete, loadable ASCII AIGER of the result.
  // (Gate counts need not match the "gates" field: a non-AIG working
  // network is expanded to AND gates for the AIGER serialization.)
  std::istringstream is(artifact->find("text")->as_string());
  const Network net = read_aiger(is);
  EXPECT_GT(net.num_gates(), 0u);
  EXPECT_GE(static_cast<std::int64_t>(net.num_gates()),
            done.find("gates")->as_int());
}

}  // namespace
}  // namespace mcs::server
