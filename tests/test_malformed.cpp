/// Malformed-input regression corpus: truncated, oversized and garbage
/// AIGER / BLIF / NDJSON inputs pushed through every external input
/// surface -- the io readers and the job server's wire protocol.  The
/// contract under test is uniform: hostile bytes raise a typed exception
/// (std::runtime_error for readers, ProtocolError for the protocol) and
/// never crash, hang, or OOM; after absorbing the whole corpus a live
/// JobServer still answers "ping" and completes a valid job.  A checkpoint
/// snapshot that restores into a structurally impossible network fails the
/// restore audit (Network::check) instead.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mcs/ckpt/snapshot.hpp"
#include "mcs/io/aiger.hpp"
#include "mcs/io/blif_read.hpp"
#include "mcs/server/json.hpp"
#include "mcs/server/protocol.hpp"
#include "mcs/server/server.hpp"

namespace mcs {
namespace {

struct Case {
  const char* label;
  std::string text;
};

// --- AIGER corpus -----------------------------------------------------------

const std::vector<Case>& aiger_corpus() {
  static const std::vector<Case> corpus = {
      {"empty", ""},
      {"bare format token", "aag"},
      {"truncated header", "aag 5 2 0 1"},
      {"unknown format", "agg 1 1 0 1 0\n"},
      {"non-numeric header", "aag one 1 0 1 0\n"},
      {"latches unsupported", "aag 2 1 1 1 0\n2\n"},
      // Header plausibility guard: a few bytes must not drive gigabyte
      // allocations (M and O bound vector reserves).
      {"oversized M", "aag 4000000000 4000000000 0 0 0\n"},
      {"oversized O", "aag 2 1 0 4000000000 1\n2\n"},
      {"I+A exceeds M", "aag 2 1 0 1 4000000000\n2\n"},
      {"odd input literal", "aag 2 1 0 1 0\n3\n2\n"},
      {"input literal beyond M", "aag 2 1 0 1 0\n8\n2\n"},
      {"missing output", "aag 1 1 0 1 0\n2\n"},
      {"truncated and section", "aag 10 2 0 1 7\n2\n4\n6\n"},
      {"odd and lhs", "aag 3 1 0 1 1\n2\n6\n5 2 2\n"},
      {"and literal overflow", "aag 3 1 0 1 1\n2\n6\n6 90 2\n"},
      {"truncated binary body", "aig 3 1 0 1 2\n2\n"},
      // Binary deltas underflow lhs -> r0 wraps -> literal overflow.
      {"binary delta underflow", std::string("aig 2 1 0 1 1\n2\n") +
                                     std::string("\x7f\x01", 2)},
      {"binary garbage body", "aig 4 2 0 1 2\n4\n\xff\xff\xff\xff\xff"},
  };
  return corpus;
}

TEST(MalformedAiger, EveryCaseThrowsCleanly) {
  for (const Case& c : aiger_corpus()) {
    SCOPED_TRACE(c.label);
    std::istringstream is(c.text);
    EXPECT_THROW(read_aiger(is), std::runtime_error);
  }
}

TEST(MalformedAiger, ImplausibleHeaderIsRejectedBeforeAllocation) {
  // The whole point of the guard: the error is the header diagnostic,
  // not bad_alloc from a 4-billion-entry literal table.
  std::istringstream is("aag 4000000000 4000000000 0 0 0\n");
  try {
    read_aiger(is);
    FAIL() << "implausible header accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("implausible header"),
              std::string::npos)
        << e.what();
  }
}

// --- BLIF corpus ------------------------------------------------------------

const std::vector<Case>& blif_corpus() {
  static const std::vector<Case> corpus = {
      {"empty .names", ".model m\n.names\n.end\n"},
      {"latch unsupported",
       ".model m\n.inputs a\n.outputs y\n.latch a y re clk 0\n.end\n"},
      {"subckt unsupported",
       ".model m\n.inputs a\n.outputs y\n.subckt sub a=a y=y\n.end\n"},
      {"cover row outside names", ".model m\n.inputs a\n.outputs y\n1 1\n"},
      {"malformed cover row",
       ".model m\n.inputs a b\n.outputs y\n.names a b y\n1 1 1\n.end\n"},
      {"row width mismatch",
       ".model m\n.inputs a b\n.outputs y\n.names a b y\n101 1\n.end\n"},
      {"bad cover character",
       ".model m\n.inputs a\n.outputs y\n.names a y\nz 1\n.end\n"},
      {"mixed onset offset",
       ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n"},
      {"undriven signal", ".model m\n.inputs a\n.outputs y\n.end\n"},
      {"multiple drivers",
       ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n"
       ".names a y\n0 1\n.end\n"},
      {"combinational cycle",
       ".model m\n.inputs a\n.outputs y\n.names x y\n1 1\n"
       ".names y x\n1 1\n.end\n"},
      {"binary garbage", "\xff\x7f garbage \xfe\n\n1 1\n"},
  };
  return corpus;
}

TEST(MalformedBlif, EveryCaseThrowsCleanly) {
  for (const Case& c : blif_corpus()) {
    SCOPED_TRACE(c.label);
    std::istringstream is(c.text);
    EXPECT_THROW(read_blif(is), std::runtime_error);
  }
}

// --- NDJSON protocol corpus -------------------------------------------------

std::vector<Case> protocol_corpus() {
  std::vector<Case> corpus = {
      {"empty line", ""},
      {"not json", "hello server"},
      {"truncated object", R"({"type": "submit", "id": )"},
      {"trailing garbage", R"({"type": "ping"} ping)"},
      {"array not object", R"([1, 2, 3])"},
      {"missing type", R"({"id": "j1"})"},
      {"mistyped type", R"({"type": 7})"},
      {"unknown type", R"({"type": "reboot"})"},
      {"submit without id", R"({"type": "submit", "flow": "gen:adder"})"},
      {"submit empty id", R"({"type": "submit", "id": "", "flow": "f"})"},
      {"submit without flow", R"({"type": "submit", "id": "j1"})"},
      {"mistyped flow", R"({"type": "submit", "id": "j1", "flow": 9})"},
      {"negative timeout",
       R"({"type": "submit", "id": "j1", "flow": "f", "timeout_ms": -5})"},
      {"non-positive weight",
       R"({"type": "submit", "id": "j1", "flow": "f", "weight": 0})"},
      {"bad input format",
       R"({"type": "submit", "id": "j1", "flow": "f",)"
       R"( "input": {"format": "vhdl", "text": "x"}})"},
      {"input missing text",
       R"({"type": "submit", "id": "j1", "flow": "f",)"
       R"( "input": {"format": "aiger"}})"},
      {"cancel without id", R"({"type": "cancel"})"},
      {"lone surrogate escape", R"({"type": "ping", "note": "\udc00"})"},
  };
  // Deep nesting must hit the parser's recursion bound, not the stack.
  std::string deep = R"({"type": "submit", "id": )";
  deep += std::string(4096, '[');
  corpus.push_back({"deep nesting", deep});
  return corpus;
}

TEST(MalformedProtocol, EveryCaseThrowsProtocolOrJsonError) {
  for (const Case& c : protocol_corpus()) {
    SCOPED_TRACE(c.label);
    try {
      server::parse_request(c.text);
      ADD_FAILURE() << "accepted: " << c.label;
    } catch (const server::ProtocolError&) {
    } catch (const server::JsonError&) {
    }
  }
}

// --- checkpoint snapshots ----------------------------------------------------

TEST(MalformedSnapshot, ChoiceCycleFailsTheRestoreAudit) {
  // The blob itself is well formed (checksum, chain shape), but its class
  // has a member built on top of its head.  The server's restore audit and
  // ckpt:validate run check(), which must reject it: the next choice-aware
  // stage would otherwise recurse until memory runs out.
  Network net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal g1 = net.create_and(a, b);
  const Signal g2 = net.create_and(g1, a);
  net.create_po(g1);
  net.add_choice(g1.node(), g2.node(), false);
  const std::string path = ::testing::TempDir() + "mcs_malformed_cycle.snap";
  ckpt::write_snapshot_file(net, path);
  const Network back = ckpt::read_snapshot_file(path);
  std::remove(path.c_str());
  std::string why;
  EXPECT_FALSE(back.check(&why));
  EXPECT_NE(why.find("choice cycle"), std::string::npos) << why;
}

// --- the daemon survives the whole corpus -----------------------------------

TEST(MalformedInput, DaemonStaysHealthyAfterAbsorbingTheCorpus) {
  server::JobServer srv(server::ServerOptions{.job_slots = 1});
  std::mutex mutex;
  std::vector<std::string> lines;
  const std::uint64_t client =
      srv.attach([&mutex, &lines](const std::string& line) {
        std::lock_guard<std::mutex> lock(mutex);
        lines.push_back(line);
      });
  auto snapshot = [&mutex, &lines] {
    std::lock_guard<std::mutex> lock(mutex);
    return lines;
  };

  std::size_t sent = 0;
  for (const Case& c : protocol_corpus()) {
    srv.handle_line(client, c.text);
    // Blank lines are keep-alive no-ops, not protocol errors.
    if (c.text.find_first_not_of(" \t\r\n") != std::string::npos) ++sent;
  }
  // Hostile netlists arrive as *valid* protocol lines wrapping malformed
  // inline inputs -- the reject happens at flow setup, not at parse time.
  for (const Case& c : aiger_corpus()) {
    server::Request req;
    req.kind = server::Request::Kind::kSubmit;
    req.id = "aig" + std::to_string(sent);
    req.flow_spec = "compress2rs";
    req.input_format = "aiger";
    req.input_text = c.text;
    srv.handle_line(client, server::submit_line(req));
    ++sent;
  }
  for (const Case& c : blif_corpus()) {
    server::Request req;
    req.kind = server::Request::Kind::kSubmit;
    req.id = "blif" + std::to_string(sent);
    req.flow_spec = "compress2rs";
    req.input_format = "blif";
    req.input_text = c.text;
    srv.handle_line(client, server::submit_line(req));
    ++sent;
  }

  // Every corpus line got exactly one "error" answer...
  std::size_t errors = 0;
  for (const std::string& line : snapshot()) {
    const server::Json msg = server::Json::parse(line);
    if (msg.find("type")->as_string() == "error") ++errors;
  }
  EXPECT_EQ(errors, sent);
  EXPECT_EQ(srv.counters().protocol_errors + srv.counters().rejected, sent);
  EXPECT_EQ(srv.jobs_in_flight(), 0u);

  // ...and the daemon still talks: ping answers, a real job completes.
  srv.handle_line(client, R"({"type": "ping"})");
  const auto after_ping = snapshot();
  ASSERT_FALSE(after_ping.empty());
  EXPECT_EQ(server::Json::parse(after_ping.back()).find("type")->as_string(),
            "pong");

  server::Request req;
  req.kind = server::Request::Kind::kSubmit;
  req.id = "healthy";
  req.flow_spec = "gen:adder,bits=8; rewrite";
  srv.handle_line(client, server::submit_line(req));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::string status = "TIMEOUT";
  while (std::chrono::steady_clock::now() < deadline) {
    bool done = false;
    for (const std::string& line : snapshot()) {
      const server::Json msg = server::Json::parse(line);
      const server::Json* j = msg.find("job");
      if (j == nullptr || j->as_string() != "healthy") continue;
      if (msg.find("type")->as_string() == "done") {
        status = msg.find("status")->as_string();
        done = true;
      }
    }
    if (done) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(status, "ok");
  srv.detach(client);
}

}  // namespace
}  // namespace mcs
