/// \file mcs_submit.cpp
/// \brief Client for the mcs_server job protocol.
///
/// Single-job mode -- submit one flow, stream its reports, exit by status:
///
///   mcs_submit --connect unix:/run/mcs.sock
///              --flow "gen:adder,bits=32; compress2rs; map_lut:k=6"
///              [--id j1] [--input design.aig] [--timeout-ms 60000]
///              [--threads 2] [--weight 2.0] [--cancel-after-ms 500]
///              [--retry 5] [--emit aiger] [--artifact-out out.aag]
///
/// `--retry N` makes the client crash-tolerant: the initial connect is
/// retried with backoff, and a mid-job disconnect (supervised worker
/// crash) reconnects and re-binds to the job with an "attach" request --
/// the journal replay on the server side finishes the job, so the done
/// line still arrives (carrying "retried": true, plus "resumed_stage": N
/// when a stage checkpoint let the replay skip the completed stages).
///
///   exit code: 0 = done ok, 2 = done error, 3 = cancelled, 4 = timeout,
///              5 = rejected, 1 = transport/protocol trouble.
///
/// Script mode -- drive a whole session from an NDJSON request file
/// (`-` = stdin); lines are sent in order, `!sleep N` directive lines
/// pause N ms (so a script can cancel a job mid-run deterministically):
///
///   mcs_submit --connect pipe:in.fifo,out.fifo --script session.ndjson
///
/// Script mode prints every response line to stdout and exits 0 once every
/// submitted job got its "done" line (and, if a shutdown was sent, the
/// final "drained" arrived) -- individual job statuses are in the output
/// for the caller to inspect.
///
/// Admin mode -- one-shot queries against a running server: `--ping`
/// round-trips the protocol and prints a one-line stats summary (uptime,
/// jobs running/queued/completed); `--stats`, `--health` and `--jobs`
/// print the raw reply JSON of the corresponding admin verb (pipe them
/// into jq, or watch them live with `mcs_top`).
///
/// Transports: `unix:PATH`, `tcp:HOST:PORT`, and `pipe:TO,FROM` -- a FIFO
/// pair feeding an `mcs_server --pipe < TO > FROM` instance.  The FIFO
/// open order (TO for write first, then FROM for read) mirrors the
/// server's shell-redirection order, so neither side deadlocks.

#include <unistd.h>

#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mcs/flow/flow.hpp"
#include "mcs/server/json.hpp"
#include "mcs/server/protocol.hpp"
#include "transport.hpp"

namespace {

using mcs::server::Json;
using mcs::tools::Connection;
using mcs::tools::connect_with_retry;

// --- response inspection ----------------------------------------------------

struct Response {
  std::string type;
  std::string job;
  std::string status;
};

Response inspect(const std::string& line) {
  Response r;
  try {
    const Json msg = Json::parse(line);
    if (const Json* t = msg.find("type"); t && t->is_string())
      r.type = t->as_string();
    if (const Json* j = msg.find("job"); j && j->is_string())
      r.job = j->as_string();
    if (const Json* s = msg.find("status"); s && s->is_string())
      r.status = s->as_string();
  } catch (const mcs::server::JsonError&) {
    // Unparseable server line: printed verbatim, ignored for bookkeeping.
  }
  return r;
}

// --- modes ------------------------------------------------------------------

int status_to_exit(const std::string& status) {
  if (status == "ok") return 0;
  if (status == "error") return 2;
  if (status == "cancelled") return 3;
  if (status == "timeout") return 4;
  return 1;
}

/// Extracts the inline {"artifact": {"text": ...}} of a done line into
/// \p path; false when the line carries no artifact or the write fails.
bool save_artifact(const std::string& done_json, const std::string& path) {
  try {
    const Json msg = Json::parse(done_json);
    const Json* artifact = msg.find("artifact");
    if (artifact == nullptr || !artifact->is_object()) return false;
    const Json* text = artifact->find("text");
    if (text == nullptr || !text->is_string()) return false;
    std::ofstream out(path, std::ios::binary);
    out << text->as_string();
    return out.good();
  } catch (const mcs::server::JsonError&) {
    return false;
  }
}

int run_single(const std::string& connect_to, Connection& conn,
               const mcs::server::Request& req, long long cancel_after_ms,
               bool quiet, int retries, long retry_backoff_ms,
               const std::string& artifact_out) {
  if (!conn.send_line(mcs::server::submit_line(req))) {
    std::fprintf(stderr, "mcs_submit: send failed\n");
    return 1;
  }

  std::thread canceller;
  if (cancel_after_ms > 0) {
    canceller = std::thread([&conn, &req, cancel_after_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(cancel_after_ms));
      conn.send_line(mcs::server::cancel_line(req.id));
    });
  }

  int exit_code = 1;
  int reconnects_left = retries;
  bool awaiting_attach = false;  // an "error" now means "job unknown here"
  bool finished = false;
  std::string line;
  while (!finished) {
    while (conn.read_line(line)) {
      if (!quiet) std::cout << line << "\n" << std::flush;
      const Response r = inspect(line);
      if (r.type == "attached" && r.job == req.id) {
        awaiting_attach = false;  // re-bound; stage/done lines resume
        continue;
      }
      if (r.type == "done" && r.job == req.id) {
        exit_code = status_to_exit(r.status);
        if (!artifact_out.empty() && !save_artifact(line, artifact_out)) {
          std::fprintf(stderr, "mcs_submit: no artifact in done line\n");
          if (exit_code == 0) exit_code = 1;
        }
        finished = true;
        break;
      }
      if (r.type == "error" && (r.job == req.id || r.job.empty())) {
        if (awaiting_attach) {
          // The crash beat the journal's accept record: the restarted
          // server never heard of the job.  Submit it again from here.
          awaiting_attach = false;
          if (!conn.send_line(mcs::server::submit_line(req))) break;
          continue;
        }
        exit_code = 5;  // rejected before becoming a job
        finished = true;
        break;
      }
    }
    if (finished) break;
    // EOF before "done": the server (or its supervised worker) died
    // mid-job.  Reconnect and re-bind via "attach" -- the journal replay
    // finishes the job and its done line reaches us here.
    if (reconnects_left <= 0) {
      std::fprintf(stderr,
                   "mcs_submit: connection lost before \"done\"%s\n",
                   retries > 0 ? " (retries exhausted)" : "");
      break;
    }
    --reconnects_left;
    conn.close_all();
    if (!connect_with_retry(connect_to, conn, retries, retry_backoff_ms)) {
      std::fprintf(stderr, "mcs_submit: reconnect to %s failed\n",
                   connect_to.c_str());
      break;
    }
    awaiting_attach = true;
    if (!conn.send_line(mcs::server::attach_line(req.id))) {
      std::fprintf(stderr, "mcs_submit: attach send failed\n");
      break;
    }
  }
  if (canceller.joinable()) canceller.join();
  return exit_code;
}

int run_script(Connection& conn, std::istream& script) {
  std::set<std::string> pending;  // submitted ids awaiting "done"
  bool sent_shutdown = false;

  // Sending happens inline (requests are small; the server reads greedily),
  // response collection afterwards -- with !sleep directives in between so
  // scripts can race cancels against running jobs deterministically.  A
  // response backlog during sends sits in the kernel buffers meanwhile.
  std::string line;
  while (std::getline(script, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("!sleep ", 0) == 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::atoll(line.c_str() + 7)));
      continue;
    }
    try {
      const mcs::server::Request req = mcs::server::parse_request(line);
      if (req.kind == mcs::server::Request::Kind::kSubmit)
        pending.insert(req.id);
      if (req.kind == mcs::server::Request::Kind::kShutdown)
        sent_shutdown = true;
    } catch (const mcs::server::ProtocolError&) {
      // Deliberately malformed lines are legal in scripts (the error-path
      // smoke test sends them); the server answers with an "error" line.
    }
    if (!conn.send_line(line)) {
      // After a shutdown request the server may legitimately drain and
      // leave before later script lines go out (EPIPE here); the session
      // is over, so stop sending and collect the buffered responses.
      if (sent_shutdown) break;
      std::fprintf(stderr, "mcs_submit: send failed\n");
      return 1;
    }
  }

  bool drained = false;
  while (conn.read_line(line)) {
    std::cout << line << "\n" << std::flush;
    const Response r = inspect(line);
    if (r.type == "done") pending.erase(r.job);
    if (r.type == "error" && !r.job.empty()) pending.erase(r.job);
    if (r.type == "drained") {
      drained = true;
      break;
    }
    if (pending.empty() && !sent_shutdown) break;
  }
  if (!pending.empty()) {
    std::fprintf(stderr, "mcs_submit: %zu job(s) never reported done\n",
                 pending.size());
    return 1;
  }
  if (sent_shutdown && !drained) {
    std::fprintf(stderr, "mcs_submit: no \"drained\" after shutdown\n");
    return 1;
  }
  return 0;
}

void usage() {
  std::fputs(
      "usage: mcs_submit --connect SPEC (--flow SPEC | --script FILE |\n"
      "                                  --cancel ID | --ping | --stats |\n"
      "                                  --health | --jobs | --shutdown)\n"
      "\n"
      "  --connect unix:PATH | tcp:HOST:PORT | pipe:TO_FIFO,FROM_FIFO\n"
      "\n"
      "admin\n"
      "  --ping               protocol round-trip plus a one-line summary\n"
      "                       (uptime, jobs running/queued/completed)\n"
      "  --stats              print the raw \"stats\" reply: counters, obs\n"
      "                       registry, telemetry ring, Prometheus text\n"
      "  --health             print the raw \"health\" reply (readiness,\n"
      "                       drain state, journal lag, memory watermark)\n"
      "  --jobs               print the raw \"jobs\" reply (live job table\n"
      "                       with per-job attributed CPU and peak bytes)\n"
      "\n"
      "single job\n"
      "  --flow \"gen:adder,bits=32; compress2rs; map_lut:k=6\"\n"
      "  --id NAME            job id (default: job1)\n"
      "  --input FILE         inline network (.blif -> blif, else aiger)\n"
      "  --format aiger|blif  override input format detection\n"
      "  --timeout-ms N       per-job wall-clock budget\n"
      "  --threads N          worker threads for this job's stages\n"
      "  --weight W           fair-share weight (> 0)\n"
      "  --cancel-after-ms N  send a cancel N ms after submitting\n"
      "  --emit aiger         ask for the result netlist inline in \"done\"\n"
      "  --artifact-out FILE  write that inline artifact here (implies\n"
      "                       --emit aiger)\n"
      "  --retry N            reconnect budget: retries the initial connect\n"
      "                       and, after a mid-job disconnect, re-binds via\n"
      "                       \"attach\" (resubmitting if the job is unknown)\n"
      "  --retry-backoff-ms N first retry delay, doubling to 5s (default 200)\n"
      "  --quiet              suppress response echo; exit code only\n"
      "\n"
      "session script\n"
      "  --script FILE        NDJSON requests (- = stdin; !sleep N pauses)\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect_to;
  std::string script_path;
  std::string input_path;
  std::string cancel_id;
  bool ping = false;
  std::string admin_verb;  // "stats" / "health" / "jobs": one-shot queries
  bool shutdown_only = false;
  bool quiet = false;
  long long cancel_after_ms = 0;
  int retries = 0;
  long retry_backoff_ms = 200;
  std::string artifact_out;
  mcs::server::Request req;
  req.kind = mcs::server::Request::Kind::kSubmit;
  req.id = "job1";

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "mcs_submit: %s needs a value\n", argv[i]);
      std::exit(1);
    }
    return argv[++i];
  };
  // A numeric flag's value is a whole number in [0, max]; anything else
  // ("5s", "-1", "junk") is a usage error, never a silent 0.
  auto need_count = [&](int& i, long long max = LLONG_MAX) -> long long {
    const char* flag = argv[i];
    const char* text = need_value(i);
    const std::optional<long long> v = mcs::flow::parse_int(text);
    if (!v || *v < 0 || *v > max) {
      std::fprintf(stderr, "mcs_submit: %s expects a non-negative integer",
                   flag);
      if (max != LLONG_MAX) std::fprintf(stderr, " up to %lld", max);
      std::fprintf(stderr, ", got '%s'\n", text);
      std::exit(1);
    }
    return *v;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect") {
      connect_to = need_value(i);
    } else if (arg == "--flow") {
      req.flow_spec = need_value(i);
    } else if (arg == "--id") {
      req.id = need_value(i);
    } else if (arg == "--input") {
      input_path = need_value(i);
    } else if (arg == "--format") {
      req.input_format = need_value(i);
    } else if (arg == "--timeout-ms") {
      req.timeout_ms = need_count(i);
    } else if (arg == "--threads") {
      req.threads = static_cast<int>(need_count(i, INT_MAX));
    } else if (arg == "--weight") {
      const char* text = need_value(i);
      const std::optional<double> weight = mcs::flow::parse_double(text);
      if (!weight || *weight < 0) {
        std::fprintf(stderr,
                     "mcs_submit: --weight expects a non-negative number, "
                     "got '%s'\n",
                     text);
        return 1;
      }
      req.weight = *weight;
    } else if (arg == "--cancel-after-ms") {
      cancel_after_ms = need_count(i);
    } else if (arg == "--emit") {
      req.emit = need_value(i);
    } else if (arg == "--artifact-out") {
      artifact_out = need_value(i);
    } else if (arg == "--retry") {
      retries = static_cast<int>(need_count(i, INT_MAX));
    } else if (arg == "--retry-backoff-ms") {
      retry_backoff_ms = static_cast<long>(need_count(i, LONG_MAX));
    } else if (arg == "--script") {
      script_path = need_value(i);
    } else if (arg == "--cancel") {
      cancel_id = need_value(i);
    } else if (arg == "--ping") {
      ping = true;
    } else if (arg == "--stats") {
      admin_verb = "stats";
    } else if (arg == "--health") {
      admin_verb = "health";
    } else if (arg == "--jobs") {
      admin_verb = "jobs";
    } else if (arg == "--shutdown") {
      shutdown_only = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "mcs_submit: unknown option %s\n", arg.c_str());
      usage();
      return 1;
    }
  }

  if (connect_to.empty()) {
    usage();
    return 1;
  }
  signal(SIGPIPE, SIG_IGN);
  if (!artifact_out.empty() && req.emit.empty()) req.emit = "aiger";

  Connection conn;
  if (!connect_with_retry(connect_to, conn, retries, retry_backoff_ms)) {
    std::fprintf(stderr, "mcs_submit: cannot connect to %s\n",
                 connect_to.c_str());
    return 1;
  }

  if (!script_path.empty()) {
    if (script_path == "-") return run_script(conn, std::cin);
    std::ifstream script(script_path);
    if (!script) {
      std::fprintf(stderr, "mcs_submit: cannot open %s\n",
                   script_path.c_str());
      return 1;
    }
    return run_script(conn, script);
  }

  if (!cancel_id.empty()) {
    if (!conn.send_line(mcs::server::cancel_line(cancel_id))) return 1;
    std::string line;
    if (conn.read_line(line)) std::cout << line << "\n";
    return 0;
  }
  if (!admin_verb.empty()) {
    const std::string request =
        admin_verb == "stats"    ? mcs::server::stats_request_line()
        : admin_verb == "health" ? mcs::server::health_request_line()
                                 : mcs::server::jobs_request_line();
    if (!conn.send_line(request)) return 1;
    std::string line;
    if (!conn.read_line(line)) return 1;
    std::cout << line << "\n";
    return 0;
  }
  if (ping) {
    // Round-trip a real ping first (the liveness check), then fetch the
    // stats and condense them to one human-readable line.
    if (!conn.send_line(mcs::server::ping_line())) return 1;
    std::string line;
    if (!conn.read_line(line) || inspect(line).type != "pong") return 1;
    if (!conn.send_line(mcs::server::stats_request_line())) return 1;
    if (!conn.read_line(line)) return 1;
    try {
      const Json msg = Json::parse(line);
      auto count = [&msg](const char* key) -> long long {
        const Json* v = msg.find(key);
        return v != nullptr && v->is_number() ? v->as_int() : 0;
      };
      double uptime = 0.0;
      if (const Json* v = msg.find("uptime_seconds");
          v != nullptr && v->is_number()) {
        uptime = v->as_number();
      }
      const Json* draining = msg.find("draining");
      std::printf(
          "up %.1fs%s: %lld running, %lld queued, %lld completed, "
          "%lld failed (accepted %lld, rejected %lld)\n",
          uptime,
          draining != nullptr && draining->is_bool() && draining->as_bool()
              ? " [draining]"
              : "",
          count("running"), count("queued"), count("completed"),
          count("failed"), count("accepted"), count("rejected"));
    } catch (const mcs::server::JsonError&) {
      std::cout << line << "\n";  // unformattable: echo the raw reply
    }
    return 0;
  }
  if (shutdown_only) {
    if (!conn.send_line(mcs::server::shutdown_line())) return 1;
    std::string line;
    while (conn.read_line(line)) {
      std::cout << line << "\n" << std::flush;
      if (inspect(line).type == "drained") return 0;
    }
    return 1;
  }

  if (req.flow_spec.empty()) {
    std::fprintf(stderr,
                 "mcs_submit: --flow, --script, --cancel, --ping, --stats, "
                 "--health, --jobs or --shutdown required\n");
    return 1;
  }
  if (!input_path.empty()) {
    std::ifstream in(input_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "mcs_submit: cannot open %s\n", input_path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    req.input_text = text.str();
    if (req.input_format.empty()) {
      req.input_format =
          input_path.size() >= 5 &&
                  input_path.compare(input_path.size() - 5, 5, ".blif") == 0
              ? "blif"
              : "aiger";
    }
  }
  return run_single(connect_to, conn, req, cancel_after_ms, quiet, retries,
                    retry_backoff_ms, artifact_out);
}
