/// \file mcs_top.cpp
/// \brief Live dashboard for a running mcs_server -- `top` for synthesis
/// jobs, no curses required.
///
///   mcs_top --connect unix:/run/mcs.sock [--interval-ms 1000] [--once]
///
/// Polls the server's admin verbs ("health", "stats", "jobs" -- see
/// protocol.hpp) over any client transport and redraws a two-part screen
/// with plain ANSI escapes:
///
///   * a header: uptime, drain state, job counters with per-second rates
///     (computed client-side between polls), memory watermarks, journal
///     size, telemetry-sampler state;
///   * a job table: one row per in-flight job with its scheduler state,
///     current stage/pass, queue wait, attributed CPU (both total seconds
///     and utilization-% over the last poll interval -- the obs v2 domain
///     attribution, so a job's CPU covers every pool worker that ran for
///     it), and its peak strash/cut-arena bytes.
///
/// The admin verbs answer mid-drain, so mcs_top keeps reporting while a
/// server finishes its last jobs; it exits when the connection drops
/// (server gone) or on Ctrl-C.  `--once` prints a single frame without
/// clearing the screen -- handy in scripts and CI logs.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mcs/flow/flow.hpp"
#include "mcs/server/json.hpp"
#include "mcs/server/protocol.hpp"
#include "transport.hpp"

namespace {

using mcs::server::Json;
using mcs::server::JsonError;

volatile std::sig_atomic_t g_stop = 0;
void on_sigint(int) { g_stop = 1; }

double num_field(const Json& obj, const char* key, double fallback = 0.0) {
  const Json* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

std::string str_field(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

/// One poll round: sends \p request, parses the one-line reply.  False on
/// transport death or unparseable output (server gone / not a JobServer).
bool query(mcs::tools::Connection& conn, const std::string& request,
           Json& reply) {
  if (!conn.send_line(request)) return false;
  std::string line;
  if (!conn.read_line(line)) return false;
  try {
    reply = Json::parse(line);
  } catch (const JsonError&) {
    return false;
  }
  return reply.is_object();
}

std::string human_bytes(double bytes) {
  char buf[32];
  if (bytes >= 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1fG", bytes / (1024.0 * 1024.0 * 1024.0));
  } else if (bytes >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1fM", bytes / (1024.0 * 1024.0));
  } else if (bytes >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1fK", bytes / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", bytes);
  }
  return buf;
}

struct JobSample {
  double cpu_us = 0.0;
  double at_seconds = 0.0;  ///< server uptime when sampled (shared clock)
};

void draw_frame(const Json& health, const Json& stats, const Json& jobs,
                const std::string& where, double interval_s,
                std::map<std::string, JobSample>& last_cpu,
                const Json* last_stats, bool clear) {
  if (clear) std::fputs("\x1b[H\x1b[2J", stdout);

  const double uptime = num_field(health, "uptime_seconds");
  const std::string status = str_field(health, "status");
  const Json* telemetry = health.find("telemetry");
  const bool sampler_on =
      telemetry != nullptr && telemetry->is_bool() && telemetry->as_bool();
  std::printf("mcs_top -- %s   up %.1fs   status %s%s\n", where.c_str(),
              uptime, status.empty() ? "?" : status.c_str(),
              sampler_on ? "   sampler on" : "");

  // Counter rates over the poll interval, from the previous stats frame.
  auto rate = [&](const char* key) {
    if (last_stats == nullptr || interval_s <= 0.0) return 0.0;
    return (num_field(stats, key) - num_field(*last_stats, key)) / interval_s;
  };
  std::printf(
      "jobs: %.0f running, %.0f queued | accepted %.0f (%.1f/s), "
      "completed %.0f (%.1f/s), failed %.0f, rejected %.0f\n",
      num_field(stats, "running"), num_field(stats, "queued"),
      num_field(stats, "accepted"), rate("accepted"),
      num_field(stats, "completed"), rate("completed"),
      num_field(stats, "failed"), num_field(stats, "rejected"));

  const double mem = num_field(health, "memory_bytes");
  const double limit = num_field(health, "memory_limit_bytes");
  std::printf("mem: %s high-water", human_bytes(mem).c_str());
  if (limit > 0) std::printf(" / %s limit", human_bytes(limit).c_str());
  std::printf("   journal %s\n\n",
              human_bytes(num_field(health, "journal_bytes")).c_str());

  std::printf("%-16s %-8s %-20s %7s %8s %8s %8s %8s %8s\n", "ID", "STATE",
              "STAGE", "CPU%", "CPU(s)", "WAIT(s)", "STRASH", "ARENA",
              "ELAPSED");

  const Json* rows = jobs.find("jobs");
  std::map<std::string, JobSample> next_cpu;
  std::size_t shown = 0;
  if (rows != nullptr && rows->is_array()) {
    for (const Json& j : rows->items()) {
      if (!j.is_object()) continue;
      const std::string id = str_field(j, "id");
      const double cpu_us = num_field(j, "cpu_us");
      JobSample sample;
      sample.cpu_us = cpu_us;
      sample.at_seconds = uptime;
      next_cpu[id] = sample;

      // Utilization over the window since this job was last seen: >100%
      // means multiple pool workers were attributed to it concurrently.
      double cpu_pct = 0.0;
      if (const auto it = last_cpu.find(id);
          it != last_cpu.end() && uptime > it->second.at_seconds) {
        cpu_pct = (cpu_us - it->second.cpu_us) /
                  ((uptime - it->second.at_seconds) * 1e6) * 100.0;
      }

      char stage[32];
      std::snprintf(stage, sizeof(stage), "%.0f/%.0f %s",
                    num_field(j, "stage"), num_field(j, "stages"),
                    str_field(j, "pass").c_str());
      std::printf("%-16.16s %-8s %-20.20s %7.0f %8.2f %8.2f %8s %8s %8.1f\n",
                  id.c_str(), str_field(j, "state").c_str(), stage, cpu_pct,
                  cpu_us / 1e6, num_field(j, "queue_wait_seconds"),
                  human_bytes(num_field(j, "strash_bytes")).c_str(),
                  human_bytes(num_field(j, "arena_bytes")).c_str(),
                  num_field(j, "seconds"));
      ++shown;
    }
  }
  if (shown == 0) std::printf("(no jobs in flight)\n");
  std::fflush(stdout);
  last_cpu.swap(next_cpu);
}

void usage() {
  std::fputs(
      "usage: mcs_top --connect SPEC [--interval-ms N] [--once]\n"
      "\n"
      "  --connect unix:PATH | tcp:HOST:PORT | pipe:TO_FIFO,FROM_FIFO\n"
      "  --interval-ms N   poll period (default 1000)\n"
      "  --once            print a single frame and exit (no screen clear)\n"
      "  --frames N        exit after N frames (0 = until Ctrl-C/EOF)\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect_to;
  long interval_ms = 1000;
  bool once = false;
  long frames = 0;

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "mcs_top: %s needs a value\n", argv[i]);
      std::exit(1);
    }
    return argv[++i];
  };
  // A numeric flag's value is a whole non-negative number; anything else
  // ("1s", "-1", "junk") is a usage error, never a silent 0.
  auto need_count = [&](int& i) -> long long {
    const char* flag = argv[i];
    const char* text = need_value(i);
    const std::optional<long long> v = mcs::flow::parse_int(text);
    if (!v || *v < 0) {
      std::fprintf(stderr,
                   "mcs_top: %s expects a non-negative integer, got '%s'\n",
                   flag, text);
      std::exit(1);
    }
    return *v;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect") {
      connect_to = need_value(i);
    } else if (arg == "--interval-ms") {
      interval_ms = need_count(i);
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--frames") {
      frames = need_count(i);
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "mcs_top: unknown option %s\n", arg.c_str());
      usage();
      return 1;
    }
  }
  if (connect_to.empty()) {
    usage();
    return 1;
  }
  if (interval_ms <= 0) interval_ms = 1000;
  if (once) frames = 1;
  std::signal(SIGINT, on_sigint);
  std::signal(SIGPIPE, SIG_IGN);

  mcs::tools::Connection conn;
  if (!mcs::tools::connect_spec(connect_to, conn)) {
    std::fprintf(stderr, "mcs_top: cannot connect to %s\n",
                 connect_to.c_str());
    return 1;
  }

  std::map<std::string, JobSample> last_cpu;
  Json last_stats = Json::null();
  bool have_last = false;
  long frame = 0;
  while (g_stop == 0) {
    Json health = Json::null();
    Json stats = Json::null();
    Json jobs = Json::null();
    if (!query(conn, mcs::server::health_request_line(), health) ||
        !query(conn, mcs::server::stats_request_line(), stats) ||
        !query(conn, mcs::server::jobs_request_line(), jobs)) {
      std::fprintf(stderr, "mcs_top: server is gone\n");
      return frame > 0 ? 0 : 1;
    }
    draw_frame(health, stats, jobs, connect_to, interval_ms / 1000.0,
               last_cpu, have_last ? &last_stats : nullptr, /*clear=*/!once);
    last_stats = std::move(stats);
    have_last = true;
    ++frame;
    if (frames > 0 && frame >= frames) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}
