/// \file mcs_server.cpp
/// \brief The synthesis job-server daemon.
///
/// Wraps server::JobServer in three transports:
///
///   mcs_server --pipe               # NDJSON on stdin/stdout (tests, CI)
///   mcs_server --unix /run/mcs.sock # Unix domain socket, thread per client
///   mcs_server --tcp 7171           # TCP on 127.0.0.1, thread per client
///
/// All transports speak the protocol of server/protocol.hpp verbatim.  The
/// daemon drains gracefully on SIGTERM/SIGINT (stops accepting, finishes
/// every in-flight job, then exits 0) -- delivered via the classic
/// self-pipe trick so blocked poll() loops wake deterministically.  A
/// protocol {"type": "shutdown"} from any client stops the daemon the same
/// way.  In pipe mode EOF on stdin is an implicit shutdown, so
/// `mcs_submit --script jobs.ndjson` against a FIFO pair is a complete
/// smoke test with no networking at all.
///
/// With `--supervise` the process becomes a parent watchdog: it forks the
/// actual serving worker, restarts it (exponential backoff, bounded by
/// `--max-restarts`) whenever it dies without exiting 0, and forwards
/// SIGTERM/SIGINT so a drain still reaches the worker.  Paired with
/// `--journal PATH` the restarted worker replays accepted-but-unfinished
/// jobs from the durable journal, so a `kill -9` mid-job still ends in a
/// "done" line for every accepted job (marked "retried": true).  Per-stage
/// network snapshots (on by default with a journal; see --ckpt-dir) let a
/// replayed job *resume* at its last completed stage instead of re-running
/// the whole flow -- its done line then carries "resumed_stage": N.

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mcs/fail/fail.hpp"
#include "mcs/flow/flow.hpp"
#include "mcs/server/protocol.hpp"
#include "mcs/server/server.hpp"

namespace {

int g_signal_pipe[2] = {-1, -1};

void on_terminate_signal(int) {
  const char byte = 1;
  // write(2) is async-signal-safe; the result is irrelevant (a full pipe
  // already means a pending wakeup).
  [[maybe_unused]] ssize_t r = write(g_signal_pipe[1], &byte, 1);
}

void install_signal_handlers() {
  if (pipe(g_signal_pipe) != 0) {
    std::perror("mcs_server: pipe");
    std::exit(1);
  }
  fcntl(g_signal_pipe[0], F_SETFL, O_NONBLOCK);
  fcntl(g_signal_pipe[1], F_SETFL, O_NONBLOCK);
  struct sigaction sa = {};
  sa.sa_handler = on_terminate_signal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);  // sink write errors are handled, not fatal
}

/// Writes all of \p data to \p fd; false on error (client gone).
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Socket variant of write_all: MSG_NOSIGNAL so a vanished peer yields
/// EPIPE instead of SIGPIPE even if the handler were ever reset, and a
/// failed write half-closes the socket -- that pops the connection's
/// blocked read loop, which detaches the client and cancels its jobs.
/// A dead sink therefore disconnects cleanly instead of wedging runners
/// behind an unwritable fd.
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      shutdown(fd, SHUT_RDWR);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void usage() {
  std::fputs(
      "usage: mcs_server (--pipe | --unix PATH | --tcp PORT) [options]\n"
      "\n"
      "transports\n"
      "  --pipe            serve one client on stdin/stdout (NDJSON lines)\n"
      "  --unix PATH       listen on a Unix domain socket\n"
      "  --tcp PORT        listen on 127.0.0.1:PORT\n"
      "\n"
      "options\n"
      "  --slots N           concurrent job runners (default: auto, 2..8)\n"
      "  --threads-per-job N worker threads per job stage (default 1)\n"
      "  --timeout-ms N      default per-job wall-clock budget (default none)\n"
      "  --max-jobs N        in-flight job cap before rejecting (default 4096)\n"
      "  --no-stream         suppress per-stage \"stage\" lines\n"
      "\n"
      "robustness\n"
      "  --journal PATH      durable fsync'd job journal; replayed on restart\n"
      "  --journal-max-bytes N  auto-compact the journal past N bytes\n"
      "                      (default 64 MiB; 0 = never)\n"
      "  --done-cache N      done lines retained for late attach, also the\n"
      "                      journal compaction budget (default 256)\n"
      "  --ckpt-dir PATH     per-stage network snapshot directory (default\n"
      "                      JOURNAL.ckpt); restarts resume jobs at their\n"
      "                      last checkpointed stage\n"
      "  --no-stage-ckpt     disable per-stage snapshots (replay restarts\n"
      "                      every recovered job from stage 0)\n"
      "  --supervise         watchdog parent: forks the worker, restarts it on\n"
      "                      crash (needs --unix/--tcp; pair with --journal)\n"
      "  --pidfile PATH      write the worker pid here (rewritten per restart)\n"
      "  --max-restarts N    supervisor restart budget (default 10)\n"
      "  --backoff-ms N      first restart delay, doubling to 5s (default 100)\n"
      "  --max-input-bytes N     reject larger inline inputs (default 16 MiB)\n"
      "  --max-jobs-per-client N per-client in-flight quota (default 1024)\n"
      "  --max-memory-mb N   shed new jobs past this arena high-water (0 = off)\n"
      "\n"
      "telemetry\n"
      "  --telemetry-interval-ms N  obs ring sampler period served by the\n"
      "                      \"stats\" verb (default 500; 0 disables)\n"
      "  --telemetry-ring N  retained registry samples (default 120)\n"
      "\n"
      "SIGTERM/SIGINT drain gracefully: accepted jobs finish, then exit 0.\n",
      stderr);
}

// --- pipe mode --------------------------------------------------------------

int run_pipe(mcs::server::JobServer& server) {
  std::mutex out_mutex;
  const std::uint64_t client =
      server.attach([&out_mutex](const std::string& line) {
        std::lock_guard<std::mutex> lock(out_mutex);
        write_all(STDOUT_FILENO, line + "\n");
      });

  std::string buffer;
  char chunk[4096];
  bool stop = false;
  while (!stop) {
    pollfd fds[2] = {{STDIN_FILENO, POLLIN, 0}, {g_signal_pipe[0], POLLIN, 0}};
    if (poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // SIGTERM/SIGINT: drain below
    if (fds[0].revents == 0) continue;
    const ssize_t n = read(STDIN_FILENO, chunk, sizeof(chunk));
    if (n <= 0) break;  // EOF: implicit shutdown
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      server.handle_line(client, line);
      if (server.draining()) {
        stop = true;  // "shutdown" request; stop reading, drain below
        break;
      }
    }
  }

  if (!server.draining()) {
    // SIGTERM/EOF path: announce the drain like a protocol shutdown would.
    server.handle_line(client, mcs::server::shutdown_line());
  }
  server.drain();
  {
    std::lock_guard<std::mutex> lock(out_mutex);
    write_all(STDOUT_FILENO,
              mcs::server::drained_line(server.counters()) + "\n");
  }
  server.detach(client);
  return 0;
}

// --- socket modes -----------------------------------------------------------

struct ConnectionSet {
  std::mutex mutex;
  // fd -> that connection's write mutex (shared with its attached sink, so
  // broadcasts cannot interleave with streamed stage/done lines).
  std::map<int, std::shared_ptr<std::mutex>> fds;

  std::shared_ptr<std::mutex> add(int fd) {
    auto write_mutex = std::make_shared<std::mutex>();
    std::lock_guard<std::mutex> lock(mutex);
    fds.emplace(fd, write_mutex);
    return write_mutex;
  }
  void remove(int fd) {
    std::lock_guard<std::mutex> lock(mutex);
    fds.erase(fd);
  }
  /// Writes one line to every live connection.
  void broadcast(const std::string& line) {
    std::vector<std::pair<int, std::shared_ptr<std::mutex>>> snapshot;
    {
      std::lock_guard<std::mutex> lock(mutex);
      snapshot.assign(fds.begin(), fds.end());
    }
    for (const auto& [fd, write_mutex] : snapshot) {
      std::lock_guard<std::mutex> lock(*write_mutex);
      send_all(fd, line + "\n");
    }
  }
  /// Wakes every blocked connection reader (used at drain time).
  void shutdown_all() {
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto& [fd, write_mutex] : fds) shutdown(fd, SHUT_RDWR);
  }
};

void serve_connection(mcs::server::JobServer& server, int fd,
                      ConnectionSet& connections,
                      std::shared_ptr<std::mutex> out_mutex) {
  const std::uint64_t client =
      server.attach([fd, out_mutex](const std::string& line) {
        std::lock_guard<std::mutex> lock(*out_mutex);
        send_all(fd, line + "\n");
      });

  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      server.handle_line(client, line);
      if (server.draining()) {
        // A protocol "shutdown" stops the whole daemon, exactly like
        // SIGTERM: wake the accept loop through the self-pipe so
        // run_listener proceeds to its drain/teardown.
        on_terminate_signal(0);
      }
    }
  }
  // Disconnect cancels the client's jobs: nobody is listening for their
  // results, and freeing their slots is the multi-tenant-friendly choice.
  // The shutdown makes a sink blocked on a peer that stopped reading
  // return; detach then waits out any sink call still running, so the fd
  // is closed (and may be reused) only once no sink can write to it.
  shutdown(fd, SHUT_RDWR);
  server.detach(client, /*cancel_jobs=*/true);
  connections.remove(fd);
  close(fd);
}

int run_listener(mcs::server::JobServer& server, int listen_fd) {
  ConnectionSet connections;
  std::vector<std::thread> threads;

  for (;;) {
    pollfd fds[2] = {{listen_fd, POLLIN, 0}, {g_signal_pipe[0], POLLIN, 0}};
    if (poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // SIGTERM/SIGINT
    if (fds[0].revents == 0) continue;
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    auto out_mutex = connections.add(fd);
    threads.emplace_back([&server, fd, &connections, out_mutex] {
      serve_connection(server, fd, connections, out_mutex);
    });
  }

  close(listen_fd);
  server.drain();               // finish in-flight jobs; dones still stream
  // Tell every client the drain completed (clients like `mcs_submit
  // --shutdown` block on this line), then cut the connections.
  connections.broadcast(mcs::server::drained_line(server.counters()));
  connections.shutdown_all();   // wake readers so threads exit
  for (std::thread& t : threads) t.join();
  return 0;
}

int listen_unix(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("mcs_server: socket");
    return -1;
  }
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "mcs_server: socket path too long: %s\n",
                 path.c_str());
    close(fd);
    return -1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  unlink(path.c_str());  // stale socket from a previous run
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 64) != 0) {
    std::perror("mcs_server: bind/listen");
    close(fd);
    return -1;
  }
  return fd;
}

// --- supervisor mode --------------------------------------------------------

volatile sig_atomic_t g_supervisor_stop = 0;
volatile pid_t g_worker_pid = -1;

void on_supervisor_signal(int sig) {
  g_supervisor_stop = 1;
  const pid_t pid = g_worker_pid;
  if (pid > 0) kill(pid, sig);  // forward: the worker drains gracefully
}

struct SupervisorOptions {
  std::string pidfile;    ///< worker pid, rewritten on every (re)start
  int max_restarts = 10;  ///< crash-restart budget before giving up
  long backoff_ms = 100;  ///< first restart delay; doubles, capped at 5s
};

void write_pidfile(const std::string& path, pid_t pid) {
  if (path.empty()) return;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror("mcs_server: pidfile");
    return;
  }
  std::fprintf(f, "%d\n", static_cast<int>(pid));
  std::fclose(f);
}

/// The parent watchdog: forks the serving worker and restarts it, with
/// exponential backoff and within the restart budget, whenever it dies
/// without exiting 0.  All protocol state a restart must preserve lives
/// in the worker's journal (the worker replays it and re-binds its own
/// listening socket), so the supervisor stays trivially crash-free: it
/// holds a pid and a counter, nothing else.  Returns the parent's exit
/// code, or -1 in the forked child -- the caller then falls through
/// into the normal worker path.
int supervise_loop(const SupervisorOptions& sup) {
  struct sigaction sa = {};
  sa.sa_handler = on_supervisor_signal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);

  int restarts = 0;
  long backoff_ms = std::max(sup.backoff_ms, 1L);
  for (;;) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("mcs_server: fork");
      return 1;
    }
    if (pid == 0) return -1;  // child: become the worker
    g_worker_pid = pid;
    write_pidfile(sup.pidfile, pid);

    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    g_worker_pid = -1;

    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (clean || g_supervisor_stop) {
      if (!sup.pidfile.empty()) unlink(sup.pidfile.c_str());
      return clean ? 0 : 1;
    }
    if (restarts >= sup.max_restarts) {
      std::fprintf(stderr,
                   "mcs_server: restart budget (%d) exhausted, giving up\n",
                   sup.max_restarts);
      if (!sup.pidfile.empty()) unlink(sup.pidfile.c_str());
      return 1;
    }
    ++restarts;
    if (WIFSIGNALED(status)) {
      std::fprintf(stderr,
                   "mcs_server: worker killed by signal %d; restart %d/%d "
                   "in %ld ms\n",
                   WTERMSIG(status), restarts, sup.max_restarts, backoff_ms);
    } else {
      std::fprintf(stderr,
                   "mcs_server: worker exited %d; restart %d/%d in %ld ms\n",
                   WIFEXITED(status) ? WEXITSTATUS(status) : -1, restarts,
                   sup.max_restarts, backoff_ms);
    }
    usleep(static_cast<useconds_t>(backoff_ms) * 1000);
    backoff_ms = std::min(backoff_ms * 2, 5000L);
    if (g_supervisor_stop) {
      // Stop requested during the backoff window; nothing left to kill.
      if (!sup.pidfile.empty()) unlink(sup.pidfile.c_str());
      return 0;
    }
  }
}

int listen_tcp(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("mcs_server: socket");
    return -1;
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 64) != 0) {
    std::perror("mcs_server: bind/listen");
    close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kNone, kPipe, kUnix, kTcp };
  Mode mode = Mode::kNone;
  std::string unix_path;
  int tcp_port = 0;
  mcs::server::ServerOptions options;
  bool supervise = false;
  SupervisorOptions sup;

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "mcs_server: %s needs a value\n", argv[i]);
      std::exit(1);
    }
    return argv[++i];
  };
  // A numeric flag's value is a whole number in [0, max]; anything else
  // ("16M", "-1", "junk") is a usage error, never a silently wrapped limit.
  auto need_count = [&](int& i, long long max = LLONG_MAX) -> long long {
    const char* flag = argv[i];
    const char* text = need_value(i);
    const std::optional<long long> v = mcs::flow::parse_int(text);
    if (!v || *v < 0 || *v > max) {
      std::fprintf(stderr, "mcs_server: %s expects a non-negative integer",
                   flag);
      if (max != LLONG_MAX) std::fprintf(stderr, " up to %lld", max);
      std::fprintf(stderr, ", got '%s'\n", text);
      std::exit(1);
    }
    return *v;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--pipe") {
      mode = Mode::kPipe;
    } else if (arg == "--unix") {
      mode = Mode::kUnix;
      unix_path = need_value(i);
    } else if (arg == "--tcp") {
      mode = Mode::kTcp;
      tcp_port = static_cast<int>(need_count(i, 65535));
    } else if (arg == "--slots") {
      options.job_slots = static_cast<int>(need_count(i, INT_MAX));
    } else if (arg == "--threads-per-job") {
      options.threads_per_job = static_cast<int>(need_count(i, INT_MAX));
    } else if (arg == "--timeout-ms") {
      options.default_timeout_ms = need_count(i);
    } else if (arg == "--max-jobs") {
      options.max_jobs_in_flight = static_cast<std::size_t>(need_count(i));
    } else if (arg == "--no-stream") {
      options.stream_stages = false;
    } else if (arg == "--journal") {
      options.journal_path = need_value(i);
    } else if (arg == "--journal-max-bytes") {
      options.journal_max_bytes = static_cast<std::size_t>(need_count(i));
    } else if (arg == "--done-cache") {
      options.done_cache = static_cast<std::size_t>(need_count(i));
    } else if (arg == "--ckpt-dir") {
      options.ckpt_dir = need_value(i);
    } else if (arg == "--no-stage-ckpt") {
      options.stage_checkpoints = false;
    } else if (arg == "--supervise") {
      supervise = true;
    } else if (arg == "--pidfile") {
      sup.pidfile = need_value(i);
    } else if (arg == "--max-restarts") {
      sup.max_restarts = static_cast<int>(need_count(i, INT_MAX));
    } else if (arg == "--backoff-ms") {
      sup.backoff_ms = static_cast<long>(need_count(i, LONG_MAX));
    } else if (arg == "--max-input-bytes") {
      options.max_input_bytes = static_cast<std::size_t>(need_count(i));
    } else if (arg == "--max-jobs-per-client") {
      options.max_jobs_per_client = static_cast<std::size_t>(need_count(i));
    } else if (arg == "--max-memory-mb") {
      options.max_memory_mb = static_cast<std::size_t>(need_count(i));
    } else if (arg == "--telemetry-interval-ms") {
      options.telemetry_interval_ms =
          static_cast<unsigned>(need_count(i, UINT_MAX));
    } else if (arg == "--telemetry-ring") {
      options.telemetry_ring = static_cast<std::size_t>(need_count(i));
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "mcs_server: unknown option %s\n", arg.c_str());
      usage();
      return 1;
    }
  }
  if (mode == Mode::kNone) {
    usage();
    return 1;
  }
  if (mode == Mode::kTcp && (tcp_port <= 0 || tcp_port > 65535)) {
    std::fprintf(stderr, "mcs_server: bad TCP port\n");
    return 1;
  }

  if (supervise) {
    if (mode == Mode::kPipe) {
      std::fprintf(stderr,
                   "mcs_server: --supervise needs --unix or --tcp (a "
                   "restarted worker cannot resume a half-consumed stdin)\n");
      return 1;
    }
    if (options.journal_path.empty()) {
      std::fprintf(stderr,
                   "mcs_server: warning: --supervise without --journal; "
                   "in-flight jobs are lost on a worker crash\n");
    }
    const int rc = supervise_loop(sup);
    if (rc >= 0) return rc;  // parent watchdog is done
    // Forked child: fall through and serve.  The worker re-binds the
    // listening socket and replays the journal itself, so nothing needs
    // to survive in the supervisor across restarts.
  }

  install_signal_handlers();
  // Arm MCS_FAULTS for the transport-level sites (server.line/server.emit)
  // -- flow::run would arm them too, but only once a job reaches a stage.
  mcs::fail::init_from_env();
  if (!supervise) write_pidfile(sup.pidfile, getpid());

  mcs::server::JobServer server(options);
  if (mode == Mode::kPipe) return run_pipe(server);

  const int listen_fd =
      mode == Mode::kUnix ? listen_unix(unix_path) : listen_tcp(tcp_port);
  if (listen_fd < 0) return 1;
  std::fprintf(stderr, "mcs_server: listening on %s\n",
               mode == Mode::kUnix
                   ? unix_path.c_str()
                   : ("127.0.0.1:" + std::to_string(tcp_port)).c_str());
  const int rc = run_listener(server, listen_fd);
  if (mode == Mode::kUnix) unlink(unix_path.c_str());
  return rc;
}
