#!/usr/bin/env bash
# End-to-end smoke test of the mcs_server daemon in pipe mode (no
# networking): a FIFO pair feeds one server process a mixed batch through
# mcs_submit --script -- small maps, a heavier optimization job, an inline
# AIGER input, a job that gets cancelled mid-session, a rejected submit and
# a malformed line -- then requests shutdown and checks the drain
# accounting.
#
# Fault mode: when MCS_FAULTS is set (the fault-soak CI job rotates specs
# like "server.line=throw,every=5") the injected faults legitimately change
# job outcomes, so the exact per-job assertions give way to the invariants
# that must hold under ANY fault schedule: the daemon exits 0, every output
# line stays well-formed JSON, the session still drains to zero jobs, and
# the drained counters exactly balance the response stream (every accepted
# job got a done line; every error line is accounted as a rejection or a
# protocol error).  Specs targeting server.emit drop response lines by
# design and break that line accounting -- don't use them here.
#
# Usage: scripts/server_smoke.sh [BUILD_DIR]   (default: ./build)
set -euo pipefail

build_dir=${1:-build}
server=$build_dir/tools/mcs_server
submit=$build_dir/tools/mcs_submit
[ -x "$server" ] && [ -x "$submit" ] || {
  echo "server_smoke: build mcs_server + mcs_submit first ($build_dir)" >&2
  exit 1
}

# Numeric flags parse strictly: a unit suffix, a negative value or junk is a
# usage error (exit 1), never a silently truncated or wrapped limit.
for bad in "--max-input-bytes 16M" "--max-jobs -1" "--slots junk"; do
  rc=0
  # shellcheck disable=SC2086  # $bad is a flag and its value
  "$server" --pipe $bad < /dev/null > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "server_smoke: FAIL: mcs_server --pipe $bad exited $rc, not 1" >&2
    exit 1
  fi
done

work=$(mktemp -d)
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$work"' EXIT

mkfifo "$work/to_server" "$work/from_server"

# Heavy job first so the small jobs demonstrably overtake it; cancellation
# targets the second heavy job after a short delay so it is (on any but an
# absurdly fast machine) mid-run when the cancel lands -- and "cancelled
# before start" is an equally valid outcome on a loaded runner.  The
# "inline" job carries its netlist as inline ASCII AIGER, which is what the
# server.input short-read fault site truncates.
cat > "$work/session.ndjson" <<'EOF'
{"type": "ping"}
{"type": "submit", "id": "heavy", "flow": "gen:multiplier,bits=64; compress2rs", "weight": 1.0}
{"type": "submit", "id": "victim", "flow": "gen:multiplier,bits=64; compress2rs; compress2rs; compress2rs"}
{"type": "submit", "id": "small1", "flow": "gen:adder,bits=8; map_lut:k=4"}
{"type": "submit", "id": "small2", "flow": "gen:adder,bits=16; rewrite"}
{"type": "submit", "id": "small3", "flow": "gen:adder,bits=8; compress2rs; cec"}
{"type": "submit", "id": "inline", "flow": "strash; rewrite", "input": {"format": "aiger", "text": "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"}}
{"type": "submit", "id": "reject-me", "flow": "no_such_pass:bogus=1"}
this line is not JSON at all
{"type": "submit", "id": "late-timeout", "flow": "gen:multiplier,bits=64; compress2rs", "timeout_ms": 1}
!sleep 150
{"type": "cancel", "id": "victim"}
{"type": "shutdown"}
EOF

if [ -n "${MCS_FAULTS:-}" ]; then
  # A server.line fault can eat the shutdown request (it becomes a protocol
  # error).  An every=N schedule cannot fire on two consecutive lines, so a
  # second shutdown guarantees the drain -- the server stops reading at the
  # first one that lands, leaving a surplus line unread at worst.
  echo '{"type": "shutdown"}' >> "$work/session.ndjson"
fi

"$server" --pipe < "$work/to_server" > "$work/from_server" &
server_pid=$!

# Under injected faults a submit may be eaten before acceptance and its job
# then never reports done, which makes the client exit 1 by design; the
# daemon's own exit code is asserted by the wait below either way.
"$submit" --connect "pipe:$work/to_server,$work/from_server" \
          --script "$work/session.ndjson" > "$work/responses.ndjson" \
  || [ -n "${MCS_FAULTS:-}" ]

wait "$server_pid"
echo "--- session transcript ---"
cat "$work/responses.ndjson"
echo "--------------------------"

python3 - "$work/responses.ndjson" <<'EOF'
import json, os, sys

fault_mode = bool(os.environ.get("MCS_FAULTS"))

done, errors, types = {}, [], []
accepted_lines = 0
drained = None
for line in open(sys.argv[1]):
    line = line.strip()
    if not line:
        continue
    msg = json.loads(line)  # every server line must be well-formed JSON
    types.append(msg["type"])
    if msg["type"] == "done":
        done[msg["job"]] = msg["status"]
    elif msg["type"] == "accepted":
        accepted_lines += 1
    elif msg["type"] == "error":
        errors.append(msg)
    elif msg["type"] == "drained":
        drained = msg

def check(cond, what):
    if not cond:
        sys.exit(f"server_smoke: FAIL: {what}")

check(drained is not None, "session should end with a drained line")
check(drained["jobs"] == 0, "drained should report zero jobs in flight")

if fault_mode:
    # Invariants that hold under any fault schedule: the counters must
    # exactly balance the response stream, whatever the faults did to the
    # individual jobs.
    finished = (drained["completed"] + drained["failed"] +
                drained["cancelled"] + drained["timed_out"])
    check(drained["accepted"] == finished,
          f"accepted {drained['accepted']} != finished {finished}")
    check(len(done) == drained["accepted"],
          f"{len(done)} done lines for {drained['accepted']} accepted jobs")
    check(accepted_lines == drained["accepted"],
          f"{accepted_lines} accepted lines vs counter {drained['accepted']}")
    # Per-job error lines split into rejected submits and failed
    # cancel/attach lookups (the latter are answered but not counted as
    # rejections); job-less error lines are exactly the protocol errors.
    rejects = sum(1 for e in errors if e.get("job")
                  and not e["error"].startswith(("cancel:", "attach:")))
    protocol_errors = sum(1 for e in errors if not e.get("job"))
    check(rejects == drained["rejected"],
          f"{rejects} reject error lines vs rejected {drained['rejected']}")
    check(protocol_errors == drained["protocol_errors"],
          f"{protocol_errors} protocol error lines vs counter "
          f"{drained['protocol_errors']}")
    print(f"server_smoke: OK under MCS_FAULTS={os.environ['MCS_FAULTS']} --",
          f"{len(done)} done, {drained['rejected']} rejected,",
          f"{drained['protocol_errors']} protocol errors, drain balanced")
    sys.exit(0)

check(types[0] == "pong", "first response should be the pong")
for job in ("heavy", "small1", "small2", "small3", "inline"):
    check(done.get(job) == "ok", f"{job} should finish ok (got {done.get(job)})")
check(done.get("victim") == "cancelled",
      f"victim should be cancelled (got {done.get('victim')})")
check(done.get("late-timeout") == "timeout",
      f"late-timeout should time out (got {done.get('late-timeout')})")
check(any(e.get("job") == "reject-me" for e in errors),
      "reject-me should be rejected with an error line")
check(any("job" not in e for e in errors),
      "the malformed line should produce a job-less protocol error")
check(drained["completed"] == 5, f"5 ok jobs (got {drained['completed']})")
check(drained["cancelled"] == 1, "1 cancelled job")
check(drained["timed_out"] == 1, "1 timed-out job")
check(drained["rejected"] == 1, "1 rejected submit")
check(drained["protocol_errors"] == 1, "1 protocol error")

# Fairness, observable in the stream order: both small map jobs must be
# done before the heavy compress2rs job finishes (they were submitted
# later; stage-granular fair scheduling lets them overtake).
order = [m["job"] for m in map(json.loads, open(sys.argv[1]))
         if m.get("type") == "done"]
check(order.index("small1") < order.index("heavy"),
      f"small1 should finish before heavy (order: {order})")
print("server_smoke: OK --", len(order), "jobs done in order", order)
EOF
