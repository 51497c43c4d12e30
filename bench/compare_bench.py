#!/usr/bin/env python3
"""Compare two kernel-bench JSON-line files and flag regressions.

Input files are what `bench_micro --json=PATH` (and any bench run with
MCS_BENCH_OUT=PATH) produce: one JSON object per line, each carrying a
"bench" name plus metrics.  Throughput ("items_per_sec", higher is better)
is preferred for the comparison; benches without it fall back to "seconds"
(lower is better).  When a file holds several lines for one bench (appended
runs), the best value wins.

Rows may carry two extra payloads this script understands:

  "hardware_threads": N -- the runner's core count.  When baseline and
      current disagree, wall-clock comparisons are not apples-to-apples:
      a caveat is printed and *timing* regressions are downgraded to
      warnings (work-amount regressions below still fail the run).
  "metrics": {...} -- a flat counter-delta object (see bench_util.hpp's
      MetricsWindow).  Counters measure the *amount of work* (strash
      probes, sweep SAT calls), which is hardware-independent, so these
      are diffed with the same threshold and always enforced.  Tracked
      indicators: the strash collision rate (extra probes per lookup),
      the sweep/CEC SAT-call count, and the MCH acyclicity guard's
      searches and re-rankings.

QoR rows (`bench_paper`'s, carrying "table", "circuit" and "column") are
keyed by those three fields and must match exactly: QoR is deterministic
and hardware-independent, so any changed, missing or extra value fails the
run whatever --warn-only or the hardware caveat says.

Usage:
  compare_bench.py BASELINE.json CURRENT.json [--threshold PCT] [--warn-only]

Exits 1 when any bench regresses by more than the threshold (default 10%),
unless --warn-only is given (informational mode, e.g. CI runners whose
hardware differs from the committed baseline's), and on any QoR difference.
"""

import argparse
import json
import sys


QOR_KEY = ("table", "circuit", "column")


def load(path):
    """(bench key -> row dict, QoR key -> QoR fields) of one JSON-line file.

    Timing rows map to metric/value/higher_better/metrics/hw_threads.
    Thread-scaling entries (lines carrying a "threads" field, e.g. the
    `bench_micro --json-par` suite) are keyed "name@tN" so the regression
    check compares equal thread counts against each other.
    """
    best = {}
    qor = {}
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{line_no}: not a JSON line: {e}")
            name = obj.get("bench")
            if not name:
                continue
            if "table" in obj:
                key = " / ".join(str(obj.get(k)) for k in QOR_KEY)
                fields = {k: v for k, v in obj.items()
                          if k != "bench" and k not in QOR_KEY}
                if qor.get(key, fields) != fields:
                    sys.exit(f"{path}:{line_no}: {key} repeats with other QoR")
                qor[key] = fields
                continue
            if "threads" in obj:
                name = f"{name}@t{obj['threads']}"
            if "items_per_sec" in obj:
                metric, value, higher_better = ("items_per_sec",
                                                float(obj["items_per_sec"]),
                                                True)
            elif "seconds" in obj:
                metric, value, higher_better = ("seconds",
                                                float(obj["seconds"]), False)
            else:
                continue
            prev = best.get(name)
            if prev is None or (value > prev["value"]) == higher_better:
                best[name] = {
                    "metric": metric,
                    "value": value,
                    "higher_better": higher_better,
                    "metrics": obj.get("metrics") or {},
                    "hw_threads": obj.get("hardware_threads"),
                }
    return best, qor


def compare_qor(base, cur):
    """Every QoR difference between two runs, as printable lines."""
    diffs = []
    for key in sorted(set(base) | set(cur)):
        if key not in cur:
            diffs.append(f"{key}: missing from current run")
        elif key not in base:
            diffs.append(f"{key}: not in the baseline")
        else:
            for field in sorted(set(base[key]) | set(cur[key])):
                b, c = base[key].get(field), cur[key].get(field)
                if b != c:
                    diffs.append(f"{key}: {field} {b} -> {c}")
    return diffs


def hw_threads_of(benches):
    """The distinct hardware_threads values announced by a run's rows."""
    return {row["hw_threads"] for row in benches.values()
            if row["hw_threads"] is not None}


def work_indicators(metrics):
    """Hardware-independent work-amount indicators from a metrics delta.

    Lower is better for every indicator returned.
    """
    out = {}
    lookups = metrics.get("strash.lookups", 0)
    collisions = metrics.get("strash.collisions")
    if collisions is None and "strash.probes" in metrics:
        # Older baselines recorded total probes instead of collisions.
        collisions = metrics["strash.probes"] - lookups
    if lookups > 0 and collisions is not None and collisions >= 0:
        # Extra probes per lookup: the open-addressing collision rate.
        out["strash_collision_rate"] = collisions / lookups
    if "sweep.sat_calls" in metrics:
        out["sweep_sat_calls"] = float(metrics["sweep.sat_calls"])
    if "cec.batches" in metrics:
        out["cec_batches"] = float(metrics["cec.batches"])
    # The MCH acyclicity guard: attaches that needed a search, and the
    # whole-network re-rankings they forced.
    if "choice.guard_searches" in metrics:
        out["guard_searches"] = float(metrics["choice.guard_searches"])
    if "choice.reranks" in metrics:
        out["guard_reranks"] = float(metrics["choice.reranks"])
    return out


def compare_work(name, base_row, cur_row, threshold, regressions):
    """Diffs the work indicators of one bench; appends to regressions."""
    base_ind = work_indicators(base_row["metrics"])
    cur_ind = work_indicators(cur_row["metrics"])
    for key in sorted(set(base_ind) & set(cur_ind)):
        b, c = base_ind[key], cur_ind[key]
        if b <= 0:
            continue
        growth = (c - b) / b * 100.0
        mark = ""
        if growth > threshold:
            mark = "  <-- WORK REGRESSION"
            regressions.append(
                (name, f"{key} grew {growth:.1f}% ({b:.4g} -> {c:.4g})"))
        print(f"{name:<24} {key:<22} {b:>12.4g} {c:>12.4g} "
              f"{growth:>+7.1f}%{mark}")


def report_speedup(benches, label):
    """Speedup-vs-1-thread table for every thread-scaling bench group."""
    groups = {}
    for key, row in benches.items():
        if "@t" not in key or row["metric"] != "seconds":
            continue
        name, threads = key.rsplit("@t", 1)
        try:
            groups.setdefault(name, {})[int(threads)] = row["value"]
        except ValueError:
            continue
    printed_header = False
    for name in sorted(groups):
        by_threads = groups[name]
        if 1 not in by_threads or by_threads[1] <= 0:
            continue
        if not printed_header:
            print(f"\nthread scaling ({label}):")
            print(f"{'bench':<24} " +
                  " ".join(f"{f't={t}':>9}" for t in sorted(by_threads)))
            printed_header = True
        base = by_threads[1]
        cells = " ".join(f"{base / by_threads[t]:>8.2f}x"
                         if by_threads[t] > 0 else f"{'-':>9}"
                         for t in sorted(by_threads))
        print(f"{name:<24} {cells}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression threshold in percent (default 10)")
    ap.add_argument("--warn-only", action="store_true",
                    help="report regressions but always exit 0")
    args = ap.parse_args()

    base, base_qor = load(args.baseline)
    cur, cur_qor = load(args.current)
    if not base and not base_qor:
        sys.exit(f"{args.baseline}: no benches found")
    if not cur and not cur_qor:
        sys.exit(f"{args.current}: no benches found")

    qor_diffs = compare_qor(base_qor, cur_qor)
    if base_qor or cur_qor:
        print(f"QoR: {len(base_qor)} baseline rows, {len(cur_qor)} current "
              f"rows, {len(qor_diffs)} difference(s)")
        for line in qor_diffs:
            print(f"  QoR CHANGED {line}")

    # Hardware caveat: wall-clock numbers from different machines (or core
    # counts) do not compare.  Timing regressions become warnings; the
    # work-amount diff below is unaffected.
    base_hw, cur_hw = hw_threads_of(base), hw_threads_of(cur)
    timing_comparable = not base_hw or not cur_hw or base_hw == cur_hw
    if not timing_comparable:
        print(f"CAVEAT: baseline ran on hardware_threads={sorted(base_hw)} "
              f"but current on {sorted(cur_hw)}; wall-clock deltas are not "
              "comparable and will not fail the run (work-amount metrics "
              "still do).")

    timing_regressions = []
    work_regressions = []
    if base or cur:
        print(f"{'bench':<24} {'metric':<14} {'baseline':>12} "
              f"{'current':>12} {'delta':>8}")
    for name in sorted(set(base) | set(cur)):
        if name not in base:
            print(f"{name:<24} {'(new)':<14} {'-':>12} "
                  f"{cur[name]['value']:>12.4g} {'-':>8}")
            continue
        if name not in cur:
            print(f"{name:<24} {'(missing)':<14} "
                  f"{base[name]['value']:>12.4g} {'-':>12} {'-':>8}")
            timing_regressions.append((name, "missing from current run"))
            continue
        row_b, row_c = base[name], cur[name]
        metric, b = row_b["metric"], row_b["value"]
        higher_better = row_b["higher_better"]
        c = row_c["value"]
        if b == 0:
            continue
        # Positive delta = improvement under either metric orientation.
        delta = (c - b) / b * 100.0 if higher_better else (b - c) / b * 100.0
        mark = ""
        if delta < -args.threshold:
            mark = "  <-- REGRESSION"
            timing_regressions.append((name, f"{-delta:.1f}% slower"))
        print(f"{name:<24} {metric:<14} {b:>12.4g} {c:>12.4g} "
              f"{delta:>+7.1f}%{mark}")

    # Work-amount diff: counter deltas attached by MetricsWindow.
    pairs = [(n, base[n], cur[n]) for n in sorted(set(base) & set(cur))
             if work_indicators(base[n]["metrics"]) and
             work_indicators(cur[n]["metrics"])]
    if pairs:
        print(f"\n{'bench':<24} {'work indicator':<22} {'baseline':>12} "
              f"{'current':>12} {'delta':>8}")
        for name, row_b, row_c in pairs:
            compare_work(name, row_b, row_c, args.threshold, work_regressions)

    report_speedup(cur, "current run")

    fatal = list(work_regressions)
    if timing_comparable:
        fatal += timing_regressions
    elif timing_regressions:
        print(f"\n{len(timing_regressions)} timing regression(s) ignored "
              "(hardware mismatch; see caveat above)", file=sys.stderr)

    if qor_diffs:
        print(f"\n{len(qor_diffs)} QoR difference(s); QoR is exact, so this "
              "fails regardless of --warn-only", file=sys.stderr)
        sys.exit(1)
    if fatal:
        print(f"\n{len(fatal)} regression(s) beyond "
              f"{args.threshold:.0f}%:", file=sys.stderr)
        for name, why in fatal:
            print(f"  {name}: {why}", file=sys.stderr)
        if not args.warn_only:
            sys.exit(1)
        print("(--warn-only: exiting 0)", file=sys.stderr)
    else:
        print("\nno regressions beyond "
              f"{args.threshold:.0f}% threshold")


if __name__ == "__main__":
    main()
