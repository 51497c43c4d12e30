#!/usr/bin/env python3
"""Validate a multicore scaling run and promote it to baseline.

The committed `BENCH_par.json` baseline must come from a machine with real
parallelism: on one core, speedups are definitionally ~1.0x and say
nothing about scaling health.  This script gates the promotion: it checks
that a candidate run (from `bench_micro --json-par=...` on a multicore
runner, e.g. the CI artifact) is actually fit to be the reference, then
writes it to the baseline path.

The sweep-scaling baseline rides the same gate: point `--reference` and
`--out` at BENCH_sweep.json for a `bench_micro --json-sweep=...` run.
Rows without a "threads" field are keyed on the bench name alone and skip
the thread-series checks.

Checks, all hard failures:
  - every row parses and carries bench/seconds/hardware_threads,
  - hardware_threads > 1 and identical across rows (one machine, one run),
  - the (bench, threads) set covers the reference row set (nothing
    silently dropped vs the current baseline),
  - "deterministic" is true wherever present (a nondeterministic run must
    never become the comparison anchor),
  - every bench with a thread series contains threads=1 (speedups have an
    anchor) and speedup values are self-consistent with seconds.

Usage:
  promote_baseline.py CANDIDATE.json [--reference BENCH_par.json]
                      [--out BENCH_par.json] [--check-only] [--append]

`--check-only` validates without writing (the CI gate).  On promotion the
rows are copied verbatim -- this script never edits measurements.

`--append` adds a new row to a single-config suite such as
BENCH_kernel.json (`bench_micro --json`, whose rows carry no thread
series and no hardware_threads): the reference's lines stay
byte-identical and the candidate's rows for benches it lacks follow
them.  The candidate must still cover the reference's row set, and a
thread-series row is refused: it needs the full gate above.
"""

import argparse
import json
import sys


def load_rows(path):
    rows = []
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{line_no}: not a JSON line: {e}")
            rows.append((line_no, obj))
    if not rows:
        sys.exit(f"{path}: no rows")
    return rows


def key_set(rows):
    keys = set()
    for _, obj in rows:
        if "bench" in obj:
            # Single-config rows (no thread series) key on the bench alone.
            keys.add((obj["bench"], obj.get("threads")))
    return keys


def append_new_rows(args):
    """--append: the reference's lines verbatim, then the candidate's rows
    whose key the reference lacks, each line as the bench wrote it."""
    have = key_set(load_rows(args.reference))
    rows = load_rows(args.candidate)
    with open(args.candidate) as f:
        lines = f.read().splitlines()
    problems = []
    missing = have - key_set(rows)
    if missing:
        problems.append("missing rows vs reference: " +
                        ", ".join(f"{b}@t{t}" for b, t in sorted(missing)))
    new = []
    for line_no, obj in rows:
        where = f"{args.candidate}:{line_no}"
        if "bench" not in obj or "seconds" not in obj:
            problems.append(f"{where}: missing \"bench\" or \"seconds\"")
        elif (obj["bench"], obj.get("threads")) in have:
            continue
        elif "threads" in obj:
            problems.append(f"{where}: thread-series row; promote the "
                            "whole run without --append")
        elif obj.get("deterministic") is False:
            problems.append(f"{where}: nondeterministic row")
        else:
            new.append(lines[line_no - 1].strip())
    if not new and not problems:
        problems.append("no row to append")
    if problems:
        print(f"NOT appendable ({len(problems)} problem(s)):")
        for p in problems:
            print(f"  - {p}")
        sys.exit(1)
    print(f"candidate OK: {len(new)} new row(s): " +
          ", ".join(json.loads(line)["bench"] for line in new))
    if args.check_only:
        return
    with open(args.reference) as f:
        kept = f.read()
    if kept and not kept.endswith("\n"):
        kept += "\n"
    with open(args.out, "w") as dst:
        dst.write(kept + "".join(line + "\n" for line in new))
    print(f"appended {len(new)} row(s) of {args.candidate} -> {args.out}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("candidate")
    ap.add_argument("--reference", default="BENCH_par.json",
                    help="row-set reference (default: the current baseline)")
    ap.add_argument("--out", default="BENCH_par.json")
    ap.add_argument("--check-only", action="store_true",
                    help="validate without writing the baseline")
    ap.add_argument("--append", action="store_true",
                    help="keep the reference's rows byte-identical and "
                         "append the candidate's new single-config rows")
    args = ap.parse_args()
    if args.append:
        append_new_rows(args)
        return

    rows = load_rows(args.candidate)
    problems = []

    hw = set()
    for line_no, obj in rows:
        where = f"{args.candidate}:{line_no}"
        for field in ("bench", "seconds", "hardware_threads"):
            if field not in obj:
                problems.append(f"{where}: missing \"{field}\"")
        if obj.get("deterministic") is False:
            problems.append(f"{where}: nondeterministic row")
        if "hardware_threads" in obj:
            hw.add(obj["hardware_threads"])

    if len(hw) > 1:
        problems.append(f"mixed hardware_threads {sorted(hw)}: "
                        "rows are not from one machine/run")
    elif hw and next(iter(hw)) <= 1:
        problems.append(f"hardware_threads={next(iter(hw))}: a 1-core run "
                        "cannot become the multicore baseline")

    # Per-bench series checks: a threads=1 anchor and consistent speedups.
    series = {}
    for line_no, obj in rows:
        if "bench" in obj and "threads" in obj and "seconds" in obj:
            series.setdefault(obj["bench"], {})[obj["threads"]] = \
                (line_no, obj)
    for bench, by_threads in sorted(series.items()):
        if 1 not in by_threads:
            problems.append(f"{bench}: no threads=1 anchor row")
            continue
        base_seconds = by_threads[1][1]["seconds"]
        for threads, (line_no, obj) in sorted(by_threads.items()):
            if "speedup" not in obj or obj["seconds"] <= 0:
                continue
            expect = base_seconds / obj["seconds"]
            if abs(expect - obj["speedup"]) > 0.05 * max(expect, 1e-9):
                problems.append(
                    f"{args.candidate}:{line_no}: {bench}@t{threads} "
                    f"speedup {obj['speedup']:.3f} inconsistent with "
                    f"seconds (expect {expect:.3f})")

    try:
        missing = key_set(load_rows(args.reference)) - key_set(rows)
        if missing:
            problems.append(
                "missing rows vs reference: " +
                ", ".join(f"{b}@t{t}" for b, t in sorted(missing)))
    except SystemExit:
        raise
    except OSError as e:
        problems.append(f"cannot read reference {args.reference}: {e}")

    if problems:
        print(f"NOT promotable ({len(problems)} problem(s)):")
        for p in problems:
            print(f"  - {p}")
        sys.exit(1)

    n_benches = len(series)
    hw_n = next(iter(hw)) if hw else "?"
    print(f"candidate OK: {len(rows)} rows, {n_benches} benches, "
          f"hardware_threads={hw_n}")
    if args.check_only:
        return
    with open(args.candidate) as src, open(args.out, "w") as dst:
        dst.write(src.read())
    print(f"promoted {args.candidate} -> {args.out}")


if __name__ == "__main__":
    main()
