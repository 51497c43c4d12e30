#!/usr/bin/env python3
"""Write the final netlist of every perfbench flow, to check that a change
leaves every flow's output byte-identical.

usage: flow_netlists.py BUILD_DIR OUT_DIR [--write FILE | --check FILE]

Runs each flow of perfbench/run.py through BUILD_DIR/examples/mcs_shell:
the in-process flows of the prove, asic_mch and par_mult64 workloads and
the serve catalog.  A catalog entry with an inline input first runs its
gen spec and write_aiger, then its flow from read_aiger, as a served job
reads its input.  Each flow ends in write_blif (LUT flows) or
write_verilog (ASIC flows) into OUT_DIR/<workload>/.  Exits 1 if any flow
fails.  Run it on two builds, then `diff -r OUT_A OUT_B` prints nothing
when every netlist is unchanged.

--write FILE stores a manifest: a JSON map from each netlist's path under
OUT_DIR to its sha256.  --check FILE compares the netlists with such a
manifest (the committed one is BENCH_netlists.json), names every flow
whose netlist differs, is missing or is new, and exits 1 if any does.

perfbench/run.py is imported read-only (no bytecode is written next to it).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run as perfbench  # noqa: E402


def flows():
    """(workload, name, spec, input gen spec or "") for every flow."""
    for workload in ("prove", "asic_mch", "par_mult64"):
        for f in perfbench.in_process_flows(workload):
            yield workload, f["name"], f["spec"], ""
    for name, spec, input_gen, _ in perfbench.SERVE_CATALOG:
        yield "serve", name, spec, input_gen


def run_shell(shell, spec):
    """Runs one flow spec; returns the shell's output on failure, else None."""
    proc = subprocess.run([shell], input='flow "%s"\n' % spec, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    return None if proc.returncode == 0 else proc.stdout


def check_manifest(path, hashes, flow_of):
    """Names each netlist that differs from the manifest; True if none."""
    with open(path) as f:
        want = json.load(f)
    bad = []
    for rel in sorted(set(want) | set(hashes)):
        if rel not in hashes:
            bad.append("%s: in the manifest, not produced" % rel)
        elif rel not in want:
            bad.append("%s (%s): not in the manifest" % (rel, flow_of[rel]))
        elif hashes[rel] != want[rel]:
            bad.append("%s (%s): netlist differs" % (rel, flow_of[rel]))
    for line in bad:
        print("flow_netlists: " + line)
    print("flow_netlists: %d netlists checked against %s, %d mismatched"
          % (len(hashes), path, len(bad)))
    return not bad


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("build_dir")
    parser.add_argument("out_dir")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", metavar="FILE")
    mode.add_argument("--check", metavar="FILE")
    args = parser.parse_args()
    shell = os.path.join(os.path.abspath(args.build_dir), "examples",
                         "mcs_shell")
    out_dir = os.path.abspath(args.out_dir)
    if not os.access(shell, os.X_OK):
        sys.exit("flow_netlists: no %s" % shell)
    failed = []
    hashes = {}
    flow_of = {}
    count = 0
    for workload, name, spec, input_gen in flows():
        count += 1
        os.makedirs(os.path.join(out_dir, workload), exist_ok=True)
        stem = os.path.join(out_dir, workload,
                            name.replace("/", "__").replace(":", "_"))
        writer = "write_blif" if "map_lut" in spec else "write_verilog"
        ext = ".blif" if writer == "write_blif" else ".v"
        t0 = time.monotonic()
        error = None
        if input_gen:
            error = run_shell(shell, "%s; write_aiger:file=%s.aig"
                              % (input_gen, stem))
            spec = "read_aiger:file=%s.aig; %s" % (stem, spec)
        if error is None:
            error = run_shell(shell, "%s; %s:file=%s%s"
                              % (spec, writer, stem, ext))
        status = "ok" if error is None else "FAILED"
        print("%-10s %-28s %6.2fs %s" % (workload, name,
                                         time.monotonic() - t0, status),
              flush=True)
        if error is not None:
            failed.append(name)
            sys.stderr.write(error)
            continue
        rel = os.path.relpath(stem + ext, out_dir)
        with open(stem + ext, "rb") as f:
            hashes[rel] = hashlib.sha256(f.read()).hexdigest()
        flow_of[rel] = "%s %s" % (workload, name)
    print("flow_netlists: %d flows, %d failed%s" % (
        count, len(failed), (": " + ", ".join(failed)) if failed else ""))
    if args.write:
        with open(args.write, "w") as f:
            json.dump(hashes, f, indent=1, sort_keys=True)
            f.write("\n")
    ok = not failed
    if args.check:
        ok = check_manifest(args.check, hashes, flow_of) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
