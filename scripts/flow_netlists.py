#!/usr/bin/env python3
"""Write the final netlist of every perfbench flow, to check that a change
leaves every flow's output byte-identical.

usage: flow_netlists.py BUILD_DIR OUT_DIR

Runs each flow of perfbench/run.py through BUILD_DIR/examples/mcs_shell:
the in-process flows of the prove, asic_mch and par_mult64 workloads and
the serve catalog.  A catalog entry with an inline input first runs its
gen spec and write_aiger, then its flow from read_aiger, as a served job
reads its input.  Each flow ends in write_blif (LUT flows) or
write_verilog (ASIC flows) into OUT_DIR/<workload>/.  Exits 1 if any flow
fails.  Run it on two builds, then `diff -r OUT_A OUT_B` prints nothing
when every netlist is unchanged.

perfbench/run.py is imported read-only (no bytecode is written next to it).
"""
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


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    shell = os.path.join(os.path.abspath(sys.argv[1]), "examples", "mcs_shell")
    out_dir = os.path.abspath(sys.argv[2])
    if not os.access(shell, os.X_OK):
        sys.exit("flow_netlists: no %s" % shell)
    failed = []
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
    print("flow_netlists: %d flows, %d failed%s" % (
        count, len(failed), (": " + ", ".join(failed)) if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
