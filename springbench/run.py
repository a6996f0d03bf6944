#!/usr/bin/env python3
"""Run one springfs benchmark workload for a fixed time and print its metrics.

    python3 springbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds springbench/main.exe with dune from the source tree this script sits
in, then runs passes of the workload for S seconds, each in a fresh process
(so heap and GC figures are the pass's own).  A pass is set-up, a measured
phase of closed-loop clients and the end-of-run checks; every pass of one
seed does identical work, so the simulated metrics must repeat exactly and
the wall-clock ones are reported as medians over the passes.

With --trace 0 the last line of standard output carries the end-to-end
metrics of BENCHMARK.json; with --trace 1, passes alternate untraced and
traced and it carries the per-layer metrics (self/queue times from the traced
passes, trace.overhead_ratio = traced / untraced measured-phase wall time).
Each pass's own record goes to standard error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "springbench", "main.exe")

# Metrics that must repeat exactly for one seed: a pass that differs is a
# nondeterministic program, and the run is not correct.
DETERMINISTIC = ("sim_ops_per_s", "sim_p50_ms", "sim_p99_ms", "alloc_words_per_op")
TRACED_ONLY = ("self.", "queue.")


def die(msg):
    print("springbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./springbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def run_pass(workload, seed, traced):
    cmd = [EXE, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        die("pass exited with code %d" % r.returncode)
    print(r.stdout.strip(), file=sys.stderr)
    return json.loads(r.stdout.strip().splitlines()[-1])


def median(passes, name):
    return statistics.median(p["metrics"][name]["value"] for p in passes)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload " + args.workload)
    build()

    untraced, traced = [], []
    start = time.monotonic()
    while True:
        if args.trace and len(traced) < len(untraced):
            traced.append(run_pass(args.workload, args.seed, True))
        else:
            untraced.append(run_pass(args.workload, args.seed, False))
        enough = len(untraced) >= 3 and (not args.trace or traced)
        if enough and time.monotonic() - start >= args.seconds:
            break

    passes = untraced + traced
    correct = all(p["correct"] for p in passes)
    for p in passes:
        for problem in p["problems"]:
            print("springbench: check failed: " + problem, file=sys.stderr)
    for name in DETERMINISTIC:
        values = {p["metrics"][name]["value"] for p in untraced}
        if len(values) > 1:
            print("springbench: %s differs between passes of one seed" % name,
                  file=sys.stderr)
            correct = False
        # Tracing allocates, so only the simulated metrics must survive it.
        if name.startswith("sim_") and traced and \
                {p["metrics"][name]["value"] for p in traced} != values:
            print("springbench: the traced pass changed %s" % name, file=sys.stderr)
            correct = False

    if args.trace:
        wanted = spec["per_layer"]
        values = {}
        for m in wanted:
            name = m["name"]
            if name == "trace.overhead_ratio":
                values[name] = (statistics.median(p["phase_wall_s"] for p in traced)
                                / statistics.median(p["phase_wall_s"] for p in untraced))
            elif name.startswith(TRACED_ONLY):
                values[name] = median(traced, name)
            else:
                values[name] = median(untraced, name)
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: median(untraced, m["name"]) for m in wanted}
    for m in wanted:
        got = passes[-1]["metrics"].get(m["name"], {"unit": m["unit"]})["unit"]
        if got != m["unit"]:
            die("%s is measured in %s, BENCHMARK.json says %s" % (m["name"], got, m["unit"]))

    failures = {}
    for p in passes:
        for name, n in p["failures"].items():
            failures[name] = failures.get(name, 0) + n
    print("springbench %s seed %d: %d passes (%d traced), %d samples per pass, "
          "failed operations %s, verdict %s" % (
              args.workload, args.seed, len(passes), len(traced),
              untraced[0]["samples"], failures or "none",
              "correct" if correct else "INCORRECT"))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(failures.values()),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
