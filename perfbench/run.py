#!/usr/bin/env python3
"""Benchmark of the Multicube simulator.

Builds perfbench/mcbench (the simulator library plus a one-run driver)
optimised under .bench_build/, then runs one workload over and over, one
process at a time, for the requested number of seconds. Every run is its
own process, so CPU time and peak RSS come from that process's own
rusage. Prints a readable report, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

    python3 perfbench/run.py --workload mix_n64 --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json from
untraced runs. --trace 1 alternates untraced and profiled runs and
reports the per-layer metrics, plus trace.overhead.

Output checks, on every run: drain() empties the machine, every issued
transaction completed, and every run of the invocation gives the same
digest (events, ticks, transactions, hash of the flattened stat tree).
At the default seed the digest must also equal perfbench/reference.json.
A failed check marks every transaction failed and exits 1.

--record rewrites reference.json from the default seed; use it only for
a change that is meant to alter simulated results.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "mcbench"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("mix_n64", "mix_n32_mod", "addr_n8", "mix_n64_par")
DEFAULT_SEED = 1
MIN_RUNS = 3          # medians need a middle; repeats need a pair
MIN_TRACED = 2
CHILD_TIMEOUT_S = 150
# mix_n64_par runs on this many engine workers, capped by the host.
PAR_WORKERS = 2
# A run's ru_maxrss may exceed its own VmHWM by rounding only. More
# means the figure is its spawner's memory, not the run's.
RSS_SLACK_MB = 0.5

# Engine telemetry; reads 0 on the sequential engine.
PAR_LAYER_METRICS = ("sim.par.row_phase_ns", "sim.par.col_phase_ns",
                     "sim.par.serial_ns", "sim.par.barrier_wait_frac",
                     "sim.par.events_per_window")

END_TO_END_UNITS = {
    "setup_s": "s",
    "txn_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build mcbench; raise on failure."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_child(workload, seed, size, trace, workers):
    """One mcbench run. Returns (result dict, usage dict).

    mcbench forks the run into a child of its own and prints two JSON
    lines: the run's result, then the child's rusage (cpu_s,
    peak_rss_mb) and mcbench's own VmHWM (spawner_rss_mb). A child
    exec'd from here would carry this interpreter's RSS in its
    ru_maxrss; one forked from small mcbench carries at most mcbench's.
    Killing mcbench on a timeout kills the child with it.
    """
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--size", size, "--workers", str(workers)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"mcbench {workload} exited {proc.returncode}")
    result, usage = (json.loads(line) for line in out.splitlines())
    return result, usage


def check_run(result):
    """Problems with one run's completion checks, as strings."""
    problems = []
    if not result["drained"]:
        problems.append("drain() timed out")
    if not result["queue_empty"]:
        problems.append("event queue not empty after drain()")
    if result["outstanding"] or result["completed"] != result["issued"]:
        problems.append(f"{result['issued']} issued, "
                        f"{result['completed']} completed, "
                        f"{result['outstanding']} outstanding")
    return problems


def median(values):
    return statistics.median(values)


class Invocation:
    """Runs of one workload at one seed, and their output checks."""

    def __init__(self, args, reference):
        self.args = args
        self.reference = reference
        self.workers = min(args.workers, len(os.sched_getaffinity(0)))
        self.problems = []
        self.digests = {}      # workload -> first digest seen
        self.attempted = 0
        self.incomplete = 0

    def run(self, workload, trace=False, count=True):
        result, usage = run_child(
            workload, self.args.seed, self.args.size, trace, self.workers)
        problems = check_run(result)
        if usage["peak_rss_mb"] > result["vm_hwm_mb"] + RSS_SLACK_MB:
            problems.append(
                f"rusage peak {usage['peak_rss_mb']:.2f} MB exceeds the "
                f"run's own VmHWM {result['vm_hwm_mb']:.2f} MB, so it is "
                f"not the run's alone (spawner "
                f"{usage['spawner_rss_mb']:.2f} MB)")
        self.problems += [f"{workload}: {p}" for p in problems]
        first = self.digests.setdefault(workload, result["digest"])
        if result["digest"] != first:
            self.problems.append(f"{workload}: digest {result['digest']} "
                                 f"differs from an earlier run's {first}")
        if count:
            self.attempted += result["issued"]
            self.incomplete += result["issued"] - result["completed"]
        return result, usage

    def check_reference(self):
        if self.args.seed != DEFAULT_SEED:
            return
        refs = self.reference.get(self.args.size, {})
        for workload, digest in self.digests.items():
            if refs.get(workload) != digest:
                self.problems.append(
                    f"{workload}: digest {digest} != reference "
                    f"{refs.get(workload)}")


def measure_end_to_end(inv, args):
    runs = []
    deadline = time.monotonic() + args.seconds
    while len(runs) < MIN_RUNS or time.monotonic() < deadline:
        runs.append(inv.run(args.workload))
    results = [r for r, _ in runs]
    usages = [u for _, u in runs]
    metrics = {
        "setup_s": median(r["setup_s"] for r in results),
        "txn_per_s": median(r["completed"] / r["run_s"] for r in results),
        "cpu_s": median(u["cpu_s"] for u in usages),
        "peak_rss_mb": median(u["peak_rss_mb"] for u in usages),
    }
    info = {
        "runs": len(runs),
        "txn_fail_frac": inv.incomplete / max(1, inv.attempted),
        "mva_gap_pts": results[0]["mva_gap_pts"],
        "vm_hwm_mb": median(r["vm_hwm_mb"] for r in results),
        "spawner_rss_mb": max(u["spawner_rss_mb"] for u in usages),
        "run_s": sorted(r["run_s"] for r in results),
    }
    if args.workload != "addr_n8":
        # The class mix as achieved; the traced run reports the same
        # figures as proc.* metrics.
        layers = results[0]["layers"]
        info["mod_targeted_frac"] = layers["proc.mod_targeted_frac"]
        info["mod_registry_empty"] = layers["proc.mod_registry_empty"]
    return metrics, results[0], info


def measure_layers(inv, args):
    """Alternate untraced and profiled runs; per-layer medians.

    A layer metric that the untraced run reports (counts, engine
    telemetry, construction and MVA spans) comes from the untraced
    runs; the profiler's host-ns figures come from the traced runs.
    """
    par = args.workload == "mix_n64_par"
    plain, traced, seq = [], [], []
    deadline = time.monotonic() + args.seconds
    while (len(traced) < MIN_TRACED or time.monotonic() < deadline):
        plain.append(inv.run(args.workload)[0])
        traced.append(inv.run(args.workload, trace=True, count=False)[0])
        if par:
            seq.append(inv.run("mix_n64", count=False)[0])

    metrics = {}
    for name in traced[0]["layers"]:
        source = plain if name in plain[0]["layers"] else traced
        metrics[name] = median(r["layers"][name] for r in source)
    metrics["sim.events_per_s"] = median(
        r["digest"]["sim_events"] / r["run_s"] for r in plain)
    metrics["mva.gap_pts"] = plain[0]["mva_gap_pts"]
    plain_run_s = median(r["run_s"] for r in plain)
    metrics["trace.overhead"] = median(r["run_s"] for r in traced) / plain_run_s
    metrics["sim.par.speedup_vs_seq"] = (
        median(r["run_s"] for r in seq) / plain_run_s if par else 0.0)
    for name in PAR_LAYER_METRICS:
        metrics.setdefault(name, 0.0)

    trace_dir = ROOT / ".bench_build" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "runs": [{"traced": False, "spans": r["spans"]} for r in plain]
         + [{"traced": True, "spans": r["spans"]} for r in traced]},
        indent=1))
    info = {"runs": len(plain) + len(traced) + len(seq),
            "spans_file": str(spans_file.relative_to(ROOT))}
    return metrics, plain[0], info


def layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def record_reference():
    reference = {}
    for size in ("full", "tiny"):
        reference[size] = {}
        for workload in WORKLOADS:
            result, _ = run_child(workload, DEFAULT_SEED, size, False,
                                  PAR_WORKERS)
            problems = check_run(result)
            if problems:
                raise RuntimeError(f"{workload}/{size}: {problems}")
            reference[size][workload] = result["digest"]
            log(f"recorded {size} {workload}: {result['digest']}")
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: every workload at a toy size (self-test)")
    ap.add_argument("--workers", type=int, default=PAR_WORKERS,
                    help="engine workers for mix_n64_par (capped by the "
                    "host's CPUs)")
    ap.add_argument("--reference", type=Path, default=REFERENCE,
                    help="digest file checked at the default seed")
    ap.add_argument("--record", action="store_true",
                    help=f"rewrite {REFERENCE.name} and exit")
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    if args.record:
        record_reference()
        return 0
    if not args.workload:
        ap.error("--workload is required")

    reference = json.loads(args.reference.read_text())
    inv = Invocation(args, reference)
    try:
        if args.trace:
            metrics, first, info = measure_layers(inv, args)
            units = layer_units()
        else:
            metrics, first, info = measure_end_to_end(inv, args)
            units = END_TO_END_UNITS
    except (RuntimeError, ValueError, KeyError) as e:
        # A crashed, hung or garbled run is a failed run: every
        # transaction issued so far, and at least one, failed.
        print(f"perfbench: CHECK FAILED: run failed: {e}")
        attempted = max(1, inv.attempted)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 1
    inv.check_reference()

    correct = not inv.problems
    failed = inv.incomplete if correct else inv.attempted
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"size={args.size} runs={info['runs']} "
          f"sim_threads={first['sim_threads']} n={first['n']} "
          f"sim_ms={first['sim_ms']}")
    print(f"perfbench: build {first['compiler']} ({first['flags']})")
    print(f"perfbench: digest {json.dumps(first['digest'], sort_keys=True)}")
    for key, value in info.items():
        if key != "runs":
            print(f"perfbench: {key} = {value}")
    for problem in inv.problems:
        print(f"perfbench: CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"perfbench: {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": inv.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
