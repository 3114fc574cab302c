#!/usr/bin/env python3
"""Self-test of the benchmark harness, at toy sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that:
  - every workload runs at the default seed and at a held-out seed, with
    and without tracing, and its output checks pass;
  - every metric named in BENCHMARK.json is printed with its unit;
  - a planted wrong reference digest makes the run fail;
  - a run whose child process fails still prints a result, with every
    transaction counted as failed, and exits nonzero;
  - mix_n64_par's digest does not depend on the worker count, and
    differs from mix_n64's.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (the harness under test)

HELD_OUT_SEED = 2
failures = []


def expect(cond, msg):
    if not cond:
        failures.append(msg)
        print(f"FAIL: {msg}")


reported = 0


def report(label):
    """Print 'ok' for a step that added no failure."""
    global reported
    if len(failures) == reported:
        print(f"ok   {label}")
    reported = len(failures)


def bench(*extra):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--size", "tiny",
         "--seconds", "0.2", *extra],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines else None


def check_metrics(label, lines, result, specs):
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        metric = result["metrics"].get(name)
        expect(metric is not None, f"{label}: {name} missing")
        if metric is None:
            continue
        expect(metric["unit"] == unit, f"{label}: {name} unit {metric['unit']}")
        expect(isinstance(metric["value"], (int, float))
               and math.isfinite(metric["value"]),
               f"{label}: {name} value {metric['value']!r}")
        expect(any(l.startswith(f"perfbench: {name} = ") and l.endswith(unit)
                   for l in lines), f"{label}: {name} not printed")
    expect(set(result["metrics"]) == {s["name"] for s in specs},
           f"{label}: extra metrics {set(result['metrics'])}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")

    for workload in run.WORKLOADS:
        for seed in (run.DEFAULT_SEED, HELD_OUT_SEED):
            for trace, specs in ((0, spec["end_to_end"]),
                                 (1, spec["per_layer"])):
                label = f"{workload} seed={seed} trace={trace}"
                code, lines, result = bench(
                    "--workload", workload, "--seed", str(seed),
                    "--trace", str(trace))
                expect(code == 0 and result and result["correct"],
                       f"{label}: exit {code}, {lines[-3:]}")
                if not result:
                    continue
                expect(result["attempted"] >= 1 and result["failed"] == 0,
                       f"{label}: attempted {result['attempted']} "
                       f"failed {result['failed']}")
                check_metrics(label, lines, result, specs)
                report(label)

    # A wrong reference digest must fail the run and count every
    # transaction as failed.
    reference = json.loads(run.REFERENCE.read_text())
    seq_digest = dict(reference["tiny"]["mix_n64"])
    reference["tiny"]["mix_n64"]["stats_hash"] = "0" * 16
    planted = run.BUILD_DIR / "planted_reference.json"
    planted.write_text(json.dumps(reference))
    code, lines, result = bench("--workload", "mix_n64", "--reference",
                                str(planted))
    expect(code != 0 and result and not result["correct"]
           and result["failed"] == result["attempted"],
           f"planted digest: exit {code}, {lines[-1:]}")
    report("planted wrong digest fails the run")

    # mcbench refuses mix_n64_par with no workers: the child exits
    # nonzero, and the run must still report itself failed.
    code, lines, result = bench("--workload", "mix_n64_par", "--workers", "0")
    expect(code != 0 and result and not result["correct"]
           and result["attempted"] >= 1
           and result["failed"] == result["attempted"],
           f"failing child: exit {code}, {lines[-1:]}")
    report("a failing child is a failed run")

    digests = {}
    for workers in (1, 2, 4):
        out = subprocess.run(
            [str(run.BINARY), "--workload", "mix_n64_par", "--seed", "1",
             "--size", "tiny", "--workers", str(workers)],
            check=True, capture_output=True, text=True).stdout
        digests[workers] = json.loads(out.splitlines()[0])["digest"]
    expect(len({json.dumps(d, sort_keys=True) for d in digests.values()}) == 1,
           f"mix_n64_par digest depends on workers: {digests}")
    expect(digests[1] != seq_digest, "mix_n64_par digest equals mix_n64's")
    report("mix_n64_par digest independent of worker count")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
