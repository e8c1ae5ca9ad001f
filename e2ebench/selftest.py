#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py

Run from the root of the repository. Runs every workload named in
BENCHMARK.json, and gui-scrub, briefly with --trace 0 and --trace 1 and
checks that each end-to-end, respectively per-layer, metric is reported
with its unit and a finite value. Then runs batch-run against a copy of
pins.json with every pinned cycle count off by one and requires the
output check to fail (exit 1, "correct": false). Exits non-zero if any
check failed.
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHORT = ["--seconds", "2"]


def run(command, *args):
    proc = subprocess.run(command + list(args), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def check_metrics(label, result, expected):
    failures = []
    metrics = result["metrics"]
    for spec in expected:
        got = metrics.get(spec["name"])
        if got is None:
            failures.append(f"{label}: {spec['name']} missing")
        elif got.get("unit") != spec["unit"]:
            failures.append(f"{label}: {spec['name']} unit {got.get('unit')!r}, "
                            f"expected {spec['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            failures.append(f"{label}: {spec['name']} value {got.get('value')!r}")
    extra = set(metrics) - {spec["name"] for spec in expected}
    if extra:
        failures.append(f"{label}: unlisted metrics {sorted(extra)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        failures.append(f"{label}: attempted {result.get('attempted')!r}")
    return failures


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    command = bench["command"]
    failures = []
    # gui-scrub is not one of BENCHMARK.json's workloads (README.md says
    # why) but stays runnable, so it is tested here too.
    workloads = [w["name"] for w in bench["workloads"]]
    workloads += [name for name in ("gui-scrub",) if name not in workloads]
    for workload in workloads:
        for trace, expected in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            label = f"{workload} --trace {trace}"
            code, result, stderr = run(command, "--workload", workload, "--seed", "7",
                                       "--trace", trace, *SHORT)
            if code != 0 or result is None or result.get("correct") is not True:
                failures.append(f"{label}: exit {code}\n{stderr[-2000:]}")
                continue
            failures += check_metrics(label, result, expected)
            print(f"ok   {label}: {len(result['metrics'])} metrics", flush=True)
    with open(os.path.join(ROOT, "e2ebench", "pins.json")) as f:
        pins = json.load(f)
    for configs in pins.values():
        for entries in configs.values():
            for entry in entries:
                entry["cycles"] += 1
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    wrong_pins = os.path.join(".bench_run", "pins-off-by-one.json")
    with open(os.path.join(ROOT, wrong_pins), "w") as f:
        json.dump(pins, f)
    # run.py passes the real pins first; this later --pins wins.
    code, result, stderr = run(command, "--workload", "batch-run", "--seed", "7",
                               "--trace", "0", "--pins", wrong_pins, *SHORT)
    if code != 1 or result is None or result.get("correct") is not False or \
            "differ from the pins" not in stderr:
        failures.append(f"batch-run with wrong pins: exit {code}, result {result}, "
                        "expected the pinned-statistics check to fail")
    else:
        print("ok   batch-run with wrong pins: the output check failed as it must")
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
