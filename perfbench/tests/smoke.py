#!/usr/bin/env python3
"""The benchmark's own tests: unit checks and a tiny-scale smoke run.

Run from the repository root:

  python3 perfbench/tests/smoke.py

Builds fabbench through perfbench/run.py, runs perfbench_unit (percentile,
span self-time, layer-peeling and modeled-loop math, seed determinism),
then runs every workload at tiny scale with tracing off and on. Each run
must end with a valid result line that is correct and carries exactly the
metrics BENCHMARK.json names for that mode. Two same-seed paper-suite runs
must agree on the deterministic metrics. Exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

# Every workload fabbench knows. serve-hot is left out of BENCHMARK.json
# (see perfbench/README.md) but must keep working.
WORKLOADS = ["paper-suite", "serve-hot", "serve-churn"]

DETERMINISTIC = {
    "0": ["sim_speedup_geomean", "gen_instrs_per_word"],
    "1": ["core.gen_words", "backend.static_words"],
}


def fail(msg):
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def run(workload, seed, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", trace, "--tiny"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} trace={trace}: no output")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }

    unknown = {w["name"] for w in bench["workloads"]} - set(WORKLOADS)
    if unknown:
        fail(f"BENCHMARK.json names unknown workloads: {sorted(unknown)}")

    # The first run builds; then the unit checks.
    first = run(WORKLOADS[0], 1, "0")
    unit = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
        "perfbench_unit")
    if subprocess.run([unit]).returncode != 0:
        fail("perfbench_unit")

    for w in WORKLOADS:
        for trace in ("0", "1"):
            res = first if (trace == "0" and w == WORKLOADS[0]) \
                else run(w, 1, trace)
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{w} trace={trace}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                fail(f"{w} trace={trace}: {res['attempted']} attempted,"
                     f" {res['failed']} failed, correct={res['correct']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != names[trace]:
                fail(f"{w} trace={trace}: metrics differ from "
                     f"BENCHMARK.json: {sorted(set(got) ^ set(names[trace]))}")
            print(f"smoke: ok {w} trace={trace} "
                  f"({len(got)} metrics, {res['attempted']} operations)")

    for trace, keys in DETERMINISTIC.items():
        a = run("paper-suite", 5, trace)["metrics"]
        b = run("paper-suite", 5, trace)["metrics"]
        for k in keys:
            if a[k]["value"] != b[k]["value"]:
                fail(f"same-seed runs disagree on {k}: "
                     f"{a[k]['value']} != {b[k]['value']}")
    print("smoke: ok deterministic metrics repeat under one seed")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
