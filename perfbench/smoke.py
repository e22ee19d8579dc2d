#!/usr/bin/env python3
"""Smoke check of the repository benchmark (perfbench/README.md).

Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload named in BENCHMARK.json at a tiny size (--tiny,
one-second windows) through perfbench/run.py and asserts that

  * the run exits 0 and its last line is a result with correct=true;
  * every end-to-end metric (untraced run) and every per-layer metric
    (traced run) of BENCHMARK.json prints with its unit and a finite
    value, end-to-end values above 0;
  * the same seed gives identical input and output digests;
  * a different seed gives different inputs.

Exits 1 on the first failure.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print("smoke: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def run(workload, seed, trace):
    """One tiny run; returns (result dict, meta dict)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("%s seed %d trace %d exited %d\n%s" %
             (workload, seed, trace, p.returncode, p.stderr[-2000:]))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s: last line is not JSON: %r" % (workload, lines[-1]))
    meta = {}
    for line in lines:
        if line.startswith("# meta "):
            for kv in line[len("# meta "):].split():
                key, _, value = kv.partition("=")
                meta[key] = value
    return result, meta


def check(workload, result, specs, positive):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        fail("%s: correct=%s attempted=%s failed=%s" %
             (workload, result["correct"], result["attempted"],
              result["failed"]))
    metrics = result["metrics"]
    names = {m["name"] for m in specs}
    if set(metrics) != names:
        fail("%s: metrics differ from BENCHMARK.json: %s" %
             (workload, sorted(set(metrics) ^ names)))
    for m in specs:
        got = metrics[m["name"]]
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            fail("%s: %s unit %r, want %r" %
                 (workload, m["name"], got.get("unit"), m["unit"]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s: %s value %r is not finite" %
                 (workload, m["name"], value))
        if positive and value <= 0:
            fail("%s: %s is %r, want > 0" % (workload, m["name"], value))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        first, meta1 = run(name, 1, 0)
        check(name, first, bench["end_to_end"], True)
        traced, _ = run(name, 1, 1)
        check(name, traced, bench["per_layer"], False)
        _, again = run(name, 1, 0)
        _, other = run(name, 2, 0)
        for key in ("inputs_digest", "outputs_digest"):
            if key not in meta1 or meta1[key] != again.get(key):
                fail("%s: %s not repeatable for one seed (%s vs %s)" %
                     (name, key, meta1.get(key), again.get(key)))
        if meta1["inputs_digest"] == other.get("inputs_digest"):
            fail("%s: seeds 1 and 2 gave the same inputs" % name)
        print("smoke: %s ok (inputs %s, outputs %s)" %
              (name, meta1["inputs_digest"], meta1["outputs_digest"]))
    print("smoke: OK")


if __name__ == "__main__":
    main()
