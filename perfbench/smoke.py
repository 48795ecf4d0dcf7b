#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on the tiny preset.

    python3 perfbench/smoke.py

For every workload it checks that:
  * an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit and a positive value, passes its output check and exits 0;
  * a traced run prints every per-layer metric with its unit and a number
    (the layers the workload's timed phase does not exercise come from its
    cover pass), and writes Chrome trace-event JSON with spans for every
    layer;
  * a run with a tampered trace planted into the output check reports
    correct=false with failed > 0 and exits non-zero.
Exit code 0 iff every check holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Layers whose calls a traced run wraps in spans, in its timed phase or in
# its cover pass.
SPANS = {"core", "flowsim", "trace", "analysis", "tomography", "ckpt", "bench"}

failures = []


def check(ok, what):
    print(("  [ok]   " if ok else "  [FAIL] ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, tamper=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--preset", "tiny"]
    if tamper:
        cmd.append("--tamper")
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return p.returncode, result


def check_metrics(result, defs):
    metrics = result["metrics"]
    check(set(metrics) == {d["name"] for d in defs}, "metric names match BENCHMARK.json")
    for d in defs:
        m = metrics.get(d["name"], {})
        check(m.get("unit") == d["unit"], f"{d['name']} printed with unit {d['unit']}")
    return metrics


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    for w in bench["workloads"]:
        name = w["name"]
        print(f"== {name}")
        rc, result = run(name, 0)
        check(rc == 0 and result is not None, "untraced run exits 0 with a JSON result")
        if result is None:
            continue
        check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              "output check passes on every rep")
        metrics = check_metrics(result, bench["end_to_end"])
        for d in bench["end_to_end"]:
            v = metrics.get(d["name"], {}).get("value")
            check(isinstance(v, (int, float)) and v > 0, f"{d['name']} = {v} is positive")

        rc, result = run(name, 1)
        check(rc == 0 and result is not None and result["correct"],
              "traced run exits 0 and passes its output check")
        if result is not None:
            metrics = check_metrics(result, bench["per_layer"])
            for d in bench["per_layer"]:
                v = metrics.get(d["name"], {}).get("value")
                check(isinstance(v, (int, float)), f"{d['name']} = {v} is a number")
            with open(os.path.join(build_dir, "perfbench-out", f"trace-{name}-7.json")) as f:
                spans = json.load(f)["traceEvents"]
            check(SPANS <= {s["cat"] for s in spans}, f"trace has spans for {sorted(SPANS)}")
            check(any("parallel.tasks" in s["args"] for s in spans),
                  "pooled spans carry parallel.tasks")

        rc, result = run(name, 0, tamper=True)
        check(rc != 0 and result is not None and not result["correct"]
              and result["failed"] > 0, "a tampered trace fails the output check")

    print("smoke: " + ("OK" if not failures else f"{len(failures)} check(s) FAILED"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
