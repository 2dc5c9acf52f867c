"""Self-test of the benchmark at tiny sizes.

    python3 benchmark/selftest.py

Runs every workload with --trace 0 and --trace 1 at the "tiny" size and
checks that each result names exactly the metrics BENCHMARK.json declares,
with their units and no failed operation; that every per-layer metric is
measured (nonzero) on at least one workload; and that each trace file keeps
its schema.  Exits 0 when all of that holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import check_trace_schema  # noqa: E402

SEED = 3


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: dict, where: str) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result.get("correct") is True and result.get("failed") == 0 and result.get("attempted", 0) >= 1):
        problems.append(f"{where}: not correct ({result.get('failed')} of {result.get('attempted')} failed)")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        entry = metrics.get(name, {})
        if set(entry) != {"value", "unit"} or entry["unit"] != unit:
            problems.append(f"{where}: {name} is {entry!r}, want a value in {unit}")
        elif isinstance(entry["value"], bool) or not isinstance(entry["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems, measured = [], set()
    for workload in [w["name"] for w in bench["workloads"]]:
        result = run(workload, 0)
        problems += check_result(result, end_to_end, f"{workload} --trace 0")
        problems += [f"{workload}: end-to-end {n} is 0" for n, m in result["metrics"].items() if m["value"] == 0]
        result = run(workload, 1)
        problems += check_result(result, per_layer, f"{workload} --trace 1")
        measured |= {n for n, m in result["metrics"].items() if m["value"] != 0}
        path = os.path.join(ROOT, ".bench_out", workload, f"trace-seed{SEED}.json")
        with open(path, encoding="utf-8") as fh:
            problems += [f"{workload} trace: {p}" for p in check_trace_schema(json.load(fh))]
        print(f"{workload}: ran")
    problems += [f"per-layer {n} is 0 on every workload" for n in sorted(set(per_layer) - measured)]
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
