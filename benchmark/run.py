"""phs-forge benchmark: one workload per run, driven through the public API
in one process, as a closed loop with a single caller.

    python3 benchmark/run.py --workload verify-suite --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository; it imports phs_forge from ``src/``
next to this directory and writes its CSVs and trace under ``.bench_out/``.
With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
holds the per-layer metrics of a traced run instead.  Untraced times are
scaled to a reference host speed by a calibration kernel timed while the
program runs (see calibrate.py).  The lines before the result print every
figure by name and unit, the unscaled times, and the run's provenance.
"""

import os
import time

_STARTED = time.perf_counter()

# One BLAS/OpenMP thread, set here before numpy is imported.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from calibrate import KERNELS, SpeedSampler  # noqa: E402
from tracing import Tracer  # noqa: E402

# Seconds of wall time between two runs of the calibration kernel.
CALIBRATION_PERIOD_S = 0.2

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's sizes")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_program():
    """phs_forge from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "phs_forge", "__init__.py")):
        raise SystemExit(f"error: no phs_forge sources under {SRC}")
    sys.path.insert(0, SRC)
    import workloads  # noqa: F401  (imports phs_forge, numpy and scipy)

    if not os.path.abspath(workloads.verify_module.__file__).startswith(SRC + os.sep):
        raise SystemExit("error: phs_forge was not imported from this checkout")
    return workloads


def _import_intervals(samples: int) -> list:
    """Fresh interpreters that import what this run imports."""
    code = f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; import workloads"
    intervals = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        intervals.append((t0, time.perf_counter()))
    return intervals


def _declared(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _provenance(args, workloads) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def raw_seconds(interval) -> float:
    return interval[1] - interval[0]


def median_total(unit_intervals: list, seconds=raw_seconds) -> float:
    """Sum over a repeated unit list of each unit's median repetition."""
    names = {name for units in unit_intervals for name in units}
    return sum(
        statistics.median([seconds(units[name]) for units in unit_intervals if name in units])
        for name in names
    )


def _measure(workload, tracer, seconds: float, traced: bool):
    """Repeat passes until ``seconds`` would be exceeded (at least the
    workload's minimum).  A traced run alternates an untraced pass and a
    traced pass on the same inputs, so it measures its own overhead."""
    plain = Tracer(enabled=False)
    records, traced_passes = [], []
    started = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        records.append(workload.run_pass(k, plain))
        records[-1]["pass"] = (t0, time.perf_counter())
        if traced:
            mark = tracer.mark()
            with tracer.span("bench.pass"):
                record = workload.run_pass(k, tracer)
            traced_passes.append((mark, tracer.mark(), record))
        k += 1
        elapsed = time.perf_counter() - started
        typical = elapsed / k
        if k >= workload.min_passes and elapsed + typical > seconds:
            return records, traced_passes


def _setup(workload, tracer) -> tuple:
    """Set-up, repeated so that its time is measured several times; the
    last one is kept."""
    setup_units, rep_marks = [], []
    for _ in range(workload.size.setup_reps):
        workload.release()
        gc.collect()
        mark = tracer.mark()
        t0 = time.perf_counter()
        with tracer.span("bench.setup"):
            units = workload.setup(tracer)
        setup_units.append({**units, "bench.setup": (t0, time.perf_counter())})
        rep_marks.append((mark, tracer.mark()))
    return setup_units, rep_marks


def main(argv=None) -> int:
    args = _parse_args(argv)
    workloads = _import_program()
    import_s = time.perf_counter() - _STARTED
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")

    out_dir = os.path.join(ROOT, ".bench_out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    traced = bool(args.trace)
    tracer = Tracer(enabled=traced)
    outcomes = workloads.Outcomes()
    workload = workloads.make_workload(args.workload, args.size, args.seed, outcomes, out_dir)
    provenance = _provenance(args, workloads)
    print("provenance " + json.dumps(provenance, sort_keys=True))

    if traced:
        setup_units, rep_marks = _setup(workload, tracer)
        workload.check_setup()
        records, traced_passes = _measure(workload, tracer, args.seconds, traced)
        probe_mark = tracer.mark()
        with tracer.span("bench.probe"):
            workload.probe(tracer)
        figures = workload.layer_metrics(tracer, rep_marks, traced_passes, probe_mark)
        figures.update(workloads.shared_layer_metrics(tracer, probe_mark))
        untraced_run_s = median_total([r["units"] for r in records])
        traced_run_s = median_total([r["units"] for _, _, r in traced_passes])
        figures["trace.overhead_pct"] = (traced_run_s / untraced_run_s - 1.0) * 100.0
        figures["trace.spans"] = len(tracer.spans)
        units = _declared("per_layer")
        undeclared = set(figures) - set(units)
        if undeclared:
            raise SystemExit(f"error: per-layer figures missing from BENCHMARK.json: {sorted(undeclared)}")
        # A layer this workload does not exercise did no work: 0.
        figures = {name: figures.get(name, 0) for name in units}
        trace_path = os.path.join(out_dir, f"trace-seed{args.seed}.json")
        tracer.write(trace_path, {"provenance": provenance})
        print(f"wrote {os.path.relpath(trace_path, ROOT)}")
    else:
        kernel, reference_s = KERNELS[args.workload]
        sampler = SpeedSampler(kernel(), reference_s)
        with sampler.periodic(CALIBRATION_PERIOD_S):
            setup_units, _ = _setup(workload, tracer)
            workload.check_setup()
            records, _ = _measure(workload, tracer, args.seconds, traced)
        # Not scaled: import time follows the loader and the file system
        # more than CPU speed (see calibrate.py).
        imports = [raw_seconds(i) for i in _import_intervals(workload.size.setup_reps)]
        setup = [{name: u for name, u in units.items() if name != "bench.setup"} for units in setup_units]
        passes = [r["units"] for r in records]
        figures = {
            "setup_s": statistics.median(imports) + median_total(setup, sampler.scaled),
            "run_s": median_total(passes, sampler.scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = _declared("end_to_end")
        print(f"figure setup_s.wall {statistics.median(imports) + median_total(setup, sampler.wall)!r} s")
        print(f"figure run_s.wall {median_total(passes, sampler.wall)!r} s")
        for name, value in sampler.summary().items():
            print(f"figure calibration.{name} {value!r}")
        for name, (value, unit) in workload.report(records).items():
            print(f"figure {name} {value!r} {unit}")
        for name, samples in (("import_s", imports),
                              ("setup_rep_s", [sampler.wall(u["bench.setup"]) for u in setup_units]),
                              ("pass_s", [sampler.wall(r["pass"]) for r in records])):
            print(f"figure {name}.min {min(samples)!r} s")
            print(f"figure {name}.median {statistics.median(samples)!r} s")
            print(f"figure {name}.samples {len(samples)} count")
        print(f"figure import_s.this_process {import_s!r} s")

    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": figures[name], "unit": unit}
        print(f"metric {name} {figures[name]!r} {unit}")
    print(f"operations {outcomes.attempted} attempted, {outcomes.failed} failed")
    result = {
        "correct": outcomes.failed == 0 and outcomes.attempted > 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
