"""The benchmark's workloads, their correctness gates and their layer probes.

Each workload has a set-up (repeated by the harness, so that its time is a
median), a pass (the unit the harness repeats until the run's time is
used), untimed set-up checks, and, for traced runs, probes that time single
layers.  Set-up and passes return their work units as ``(start, end)``
``perf_counter`` intervals, which the harness turns into seconds.  Per-layer
figures are read back from the spans the tracer kept.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from phs_forge import verify as verify_module
from phs_forge.build import assemble_phs, export_system
from phs_forge.diffop import BoundaryForm, boundary_pairing_sum_form, ibp_residual, volume_mismatch
from phs_forge.modelfile import parse_model, serialize_model
from phs_forge.models import builtin_model, builtin_names, random_poly, validate_model
from phs_forge.simulate import (
    GridSpec,
    InputChannel,
    boundary_traction_input,
    discrete_hamiltonian,
    discretize,
    distributed_input,
    random_state,
    simulate,
    step_midpoint,
    write_energy_csv,
    write_trajectory_csv,
)
from phs_forge.verify import report_json, run_all

DT = 1e-3
DRIFT_TOL = 1e-10  # closed runs: |H_end - H_0| / |H_0|
BALANCE_TOL = 1e-10  # ported runs: per-step residual / max(1, |H|)
REPORT_SEED = 7  # the verify report of this seed is pinned by its digest

# The four check families of run_all, spanned by wrapping the names that
# run_all looks up in its own module at call time.
FAMILY_SPANS = {
    "check_lemma1": "verify.lemma1",
    "check_energy_structure": "verify.energy",
    "check_limits_and_reductions": "verify.reduction",
    "check_mutations": "verify.mutation",
}

CLAMPED = {"left": "clamped", "right": "clamped"}
CLAMPED_FREE = {"left": "clamped", "right": "free"}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Outcomes:
    """Operations attempted and failed; every failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)

    def crashed(self, what: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.record(False, f"{what} raised")


# ---------------------------------------------------------------------------
# Sizes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimCase:
    model: str
    cells: Tuple[int, ...]
    bc: Tuple[Tuple[str, str], ...]
    port: Optional[str] = None  # None (closed), "traction" or "distributed"

    @property
    def grid_label(self) -> str:
        return f"{self.model}-" + "x".join(str(c) for c in self.cells)

    @property
    def label(self) -> str:
        return self.grid_label + (f"-{self.port}" if self.port else "")


def _cases_1d(cells_2nd: int, cells_beam: int) -> List[SimCase]:
    cc, cf = tuple(CLAMPED.items()), tuple(CLAMPED_FREE.items())
    return [
        SimCase("string", (cells_2nd,), cc),
        SimCase("truss", (cells_2nd,), cc),
        SimCase("timoshenko", (cells_beam,), cf),
        SimCase("rayleigh_beam", (cells_beam,), cc),
        SimCase("euler_bernoulli", (cells_beam,), cc),
        SimCase("timoshenko", (cells_beam,), cf, port="traction"),
        SimCase("truss", (cells_2nd,), cc, port="distributed"),
    ]


def _cases_2d(plate: int, membrane: int, reddy: int) -> List[SimCase]:
    return [
        SimCase("mindlin_plate", (plate, plate), ()),
        SimCase("elasticity2d", (membrane, membrane), tuple(CLAMPED_FREE.items())),
        SimCase("reddy_plate", (reddy, reddy), ()),
    ]


@dataclass(frozen=True)
class Size:
    setup_reps: int
    # verify-suite
    verify_models: Optional[Tuple[str, ...]]  # None: every builtin
    trials: int
    expected_checks: int
    report_digest: str  # sha256 of report_json for REPORT_SEED
    sweeps_per_pass: int
    replay_trials: int
    # simulations
    cases_1d: List[SimCase] = field(default_factory=list)
    steps_1d: int = 0
    record_1d: int = 0
    cases_2d: List[SimCase] = field(default_factory=list)
    steps_2d: int = 0
    # probes
    poly_pairs: int = 10
    construction_reps: int = 3
    step_probe_calls_1d: int = 200
    step_probe_calls_2d: int = 10


SIZES = {
    "full": Size(
        setup_reps=5,
        verify_models=None,
        trials=20,
        expected_checks=262,
        report_digest="19d5db1a635266a919f9a99622dbe0d649d3485c6e59ea56829003aad4d57cb3",
        sweeps_per_pass=5,
        replay_trials=5,
        cases_1d=_cases_1d(256, 128),
        steps_1d=1000,
        record_1d=100,
        cases_2d=_cases_2d(64, 64, 32),
        steps_2d=20,
    ),
    # For the self-test only: every code path in a few seconds per workload.
    "tiny": Size(
        setup_reps=2,
        verify_models=("elasticity3d", "rayleigh_beam", "truss"),
        trials=1,
        expected_checks=16,
        report_digest="fde3a65384130efba0c89c8579e1ec435072284e4231e4ce6f70491a245d77d5",
        sweeps_per_pass=2,
        replay_trials=1,
        cases_1d=_cases_1d(16, 16),
        steps_1d=20,
        record_1d=5,
        cases_2d=_cases_2d(6, 6, 4),
        steps_2d=5,
        poly_pairs=2,
        construction_reps=1,
        step_probe_calls_1d=5,
        step_probe_calls_2d=2,
    ),
}


# ---------------------------------------------------------------------------
# Probes shared by every workload (traced runs only)
# ---------------------------------------------------------------------------


def probe_constructions(models, reps: int, tracer) -> None:
    """Build the formal adjoint and the BoundaryForm of each operator."""
    for model in models:
        for _ in range(reps):
            with tracer.span("diffop.formal_adjoint"):
                model.op.formal_adjoint()
            with tracer.span("diffop.BoundaryForm"):
                BoundaryForm(model.op)


def probe_poly(models, pairs: int, seed: int, tracer) -> None:
    """Poly + and * on random operands of the degree and axes lemma1 uses."""
    rng = random.Random(f"{seed}:poly")
    for model in models:
        degree = model.order + 2
        for _ in range(pairs):
            a = random_poly(rng, model.op.axes, degree)
            b = random_poly(rng, model.op.axes, degree)
            with tracer.span("poly.mul"):
                a * b
            with tracer.span("poly.add"):
                a + b


def shared_layer_metrics(tracer, since: int) -> Dict[str, float]:
    us = lambda name: median(tracer.durations(name, since)) * 1e6
    return {
        "diffop.formal_adjoint_us": us("diffop.formal_adjoint"),
        "diffop.boundary_form_us": us("diffop.BoundaryForm"),
        "poly.mul_us": us("poly.mul"),
        "poly.add_us": us("poly.add"),
    }


# ---------------------------------------------------------------------------
# verify-suite
# ---------------------------------------------------------------------------


class VerifySuite:
    """run_all over the builtins, then compile sweeps through the build path."""

    min_passes = 2  # the workload seed and REPORT_SEED

    def __init__(self, size: Size, seed: int, outcomes: Outcomes, out_dir: str):
        self.size = size
        self.seed = seed
        self.outcomes = outcomes
        self.out_dir = out_dir
        self.names = list(size.verify_models) if size.verify_models else builtin_names()
        self.models = {}
        self.reference = {}

    def release(self) -> None:
        self.models = {}

    def setup(self, tracer) -> dict:
        units = {}
        for name in self.names:
            started = perf_counter()
            with tracer.span("models.builtin_model"):
                self.models[name] = builtin_model(name)
            units[name] = (started, perf_counter())
        return units

    def check_setup(self) -> None:
        """Exports of the builtins without the file round trip: the sweep's
        outputs must match them byte for byte."""
        for name, model in self.models.items():
            self.reference[name] = _canonical(export_system(assemble_phs(model, validate=False)))

    def pass_seed(self, k: int) -> int:
        return self.seed + k // 2 if k % 2 == 0 else REPORT_SEED

    def run_pass(self, k: int, tracer) -> dict:
        seed = self.pass_seed(k)
        record = {"seed": seed, "units": {}, "verify_s": 0.0, "sweep_marks": [],
                  "checks": 0, "elasticity3d_s": 0.0}
        model_names = list(self.size.verify_models) if self.size.verify_models else None
        with tracer.wrapping(verify_module, FAMILY_SPANS):
            started = perf_counter()
            try:
                with tracer.span("verify.run_all"):
                    results = run_all(seed, model_names=model_names, trials=self.size.trials)
            except Exception:
                self.outcomes.crashed(f"run_all(seed={seed})")
                results = None
            record["verify_s"] = perf_counter() - started
        if results is not None:
            self._check_report(seed, results, record, tracer)
        record["units"]["run_all"] = (started, perf_counter())
        for i in range(self.size.sweeps_per_pass):
            mark = tracer.mark()
            started = perf_counter()
            self.compile_sweep(tracer)
            record["units"][f"sweep.{i}"] = (started, perf_counter())
            record["sweep_marks"].append((mark, tracer.mark()))
        return record

    def _check_report(self, seed, results, record, tracer) -> None:
        for r in results:
            self.outcomes.record(r.ok, f"verify check {r.check_id}: {r.witness}")
        record["checks"] = len(results)
        tracer.count("verify.checks", len(results))
        tracer.count("verify.failures", sum(1 for r in results if not r.ok))
        record["elasticity3d_s"] = sum(
            r.elapsed for r in results if r.check_id.startswith("lemma1:elasticity3d:")
        )
        self.outcomes.record(
            len(results) == self.size.expected_checks,
            f"run_all(seed={seed}) gave {len(results)} checks, expected {self.size.expected_checks}",
        )
        if seed == REPORT_SEED:
            digest = hashlib.sha256(report_json(results, seed).encode("utf-8")).hexdigest()
            self.outcomes.record(
                digest == self.size.report_digest,
                f"verify report digest for seed {seed} is {digest}",
            )

    def compile_sweep(self, tracer) -> None:
        """parse(serialize(builtin)) -> validate -> assemble -> export, per model."""
        for name in self.names:
            try:
                with tracer.span("models.builtin_model"):
                    model = builtin_model(name)
                with tracer.span("modelfile.roundtrip"):
                    model = parse_model(serialize_model(model))
                with tracer.span("models.validate_model"):
                    report = validate_model(model)
                with tracer.span("build.assemble_phs"):
                    system = assemble_phs(model, validate=False)
                with tracer.span("build.export_system"):
                    exported = export_system(system)
                ok = report.ok and _canonical(exported) == self.reference[name]
            except Exception:
                self.outcomes.crashed(f"compile {name}")
                continue
            tracer.count("build.models_compiled")
            self.outcomes.record(ok, f"compile {name}: output differs from the builtin's export")

    def probe(self, tracer) -> None:
        self._replay_lemma1(tracer)
        probe_constructions(self.models.values(), self.size.construction_reps, tracer)
        probe_poly(self.models.values(), self.size.poly_pairs, self.seed, tracer)

    def _replay_lemma1(self, tracer) -> None:
        """The first trials of check_lemma1's seeded fields, one diffop call at a time."""
        for name, model in self.models.items():
            rng = random.Random(f"{self.seed}:{name}")
            op, dom, degree = model.op, model.domain, model.order + 2
            for _ in range(self.size.replay_trials):
                v = [random_poly(rng, op.axes, degree) for _ in range(op.m)]
                w = [random_poly(rng, op.axes, degree) for _ in range(op.n)]
                try:
                    with tracer.span("diffop.ibp_residual"):
                        res = ibp_residual(op, v, w, dom)
                    with tracer.span("diffop.volume_mismatch"):
                        lhs = volume_mismatch(op, v, w, dom)
                    with tracer.span("diffop.boundary_pairing_sum_form"):
                        rhs = boundary_pairing_sum_form(op, v, w, dom)
                except Exception:
                    self.outcomes.crashed(f"lemma1 replay on {name}")
                    continue
                self.outcomes.record(res == 0 and lhs == rhs, f"lemma1 replay on {name}")

    def report(self, records) -> Dict[str, Tuple[float, str]]:
        sweeps = [end - start for r in records for name, (start, end) in r["units"].items()
                  if name.startswith("sweep.")]
        return {
            "verify_s": (median([r["verify_s"] for r in records]), "s"),
            "verify_passes": (len(records), "count"),
            "compile_ms": (median(sweeps) * 1e3, "ms"),
            "compile_sweeps": (len(sweeps), "count"),
        }

    def layer_metrics(self, tracer, rep_marks, traced, probe_mark) -> Dict[str, float]:
        families = {}
        for fn_name, span_name in FAMILY_SPANS.items():
            families[span_name] = [tracer.busy(span_name, a, b) for a, b, _ in traced]
        run_all_s = [tracer.busy("verify.run_all", a, b) for a, b, _ in traced]
        coverage = [
            sum(families[f][i] for f in families) / run_all_s[i]
            for i in range(len(traced))
            if run_all_s[i] > 0
        ]
        sweeps = [m for _, _, rec in traced for m in rec["sweep_marks"]]
        per_sweep_ms = lambda name: median([tracer.busy(name, a, b) for a, b in sweeps]) * 1e3
        replay = lambda name: tracer.busy(name, probe_mark)
        calls = lambda name: tracer.calls(name, probe_mark)
        return {
            "verify.run_all_s": median(run_all_s),
            "verify.lemma1_s": median(families["verify.lemma1"]),
            "verify.energy_s": median(families["verify.energy"]),
            "verify.reduction_s": median(families["verify.reduction"]),
            "verify.mutation_s": median(families["verify.mutation"]),
            "verify.lemma1.elasticity3d_s": median([rec["elasticity3d_s"] for _, _, rec in traced]),
            "verify.checks": traced[0][2]["checks"],
            "verify.family_coverage": median(coverage),
            "diffop.ibp_residual_s": replay("diffop.ibp_residual"),
            "diffop.ibp_residual.calls": calls("diffop.ibp_residual"),
            "diffop.volume_mismatch_s": replay("diffop.volume_mismatch"),
            "diffop.volume_mismatch.calls": calls("diffop.volume_mismatch"),
            "diffop.boundary_pairing_sum_form_s": replay("diffop.boundary_pairing_sum_form"),
            "diffop.boundary_pairing_sum_form.calls": calls("diffop.boundary_pairing_sum_form"),
            "modelfile.roundtrip_ms": per_sweep_ms("modelfile.roundtrip"),
            "models.validate_ms": per_sweep_ms("models.validate_model"),
            "models.builtin_model_ms": per_sweep_ms("models.builtin_model"),
            "build.assemble_ms": per_sweep_ms("build.assemble_phs"),
            "build.export_ms": per_sweep_ms("build.export_system"),
        }


def _canonical(exported: dict) -> str:
    return json.dumps(exported, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# sim-1d and sim-2d
# ---------------------------------------------------------------------------


class SimWorkload:
    """Simulation runs from random_state, logged and written like cmd_simulate."""

    min_passes = 3

    def __init__(self, cases, steps, record_every, probe_calls, size: Size, seed: int,
                 outcomes: Outcomes, out_dir: str):
        self.cases = cases
        self.steps = steps
        self.record_every = record_every
        self.probe_calls = probe_calls
        self.size = size
        self.seed = seed
        self.outcomes = outcomes
        self.out_dir = out_dir
        self.release()

    def release(self) -> None:
        self.models = {}
        self.systems = {}  # SimCase.grid_label -> DiscreteSystem
        self.runs = []  # (case, dsys, inputs, state0)
        self.steady_step_s = {}

    def setup(self, tracer) -> dict:
        units = {}
        for index, case in enumerate(self.cases):
            started = perf_counter()
            dsys = self.systems.get(case.grid_label)
            if dsys is None:
                with tracer.span("models.builtin_model"):
                    model = builtin_model(case.model)
                self.models[case.model] = model
                with tracer.span("build.assemble_phs"):
                    system = assemble_phs(model, validate=False)  # builtin_model validated it
                with tracer.span("simulate.discretize"):
                    dsys = discretize(system, GridSpec(case.cells), dict(case.bc))
                with tracer.span("simulate.step_midpoint.first"):
                    step_midpoint(dsys, dsys.zero_state(), DT)
                self.systems[case.grid_label] = dsys
            self.runs.append((case, dsys, *self._inputs_and_state(index, case, dsys)))
            units[case.label] = (started, perf_counter())
        return units

    def _inputs_and_state(self, index, case, dsys):
        """Closed runs start from random_state; the ported runs mirror
        acceptance criterion 7 (sin traction on right:psi, cos body load)."""
        case_seed = self.seed * 1000 + index
        if case.port == "traction":
            traction = boundary_traction_input(dsys, "right", "psi", lambda t: 0.4 * math.sin(7 * t))
            return [traction], random_state(dsys, seed=case_seed, amplitude=0.2)
        if case.port == "distributed":
            return [distributed_input(dsys, 0, lambda t: math.cos(2 * t))], dsys.zero_state()
        return [], random_state(dsys, seed=case_seed)

    def check_setup(self) -> None:
        for label, dsys in self.systems.items():
            skew = dsys.J + dsys.J.T
            self.outcomes.record(skew.count_nonzero() == 0, f"{label}: J + J^T is not zero")
            state = dsys.zero_state()
            times = []
            for _ in range(3):
                started = perf_counter()
                step_midpoint(dsys, state, DT)
                times.append(perf_counter() - started)
            self.steady_step_s[label] = median(times)

    def run_pass(self, k: int, tracer) -> dict:
        record = {"units": {}, "sim_s": 0.0, "dof_steps": 0, "write_s": 0.0, "rows": 0, "bytes": 0}
        for case, dsys, inputs, state0 in self.runs:
            started = perf_counter()
            try:
                with tracer.span("simulate.simulate"):
                    traj, log = simulate(dsys, DT, self.steps, inputs=inputs, state0=state0,
                                         record_every=self.record_every)
            except Exception:
                self.outcomes.crashed(f"simulate {case.label}")
                continue
            record["sim_s"] += perf_counter() - started
            record["dof_steps"] += dsys.num_dofs * self.steps
            tracer.count("simulate.steps", self.steps)
            tracer.count("simulate.dof_steps", dsys.num_dofs * self.steps)
            self._gate(case, log)
            self._write(case, dsys, traj, log, record, tracer)
            record["units"][case.label] = (started, perf_counter())
        return record

    def _gate(self, case, log) -> None:
        if case.port is None:
            drift = log.relative_drift
            self.outcomes.record(drift <= DRIFT_TOL, f"{case.label}: relative drift {drift:.3e}")
        else:
            scale = np.maximum(1.0, np.abs(log.energy[1:]))
            worst = float(np.max(log.residual[1:] / scale))
            self.outcomes.record(worst <= BALANCE_TOL, f"{case.label}: balance residual {worst:.3e}")

    def _write(self, case, dsys, traj, log, record, tracer) -> None:
        base = os.path.join(self.out_dir, case.label)
        expected = {base + ".energy.csv": len(log.energy) + 1}
        started = perf_counter()
        try:
            with tracer.span("simulate.write_energy_csv"):
                write_energy_csv(base + ".energy.csv", log)
            if self.record_every:
                expected[base + ".traj.csv"] = len(traj.snapshots) * dsys.num_dofs + 1
                with tracer.span("simulate.write_trajectory_csv"):
                    write_trajectory_csv(base + ".traj.csv", dsys, traj)
        except Exception:
            self.outcomes.crashed(f"write CSVs of {case.label}")
            return
        record["write_s"] += perf_counter() - started
        for path, lines in expected.items():
            with open(path, "rb") as fh:
                blob = fh.read()
            record["rows"] += blob.count(b"\n") - 1
            record["bytes"] += len(blob)
            tracer.count("simulate.csv_bytes", len(blob))
            self.outcomes.record(blob.count(b"\n") == lines, f"{path}: wrong number of rows")

    def probe(self, tracer) -> None:
        for label, dsys in self.systems.items():
            state = random_state(dsys, seed=self.seed)
            channel = _probe_channel(dsys)
            steps = self.probe_calls
            for _ in range(steps):
                with tracer.span(f"simulate.step_midpoint:{label}"):
                    step_midpoint(dsys, state, DT)
                with tracer.span(f"simulate.discrete_hamiltonian:{label}"):
                    discrete_hamiltonian(dsys, state)
            for span_name, inputs in ((f"simulate.simulate.closed:{label}", []),
                                      (f"simulate.simulate.input:{label}", [channel])):
                with tracer.span(span_name):
                    simulate(dsys, DT, steps, inputs=inputs, state0=state)
        probe_constructions(self.models.values(), self.size.construction_reps, tracer)
        probe_poly(self.models.values(), self.size.poly_pairs, self.seed, tracer)

    def report(self, records) -> Dict[str, Tuple[float, str]]:
        sim_s = sum(r["sim_s"] for r in records)
        return {
            "dof_steps_per_s": (sum(r["dof_steps"] for r in records) / sim_s if sim_s else 0.0, "1/s"),
            "write_s": (median([r["write_s"] for r in records]), "s"),
        }

    def layer_metrics(self, tracer, rep_marks, traced, probe_mark) -> Dict[str, float]:
        rep = lambda name: median([tracer.busy(name, a, b) for a, b in rep_marks])
        step, ham, loop, extra = [], [], [], []
        for label in self.systems:
            s = median(tracer.durations(f"simulate.step_midpoint:{label}", probe_mark))
            h = median(tracer.durations(f"simulate.discrete_hamiltonian:{label}", probe_mark))
            closed = tracer.busy(f"simulate.simulate.closed:{label}", probe_mark) / self.probe_calls
            ported = tracer.busy(f"simulate.simulate.input:{label}", probe_mark) / self.probe_calls
            step.append(s)
            ham.append(h)
            loop.append(closed - s - h)
            extra.append(ported - closed)
        steppers = [dsys._steppers[DT] for dsys in self.systems.values()]
        fill = sum(st.lu.L.nnz + st.lu.U.nnz for st in steppers)
        records = [rec for _, _, rec in traced]
        sim_s = sum(r["sim_s"] for r in records)
        per_pass = lambda name: median([tracer.busy(name, a, b) for a, b, _ in traced])
        return {
            "models.builtin_model_ms": rep("models.builtin_model") * 1e3,
            "build.assemble_ms": rep("build.assemble_phs") * 1e3,
            "simulate.discretize_s": rep("simulate.discretize"),
            "simulate.factor_s": rep("simulate.step_midpoint.first") - sum(self.steady_step_s.values()),
            "simulate.lu_fill": fill,
            "simulate.fill_ratio": fill / sum(st.forward.nnz for st in steppers),
            "simulate.step_midpoint_us": statistics.fmean(step) * 1e6,
            "simulate.hamiltonian_us": statistics.fmean(ham) * 1e6,
            "simulate.input_us": statistics.fmean(extra) * 1e6,
            "simulate.loop_overhead_us": statistics.fmean(loop) * 1e6,
            "simulate.dof_steps_per_s": sum(r["dof_steps"] for r in records) / sim_s,
            "simulate.write_energy_csv_s": per_pass("simulate.write_energy_csv"),
            "simulate.write_trajectory_csv_s": per_pass("simulate.write_trajectory_csv"),
            "simulate.csv_rows": records[0]["rows"],
            "simulate.csv_mb": records[0]["bytes"] / 1e6,
        }


def _probe_channel(dsys) -> InputChannel:
    """One input channel on the first momentum node: the cost of an input
    does not depend on where it acts."""
    vector = np.zeros(dsys.num_dofs)
    vector[0] = 1.0
    return InputChannel("probe", "boundary", vector, vector * dsys.W, lambda t: math.sin(t + 1.0))


def make_workload(name: str, size_name: str, seed: int, outcomes: Outcomes, out_dir: str):
    size = SIZES[size_name]
    if name == "verify-suite":
        return VerifySuite(size, seed, outcomes, out_dir)
    if name == "sim-1d":
        return SimWorkload(size.cases_1d, size.steps_1d, size.record_1d, size.step_probe_calls_1d,
                           size, seed, outcomes, out_dir)
    if name == "sim-2d":
        return SimWorkload(size.cases_2d, size.steps_2d, 0, size.step_probe_calls_2d,
                           size, seed, outcomes, out_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify-suite", "sim-1d", "sim-2d")
