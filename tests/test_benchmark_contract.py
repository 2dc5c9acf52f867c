"""The benchmark's contract with the package.

``benchmark/workloads.py`` imports names from ``phs_forge`` and times the
four check families of ``verify.run_all`` by wrapping them in verify's module
globals; its sim workloads read the steppers, ``J`` and ``W`` of a discrete
system.  These tests load that file by path, so removing a name it imports,
or calling a family other than through the module globals, fails here rather
than only in a benchmark run.  Nothing under ``benchmark/`` is modified.
"""

import hashlib
import importlib.util
import numbers
import sys
from pathlib import Path

import pytest

from phs_forge import verify
from phs_forge.build import assemble_phs
from phs_forge.models import builtin_model
from phs_forge.simulate import GridSpec, discretize, random_state, simulate, step_midpoint

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    try:
        spec.loader.exec_module(module)  # an ImportError names what the package lost
        yield module
    finally:
        del sys.modules[spec.name]


def test_workloads_import_from_this_package(workloads):
    assert workloads.verify_module is verify
    assert set(workloads.FAMILY_SPANS) == {
        "check_lemma1",
        "check_energy_structure",
        "check_limits_and_reductions",
        "check_mutations",
    }


def test_run_all_calls_each_family_through_the_module_globals(workloads, monkeypatch):
    calls = []
    for name in workloads.FAMILY_SPANS:

        def spy(*args, _name=name, _family=getattr(verify, name), **kwargs):
            calls.append(_name)
            return _family(*args, **kwargs)

        monkeypatch.setattr(verify, name, spy)
    results = verify.run_all(seed=1, model_names=["truss", "euler_bernoulli"], trials=1)
    assert all(r.ok for r in results)
    assert set(calls) == set(workloads.FAMILY_SPANS)


def test_tiny_size_report_matches_its_pins(workloads):
    """The self-test size's check count and seed report digest."""
    size, seed = workloads.SIZES["tiny"], workloads.REPORT_SEED
    results = verify.run_all(seed, model_names=list(size.verify_models), trials=size.trials)
    assert len(results) == size.expected_checks
    digest = hashlib.sha256(verify.report_json(results, seed).encode("utf-8")).hexdigest()
    assert digest == size.report_digest


def test_full_size_pins_are_the_acceptance_report_pins(workloads):
    """The full size's run is ``run_all(7, trials=20)`` over every builtin,
    the run whose report criterion 8 pins; both pins must name the same
    report, so neither can drift alone."""
    from test_acceptance import REPORT_SEED7_SHA256

    size = workloads.SIZES["full"]
    assert (workloads.REPORT_SEED, size.verify_models, size.trials) == (7, None, 20)
    assert size.report_digest == REPORT_SEED7_SHA256
    assert size.expected_checks == 262


def test_every_result_carries_a_positive_elapsed_time(workloads):
    """The traced verify-suite pass sums ``elapsed`` over the
    ``lemma1:elasticity3d:`` results, so each family must time its checks."""
    results = verify.run_all(workloads.REPORT_SEED, model_names=["elasticity3d", "truss"], trials=2)
    assert any(r.check_id.startswith("lemma1:elasticity3d:") for r in results)
    assert all(type(r.elapsed) is float and r.elapsed > 0 for r in results)


@pytest.mark.parametrize("name, cells", [("truss", (8,)), ("elasticity2d", (4, 4))])
def test_the_sim_workloads_reads_of_the_simulator_are_there(workloads, name, cells):
    """``SimWorkload`` reads the stepper that a step caches under its ``dt``,
    the L+U fill of its ``lu`` and the nnz of its ``forward``, checks that
    ``J`` is skew, and builds a probe ``InputChannel`` positionally over
    ``W`` (``_probe_channel``)."""
    dsys = discretize(assemble_phs(builtin_model(name)), GridSpec(cells), {})
    assert workloads.DT == 1e-3
    step_midpoint(dsys, dsys.zero_state(), workloads.DT)
    stepper = dsys._steppers[workloads.DT]
    for count in (stepper.lu.L.nnz + stepper.lu.U.nnz, stepper.forward.nnz, dsys.J.nnz):
        assert isinstance(count, numbers.Integral) and count > 0
    assert (dsys.J + dsys.J.T).count_nonzero() == 0
    channel = workloads._probe_channel(dsys)
    _, log = simulate(dsys, workloads.DT, 2, inputs=[channel], state0=random_state(dsys, seed=1))
    assert len(log.energy) == 3
