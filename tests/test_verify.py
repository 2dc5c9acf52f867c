"""The falsification surface: identity checks, planted bugs, reductions,
and byte-stable reporting."""

import dataclasses
from fractions import Fraction as F

import pytest

from phs_forge import verify
from phs_forge.build import assemble_phs
from phs_forge.diffop import DiffOpMatrix
from phs_forge.models import builtin_model, builtin_names
from phs_forge.verify import (
    check_energy_structure,
    check_lemma1,
    check_limits_and_reductions,
    check_mutations,
    report_json,
    run_all,
)


def test_lemma1_all_builtins_pass_quick():
    models = [builtin_model(name) for name in builtin_names()]
    results = check_lemma1(models, trials=3, seed=13)
    assert len(results) == 3 * len(models)
    assert all(r.ok for r in results), [r.check_id for r in results if not r.ok]


@pytest.mark.parametrize("trials", [0, -1])
def test_lemma1_needs_at_least_one_trial(trials):
    with pytest.raises(ValueError, match="at least one lemma1 trial"):
        check_lemma1([builtin_model("truss")], trials=trials)
    with pytest.raises(ValueError, match="at least one lemma1 trial"):
        run_all(seed=1, model_names=["truss"], trials=trials)


@pytest.mark.parametrize("trials", [0, -1])
def test_energy_structure_needs_at_least_one_trial(trials):
    # with no trial the check used to pass without pairing a single field
    sys_ = assemble_phs(builtin_model("truss"))
    with pytest.raises(ValueError, match="at least one energy trial"):
        check_energy_structure(sys_, trials=trials)


def test_lemma1_trivial_zero_fields():
    from phs_forge.diffop import ibp_residual
    from phs_forge.poly import Poly

    model = builtin_model("string")
    zero = [Poly.zero(model.dist)]
    assert ibp_residual(model.op, zero, zero, model.domain) == 0


def test_mutation_suite_detects_all_planted_bugs():
    results = check_mutations(seed=3)
    ids = {r.check_id for r in results}
    assert len(results) >= 6
    assert all(r.ok for r in results), [(r.check_id, r.witness) for r in results if not r.ok]
    assert any("sign-flip" in i for i in ids)
    assert any("transposed" in i for i in ids)
    # witnesses carry the nonzero rational that exposed the bug
    assert all("residual" in (r.witness or "") for r in results)


def test_mutations_attack_the_shipped_oracle(monkeypatch):
    """Every planted bug builds the shipped diffop.IbpOracle, through verify's
    module global, with exactly one of form= and adjoint= corrupted, and
    draws its four residuals from it: never a private copy of the pairing."""
    from phs_forge.diffop import BoundaryForm, IbpOracle

    built, drawn = [], []

    def build(op, dom, form=None, adjoint=None):
        oracle = IbpOracle(op, dom, form=form, adjoint=adjoint)
        built.append((oracle, op, form, adjoint))
        return oracle

    residual = IbpOracle.residual

    def spy_residual(self, v, w):
        drawn.append(self)
        return residual(self, v, w)

    monkeypatch.setattr(verify, "IbpOracle", build)
    monkeypatch.setattr(IbpOracle, "residual", spy_residual)
    results = check_mutations(seed=3)
    assert len(results) == 7 and all(r.ok for r in results)
    assert len(built) == 7
    for oracle, op, form, adjoint in built:
        form_corrupted = form is not None and form.q_axes != BoundaryForm(op).q_axes
        adjoint_corrupted = adjoint is not None and adjoint != op.formal_adjoint()
        assert form_corrupted != adjoint_corrupted
        assert (form is None) == adjoint_corrupted and (adjoint is None) == form_corrupted
        assert sum(o is oracle for o in drawn) == 4
    assert len(drawn) == 4 * 7


def test_symbol_proof_kills_every_planted_mutation():
    """The kill matrix: each of check_mutations' corrupted forms and adjoints
    leaves a nonzero entry in the symbol identity."""
    from phs_forge import verify
    from phs_forge.diffop import ibp_symbol_residual

    mutations = verify._mutations()
    assert sorted(f"mutation:{m[0]}" for m in mutations) == sorted(
        r.check_id for r in check_mutations(seed=3)
    )
    assert len(mutations) == 7
    for mutation_id, model, form, adjoint in mutations:
        rows = ibp_symbol_residual(model.op, form=form, adjoint=adjoint)
        assert any(not p.is_zero for row in rows for p in row), mutation_id


def test_lemma1_witness_names_the_failing_symbol_entry(monkeypatch):
    from phs_forge import verify

    shipped = verify.BoundaryForm

    def corrupted(op):  # the p-block sign flip of the mutation suite
        form = shipped(op)
        verify._scale_block(form, (0, 0), (0, 0), -1)
        return form

    monkeypatch.setattr(verify, "BoundaryForm", corrupted)
    results = check_lemma1([builtin_model("timoshenko")], trials=2, seed=1)
    assert [r.ok for r in results] == [False, False]
    for r in results:
        assert r.witness.startswith("residual ")
        assert r.witness.endswith("; symbol residual [0][0] = 2*dw1 + 2*dv1")


def test_energy_structure_convicts_a_corrupted_stored_boundary_form():
    from phs_forge import verify

    sys_ = assemble_phs(builtin_model("rayleigh_beam"))
    sys_.boundary = verify._mutated_form(sys_.op, verify._drop_alternating_sign)
    res = check_energy_structure(sys_, seed=5)
    assert not res.ok
    assert res.witness == "symbol residual [1][0] = -2*dw1*dv1 - 2*dv1^2"


def test_energy_structure_passes_for_builtins():
    for name in ("timoshenko", "reddy_plate", "torsion", "rayleigh_beam"):
        sys_ = assemble_phs(builtin_model(name))
        res = check_energy_structure(sys_, seed=5)
        assert res.ok, res.witness


def test_energy_structure_convicts_asymmetric_stiffness():
    sys_ = assemble_phs(builtin_model("timoshenko"))
    sys_.stiffness = [[F(1, 12), F(1, 3)], [F(0), F(5, 6)]]
    res = check_energy_structure(sys_, seed=5)
    assert not res.ok
    assert res.witness == "stiffness matrix is not symmetric"


def test_energy_structure_stops_at_its_first_failing_stage(monkeypatch):
    """An asymmetric mass matrix fails the first stage; neither the symbol
    proof nor the sampled oracle is built after it."""
    calls = []

    for name in ("ibp_symbol_residual", "IbpOracle"):

        def spy(*args, _name=name, _oracle=getattr(verify, name), **kwargs):
            calls.append(_name)
            return _oracle(*args, **kwargs)

        monkeypatch.setattr(verify, name, spy)
    sys_ = assemble_phs(builtin_model("timoshenko"))
    sys_.mass = [[F(1), F(1)], [F(0), F(1, 12)]]
    res = check_energy_structure(sys_, seed=5)
    assert res.witness == "mass matrix is not symmetric"
    assert calls == []


def test_energy_structure_convicts_asymmetric_inverse_mass():
    sys_ = assemble_phs(builtin_model("timoshenko"))
    sys_.mass_inv = [[F(12), F(1)], [F(0), F(1)]]
    res = check_energy_structure(sys_, seed=5)
    assert not res.ok
    assert res.witness == "inverse mass matrix is not symmetric"


def test_energy_structure_convicts_wrong_adjoint():
    sys_ = assemble_phs(builtin_model("timoshenko"))
    sys_.op_adjoint = sys_.op  # wrong: not the adjoint
    res = check_energy_structure(sys_, seed=5)
    assert not res.ok
    assert res.witness == "stored adjoint differs from the formal adjoint"


def test_reductions_all_pass():
    results = check_limits_and_reductions()
    assert [r.check_id for r in results] == [
        "reduction:reddy-plate-to-mindlin",
        "reduction:rayleigh-to-euler-bernoulli",
        "reduction:torsion-two-strain",
    ]
    assert all(r.ok for r in results), [(r.check_id, r.witness) for r in results]


def test_run_all_passes_and_serializes_deterministically():
    results1 = run_all(seed=7, trials=2)
    results2 = run_all(seed=7, trials=2)
    assert all(r.ok for r in results1), [(r.check_id, r.witness) for r in results1 if not r.ok]
    blob1 = report_json(results1, 7)
    blob2 = report_json(results2, 7)
    assert blob1 == blob2
    assert blob1.encode() == blob2.encode()


def test_run_all_different_seed_changes_fields_not_outcome():
    results = run_all(seed=1234, trials=1)
    assert all(r.ok for r in results)


def test_run_all_refuses_an_empty_model_list():
    # [] used to run every builtin, as None does
    with pytest.raises(ValueError, match="model_names is empty"):
        run_all(seed=1, model_names=[], trials=1)


@pytest.mark.parametrize(
    "names, repeated",
    [(["truss", "truss"], "truss"), (["string", "truss", "string", "truss"], "string, truss")],
)
def test_run_all_refuses_a_repeated_model(names, repeated):
    # a repeated name used to run its checks twice under the same check ids
    with pytest.raises(ValueError, match=f"model_names repeats {repeated}$"):
        run_all(seed=1, model_names=names, trials=1)


def test_run_all_runs_every_builtin_for_none_and_only_the_named_models_otherwise():
    everything = run_all(seed=1, model_names=None, trials=1)
    named = run_all(seed=1, model_names=("truss",), trials=1)
    lemma1 = lambda results: {r.subject for r in results if r.check_id.startswith("lemma1:")}
    assert lemma1(everything) == set(builtin_names())
    assert lemma1(named) == {"truss"}
    for results in (everything, named):
        assert len({r.check_id for r in results}) == len(results)


def test_report_json_sorted_by_check_id():
    import json

    results = run_all(seed=2, trials=1, model_names=["string", "truss"])
    payload = json.loads(report_json(results, 2))
    ids = [c["id"] for c in payload["checks"]]
    assert ids == sorted(ids)
    assert payload["failures"] == 0


def _entry(i, j, change):
    """A matrix edit: entry (i, j) becomes ``change`` of its value."""

    def edit(matrix):
        out = [list(row) for row in matrix]
        out[i][j] = change(out[i][j])
        return out

    return edit


def _scaled_op(factor):
    """A model edit: its operator F becomes factor * F."""

    def scale(mat_):
        return [[factor * x for x in row] for row in mat_]

    def edit(model):
        op = model.op
        pk = {key: scale(mat_) for key, mat_ in op.pk.items()}
        return dataclasses.replace(model, op=DiffOpMatrix(op.m, op.n, op.axes, scale(op.p0), pk))

    return edit


def _doubled_cmat_entry(i):
    """A model edit: the material constant C[i][i] doubles."""

    def edit(model):
        cmat = [list(row) for row in model.cmat]
        cmat[i][i] *= 2
        return dataclasses.replace(model, cmat=cmat)

    return edit


# (check id, verify global, the model names it corrupts, edit, witness): one
# case per stage of check_limits_and_reductions, each failing it alone
REDUCTION_FAILURES = [
    ("reduction:reddy-plate-to-mindlin", "mass_matrix", {"mindlin_plate"},
     _entry(0, 0, lambda x: x + 1), "leading mass block differs"),
    ("reduction:reddy-plate-to-mindlin", "mass_matrix", {"reddy_plate"},
     _entry(3, 4, lambda x: x + 1), "third-order mass rows/columns do not vanish"),
    ("reduction:reddy-plate-to-mindlin", "stiffness_matrix", {"mindlin_plate"},
     _entry(4, 4, lambda x: x + 1), "leading stiffness block differs"),
    ("reduction:reddy-plate-to-mindlin", "stiffness_matrix", {"reddy_plate"},
     _entry(7, 0, lambda x: x + 1), "third-order stiffness rows/columns do not vanish"),
    ("reduction:reddy-plate-to-mindlin", "builtin_model", {"mindlin_plate"},
     _scaled_op(2), "operator sub-block differs"),
    ("reduction:rayleigh-to-euler-bernoulli", "builtin_model", {"euler_bernoulli"},
     _scaled_op(2), "column-deleted operator is not the bending operator"),
    ("reduction:rayleigh-to-euler-bernoulli", "mass_matrix", {"euler_bernoulli"},
     _entry(0, 0, lambda x: 2 * x), "translational mass entry differs"),
    ("reduction:rayleigh-to-euler-bernoulli", "stiffness_matrix", {"euler_bernoulli"},
     _entry(0, 0, lambda x: 2 * x), "strain rescaling failed: 4 * 1/48 != 1/6"),
    ("reduction:rayleigh-to-euler-bernoulli", "builtin_model", {"rayleigh_beam", "euler_bernoulli"},
     _scaled_op(-1), "bending operator is not self-adjoint of order two"),
    ("reduction:torsion-two-strain", "torsion_two_strain", {"torsion_two_strain"},
     _doubled_cmat_entry(1), "transverse moments differ: 1/2*pi vs 1/4*pi"),
    ("reduction:torsion-two-strain", "mass_matrix", {"torsion"},
     _entry(0, 0, lambda x: 2 * x), "polar moment 1*pi is not twice 1/4*pi"),
    ("reduction:torsion-two-strain", "stiffness_matrix", {"torsion"},
     _entry(0, 0, lambda x: 2 * x), "aggregated stiffness does not match the reduced model"),
]


@pytest.mark.parametrize(
    "check_id, name, targets, edit, witness",
    REDUCTION_FAILURES,
    ids=[f"{case[0].split(':')[1]}-{k}" for k, case in enumerate(REDUCTION_FAILURES)],
)
def test_each_reduction_stage_names_its_failure(monkeypatch, check_id, name, targets, edit, witness):
    original = getattr(verify, name)

    def corrupted(*args, **kwargs):
        out = original(*args, **kwargs)
        model = out if name in ("builtin_model", "torsion_two_strain") else args[0]
        return edit(out) if model.name in targets else out

    monkeypatch.setattr(verify, name, corrupted)
    results = {r.check_id: r for r in check_limits_and_reductions()}
    assert [r.status for r in results.values()].count("fail") == 1
    assert results[check_id].status == "fail"
    assert results[check_id].witness == witness
