"""The falsification surface: identity checks, planted bugs, reductions,
and byte-stable reporting."""

from fractions import Fraction as F

import pytest

from phs_forge.build import assemble_phs
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
    """Every planted bug reaches diffop.ibp_residual as a corrupted form= or
    adjoint=, never through a private copy of the pairing."""
    from phs_forge import verify

    corrupted = []
    oracle = verify.ibp_residual

    def spy(op, v, w, dom, form=None, adjoint=None):
        corrupted.append((form is not None) != (adjoint is not None))
        return oracle(op, v, w, dom, form=form, adjoint=adjoint)

    monkeypatch.setattr(verify, "ibp_residual", spy)
    results = check_mutations(seed=3)
    assert all(r.ok for r in results)
    assert len(corrupted) == 4 * len(results) and all(corrupted)


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
    assert "symmetric" in res.witness


def test_energy_structure_convicts_wrong_adjoint():
    sys_ = assemble_phs(builtin_model("timoshenko"))
    sys_.op_adjoint = sys_.op  # wrong: not the adjoint
    res = check_energy_structure(sys_, seed=5)
    assert not res.ok


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


def test_report_json_sorted_by_check_id():
    import json

    results = run_all(seed=2, trials=1, model_names=["string", "truss"])
    payload = json.loads(report_json(results, 2))
    ids = [c["id"] for c in payload["checks"]]
    assert ids == sorted(ids)
    assert payload["failures"] == 0
