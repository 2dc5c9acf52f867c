"""Executable structural checks with machine-readable reports.

Everything here is a falsification attempt run in exact arithmetic: the
adjoint/boundary identity on random polynomial fields, the energy-rate
collapse to boundary terms, the first-order limits between models, and a
mutation suite that plants sign/transposition/index bugs in the boundary
blocks and requires the residual oracle to expose them.  The identity has
one sampled oracle, ``diffop.IbpOracle``, and one proof,
``diffop.ibp_symbol_residual``.  Lemma1 and the energy check run both, the
proof once per model: lemma1 with the operator's own adjoint and boundary
form, the energy check with the stored ones of the compiled system (so it
certifies what ``export`` writes).  Each mutation passes a corrupted
``form=`` or ``adjoint=`` to the sampled oracle.  All three families sample
the oracle through one loop, ``_residuals``, which builds one oracle per
seed key.  Reports are deterministic for a fixed seed; serialized reports
omit wall-clock timing so two runs with the same seed are byte-identical.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

from .build import assemble_phs, mass_matrix, stiffness_matrix
from .diffop import BoundaryForm, DiffOpMatrix, IbpOracle, ibp_symbol_residual, jet_blocks
from .exact import is_symmetric, mat_scale, transpose
from .models import (
    KinematicModel,
    builtin_model,
    builtin_names,
    random_poly,
    torsion_two_strain,
)

STATUS_PASS = "pass"
STATUS_FAIL = "fail"


@dataclass
class CheckResult:
    check_id: str
    subject: str
    status: str
    witness: Optional[str]
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.status != STATUS_FAIL


def _result(check_id, subject, ok, witness, started) -> CheckResult:
    return CheckResult(
        check_id=check_id,
        subject=subject,
        status=STATUS_PASS if ok else STATUS_FAIL,
        witness=witness,
        elapsed=time.perf_counter() - started,
    )


def _staged(check_id, subject, stages) -> CheckResult:
    """Run a check's stages in order: ``stages`` yields ``(ok, witness)``
    pairs and is not resumed after the first failing one, whose witness the
    result carries.  The clock starts before the first stage, so building a
    stage's inputs is timed too."""
    started = time.perf_counter()
    for ok, witness in stages:
        if not ok:
            return _result(check_id, subject, False, witness, started)
    return _result(check_id, subject, True, None, started)


def _residuals(key: str, op: DiffOpMatrix, domain, trials: int, form=None, adjoint=None):
    """Yield ``trials`` residuals of one ``IbpOracle``, built on the first
    ``next`` with ``form`` and ``adjoint``, each on fresh fields drawn from
    ``random.Random(key)``: ``v`` (``op.m`` fields), then ``w`` (``op.n``),
    of degree ``op.order + 2``.  The oracle encodes its matrices once; a
    trial flattens each field set once, differentiates it on the flat form
    and contracts."""
    oracle = IbpOracle(op, domain, form=form, adjoint=adjoint)
    rng = random.Random(key)  # string seeding is deterministic across processes (unlike hash())
    for _ in range(trials):
        v = [random_poly(rng, op.axes, op.order + 2) for _ in range(op.m)]
        w = [random_poly(rng, op.axes, op.order + 2) for _ in range(op.n)]
        yield oracle.residual(v, w)


# ---------------------------------------------------------------------------
# Adjoint/boundary identity
# ---------------------------------------------------------------------------


def check_lemma1(models: Sequence[KinematicModel], trials: int = 20, seed: int = 0) -> List[CheckResult]:
    """One result per (model, trial): the integration-by-parts residual must
    be exactly the rational zero, and the model's symbol identity
    (``ibp_symbol_residual``, computed once per model) must be zero.  A
    trial's ``elapsed`` times its draw and its residual; the first trial's
    also times building the model's ``IbpOracle``."""
    if trials < 1:
        raise ValueError(f"need at least one lemma1 trial, got {trials}")
    out = []
    for model in models:
        adjoint, form = model.op.formal_adjoint(), BoundaryForm(model.op)
        proof = _symbol_witness(model.op, form, adjoint)
        residuals = _residuals(f"{seed}:{model.name}", model.op, model.domain, trials, form, adjoint)
        for t in range(trials):
            started = time.perf_counter()  # times the draw of the fields too
            res = next(residuals)
            ok = res == 0 and proof is None
            witness = None if ok else f"residual {res}" + (f"; {proof}" if proof else "")
            out.append(
                _result(f"lemma1:{model.name}:trial{t + 1:02d}", model.name, ok, witness, started)
            )
    return out


def _symbol_witness(op: DiffOpMatrix, form: BoundaryForm, adjoint: DiffOpMatrix) -> Optional[str]:
    """None when ``ibp_symbol_residual`` is zero, else its first nonzero entry."""
    for p, row in enumerate(ibp_symbol_residual(op, form=form, adjoint=adjoint)):
        for q, entry in enumerate(row):
            if not entry.is_zero:
                return f"symbol residual [{p}][{q}] = {entry}"
    return None


# ---------------------------------------------------------------------------
# Energy structure
# ---------------------------------------------------------------------------


def check_energy_structure(sys, trials: int = 5, seed: int = 0) -> CheckResult:
    """The energy rate must collapse to the boundary pairing.

    Four exact ingredients are verified, in order: symmetry of M, M^-1 and
    K, equality of the stored adjoint with the recomputed formal adjoint, the
    symbol identity (``ibp_symbol_residual``) of the stored boundary form and
    adjoint, and the vanishing residual of the adjoint identity, taken with
    the same stored pair, on random co-energy fields, which runs the pairing
    kernel too.  With M^-1 and K symmetric, the energy rate of a state is
    ``volume_mismatch`` on its co-energies, so these settle the balance for
    every entry type, pi-tagged ones included.
    """
    if trials < 1:
        raise ValueError(f"need at least one energy trial, got {trials}")
    name = sys.model.name
    return _staged(f"energy:{name}", name, _energy_stages(sys, trials, seed))


def _energy_stages(sys, trials: int, seed: int):
    """The stages of ``check_energy_structure``, as ``_staged`` reads them."""
    for label, matrix in (("mass", sys.mass), ("inverse mass", sys.mass_inv), ("stiffness", sys.stiffness)):
        yield is_symmetric(matrix), f"{label} matrix is not symmetric"
    yield sys.op_adjoint == sys.op.formal_adjoint(), "stored adjoint differs from the formal adjoint"
    proof = _symbol_witness(sys.op, sys.boundary, sys.op_adjoint)
    yield proof is None, proof
    key = f"{seed}:energy:{sys.model.name}"
    for t, res in enumerate(_residuals(key, sys.op, sys.model.domain, trials, sys.boundary, sys.op_adjoint)):
        yield res == 0, f"trial {t + 1}: pairing residual {res}"


# ---------------------------------------------------------------------------
# Mutation suite
# ---------------------------------------------------------------------------


def _mutated_form(op: DiffOpMatrix, mutate: Callable[[BoundaryForm], None]) -> BoundaryForm:
    """A freshly built boundary form, with private copies of its axis
    matrices, corrupted by ``mutate``."""
    form = BoundaryForm(op)
    form.q_axes = [[row[:] for row in q] for q in form.q_axes]
    mutate(form)
    return form


def _scale_block(form: BoundaryForm, row, col, factor: int):
    """Scale jet block (``row``, ``col``) of every Q_a in place: negate it,
    or zero it."""
    rows, cols = form.block(row, col)
    for q in form.q_axes:
        for i in rows:
            for j in cols:
                q[i][j] *= factor


def _set_block(q, rows: range, cols: range, values):
    """Overwrite the block ``rows`` x ``cols`` of one Q_a with ``values``."""
    for i, row in zip(rows, values):
        for j, x in zip(cols, row):
            q[i][j] = x


_FIELD = (0, 0)  # the jet block of the underived field


def _mutations():
    """The planted bugs, as ``(id, model, form, adjoint)``: each corrupts
    exactly one of the boundary form and the adjoint (the other is None)."""
    timoshenko = builtin_model("timoshenko")
    rayleigh = builtin_model("rayleigh_beam")
    kirchhoff = builtin_model("kirchhoff_rayleigh")
    forms = [
        ("p-block-sign-flip", timoshenko, lambda f: _scale_block(f, _FIELD, _FIELD, -1)),
        ("w2-block-sign-flip", rayleigh, lambda f: _scale_block(f, _FIELD, (1, 1), -1)),
        ("v2-block-zeroed", rayleigh, lambda f: _scale_block(f, (1, 1), _FIELD, 0)),
        ("w2-order-index-shift", rayleigh, _shift_w2_to_first_order),
        ("p-block-transposed", kirchhoff, _transpose_p_block),
        ("alternating-sign-dropped", rayleigh, _drop_alternating_sign),
    ]
    return [(i, model, _mutated_form(model.op, mutate), None) for i, model, mutate in forms] + [
        ("adjoint-parity-dropped", timoshenko, None, _adjoint_without_parity(timoshenko.op))
    ]


def check_mutations(seed: int = 0) -> List[CheckResult]:
    """Plant known bug patterns and require a nonzero residual witness: the
    first of largest magnitude among four sampled residuals."""
    results: List[CheckResult] = []
    for mutation_id, model, form, adjoint in _mutations():
        started = time.perf_counter()
        key = f"{seed}:mutation:{mutation_id}"
        worst = max(_residuals(key, model.op, model.domain, 4, form, adjoint), key=abs)
        witness = f"detected with residual {worst}" if worst else "undetected: all residuals zero"
        results.append(_result(f"mutation:{mutation_id}", model.name, worst != 0, witness, started))
    return results


def _shift_w2_to_first_order(form: BoundaryForm):
    """Fill the W_2 slot, block (field, (1, k)) of Q_k, from the first-order
    coefficients instead of the second-order ones (a plausible indexing
    slip)."""
    for k, q in enumerate(form.q_axes, start=1):
        wrong = mat_scale(transpose(form.op.coeff(k, 1)), -1)
        _set_block(q, *form.block(_FIELD, (1, k)), wrong)


def _drop_alternating_sign(form: BoundaryForm):
    """Negate the column blocks (j, k) of odd j, undoing the (-1)^c of the
    quotient."""
    blocks = jet_blocks(form.op.order, form.op.ell)
    for row in blocks:
        for col in blocks:
            if col[0] % 2:
                _scale_block(form, row, col, -1)


def _adjoint_without_parity(op: DiffOpMatrix) -> DiffOpMatrix:
    """Transposed coefficients without the (-1)^i of the formal adjoint."""
    return DiffOpMatrix(
        op.n,
        op.m,
        op.axes,
        p0=transpose(op.p0),
        pk={(k, i): transpose(mat_) for (k, i), mat_ in op.pk.items()},
    )


def _transpose_p_block(form: BoundaryForm):
    op = form.op
    for k, q in enumerate(form.q_axes, start=1):
        # not transposed: the planted bug
        _set_block(q, *form.block(_FIELD, _FIELD), op.coeff(k, 1))


# ---------------------------------------------------------------------------
# Limits and reductions
# ---------------------------------------------------------------------------


def _submatrix(a, rows, cols):
    return [[a[i][j] for j in cols] for i in rows]


def _reddy_plate_to_mindlin():
    """Reddy plate with the third-order terms switched off is the first-order
    shear plate, block by block."""
    reddy0 = builtin_model("reddy_plate", {"alpha": 0})
    mindlin = builtin_model("mindlin_plate")
    m_r = mass_matrix(reddy0, require_spd=False)
    k_r = stiffness_matrix(reddy0, require_spd=False)
    m_m, k_m = mass_matrix(mindlin), stiffness_matrix(mindlin)
    yield _submatrix(m_r, range(3), range(3)) == m_m, "leading mass block differs"
    yield all(m_r[i][j] == 0 for i in range(5) for j in range(5) if i >= 3 or j >= 3), (
        "third-order mass rows/columns do not vanish"
    )
    yield _submatrix(k_r, range(5), range(5)) == k_m, "leading stiffness block differs"
    yield all(k_r[i][j] == 0 for i in range(8) for j in range(8) if i >= 5 or j >= 5), (
        "third-order stiffness rows/columns do not vanish"
    )
    yield _submatrix(reddy0.op.p0, range(5), range(3)) == mindlin.op.p0 and all(
        _submatrix(reddy0.op.coeff(k, 1), range(5), range(3)) == mindlin.op.coeff(k, 1) for k in (1, 2)
    ), "operator sub-block differs"


def _rayleigh_to_euler_bernoulli():
    """Dropping the rotary momentum of the slope-carrying beam and rescaling
    the strain yields the classical fourth-order bending beam."""
    ray = builtin_model("rayleigh_beam")
    eb = builtin_model("euler_bernoulli")
    m_ray, k_ray = mass_matrix(ray), stiffness_matrix(ray)
    m_eb, k_eb = mass_matrix(eb), stiffness_matrix(eb)
    reduced_op = DiffOpMatrix(1, 1, ray.op.axes, p0=_submatrix(ray.op.p0, [0], [1]),
                              pk={key: _submatrix(mat_, [0], [1]) for key, mat_ in ray.op.pk.items()})
    yield reduced_op == eb.op, "column-deleted operator is not the bending operator"
    yield _submatrix(m_ray, [1], [1]) == m_eb, "translational mass entry differs"
    yield [[4 * k_ray[0][0]]] == k_eb, f"strain rescaling failed: 4 * {k_ray[0][0]} != {k_eb[0][0]}"
    adjoint = eb.op.formal_adjoint()
    yield adjoint.pk == {(1, 2): [[Fraction(1)]]} and adjoint.p0 == [[Fraction(0)]], (
        "bending operator is not self-adjoint of order two"
    )


def _torsion_two_strain():
    """Two shear strains aggregate to the reduced torsion model through the
    polar moment identity I_p = I_t2 + I_t3 = 2 I_t."""
    torsion = builtin_model("torsion")
    two = torsion_two_strain()
    k_red = stiffness_matrix(torsion)
    k_two = stiffness_matrix(two)
    m_tor = mass_matrix(torsion)
    g = torsion.params["G"]
    i_t3, i_t2 = k_two[0][0] / g, k_two[1][1] / g
    i_p = m_tor[0][0] / torsion.rho
    yield i_t2 == i_t3, f"transverse moments differ: {i_t2} vs {i_t3}"
    yield i_p == i_t2 + i_t3 and i_p == 2 * i_t2, f"polar moment {i_p} is not twice {i_t2}"
    yield k_red[0][0] == k_two[0][0] + k_two[1][1] and k_two[0][1] == 0, (
        "aggregated stiffness does not match the reduced model"
    )


def check_limits_and_reductions() -> List[CheckResult]:
    return [
        _staged("reduction:reddy-plate-to-mindlin", "reddy_plate", _reddy_plate_to_mindlin()),
        _staged("reduction:rayleigh-to-euler-bernoulli", "rayleigh_beam", _rayleigh_to_euler_bernoulli()),
        _staged("reduction:torsion-two-strain", "torsion", _torsion_two_strain()),
    ]


# ---------------------------------------------------------------------------
# Full run and serialization
# ---------------------------------------------------------------------------


def run_all(seed: int = 0, model_names: Optional[Sequence[str]] = None, trials: int = 20) -> List[CheckResult]:
    """Every check family over ``model_names`` (None: all builtins); an empty
    or repeating list is refused, since it would run other checks than named."""
    names = builtin_names() if model_names is None else sorted(model_names)
    if not names:
        raise ValueError("model_names is empty: name at least one model, or pass None for all")
    repeated = sorted({a for a, b in zip(names, names[1:]) if a == b})
    if repeated:
        raise ValueError(f"model_names repeats {', '.join(repeated)}")
    models = [builtin_model(name) for name in names]
    results: List[CheckResult] = []
    results += check_lemma1(models, trials=trials, seed=seed)
    for model in models:
        sys = assemble_phs(model)
        results.append(check_energy_structure(sys, seed=seed))
    reduction_models = {"torsion", "reddy_plate", "rayleigh_beam", "mindlin_plate", "euler_bernoulli"}
    if model_names is None or reduction_models & set(names):
        results += check_limits_and_reductions()
    results += check_mutations(seed=seed)
    results.sort(key=lambda r: r.check_id)
    return results


def report_json(results: Sequence[CheckResult], seed: int) -> str:
    """Deterministic serialization (timing deliberately omitted)."""
    payload = {
        "format": "phs-forge-verify-report",
        "version": 1,
        "seed": seed,
        "total": len(results),
        "failures": sum(1 for r in results if not r.ok),
        "checks": [
            {
                "id": r.check_id,
                "subject": r.subject,
                "status": r.status,
                "witness": r.witness,
            }
            for r in sorted(results, key=lambda r: r.check_id)
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
