"""Executable structural checks with machine-readable reports.

Everything here is a falsification attempt run in exact arithmetic: the
adjoint/boundary identity on random polynomial fields, the energy-rate
collapse to boundary terms, the first-order limits between models, and a
mutation suite that plants sign/transposition/index bugs in the boundary
blocks and requires the residual oracle to expose them.  There is one oracle:
the energy check and all seven mutations run ``diffop.ibp_residual``, the
energy check with the stored adjoint and boundary form of the compiled system
(so it certifies what ``export`` writes), each mutation with a corrupted
``form=`` or ``adjoint=``.  Reports are deterministic for a fixed seed;
serialized reports omit wall-clock timing so two runs with the same seed are
byte-identical.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

from .build import assemble_phs, mass_matrix, stiffness_matrix
from .diffop import (
    BoundaryForm,
    DiffOpMatrix,
    boundary_pairing,
    boundary_pairing_sum_form,
    ibp_residual,
    jet_layout,
    volume_mismatch,
)
from .exact import is_symmetric, mat_add, mat_scale, transpose
from .models import (
    KinematicModel,
    builtin_model,
    builtin_names,
    random_poly,
    torsion_two_strain,
)
from .poly import dot, mat_apply

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_SKIPPED = "skipped"


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
        witness=None if ok else witness,
        elapsed=time.perf_counter() - started,
    )


def _random_fields(rng: random.Random, op: DiffOpMatrix, degree: int):
    v = [random_poly(rng, op.axes, degree) for _ in range(op.m)]
    w = [random_poly(rng, op.axes, degree) for _ in range(op.n)]
    return v, w


# ---------------------------------------------------------------------------
# Adjoint/boundary identity
# ---------------------------------------------------------------------------


def check_lemma1(models: Sequence[KinematicModel], trials: int = 20, seed: int = 0) -> List[CheckResult]:
    """One result per (model, trial): the integration-by-parts residual must
    be exactly the rational zero."""
    if trials < 1:
        raise ValueError(f"need at least one lemma1 trial, got {trials}")
    out = []
    for model in models:
        # string seeding is deterministic across processes (unlike hash())
        rng = random.Random(f"{seed}:{model.name}")
        for t in range(trials):
            started = time.perf_counter()
            v, w = _random_fields(rng, model.op, model.order + 2)
            lhs = volume_mismatch(model.op, v, w, model.domain)
            res = lhs - boundary_pairing(model.op, v, w, model.domain)
            sum_form = lhs - boundary_pairing_sum_form(model.op, v, w, model.domain)
            ok = res == 0 and sum_form == 0
            witness = None if ok else f"residual {res} (sum form {sum_form})"
            out.append(
                _result(f"lemma1:{model.name}:trial{t + 1:02d}", model.name, ok, witness, started)
            )
    return out


# ---------------------------------------------------------------------------
# Energy structure
# ---------------------------------------------------------------------------


def check_energy_structure(sys, trials: int = 5, seed: int = 0) -> CheckResult:
    """The energy rate must collapse to the boundary pairing.

    Three exact ingredients are verified: symmetry of M and K, equality of
    the stored adjoint with the recomputed formal adjoint, and the vanishing
    residual of the adjoint identity, taken with the stored adjoint and
    boundary form, on random co-energy fields.  When all
    matrix entries are rational the variational balance is additionally
    integrated directly from the quadratic energy (this is the path that
    convicts an asymmetric stiffness matrix).
    """
    started = time.perf_counter()
    name = sys.model.name
    rng = random.Random(f"{seed}:energy:{name}")
    if not is_symmetric(sys.mass):
        return _result(f"energy:{name}", name, False, "mass matrix is not symmetric", started)
    if not is_symmetric(sys.stiffness):
        return _result(
            f"energy:{name}", name, False, "stiffness matrix is not symmetric", started
        )
    if sys.op_adjoint != sys.op.formal_adjoint():
        return _result(
            f"energy:{name}", name, False, "stored adjoint differs from the formal adjoint", started
        )
    degree = sys.op.order + 2
    rational = all(
        isinstance(x, Fraction) for row in (sys.mass_inv + sys.stiffness) for x in row
    )
    for t in range(trials):
        e_eps, e_p = _random_fields(rng, sys.op, degree)
        res = ibp_residual(
            sys.op, e_eps, e_p, sys.model.domain, form=sys.boundary, adjoint=sys.op_adjoint
        )
        if res != 0:
            return _result(
                f"energy:{name}", name, False, f"trial {t + 1}: pairing residual {res}", started
            )
        if rational:
            res2 = _variational_balance_residual(sys, rng, degree)
            if res2 != 0:
                return _result(
                    f"energy:{name}",
                    name,
                    False,
                    f"trial {t + 1}: energy rate minus boundary power = {res2}",
                    started,
                )
    return _result(f"energy:{name}", name, True, None, started)


def _variational_balance_residual(sys, rng: random.Random, degree: int) -> Fraction:
    """dH/dt - boundary power for random polynomial states, exactly."""
    model = sys.model
    p = [random_poly(rng, model.dist, degree) for _ in range(sys.n)]
    eps = [random_poly(rng, model.dist, degree) for _ in range(sys.m)]

    def sym(a):
        return mat_scale(mat_add(a, transpose(a)), Fraction(1, 2))

    e_p = mat_apply(sys.mass_inv, p)
    e_eps = mat_apply(sys.stiffness, eps)
    p_dot = [-f for f in sys.op_adjoint.apply(e_eps)]
    eps_dot = sys.op.apply(e_p)
    grad_p = mat_apply(sym(sys.mass_inv), p)
    grad_eps = mat_apply(sym(sys.stiffness), eps)
    rate = model.domain.integrate(dot(p_dot, grad_p) + dot(eps_dot, grad_eps))
    return rate - boundary_pairing(sys.op, e_eps, e_p, model.domain, form=sys.boundary)


# ---------------------------------------------------------------------------
# Mutation suite
# ---------------------------------------------------------------------------


def _worst_residual(model: KinematicModel, rng: random.Random, form=None, adjoint=None,
                    trials: int = 4) -> Fraction:
    """Largest-magnitude ``ibp_residual`` seen under a corrupted boundary form
    or adjoint."""
    worst = Fraction(0)
    for _ in range(trials):
        v, w = _random_fields(rng, model.op, model.order + 2)
        res = ibp_residual(model.op, v, w, model.domain, form=form, adjoint=adjoint)
        if abs(res) > abs(worst):
            worst = res
    return worst


def _mutated_form(op: DiffOpMatrix, mutate: Callable[[BoundaryForm], None]) -> BoundaryForm:
    """A freshly built boundary form, with private copies of its axis
    matrices, corrupted by ``mutate``."""
    form = BoundaryForm(op)
    form.q_axes = [[row[:] for row in q] for q in form.q_axes]
    mutate(form)
    return form


def _negate_block(form: BoundaryForm, rows, cols):
    for q in form.q_axes:
        for i in rows:
            for j in cols:
                q[i][j] = -q[i][j]


def check_mutations(seed: int = 0) -> List[CheckResult]:
    """Plant known bug patterns and require a nonzero residual witness."""
    timoshenko = builtin_model("timoshenko")
    rayleigh = builtin_model("rayleigh_beam")
    kirchhoff = builtin_model("kirchhoff_rayleigh")
    results: List[CheckResult] = []

    def run(mutation_id: str, model: KinematicModel, mutate=None, adjoint=None):
        started = time.perf_counter()
        rng = random.Random(f"{seed}:mutation:{mutation_id}")
        form = None if mutate is None else _mutated_form(model.op, mutate)
        worst = _worst_residual(model, rng, form=form, adjoint=adjoint)
        ok = worst != 0
        res = _result(
            f"mutation:{mutation_id}", model.name, ok, "undetected: all residuals zero", started
        )
        if ok:
            res.witness = f"detected with residual {worst}"
        results.append(res)

    n, m = timoshenko.n, timoshenko.m
    rn, rm = rayleigh.n, rayleigh.m
    run("p-block-sign-flip", timoshenko, lambda f: _negate_block(f, range(n), range(m)))
    run("w2-block-sign-flip", rayleigh, lambda f: _negate_block(f, range(rn), range(rm, rm + rm)))
    run("v2-block-zeroed", rayleigh, lambda f: _zero_block(f, range(rn, rn + rn), range(rm)))
    run("w2-order-index-shift", rayleigh, _shift_w2_to_first_order)
    run("p-block-transposed", kirchhoff, _transpose_p_block)
    run("adjoint-parity-dropped", timoshenko, adjoint=_adjoint_without_parity(timoshenko.op))
    run("alternating-sign-dropped", rayleigh, _drop_alternating_sign)
    return results


def _zero_block(form: BoundaryForm, rows, cols):
    for q in form.q_axes:
        for i in rows:
            for j in cols:
                q[i][j] = Fraction(0)


def _shift_w2_to_first_order(form: BoundaryForm):
    """Fill the W_2 slot from the first-order coefficients instead of the
    second-order ones (a plausible indexing slip)."""
    op = form.op
    n, m = op.n, op.m
    for k, q in enumerate(form.q_axes, start=1):
        wrong = transpose(op.coeff(k, 1))
        for i in range(n):
            for j in range(m):
                q[i][m + (k - 1) * m + j] = -wrong[i][j]


def _drop_alternating_sign(form: BoundaryForm):
    """Negate the odd column blocks, undoing the (-1)^c of the jet layout."""
    op = form.op
    block = op.m * op.ell
    for c in range(1, max(op.order, 1), 2):
        start = jet_layout(op.m, c, op.ell)
        _negate_block(form, range(form.rows), range(start, start + block))


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
    n, m = op.n, op.m
    if n != m:
        raise ValueError("transposition mutation needs a square coefficient block")
    for k, q in enumerate(form.q_axes, start=1):
        wrong = op.coeff(k, 1)  # not transposed: the planted bug
        for i in range(n):
            for j in range(m):
                q[i][j] = wrong[i][j]


# ---------------------------------------------------------------------------
# Limits and reductions
# ---------------------------------------------------------------------------


def _submatrix(a, rows, cols):
    return [[a[i][j] for j in cols] for i in rows]


def check_limits_and_reductions(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []

    # Reddy plate with the third-order terms switched off is the first-order
    # shear plate, block by block.
    started = time.perf_counter()
    reddy0 = builtin_model("reddy_plate", {"alpha": 0})
    mindlin = builtin_model("mindlin_plate")
    m_r = mass_matrix(reddy0, require_spd=False)
    k_r = stiffness_matrix(reddy0, require_spd=False)
    m_m = mass_matrix(mindlin)
    k_m = stiffness_matrix(mindlin)
    ok = _submatrix(m_r, range(3), range(3)) == m_m
    detail = None if ok else "leading mass block differs"
    if ok:
        tail = [m_r[i][j] for i in range(5) for j in range(5) if i >= 3 or j >= 3]
        ok = all(x == 0 for x in tail)
        detail = None if ok else "third-order mass rows/columns do not vanish"
    if ok:
        ok = _submatrix(k_r, range(5), range(5)) == k_m
        detail = None if ok else "leading stiffness block differs"
    if ok:
        tail = [k_r[i][j] for i in range(8) for j in range(8) if i >= 5 or j >= 5]
        ok = all(x == 0 for x in tail)
        detail = None if ok else "third-order stiffness rows/columns do not vanish"
    if ok:
        sub_p0 = _submatrix(reddy0.op.p0, range(5), range(3))
        ok = sub_p0 == mindlin.op.p0 and all(
            _submatrix(reddy0.op.coeff(k, 1), range(5), range(3)) == mindlin.op.coeff(k, 1)
            for k in (1, 2)
        )
        detail = None if ok else "operator sub-block differs"
    out.append(_result("reduction:reddy-plate-to-mindlin", "reddy_plate", ok, detail, started))

    # Dropping the rotary momentum of the slope-carrying beam and rescaling
    # the strain yields the classical fourth-order bending beam.
    started = time.perf_counter()
    ray = builtin_model("rayleigh_beam")
    eb = builtin_model("euler_bernoulli")
    m_ray = mass_matrix(ray)
    k_ray = stiffness_matrix(ray)
    m_eb = mass_matrix(eb)
    k_eb = stiffness_matrix(eb)
    reduced_op = DiffOpMatrix(
        1,
        1,
        ray.op.axes,
        p0=_submatrix(ray.op.p0, range(1), [1]),
        pk={(k, i): _submatrix(mat_, range(1), [1]) for (k, i), mat_ in ray.op.pk.items()},
    )
    ok = reduced_op == eb.op
    detail = None if ok else "column-deleted operator is not the bending operator"
    if ok:
        ok = _submatrix(m_ray, [1], [1]) == m_eb
        detail = None if ok else "translational mass entry differs"
    if ok:
        ok = [[4 * k_ray[0][0]]] == k_eb
        detail = None if ok else (
            f"strain rescaling failed: 4 * {k_ray[0][0]} != {k_eb[0][0]}"
        )
    if ok:
        ok = eb.op.formal_adjoint().pk == {(1, 2): [[Fraction(1)]]} and eb.op.formal_adjoint().p0 == [
            [Fraction(0)]
        ]
        detail = None if ok else "bending operator is not self-adjoint of order two"
    out.append(_result("reduction:rayleigh-to-euler-bernoulli", "rayleigh_beam", ok, detail, started))

    # Two shear strains aggregate to the reduced torsion model through the
    # polar moment identity I_p = I_t2 + I_t3 = 2 I_t.
    started = time.perf_counter()
    torsion = builtin_model("torsion")
    two = torsion_two_strain()
    k_red = stiffness_matrix(torsion)
    k_two = stiffness_matrix(two)
    m_tor = mass_matrix(torsion)
    g = torsion.params["G"]
    rho = torsion.rho
    i_t3 = k_two[0][0] / g
    i_t2 = k_two[1][1] / g
    i_p = m_tor[0][0] / rho
    ok = i_t2 == i_t3
    detail = None if ok else f"transverse moments differ: {i_t2} vs {i_t3}"
    if ok:
        ok = i_p == i_t2 + i_t3 and i_p == 2 * i_t2
        detail = None if ok else f"polar moment {i_p} is not twice {i_t2}"
    if ok:
        ok = k_red[0][0] == k_two[0][0] + k_two[1][1] and k_two[0][1] == 0
        detail = None if ok else "aggregated stiffness does not match the reduced model"
    out.append(_result("reduction:torsion-two-strain", "torsion", ok, detail, started))
    return out


# ---------------------------------------------------------------------------
# Full run and serialization
# ---------------------------------------------------------------------------


def run_all(seed: int = 0, model_names: Optional[Sequence[str]] = None, trials: int = 20) -> List[CheckResult]:
    names = sorted(model_names) if model_names else builtin_names()
    models = [builtin_model(name) for name in names]
    results: List[CheckResult] = []
    results += check_lemma1(models, trials=trials, seed=seed)
    for model in models:
        sys = assemble_phs(model, validate=False)
        results.append(check_energy_structure(sys, seed=seed))
    reduction_models = {"torsion", "reddy_plate", "rayleigh_beam", "mindlin_plate", "euler_bernoulli"}
    if model_names is None or reduction_models & set(names):
        results += check_limits_and_reductions(seed=seed)
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
