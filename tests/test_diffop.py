"""Operator calculus: adjoints, jets, boundary forms, and the exact
integration-by-parts identity that anchors everything else."""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phs_forge.diffop import (
    BoundaryForm,
    DiffOpMatrix,
    DomainSpec,
    IbpOracle,
    boundary_pairing_sum_form,
    derivative_symbols,
    ibp_residual,
    ibp_symbol_residual,
    jet,
    jet_layout,
    volume_mismatch,
    _flatten,
    _functional,
)
from phs_forge.exact import ExactError, mat_scale, transpose
from phs_forge.models import builtin_model, builtin_names, random_poly
from phs_forge.poly import Poly, dot, mat_apply
from phs_forge.verify import _mutations

X1 = ("z1",)
X12 = ("z1", "z2")
X123 = ("z1", "z2", "z3")


def timoshenko_op():
    return DiffOpMatrix(2, 2, X1, p0=[[0, 0], [-1, 0]], pk={(1, 1): [[1, 0], [0, 1]]})


def rayleigh_op():
    return DiffOpMatrix(1, 2, X1, pk={(1, 1): [[1, 0]], (1, 2): [[0, 1]]})


def test_formal_adjoint_timoshenko():
    adj = timoshenko_op().formal_adjoint()
    # [[-d1, -1], [0, -d1]]
    assert adj.p0 == [[F(0), F(-1)], [F(0), F(0)]]
    assert adj.pk == {(1, 1): [[F(-1), F(0)], [F(0), F(-1)]]}
    assert str(adj.symbols()[0][0]) == "-d1"
    assert str(adj.symbols()[0][1]) == "-1"
    assert str(adj.symbols()[1][1]) == "-d1"


def test_formal_adjoint_constant_operator_is_transpose():
    op = DiffOpMatrix(2, 3, X1, p0=[[1, 2, 0], [0, -1, 5]])
    adj = op.formal_adjoint()
    assert adj.p0 == [[F(1), F(0)], [F(2), F(-1)], [F(0), F(5)]]
    assert adj.pk == {}
    assert adj.order == 0


def test_formal_adjoint_rayleigh():
    adj = rayleigh_op().formal_adjoint()
    # [-d1; d1^2]
    assert adj.pk[(1, 1)] == [[F(-1)], [F(0)]]
    assert adj.pk[(1, 2)] == [[F(0)], [F(1)]]
    assert str(adj.symbols()[0][0]) == "-d1"
    assert str(adj.symbols()[1][0]) == "d1^2"


def test_adjoint_involution_on_all_builtins():
    for name in (
        "truss",
        "string",
        "torsion",
        "timoshenko",
        "reddy_beam",
        "rayleigh_beam",
        "euler_bernoulli",
        "elasticity2d",
        "elasticity3d",
        "mindlin_plate",
        "reddy_plate",
        "kirchhoff_rayleigh",
    ):
        op = builtin_model(name).op
        assert op.formal_adjoint().formal_adjoint() == op, name


@pytest.mark.parametrize("name", builtin_names())
def test_symbols_read_back_to_the_operator(name):
    op = builtin_model(name).op
    for f in (op, op.formal_adjoint()):
        rows = f.symbols()
        assert [p.coords for row in rows for p in row] == [derivative_symbols(f.ell)] * (f.m * f.n)
        assert DiffOpMatrix.from_symbols(rows, f.axes) == f


def test_symbols_of_a_hand_operator():
    d1, d2 = (Poly.variable(("d1", "d2"), s) for s in ("d1", "d2"))
    pk = {(1, 1): [[1, 0], [0, 0]], (2, 2): [[0, 3], [0, 0]]}
    op = DiffOpMatrix(2, 2, X12, p0=[[0, -1], [0, 0]], pk=pk)
    assert op.symbols() == [[d1, -1 + 3 * d2**2], [0 * d1, 0 * d1]]


def test_apply_timoshenko_hand_example():
    psi = Poly.variable(X1, "z1") ** 2
    w = Poly.variable(X1, "z1") ** 3
    out = timoshenko_op().apply([psi, w])
    z1 = Poly.variable(X1, "z1")
    assert out[0] == 2 * z1
    assert out[1] == 2 * z1**2


def test_apply_identity_p0():
    op = DiffOpMatrix(2, 2, X1, p0=[[1, 0], [0, 1]])
    fields = [Poly.variable(X1, "z1") ** 2, Poly.constant(X1, 3)]
    assert op.apply(fields) == fields


def test_apply_truss_gradient():
    op = DiffOpMatrix(1, 1, X1, pk={(1, 1): [[1]]})
    assert op.apply([Poly.variable(X1, "z1")]) == [Poly.constant(X1, 1)]


def test_jet_first_order_is_identity():
    fields = [Poly.variable(X1, "z1") ** 2]
    assert jet(fields, 1, X1) == fields


def test_jet_second_order_1d():
    z1 = Poly.variable(X1, "z1")
    out = jet([z1**2], 2, X1)
    assert out == [z1**2, 2 * z1]


def test_jet_second_order_2d_ordering():
    z1 = Poly.variable(X12, "z1")
    z2 = Poly.variable(X12, "z2")
    out = jet([z1 * z2], 2, X12)
    assert out == [z1 * z2, z2, z1]


def _jet_per_block(fields, order, axes):
    """[w; d1 w .. dl w; d1^2 w .. dl^2 w; ...] up to ``order - 1``, each
    block differentiated from the fields afresh: the reference for ``jet``."""
    out = list(fields)
    for j in range(1, order):
        for name in axes:
            for f in fields:
                for _ in range(j):
                    f = f.diff(name)
                out.append(f)
    return out


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_jet_matches_a_per_block_reference(order, ell):
    axes = ("z1", "z2", "z3")[:ell]
    rng = random.Random(f"jet-{order}-{ell}")
    fields = [random_poly(rng, axes, 5) for _ in range(2)]
    out = jet(fields, order, axes)
    assert out == _jet_per_block(fields, order, axes)
    assert len(out) == jet_layout(2, order, ell)


def test_jet_layout_counts():
    assert jet_layout(2, 1, 1) == 2
    assert jet_layout(2, 2, 1) == 4
    assert jet_layout(1, 2, 2) == 3
    assert jet_layout(3, 2, 2) == 9


def test_boundary_form_shape_law_all_builtins():
    for name in (
        "truss",
        "string",
        "torsion",
        "timoshenko",
        "reddy_beam",
        "rayleigh_beam",
        "euler_bernoulli",
        "elasticity2d",
        "elasticity3d",
        "mindlin_plate",
        "reddy_plate",
        "kirchhoff_rayleigh",
    ):
        model = builtin_model(name)
        form = BoundaryForm(model.op)
        n, m, ell = model.n, model.m, model.ell
        order = max(model.order, 1)
        assert form.rows == n + (order - 1) * n * ell, name
        assert form.cols == m + (order - 1) * m * ell, name


def test_corollary_collapse_first_order():
    op = timoshenko_op()
    form = BoundaryForm(op)
    # first order: the whole form is its P block, Pk(1)^T, the identity for
    # the Timoshenko coefficients; the face with normal -e1 carries -Q_1
    assert form.q_axes == [transpose(op.coeff(1, 1))]
    assert form.q_axes[0] == [[F(1), F(0)], [F(0), F(1)]]
    assert mat_scale(form.q_axes[0], F(-1)) == [[F(-1), F(0)], [F(0), F(-1)]]


def test_reddy_plate_boundary_matrix_golden():
    model = builtin_model("reddy_plate")
    form = BoundaryForm(model.op)
    n1, n2 = form.q_axes  # first order: each Q_k is its P block

    def row(mat, i):
        return [int(x) for x in mat[i]]

    # rows follow (n1, 0, n2, ...), (0, n2, n1, ...), shear, then the
    # third-order bending pattern
    assert row(n1, 0) == [1, 0, 0, 0, 0, 0, 0, 0]
    assert row(n2, 0) == [0, 0, 1, 0, 0, 0, 0, 0]
    assert row(n1, 1) == [0, 0, 1, 0, 0, 0, 0, 0]
    assert row(n2, 1) == [0, 1, 0, 0, 0, 0, 0, 0]
    assert row(n1, 2) == [0, 0, 0, 1, 0, 0, 0, 0]
    assert row(n2, 2) == [0, 0, 0, 0, 1, 0, 0, 0]
    assert row(n1, 3) == [0, 0, 0, 0, 0, 1, 0, 0]
    assert row(n2, 3) == [0, 0, 0, 0, 0, 0, 0, 1]
    assert row(n1, 4) == [0, 0, 0, 0, 0, 0, 0, 1]
    assert row(n2, 4) == [0, 0, 0, 0, 0, 0, 1, 0]


def test_mindlin_boundary_matrix_golden():
    model = builtin_model("mindlin_plate")
    form = BoundaryForm(model.op)
    n1, n2 = form.q_axes  # first order: each Q_k is its P block
    assert [int(x) for x in n1[0]] == [1, 0, 0, 0, 0]
    assert [int(x) for x in n2[0]] == [0, 0, 1, 0, 0]
    assert [int(x) for x in n1[1]] == [0, 0, 1, 0, 0]
    assert [int(x) for x in n2[1]] == [0, 1, 0, 0, 0]
    assert [int(x) for x in n1[2]] == [0, 0, 0, 1, 0]
    assert [int(x) for x in n2[2]] == [0, 0, 0, 0, 1]


def test_rayleigh_boundary_pairing_matches_hand_expression():
    """Endpoint pairing must equal e_p1*e + d1 e_p2 * e - e_p2 * d1 e."""
    op = rayleigh_op()
    dom = DomainSpec.interval(0, 1)
    rng = random.Random(17)
    e_p = [random_poly(rng, X1, 3) for _ in range(2)]
    e_eps = [random_poly(rng, X1, 3)]
    got = IbpOracle(op, dom).boundary(e_eps, e_p)

    z1p1, z1p2 = e_p
    e = e_eps[0]
    expr = z1p1 * e + z1p2.diff("z1") * e - z1p2 * e.diff("z1")
    expected = expr.eval({"z1": F(1)}) - expr.eval({"z1": F(0)})
    assert got == expected


def test_kirchhoff_rayleigh_boundary_pairing_matches_hand_expression():
    """Second-order 2D pairing: on each edge the integrand must reduce to

        e_p1 n1 e3 + e_p2 n2 e3 - e_p3 (n1 d1 e1 + n2 d2 e2)
        + d1 e_p3 n1 e1 + d2 e_p3 n2 e2
    """
    model = builtin_model("kirchhoff_rayleigh")
    op, dom = model.op, model.domain
    rng = random.Random(71)
    e_p = [random_poly(rng, X12, 3) for _ in range(3)]
    e_eps = [random_poly(rng, X12, 3) for _ in range(3)]
    got = IbpOracle(op, dom).boundary(e_eps, e_p)

    p1, p2, p3 = e_p
    e1, e2, e3 = e_eps
    expected = F(0)
    for a, (n1, n2) in enumerate([(1, 0), (0, 1)]):
        for sign, value in zip((-1, 1), dom.bounds[a]):
            integrand = (
                n1 * (p1 * e3) + n2 * (p2 * e3)
                - p3 * (n1 * e1.diff("z1") + n2 * e2.diff("z2"))
                + n1 * (p3.diff("z1") * e1) + n2 * (p3.diff("z2") * e2)
            )
            expected += _face_integral(sign * integrand, dom, a, value)
    assert got == expected


def test_ibp_residual_zero_fields_trivial():
    op = timoshenko_op()
    dom = DomainSpec.interval(0, 1)
    v = [Poly.zero(X1), Poly.zero(X1)]
    w = [Poly.variable(X1, "z1"), Poly.constant(X1, 2)]
    assert ibp_residual(op, v, w, dom) == 0


@pytest.mark.parametrize("name", ["timoshenko", "rayleigh_beam", "kirchhoff_rayleigh"])
def test_ibp_residual_exact_zero_random_fields(name):
    model = builtin_model(name)
    rng = random.Random(f"ibp:{name}")
    for _ in range(10):
        v = [random_poly(rng, model.dist, model.order + 2) for _ in range(model.m)]
        w = [random_poly(rng, model.dist, model.order + 2) for _ in range(model.n)]
        assert ibp_residual(model.op, v, w, model.domain) == 0


def test_sum_form_equals_assembled_form():
    for name in ("rayleigh_beam", "kirchhoff_rayleigh", "mindlin_plate"):
        model = builtin_model(name)
        rng = random.Random(f"sum:{name}")
        for _ in range(5):
            v = [random_poly(rng, model.dist, model.order + 2) for _ in range(model.m)]
            w = [random_poly(rng, model.dist, model.order + 2) for _ in range(model.n)]
            assert IbpOracle(model.op, model.domain).boundary(v, w) == boundary_pairing_sum_form(
                model.op, v, w, model.domain
            )


def _is_zero_matrix(rows):
    return all(p.is_zero for row in rows for p in row)


@pytest.mark.parametrize("name", builtin_names())
def test_ibp_symbol_residual_is_zero_on_every_builtin(name):
    """Lemma 1 proved as a polynomial identity."""
    op = builtin_model(name).op
    rows = ibp_symbol_residual(op)
    assert (len(rows), len(rows[0])) == (op.n, op.m)
    assert _is_zero_matrix(rows)


def test_ibp_symbol_residual_without_a_boundary_form_is_the_symbol_difference():
    """With every Q_a zeroed the residual is F(eta)^T - F*(zeta) itself:
    F = [d1, d1^2] gives [eta + zeta, eta^2 - zeta^2] in dw1 (eta), dv1 (zeta)."""
    op = rayleigh_op()
    form = BoundaryForm(op)
    form.q_axes = [[[F(0)] * form.cols for _ in range(form.rows)]]
    rows = ibp_symbol_residual(op, form=form)
    dw, dv = (Poly.variable(("dw1", "dv1"), s) for s in ("dw1", "dv1"))
    assert rows == [[dw + dv], [dw**2 - dv**2]]


def test_ibp_symbol_residual_refuses_a_mismatched_form_or_adjoint():
    op = rayleigh_op()
    with pytest.raises(ExactError, match="does not match the operator"):
        ibp_symbol_residual(op, form=BoundaryForm(timoshenko_op()))
    with pytest.raises(ExactError, match="does not match the operator"):
        ibp_symbol_residual(op, adjoint=op)


def test_skew_block_volume_terms_are_pure_boundary():
    """For J = [[0, -F*], [F, 0]] the symmetric part of the pairing is all
    boundary: instantiating the residual on both off-diagonal blocks."""
    model = builtin_model("timoshenko")
    rng = random.Random(4)
    e1p = [random_poly(rng, X1, 3) for _ in range(2)]
    e1e = [random_poly(rng, X1, 3) for _ in range(2)]
    lhs = volume_mismatch(model.op, e1e, e1p, model.domain)
    assert lhs == IbpOracle(model.op, model.domain).boundary(e1e, e1p)


def test_domain_requires_nonempty_ranges():
    with pytest.raises(Exception):
        DomainSpec.interval(1, 1)


def test_domain_refuses_duplicate_axes():
    # a repeated axis used to be integrated twice: z1^2 over it gave 2/3
    with pytest.raises(ExactError, match="duplicate axis names"):
        DomainSpec(("z1", "z1"), ((0, 1), (0, 2)))


def test_domain_refuses_float_bounds_at_construction():
    with pytest.raises(ExactError, match="floats are not exact"):
        DomainSpec(("z1",), ((0, 0.5),))
    with pytest.raises(ExactError, match="floats are not exact"):
        DomainSpec.rectangle(0, 1, 0.0, 1)


def test_domain_stores_every_bound_as_a_fraction():
    dom = DomainSpec(("z1", "z2"), [(0, 1), ("-1/2", F(3, 4))])
    assert dom.bounds == ((F(0), F(1)), (F(-1, 2), F(3, 4)))
    assert all(type(x) is F for pair in dom.bounds for x in pair)
    assert dom.axes == ("z1", "z2")


def test_operator_order_is_tight():
    op = DiffOpMatrix(1, 1, X1, pk={(1, 1): [[1]], (1, 2): [[0]]})
    assert op.order == 1


# ---------------------------------------------------------------------------
# Property: the oracle holds for random operators, and its form=/adjoint=
# keywords are no-ops when given the operator's own form and adjoint
# ---------------------------------------------------------------------------

SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def operators(draw, ell=None, m=None, n=None):
    """A random operator; ``ell``, ``m`` and ``n`` are drawn unless given."""
    ell = draw(st.integers(1, 3)) if ell is None else ell
    m = draw(st.integers(1, 2)) if m is None else m
    n = draw(st.integers(1, 2)) if n is None else n
    order = draw(st.integers(0, 3))

    def matrix():
        return draw(st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=m, max_size=m))

    keys = [(k, i) for k in range(1, ell + 1) for i in range(1, order + 1)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=3)) if keys else []
    axes = ("z1", "z2", "z3")[:ell]
    return DiffOpMatrix(m, n, axes, p0=matrix(), pk={key: matrix() for key in chosen})


@st.composite
def fields(draw, axes, count, degree, coeffs=SMALL):
    exps = st.tuples(*[st.integers(0, degree)] * len(axes)).filter(lambda e: sum(e) <= degree)
    return [Poly(axes, draw(st.dictionaries(exps, coeffs, max_size=4))) for _ in range(count)]


@st.composite
def domains(draw, axes):
    lo = st.sampled_from([F(-1), F(0), F(1, 2)])
    length = st.sampled_from([F(1, 3), F(1), F(2)])
    bounds = []
    for _ in axes:
        a = draw(lo)
        bounds.append((a, a + draw(length)))
    return DomainSpec(axes, tuple(bounds))


def _perturbed_form(form, rng):
    """``form`` with a random rational added to every entry of every Q_a."""
    perturbed = BoundaryForm(form.op)
    perturbed.q_axes = [
        [[x + F(rng.randint(-3, 3), rng.randint(1, 3)) for x in row] for row in q] for q in form.q_axes
    ]
    return perturbed


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ibp_oracle_properties_on_random_operators(data):
    op = data.draw(operators())
    degree = op.order + 1
    v = data.draw(fields(op.axes, op.m, degree))
    w = data.draw(fields(op.axes, op.n, degree))
    dom = data.draw(domains(op.axes))
    res = ibp_residual(op, v, w, dom)
    assert res == 0
    assert _is_zero_matrix(ibp_symbol_residual(op))
    own = IbpOracle(op, dom)
    assert own.boundary(v, w) == boundary_pairing_sum_form(op, v, w, dom)
    assert IbpOracle(op, dom, form=BoundaryForm(op), adjoint=op.formal_adjoint()).residual(v, w) == res

    # one flux per axis equals the face-by-face sum, for the operator's own
    # form and for a perturbed one (same function, not only both zero-residual)
    assert own.boundary(v, w) == _per_face_pairing(op, v, w, dom, BoundaryForm(op))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    perturbed = _perturbed_form(BoundaryForm(op), rng)
    assert IbpOracle(op, dom, form=perturbed).boundary(v, w) == _per_face_pairing(
        op, v, w, dom, perturbed
    )


# nonzero coefficients over denominators other than 1 (the sampled checks
# draw integer fields only)
RATIONAL = st.builds(F, st.integers(-7, 7).filter(bool), st.sampled_from([2, 3, 5, 12]))


def _reference_sides(op, v, w, dom, form, adjoint):
    """(volume, boundary) of the identity, each product-then-integrate:
    ``F w`` and ``F* v`` applied as polynomials, and one
    ``_reference_pairing`` flux of ``jet(w)^T Q_a jet(v)`` per axis."""
    eye = lambda k: [[F(int(i == j)) for j in range(k)] for i in range(k)]
    volume = _reference_pairing(dom, v, eye(op.m), op.apply(w), None) - _reference_pairing(
        dom, w, eye(op.n), adjoint.apply(v), None
    )
    jw, jv = jet(w, op.order, op.axes), jet(v, op.order, op.axes)
    boundary = sum((_reference_pairing(dom, jw, q, jv, a) for a, q in enumerate(form.q_axes)), F(0))
    return volume, boundary


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_one_oracle_reused_over_field_pairs_matches_the_references(data):
    """One IbpOracle, reused over several field pairs, gives for each pair
    the product-then-integrate residual and a fresh oracle's: with the
    operator's own form and adjoint (residual zero) and with perturbed
    ones, rational coefficients, zero fields and v, w of different
    degrees."""
    op = data.draw(operators())
    dom = data.draw(domains(op.axes))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    form, adjoint = BoundaryForm(op), op.formal_adjoint()
    own_form, own_adjoint = data.draw(st.booleans()), data.draw(st.booleans())
    if not own_form:
        form = _perturbed_form(form, rng)
    if not own_adjoint:
        adjoint = data.draw(operators(op.ell, op.n, op.m))
    oracle = IbpOracle(op, dom, form=form, adjoint=adjoint)
    for _ in range(data.draw(st.integers(2, 4))):
        v, w = (
            data.draw(fields(op.axes, count, data.draw(st.integers(0, op.order + 2)), coeffs))
            for count, coeffs in ((op.m, data.draw(st.sampled_from([SMALL, RATIONAL]))),
                                  (op.n, data.draw(st.sampled_from([SMALL, RATIONAL]))))
        )
        if data.draw(st.booleans()):
            v = [Poly.zero(op.axes)] * op.m
        volume, boundary = _reference_sides(op, v, w, dom, form, adjoint)
        assert oracle.volume(v, w) == volume == IbpOracle(op, dom, adjoint=adjoint).volume(v, w)
        assert oracle.boundary(v, w) == boundary == IbpOracle(op, dom, form=form).boundary(v, w)
        res = oracle.residual(v, w)
        assert res == volume - boundary == IbpOracle(op, dom, form, adjoint).residual(v, w)
        if own_adjoint:
            assert volume == volume_mismatch(op, v, w, dom)
        if own_form and own_adjoint:
            assert res == 0 == ibp_residual(op, v, w, dom)


@pytest.mark.parametrize("ell, order", [(1, 1), (2, 2), (1, 4), (2, 4)])
def test_oracle_sides_at_orders_one_two_and_four(ell, order):
    """The stacks and jets of a call are slices of one table of derivatives
    per field set: at each order the sides equal the one-call volume, the
    triple-sum boundary and product-then-integrate, also with an adjoint of
    higher order than the operator, whose stack reaches deeper than F's."""
    rng = random.Random(f"orders:{ell}:{order}")
    axes = X12[:ell]

    def matrix(m, n):
        return [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]

    pk = {(k, i): matrix(2, 3) for k in range(1, ell + 1) for i in range(1, order + 1)}
    op = DiffOpMatrix(2, 3, axes, p0=matrix(2, 3), pk=pk)
    higher = DiffOpMatrix(3, 2, axes, p0=matrix(3, 2), pk={(ell, order + 2): matrix(3, 2), (1, 1): matrix(3, 2)})
    dom = DomainSpec(axes, ((F(-1, 2), F(1)), (F(0), F(2, 3)))[:ell])
    v = [random_poly(rng, axes, order + 2) for _ in range(op.m)]
    w = [random_poly(rng, axes, order + 2) for _ in range(op.n)]
    form = BoundaryForm(op)
    own = IbpOracle(op, dom)
    volume, boundary = _reference_sides(op, v, w, dom, form, op.formal_adjoint())
    assert own.volume(v, w) == volume_mismatch(op, v, w, dom) == volume
    assert own.boundary(v, w) == boundary_pairing_sum_form(op, v, w, dom) == boundary
    assert own.residual(v, w) == 0
    deeper = IbpOracle(op, dom, adjoint=higher)
    volume, boundary = _reference_sides(op, v, w, dom, form, higher)
    assert (deeper.volume(v, w), deeper.boundary(v, w)) == (volume, boundary)
    assert deeper.residual(v, w) == volume - boundary != 0


@pytest.mark.parametrize("call", ["ibp_residual", "volume_mismatch", "oracle", "sum_form"])
def test_oracle_refusals_keep_their_messages(call):
    op = timoshenko_op()  # 2 x 2 over z1
    dom = DomainSpec.interval(F(-1, 2), 1)
    evaluate = {
        "ibp_residual": lambda v, w: ibp_residual(op, v, w, dom),
        "volume_mismatch": lambda v, w: volume_mismatch(op, v, w, dom),
        "oracle": IbpOracle(op, dom).residual,
        "sum_form": lambda v, w: boundary_pairing_sum_form(op, v, w, dom),
    }[call]
    one, alien = Poly.constant(X1, 1), Poly.variable(X12, "z1")
    for v, w in (([one], [one, one]), ([one, one], [one, one, one])):
        with pytest.raises(ExactError, match="^field dimensions do not match the operator$"):
            evaluate(v, w)
    message = "factor over ('z1', 'z2') paired on a domain over ('z1',)"
    for v, w in (([one, alien], [one, one]), ([one, one], [alien, one])):
        with pytest.raises(ExactError, match=f"^{re.escape(message)}$"):
            evaluate(v, w)
    # a field without the axis F differentiates along used to end in
    # "ValueError: tuple.index(x): x not in tuple"
    other = Poly.variable(("z2",), "z2")
    message = "factor over ('z2',) paired on a domain over ('z1',)"
    with pytest.raises(ExactError, match=f"^{re.escape(message)}$"):
        evaluate([one, one], [other, one])


def test_oracle_refuses_a_mismatched_form_or_adjoint():
    op, dom = rayleigh_op(), DomainSpec.interval(0, 1)
    with pytest.raises(ExactError, match="does not match the operator"):
        IbpOracle(op, dom, form=BoundaryForm(timoshenko_op()))
    with pytest.raises(ExactError, match="does not match the operator"):
        IbpOracle(op, dom, adjoint=op)
    # the adjoint's derivatives are taken along the operator's axes
    other_axes = DiffOpMatrix(2, 1, ("z2",), pk={(1, 1): [[1], [0]]})
    for refuse in (lambda: IbpOracle(op, dom, adjoint=other_axes),
                   lambda: ibp_symbol_residual(op, adjoint=other_axes)):
        with pytest.raises(ExactError, match="does not match the operator"):
            refuse()


def _face_integral(p, dom, axis, value):
    """Integral of p over the face axes[axis] = value: an explicit subs, then
    one integrate per other axis (a point value for ell = 1)."""
    acc = p.subs({dom.axes[axis]: value})
    for i, (name, (lo, hi)) in enumerate(zip(dom.axes, dom.bounds)):
        if i != axis:
            acc = acc.integrate(name, lo, hi)
    return acc.constant_value()


def _pair(u, mat_, v):
    """u^T M v as one product polynomial, factored by rows as
    sum_i u_i (sum_j M_ij v_j): the reference the pairing kernel replaced."""
    return dot(u, mat_apply(mat_, v))


def _per_face_pairing(op, v, w, dom, form):
    """The boundary pairing summed over all 2 ell faces, the face with outward
    normal +-e_a pairing the jets through +-Q_a."""
    jw, jv = jet(w, op.order, op.axes), jet(v, op.order, op.axes)
    total = F(0)
    for a, q in enumerate(form.q_axes):
        for sign, value in zip((-1, 1), dom.bounds[a]):
            total += _face_integral(_pair(jw, mat_scale(q, F(sign)), jv), dom, a, value)
    return total


def _reference_pairing(dom, u, mat_, v, axis):
    """The product polynomial first, then Poly.subs and Poly.integrate."""
    prod = _pair(u, mat_, v)
    if axis is not None:
        lo, hi = dom.bounds[axis]
        return _face_integral(prod, dom, axis, hi) - _face_integral(prod, dom, axis, lo)
    for name, (lo, hi) in zip(dom.axes, dom.bounds):
        prod = prod.integrate(name, lo, hi)
    return prod.constant_value()


def test_pairing_kernel_on_zero_fields_is_zero():
    dom = DomainSpec.rectangle(F(-1, 2), 1, 0, F(2, 3))
    zero, z1 = Poly.zero(X12), Poly.variable(X12, "z1")
    mat_ = [[F(1), F(2)], [F(3), F(4)]]
    op = DiffOpMatrix(2, 2, X12, p0=mat_, pk={(1, 1): mat_, (2, 2): [[F(1, 2), 0], [0, -1]]})
    oracle, form, adjoint = IbpOracle(op, dom), BoundaryForm(op), op.formal_adjoint()
    v, w = [zero, z1], [z1, zero]
    assert (oracle.volume(v, w), oracle.boundary(v, w)) == _reference_sides(op, v, w, dom, form, adjoint)
    for v, w in (([zero, zero], [z1, z1]), ([z1, z1], [zero, zero])):
        assert oracle.volume(v, w) == oracle.boundary(v, w) == 0
        assert boundary_pairing_sum_form(op, v, w, dom) == 0


def test_pairing_moment_tables_do_not_leak_between_domains():
    # each oracle keeps its functionals per (axis, top): alternate two
    # domains over the same axes and degree, and each must keep its own
    # integrals
    rng = random.Random(11)
    v = [random_poly(rng, X12, 3) for _ in range(2)]
    w = [random_poly(rng, X12, 3) for _ in range(2)]
    mat_ = [[F(1), F(-2, 3)], [F(0), F(5)]]
    op = DiffOpMatrix(2, 2, X12, p0=mat_, pk={(1, 1): mat_, (2, 1): [[0, 1], [F(1, 2), 0]]})
    form, adjoint = BoundaryForm(op), op.formal_adjoint()
    doms = [DomainSpec.rectangle(0, 1, 0, 1), DomainSpec.rectangle(F(-1, 2), 2, F(1, 3), F(3, 2))]
    kept = [IbpOracle(op, dom) for dom in doms]
    for _ in range(2):
        for dom, oracle in zip(doms, kept):
            volume, boundary = _reference_sides(op, v, w, dom, form, adjoint)
            for o in (oracle, IbpOracle(op, dom)):
                assert (o.volume(v, w), o.boundary(v, w)) == (volume, boundary)
            assert boundary_pairing_sum_form(op, v, w, dom) == boundary
    assert kept[0].volume(v, w) != kept[1].volume(v, w)


@pytest.mark.parametrize(
    "dom, coords",
    [
        (DomainSpec.interval(0, 1), ("z2",)),
        (DomainSpec.interval(0, 1), ("z1", "z2")),
        (DomainSpec.rectangle(0, 1, 0, 1), ("z2", "z1")),
    ],
    ids=["other-axis", "more-axes", "swapped-order"],
)
def test_pairing_refuses_factors_over_other_coordinates(dom, coords):
    own = Poly.variable(dom.axes, "z1")
    alien = Poly.variable(coords, coords[0])
    op = DiffOpMatrix(1, 1, dom.axes, p0=[[1]], pk={(1, 1): [[1]]})
    oracle = IbpOracle(op, dom)
    calls = (oracle.volume, oracle.boundary, lambda v, w: boundary_pairing_sum_form(op, v, w, dom))
    for v, w in (([own], [alien]), ([alien], [own])):
        for call in calls:
            with pytest.raises(ExactError, match="paired on a domain over"):
                call(v, w)


def test_oracle_and_sum_form_refuse_an_operator_over_other_axes():
    # an operator over z2 on a rectangle over (z1, z2) used to take the flux
    # of Q_1 through the faces of z1 (ibp_residual 4 for v = w = z2, where
    # the symbol proof is zero);
    # one over z1 on an interval over z2 ended in "tuple.index(x): x not in
    # tuple"
    cases = [
        (DiffOpMatrix(1, 1, ("z2",), pk={(1, 1): [[1]]}), DomainSpec.rectangle(0, 1, 0, 2)),
        (DiffOpMatrix(1, 1, X1, pk={(1, 1): [[1]]}), DomainSpec.interval(0, 1, "z2")),
    ]
    for op, dom in cases:
        assert _is_zero_matrix(ibp_symbol_residual(op))
        fields = [Poly.variable(dom.axes, "z2")]
        message = re.escape(f"operator over {op.axes} on a domain over {dom.axes}")
        for call in (
            lambda: IbpOracle(op, dom),
            lambda: ibp_residual(op, fields, fields, dom),
            lambda: volume_mismatch(op, fields, fields, dom),
            lambda: boundary_pairing_sum_form(op, fields, fields, dom),
        ):
            with pytest.raises(ExactError, match=f"^{message}$"):
                call()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_row_factored_pair_equals_naive_double_sum(data):
    axes = ("z1", "z2", "z3")[: data.draw(st.integers(1, 3))]
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    entry = st.sampled_from([F(0), F(0), F(1), F(-1), F(2, 3), F(-5, 2)])  # zero rows too
    q = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    u = [random_poly(rng, axes, 2) for _ in range(rows)]
    v = [random_poly(rng, axes, 2) for _ in range(cols)]
    naive = Poly.zero(axes)
    for i in range(rows):
        for j in range(cols):
            naive = naive + q[i][j] * (u[i] * v[j])
    assert _pair(u, q, v) == naive

    # DiffOpMatrix.apply against a per-entry reference on a random operator
    op = data.draw(operators())
    w = [random_poly(rng, op.axes, op.order + 1) for _ in range(op.n)]
    assert op.apply(w) == _apply_per_entry(op, w)


def _apply_per_entry(op, w):
    """(F w)_r = sum_c P0[r][c] w_c + sum_(k,i) Pk(k,i)[r][c] d_k^i w_c."""
    out = []
    for r in range(op.m):
        acc = Poly.zero(w[0].coords)
        for c in range(op.n):
            acc = acc + op.p0[r][c] * w[c]
            for (k, i), mat_ in op.pk.items():
                d = w[c]
                for _ in range(i):
                    d = d.diff(op.axes[k - 1])
                acc = acc + mat_[r][c] * d
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# The moment functionals of the pairing kernel, on boxes that are not unit
# boxes: every builtin domain is one, so the sampled checks never reach a
# negative bound or a bound denominator other than 1
# ---------------------------------------------------------------------------


def _random_box(rng, axes):
    """A box whose bounds are drawn negative, fractional or both."""
    bounds = []
    for _ in axes:
        lo = F(rng.randint(-9, 4), rng.randint(1, 7))
        bounds.append((lo, lo + F(rng.randint(1, 9), rng.randint(1, 5))))
    return DomainSpec(axes, tuple(bounds))


def _rational_poly(rng, axes, degree):
    """``random_poly`` over a random denominator."""
    return random_poly(rng, axes, degree) * F(rng.choice([-5, -2, 1, 3, 7]), rng.randint(1, 6))


def _evaluate(table, p, top):
    """The functional ``table`` of ``_functional(bounds, top, face)`` on ``p``."""
    mu, den = table
    (flat,), p_den = _flatten([p], [(top + 1) ** k for k in range(len(p.coords))])
    return F(sum(c * mu[k] for k, c in flat.items()), den * p_den)


@pytest.mark.parametrize("degree", range(7))
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_moment_functionals_equal_integrate_and_subs(ell, degree):
    """The box table is ``Poly.integrate`` over every axis, and the flux
    functional B_a the integral over the other axes of the upper face value
    (``Poly.subs``) minus the lower, for tables wider than the degree too."""
    rng = random.Random(f"functionals:{ell}:{degree}")
    axes = X123[:ell]
    boxes = [DomainSpec(axes, ((F(-3, 7), F(5, 2)), (F(-2), F(-1, 3)), (F(1, 5), F(4)))[:ell])]
    boxes += [_random_box(rng, axes) for _ in range(3)]
    for dom in boxes:
        p = _rational_poly(rng, axes, degree)
        top = degree + rng.randint(0, 3)
        integral = p
        for name, (lo, hi) in zip(axes, dom.bounds):
            integral = integral.integrate(name, lo, hi)
        assert _evaluate(_functional(dom.bounds, top, -1), p, top) == integral.constant_value()
        for a, (name, (lo, hi)) in enumerate(zip(axes, dom.bounds)):
            flux = p.subs({name: hi}) - p.subs({name: lo})
            for other, (o_lo, o_hi) in zip(axes, dom.bounds):
                if other != name:
                    flux = flux.integrate(other, o_lo, o_hi)
            assert _evaluate(_functional(dom.bounds, top, a), p, top) == flux.constant_value()


MUTATIONS = _mutations()


@pytest.mark.parametrize("mutation", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_oracle_under_the_planted_mutations_equals_product_then_integrate(mutation):
    """Each planted mutation of ``verify``, moved to boxes with negative and
    fractional bounds and rational fields: the oracle's volume, boundary and
    residual are the product-then-integrate ones, and the residual is not
    zero."""
    _, model, form, adjoint = mutation
    op = model.op
    rng = random.Random(f"mutation-boxes:{mutation[0]}")
    for _ in range(2):
        dom = _random_box(rng, op.axes)
        oracle = IbpOracle(op, dom, form=form, adjoint=adjoint)
        v = [_rational_poly(rng, op.axes, op.order + 2) for _ in range(op.m)]
        w = [_rational_poly(rng, op.axes, op.order + 2) for _ in range(op.n)]
        volume, boundary = _reference_sides(
            op, v, w, dom, form or BoundaryForm(op), adjoint or op.formal_adjoint()
        )
        assert (oracle.volume(v, w), oracle.boundary(v, w)) == (volume, boundary)
        assert oracle.residual(v, w) == volume - boundary != 0
