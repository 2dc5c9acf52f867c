"""Exact polynomial arithmetic: frozen examples plus ring/calculus properties."""

import random
from fractions import Fraction as F
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phs_forge.diffop import (
    BoundaryForm,
    DiffOpMatrix,
    derivative_symbols,
    ibp_symbol_residual,
    jet_blocks,
)
from phs_forge.exact import ExactError
from phs_forge.models import builtin_model, builtin_names, random_poly
from phs_forge.poly import Poly, PolyMatrix

Z3 = ("z3",)
Z23 = ("z2", "z3")


def z(coords, name):
    return Poly.variable(coords, name)


def test_mul_squares_variable():
    z3 = z(Z3, "z3")
    assert z3 * z3 == z3**2
    assert (z3 * z3).terms == {(2,): F(1)}


def test_differentiate_power_rule():
    z3 = z(Z3, "z3")
    assert (z3**3).diff("z3") == 3 * z3**2


def test_add_cancels_cubic_with_folded_constant():
    # alpha = 4/(3 h^2) folded as a rational for h = 1
    alpha = F(4, 3)
    z3 = z(Z3, "z3")
    assert (z3 - alpha * z3**3) + alpha * z3**3 == z3


def test_definite_integral_even_power():
    # h^(i+1) / (2^i (i+1)) with i = 2, h = 1
    z3 = z(Z3, "z3")
    val = (z3**2).integrate("z3", F(-1, 2), F(1, 2))
    assert val.constant_value() == F(1, 12)


def test_definite_integral_odd_power_is_zero():
    z3 = z(Z3, "z3")
    val = (z3**1).integrate("z3", F(-1, 2), F(1, 2))
    assert val.is_zero
    val = (z3**5).integrate("z3", F(-3, 7), F(3, 7))
    assert val.is_zero


def test_iterated_integral_over_unit_square():
    z2, z3 = z(Z23, "z2"), z(Z23, "z3")
    p = z2**2 + z3**2
    inner = p.integrate("z2", F(-1, 2), F(1, 2))
    val = inner.integrate("z3", F(-1, 2), F(1, 2))
    assert val.constant_value() == F(1, 6)


def test_eval_examples():
    z3 = z(Z3, "z3")
    assert (z3**2).eval({"z3": F(1, 2)}) == F(1, 4)
    assert Poly.constant((), F(7, 3)).eval({}) == F(7, 3)
    coords = ("z1", "z3")
    z1 = z(coords, "z1")
    z3b = z(coords, "z3")
    assert (z1 * z3b - z3b**3).eval({"z1": F(2), "z3": F(1)}) == F(1)


def test_eval_missing_assignment_raises():
    coords = ("z1", "z2", "z3")
    p = z(coords, "z1") * z(coords, "z3")
    with pytest.raises(ExactError, match=r"^missing assignment for \['z3'\]$"):
        p.eval({"z1": F(1)})
    # only the coordinates left with a nonzero exponent are named
    with pytest.raises(ExactError, match=r"^missing assignment for \['z1', 'z3'\]$"):
        p.eval({"z2": F(1)})


def test_coordinate_set_mismatch_raises():
    with pytest.raises(ExactError):
        z(Z3, "z3") + z(Z23, "z3")


def test_constructor_validates_and_cancels():
    with pytest.raises(ExactError, match="negative"):
        Poly(Z3, {(-1,): F(1)})
    with pytest.raises(ExactError, match="arity"):
        Poly(Z3, {(1, 0): F(1)})
    with pytest.raises(ExactError, match="duplicate"):
        Poly(("z3", "z3"), {})
    with pytest.raises(ExactError, match="floats"):
        Poly(Z3, {(1,): 0.5})
    with pytest.raises(ExactError, match="duplicate"):
        z(Z3, "z3").extend(("z3", "z3"))
    p = Poly(Z3, {(1,): 2, (0,): F(0), (2,): "1/2"})
    assert p.terms == {(1,): F(2), (2,): F(1, 2)}
    assert all(type(c) is F for c in p.terms.values())


# ---------------------------------------------------------------------------
# Properties: ring laws, and every operation returns a canonical Poly (int
# exponent tuples of the right arity, Fraction values, no zero coefficients)
# even though ring and calculus results skip the validating constructor
# ---------------------------------------------------------------------------

COORDS = ("z1", "z2", "z3")
COEFFS = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3]))


@st.composite
def polys(draw, coords, max_terms=5):
    exps = st.tuples(*[st.integers(0, 3)] * len(coords))
    return Poly(coords, draw(st.dictionaries(exps, COEFFS, max_size=max_terms)))


@st.composite
def poly_triples(draw):
    coords = COORDS[: draw(st.integers(1, 3))]
    return tuple(draw(polys(coords)) for _ in range(3))


def assert_canonical(r):
    assert r.terms == Poly(r.coords, r.terms).terms
    for e, c in r.terms.items():
        assert len(e) == len(r.coords) and all(type(x) is int and x >= 0 for x in e)
        assert type(c) is F and c != 0
    # the stored layout: int numerators over one reduced positive denominator
    assert type(r.den) is int and r.den >= 1
    assert all(type(n) is int and n != 0 for n in r.num.values())
    assert gcd(r.den, *r.num.values()) == 1
    assert r.num or r.den == 1
    assert r.terms == {e: F(n, r.den) for e, n in r.num.items()}


@settings(max_examples=120, deadline=None)
@given(poly_triples())
def test_ring_laws(abc):
    a, b, c = abc
    zero = Poly.zero(a.coords)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a + b) - b == a
    assert a - a == zero and (a + (-a)).terms == {}
    assert 0 * a == zero and a * 0 == zero and a * zero == zero
    assert 1 * a == a and a * Poly.constant(a.coords, 1) == a
    # equal values built by different routes share one canonical form
    for x, y in [
        ((a + b) + c, a + (b + c)),
        (a * b, b * a),
        ((a + b) * c, a * c + b * c),
        ((a + b) - b, a),
        (a - a, zero),
        (a * F(1, 3) * 3, a),
        (Poly(a.coords, a.terms), a),
    ]:
        assert x == y and hash(x) == hash(y)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_operation_results_are_canonical(data):
    a, b, c = data.draw(poly_triples())
    name = data.draw(st.sampled_from(a.coords))
    q = data.draw(COEFFS)
    lo, hi = data.draw(COEFFS), data.draw(COEFFS)
    results = [
        a + b, a - b, a * b, (a + b) * c - a * c, -a, a - a,
        q * a, a * q, 3 * a, 0 * a, a + 2, 1 - a, a**2,
        a.diff(name), a.integrate(name, lo, hi),
        a.subs({name: q}), a.subs({name: 0}), a.extend(COORDS + ("x",)),
    ]
    for r in results:
        assert_canonical(r)


# A Fraction-dict reference for the differential test: {exponents: Fraction}
# with no zero values, built only from the drawn coefficients.


def ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, F(0)) + c
    return ref_clean(out)


def ref_scale(a, q):
    return ref_clean({e: q * c for e, c in a.items()})


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, F(0)) + c1 * c2
    return ref_clean(out)


def ref_const(arity, q):
    return ref_clean({(0,) * arity: F(q)})


def ref_diff(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in a.items() if e[i]}


def ref_anti(a, i):
    return {e[:i] + (e[i] + 1,) + e[i + 1 :]: c / (e[i] + 1) for e, c in a.items()}


def ref_subs(a, i, v):
    out = {}
    for e, c in a.items():
        key = e[:i] + (0,) + e[i + 1 :]
        out[key] = out.get(key, F(0)) + c * v ** e[i]
    return ref_clean(out)


POINTS = st.builds(F, st.integers(-7, 7), st.sampled_from([2, 3, 5])).filter(
    lambda x: x.denominator > 1
)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_operations_match_a_fraction_reference(data):
    arity = data.draw(st.integers(1, 3))
    coords = COORDS[:arity]
    exps = st.tuples(*[st.integers(0, 3)] * arity)
    ta, tb, tc = (data.draw(st.dictionaries(exps, COEFFS, max_size=5)) for _ in range(3))
    a, b, c = (Poly(coords, t) for t in (ta, tb, tc))
    ta, tb, tc = ref_clean(ta), ref_clean(tb), ref_clean(tc)
    i = data.draw(st.integers(0, arity - 1))
    name = coords[i]
    q = data.draw(COEFFS)
    v, lo, hi = data.draw(POINTS), data.draw(POINTS), data.draw(POINTS)
    neg_a = ref_scale(ta, F(-1))
    anti = ref_anti(ta, i)
    cases = [
        (a + b, ref_add(ta, tb)),
        (a - b, ref_add(ta, ref_scale(tb, F(-1)))),
        (a * b, ref_mul(ta, tb)),
        ((a + b) * c - a * c, ref_mul(tb, tc)),
        (-a, neg_a),
        (a - a, {}),
        (q * a, ref_scale(ta, q)),
        (a * q, ref_scale(ta, q)),
        (3 * a, ref_scale(ta, F(3))),
        (0 * a, {}),
        (a + 2, ref_add(ta, ref_const(arity, 2))),
        (1 - a, ref_add(neg_a, ref_const(arity, 1))),
        (a**2, ref_mul(ta, ta)),
        (a.diff(name), ref_diff(ta, i)),
        (a.integrate(name, lo, hi), ref_add(ref_subs(anti, i, hi), ref_scale(ref_subs(anti, i, lo), -1))),
        (a.subs({name: v}), ref_subs(ta, i, v)),
        (a.subs({name: q}), ref_subs(ta, i, q)),
        (a.subs({name: 0}), ref_subs(ta, i, F(0))),
        (a.extend(COORDS + ("x",)), {e + (0,) * (4 - arity): c for e, c in ta.items()}),
    ]
    for got, want in cases:
        assert got.terms == want
        assert_canonical(got)
    assert a.eval(dict(zip(coords, [v] * arity))) == sum(c * v ** sum(e) for e, c in ta.items())


def antiderivative(p, name):
    """Antiderivative of ``p`` in ``name`` with zero constant."""
    i = p.coords.index(name)
    terms = {e[:i] + (e[i] + 1,) + e[i + 1 :]: c / (e[i] + 1) for e, c in p.terms.items()}
    return Poly(p.coords, terms)


def test_fundamental_theorem_randomized():
    rng = random.Random(99)
    for _ in range(50):
        p = random_poly(rng, Z23, 4)
        anti = antiderivative(p, "z3")
        assert anti.diff("z3") == p


def test_definite_integral_matches_eval_of_antiderivative():
    rng = random.Random(5)
    p = random_poly(rng, Z3, 4)
    anti = antiderivative(p, "z3")
    lo, hi = F(-2, 3), F(5, 7)
    direct = p.integrate("z3", lo, hi).constant_value()
    assert direct == anti.eval({"z3": hi}) - anti.eval({"z3": lo})


def test_no_stored_zero_coefficients():
    z3 = z(Z3, "z3")
    p = z3 - z3
    assert p.terms == {}
    assert p.is_zero


def test_extend_preserves_values():
    z3 = z(Z3, "z3")
    p = 2 * z3**2 - 1
    q = p.extend(("z1", "z2", "z3"))
    assert q.eval({"z1": F(9), "z2": F(-4), "z3": F(1, 2)}) == p.eval({"z3": F(1, 2)})


def test_poly_matrix_transpose():
    z3 = z(Z3, "z3")
    one = Poly.constant(Z3, 1)
    zero = Poly.zero(Z3)
    a = PolyMatrix([[-z3, zero], [one, one]])
    at = a.transpose()
    assert at.entries == [[-z3, one], [zero, one]]
    assert at.transpose() == a


def test_poly_matrix_apply_needs_its_own_coordinates():
    z3 = z(Z3, "z3")
    a = PolyMatrix([[-z3, Poly.zero(Z3)], [Poly.constant(Z3, 1), z3]])
    xyz = ("z1", "z2", "z3")
    v = [Poly.variable(xyz, "z1"), Poly.constant(xyz, 2)]
    with pytest.raises(ExactError):
        a.apply(v)  # a superset is no longer extended entry by entry
    wide = a.extend(xyz)
    assert wide.coords == xyz
    z3w = z3.extend(xyz)
    assert wide.apply(v) == [-z3w * v[0], v[0] + z3w * 2]
    assert a.apply([z3, z3]) == [-z3 * z3, z3 + z3 * z3]


def test_poly_str_round_trips_through_parser():
    from phs_forge.modelfile import _poly_rows

    rng = random.Random(321)
    for _ in range(20):
        p = random_poly(rng, Z23, 3)
        assert _poly_rows([str(p)], Z23, {}, "test") == [[p]]


# ---------------------------------------------------------------------------
# Internal polynomials skip the validating constructor: the named
# constructors, operator symbols and the symbol residual must still be
# canonical and equal to what the validating constructor builds
# ---------------------------------------------------------------------------


def test_named_constructors_are_canonical_and_match_the_validating_constructor():
    for coords in ((), Z3, COORDS):
        unit = (0,) * len(coords)
        zero = Poly.zero(coords)
        assert_canonical(zero)
        assert zero == Poly(coords, {}) and zero.is_zero
        for value in (0, 3, -1, F(-2, 6), "3/10", F(7, 4)):
            c = Poly.constant(coords, value)
            assert_canonical(c)
            assert c == Poly(coords, {unit: value})
        for i, name in enumerate(coords):
            v = Poly.variable(coords, name)
            assert_canonical(v)
            assert v == Poly(coords, {unit[:i] + (1,) + unit[i + 1 :]: 1})


def test_named_constructors_refuse_duplicate_and_unknown_coordinates():
    twice = ("z1", "z2", "z1")
    with pytest.raises(ExactError, match="duplicate coordinate names"):
        Poly.zero(twice)
    with pytest.raises(ExactError, match="duplicate coordinate names"):
        Poly.constant(twice, 2)
    with pytest.raises(ExactError, match="duplicate coordinate names"):
        Poly.variable(twice, "z2")
    with pytest.raises(ExactError, match="unknown coordinate 'z3'"):
        Poly.variable(("z1", "z2"), "z3")
    with pytest.raises(ExactError, match="floats"):
        Poly.constant(Z3, 0.5)


def _random_operator(rng, m, n, ell, order):
    """A DiffOpMatrix with small rational coefficients, about half of them 0."""
    def matrix():
        return [[F(rng.randint(-3, 3), rng.choice((1, 2, 3, 6))) * rng.randint(0, 1)
                 for _ in range(n)] for _ in range(m)]
    axes = tuple(f"z{k}" for k in range(1, ell + 1))
    pk = {(k, i): matrix() for k in range(1, ell + 1) for i in range(1, order + 1)}
    return DiffOpMatrix(m, n, axes, matrix(), pk)


def _operators():
    ops = [builtin_model(name).op for name in builtin_names()]
    rng = random.Random(2611)
    for _ in range(12):
        ops.append(_random_operator(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2),
                                    rng.randint(1, 3)))
    return ops


def test_operator_symbols_are_canonical_and_match_the_validating_constructor():
    for op in _operators():
        coords = derivative_symbols(op.ell)
        unit = (0,) * op.ell
        for r, row in enumerate(op.symbols()):
            for c, entry in enumerate(row):
                assert_canonical(entry)
                terms = {unit: op.p0[r][c]}
                for (k, i), mat_ in op.pk.items():
                    terms[unit[: k - 1] + (i,) + unit[k:]] = mat_[r][c]
                assert entry == Poly(coords, terms)


def _symbol_residual_reference(op, form, adjoint):
    """F(eta)^T - F*(zeta) - sum_a (eta_a + zeta_a) Q_a(eta, zeta), summed
    from monomials that the validating constructor builds."""
    ell, n, m = op.ell, op.n, op.m
    coords = tuple(f"d{side}{k}" for side in "wv" for k in range(1, ell + 1))
    none = (0,) * ell

    def power(j, k):  # eta_k^j or zeta_k^j as an exponent tuple over one side
        return none[: k - 1] + (j,) + none[k:] if j else none

    def mono(eta, zeta, c):
        return Poly(coords, {eta + zeta: c})

    def symbol(d, r, c):  # entry (r, c) of an operator as {side exponents: coefficient}
        out = {none: d.p0[r][c]}
        for (k, i), mat_ in d.pk.items():
            out[power(i, k)] = mat_[r][c]
        return out

    blocks = jet_blocks(op.order, ell)
    rows = []
    for p in range(n):
        row = []
        for q in range(m):
            terms = [mono(e, none, x) for e, x in symbol(op, q, p).items()]
            terms += [mono(none, e, -x) for e, x in symbol(adjoint, p, q).items()]
            for a, q_a in enumerate(form.q_axes, start=1):
                for bi, (j, k) in enumerate(blocks):
                    for bj, (j2, k2) in enumerate(blocks):
                        x = q_a[bi * n + p][bj * m + q]
                        eta, zeta = power(j, k), power(j2, k2)
                        terms.append(mono(tuple(map(add, eta, power(1, a))), zeta, -x))
                        terms.append(mono(eta, tuple(map(add, zeta, power(1, a))), -x))
            row.append(sum(terms, Poly.zero(coords)))
        rows.append(row)
    return rows


def test_symbol_residual_is_canonical_and_matches_the_validating_constructor():
    rng = random.Random(2612)
    for op in _operators():
        form, adjoint = BoundaryForm(op), op.formal_adjoint()
        bent = BoundaryForm(op)  # a perturbed form, so the residual is not zero
        bent.q_axes = [[[x * F(rng.randint(1, 4), 3) for x in row] for row in q] for q in bent.q_axes]
        other = _random_operator(rng, op.n, op.m, op.ell, op.order)
        for f, adj in ((form, adjoint), (bent, adjoint), (form, other)):
            got = ibp_symbol_residual(op, form=f, adjoint=adj)
            for row, ref_row in zip(got, _symbol_residual_reference(op, f, adj)):
                for entry, ref in zip(row, ref_row):
                    assert_canonical(entry)
                    assert entry == ref
        assert all(e.is_zero for row in ibp_symbol_residual(op) for e in row)
