"""Exact polynomial arithmetic: frozen examples plus ring/calculus properties."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phs_forge.exact import ExactError
from phs_forge.models import random_poly
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
    coords = ("z1", "z3")
    p = z(coords, "z1") * z(coords, "z3")
    with pytest.raises(ExactError):
        p.eval({"z1": F(1)})


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
        a.diff(name), a.antiderivative(name), a.integrate(name, lo, hi),
        a.subs({name: q}), a.subs({name: 0}), a.extend(COORDS + ("x",)),
    ]
    for r in results:
        assert_canonical(r)


def test_fundamental_theorem_randomized():
    rng = random.Random(99)
    for _ in range(50):
        p = random_poly(rng, Z23, 4)
        anti = p.antiderivative("z3")
        assert anti.diff("z3") == p


def test_definite_integral_matches_eval_of_antiderivative():
    rng = random.Random(5)
    p = random_poly(rng, Z3, 4)
    anti = p.antiderivative("z3")
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


def test_poly_str_round_trips_through_parser():
    from phs_forge.modelfile import eval_poly

    rng = random.Random(321)
    for _ in range(20):
        p = random_poly(rng, Z23, 3)
        assert eval_poly(str(p), Z23, {}, "test") == p
