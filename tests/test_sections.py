"""Cross sections: the one monomial rule, integration against the iterated
oracle, closed forms, refusals, equality and the [section] text."""

import dataclasses
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phs_forge.exact import ExactError, PiRat
from phs_forge.modelfile import ParseError, parse_model, serialize_model
from phs_forge.models import builtin_model
from phs_forge.poly import Poly
from phs_forge.sections import (
    CircleSection,
    IntervalSection,
    MomentSection,
    PointSection,
    RectangleSection,
    section_moment,
)

BEAM = ("z2", "z3")
Z2, Z3 = (Poly.variable(BEAM, c) for c in BEAM)

_sides = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=12)


def _polys(coords):
    exponents = st.tuples(*[st.integers(0, 5)] * len(coords))
    coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=12)
    return st.dictionaries(exponents, coeffs, max_size=6).map(lambda terms: Poly(coords, terms))


@settings(max_examples=100, deadline=None)
@given(p=_polys(BEAM), b=_sides, h=_sides)
def test_rectangle_integrate_equals_the_iterated_oracle(p, b, h):
    oracle = p.integrate("z2", -b / 2, b / 2).integrate("z3", -h / 2, h / 2).constant_value()
    assert RectangleSection(b, h).integrate(p) == oracle


@settings(max_examples=100, deadline=None)
@given(p=_polys(("z3",)), h=_sides)
def test_interval_integrate_equals_the_iterated_oracle(p, h):
    oracle = p.integrate("z3", -h / 2, h / 2).constant_value()
    assert IntervalSection(h).integrate(p) == oracle


@pytest.mark.parametrize("radius", [F(1), F(3, 2)])
def test_circle_closed_forms(radius):
    sec = CircleSection(radius)
    assert sec.integrate(Poly.constant(BEAM, 1)) == PiRat(radius**2, 1)
    assert sec.integrate(Z3**2) == PiRat(radius**4 / 4, 1) == section_moment(sec, 2)
    assert sec.integrate(Z2**2 * Z3**2) == PiRat(radius**6 / 24, 1)
    assert sec.integrate(Z2 * Z3**2 + Z3**3) == 0


def test_moment_and_point_sections_integrate_what_they_span():
    sec = MomentSection({0: F(1, 100), 2: F(1, 120000)})
    assert sec.integrate(3 - Z3**2 + Z3**5) == F(3, 100) - F(1, 120000)
    assert section_moment(sec, 1) == 0
    assert PointSection().integrate(Poly.constant((), 5)) == 5


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: IntervalSection(0), "interval h must be positive, got 0"),
        (lambda: RectangleSection(1, -2), "rectangle h must be positive, got -2"),
        (lambda: CircleSection(F(-1, 2)), "circle radius must be positive, got -1/2"),
        (lambda: MomentSection({0: 1, 3: 1}), "moment orders must be even and non-negative"),
        (lambda: MomentSection({-2: 1}), "moment orders must be even and non-negative"),
        (lambda: section_moment(MomentSection({0: 1}), 2), "moment of order 2 not supplied"),
        (
            lambda: MomentSection({0: 1, 2: 1}).integrate(Z3 + Z2**2 * Z3**2),
            "section moments does not span z2, so it cannot integrate z2^2*z3^2",
        ),
        (
            lambda: PointSection().integrate(Poly.variable(("z3",), "z3") ** 2),
            "section none does not span z3, so it cannot integrate z3^2",
        ),
        (lambda: section_moment(PointSection(), 0), "a 3D model has no cross-section moments"),
        (lambda: section_moment(IntervalSection(1), -1), "moment order must be non-negative"),
    ],
    ids=["interval-zero", "rectangle-negative", "circle-negative", "odd-moment", "negative-moment",
         "missing-moment", "moments-z2-term", "none-z3-term", "none-moment", "negative-order"],
)
def test_sections_refuse(refused, message):
    with pytest.raises(ExactError, match=re.escape(message)):
        refused()


def test_sections_compare_by_kind_and_values():
    assert IntervalSection(1) == IntervalSection(F(1))
    assert IntervalSection(1) != IntervalSection(2)
    assert RectangleSection(1, 2) != RectangleSection(2, 1)
    assert CircleSection(1) != IntervalSection(1)
    assert MomentSection({0: 1, 2: F(1, 12)}) == MomentSection({2: F(1, 12), 0: 1})
    assert MomentSection({0: 1}) != MomentSection({0: 1, 2: 1})
    assert PointSection() == PointSection() != IntervalSection(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        IntervalSection(1).h = F(2)


def test_equal_sections_hash_equal():
    pairs = [
        (MomentSection({0: 1, 2: F(1, 12)}), MomentSection({2: F(1, 12), 0: F(1)})),
        (IntervalSection(1), IntervalSection(F(1))),
        (RectangleSection(1, 2), RectangleSection(F(1), 2)),
        (PointSection(), PointSection()),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert len({a for a, _ in pairs} | {b for _, b in pairs}) == len(pairs)
    assert MomentSection(MomentSection({0: 1, 2: 3}).moments) == MomentSection({2: 3, 0: 1})


@pytest.mark.parametrize(
    "name, section, line",
    [
        ("elasticity3d", PointSection(), "none"),
        ("mindlin_plate", IntervalSection(F(1, 10)), "interval = 1/10"),
        ("timoshenko", RectangleSection(2, F(1, 3)), "rectangle = 2, 1/3"),
        ("timoshenko", CircleSection(F(1, 10)), "circle = 1/10"),
        ("timoshenko", MomentSection({2: F(1, 120000), 0: F(1, 100)}), "moments = I0: 1/100, I2: 1/120000"),
    ],
    ids=["none", "interval", "rectangle", "circle", "moments"],
)
def test_every_section_kind_round_trips_through_the_model_text(name, section, line):
    text = serialize_model(dataclasses.replace(builtin_model(name), section=section))
    assert f"[section]\n{line}\n" in text
    back = parse_model(text)
    assert back.section == section
    assert serialize_model(back) == text


@pytest.mark.parametrize(
    "line, message",
    [
        ("rectangle = 1, 2, 3", "[section] rectangle takes the values b, h; got 3"),
        ("rectangle = 1", "[section] rectangle takes the values b, h; got 1"),
        ("interval = 1, 2", "[section] interval takes the values h; got 2"),
        ("circle = 1, 2", "[section] circle takes the values radius; got 2"),
        ("moments = I0: 1, I0: 2", "moment order 0 is given twice"),
    ],
    ids=["rectangle-3", "rectangle-1", "interval-2", "circle-2", "moment-twice"],
)
def test_parse_refuses_a_wrong_number_of_section_values(line, message):
    text = serialize_model(builtin_model("timoshenko")).replace("rectangle = 1, 1", line)
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_model(text)
