"""Cross sections: the complementary domain of a model, over which the energy
matrices integrate (``M = rho * int lambda1^T lambda1``, ``K = int lambda2^T C
lambda2``).  It is a thickness interval in z3 (plates), a rectangle or disk
in (z2, z3) (beams and bars), nothing (3D elasticity), or an abstract
symmetric section known only through its z3-moments (A, I, ...).

Each shape is a frozen dataclass whose fields are its model-file values; it
states ``spans``, the coordinates it extends over, and one rule,
``monomial(a, b)``: the exact integral of z2^a z3^b over it (disks give
pi-tagged rationals).  Integration, moments, equality and the ``[section]``
text follow from that, once, in the base class.  ``moment`` adds the one
refusal of a power outside ``spans``; ``integrate`` asks it for each term,
and ``build._section_gram`` for each exponent whose summed integer
coefficients survive.  ``integrate`` is the one-polynomial form, and the
tests' reference for the energy matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from math import prod
from typing import ClassVar, Tuple

from .exact import ExactError, PiRat, fr
from .poly import Poly


def _double_factorial(n: int) -> int:
    return prod(range(n, 0, -2))


def _centered(length: Fraction, k: int) -> Fraction:
    """Integral of z^k over (-length/2, length/2)."""
    return Fraction(0) if k % 2 else 2 * (length / 2) ** (k + 1) / (k + 1)


@dataclass(frozen=True)
class Section:
    """A cross section; its fields are positive rationals."""

    kind: ClassVar[str]
    spans: ClassVar[Tuple[str, ...]]

    def __post_init__(self):
        for f in fields(self):
            value = fr(getattr(self, f.name))
            if value <= 0:
                raise ExactError(f"{self.kind} {f.name} must be positive, got {value}")
            object.__setattr__(self, f.name, value)

    def monomial(self, a: int, b: int):
        """Exact integral of z2^a z3^b; a power is nonzero only in a spanned coordinate."""
        raise NotImplementedError

    def moment(self, coords, exps, coeff):
        """``monomial`` at the z2 and z3 powers of ``exps`` over ``coords``;
        a power outside ``spans`` is refused, naming the term ``coeff() *
        z^exps`` (``coeff`` is called only then)."""
        power = dict(zip(coords, exps))
        for c, k in power.items():
            if k and c not in self.spans:
                term = Poly(coords, {exps: coeff()})
                raise ExactError(f"section {self.kind} does not span {c}, so it cannot integrate {term}")
        return self.monomial(power.get("z2", 0), power.get("z3", 0))

    def integrate(self, p: Poly):
        """Exact integral of ``p``: its integer numerators summed against
        their ``moment``, divided by its denominator once."""
        total = Fraction(0)
        for exps, n in p.num.items():
            total += n * self.moment(p.coords, exps, partial(Fraction, n, p.den))
        return total / p.den

    def descriptor(self) -> str:
        """The ``[section]`` line of a model file."""
        return f"{self.kind} = " + ", ".join(str(getattr(self, f.name)) for f in fields(self))


@dataclass(frozen=True)
class PointSection(Section):
    """No complementary domain (full 3D elasticity): only constants integrate."""

    kind = "none"
    spans = ()

    def monomial(self, a: int, b: int):
        return Fraction(1)

    def descriptor(self) -> str:
        return "none"


@dataclass(frozen=True)
class IntervalSection(Section):
    """Thickness interval z3 in (-h/2, h/2); the plate case."""

    h: Fraction
    kind = "interval"
    spans = ("z3",)

    def monomial(self, a: int, b: int):
        return _centered(self.h, b)


@dataclass(frozen=True)
class RectangleSection(Section):
    """Rectangle z2 in (-b/2, b/2), z3 in (-h/2, h/2)."""

    b: Fraction
    h: Fraction
    kind = "rectangle"
    spans = ("z2", "z3")

    def monomial(self, a: int, b: int):
        return _centered(self.b, a) * _centered(self.h, b)


@dataclass(frozen=True)
class CircleSection(Section):
    """Disk of radius R in the (z2, z3) plane; its moments carry a pi tag."""

    radius: Fraction
    kind = "circle"
    spans = ("z2", "z3")

    def monomial(self, a: int, b: int):
        if a % 2 or b % 2:
            return Fraction(0)
        s = a + b
        q = Fraction(2 * _double_factorial(a - 1) * _double_factorial(b - 1), (s + 2) * _double_factorial(s))
        return PiRat(q * self.radius ** (s + 2), 1)


@dataclass(frozen=True)
class MomentSection(Section):
    """A symmetric section known only through selected z3-moments.

    ``moments`` maps an order i to the integral of z3^i over the section (so
    moment 0 is the area and moment 2 the second moment); it is stored as
    (order, value) pairs in increasing order, so sections compare and hash by
    value.  Odd moments vanish by the symmetry assumption.  It spans z3 only:
    a term in z2 needs real geometry.
    """

    moments: Tuple[Tuple[int, Fraction], ...]
    kind = "moments"
    spans = ("z3",)

    def __post_init__(self):
        moments = {int(i): fr(v) for i, v in dict(self.moments).items()}
        if any(i < 0 or i % 2 for i in moments):
            raise ExactError(f"moment orders must be even and non-negative, got {sorted(moments)}")
        object.__setattr__(self, "moments", tuple(sorted(moments.items())))

    def monomial(self, a: int, b: int):
        if b % 2:
            return Fraction(0)
        for order, value in self.moments:
            if order == b:
                return value
        raise ExactError(f"moment of order {b} not supplied for abstract section")

    def descriptor(self) -> str:
        return "moments = " + ", ".join(f"I{i}: {v}" for i, v in self.moments)


def section_moment(section: Section, i: int):
    """Exact i-th z3-moment of a section; 0 for odd i on symmetric shapes."""
    if i < 0:
        raise ExactError("moment order must be non-negative")
    if not section.spans:
        raise ExactError("a 3D model has no cross-section moments")
    return section.monomial(0, i)
