"""Exact multivariate polynomials over the rationals.

A :class:`Poly` is a sparse map from dense exponent tuples to rational
coefficients over a fixed, ordered tuple of coordinate names.  It is stored as
integer numerators over one positive common denominator (the layout of FLINT's
``fmpq_poly``), so sums, products and the calculus run in Python ints and each
result is reduced once, by one gcd.  All arithmetic is exact; there is
deliberately no factorization or symbolic-function machinery --
differentiation, definite integration and evaluation are the only calculus
these polynomials need to support.  ``moment_weights`` (the integrals of
``z^k`` over an interval) and ``power_table`` (the powers of a rational over
one denominator) are the integer tables that integration, substitution and
``diffop``'s pairing kernel share.  ``str`` writes the terms
colexicographically: the constant, then the powers of the first coordinate,
then those of the next; it is the one text form of operator entries too.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .exact import ExactError, fr

Exponents = Tuple[int, ...]


class Poly:
    """``sum_e num[e] / den * z^e``, kept canonical: no zero numerator, ``den
    >= 1``, ``gcd(den, *num.values()) == 1``, and ``den == 1`` for zero.  The
    canonical form is unique, so equality and hashing compare ``num`` and
    ``den`` directly.  Instances are immutable by convention: nothing writes to
    ``num`` after construction."""

    __slots__ = ("coords", "num", "den")

    def __init__(self, coords: Iterable[str], terms: Mapping[Exponents, Fraction]):
        coords = _distinct(coords)
        clean: Dict[Exponents, Fraction] = {}
        for exps, c in terms.items():
            exps = tuple(map(int, exps))
            if len(exps) != len(coords):
                raise ExactError(f"exponent arity {len(exps)} != coordinate count {len(coords)}")
            if exps and min(exps) < 0:
                raise ExactError("negative exponent")
            c = fr(c)
            if c and exps in clean:
                c += clean.pop(exps)
            if c:
                clean[exps] = c
        self.coords = coords
        self.num, self.den = _over_lcm(clean)

    @classmethod
    def _raw(cls, coords: Tuple[str, ...], num: Dict[Exponents, int], den: int = 1) -> "Poly":
        """The one constructor for results: integer numerators over ``den``,
        reduced by their common gcd; the dict is not checked, and is copied
        only when the gcd is not 1.

        The caller guarantees distinct coordinate names, exponent tuples of
        non-negative ints of the right arity, int values, no zero numerators
        and ``den >= 1``.  The named constructors, the ring and calculus
        results and the compiler's internal polynomials go through here; the
        validating constructor is for terms from outside.
        """
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {e: n // g for e, n in num.items()}
        p = object.__new__(cls)
        p.coords = coords
        p.num = num
        p.den = den
        return p

    @property
    def terms(self) -> Dict[Exponents, Fraction]:
        """The coefficients as a fresh ``{exponents: Fraction}`` dict (a
        read-only view: writing to it does not change the polynomial)."""
        den = self.den
        return {e: Fraction(n, den) for e, n in self.num.items()}

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(coords) -> "Poly":
        return Poly._raw(_distinct(coords), {})

    @staticmethod
    def constant(coords, value) -> "Poly":
        value = fr(value)
        coords = _distinct(coords)
        if not value:
            return Poly._raw(coords, {})
        return Poly._raw(coords, {(0,) * len(coords): value.numerator}, value.denominator)

    @staticmethod
    def variable(coords, name: str) -> "Poly":
        coords = tuple(coords)
        if name not in coords:
            raise ExactError(f"unknown coordinate {name!r} (have {coords})")
        return Poly._raw(_distinct(coords), {tuple(int(c == name) for c in coords): 1})

    # -- queries -------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return not any(any(e) for e in self.num)

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant():
            raise ExactError(f"polynomial {self} is not constant")
        return Fraction(next(iter(self.num.values())), self.den)

    # -- ring operations ------------------------------------------------------
    def _check(self, other: "Poly"):
        if self.coords != other.coords:
            raise ExactError(f"coordinate sets differ: {self.coords} vs {other.coords}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.coords, other)
        self._check(other)
        if not other.num:
            return self
        if not self.num:
            return other
        den = self.den
        if den == other.den:
            out = dict(self.num)
            scale = 1
        else:
            den = lcm(den, other.den)
            s = den // self.den
            out = {e: n * s for e, n in self.num.items()}
            scale = den // other.den
        for e, n in other.num.items():
            n *= scale
            if e in out:
                n += out[e]
                if not n:
                    del out[e]
                    continue
            out[e] = n
        return Poly._raw(self.coords, out, den)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(self.coords, {e: -n for e, n in self.num.items()}, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.coords, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly._raw(self.coords, {})
            p = other.numerator
            out = {e: n * p for e, n in self.num.items()}
            return Poly._raw(self.coords, out, self.den * other.denominator)
        self._check(other)
        out: Dict[Exponents, int] = {}
        get = out.get
        right = list(other.num.items())
        for e1, n1 in self.num.items():
            for e2, n2 in right:
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + n1 * n2
        return Poly._raw(self.coords, {e: n for e, n in out.items() if n}, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ExactError("negative power")
        out = Poly.constant(self.coords, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction)):
                return self == Poly.constant(self.coords, other)
            return NotImplemented
        return self.coords == other.coords and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.coords, self.den, frozenset(self.num.items())))

    # -- calculus -------------------------------------------------------------
    def diff(self, name: str) -> "Poly":
        """Partial derivative with respect to the named coordinate."""
        i = self.coords.index(name)
        out: Dict[Exponents, int] = {}
        for e, n in self.num.items():
            k = e[i]
            if k:
                # e -> ne is one-to-one on the surviving terms: nothing to sum
                out[e[:i] + (k - 1,) + e[i + 1 :]] = n * k
        return Poly._raw(self.coords, out, self.den)

    def integrate(self, name: str, lo, hi) -> "Poly":
        """Exact definite integral over ``name`` in (lo, hi).

        The result lives over the same coordinate tuple with the integrated
        coordinate appearing with exponent zero everywhere.
        """
        i = self.coords.index(name)
        top = max((e[i] for e in self.num), default=0)
        weights, den = moment_weights(fr(lo), fr(hi), top + 1)
        out: Dict[Exponents, int] = {}
        get = out.get
        for e, n in self.num.items():
            key = e[:i] + (0,) + e[i + 1 :]
            out[key] = get(key, 0) + n * weights[e[i]]
        return Poly._raw(self.coords, {e: n for e, n in out.items() if n}, self.den * den)

    def subs(self, assignment: Mapping[str, Fraction]) -> "Poly":
        """Substitute rational values for a subset of the coordinates.

        A value ``p/q`` for a coordinate of top degree ``t`` turns ``z^k`` into
        ``p^k q^(t-k)`` over ``q^t`` (``power_table``), so every term stays
        over one denominator.
        """
        den = self.den
        tables = []
        for name, v in assignment.items():
            i = self.coords.index(name)
            v = fr(v)
            top = max((e[i] for e in self.num), default=0)
            tables.append((i, power_table(v, top)))
            den *= v.denominator**top
        out: Dict[Exponents, int] = {}
        get = out.get
        for e, n in self.num.items():
            ne = list(e)
            for i, powers in tables:
                n *= powers[e[i]]
                ne[i] = 0
            key = tuple(ne)
            out[key] = get(key, 0) + n
        return Poly._raw(self.coords, {e: n for e, n in out.items() if n}, den)

    def eval(self, assignment: Mapping[str, Fraction]) -> Fraction:
        """Exact rational value; every coordinate with a nonzero exponent must
        be assigned."""
        res = self.subs(assignment)
        if not res.is_constant():
            missing = [c for i, c in enumerate(res.coords) if any(e[i] for e in res.num)]
            raise ExactError(f"missing assignment for {missing}")
        return res.constant_value()

    def extend(self, coords: Iterable[str]) -> "Poly":
        """Reinterpret over a superset coordinate tuple."""
        coords = _distinct(coords)
        for c in self.coords:
            if c not in coords:
                raise ExactError(f"target coordinates {coords} do not contain {c!r}")
        if coords == self.coords:
            return self
        # target slot j reads e[src[j]]; a new coordinate reads the padded 0
        width = len(self.coords)
        src = [self.coords.index(c) if c in self.coords else width for c in coords]
        pick = itemgetter(*src)
        if len(src) == 1:  # one index: itemgetter returns the item, not a tuple
            out = {(pick(e + (0,)),): n for e, n in self.num.items()}
        else:
            # one-to-one: the positions are distinct
            out = {pick(e + (0,)): n for e, n in self.num.items()}
        return Poly._raw(coords, out, self.den)

    # -- display ---------------------------------------------------------------
    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), key=_colex):
            factors = []
            for name, expo in zip(self.coords, e):
                if expo == 1:
                    factors.append(name)
                elif expo > 1:
                    factors.append(f"{name}^{expo}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    __repr__ = __str__


def _distinct(coords: Iterable[str]) -> Tuple[str, ...]:
    """``coords`` as a tuple, unless a name repeats."""
    coords = tuple(coords)
    if len(set(coords)) != len(coords):
        raise ExactError(f"duplicate coordinate names: {coords}")
    return coords


def _over_lcm(terms: Mapping[Exponents, Fraction]) -> Tuple[Dict[Exponents, int], int]:
    """``(num, den)``: nonzero Fractions as integer numerators over the lcm of
    their denominators.  No factor divides ``den`` and every numerator, so the
    pair is already canonical."""
    den = lcm(*{c.denominator for c in terms.values()})
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


def _colex(term) -> Exponents:
    """Sort key of a term: its exponents read from the last coordinate, so
    the constant comes first, then the powers of the first coordinate, then
    those of the next."""
    return term[0][::-1]


def moment_weights(lo: Fraction, hi: Fraction, n: int) -> Tuple[List[int], int]:
    """``(w, den)`` with ``w[k] / den`` the integral of ``z^k`` over (lo, hi),
    for k = 0..n-1, all over one integer denominator.

    With ``hi = a/b``, ``lo = c/d`` and ``m = lcm(1..n)``, ``z^(j-1)``
    integrates to ``(hi^j - lo^j) / j``, which over ``den = m (b d)^n`` is
    the integer ``(a^j b^(n-j) d^n - c^j d^(n-j) b^n) (m / j)``.
    """
    a, b, c, d = hi.numerator, hi.denominator, lo.numerator, lo.denominator
    m = lcm(*range(1, n + 1))
    bn, dn = b**n, d**n
    w = [(a**j * b ** (n - j) * dn - c**j * d ** (n - j) * bn) * (m // j) for j in range(1, n + 1)]
    return w, m * bn * dn


def power_table(value: Fraction, t: int) -> List[int]:
    """``p^k q^(t-k)`` for k = 0..t, with ``value = p/q``: the numerators of
    ``value^k`` over the one denominator ``q^t``."""
    p, q = value.numerator, value.denominator
    return [p**k * q ** (t - k) for k in range(t + 1)]


class PolyMatrix:
    """A rectangular grid of Polys over a shared coordinate tuple."""

    __slots__ = ("rows", "cols", "entries", "coords")

    def __init__(self, entries):
        entries = [list(r) for r in entries]
        if not entries or not entries[0]:
            raise ExactError("PolyMatrix must be non-empty")
        width = len(entries[0])
        if any(len(r) != width for r in entries):
            raise ExactError("ragged PolyMatrix")
        coords = entries[0][0].coords
        for r in entries:
            for p in r:
                if p.coords != coords:
                    raise ExactError("mixed coordinate sets in PolyMatrix")
        self.entries = entries
        self.rows = len(entries)
        self.cols = width
        self.coords = coords

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix([list(col) for col in zip(*self.entries)])

    def extend(self, coords: Iterable[str]) -> "PolyMatrix":
        """Reinterpret every entry over a superset coordinate tuple."""
        return PolyMatrix([[p.extend(coords) for p in row] for row in self.entries])

    def apply(self, vec):
        """Matrix times a vector of Polys over the matrix's coordinates."""
        if len(vec) != self.cols:
            raise ExactError("dimension mismatch in PolyMatrix.apply")
        if any(p.coords != self.coords for p in vec):
            raise ExactError(f"PolyMatrix.apply needs a vector over {self.coords}")
        return [dot(row, vec) for row in self.entries]

    def col_is_zero(self, j: int) -> bool:
        return all(self.entries[i][j].is_zero for i in range(self.rows))

    def row_is_zero(self, i: int) -> bool:
        return all(p.is_zero for p in self.entries[i])

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __str__(self):
        return "\n".join("[" + ", ".join(str(p) for p in r) + "]" for r in self.entries)

    __repr__ = __str__


def _sum(coords: Tuple[str, ...], polys: Sequence[Poly]) -> Poly:
    """sum of Polys over ``coords``, merged over the lcm of their denominators
    and reduced once."""
    den = lcm(*(p.den for p in polys))
    out: Dict[Exponents, int] = {}
    get = out.get
    for p in polys:
        scale = den // p.den
        for e, n in p.num.items():
            out[e] = get(e, 0) + n * scale
    return Poly._raw(coords, {e: n for e, n in out.items() if n}, den)


def dot(u: Sequence[Poly], v: Sequence[Poly]) -> Poly:
    """sum_i u_i v_i over Polys sharing a coordinate tuple; a term with a
    zero factor is skipped."""
    return _sum(u[0].coords, [a * b for a, b in zip(u, v) if a.num and b.num])


def mat_apply(matrix, fields: Sequence[Poly]) -> List[Poly]:
    """A rational matrix times a vector of Polys; zero entries are skipped."""
    coords = fields[0].coords
    return [_sum(coords, [f * c for c, f in zip(row, fields) if c != 0]) for row in matrix]
