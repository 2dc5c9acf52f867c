"""Exact multivariate polynomials over the rationals.

A :class:`Poly` is a sparse map from dense exponent tuples to Fraction
coefficients over a fixed, ordered tuple of coordinate names.  All arithmetic
is exact; there is deliberately no factorization, gcd or symbolic-function
machinery -- differentiation, definite integration and evaluation are the only
calculus these polynomials need to support.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .exact import ExactError, fr

Exponents = Tuple[int, ...]


class Poly:
    __slots__ = ("coords", "terms")

    def __init__(self, coords: Iterable[str], terms: Mapping[Exponents, Fraction]):
        coords = tuple(coords)
        if len(set(coords)) != len(coords):
            raise ExactError(f"duplicate coordinate names: {coords}")
        clean: Dict[Exponents, Fraction] = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(coords):
                raise ExactError(f"exponent arity {len(exps)} != coordinate count {len(coords)}")
            if any(e < 0 for e in exps):
                raise ExactError("negative exponent")
            c = fr(c)
            if c != 0:
                clean[exps] = clean.get(exps, Fraction(0)) + c
                if clean[exps] == 0:
                    del clean[exps]
        self.coords = coords
        self.terms = clean

    @classmethod
    def _raw(cls, coords: Tuple[str, ...], terms: Dict[Exponents, Fraction]) -> "Poly":
        """Wrap an already canonical term dict without copying or checking it.

        Canonical means: distinct coordinate names, exponent tuples of
        non-negative ints of the right arity, Fraction values and no zero
        coefficients.  Only ring and calculus results built from canonical
        operands go through here; everything else uses the validating
        constructor.
        """
        p = object.__new__(cls)
        p.coords = coords
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(coords) -> "Poly":
        return Poly(coords, {})

    @staticmethod
    def constant(coords, value) -> "Poly":
        coords = tuple(coords)
        return Poly(coords, {(0,) * len(coords): fr(value)})

    @staticmethod
    def variable(coords, name: str) -> "Poly":
        coords = tuple(coords)
        if name not in coords:
            raise ExactError(f"unknown coordinate {name!r} (have {coords})")
        exps = tuple(1 if c == name else 0 for c in coords)
        return Poly(coords, {exps: Fraction(1)})

    # -- queries -------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant():
            raise ExactError(f"polynomial {self} is not constant")
        return next(iter(self.terms.values()))

    def degree_in(self, name: str) -> int:
        i = self.coords.index(name)
        return max((e[i] for e in self.terms), default=0)

    def depends_on(self, name: str) -> bool:
        return self.degree_in(name) > 0

    # -- ring operations ------------------------------------------------------
    def _check(self, other: "Poly"):
        if self.coords != other.coords:
            raise ExactError(f"coordinate sets differ: {self.coords} vs {other.coords}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.coords, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                c = out[e] + c
                if not c:
                    del out[e]
                    continue
            out[e] = c
        return Poly._raw(self.coords, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(self.coords, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.coords, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = fr(other)
            if not c:
                return Poly._raw(self.coords, {})
            return Poly._raw(self.coords, {e: c * v for e, v in self.terms.items()})
        self._check(other)
        out: Dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if e in out:
                    out[e] += c1 * c2
                else:
                    out[e] = c1 * c2
        return Poly._raw(self.coords, {e: c for e, c in out.items() if c})

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
        return self.coords == other.coords and self.terms == other.terms

    def __hash__(self):
        return hash((self.coords, frozenset(self.terms.items())))

    # -- calculus -------------------------------------------------------------
    def diff(self, name: str) -> "Poly":
        """Partial derivative with respect to the named coordinate."""
        i = self.coords.index(name)
        out: Dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            # e -> ne is one-to-one on the surviving terms: nothing to sum
            out[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c * e[i]
        return Poly._raw(self.coords, out)

    def antiderivative(self, name: str) -> "Poly":
        i = self.coords.index(name)
        out: Dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            out[e[:i] + (e[i] + 1,) + e[i + 1 :]] = c / (e[i] + 1)
        return Poly._raw(self.coords, out)

    def integrate(self, name: str, lo, hi) -> "Poly":
        """Exact definite integral over ``name`` in (lo, hi).

        The result lives over the same coordinate tuple with the integrated
        coordinate appearing with exponent zero everywhere.
        """
        anti = self.antiderivative(name)
        return anti.subs({name: fr(hi)}) - anti.subs({name: fr(lo)})

    def subs(self, assignment: Mapping[str, Fraction]) -> "Poly":
        """Substitute rational values for a subset of the coordinates."""
        idx = {self.coords.index(k): fr(v) for k, v in assignment.items()}
        out: Dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            val = c
            ne = list(e)
            for i, v in idx.items():
                val *= v ** e[i]
                ne[i] = 0
            key = tuple(ne)
            if key in out:
                out[key] += val
            else:
                out[key] = val
        return Poly._raw(self.coords, {e: c for e, c in out.items() if c})

    def eval(self, assignment: Mapping[str, Fraction]) -> Fraction:
        """Exact rational value; every coordinate with a nonzero exponent must
        be assigned."""
        res = self.subs(assignment)
        if not res.is_constant():
            missing = [c for c in res.coords if res.depends_on(c)]
            raise ExactError(f"missing assignment for {missing}")
        return res.constant_value()

    def extend(self, coords: Iterable[str]) -> "Poly":
        """Reinterpret over a superset coordinate tuple."""
        coords = tuple(coords)
        if len(set(coords)) != len(coords):
            raise ExactError(f"duplicate coordinate names: {coords}")
        pos = []
        for c in self.coords:
            if c not in coords:
                raise ExactError(f"target coordinates {coords} do not contain {c!r}")
            pos.append(coords.index(c))
        out: Dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            ne = [0] * len(coords)
            for p, expo in zip(pos, e):
                ne[p] = expo
            out[tuple(ne)] = c  # one-to-one: the positions are distinct
        return Poly._raw(coords, out)

    # -- display ---------------------------------------------------------------
    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
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

    def apply(self, vec):
        """Matrix times a vector of Polys (coordinates may be a superset)."""
        if len(vec) != self.cols:
            raise ExactError("dimension mismatch in PolyMatrix.apply")
        coords = vec[0].coords
        return [dot([p.extend(coords) for p in row], vec) for row in self.entries]

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


def dot(u: Sequence[Poly], v: Sequence[Poly]) -> Poly:
    """sum_i u_i v_i over Polys sharing a coordinate tuple; a term with a
    zero factor is skipped."""
    acc = Poly._raw(u[0].coords, {})
    for a, b in zip(u, v):
        if a.terms and b.terms:
            acc = acc + a * b
    return acc


def mat_apply(matrix, fields: Sequence[Poly]) -> List[Poly]:
    """A rational matrix times a vector of Polys; zero entries are skipped."""
    coords = fields[0].coords
    out = []
    for row in matrix:
        acc = Poly._raw(coords, {})
        for c, f in zip(row, fields):
            if c != 0:
                acc = acc + f * c
        out.append(acc)
    return out
