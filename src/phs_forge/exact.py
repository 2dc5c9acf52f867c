"""Exact scalar arithmetic and small dense linear algebra.

Every coefficient in the symbolic pipeline is a ``fractions.Fraction``.
Circular cross sections introduce a factor of pi into section moments, so
scalars are either plain Fractions or :class:`PiRat`, a rational multiple of
an integer power of pi.  Sums mixing different powers of pi are refused: they
never occur for the supported section shapes, and refusing keeps every
comparison exact instead of silently falling back to floats.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ExactError(ArithmeticError):
    """Raised when an operation would leave the exact scalar domain."""


def fr(x) -> Fraction:
    """Coerce ints, strings like ``3/10`` and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise ExactError("floats are not exact; supply a rational (e.g. '3/10')")
    return Fraction(x)


class PiRat:
    """A scalar of the form q * pi**k with q rational and k an integer.

    Addition is only defined between equal powers of pi (or with zero);
    multiplication and division are unrestricted.  This is enough for every
    cross-section moment the builders produce, where each matrix entry and
    each leading minor is a single power of pi times a rational.
    """

    __slots__ = ("q", "k")

    def __init__(self, q, k: int = 0):
        q = fr(q)
        self.q = q
        self.k = int(k) if q != 0 else 0

    # -- helpers ----------------------------------------------------------
    @staticmethod
    def _lift(x) -> "PiRat":
        if isinstance(x, PiRat):
            return x
        return PiRat(fr(x), 0)

    def _as_fraction(self):
        if self.k == 0:
            return self.q
        return self

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        o = PiRat._lift(other)
        if self.q == 0:
            return o._as_fraction()
        if o.q == 0:
            return self._as_fraction()
        if self.k != o.k:
            raise ExactError(f"cannot add pi^{self.k} and pi^{o.k} terms exactly")
        return PiRat(self.q + o.q, self.k)._as_fraction()

    __radd__ = __add__

    def __neg__(self):
        return PiRat(-self.q, self.k)

    def __sub__(self, other):
        return self + (-PiRat._lift(other))

    def __rsub__(self, other):
        return PiRat._lift(other) + (-self)

    def __mul__(self, other):
        o = PiRat._lift(other)
        return PiRat(self.q * o.q, self.k + o.k)._as_fraction()

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = PiRat._lift(other)
        if o.q == 0:
            raise ZeroDivisionError("division by exact zero")
        return PiRat(self.q / o.q, self.k - o.k)._as_fraction()

    def __rtruediv__(self, other):
        return PiRat._lift(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ExactError("only non-negative integer powers")
        return PiRat(self.q**n, self.k * n)._as_fraction()

    def __eq__(self, other):
        o = PiRat._lift(other) if isinstance(other, (PiRat, Fraction, int)) else None
        if o is None:
            return NotImplemented
        return self.q == o.q and (self.q == 0 or self.k == o.k)

    def __hash__(self):
        if self.k == 0:
            return hash(self.q)
        return hash((self.q, self.k))

    def __float__(self):
        return float(self.q) * math.pi**self.k

    def __repr__(self):
        if self.k == 0:
            return str(self.q)
        suffix = "pi" if self.k == 1 else f"pi^{self.k}"
        return f"{self.q}*{suffix}"


def scalar_sign(x) -> int:
    """Exact sign of a Fraction or PiRat (pi > 0)."""
    q = x.q if isinstance(x, PiRat) else fr(x)
    return (q > 0) - (q < 0)


def is_zero(x) -> bool:
    return scalar_sign(x) == 0


def to_float(value, what: str) -> float:
    """``value`` as a float; ValueError naming ``what`` when it lies past the
    float range (it overflows, or a nonzero value rounds to zero)."""
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if math.isinf(out) or (out == 0.0 and value != 0):
        q = value.q if isinstance(value, PiRat) else fr(value)
        exponent = math.log10(abs(q.numerator)) - math.log10(q.denominator)
        exponent += getattr(value, "k", 0) * math.log10(math.pi)
        raise ValueError(f"{what} is about 1e{exponent:+.0f}, outside the range of a float")
    return out


def scalar_json(x):
    """[num, den] for rationals, [num, den, k] for pi-tagged values."""
    if isinstance(x, PiRat) and x.k != 0:
        return [x.q.numerator, x.q.denominator, x.k]
    q = x.q if isinstance(x, PiRat) else fr(x)
    return [q.numerator, q.denominator]


# ---------------------------------------------------------------------------
# Dense exact matrices: lists of lists of Fraction / PiRat.
# ---------------------------------------------------------------------------


def zeros(r: int, c: int):
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n: int):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_scale(a, s):
    return [[s * x for x in r] for r in a]


def is_symmetric(a) -> bool:
    n = len(a)
    if any(len(r) != n for r in a):
        return False
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def ldl_pivots(a):
    """Pivots d_1..d_n of the LDL^T factorization of symmetric ``a``.

    Returns (pivots, witness) where witness is None on success or, when a
    non-positive pivot d_j appears, a vector x with x^T a x = d_j <= 0.
    The leading principal minors are the running products of the pivots.

    Exact elimination keeps every trailing block symmetric, so only its
    upper triangle is updated, and the multiplier l_ij is read from row j;
    a zero multiplier changes nothing and is skipped.
    """
    n = len(a)
    work = [row[:] for row in a]
    lower = identity(n)
    for j in range(n):
        d = work[j][j]
        if scalar_sign(d) <= 0:
            # back-substitute L^T x = e_j for the failure direction
            x = [Fraction(0)] * n
            x[j] = Fraction(1)
            for i in range(j - 1, -1, -1):
                x[i] = -sum((lower[r][i] * x[r] for r in range(i + 1, j + 1)), Fraction(0))
            pivots = [work[i][i] for i in range(j + 1)]
            return pivots, x
        pivot_row = work[j]
        for i in range(j + 1, n):
            if pivot_row[i] == 0:
                continue
            lij = pivot_row[i] / d
            lower[i][j] = lij
            row = work[i]
            for k2 in range(i, n):
                row[k2] = row[k2] - lij * pivot_row[k2]
    return [work[i][i] for i in range(n)], None


def check_spd(a):
    """(ok, detail) by shape, exact symmetry, then LDL^T pivot signs."""
    n, widths = len(a), {len(row) for row in a}
    if widths - {n}:
        return False, f"not square: {n} x {'/'.join(map(str, sorted(widths)))}"
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                return False, f"asymmetric at ({i + 1},{j + 1}): {a[i][j]} vs {a[j][i]}"
    pivots, witness = ldl_pivots(a)
    if witness is not None:
        k = len(pivots)
        wtxt = "[" + ", ".join(str(x) for x in witness) + "]"
        return False, (
            f"leading minor {k} is non-positive (pivot {pivots[-1]}); witness x with x^T A x <= 0: {wtxt}"
        )
    return True, "symmetric positive definite"


def row_reduce(a, ncols: int):
    """Exact Gauss-Jordan elimination to reduced row echelon form.

    Pivots are sought in the first ``ncols`` columns; later columns are
    right-hand sides.  Returns ``(rows, pivot_cols)``; the rank is
    ``len(pivot_cols)``.
    """
    work = [row[:] for row in a]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, len(work)) if not is_zero(work[r][col])), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        d = work[rank][col]
        work[rank] = [x / d for x in work[rank]]
        for r in range(len(work)):
            if r != rank and not is_zero(work[r][col]):
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        pivots.append(col)
    return work, pivots


def mat_inverse(a):
    """Exact inverse: row-reduce ``[a | I]`` and read off the right half."""
    n = len(a)
    work, pivots = row_reduce([row[:] + e for row, e in zip(a, identity(n))], n)
    if len(pivots) < n:
        raise ExactError("matrix is singular")
    return [row[n:] for row in work]
