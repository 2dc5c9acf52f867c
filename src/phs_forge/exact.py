"""Exact scalar arithmetic and small dense linear algebra.

Every coefficient in the symbolic pipeline is a ``fractions.Fraction``.
Circular cross sections introduce a factor of pi into section moments, so
scalars are either plain Fractions or :class:`PiRat`, a nonzero rational
multiple of a nonzero integer power of pi; ``scalar_parts`` reads either as
``(q, k)``.  Sums mixing different powers of pi are refused: they
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

    Canonical by construction: ``PiRat(q, k)`` returns the Fraction ``q``
    when ``q`` or ``k`` is zero, so a PiRat is never zero and never rational,
    and every arithmetic result passes through that one constructor.  Zero
    and rational values are Fractions everywhere, and only a zero is falsy.
    Addition is only defined between equal powers of pi (or with zero);
    multiplication and division are unrestricted.  This is enough for every
    cross-section moment the builders produce, where each matrix entry and
    each leading minor is a single power of pi times a rational.
    """

    __slots__ = ("q", "k")

    def __new__(cls, q, k: int = 0):
        q, k = fr(q), int(k)
        if not q or not k:
            return q
        self = super().__new__(cls)
        self.q, self.k = q, k
        return self

    def __getnewargs__(self):
        return self.q, self.k

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        q, k = scalar_parts(other)
        if q and k != self.k:
            raise ExactError(f"cannot add pi^{self.k} and pi^{k} terms exactly")
        return PiRat(self.q + q, self.k)

    __radd__ = __add__

    def __neg__(self):
        return PiRat(-self.q, self.k)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        q, k = scalar_parts(other)
        return PiRat(self.q * q, self.k + k)

    __rmul__ = __mul__

    def __truediv__(self, other):
        q, k = scalar_parts(other)
        if not q:
            raise ZeroDivisionError("division by exact zero")
        return PiRat(self.q / q, self.k - k)

    def __rtruediv__(self, other):
        q, k = scalar_parts(other)
        return PiRat(q / self.q, k - self.k)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ExactError("only non-negative integer powers")
        return PiRat(self.q**n, self.k * n)

    def __eq__(self, other):
        # a PiRat is never rational, so it equals no int or Fraction
        if not isinstance(other, PiRat):
            return NotImplemented
        return self.q == other.q and self.k == other.k

    def __hash__(self):
        return hash((self.q, self.k))

    def __float__(self):
        # q / 2**shift lies in (1/2, 2), so q * pi**k is a float whenever
        # the value is, even where q alone is not
        n, d = self.q.numerator, self.q.denominator
        shift = n.bit_length() - d.bit_length()
        m = n / (d << shift) if shift >= 0 else (n << -shift) / d
        return math.ldexp(m * math.pi**self.k, shift)

    def __repr__(self):
        suffix = "pi" if self.k == 1 else f"pi^{self.k}"
        return f"{self.q}*{suffix}"


def scalar_parts(x):
    """``(q, k)`` with ``x = q * pi**k`` (``k = 0`` for ints and Fractions)."""
    if isinstance(x, PiRat):
        return x.q, x.k
    return fr(x), 0


def scalar_sign(x) -> int:
    """Exact sign of a Fraction or PiRat (pi > 0)."""
    q, _ = scalar_parts(x)
    return (q > 0) - (q < 0)


def to_float(value, what: str) -> float:
    """``value`` as a float; ValueError naming ``what`` when it lies past the
    float range (it overflows, or a nonzero value rounds to zero)."""
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if math.isinf(out) or (out == 0.0 and value != 0):
        q, k = scalar_parts(value)
        exponent = math.log10(abs(q.numerator)) - math.log10(q.denominator) + k * math.log10(math.pi)
        raise ValueError(f"{what} is about 1e{exponent:+.0f}, outside the range of a float")
    return out


def scalar_json(x):
    """[num, den] for rationals, [num, den, k] for pi-tagged values."""
    q, k = scalar_parts(x)
    return [q.numerator, q.denominator, k] if k else [q.numerator, q.denominator]


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
    ``len(pivot_cols)``.  Zeros are skipped: every zero is a Fraction (a
    PiRat never is), so ``0 / d`` and ``x - f * 0`` would change nothing.
    """
    work = [row[:] for row in a]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        d = work[rank][col]
        pivot = work[rank] = [x / d if x else x for x in work[rank]]
        for r, row in enumerate(work):
            f = row[col]
            if r != rank and f:
                work[r] = [x - f * y if y else x for x, y in zip(row, pivot)]
        pivots.append(col)
    return work, pivots


def mat_inverse(a):
    """Exact inverse: row-reduce ``[a | I]`` and read off the right half."""
    n = len(a)
    work, pivots = row_reduce([row[:] + e for row, e in zip(a, identity(n))], n)
    if len(pivots) < n:
        raise ExactError("matrix is singular")
    return [row[n:] for row in work]
