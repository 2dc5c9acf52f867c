"""Constant-coefficient matrix differential operators and their boundary calculus.

An operator F maps an n-vector field w to the m-vector field

    F w = P0 w + sum_k sum_i Pk(k, i) d^i/dx_k^i w,

with all coefficient matrices constant and rational.  Only pure powers of a
single axis derivative are representable; mixed partials are excluded by
construction.  The formal adjoint flips the sign of odd-order terms, and the
difference  integral(v^T F w - w^T F* v)  collapses to a boundary quadratic
form between jets of w and v.  ``ibp_residual`` evaluates that identity with
exact arithmetic and must return rational zero for every valid operator: it is
the master oracle for this module, and the only place that pairs jets with a
boundary form or integrates the volume mismatch.  Its ``form=`` and
``adjoint=`` keywords default to the operator's own ``BoundaryForm`` and
``formal_adjoint()``; the verify suite's energy check passes the stored ones of
a compiled system, and its mutation suite passes corrupted ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import ExactError, fr, mat_scale, transpose, zeros
from .poly import Poly, dot, mat_apply

Matrix = List[List[Fraction]]


class DiffOpMatrix:
    """The operator family {P0, Pk(k, i)} with output dim m, input dim n.

    ``axes`` names the spatial coordinates (axis k = axes[k-1]); ``order`` is
    the highest derivative order N actually present (tight: some Pk(., N) is
    nonzero whenever order > 0).
    """

    __slots__ = ("m", "n", "ell", "axes", "order", "p0", "pk")

    def __init__(self, m: int, n: int, axes: Sequence[str], p0=None, pk=None):
        self.m = int(m)
        self.n = int(n)
        self.axes = tuple(axes)
        self.ell = len(self.axes)
        self.p0 = [[fr(x) for x in row] for row in (p0 if p0 is not None else zeros(m, n))]
        if len(self.p0) != m or any(len(r) != n for r in self.p0):
            raise ExactError("P0 must be m x n")
        clean: Dict[Tuple[int, int], Matrix] = {}
        for (k, i), mat_ in (pk or {}).items():
            k, i = int(k), int(i)
            if not 1 <= k <= self.ell:
                raise ExactError(f"axis {k} out of range 1..{self.ell}")
            if i < 1:
                raise ExactError("derivative order must be >= 1")
            mat_ = [[fr(x) for x in row] for row in mat_]
            if len(mat_) != m or any(len(r) != n for r in mat_):
                raise ExactError(f"Pk({k},{i}) must be m x n")
            if any(x != 0 for row in mat_ for x in row):
                clean[(k, i)] = mat_
        self.pk = clean
        self.order = max((i for (_, i) in clean), default=0)

    @classmethod
    def from_symbols(cls, rows: Sequence[Sequence[Poly]], axes: Sequence[str]) -> "DiffOpMatrix":
        """The operator whose entry (r, c) is ``rows[r][c]``, a polynomial in
        the derivative symbols (symbol k stands for d/d axes[k-1]).

        A constant goes to P0 and ``c d_k^i`` to Pk(k, i); a monomial in two
        symbols is a mixed partial, which the operator class cannot hold.
        """
        m, n = len(rows), len(rows[0]) if rows else 0
        if not n or any(len(row) != n for row in rows):
            raise ExactError("operator matrix must be non-empty and not ragged")
        p0 = zeros(m, n)
        pk: Dict[Tuple[int, int], Matrix] = {}
        for r, row in enumerate(rows):
            for c, entry in enumerate(row):
                for exps, coeff in entry.terms.items():
                    powers = [(k, i) for k, i in enumerate(exps, 1) if i]
                    if not powers:
                        p0[r][c] = coeff
                    elif len(powers) == 1:
                        pk.setdefault(powers[0], zeros(m, n))[r][c] = coeff
                    else:
                        mono = Poly(entry.coords, {exps: 1})
                        raise ExactError(
                            f"mixed-derivative term {mono} in entry [{r}][{c}]: the operator "
                            "class admits pure d_k^i terms only"
                        )
        return cls(m, n, axes, p0, dict(sorted(pk.items())))

    # -- coefficient access --------------------------------------------------
    def coeff(self, k: int, i: int) -> Matrix:
        return self.pk.get((k, i), zeros(self.m, self.n))

    def entry_is_zero(self, r: int, c: int) -> bool:
        if self.p0[r][c] != 0:
            return False
        return all(mat_[r][c] == 0 for mat_ in self.pk.values())

    def row_is_zero(self, r: int) -> bool:
        return all(self.entry_is_zero(r, c) for c in range(self.n))

    def col_is_zero(self, c: int) -> bool:
        return all(self.entry_is_zero(r, c) for r in range(self.m))

    def entry_str(self, r: int, c: int) -> str:
        """Render one entry, e.g. '-1', 'd1', 'd1 + 2*d2^2'."""
        parts = []
        if self.p0[r][c] != 0:
            parts.append(str(self.p0[r][c]))
        for (k, i) in sorted(self.pk):
            coeff = self.pk[(k, i)][r][c]
            if coeff == 0:
                continue
            d = f"d{k}" if i == 1 else f"d{k}^{i}"
            if coeff == 1:
                parts.append(d)
            elif coeff == -1:
                parts.append(f"-{d}")
            else:
                parts.append(f"{coeff}*{d}")
        if not parts:
            return "0"
        return " + ".join(parts).replace("+ -", "- ")

    def __eq__(self, other):
        if not isinstance(other, DiffOpMatrix):
            return NotImplemented
        return (
            self.m == other.m
            and self.n == other.n
            and self.axes == other.axes
            and self.p0 == other.p0
            and self.pk == other.pk
        )

    def __str__(self):
        return "\n".join(
            "[" + ", ".join(self.entry_str(r, c) for c in range(self.n)) + "]"
            for r in range(self.m)
        )

    __repr__ = __str__

    # -- core operations -------------------------------------------------------
    def formal_adjoint(self) -> "DiffOpMatrix":
        """F* v = P0^T v + sum (-1)^i Pk(k,i)^T d_k^i v."""
        pk = {
            (k, i): mat_scale(transpose(mat_), Fraction((-1) ** i))
            for (k, i), mat_ in self.pk.items()
        }
        return DiffOpMatrix(self.n, self.m, self.axes, transpose(self.p0), pk)

    def apply(self, w: Sequence[Poly]) -> List[Poly]:
        """Apply to a vector of polynomials over (a superset of) the axes."""
        if len(w) != self.n:
            raise ExactError(f"operator expects {self.n} fields, got {len(w)}")
        out = mat_apply(self.p0, w)
        for (k, i), mat_ in self.pk.items():
            name = self.axes[k - 1]
            d = list(w)
            for _ in range(i):
                d = [f.diff(name) for f in d]
            out = [a + b for a, b in zip(out, mat_apply(mat_, d))]
        return out


def jet(fields: Sequence[Poly], order: int, axes: Sequence[str]) -> List[Poly]:
    """Stack a vector field with its axis derivatives up to ``order - 1``.

    Layout: [w; d1 w .. dl w; d1^2 w .. dl^2 w; ...], each block holding all
    components of w.  Block (j, k) is w differentiated j times along axis k;
    mixed derivatives never occur in the pairing and are not stacked.
    """
    out = list(fields)
    for j in range(1, max(order, 1)):
        for name in axes:
            block = list(fields)
            for _ in range(j):
                block = [f.diff(name) for f in block]
            out.extend(block)
    return out


def jet_layout(n_fields: int, order: int, ell: int) -> int:
    """Length of the jet vector for an n_fields-vector; for order >= 1 this is
    also where the jet block of that order starts."""
    return n_fields * (1 + (max(order, 1) - 1) * ell)


class BoundaryForm:
    """The boundary quadratic form of an operator: one exact matrix Q_k per
    axis.  On a box the faces with outward normal +-e_k carry +-Q_k, so the
    boundary term is the flux of jet(w)^T Q_k jet(v) summed over the axes.

    Each Q_k has block layout (rows index the jet of the input side w,
    columns the jet of the output side v):

        [ P      -W_2     W_3    ...  (-1)^(N-1) W_N ]
        [ V_2    -L_3     L_4    ...                 ]
        [ V_3    -L_4     ...                        ]
        [ ...                                        ]
        [ V_N     0       ...                   0    ]

    where P = Pk(k,1)^T, W_i places Pk(k,i)^T in the axis-k slot of a block
    row, V_i in that of a block column, and L_i on the axis-k diagonal.
    Entries whose order index exceeds N are zero.
    """

    __slots__ = ("op", "rows", "cols", "q_axes")

    def __init__(self, op: DiffOpMatrix):
        self.op = op
        self.rows = jet_layout(op.n, op.order, op.ell)
        self.cols = jet_layout(op.m, op.order, op.ell)
        self.q_axes = [self._assemble_axis(k) for k in range(1, op.ell + 1)]

    def _assemble_axis(self, k: int) -> Matrix:
        op = self.op
        n, m, ell = op.n, op.m, op.ell
        order = max(op.order, 1)
        big = zeros(self.rows, self.cols)

        def paste(r0, c0, block):
            for i, row in enumerate(block):
                for j, x in enumerate(row):
                    big[r0 + i][c0 + j] = x

        def pt(i):
            return transpose(op.coeff(k, i))  # n x m

        # (0, 0): axis-k share of P
        paste(0, 0, pt(1))
        # (0, c): (-1)^c W_{c+1}; only the axis-k slot of the block row
        for c in range(1, order):
            block = mat_scale(pt(c + 1), Fraction((-1) ** c))
            paste(0, jet_layout(m, c, ell) + (k - 1) * m, block)
        # (r, 0): V_{r+1}; only the axis-k slot of the block column
        for r in range(1, order):
            paste(jet_layout(n, r, ell) + (k - 1) * n, 0, pt(r + 1))
        # (r, c): (-1)^c L_{r+c+1}, diagonal in the axis index
        for r in range(1, order):
            for c in range(1, order):
                i = r + c + 1
                if i > order:
                    continue
                block = mat_scale(pt(i), Fraction((-1) ** c))
                paste(jet_layout(n, r, ell) + (k - 1) * n, jet_layout(m, c, ell) + (k - 1) * m, block)
        return big


@dataclass(frozen=True)
class DomainSpec:
    """An axis-aligned interval / rectangle / box with rational bounds."""

    axes: Tuple[str, ...]
    bounds: Tuple[Tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if len(self.axes) != len(self.bounds):
            raise ExactError("one bound pair per axis required")
        if not 1 <= len(self.axes) <= 3:
            raise ExactError("supported spatial dimensions: 1, 2, 3")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ExactError(f"empty axis range ({lo}, {hi})")

    @staticmethod
    def interval(lo, hi, axis: str = "z1") -> "DomainSpec":
        return DomainSpec((axis,), ((fr(lo), fr(hi)),))

    @staticmethod
    def rectangle(x0, x1, y0, y1, axes=("z1", "z2")) -> "DomainSpec":
        return DomainSpec(tuple(axes), ((fr(x0), fr(x1)), (fr(y0), fr(y1))))

    @staticmethod
    def box(bounds, axes=("z1", "z2", "z3")) -> "DomainSpec":
        return DomainSpec(tuple(axes), tuple((fr(a), fr(b)) for a, b in bounds))

    @property
    def ell(self) -> int:
        return len(self.axes)

    def integrate(self, p: Poly) -> Fraction:
        """Exact integral of a polynomial over the whole domain."""
        acc = p
        for name, (lo, hi) in zip(self.axes, self.bounds):
            acc = acc.integrate(name, lo, hi)
        return acc.constant_value()

    def flux(self, p: Poly, axis: int) -> Fraction:
        """Exact integral of ``p n_axis`` over the boundary, ``axis`` indexing
        ``axes`` from 0.  The faces with normal +-e_axis differ only in sign,
        so this is ``p|hi - p|lo`` along the axis integrated over the other
        axes (a difference of endpoint values for ell = 1)."""
        name = self.axes[axis]
        lo, hi = self.bounds[axis]
        acc = p.subs({name: hi}) - p.subs({name: lo})
        for i, (other, (a, b)) in enumerate(zip(self.axes, self.bounds)):
            if i != axis:
                acc = acc.integrate(other, a, b)
        return acc.constant_value()


def _pair(u: Sequence[Poly], mat_: Matrix, v: Sequence[Poly]) -> Poly:
    """u^T M v, factored by rows as sum_i u_i (sum_j M_ij v_j): one
    polynomial product per nonzero row instead of one per nonzero entry."""
    return dot(u, mat_apply(mat_, v))


def boundary_pairing(
    op: DiffOpMatrix,
    v: Sequence[Poly],
    w: Sequence[Poly],
    dom: DomainSpec,
    form: Optional[BoundaryForm] = None,
) -> Fraction:
    """Boundary side of the adjoint identity via the assembled Q form
    (``form`` defaults to the operator's own): one flux per axis."""
    if form is None:
        form = BoundaryForm(op)
    jw = jet(w, op.order, op.axes)
    jv = jet(v, op.order, op.axes)
    return sum((dom.flux(_pair(jw, q, jv), a) for a, q in enumerate(form.q_axes)), Fraction(0))


def boundary_pairing_sum_form(
    op: DiffOpMatrix, v: Sequence[Poly], w: Sequence[Poly], dom: DomainSpec
) -> Fraction:
    """Boundary side written as the raw alternating triple sum; used to
    cross-check the assembled block layout."""
    total = Fraction(0)
    for (k, i), pki in op.pk.items():
        name = op.axes[k - 1]
        for j in range(1, i + 1):
            sign = Fraction((-1) ** (j - 1))
            dw = list(w)
            for _ in range(i - j):
                dw = [f.diff(name) for f in dw]
            dv = list(v)
            for _ in range(j - 1):
                dv = [f.diff(name) for f in dv]
            total += sign * dom.flux(_pair(dw, transpose(pki), dv), k - 1)
    return total


def volume_mismatch(
    op: DiffOpMatrix,
    v: Sequence[Poly],
    w: Sequence[Poly],
    dom: DomainSpec,
    adjoint: Optional[DiffOpMatrix] = None,
) -> Fraction:
    """integral_Omega (v^T F w - w^T F* v) dx, exactly (``adjoint`` stands in
    for F*; it defaults to the formal adjoint)."""
    if len(v) != op.m or len(w) != op.n:
        raise ExactError("field dimensions do not match the operator")
    if adjoint is None:
        adjoint = op.formal_adjoint()
    return dom.integrate(dot(v, op.apply(w)) - dot(w, adjoint.apply(v)))


def ibp_residual(
    op: DiffOpMatrix,
    v: Sequence[Poly],
    w: Sequence[Poly],
    dom: DomainSpec,
    form: Optional[BoundaryForm] = None,
    adjoint: Optional[DiffOpMatrix] = None,
) -> Fraction:
    """Residual of the integration-by-parts identity; exactly zero for every
    operator of the supported class and any polynomial fields, as long as
    ``form`` and ``adjoint`` are left at (or equal) the operator's own."""
    return volume_mismatch(op, v, w, dom, adjoint=adjoint) - boundary_pairing(
        op, v, w, dom, form=form
    )
