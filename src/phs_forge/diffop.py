"""Constant-coefficient matrix differential operators and their boundary calculus.

An operator F maps an n-vector field w to the m-vector field

    F w = P0 w + sum_k sum_i Pk(k, i) d^i/dx_k^i w,

with all coefficient matrices constant and rational.  Only pure powers of a
single axis derivative are representable; mixed partials are excluded by
construction.  The formal adjoint flips the sign of odd-order terms, and the
difference  integral(v^T F w - w^T F* v)  collapses to a boundary quadratic
form between jets of w and v.  ``BoundaryForm`` builds that form from one
formula, the exact quotient of  F(eta)^T - F*(zeta)  by  eta_k + zeta_k  (eta
for derivatives of w, zeta for those of v).  A jet stacks a field with its
axis derivatives in the block order of ``jet_blocks``; ``jet``, the rows and
columns of ``BoundaryForm``, the monomials ``ibp_symbol_residual`` reads and
the port labels of ``build.boundary_port_map`` all take it from there.
Entries render as polynomials in ``d1..dl`` (``symbols``), through
``Poly.__str__``.

The identity is checked two ways.  ``ibp_symbol_residual`` proves it: for
this operator class it holds if and only if a finite matrix of polynomials in
(eta, zeta) is zero.  ``IbpOracle``, the one pairing, evaluates it with exact
arithmetic on given fields and must return rational zero for every valid
operator.  These two alone take ``form=`` and ``adjoint=``, defaulting to the
operator's own ``BoundaryForm`` and ``formal_adjoint()``: the verify suite's
energy check passes the stored ones of a compiled system, its mutation suite
corrupted ones.  ``ibp_residual`` and ``volume_mismatch`` are one-call
oracles with the operator's own.  (The calculus of two-variable polynomial
matrices: Willems & Trentelman, "On quadratic differential forms", SIAM J.
Control Optim. 36(5), 1998.)

Every integral of the identity, volume term or boundary flux, is ``u^T M v``
over the box or through the two faces of one axis, integrated by one kernel
that never builds the product polynomial.  ``_encode`` turns ``M`` into
integer rows over a common denominator, ``_flatten`` restricts each factor
to a face and maps its terms to integers at flat indices, ``_contract`` sums
``n_a n_b mu[k_a + k_b]`` against a table of box moments (``_moments``, from
``poly.moment_weights``, cached per bounds, skipped axis and top degree),
and ``_flux`` takes the difference of the two faces.  An oracle encodes its
matrices once and per field pair only flattens and contracts;
``boundary_pairing_sum_form``, the reference for the boundary side, calls
``_flux`` once per term.  The section Gram matrices are not pairings:
``build._section_gram`` integrates them through ``Section.integrate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import gcd, lcm
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .exact import ExactError, fr, mat_scale, transpose, zeros
from .poly import Poly, _over_lcm, mat_apply, moment_weights, power_table

Matrix = List[List[Fraction]]
Block = Tuple[int, int]


def derivative_symbols(ell: int) -> Tuple[str, ...]:
    """The derivative symbols ``d1..d_ell``: ``d_k`` stands for d/dx_k."""
    return tuple(f"d{k}" for k in range(1, ell + 1))


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

    def symbols(self) -> List[List[Poly]]:
        """The rows ``from_symbols`` reads back to this operator: entry (r, c)
        is ``P0[r][c] + sum Pk(k, i)[r][c] d_k^i``, a polynomial in
        ``derivative_symbols(ell)``."""
        unit, coords = (0,) * self.ell, derivative_symbols(self.ell)
        blocks = [(unit, self.p0)]
        blocks += [(unit[: k - 1] + (i,) + unit[k:], p) for (k, i), p in self.pk.items()]
        # the exponent tuples of the blocks are distinct
        return [
            [Poly._raw(coords, *_over_lcm({e: p[r][c] for e, p in blocks if p[r][c]}))
             for c in range(self.n)]
            for r in range(self.m)
        ]

    # -- coefficient access --------------------------------------------------
    def coeff(self, k: int, i: int) -> Matrix:
        return self.pk.get((k, i), zeros(self.m, self.n))

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
        return "\n".join("[" + ", ".join(map(str, row)) + "]" for row in self.symbols())

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
            out = [a + b for a, b in zip(out, mat_apply(mat_, _diff(w, self.axes[k - 1], i)))]
        return out


def _diff(fields: Sequence[Poly], name: str, times: int) -> List[Poly]:
    """Every field differentiated ``times`` times along the axis ``name``."""
    for _ in range(times):
        fields = [f.diff(name) for f in fields]
    return list(fields)


@lru_cache(maxsize=64)
def jet_blocks(order: int, ell: int) -> Tuple[Block, ...]:
    """The block order of a jet, the one place it is stated: block (0, 0) is
    the field itself, block (j, k) the field differentiated j times along
    axis k, for j = 1..order-1 and k = 1..ell.  Each block holds all
    components; mixed derivatives never occur in the pairing and have no
    block."""
    return ((0, 0),) + tuple((j, k) for j in range(1, max(order, 1)) for k in range(1, ell + 1))


def jet(fields: Sequence[Poly], order: int, axes: Sequence[str]) -> List[Poly]:
    """Stack a vector field with its axis derivatives in ``jet_blocks``
    order: [w; d1 w .. dl w; d1^2 w .. dl^2 w; ...]."""
    # block (0, 0) is differentiated zero times, along any axis
    return [f for j, k in jet_blocks(order, len(axes)) for f in _diff(fields, axes[k - 1], j)]


def jet_layout(n_fields: int, order: int, ell: int) -> int:
    """Length of the jet vector of an n_fields-vector."""
    return n_fields * len(jet_blocks(order, ell))


class BoundaryForm:
    """The boundary quadratic form of an operator: one exact matrix Q_k per
    axis.  On a box the faces with outward normal +-e_k carry +-Q_k, so the
    boundary term is the flux of jet(w)^T Q_k jet(v) summed over the axes.

    Rows index the jet of the input side w, columns the jet of the output
    side v.  In symbols (eta for derivatives of w, zeta for those of v), a
    term Pk(k, i) contributes Pk(k, i)^T (eta_k^i - (-zeta_k)^i) to
    F(eta)^T - F*(zeta), and

        eta^i - (-zeta)^i = (eta + zeta) sum_c eta^(i-1-c) (-zeta)^c,

    so Q_k is the exact quotient by eta_k + zeta_k: term (k, i) puts
    (-1)^c Pk(k, i)^T at row block (i-1-c, k) and column block (c, k) of
    Q_k, for c = 0..i-1 (block (0, k) is block (0, 0)).
    ``ibp_symbol_residual`` checks that quotient.
    """

    __slots__ = ("op", "rows", "cols", "q_axes")

    def __init__(self, op: DiffOpMatrix):
        self.op = op
        self.rows = jet_layout(op.n, op.order, op.ell)
        self.cols = jet_layout(op.m, op.order, op.ell)
        self.q_axes = [zeros(self.rows, self.cols) for _ in range(op.ell)]
        for (k, i), mat_ in op.pk.items():
            q = self.q_axes[k - 1]
            for c in range(i):
                rows, cols = self.block((i - 1 - c, k), (c, k))
                for b, row in enumerate(mat_):
                    for a, x in enumerate(row):
                        q[rows[a]][cols[b]] = (-1) ** c * x

    def block(self, row: Block, col: Block) -> Tuple[range, range]:
        """The indices of row block ``row`` (of the jet of w) and column block
        ``col`` (of the jet of v) in every Q_a; blocks are ``jet_blocks``
        entries, and (0, k) names (0, 0)."""
        index = jet_blocks(self.op.order, self.op.ell).index
        r, c = (index(b if b[0] else (0, 0)) for b in (row, col))
        n, m = self.op.n, self.op.m
        return range(r * n, r * n + n), range(c * m, c * m + m)


@dataclass(frozen=True)
class DomainSpec:
    """An axis-aligned interval / rectangle / box with rational bounds, over
    distinct axis names; every bound is stored as a ``Fraction`` (a float is
    refused)."""

    axes: Tuple[str, ...]
    bounds: Tuple[Tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if len(self.axes) != len(self.bounds):
            raise ExactError("one bound pair per axis required")
        if not 1 <= len(self.axes) <= 3:
            raise ExactError("supported spatial dimensions: 1, 2, 3")
        if len(set(self.axes)) != len(self.axes):
            raise ExactError(f"duplicate axis names: {tuple(self.axes)}")
        bounds = tuple((fr(lo), fr(hi)) for lo, hi in self.bounds)
        for lo, hi in bounds:
            if not lo < hi:
                raise ExactError(f"empty axis range ({lo}, {hi})")
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "bounds", bounds)

    @staticmethod
    def interval(lo, hi, axis: str = "z1") -> "DomainSpec":
        return DomainSpec((axis,), ((lo, hi),))

    @staticmethod
    def rectangle(x0, x1, y0, y1, axes=("z1", "z2")) -> "DomainSpec":
        return DomainSpec(axes, ((x0, x1), (y0, y1)))

    @staticmethod
    def box(bounds, axes=("z1", "z2", "z3")) -> "DomainSpec":
        return DomainSpec(axes, bounds)

    @property
    def ell(self) -> int:
        return len(self.axes)

    def _own(self, polys: Iterable[Poly]) -> None:
        """Refuse a factor that is not over ``axes``."""
        for p in polys:
            if p.coords != self.axes:
                raise ExactError(f"factor over {p.coords} paired on a domain over {self.axes}")


@lru_cache(maxsize=256)
def _moments(bounds, skip: int, top: int):
    """``(mu, den, index)`` for the box ``bounds`` without axis ``skip``.

    ``index`` maps every exponent tuple with entries up to ``top`` to its flat
    index ``sum_k e_k (top + 1)^k``, axis ``skip`` left out of the sum.
    Exponents add without carries, so the index of a product is the sum of
    the indices.  ``mu[k] / den`` is the integral over the box of the
    monomial at index ``k``.
    """
    n = top + 1
    mu, den, places = [1], 1, []
    for k, (lo, hi) in enumerate(bounds):
        if k == skip:
            places.append(0)
            continue
        places.append(len(mu))  # this axis is the next digit
        w, axis_den = moment_weights(lo, hi, n)
        g = gcd(axis_den, *w)
        mu = [x * (y // g) for y in w for x in mu]
        den *= axis_den // g
    index = {e: sum(map(mul, e, places)) for e in product(range(n), repeat=len(bounds))}
    return tuple(mu), den, index


def _common_denominator(*matrices: Matrix) -> int:
    """The lcm of the denominators of every entry of ``matrices``."""
    # lcm over a set: a short argument tuple for any matrix size, which
    # keeps the interpreter's tuple free lists (and peak RSS) small
    return lcm(*{x.denominator for mat_ in matrices for row in mat_ for x in row})


def _encode(mat_: Matrix, lm: int) -> List[List[Tuple[int, int]]]:
    """``M`` times ``lm``, a common multiple of its denominators, as integer
    rows: row i lists the nonzero ``(j, lm M_ij)``.  This is the form
    ``_contract`` reads."""
    return [[(j, x.numerator * (lm // x.denominator)) for j, x in enumerate(row) if x] for row in mat_]


def _degree(polys: Iterable[Poly]) -> int:
    """The largest single exponent in any term of ``polys`` (0 if none)."""
    return max((max(map(max, p.num)) for p in polys if p.num), default=0)


def _flatten(polys: Sequence[Poly], index, axis: int = -1, faces=None):
    """Each polynomial as ``{flat index: numerator}`` over one common
    denominator, which is returned too.  Without ``faces`` the result is one
    list; with ``faces``, the power tables (``power_table``) of the upper and
    the lower face value, it is one list per face, the exponent of ``axis``
    folded into the numerator."""
    common = lcm(*{p.den for p in polys})
    if faces is None:
        return [{index[e]: n * (common // p.den) for e, n in p.num.items()} for p in polys], common
    upper, lower = faces
    ups, lows = [], []
    for p in polys:
        s = common // p.den
        up: Dict[int, int] = {}
        low: Dict[int, int] = {}
        for e, n in p.num.items():
            k, j, n = index[e], e[axis], n * s
            if upper[j]:
                up[k] = up.get(k, 0) + n * upper[j]
            if lower[j]:
                low[k] = low.get(k, 0) + n * lower[j]
        ups.append(up)
        lows.append(low)
    return (ups, lows), common


def _contract(us, rows, vs, mu) -> int:
    """``sum_i sum_a u_i[a] sum_b (M v)_i[b] mu[a + b]`` over flat factors, with
    ``rows[i]`` the nonzero ``(j, M_ij)`` of row i."""
    total = 0
    for ui, row in zip(us, rows):
        if not ui or not row:
            continue
        if len(row) == 1:
            j, scale = row[0]
            w = vs[j]
        else:
            scale, w = 1, {}
            get = w.get
            for j, c in row:
                for k, n in vs[j].items():
                    w[k] = get(k, 0) + c * n
        terms = list(w.items())
        total += scale * sum(n * sum([m * mu[k + kb] for kb, m in terms]) for k, n in ui.items())
    return total


def _flux(table, bound, axis: int, du: int, dv: int, u, rows, v) -> Tuple[int, int]:
    """The flux of ``u^T M v`` through the faces ``bound = (lo, hi)`` of
    ``axis``, as ``(numerator, denominator)``.  ``rows`` is ``M`` encoded by
    ``_encode``, whose factor ``lm`` the denominator leaves out; ``table``
    is ``_moments`` without ``axis`` up to ``du + dv``; and ``du``, ``dv``
    bound the exponents of ``u`` and ``v``."""
    mu, den, index = table
    lo, hi = bound
    us, lu = _flatten(u, index, axis, (power_table(hi, du), power_table(lo, du)))
    vs, lv = _flatten(v, index, axis, (power_table(hi, dv), power_table(lo, dv)))
    s_hi, s_lo = (_contract(a, rows, b, mu) for a, b in zip(us, vs))
    q_hi, q_lo = hi.denominator ** (du + dv), lo.denominator ** (du + dv)
    return s_hi * q_lo - s_lo * q_hi, den * lu * lv * q_hi * q_lo


def _block_row(op: DiffOpMatrix) -> Matrix:
    """F's block row ``[P0 | Pk(k, i) ...]``, which pairs with the stacked
    ``[w; d_k^i w; ...]`` (``_stacked``) to give ``F w``."""
    blocks = [op.p0, *op.pk.values()]
    return [[x for b in blocks for x in b[r]] for r in range(op.m)]


def _stacked(op: DiffOpMatrix, w: Sequence[Poly]) -> List[Poly]:
    """``[w; d_k^i w; ...]`` in the order of ``op.pk``; its first block is ``w``."""
    return list(w) + [f for k, i in op.pk for f in _diff(w, op.axes[k - 1], i)]


def _check_pair(op: DiffOpMatrix, form: BoundaryForm, adjoint: DiffOpMatrix) -> None:
    """Refuse a boundary form or an adjoint whose shape does not fit ``op``."""
    rows, cols = jet_layout(op.n, op.order, op.ell), jet_layout(op.m, op.order, op.ell)
    if (adjoint.m, adjoint.n) != (op.n, op.m) or len(form.q_axes) != op.ell or any(
        len(q) != rows or any(len(row) != cols for row in q) for q in form.q_axes
    ):
        raise ExactError("adjoint or boundary form does not match the operator")


def _check_axes(op: DiffOpMatrix, dom: DomainSpec) -> None:
    """Refuse an operator whose axes are not the domain's, in order."""
    if op.axes != dom.axes:
        raise ExactError(f"operator over {op.axes} on a domain over {dom.axes}")


def _check_fields(op: DiffOpMatrix, dom: DomainSpec, v, w) -> None:
    """Refuse fields that do not fit ``op`` or are not over ``dom.axes``."""
    if len(v) != op.m or len(w) != op.n:
        raise ExactError("field dimensions do not match the operator")
    dom._own(chain(v, w))


class IbpOracle:
    """The integration-by-parts identity of one operator on one domain,
    prepared for many field pairs: the one pairing of the module.

    ``residual(v, w)`` is ``integral(v^T F w - w^T F* v)`` minus the
    boundary pairing of the jets through ``Q_a``; ``form`` and ``adjoint``
    default to the operator's own ``BoundaryForm`` and ``formal_adjoint()``.
    The operator must be over the domain's axes, in order.  The constant
    matrices are encoded once, here, as integer rows over one common
    denominator: the volume side as one block matrix ``[[F, 0], [0, -F*]]``
    (``F`` and ``F*`` as block rows, ``_block_row``) against
    ``[w; d w ...; v; d v ...]``, and each ``Q_a``.  A call then finds one
    top exponent, flattens the two stacks once (their first blocks serve as
    ``w`` and ``v``) and each jet once per axis, and contracts.  Moment
    tables are kept per oracle, keyed by ``(skipped axis, top)``.
    """

    __slots__ = ("op", "dom", "adjoint", "_lm", "_volume", "_q", "_tables")

    def __init__(
        self,
        op: DiffOpMatrix,
        dom: DomainSpec,
        form: Optional[BoundaryForm] = None,
        adjoint: Optional[DiffOpMatrix] = None,
    ):
        _check_axes(op, dom)
        if form is None:
            form = BoundaryForm(op)
        if adjoint is None:
            adjoint = op.formal_adjoint()
        _check_pair(op, form, adjoint)
        self.op, self.dom, self.adjoint = op, dom, adjoint
        f, f_star = _block_row(op), _block_row(adjoint)
        self._lm = lm = _common_denominator(f, f_star, *form.q_axes)
        shift = len(f[0])  # [v; d v ...] follows [w; d w ...]
        self._volume = _encode(f, lm) + [
            [(shift + j, -x) for j, x in row] for row in _encode(f_star, lm)
        ]
        self._q = [_encode(q, lm) for q in form.q_axes]
        self._tables: Dict[Tuple[int, int], tuple] = {}

    def _table(self, skip: int, top: int):
        table = self._tables.get((skip, top))
        if table is None:
            table = self._tables[skip, top] = _moments(self.dom.bounds, skip, top)
        return table

    def _checked_degree(self, v: Sequence[Poly], w: Sequence[Poly]) -> int:
        """The one degree bound of a call, after the fields are checked."""
        _check_fields(self.op, self.dom, v, w)
        return _degree(chain(v, w))

    def _volume_part(self, v, w, d: int) -> Fraction:
        mu, den, index = self._table(-1, 2 * d)
        a, la = _flatten(_stacked(self.op, w), index)
        b, lb = _flatten(_stacked(self.adjoint, v), index)
        us = b[: self.op.m] + a[: self.op.n]
        return Fraction(_contract(us, self._volume, a + b, mu), den * la * lb * self._lm)

    def _boundary_part(self, v, w, d: int) -> Fraction:
        op, bounds = self.op, self.dom.bounds
        jw, jv = jet(w, op.order, op.axes), jet(v, op.order, op.axes)
        total = Fraction(0)
        for axis, rows in enumerate(self._q):
            num, den = _flux(self._table(axis, 2 * d), bounds[axis], axis, d, d, jw, rows, jv)
            total += Fraction(num, den * self._lm)
        return total

    def volume(self, v: Sequence[Poly], w: Sequence[Poly]) -> Fraction:
        """integral_Omega (v^T F w - w^T F* v) dx, exactly."""
        return self._volume_part(v, w, self._checked_degree(v, w))

    def boundary(self, v: Sequence[Poly], w: Sequence[Poly]) -> Fraction:
        """The boundary side: one flux of ``jet(w)^T Q_a jet(v)`` per axis."""
        return self._boundary_part(v, w, self._checked_degree(v, w))

    def residual(self, v: Sequence[Poly], w: Sequence[Poly]) -> Fraction:
        """``volume(v, w) - boundary(v, w)``: exactly zero for every operator
        of the supported class and any polynomial fields, as long as the
        form and the adjoint are (or equal) the operator's own."""
        d = self._checked_degree(v, w)
        return self._volume_part(v, w, d) - self._boundary_part(v, w, d)


def boundary_pairing_sum_form(
    op: DiffOpMatrix, v: Sequence[Poly], w: Sequence[Poly], dom: DomainSpec
) -> Fraction:
    """Boundary side written as the raw alternating triple sum

        sum_(k, i) sum_(j = 1..i) (-1)^(j-1) flux_k (d_k^(i-j) w)^T Pk(k, i)^T d_k^(j-1) v,

    a reference for the tests and the benchmark's replay.  Each term is one
    ``_flux`` call, independent of ``IbpOracle`` and ``BoundaryForm``."""
    _check_axes(op, dom)
    _check_fields(op, dom, v, w)
    total = Fraction(0)
    for (k, i), pki in op.pk.items():
        lm = _common_denominator(pki)
        rows, name, axis = _encode(transpose(pki), lm), op.axes[k - 1], k - 1
        for j in range(1, i + 1):
            dw, dv = _diff(w, name, i - j), _diff(v, name, j - 1)
            du, dd = _degree(dw), _degree(dv)
            table = _moments(dom.bounds, axis, du + dd)
            num, den = _flux(table, dom.bounds[axis], axis, du, dd, dw, rows, dv)
            total += (-1) ** (j - 1) * Fraction(num, den * lm)
    return total


def volume_mismatch(
    op: DiffOpMatrix, v: Sequence[Poly], w: Sequence[Poly], dom: DomainSpec
) -> Fraction:
    """integral_Omega (v^T F w - w^T F* v) dx: ``IbpOracle(op, dom).volume``."""
    return IbpOracle(op, dom).volume(v, w)


def ibp_residual(
    op: DiffOpMatrix, v: Sequence[Poly], w: Sequence[Poly], dom: DomainSpec
) -> Fraction:
    """The identity's residual: ``IbpOracle(op, dom).residual``."""
    return IbpOracle(op, dom).residual(v, w)


def ibp_symbol_residual(
    op: DiffOpMatrix,
    form: Optional[BoundaryForm] = None,
    adjoint: Optional[DiffOpMatrix] = None,
) -> List[List[Poly]]:
    """Lemma 1 as a polynomial identity: the n x m matrix

        F(eta)^T - F*(zeta) - sum_a (zeta_a + eta_a) Q_a(eta, zeta)

    over ``dw1..dwl`` (eta, the derivatives of w) and ``dv1..dvl`` (zeta,
    those of v).  ``Q_a(eta, zeta)`` reads ``form`` in ``jet_blocks``
    order: row block (j, k) is ``eta_k^j`` and column block (j, k) is
    ``zeta_k^j``.  The coefficients are constant and no partials mix, so the
    identity behind ``ibp_residual`` holds for all fields if and only if
    every entry is zero: a zero matrix is a proof, a nonzero entry a witness.
    ``form`` and ``adjoint`` default as in ``IbpOracle``.
    """
    if form is None:
        form = BoundaryForm(op)
    if adjoint is None:
        adjoint = op.formal_adjoint()
    _check_pair(op, form, adjoint)
    n, m, ell = op.n, op.m, op.ell
    zero = (0,) * (2 * ell)
    # (component, exponents) at each jet index; side 0 is eta, side ell zeta
    rows, cols = (
        [(p, zero[: s + k - 1] + (j,) + zero[s + k :] if j else zero)
         for j, k in jet_blocks(op.order, ell) for p in range(size)]
        for size, s in ((n, 0), (m, ell))
    )
    # integer numerators over one denominator, the lcm of every coefficient's
    fw, fv = op.symbols(), adjoint.symbols()
    den = lcm(
        *{p.den for f in (fw, fv) for row in f for p in row},
        *{x.denominator for q_a in form.q_axes for row in q_a for x in row},
    )
    acc = [[{} for _ in range(m)] for _ in range(n)]

    def add(p, q, e, x):
        acc[p][q][e] = acc[p][q].get(e, 0) + x

    pad = zero[:ell]
    for p in range(n):
        for q in range(m):
            w, v = fw[q][p], fv[p][q]
            for e, x in w.num.items():
                add(p, q, e + pad, x * (den // w.den))
            for e, x in v.num.items():
                add(p, q, pad + e, -x * (den // v.den))
    units = [zero[:s] + (1,) + zero[s + 1 :] for s in range(2 * ell)]
    for a, q_a in enumerate(form.q_axes):
        for (p, er), row in zip(rows, q_a):
            for (q, ec), x in zip(cols, row):
                if x:
                    x = x.numerator * (den // x.denominator)
                    for s in (a, ell + a):  # times eta_a + zeta_a
                        add(p, q, tuple(map(sum, zip(er, ec, units[s]))), -x)
    coords = tuple(f"d{side}{k}" for side in "wv" for k in range(1, ell + 1))
    return [[Poly._raw(coords, {e: x for e, x in t.items() if x}, den) for t in row] for row in acc]

