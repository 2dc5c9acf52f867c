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
``_derivatives`` is the one derivative table, of ``Poly`` fields or of the
oracle's flat ones: ``jet`` and the oracle read jets off it (``_jet``), and
``apply``, the oracle and the sum form read it.
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
integer rows over a common denominator.  ``_flatten`` maps each field once to
integers at flat indices, exponent ``e_k`` the digit of weight ``n^k`` with
``n = 2d + 1`` for ``d`` the top exponent of the fields, so the index of a
product is the sum of the indices; one call (``_flat_pairs``) flattens both
field sets of a pair through one map from exponent tuple to flat index,
filled once per distinct tuple, whose keys also give ``d``.  The derivatives are taken on
that form (``_flat_diff``).  Each integral is then a linear functional on
monomials, held as integers over one denominator (``_functional``): the box
moments for the volume, and per axis a the flux functional
``B_a[e] = (hi^e_a - lo^e_a) prod_(k != a) integral z_k^e_k``, the upper face
minus the lower.  ``_contract`` sums ``n_a n_b mu[k_a + k_b]`` against one
of them (``_combine`` first sums a row of several entries into one flat
dict).  An oracle encodes its matrices once, the volume's two zero-order
blocks folded into one, ``v^T P0 w - w^T Q0 v = v^T (P0 - Q0^T) w`` (zero
for a formal adjoint), keeps its functionals per (axis, top degree), and
per field pair flattens, differentiates, makes one contraction for the
volume and one per axis, and one ``Fraction`` of their difference;
``boundary_pairing_sum_form``, the reference for the boundary side, makes one
contraction per term.  The section Gram matrices are not pairings, but
``build._section_gram`` sums them on the same form: ``_flat_pairs`` for the
factor, ``_combine`` for its product with the constitutive matrix's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .exact import ExactError, fr, transpose, zeros
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
        """F* v = P0^T v + sum (-1)^i Pk(k,i)^T d_k^i v: the odd-order
        blocks negated."""
        pk = {
            (k, i): [[-x for x in row] for row in transpose(mat_)] if i % 2 else transpose(mat_)
            for (k, i), mat_ in self.pk.items()
        }
        return DiffOpMatrix(self.n, self.m, self.axes, transpose(self.p0), pk)

    def apply(self, w: Sequence[Poly]) -> List[Poly]:
        """Apply to a vector of polynomials over (a superset of) the axes."""
        if len(w) != self.n:
            raise ExactError(f"operator expects {self.n} fields, got {len(w)}")
        table = _derivatives(w, _poly_diffs(self.axes), self.order)
        out = mat_apply(self.p0, w)
        for (k, i), mat_ in self.pk.items():
            out = [a + b for a, b in zip(out, mat_apply(mat_, table[k - 1][i]))]
        return out


def _derivatives(fields, diffs, top: int):
    """Per axis k, ``[w, d_k w, ..., d_k^top w]``, each entry the derivatives
    of the fields of the one before by ``diffs[k - 1]``: the one derivative
    table of the module, of ``Poly`` fields (``_poly_diffs``) or of flat ones
    (``_flat_derivatives``)."""
    table = []
    for diff in diffs:
        column = [list(fields)]
        for _ in range(top):
            column.append(diff(column[-1]))
        table.append(column)
    return table


def _poly_diff(name: str, fields: Sequence[Poly]) -> List[Poly]:
    """Each field differentiated along ``name``."""
    return [f.diff(name) for f in fields]


def _poly_diffs(axes: Sequence[str]):
    """Per axis, ``Poly.diff`` along it of each field of a list."""
    return [partial(_poly_diff, name) for name in axes]


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
    return _jet(_derivatives(fields, _poly_diffs(axes), order - 1), order)


def _jet(table, order: int) -> list:
    """The jet of the fields of a ``_derivatives`` table, up to ``order - 1``."""
    # block (0, 0) is differentiated zero times, along any axis
    return [f for j, k in jet_blocks(order, len(table)) for f in table[k - 1][j]]


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
                        q[rows[a]][cols[b]] = -x if c % 2 else x

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


def _functional(bounds, top: int, face: int) -> Tuple[List[int], int]:
    """``(mu, den)``, a linear functional on the monomials of the box
    ``bounds`` up to exponent ``top`` per axis: ``mu[k] / den`` is its value
    on the monomial at flat index ``k = sum_i e_i (top + 1)^i`` (``_flatten``).

    With ``face = -1`` it is the integral over the box.  With ``face = a`` it
    is the flux through the two faces of axis a,
    ``B_a[e] = (hi^e_a - lo^e_a) prod_(i != a) integral z_i^e_i``: the
    integral of the upper face value minus the lower.  Per axis the weights
    are integers over one denominator (``moment_weights``, or the
    ``power_table`` of each bound), and the table is their outer product.
    """
    n = top + 1
    mu, den = [1], 1
    for k, (lo, hi) in enumerate(bounds):
        if k == face:
            q_hi, q_lo = hi.denominator**top, lo.denominator**top
            w = [u * q_lo - l * q_hi for u, l in zip(power_table(hi, top), power_table(lo, top))]
            axis_den = q_hi * q_lo
        else:
            w, axis_den = moment_weights(lo, hi, n)
        g = gcd(axis_den, *w)
        mu = [x * (y // g) for y in w for x in mu]  # this axis is the next digit
        den *= axis_den // g
    return mu, den


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


def _flatten(polys: Sequence[Poly], places: Sequence[int], index: dict) -> Tuple[List[Dict[int, int]], int]:
    """Each polynomial as ``{flat index: numerator}`` over one common
    denominator, which is returned too; exponent ``e_k`` weighs
    ``places[k]``.  The polynomials share one map from exponent tuple to
    flat index, filled once per distinct tuple: ``index``, whose keys hold
    at least their exponent tuples (its values are overwritten)."""
    for e in index:
        index[e] = sum(map(mul, e, places))
    common = lcm(*{p.den for p in polys})
    get, flat = index.__getitem__, []
    for p in polys:
        nums, scale = p.num.values(), common // p.den
        flat.append(dict(zip(map(get, p.num), nums if scale == 1 else map(scale.__mul__, nums))) if nums else {})
    return flat, common


def _flat_diff(place: int, n: int, fields: Sequence[Dict[int, int]]) -> List[Dict[int, int]]:
    """The derivatives of ``_flatten`` dicts along the axis of weight
    ``place`` in base ``n``: the term at index i, with digit e there, moves
    to i - place, times e."""
    return [{i - place: c * e for i, c in f.items() if (e := i // place % n)} for f in fields]


def _flat_pairs(polys: Sequence[Poly], arity: int):
    """``(n, places, flat, common)``: ``polys`` flattened in one ``_flatten``
    call, ``places[k] = n^k`` for the ``arity`` coordinates in base ``n = 2d
    + 1``, d their top exponent (one scan over the index map's keys), so that
    a product of two has exponents below n and the sum of their indices."""
    index = dict.fromkeys(chain.from_iterable(p.num for p in polys))
    n = 2 * max(chain.from_iterable(index), default=0) + 1
    places = [n**k for k in range(arity)]
    flat, common = _flatten(polys, places, index)
    return n, places, flat, common


def _flat_derivatives(v: Sequence[Poly], w: Sequence[Poly], ell: int, depth: int):
    """``(top, den, tv, tw)``: ``v`` and ``w`` flattened together by
    ``_flat_pairs``, ``top = n - 1`` the bound on a product's exponents,
    ``den`` the square of their denominator (one factor from each side), and
    ``tv``, ``tw`` their flat ``_derivatives`` tables up to ``depth``."""
    n, places, flat, common = _flat_pairs([*v, *w], ell)
    diffs = [partial(_flat_diff, place, n) for place in places]
    fv, fw = flat[: len(v)], flat[len(v) :]
    return n - 1, common * common, _derivatives(fv, diffs, depth), _derivatives(fw, diffs, depth)


def _combine(row, vs) -> Dict[int, int]:
    """``sum_j c_j vs[j]`` over flat dicts, for ``row`` the ``(j, c_j)`` of
    one ``_encode`` row; a key whose terms cancel stays, with value zero."""
    w = {}
    get = w.get
    for j, c in row:
        for k, n in vs[j].items():
            w[k] = get(k, 0) + c * n
    return w


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
            scale, w = 1, _combine(row, vs)
        terms = w.items()
        total += scale * sum([n * m * mu[k + kb] for k, n in ui.items() for kb, m in terms])
    return total


def _block_row(blocks: Iterable[Matrix], m: int) -> Matrix:
    """The m rows of ``[B1 | B2 | ...]``: with the blocks ``[P0, Pk(k, i)
    ...]`` of F it pairs with the stacked ``[w; d_k^i w; ...]`` to give
    ``F w``."""
    return [[x for b in blocks for x in b[r]] for r in range(m)]


def _stacked(op: DiffOpMatrix, table) -> list:
    """``[d_k^i w; ...]`` in ``op.pk`` order, from the ``_derivatives`` of w:
    the stack without its zero-order block ``w``."""
    return [f for k, i in op.pk for f in table[k - 1][i]]


def _check_pair(op: DiffOpMatrix, form: BoundaryForm, adjoint: DiffOpMatrix) -> None:
    """Refuse a boundary form or an adjoint that does not fit ``op``."""
    rows, cols = jet_layout(op.n, op.order, op.ell), jet_layout(op.m, op.order, op.ell)
    if (adjoint.m, adjoint.n, adjoint.axes, len(form.q_axes)) != (op.n, op.m, op.axes, op.ell) or any(
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
    denominator: each ``Q_a``, and the volume side as one block matrix
    against ``[w; d w ...; d v ...]`` (block rows, ``_block_row``).  Its
    zero-order blocks are folded, ``v^T P0 w - w^T Q0 v = v^T (P0 - Q0^T)
    w`` for ``Q0`` the adjoint's, so the rows of v carry
    ``[P0 - Q0^T | Pk(k, i) ...]`` against ``[w; d w ...]`` (zero-order
    block zero for a formal adjoint) and the rows of w the adjoint's
    ``[-Qk(k, i) ...]`` against ``[d v ...]``, with no zero-order block.
    A call flattens ``v`` and ``w`` in one ``_flatten``, through one index
    map that also gives the top exponent, and differentiates them on the
    flat form into ``_derivatives`` tables (the stacks and the jets are
    slices of them), then contracts the volume against the box moments and
    each axis's jets against its flux functional.  Each side is an integer
    over a denominator until the end: ``residual`` subtracts the two and
    makes one ``Fraction``.  The functionals (``_functional``) are kept per
    oracle in ``_tables``, keyed by ``(axis, top)``, the box under axis -1.
    """

    __slots__ = ("op", "dom", "adjoint", "_lm", "_volume", "_q", "_tables", "_top")

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
        p0 = [[a - b for a, b in zip(row, col)] for row, col in zip(op.p0, transpose(adjoint.p0))]
        f = _block_row([p0, *op.pk.values()], op.m)
        f_star = _block_row(adjoint.pk.values(), op.n)
        self._lm = lm = _common_denominator(f, f_star, *form.q_axes)
        shift = len(f[0])  # [d v ...] follows [w; d w ...]
        self._volume = _encode(f, lm) + [
            [(shift + j, -x) for j, x in row] for row in _encode(f_star, lm)
        ]
        self._q = [_encode(q, lm) for q in form.q_axes]
        self._tables: Dict[Tuple[int, int], tuple] = {}
        self._top = max(op.order, adjoint.order)  # the jet needs op.order - 1

    def _table(self, axis: int, top: int):
        """``_functional(bounds, top, axis)``, built once per key."""
        table = self._tables.get((axis, top))
        if table is None:
            table = self._tables[axis, top] = _functional(self.dom.bounds, top, axis)
        return table

    def _prepare(self, v: Sequence[Poly], w: Sequence[Poly]):
        """After the fields are checked: the top exponent of a product, the
        denominator of the flat v and w, and their flat ``_derivatives``."""
        _check_fields(self.op, self.dom, v, w)
        return _flat_derivatives(v, w, self.op.ell, self._top)

    def _volume_part(self, top: int, tv, tw) -> Tuple[int, int]:
        """``(num, d)``: the volume is ``num / (d * den * lm)``, for ``den``
        the fields' denominator and ``lm`` the matrices'."""
        mu, mu_den = self._table(-1, top)
        v, w = tv[0][0], tw[0][0]
        vs = w + _stacked(self.op, tw) + _stacked(self.adjoint, tv)
        return _contract(v + w, self._volume, vs, mu), mu_den

    def _boundary_part(self, top: int, tv, tw) -> Tuple[int, int]:
        """``(num, d)`` of the boundary side, as ``_volume_part``'s."""
        jw, jv = _jet(tw, self.op.order), _jet(tv, self.op.order)
        num, flux_den = 0, 1
        for axis, rows in enumerate(self._q):
            b, b_den = self._table(axis, top)
            num = num * b_den + _contract(jw, rows, jv, b) * flux_den
            flux_den *= b_den
        return num, flux_den

    def volume(self, v: Sequence[Poly], w: Sequence[Poly]) -> Fraction:
        """integral_Omega (v^T F w - w^T F* v) dx, exactly."""
        top, den, tv, tw = self._prepare(v, w)
        num, d = self._volume_part(top, tv, tw)
        return Fraction(num, d * den * self._lm)

    def boundary(self, v: Sequence[Poly], w: Sequence[Poly]) -> Fraction:
        """The boundary side: one flux of ``jet(w)^T Q_a jet(v)`` per axis."""
        top, den, tv, tw = self._prepare(v, w)
        num, d = self._boundary_part(top, tv, tw)
        return Fraction(num, d * den * self._lm)

    def residual(self, v: Sequence[Poly], w: Sequence[Poly]) -> Fraction:
        """``volume(v, w) - boundary(v, w)``: exactly zero for every operator
        of the supported class and any polynomial fields, as long as the
        form and the adjoint are (or equal) the operator's own.  The two
        sides are subtracted as integers, so one ``Fraction`` is made."""
        top, den, tv, tw = self._prepare(v, w)
        (nv, dv), (nb, db) = self._volume_part(top, tv, tw), self._boundary_part(top, tv, tw)
        return Fraction(nv * db - nb * dv, dv * db * den * self._lm)


def boundary_pairing_sum_form(
    op: DiffOpMatrix, v: Sequence[Poly], w: Sequence[Poly], dom: DomainSpec
) -> Fraction:
    """Boundary side written as the raw alternating triple sum

        sum_(k, i) sum_(j = 1..i) (-1)^(j-1) flux_k (d_k^(i-j) w)^T Pk(k, i)^T d_k^(j-1) v,

    a reference for the tests and the benchmark's replay.  Each term is one
    ``_contract`` against the flux functional of its axis (``_functional``),
    independent of ``IbpOracle`` and ``BoundaryForm``."""
    _check_axes(op, dom)
    _check_fields(op, dom, v, w)
    top, den, tv, tw = _flat_derivatives(v, w, op.ell, op.order - 1)
    total = Fraction(0)
    for (k, i), pki in op.pk.items():
        lm = _common_denominator(pki)
        rows, axis = _encode(transpose(pki), lm), k - 1
        b, b_den = _functional(dom.bounds, top, axis)
        for j in range(1, i + 1):
            flux = _contract(tw[axis][i - j], rows, tv[axis][j - 1], b)
            total += (-1) ** (j - 1) * Fraction(flux, b_den * lm)
    return total / den


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

