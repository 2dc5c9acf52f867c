"""Structure-preserving finite-difference simulation of compiled systems.

The discretization keeps the adjoint pairing exact instead of approximating
it: strains are differenced from momenta by a sparse matrix D, and the
momentum update uses the transpose, so the assembled interconnection matrix is
skew-symmetric bit-for-bit and the semi-discrete energy is conserved for any
grid.  Each field component is assigned its own lattice (integer or
half-shifted per axis) so that every operator entry becomes a two-point
centered difference or a plain identity; no interpolation is needed and the
interior stencils are exact on quadratics.  Time stepping is implicit
midpoint, which conserves the quadratic energy up to linear-solver roundoff.

Supported: one-dimensional models up to second order and two-dimensional
first-order models on rectangles.  Second-order plates and 3D elasticity stay
in the symbolic stage.

Importing this module loads numpy but not scipy: the functions that build or
factor sparse matrices import it when first called, so the exact stage
(``import phs_forge``, build, verify, export) never pays for it.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .build import PHSystem
from .exact import to_float
from .models import KinematicModel

if TYPE_CHECKING:
    from scipy import sparse

FACES_1D = ("left", "right")
FACES_2D = ("left", "right", "bottom", "top")
_FACE_AXIS_SIDE = {"left": (0, 0), "right": (0, 1), "bottom": (1, 0), "top": (1, 1)}


class SimulationUnsupported(ValueError):
    """Raised for model classes the discrete stage deliberately excludes."""


@dataclass(frozen=True)
class GridSpec:
    cells: Tuple[int, ...]

    def __post_init__(self):
        if not 1 <= len(self.cells) <= 2:
            raise SimulationUnsupported("grids are 1D or 2D")
        if any(c < 3 for c in self.cells):
            raise ValueError("need at least 3 cells per axis")


@dataclass
class FieldLayout:
    label: str
    name: str
    kind: str  # "p" or "eps"
    index: int
    shifts: Tuple[int, ...]  # 0 = integer lattice, 1 = half lattice, per axis
    starts: Tuple[int, ...]
    counts: Tuple[int, ...]
    offset: int  # state index of the first node; momenta precede strains
    weights: Tuple[List[Fraction], ...]  # exact quadrature weight per node, per axis

    @property
    def size(self) -> int:
        return math.prod(self.counts)

    def dof(self, gidx: Tuple[int, ...]) -> int:
        """State index of lattice node ``gidx`` (last axis fastest)."""
        out = 0
        for g, s, c in zip(gidx, self.starts, self.counts):
            out = out * c + (g - s)
        return self.offset + out

    def nodes(self):
        return itertools.product(*(range(s, s + c) for s, c in zip(self.starts, self.counts)))

    def position(self, gidx: Tuple[int, ...], bounds, dx) -> Tuple[Fraction, ...]:
        """Exact coordinates of a node on a domain with these axis bounds."""
        return tuple(
            lo + (g + Fraction(s, 2)) * h
            for g, s, (lo, _), h in zip(gidx, self.shifts, bounds, dx)
        )


@dataclass
class InputChannel:
    """One scalar input u(t): state_dot += vector * u; power = e . wvector * u."""

    name: str
    kind: str  # "boundary" or "distributed"
    vector: np.ndarray
    wvector: np.ndarray
    u: Callable[[float], float]


@dataclass
class EnergyLog:
    times: np.ndarray
    energy: np.ndarray
    boundary_power: np.ndarray
    distributed_power: np.ndarray
    residual: np.ndarray

    def __len__(self):
        return len(self.energy)

    @property
    def relative_drift(self) -> float:
        h0 = self.energy[0]
        scale = abs(h0) if h0 != 0 else 1.0
        return float(abs(self.energy[-1] - h0) / scale)

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residual)) if len(self.residual) else 0.0


@dataclass
class Trajectory:
    labels: List[str]
    snapshots: List[Tuple[int, float, np.ndarray]]


@dataclass
class DiscreteSystem:
    system: PHSystem
    grid: GridSpec
    bc: Dict[str, str]
    p_fields: List[FieldLayout]
    eps_fields: List[FieldLayout]
    dx: Tuple[Fraction, ...]
    D: sparse.csr_matrix
    J: sparse.csr_matrix
    C: sparse.csr_matrix
    W: np.ndarray
    _steppers: Dict[float, object] = field(default_factory=dict)

    @property
    def num_p(self) -> int:
        return sum(f.size for f in self.p_fields)

    @property
    def num_eps(self) -> int:
        return sum(f.size for f in self.eps_fields)

    @property
    def num_dofs(self) -> int:
        return self.num_p + self.num_eps

    @property
    def fields(self) -> List[FieldLayout]:
        """Every field in state order."""
        return self.p_fields + self.eps_fields

    def field_by_name(self, name: str) -> FieldLayout:
        for f in self.fields:
            if f.name == name or f.label == name:
                return f
        known = ", ".join(f"{f.label} ({f.name})" for f in self.fields)
        raise ValueError(f"unknown field {name!r}; known fields: {known}")

    def zero_state(self) -> np.ndarray:
        return np.zeros(self.num_dofs)


# ---------------------------------------------------------------------------
# Staggering
# ---------------------------------------------------------------------------


def _operator_terms(sys: PHSystem):
    """Yield (alpha, beta, axis(1-based) or 0, order, coeff)."""
    op = sys.op
    for r in range(op.m):
        for c in range(op.n):
            if op.p0[r][c] != 0:
                yield (r, c, 0, 0, op.p0[r][c])
    for (k, i), mat_ in op.pk.items():
        for r in range(op.m):
            for c in range(op.n):
                if mat_[r][c] != 0:
                    yield (r, c, k, i, mat_[r][c])


def _components(matrix) -> List[List[int]]:
    """Components of the coupling graph of a square matrix (i and j joined
    when entry (i, j) is nonzero), each in ascending order, ordered by their
    first member."""
    label = list(range(len(matrix)))
    for i, j in itertools.combinations(range(len(matrix)), 2):
        if matrix[i][j] != 0:
            label = [label[i] if g == label[j] else g for g in label]
    groups: Dict[int, List[int]] = {}
    for i, g in enumerate(label):
        groups.setdefault(g, []).append(i)
    return list(groups.values())


def _solve_shifts(sys: PHSystem, ell: int):
    """Per-component lattice parities making every operator term single-
    lattice; falls back to fully collocated, with a RuntimeWarning, when no
    assignment exists."""
    op = sys.op
    if op.order != 1:
        return [(0,) * ell] * op.n, [(0,) * ell] * op.m

    # nodes 0..n-1: momentum comps; n..n+m-1: strain comps
    n, m = op.n, op.m
    edges = []  # (a, b, parity tuple)
    for r, c, k, i, _ in _operator_terms(sys):
        parity = tuple((1 if (k == a + 1 and i % 2 == 1) else 0) for a in range(ell))
        edges.append((c, n + r, parity))
    zero = (0,) * ell
    for i in range(n):
        for j in range(i + 1, n):
            if sys.mass[i][j] != 0:
                edges.append((i, j, zero))
    for i in range(m):
        for j in range(i + 1, m):
            if sys.stiffness[i][j] != 0:
                edges.append((n + i, n + j, zero))

    labels = sys.state_labels
    adj: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
    for a, b, parity in edges:
        adj.setdefault(a, []).append((b, parity))
        adj.setdefault(b, []).append((a, parity))

    assign: Dict[int, Tuple[int, ...]] = {}
    for start in range(n + m):
        if start in assign:
            continue
        assign[start] = zero
        stack = [start]
        while stack:
            a = stack.pop()
            for b, parity in adj.get(a, ()):
                want = tuple((x + y) % 2 for x, y in zip(assign[a], parity))
                if b not in assign:
                    assign[b] = want
                    stack.append(b)
                elif assign[b] != want:
                    warnings.warn(
                        f"no consistent staggering: the parities of {labels[a]} and {labels[b]} "
                        "conflict; falling back to a fully collocated grid, which carries "
                        "odd-even (checkerboard) modes",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    return [(0,) * ell] * n, [(0,) * ell] * m
    return [assign[i] for i in range(n)], [assign[n + j] for j in range(m)]


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def simulation_refusal(model: KinematicModel) -> Optional[str]:
    """Why the discrete stage refuses ``model``, or None when it simulates
    it: 1D models up to second order and 2D first-order models."""
    if model.ell == 3:
        return "3D elasticity is symbolic-stage only; no 3D grids"
    if model.ell == 2 and model.order >= 2:
        return (
            f"{model.name}: second-order operators on 2D domains (e.g. the "
            "fourth-order plate) are supported in the symbolic stage only"
        )
    if model.order > 2:
        return "operators of order greater than two are not discretized"
    return None


def discretize(
    sys: PHSystem,
    grid: GridSpec,
    bc: Optional[Dict[str, str]] = None,
    density_scale: Optional[Callable[..., float]] = None,
    stiffness_scale: Optional[Callable[..., float]] = None,
) -> DiscreteSystem:
    """Assemble the finite-dimensional system on a staggered grid.

    ``density_scale`` and ``stiffness_scale`` optionally vary the material
    per node: callables of the spatial position multiplying the compiled
    (constant-coefficient) mass and stiffness.  The exact stage stays
    constant-coefficient; spatial variation enters only here.
    """
    model = sys.model
    ell = model.ell
    refusal = simulation_refusal(model)
    if refusal is not None:
        raise SimulationUnsupported(refusal)
    if len(grid.cells) != ell:
        raise ValueError(f"grid must have {ell} axis cell counts")

    faces = FACES_1D if ell == 1 else FACES_2D
    bc = dict(bc or {})
    for name in bc:
        if name not in faces:
            raise ValueError(f"unknown face {name!r}; faces are {faces}")
        if bc[name] not in ("clamped", "free"):
            raise ValueError("boundary conditions are 'clamped' or 'free'")
    for name in faces:
        bc.setdefault(name, "free")

    dx = tuple(
        (hi - lo) / cells for (lo, hi), cells in zip(model.domain.bounds, grid.cells)
    )
    p_shifts, eps_shifts = _solve_shifts(sys, ell)

    # strain node restrictions: a derivative landing on an integer lattice
    # needs both neighbours, so those axes lose their boundary nodes
    eps_restrict = [[False] * ell for _ in range(sys.m)]
    for r, c, k, i, _ in _operator_terms(sys):
        if i >= 1 and eps_shifts[r][k - 1] == 0:
            eps_restrict[r][k - 1] = True

    # strain components coupled through K must share node sets exactly
    for group in _components(sys.stiffness):
        shared = [any(eps_restrict[i][a] for i in group) for a in range(ell)]
        for i in group:
            eps_restrict[i] = shared

    fields: List[FieldLayout] = []

    def layout(label, name, kind, index, shifts, dropped):
        """A half lattice has ``cells`` nodes; an integer lattice ``cells + 1``,
        less each end node that ``dropped[axis] = (low, high)`` removes."""
        starts, counts = [], []
        for a, shift in enumerate(shifts):
            lo, hi = (False, False) if shift else dropped[a]
            starts.append(int(lo))
            counts.append(grid.cells[a] + 1 - shift - lo - hi)
        weights = tuple(
            _axis_weights(kind, *args) for args in zip(counts, starts, shifts, grid.cells, dx)
        )
        offset = fields[-1].offset + fields[-1].size if fields else 0
        fields.append(
            FieldLayout(label, name, kind, index, shifts, tuple(starts), tuple(counts), offset, weights)
        )

    # momenta drop the node at a clamped face
    clamped = [(bc[faces[2 * a]] == "clamped", bc[faces[2 * a + 1]] == "clamped") for a in range(ell)]
    labels = sys.state_labels
    for i in range(sys.n):
        layout(labels[i], model.r_names[i], "p", i, p_shifts[i], clamped)
    for j in range(sys.m):
        label = labels[sys.n + j]
        layout(label, label, "eps", j, eps_shifts[j], [(r, r) for r in eps_restrict[j]])
    p_fields, eps_fields = fields[: sys.n], fields[sys.n :]

    D, W, C, J = _assemble(sys, p_fields, eps_fields, dx, density_scale, stiffness_scale)
    return DiscreteSystem(sys, grid, bc, p_fields, eps_fields, dx, D, J, C, W)


def _stencil(shift_src: int, shift_tgt: int, order: int, dx: Fraction):
    """1D stencil along one axis: list of (source index - target index,
    coefficient); the same at every node."""
    if order == 0:
        return [(0, Fraction(1))]
    if order == 1:
        if shift_src == 0 and shift_tgt == 1:
            return [(0, -1 / dx), (1, 1 / dx)]
        if shift_src == 1 and shift_tgt == 0:
            return [(-1, -1 / dx), (0, 1 / dx)]
        if shift_src == shift_tgt:
            return [(-1, Fraction(-1, 2) / dx), (1, Fraction(1, 2) / dx)]
    if order == 2 and shift_src == shift_tgt:
        w = 1 / dx**2
        return [(-1, w), (0, -2 * w), (1, w)]
    raise SimulationUnsupported(
        f"no stencil for derivative order {order} between these lattices"
    )


def _axis_weights(
    kind: str, count: int, start: int, shift: int, cells: int, dx: Fraction
) -> List[Fraction]:
    """Quadrature weight per node along one axis.

    Half lattices use the cell size; full integer lattices the trapezoid
    rule.  Interior-restricted strain lattices stretch their end weights to
    3 dx / 2 so the quadrature still covers the whole axis (constant fields
    integrate exactly); momentum lattices shrunk by clamping keep the plain
    rule, the clamped nodes' half cells carrying no energy.
    """
    if shift == 1:
        return [dx] * count
    if kind == "eps" and start == 1 and count == cells - 1:
        w = [dx] * count
        w[0] = w[-1] = 3 * dx / 2
        return w
    return [
        dx / 2 if (start + i == 0 or start + i == cells) else dx for i in range(count)
    ]


def _concat(parts):
    """(rows, cols, data) of the (rows, cols, data) array triples, in order."""
    if not parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    return tuple(np.concatenate(a) for a in zip(*parts))


def _assemble(sys: PHSystem, p_fields, eps_fields, dx, density_scale=None, stiffness_scale=None):
    """(D, W, C, J) on the laid-out fields."""
    from scipy import sparse

    bounds = sys.model.domain.bounds
    fields = p_fields + eps_fields

    # difference operator entries; each term has one stencil pattern, applied
    # to every strain node at once (entries node-major, pattern-minor)
    parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for r, c, k, i, coeff in _operator_terms(sys):
        ef = eps_fields[r]
        pf = p_fields[c]
        axis = k - 1 if k else 0  # a k = 0 term has order 0: one identity entry
        stencil = _stencil(pf.shifts[axis], ef.shifts[axis], i, dx[axis])
        weights = [coeff * w for _, w in stencil]
        # source node of each (strain node, stencil point), relative to pf's first node
        src = np.indices(ef.counts).reshape(len(ef.counts), -1, 1)
        src = np.repeat(src + (np.array(ef.starts) - pf.starts)[:, None, None], len(stencil), axis=2)
        src[axis] += [delta for delta, _ in stencil]
        node, point = np.nonzero(np.all((src >= 0) & (src < np.array(pf.counts)[:, None, None]), axis=0))
        rows = ef.offset + node
        cols = pf.offset + np.ravel_multi_index(tuple(src[:, node, point]), pf.counts)
        what = f"difference coefficient of {ef.label} on {pf.label}"
        parts.append((rows, cols, np.array([to_float(w, what) for w in weights])[point]))

    num_p = eps_fields[0].offset
    num_dofs = fields[-1].offset + fields[-1].size
    rows, cols, data = _concat(parts)
    D = sparse.coo_matrix((data, (rows - num_p, cols)), shape=(num_dofs - num_p, num_p)).tocsr()

    # quadrature weights: per-field outer products of the axis weights
    W = np.concatenate(
        [
            reduce(
                np.multiply.outer,
                [np.array([to_float(x, f"quadrature weight of {f.label}") for x in w]) for w in f.weights],
            ).ravel()
            for f in fields
        ]
    )

    # co-energy map: block M^-1 on momenta, K on strains, per shared node
    c_parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def couple(f1: FieldLayout, f2: FieldLayout, value, scale):
        if (f1.shifts, f1.starts, f1.counts) != (f2.shifts, f2.starts, f2.counts):
            raise SimulationUnsupported(
                f"coupled components {f1.label} and {f2.label} have different "
                "node sets; this model cannot be staggered consistently"
            )
        data = np.full(f1.size, value)
        if scale is not None:
            data *= [
                _scale_value(scale, [to_float(x, "node position") for x in f1.position(gidx, bounds, dx)])
                for gidx in f1.nodes()
            ]
        nodes = np.arange(f1.size)
        c_parts.append((f1.offset + nodes, f2.offset + nodes, data))

    # density scales the mass, so its inverse scales the momentum co-energy
    inv_density = None
    if density_scale is not None:
        inv_density = lambda *pos: 1.0 / _scale_value(density_scale, pos)
    for family, matrix, scale, symbol in (
        (p_fields, sys.mass_inv, inv_density, "inverse mass M^-1"),
        (eps_fields, sys.stiffness, stiffness_scale, "stiffness K"),
    ):
        for i, f1 in enumerate(family):
            for j, f2 in enumerate(family):
                if matrix[i][j] != 0:
                    couple(f1, f2, to_float(matrix[i][j], f"{symbol}[{i}][{j}]"), scale)
    c_rows, c_cols, c_data = _concat(c_parts)
    C = sparse.coo_matrix((c_data, (c_rows, c_cols)), shape=(num_dofs, num_dofs)).tocsr()

    # weighted flux block and the exactly skew interconnection matrix
    s_hat = (sparse.diags(W[num_p:]) @ D).tocsr()
    J = sparse.bmat([[None, -s_hat.T], [s_hat, None]], format="csr")
    return D, W, C, J


# ---------------------------------------------------------------------------
# Energy, states, inputs
# ---------------------------------------------------------------------------


def _scale_value(scale, pos) -> float:
    value = scale(*pos)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"material scaling must be positive and finite, got {value!r} at {pos}")
    return value


def discrete_hamiltonian(dsys: DiscreteSystem, state: np.ndarray) -> float:
    """H = 1/2 state^T W C state (quadrature-weighted quadratic energy): the
    one-row case of the energy ``simulate`` logs, so the two agree bit for bit."""
    if state.shape != (dsys.num_dofs,):
        raise ValueError(f"state must have {dsys.num_dofs} entries")
    return float(_energies(dsys, state[None, :], None)[0])


def _energies(dsys: DiscreteSystem, states: np.ndarray, work: Optional[np.ndarray], out=None) -> np.ndarray:
    """H of each row of ``states``: the co-energies e of all rows from one
    sparse product, then one pairwise sum of x * (W * e) per row, which gives
    a row the same bits whatever rows share its block.  Several rows pass
    twice through ``work``, a C-ordered buffer of their shape: as the columns
    of the product (so the product copies nothing) and as the rows to sum;
    one row needs neither.  Only the product allocates."""
    if len(states) == 1:
        products = (dsys.C @ states[0])[None, :]
    else:
        products = work
        columns = products.reshape(states.shape[::-1])
        np.copyto(columns, states.T)
        np.copyto(products, (dsys.C @ columns).T)
    products *= dsys.W
    products *= states
    energies = np.add.reduce(products, axis=-1, out=out)
    energies *= 0.5
    return energies


def random_state(dsys: DiscreteSystem, seed: int = 0, amplitude: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return amplitude * rng.standard_normal(dsys.num_dofs)


def fourier_state(dsys: DiscreteSystem, component: str = "p1", mode: int = 1) -> np.ndarray:
    """Single sine mode on one momentum component (1D grids)."""
    f = dsys.field_by_name(component)
    if f.kind != "p":
        raise ValueError("fourier_state drives a momentum component")
    if len(dsys.dx) != 1:
        raise ValueError("fourier_state supports 1D grids")
    bounds = dsys.system.model.domain.bounds
    lo, hi = bounds[0]
    length = to_float(hi - lo, "domain length")
    start = to_float(lo, "domain bound")
    state = dsys.zero_state()
    for gidx in f.nodes():
        (x,) = f.position(gidx, bounds, dsys.dx)
        state[f.dof(gidx)] = np.sin(mode * np.pi * (to_float(x, "node position") - start) / length)
    return state


def boundary_traction_input(
    dsys: DiscreteSystem, face: str, component: str, u: Callable[[float], float]
) -> InputChannel:
    """Point/edge traction on a momentum component along one boundary face.

    The forcing enters the half-cell balance of the face nodes; the conjugate
    output is the co-energy (velocity) there, so power = y * u exactly.
    """
    if face not in dsys.bc:
        raise ValueError(f"unknown face {face!r}")
    if dsys.bc[face] == "clamped":
        raise ValueError(f"face {face!r} is clamped; traction needs a free face")
    axis, side = _FACE_AXIS_SIDE[face]
    f = dsys.field_by_name(component)
    if f.kind != "p":
        raise ValueError("boundary tractions drive momentum components")
    if f.shifts[axis] != 0:
        raise ValueError(
            f"component {component!r} has no nodes on face {face!r} "
            "(half-shifted lattice); choose a component with face nodes"
        )
    face_index = f.starts[axis] if side == 0 else f.starts[axis] + f.counts[axis] - 1
    lattice_face = 0 if side == 0 else dsys.grid.cells[axis]
    if face_index != lattice_face:
        raise ValueError(f"face {face!r} nodes of {component!r} were eliminated")
    vector = np.zeros(dsys.num_dofs)
    wvector = np.zeros(dsys.num_dofs)
    for gidx in f.nodes():
        if gidx[axis] != face_index:
            continue
        dof = f.dof(gidx)
        tangential = 1.0
        for a in range(len(dsys.dx)):
            if a != axis:
                tangential *= to_float(f.weights[a][gidx[a] - f.starts[a]], f"quadrature weight of {f.label}")
        vector[dof] = tangential / dsys.W[dof]
        wvector[dof] = tangential
    return InputChannel(f"traction:{face}:{component}", "boundary", vector, wvector, u)


def distributed_input(
    dsys: DiscreteSystem, column: int = 0, u: Callable[[float], float] = lambda t: 1.0
) -> InputChannel:
    """Distributed load through the model's input map (one column of it)."""
    bd = dsys.system.model.bd
    if bd is None:
        raise ValueError(f"model {dsys.system.model.name} declares no distributed input map")
    if not 0 <= column < len(bd[0]):
        raise ValueError("input column out of range")
    vector = np.zeros(dsys.num_dofs)
    for i, f in enumerate(dsys.p_fields):
        coeff = to_float(bd[i][column], f"input map Bd[{i}][{column}]")
        if coeff == 0.0:
            continue
        vector[f.offset : f.offset + f.size] = coeff
    wvector = vector * dsys.W
    return InputChannel(f"distributed:{column}", "distributed", vector, wvector, u)


# ---------------------------------------------------------------------------
# Time integration
# ---------------------------------------------------------------------------


def pencil(dsys: DiscreteSystem):
    """(M_v, K_v, S): the momentum-velocity form of the discrete system.

    With velocities v = C_p p, the closed dynamics are
    M_v v' = -K_v u and u' = v for a displacement u with eps = D u:
    M_v = W_p C_p^-1 is block-diagonal per node and SPD, and
    K_v = S^T C_eps W_eps^-1 S (formed as S^T C_eps D) is symmetric positive
    semidefinite, with S = diag(W_eps) D the weighted flux block of J.
    """
    from scipy import sparse

    num_p = dsys.num_p
    C = dsys.C
    if C[:num_p, num_p:].nnz or C[num_p:, :num_p].nnz:
        raise ValueError(
            "the co-energy map couples momenta and strains; the pencil needs it block-diagonal"
        )
    c_p = C[:num_p, :num_p]
    # couple() joins only components with the same node set, so C_p is one
    # small block per node for each group of momentum fields that M^-1
    # couples: invert the blocks (density scaling included)
    parts = []
    for group in _components(dsys.system.mass_inv):
        members = [dsys.p_fields[i] for i in group]
        k = len(members)
        dofs = np.arange(members[0].size)[:, None] + [f.offset for f in members]  # (nodes, k)
        blocks = np.empty((len(dofs), k, k))
        for i, j in itertools.product(range(k), repeat=2):
            blocks[:, i, j] = np.asarray(c_p[dofs[:, i], dofs[:, j]]).ravel()
        inverse = np.linalg.inv(blocks)
        parts.append((np.repeat(dofs, k, axis=1).ravel(), np.tile(dofs, k).ravel(), inverse.ravel()))
    rows, cols, data = _concat(parts)
    w_p, w_eps = dsys.W[:num_p], dsys.W[num_p:]
    S = (sparse.diags(w_eps) @ dsys.D).tocsr()
    M_v = sparse.coo_matrix((w_p[rows] * data, (rows, cols)), shape=(num_p, num_p)).tocsr()
    K_v = (S.T @ (C[num_p:, num_p:] @ dsys.D)).tocsr()
    return M_v, K_v, S


# the velocity solve sums a Neumann series while its ratio bound is at most
# this (16 terms at most); above it, it factors the velocity matrix
SERIES_MAX_RHO = 0.1


class _MidpointStepper:
    """Implicit midpoint, (I - hA) x+ = (I + hA) x + dt sum u b with h = dt/2,
    solved as (I - hA) y = x + h sum u b for the midpoint state y, then
    x+ = 2y - x: one midpoint solve and no forward product per step.  The
    subclasses make the solve (``_midpoint``); ``march`` is the one stepping
    loop."""

    def __init__(self, dsys: DiscreteSystem, dt: float):
        self.dt = dt
        self._operator = (dsys.W, dsys.J, dsys.C)

    def _a_matrix(self):
        from scipy import sparse

        W, J, C = self._operator
        return (sparse.diags(1.0 / W) @ J @ C).tocsr()

    @property
    def forward(self):
        """I + hA, built when read: no step uses it."""
        from scipy import sparse

        a_mat = self._a_matrix()
        return (sparse.identity(a_mat.shape[0], format="csr") + (self.dt / 2.0) * a_mat).tocsr()

    @staticmethod
    def _factor(matrix, diag_pivot_thresh: float):
        """SuperLU factorization of a CSC step matrix (the caller converts,
        so no other copy of it is alive during the factorization).  Both
        step matrices have a (nearly) symmetric pattern, so it orders A + A^T
        and prefers diagonal pivots; only the pivot threshold differs."""
        from scipy.sparse.linalg import splu

        return splu(
            matrix,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=diag_pivot_thresh,
            options={"SymmetricMode": True},
        )

    def march(self, states: np.ndarray, forcing: Optional[np.ndarray] = None) -> None:
        """Fill ``states[1:]`` with midpoint steps from ``states[0]``.  Step j
        adds ``forcing[j]`` (h sum u b, formed once per block; overwritten)
        to its state; no forcing means no inputs."""
        for j, (state, new_state) in enumerate(zip(states, states[1:])):
            rhs = state
            if forcing is not None:
                rhs = forcing[j]
                rhs += state
            y = self._midpoint(rhs)
            y *= 2.0
            np.subtract(y, state, out=new_state)


class _FullMidpoint(_MidpointStepper):
    """Factors the whole step matrix I - hA."""

    def __init__(self, dsys: DiscreteSystem, dt: float):
        from scipy import sparse

        super().__init__(dsys, dt)
        eye = sparse.identity(dsys.num_dofs, format="csr")
        # A is similar to a skew matrix: relaxed diagonal pivots keep the
        # fill low (backward error is tested)
        self.lu = self._factor((eye - (dt / 2.0) * self._a_matrix()).tocsc(), diag_pivot_thresh=0.01)

    def _midpoint(self, rhs):
        return self.lu.solve(rhs)


class _SchurMidpoint(_MidpointStepper):
    """Eliminates the strains: for r = (r_p, r_eps) it solves the SPD velocity
    system (M_v + h^2 K_v) v = b = W_p r_p - h S^T C_eps r_eps of the pencil,
    then sets the midpoint y = (y_p, r_eps + h D v) with y_p = C_p^-1 v.
    In y_p it reads (I + N) y_p = W_p^-1 b, N = h^2 W_p^-1 K_v C_p (similar to
    h^2 M_v^-1 K_v; no inverted block).  ``rho_bound`` = |N|_inf bounds its
    spectral radius; up to SERIES_MAX_RHO, ``solve`` sums the first ``terms``
    terms of the Neumann series (x <- c - N x from x = c = W_p^-1 b, one sparse
    product each), the fewest with rho_bound^terms <= 2^-53, which bounds the
    inf-norm error of y_p.  Above it ``terms`` is 0 and ``lu`` solves for v."""

    def __init__(self, dsys: DiscreteSystem, dt: float):
        from scipy import sparse

        super().__init__(dsys, dt)
        h = dt / 2.0
        num_p = self.num_p = dsys.num_p
        M_v, K_v, S = pencil(dsys)
        w_p = self._w_p = dsys.W[:num_p]
        c_p = dsys.C[:num_p, :num_p]
        # reduce: r -> b; lift: the solve's output -> y - (0, r_eps)
        self.reduce = sparse.hstack([sparse.diags(w_p), -h * (S.T @ dsys.C[num_p:, num_p:])], format="csr")
        self._matrix = M_v + h * h * K_v
        self._series = (sparse.diags(h * h / w_p) @ (K_v @ c_p)).tocsr()
        self.rho_bound = float(abs(self._series).sum(axis=1).max())
        self.terms = 0
        if self.rho_bound <= SERIES_MAX_RHO:
            self.terms = next(k for k in itertools.count(1) if self.rho_bound**k <= 2.0**-53)
            self.lift = sparse.vstack([sparse.identity(num_p), h * (dsys.D @ c_p)], format="csr")
        else:
            self.lift = sparse.vstack([sparse.diags(1.0 / w_p) @ M_v, h * dsys.D], format="csr")

    @cached_property
    def lu(self):
        """The factorization of M_v + h^2 K_v, made when first read.  On the
        series path no step reads it: it exists for the benchmark's fill
        metric (like ``forward``)."""
        return self._factor(self._matrix.tocsc(), diag_pivot_thresh=0.0)

    def solve(self, b):
        """y_p with (W_p + h^2 K_v C_p) y_p = b on the series path; v with
        (M_v + h^2 K_v) v = b when factored."""
        if not self.terms:
            return self.lu.solve(b)
        c = x = b / self._w_p
        for _ in range(self.terms - 1):
            x = self._series @ x
            np.subtract(c, x, out=x)
        return x

    def _midpoint(self, rhs):
        y = self.lift @ self.solve(self.reduce @ rhs)
        y[self.num_p :] += rhs[self.num_p :]
        return y


def _stepper(dsys: DiscreteSystem, dt: float) -> _MidpointStepper:
    stepper = dsys._steppers.get(dt)
    if stepper is None:
        kind = _FullMidpoint if len(dsys.grid.cells) == 1 else _SchurMidpoint
        stepper = dsys._steppers[dt] = kind(dsys, dt)
    return stepper


def _checked_dt(dt) -> float:
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    return float(dt)


def _checked_count(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _checked_state(dsys: DiscreteSystem, state, inputs: Sequence[InputChannel], what: str) -> np.ndarray:
    """A float copy of ``state``, refused unless it holds ``num_dofs`` finite
    entries and every input's ``vector`` and ``wvector`` has that shape."""
    shape = (dsys.num_dofs,)
    for ch in inputs:
        for name, got in (("vector", np.shape(ch.vector)), ("wvector", np.shape(ch.wvector))):
            if got != shape:
                raise ValueError(f"input {ch.name}: {name} must have shape {shape}, got {got}")
    state = np.array(state, dtype=float)
    if state.shape != shape:
        raise ValueError(f"{what} must have {dsys.num_dofs} entries")
    if not np.all(np.isfinite(state)):
        raise ValueError(f"{what} has non-finite entries")
    return state


def _input_values(inputs: Sequence[InputChannel], t_mids) -> np.ndarray:
    """u(t) of every channel at each midpoint time, one row per step."""
    rows = []
    for t_mid in t_mids:
        row = []
        for ch in inputs:
            u_val = float(ch.u(t_mid))
            if not math.isfinite(u_val):
                raise ValueError(f"input {ch.name} is not finite at t = {t_mid!r}: {u_val!r}")
            row.append(u_val)
        rows.append(row)
    return np.array(rows).reshape(len(rows), len(inputs))


# simulate does its bookkeeping once per block of this many bytes of states
# (at least one state, at most MAX_BLOCK_ROWS); the state size sets the rows
BLOCK_BYTES = 64 * 1024
MAX_BLOCK_ROWS = 64


def _block_rows(num_dofs: int) -> int:
    return max(1, min(MAX_BLOCK_ROWS, BLOCK_BYTES // (8 * num_dofs)))


def step_midpoint(
    dsys: DiscreteSystem,
    state: np.ndarray,
    dt: float,
    inputs: Sequence[InputChannel] = (),
    t: float = 0.0,
) -> np.ndarray:
    """One implicit-midpoint step (the factorization is cached per dt)."""
    dt = _checked_dt(dt)
    states = np.empty((2, dsys.num_dofs))
    states[0] = _checked_state(dsys, state, inputs, "state")
    u_row = _input_values(inputs, [t + dt / 2.0])
    forcing = (dt / 2.0 * u_row) @ np.array([ch.vector for ch in inputs]) if inputs else None
    _stepper(dsys, dt).march(states, forcing)
    return states[1]


def simulate(
    dsys: DiscreteSystem,
    dt: float,
    steps: int,
    inputs: Sequence[InputChannel] = (),
    state0: Optional[np.ndarray] = None,
    record_every: int = 0,
):
    """March ``steps`` midpoint steps, logging energy and port power.

    A step makes only its solve (and adds its forcing row), writing the new
    state into the next row of a block of states.  The rest is done once per
    block: the inputs u(t) of its steps and their forcing h U B, one product
    into a reused buffer (before it is stepped), the energies H of its states
    from one sparse product and one pairwise sum per row (the kernel of
    ``discrete_hamiltonian``), the finiteness check of those energies, the
    midpoint port powers u * g . (x_k + x_k+1) / 2 with g = C^T wvector, and
    the snapshots.  A block holds 64 KB of states (``_block_rows``), so its
    size follows the state size.  The residual column reports
    |dH - dt * (midpoint power)| per step, the discrete counterpart of the
    continuous power balance.
    """
    dt = _checked_dt(dt)
    steps = _checked_count("steps", steps)
    record_every = _checked_count("record_every", record_every)
    if steps < 1:
        raise ValueError("need at least one step")
    if record_every < 0:
        raise ValueError("record_every must be >= 0")
    state = _checked_state(dsys, dsys.zero_state() if state0 is None else state0, inputs, "initial state")

    # overflow shows as non-finite energy, which is checked
    with np.errstate(over="ignore", invalid="ignore"):
        h0 = discrete_hamiltonian(dsys, state)
    if not math.isfinite(h0):
        raise ValueError(f"initial state has non-finite energy: {h0!r}")

    stepper = _stepper(dsys, dt)
    rows = _block_rows(dsys.num_dofs)
    buffer = np.empty((rows + 1, dsys.num_dofs))
    buffer[0] = state
    work = np.empty((rows, dsys.num_dofs))
    h = dt / 2.0
    times = np.arange(steps + 1) * dt
    energy = np.empty(steps + 1)
    energy[0] = h0
    power = np.zeros((steps + 1, len(inputs)))  # midpoint power per channel
    g = np.array([dsys.C.T @ ch.wvector for ch in inputs]).reshape(len(inputs), dsys.num_dofs)
    vectors = np.array([ch.vector for ch in inputs]).reshape(len(inputs), dsys.num_dofs)
    forcing = np.empty((rows, dsys.num_dofs)) if inputs else None

    labels = [f.label for f in dsys.fields]
    snapshots = [(0, 0.0, state)]

    with np.errstate(over="ignore", invalid="ignore"):  # entered once, not per block
        for block, k0 in enumerate(range(0, steps, rows)):
            k1 = min(k0 + rows, steps)
            # a block starts on the row where the last one ended: every
            # other block runs backwards through the buffer, so none copies
            states = (buffer if block % 2 == 0 else buffer[::-1])[: k1 - k0 + 1]
            u_rows = _input_values(inputs, [k * dt + h for k in range(k0, k1)])
            block_forcing = None
            if inputs:
                block_forcing = np.matmul(h * u_rows, vectors, out=forcing[: k1 - k0])
            stepper.march(states, block_forcing)
            block_work = work[: k1 - k0]
            if inputs:
                np.copyto(block_work, states[:-1])
                block_work += states[1:]
                power[k0 + 1 : k1 + 1] = 0.5 * (block_work @ g.T) * u_rows
            block_energy = _energies(dsys, states[1:], block_work, out=energy[k0 + 1 : k1 + 1])
            for k, h_new in enumerate(block_energy.tolist(), start=k0 + 1):
                if not math.isfinite(h_new):
                    raise ValueError(f"energy is not finite after step {k} (t = {k * dt!r}): {h_new!r}")
            if record_every:
                first = (k0 // record_every + 1) * record_every
                for k in range(first, k1 + 1, record_every):
                    snapshots.append((k, times[k], states[k - k0].copy()))
    if snapshots[-1][0] != steps:
        snapshots.append((steps, times[-1], states[-1].copy()))

    bpow = sum((p for ch, p in zip(inputs, power.T) if ch.kind == "boundary"), np.zeros(steps + 1))
    dpow = sum((p for ch, p in zip(inputs, power.T) if ch.kind != "boundary"), np.zeros(steps + 1))
    resid = np.zeros(steps + 1)
    resid[1:] = np.abs(energy[1:] - energy[:-1] - dt * (bpow[1:] + dpow[1:]))
    log = EnergyLog(times, energy, bpow, dpow, resid)
    return Trajectory(labels, snapshots), log


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


# rows per write of the energy CSV: bounds the text held in memory
ENERGY_CSV_CHUNK = 256


def write_energy_csv(path: str, log: EnergyLog) -> None:
    columns = (log.times, log.energy, log.boundary_power, log.distributed_power, log.residual)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,time,H,boundary_power,distributed_power,residual\n")
        for start in range(0, len(log.energy), ENERGY_CSV_CHUNK):
            stop = start + ENERGY_CSV_CHUNK
            rows = zip(range(start, stop), *(c[start:stop].tolist() for c in columns))
            fh.write("".join(
                [f"{k},{t:.17g},{h:.17g},{b:.17g},{d:.17g},{r:.17g}\n" for k, t, h, b, d, r in rows]
            ))


def write_trajectory_csv(path: str, dsys: DiscreteSystem, traj: Trajectory) -> None:
    """Rows keyed by state label and flat node index within the field; one
    write per snapshot and field."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,time,label,node,value\n")
        for step, t, state in traj.snapshots:
            for f in dsys.fields:
                prefix = f"{step},{t:.17g},{f.label},"
                seg = state[f.offset : f.offset + f.size].tolist()
                fh.write("".join([f"{prefix}{node},{value:.17g}\n" for node, value in enumerate(seg)]))
