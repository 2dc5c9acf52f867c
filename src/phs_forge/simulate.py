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
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .build import PHSystem
from .exact import fr, to_float
from .poly import Poly

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

    def contains(self, gidx: Tuple[int, ...]) -> bool:
        return all(s <= g < s + c for g, s, c in zip(gidx, self.starts, self.counts))

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
    d_exact: List[Tuple[int, int, Fraction]]
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

    def label(node: int) -> str:
        return f"p{node + 1}" if node < n else f"eps{node - n + 1}"

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
                        f"no consistent staggering: the parities of {label(a)} and {label(b)} "
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
    if ell == 3:
        raise SimulationUnsupported("3D elasticity is symbolic-stage only; no 3D grids")
    if ell == 2 and sys.op.order >= 2:
        raise SimulationUnsupported(
            f"{model.name}: second-order operators on 2D domains (e.g. the "
            "fourth-order plate) are supported in the symbolic stage only"
        )
    if sys.op.order > 2:
        raise SimulationUnsupported("operators of order greater than two are not discretized")
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
    group = list(range(sys.m))

    def find(a):
        while group[a] != a:
            group[a] = group[group[a]]
            a = group[a]
        return a

    for i in range(sys.m):
        for j in range(i + 1, sys.m):
            if sys.stiffness[i][j] != 0:
                group[find(i)] = find(j)
    for i in range(sys.m):
        gi = find(i)
        for a in range(ell):
            if eps_restrict[i][a]:
                eps_restrict[gi][a] = True
    for i in range(sys.m):
        eps_restrict[i] = eps_restrict[find(i)]

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
    for i in range(sys.n):
        name = model.r_names[i] if i < len(model.r_names) else f"r{i + 1}"
        layout(f"p{i + 1}", name, "p", i, p_shifts[i], clamped)
    for j in range(sys.m):
        layout(f"eps{j + 1}", f"eps{j + 1}", "eps", j, eps_shifts[j], [(r, r) for r in eps_restrict[j]])
    p_fields, eps_fields = fields[: sys.n], fields[sys.n :]

    d_exact, D, W, C, J = _assemble(sys, p_fields, eps_fields, dx, density_scale, stiffness_scale)
    return DiscreteSystem(sys, grid, bc, p_fields, eps_fields, dx, d_exact, D, J, C, W)


def _stencil(shift_src: int, shift_tgt: int, order: int, g: int, dx: Fraction):
    """1D stencil along one axis: list of (source index, coefficient)."""
    if order == 0:
        return [(g, Fraction(1))]
    if order == 1:
        if shift_src == 0 and shift_tgt == 1:
            return [(g, -1 / dx), (g + 1, 1 / dx)]
        if shift_src == 1 and shift_tgt == 0:
            return [(g - 1, -1 / dx), (g, 1 / dx)]
        if shift_src == shift_tgt:
            return [(g - 1, Fraction(-1, 2) / dx), (g + 1, Fraction(1, 2) / dx)]
    if order == 2 and shift_src == shift_tgt:
        w = 1 / dx**2
        return [(g - 1, w), (g, -2 * w), (g + 1, w)]
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


def _assemble(sys: PHSystem, p_fields, eps_fields, dx, density_scale=None, stiffness_scale=None):
    """(d_exact, D, W, C, J) on the laid-out fields; d_exact is indexed by state."""
    bounds = sys.model.domain.bounds
    fields = p_fields + eps_fields

    # exact difference operator entries
    d_exact: List[Tuple[int, int, Fraction]] = []
    for r, c, k, i, coeff in _operator_terms(sys):
        ef = eps_fields[r]
        pf = p_fields[c]
        axis = k - 1 if k else None
        for gidx in ef.nodes():
            if axis is None:
                pieces = [(gidx, coeff)]
            else:
                pieces = []
                for src_g, w in _stencil(pf.shifts[axis], ef.shifts[axis], i, gidx[axis], dx[axis]):
                    src = gidx[:axis] + (src_g,) + gidx[axis + 1 :]
                    pieces.append((src, coeff * w))
            row = ef.dof(gidx)
            for src, w in pieces:
                if pf.contains(src):
                    d_exact.append((row, pf.dof(src), w))

    num_p = eps_fields[0].offset
    num_dofs = fields[-1].offset + fields[-1].size
    data = np.fromiter((to_float(w) for (_, _, w) in d_exact), dtype=float, count=len(d_exact))
    rows = np.fromiter((r for (r, _, _) in d_exact), dtype=np.int64, count=len(d_exact)) - num_p
    cols = np.fromiter((c for (_, c, _) in d_exact), dtype=np.int64, count=len(d_exact))
    D = sparse.coo_matrix((data, (rows, cols)), shape=(num_dofs - num_p, num_p)).tocsr()

    # quadrature weights: per-field outer products of the axis weights
    W = np.concatenate(
        [
            reduce(np.multiply.outer, [np.array([to_float(x) for x in w]) for w in f.weights]).ravel()
            for f in fields
        ]
    )

    # co-energy map: block M^-1 on momenta, K on strains, per shared node
    c_rows: List[int] = []
    c_cols: List[int] = []
    c_data: List[float] = []

    def couple(f1: FieldLayout, f2: FieldLayout, value, scale):
        if (f1.shifts, f1.starts, f1.counts) != (f2.shifts, f2.starts, f2.counts):
            raise SimulationUnsupported(
                f"coupled components {f1.label} and {f2.label} have different "
                "node sets; this model cannot be staggered consistently"
            )
        v = to_float(value)
        for node, gidx in enumerate(f1.nodes()):
            factor = 1.0
            if scale is not None:
                factor = _scale_value(scale, [to_float(x) for x in f1.position(gidx, bounds, dx)])
            c_rows.append(f1.offset + node)
            c_cols.append(f2.offset + node)
            c_data.append(v * factor)

    # density scales the mass, so its inverse scales the momentum co-energy
    inv_density = None
    if density_scale is not None:
        inv_density = lambda *pos: 1.0 / _scale_value(density_scale, pos)
    for family, matrix, scale in (
        (p_fields, sys.mass_inv, inv_density),
        (eps_fields, sys.stiffness, stiffness_scale),
    ):
        for i, f1 in enumerate(family):
            for j, f2 in enumerate(family):
                if matrix[i][j] != 0:
                    couple(f1, f2, matrix[i][j], scale)
    C = sparse.coo_matrix((c_data, (c_rows, c_cols)), shape=(num_dofs, num_dofs)).tocsr()

    # weighted flux block and the exactly skew interconnection matrix
    s_hat = (sparse.diags(W[num_p:]) @ D).tocsr()
    J = sparse.bmat([[None, -s_hat.T], [s_hat, None]], format="csr")
    return d_exact, D, W, C, J


# ---------------------------------------------------------------------------
# Energy, states, inputs
# ---------------------------------------------------------------------------


def _scale_value(scale, pos) -> float:
    value = scale(*pos)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"material scaling must be positive and finite, got {value!r} at {pos}")
    return value


def discrete_hamiltonian(dsys: DiscreteSystem, state: np.ndarray) -> float:
    """H = 1/2 state^T W C state (quadrature-weighted quadratic energy)."""
    if state.shape != (dsys.num_dofs,):
        raise ValueError(f"state must have {dsys.num_dofs} entries")
    return 0.5 * float(state @ (dsys.W * (dsys.C @ state)))


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
    length = to_float(hi - lo)
    state = dsys.zero_state()
    for gidx in f.nodes():
        (x,) = f.position(gidx, bounds, dsys.dx)
        state[f.dof(gidx)] = np.sin(mode * np.pi * (to_float(x) - to_float(lo)) / length)
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
                tangential *= to_float(f.weights[a][gidx[a] - f.starts[a]])
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
        coeff = to_float(bd[i][column])
        if coeff == 0.0:
            continue
        vector[f.offset : f.offset + f.size] = coeff
    wvector = vector * dsys.W
    return InputChannel(f"distributed:{column}", "distributed", vector, wvector, u)


# ---------------------------------------------------------------------------
# Time integration
# ---------------------------------------------------------------------------


class _MidpointStepper:
    def __init__(self, dsys: DiscreteSystem, dt: float):
        a_mat = (sparse.diags(1.0 / dsys.W) @ dsys.J @ dsys.C).tocsr()
        eye = sparse.identity(dsys.num_dofs, format="csr")
        self.dt = dt
        self.forward = (eye + (dt / 2.0) * a_mat).tocsr()
        self.lu = splu((eye - (dt / 2.0) * a_mat).tocsc())

    def step(self, state: np.ndarray, t: float, inputs: Sequence[InputChannel]):
        rhs = self.forward @ state
        t_mid = t + self.dt / 2.0
        u_values = []
        for ch in inputs:
            u_val = float(ch.u(t_mid))
            if not math.isfinite(u_val):
                raise ValueError(f"input {ch.name} is not finite at t = {t_mid!r}: {u_val!r}")
            u_values.append(u_val)
            if u_val != 0.0:
                rhs = rhs + (self.dt * u_val) * ch.vector
        return self.lu.solve(rhs), u_values


def _stepper(dsys: DiscreteSystem, dt: float) -> _MidpointStepper:
    stepper = dsys._steppers.get(dt)
    if stepper is None:
        stepper = _MidpointStepper(dsys, dt)
        dsys._steppers[dt] = stepper
    return stepper


def _checked_dt(dt) -> float:
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    return float(dt)


def step_midpoint(
    dsys: DiscreteSystem,
    state: np.ndarray,
    dt: float,
    inputs: Sequence[InputChannel] = (),
    t: float = 0.0,
) -> np.ndarray:
    """One implicit-midpoint step (the factorization is cached per dt)."""
    new_state, _ = _stepper(dsys, _checked_dt(dt)).step(np.asarray(state, dtype=float), t, inputs)
    return new_state


def simulate(
    dsys: DiscreteSystem,
    dt: float,
    steps: int,
    inputs: Sequence[InputChannel] = (),
    state0: Optional[np.ndarray] = None,
    record_every: int = 0,
):
    """March ``steps`` midpoint steps, logging energy and port power.

    The residual column reports |dH - dt * (midpoint power)| per step, the
    discrete counterpart of the continuous power balance.
    """
    dt = _checked_dt(dt)
    if steps < 1:
        raise ValueError("need at least one step")
    if record_every < 0:
        raise ValueError("record_every must be >= 0")
    state = dsys.zero_state() if state0 is None else np.array(state0, dtype=float)
    if state.shape != (dsys.num_dofs,):
        raise ValueError(f"initial state must have {dsys.num_dofs} entries")
    if not np.all(np.isfinite(state)):
        raise ValueError("initial state has non-finite entries")

    stepper = _stepper(dsys, dt)
    times = np.zeros(steps + 1)
    energy = np.zeros(steps + 1)
    bpow = np.zeros(steps + 1)
    dpow = np.zeros(steps + 1)
    resid = np.zeros(steps + 1)
    energy[0] = discrete_hamiltonian(dsys, state)

    labels = [f.label for f in dsys.fields]
    snapshots = [(0, 0.0, state.copy())]

    # entered once, not per step (~2 us each); overflow shows as non-finite energy
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            t = k * dt
            new_state, u_values = stepper.step(state, t, inputs)
            mid = 0.5 * (state + new_state)
            e_mid = dsys.C @ mid
            p_boundary = 0.0
            p_distributed = 0.0
            for ch, u_val in zip(inputs, u_values):
                p = float(e_mid @ ch.wvector) * u_val
                if ch.kind == "boundary":
                    p_boundary += p
                else:
                    p_distributed += p
            state = new_state
            h_new = discrete_hamiltonian(dsys, state)
            if not math.isfinite(h_new):
                raise ValueError(
                    f"energy is not finite after step {k + 1} (t = {(k + 1) * dt!r}): {h_new!r}"
                )
            times[k + 1] = (k + 1) * dt
            energy[k + 1] = h_new
            bpow[k + 1] = p_boundary
            dpow[k + 1] = p_distributed
            resid[k + 1] = abs(h_new - energy[k] - dt * (p_boundary + p_distributed))
            if record_every and (k + 1) % record_every == 0:
                snapshots.append((k + 1, times[k + 1], state.copy()))
    if not snapshots or snapshots[-1][0] != steps:
        snapshots.append((steps, times[-1], state.copy()))

    log = EnergyLog(times, energy, bpow, dpow, resid)
    return Trajectory(labels, snapshots), log


# ---------------------------------------------------------------------------
# Exact stencil consistency (testing hook)
# ---------------------------------------------------------------------------


def difference_consistency_errors(dsys: DiscreteSystem, fields: Sequence[Poly]):
    """Apply the exact difference entries to samples of polynomial momentum
    co-energy fields and compare with the symbolically applied operator at the
    strain nodes.  Returns the list of nonzero (state index, error) pairs;
    empty for polynomials of degree <= 2 on unclamped grids."""
    sys = dsys.system
    model = sys.model

    def values(fam, polys):
        return {
            f.dof(gidx): polys[f.index].eval(
                dict(zip(model.dist, f.position(gidx, model.domain.bounds, dsys.dx)))
            )
            for f in fam
            for gidx in f.nodes()
        }

    p_vals = values(dsys.p_fields, fields)
    expected = values(dsys.eps_fields, sys.op.apply(list(fields)))
    got: Dict[int, Fraction] = {row: Fraction(0) for row in expected}
    for row, col, w in dsys.d_exact:
        got[row] += w * p_vals[col]
    return [(row, got[row] - expected[row]) for row in expected if got[row] != expected[row]]


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def write_energy_csv(path: str, log: EnergyLog) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,time,H,boundary_power,distributed_power,residual\n")
        for k in range(len(log.energy)):
            fh.write(
                f"{k},{log.times[k]:.17g},{log.energy[k]:.17g},"
                f"{log.boundary_power[k]:.17g},{log.distributed_power[k]:.17g},"
                f"{log.residual[k]:.17g}\n"
            )


def write_trajectory_csv(path: str, dsys: DiscreteSystem, traj: Trajectory) -> None:
    """Rows keyed by state label and flat node index within the field."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,time,label,node,value\n")
        for step, t, state in traj.snapshots:
            for f in dsys.fields:
                seg = state[f.offset : f.offset + f.size]
                for node, value in enumerate(seg):
                    fh.write(f"{step},{t:.17g},{f.label},{node},{value:.17g}\n")
