"""Discrete stage: lattice layout, exact skewness, stencil consistency,
conservation and the per-step power balance."""

import hashlib
import json
import math
import random
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import splu

from phs_forge.build import assemble_phs
from phs_forge.modelfile import parse_model
from phs_forge.models import builtin_model, builtin_names, random_poly
from phs_forge.simulate import (
    ENERGY_CSV_CHUNK,
    EnergyLog,
    FieldLayout,
    GridSpec,
    InputChannel,
    SimulationUnsupported,
    Trajectory,
    boundary_traction_input,
    discrete_hamiltonian,
    discretize,
    distributed_input,
    fourier_state,
    random_state,
    simulate,
    simulation_refusal,
    step_midpoint,
    write_energy_csv,
    write_trajectory_csv,
    SERIES_MAX_RHO,
    pencil,
    _FullMidpoint,
    _SchurMidpoint,
    _block_rows,
    _operator_terms,
    _stencil,
    _stepper,
)


def _dsys(name, cells, bc=None, params=None):
    sys_ = assemble_phs(builtin_model(name, params))
    return discretize(sys_, GridSpec(cells), bc or {})


def _exact_difference_entries(dsys):
    """{(strain state index, momentum state index): exact weight} of D, built
    node by node from the operator terms and their stencils: a reference for
    the vectorized assembly in ``discretize``."""
    entries = {}
    for r, c, k, i, coeff in _operator_terms(dsys.system):
        ef, pf = dsys.eps_fields[r], dsys.p_fields[c]
        axis = k - 1 if k else 0  # a k = 0 term has order 0: one identity entry
        stencil = _stencil(pf.shifts[axis], ef.shifts[axis], i, dsys.dx[axis])
        for node in ef.nodes():
            for delta, w in stencil:
                src = tuple(g + delta * (a == axis) for a, g in enumerate(node))
                if all(s <= g < s + n for g, s, n in zip(src, pf.starts, pf.counts)):
                    key = (ef.dof(node), pf.dof(src))
                    entries[key] = entries.get(key, 0) + coeff * w
    return entries


def _checked_difference_entries(dsys):
    """The exact entries of D, after asserting that the float D holds each
    of them rounded, and nothing else."""
    entries = _exact_difference_entries(dsys)
    coo = dsys.D.tocoo()
    rows = (coo.row + dsys.num_p).tolist()
    assert dict(zip(zip(rows, coo.col.tolist()), coo.data.tolist())) == {
        key: float(w) for key, w in entries.items()
    }
    return entries


def difference_consistency_errors(dsys, fields):
    """Apply the exact entries of D (checked against the float D) to samples
    of polynomial momentum co-energy fields and compare with the symbolically
    applied operator at the strain nodes.  Returns the nonzero (state index,
    error) pairs; none for polynomials of degree <= 2 on unclamped grids."""
    entries = _checked_difference_entries(dsys)
    model = dsys.system.model

    def values(fam, polys):
        return {
            f.dof(node): polys[f.index].eval(
                dict(zip(model.dist, f.position(node, model.domain.bounds, dsys.dx)))
            )
            for f in fam
            for node in f.nodes()
        }

    p_vals = values(dsys.p_fields, fields)
    expected = values(dsys.eps_fields, dsys.system.op.apply(list(fields)))
    got = {row: F(0) for row in expected}
    for (row, col), w in entries.items():
        got[row] += w * p_vals[col]
    return [(row, got[row] - expected[row]) for row in expected if got[row] != expected[row]]


_SYSTEMS = {name: assemble_phs(builtin_model(name)) for name in builtin_names()}
SIMULABLE = sorted(name for name, s in _SYSTEMS.items() if simulation_refusal(s.model) is None)
FACES = {1: ("left", "right"), 2: ("left", "right", "bottom", "top")}


def test_string_difference_is_bidiagonal():
    dsys = _dsys("string", (8,))
    dx = F(1, 8)
    by_row = {}
    for (r, c), w in _checked_difference_entries(dsys).items():
        by_row.setdefault(r, []).append((c, w))
    assert len(by_row) == 8
    for r, entries in by_row.items():
        entries.sort()
        (c0, w0), (c1, w1) = entries
        assert c1 == c0 + 1
        assert w0 == -1 / dx and w1 == 1 / dx


def test_timoshenko_layout_counts():
    dsys = _dsys("timoshenko", (64,))
    sizes = {f.label: f.size for f in dsys.p_fields + dsys.eps_fields}
    # psi on the integer lattice (65), w on the half lattice (64); the
    # bending strain d1(psi) lands on half nodes (64), the shear strain
    # d1(w) - psi on interior integer nodes (63)
    assert sizes == {"p1": 65, "p2": 64, "eps1": 64, "eps2": 63}
    assert dsys.num_dofs == 256


def test_clamped_faces_remove_momentum_nodes():
    free = _dsys("timoshenko", (64,))
    clamped = _dsys("timoshenko", (64,), {"left": "clamped", "right": "clamped"})
    assert clamped.num_p == free.num_p - 2  # psi has the only face nodes
    assert clamped.num_eps == free.num_eps


def test_timoshenko_cantilever_face_record():
    dsys = _dsys("timoshenko", (16,), {"left": "clamped", "right": "free"})
    assert {f.label: f.ends for f in dsys.fields} == {
        "p1": (("clamped", "node"),),
        "p2": (("half", "half"),),
        "eps1": (("half", "half"),),
        "eps2": (("restricted", "restricted"),),
    }


@pytest.mark.parametrize("bc", [{"left": "pinned"}, {"left": "Clamped"}])
def test_discretize_names_the_face_and_the_condition_it_refuses(bc):
    ((face, kind),) = bc.items()
    message = f"face {face!r} is {kind!r}; boundary conditions are 'clamped' or 'free'"
    with pytest.raises(ValueError, match=re.escape(message)):
        _dsys("string", (8,), bc)


def test_an_unknown_face_is_refused_with_the_grid_faces():
    with pytest.raises(ValueError, match="^unknown face 'top'; faces are left, right$"):
        _dsys("string", (8,), {"top": "free"})
    dsys = _dsys("string", (8,))
    with pytest.raises(ValueError, match="^unknown face 'top'; faces are left, right$"):
        boundary_traction_input(dsys, "top", "p1", lambda t: 1.0)
    dsys = _dsys("elasticity2d", (4, 4))
    with pytest.raises(ValueError, match="^unknown face 'front'; faces are left, right, bottom, top$"):
        boundary_traction_input(dsys, "front", "p1", lambda t: 1.0)


def test_discretize_refuses_a_step_matrix_past_float_range():
    # M^-1 is about 1.27e308, a float, but W^-1 J C is not; the refusal used
    # to come from the stepper, after discretize had returned
    sys_ = assemble_phs(builtin_model("torsion", {"rho": F("5e-309")}))
    message = "the step matrix of torsion may pass the float range: max(1/W) * max|J| * max|C| overflows"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        discretize(sys_, GridSpec((8,)))


def test_interconnection_exactly_skew():
    for name, cells in (
        ("string", (16,)),
        ("timoshenko", (16,)),
        ("rayleigh_beam", (16,)),
        ("elasticity2d", (6, 6)),
        ("mindlin_plate", (5, 5)),
        ("reddy_plate", (4, 4)),
    ):
        dsys = _dsys(name, cells)
        assert (dsys.J + dsys.J.T).nnz == 0, name


def test_mindlin_smoke_assembly():
    dsys = _dsys("mindlin_plate", (16, 16))
    assert dsys.num_dofs > 0
    assert dsys.C.shape == (dsys.num_dofs, dsys.num_dofs)


def test_unsupported_models_refused():
    sys_ = assemble_phs(builtin_model("kirchhoff_rayleigh"))
    with pytest.raises(SimulationUnsupported, match="symbolic"):
        discretize(sys_, GridSpec((8, 8)))
    sys3 = assemble_phs(builtin_model("elasticity3d"))
    with pytest.raises(SimulationUnsupported, match="3D"):
        discretize(sys3, GridSpec((4, 4)))


def test_grid_requires_three_cells():
    with pytest.raises(ValueError):
        GridSpec((2,))
    # a cell count must be an integer, as steps must; numpy integers are accepted
    for cells, shown in [((16.0,), "16.0"), (("16",), "'16'"), ((8, 7.5), "7.5")]:
        with pytest.raises(ValueError, match=re.escape(f"cells must be an integer, got {shown}")):
            GridSpec(cells)
    assert discretize(_SYSTEMS["string"], GridSpec((np.int64(16),)), {}).num_dofs > 0


@pytest.mark.parametrize(
    "name,cells",
    [
        ("string", (12,)),
        ("truss", (12,)),
        ("timoshenko", (12,)),
        ("torsion", (12,)),
        ("reddy_beam", (12,)),
        ("rayleigh_beam", (12,)),
        ("euler_bernoulli", (12,)),
        ("elasticity2d", (6, 5)),
        ("mindlin_plate", (6, 5)),
        ("reddy_plate", (5, 4)),
    ],
)
def test_difference_consistency_exact_on_quadratics(name, cells):
    """Interior stencils applied to degree-2 polynomials reproduce the
    operator exactly, in rational arithmetic."""
    dsys = _dsys(name, cells)
    model = dsys.system.model
    rng = random.Random(f"consistency:{name}")
    fields = [random_poly(rng, model.dist, 2) for _ in range(model.n)]
    errors = difference_consistency_errors(dsys, fields)
    assert errors == [], errors[:3]


# One field w with u1 = -z3 w, u3 = w: the shear strain d1(w) - w couples w to
# eps2 both through a difference (odd parity) and an identity (even parity),
# so no staggering makes every term single-lattice.
MIXED_PARITY_MODEL = """
version = 1
name = mixed_parity_shear

[coords]
distributed = z1
complementary = z2 z3

[domain]
interval = 0, 1

[section]
rectangle = 1, 1

[params]
rho = 1

[lambda1]
-z3
0
1

[lambda2]
-z3, 0
0, 1

[F]
d1
d1 - 1

[C]
1, 0
0, 1
"""


def test_inconsistent_staggering_warns_and_collocates():
    sys_ = assemble_phs(parse_model(MIXED_PARITY_MODEL))
    with pytest.warns(RuntimeWarning, match="parities of p1 and eps2 conflict"):
        dsys = discretize(sys_, GridSpec((8,)))
    assert all(f.shifts == (0,) for f in dsys.p_fields + dsys.eps_fields)


def test_builtins_stagger_without_fallback():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name in builtin_names():
            sys_ = assemble_phs(builtin_model(name))
            try:
                discretize(sys_, GridSpec((4,) * sys_.model.ell))
            except SimulationUnsupported:
                continue


def test_zero_state_stays_zero():
    dsys = _dsys("string", (16,))
    state = dsys.zero_state()
    out = step_midpoint(dsys, state, 1e-2)
    assert np.all(out == 0.0)


def test_dt_must_be_positive():
    dsys = _dsys("string", (8,))
    with pytest.raises(ValueError):
        step_midpoint(dsys, dsys.zero_state(), 0.0)
    with pytest.raises(ValueError):
        simulate(dsys, dt=0.0, steps=10)
    with pytest.raises(ValueError):
        simulate(dsys, dt=1e-2, steps=0)
    for dt in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            step_midpoint(dsys, dsys.zero_state(), dt)
        with pytest.raises(ValueError, match="finite"):
            simulate(dsys, dt=dt, steps=10)
    assert not dsys._steppers  # rejected before any factorization


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_initial_state_rejected(bad):
    dsys = _dsys("string", (8,))
    state = random_state(dsys, 1)
    state[3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        simulate(dsys, dt=1e-2, steps=10, state0=state)


def test_initial_state_with_infinite_energy_rejected():
    dsys = _dsys("truss", (16,))
    state = np.full(dsys.num_dofs, 1e200)  # finite entries, overflowing energy
    # no np.errstate here: pytest turns numpy's overflow warning into an error
    with pytest.raises(ValueError, match="initial state has non-finite energy"):
        simulate(dsys, dt=1e-3, steps=3, state0=state)


@pytest.mark.parametrize("bad", ["scalar", "short", "row", "nan"])
def test_step_and_simulate_refuse_the_same_bad_states(bad):
    dsys = _dsys("string", (8,))
    n = dsys.num_dofs
    state, problem = {
        "scalar": (1.0, f"must have {n} entries"),  # would broadcast into the buffer row
        "short": (np.ones(n - 1), f"must have {n} entries"),
        "row": (np.ones((1, n)), f"must have {n} entries"),
        "nan": (np.full(n, np.nan), "has non-finite entries"),  # would step to NaNs
    }[bad]
    with pytest.raises(ValueError, match=f"^state {problem}$"):
        step_midpoint(dsys, state, 1e-3)
    with pytest.raises(ValueError, match=f"^initial state {problem}$"):
        simulate(dsys, 1e-3, 3, state0=state)


@pytest.mark.parametrize("field", ["vector", "wvector"])
@pytest.mark.parametrize("kind", ["single", "column"])
def test_input_vectors_must_have_one_entry_per_dof(field, kind):
    dsys = _dsys("string", (8,))
    n = dsys.num_dofs
    shape = {"single": (1,), "column": (n, 1)}[kind]
    vectors = {"vector": np.zeros(n), "wvector": np.zeros(n)}
    vectors[field] = np.ones(shape)
    # a (1,)-shaped vector would broadcast, and simulate would log a wrong balance
    channel = InputChannel("x", "boundary", vectors["vector"], vectors["wvector"], lambda t: 1.0)
    message = rf"^input x: {field} must have shape \({n},\), got {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        simulate(dsys, 1e-3, 3, [channel])
    with pytest.raises(ValueError, match=message):
        step_midpoint(dsys, dsys.zero_state(), 1e-3, inputs=[channel])


def test_hamiltonian_quadrature_constant_momentum_string():
    dsys = _dsys("string", (8,))
    state = dsys.zero_state()
    f = dsys.field_by_name("p1")
    for g in f.nodes():
        state[f.dof(g)] = 1.0
    assert discrete_hamiltonian(dsys, state) == pytest.approx(0.5, abs=1e-15)


def test_hamiltonian_quadrature_constant_shear_timoshenko():
    dsys = _dsys("timoshenko", (8,))
    state = dsys.zero_state()
    f = dsys.field_by_name("eps2")
    for g in f.nodes():
        state[f.dof(g)] = 1.0
    # H = 1/2 * kappa G A * |domain| = 1/2 * 5/6
    assert discrete_hamiltonian(dsys, state) == pytest.approx(5.0 / 12.0, abs=1e-15)


def test_fourier_mode_amplitude_and_energy_preserved():
    dsys = _dsys("string", (64,), {"left": "clamped", "right": "clamped"})
    state = fourier_state(dsys, "p1", mode=3)
    traj, log = simulate(dsys, dt=5e-3, steps=1000, state0=state)
    assert log.relative_drift <= 1e-12
    # the state stays on the invariant circle: max amplitude comparable
    assert np.max(np.abs(traj.snapshots[-1][2])) <= np.max(np.abs(state)) * (1 + 1e-10)


def test_conservation_closed_systems_quick():
    cases = [
        ("string", (64,), {"left": "clamped", "right": "clamped"}),
        ("timoshenko", (32,), {"left": "clamped", "right": "free"}),
        ("rayleigh_beam", (32,), {"left": "clamped", "right": "clamped"}),
        ("elasticity2d", (8, 8), {}),
    ]
    for name, cells, bc in cases:
        dsys = _dsys(name, cells, bc)
        state = random_state(dsys, seed=11)
        traj, log = simulate(dsys, dt=1e-3, steps=2000, state0=state)
        assert log.relative_drift <= 1e-11, (name, log.relative_drift)


@pytest.mark.parametrize("name", SIMULABLE)
def test_midpoint_solve_is_backward_stable(name):
    """The fill-reducing ordering relaxes pivoting towards the diagonal; the
    factored solve must still leave a roundoff-level residual.  The factored
    matrix is (I - hA) / 2, whose solve returns 2y: its residual is that of
    y on I - hA, exactly."""
    ell = _SYSTEMS[name].model.ell
    cells = (64,) if ell == 1 else (8, 7)
    faces = FACES[ell]
    rng = np.random.default_rng(17)
    for bc in (
        {},
        {face: "clamped" for face in faces},
        {face: ("clamped" if k % 2 == 0 else "free") for k, face in enumerate(faces)},
    ):
        dsys = discretize(_SYSTEMS[name], GridSpec(cells), bc)
        a_mat = sparse.diags(1.0 / dsys.W) @ dsys.J @ dsys.C
        for dt in (1e-3, 1e-1):
            midpoint = 0.5 * (sparse.identity(dsys.num_dofs) - (dt / 2.0) * a_mat)
            r = rng.standard_normal(dsys.num_dofs)
            y = _FullMidpoint(dsys, dt).lu.solve(r)
            error = np.linalg.norm(midpoint @ y - r) / np.linalg.norm(r)
            assert error <= 1e-12, (bc, dt, error)


SIMULABLE_1D = [name for name in SIMULABLE if _SYSTEMS[name].model.ell == 1]


@pytest.mark.parametrize("name", SIMULABLE_1D)
def test_half_scaled_step_is_exact(name):
    """The 1D stepper factors (I - hA) / 2, whose solve is 2y.  Its states
    equal, bit for bit, those of factoring I - hA with the same options and
    setting x+ = 2y - x, with and without an input."""
    dsys = _dsys(name, (64,), {"left": "clamped", "right": "free"})
    dt, steps = 1e-3, 50
    h = dt / 2.0
    a_mat = sparse.diags(1.0 / dsys.W) @ dsys.J @ dsys.C
    lu = splu(
        (sparse.identity(dsys.num_dofs, format="csr") - h * a_mat.tocsr()).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.01,
        options={"SymmetricMode": True},
    )
    b = np.random.default_rng(41).standard_normal(dsys.num_dofs)
    channel = InputChannel("probe", "boundary", b, b * dsys.W, lambda t: math.cos(3.0 * t))
    state0 = random_state(dsys, seed=41)
    for inputs in ([], [channel]):
        traj, _ = simulate(dsys, dt, steps, inputs=inputs, state0=state0, record_every=1)
        x = state0
        for k, _, state in traj.snapshots[1:]:
            rhs = h * math.cos(3.0 * ((k - 1) * dt + h)) * b + x if inputs else x
            x = 2.0 * lu.solve(rhs) - x
            assert np.array_equal(state, x), (len(inputs), k)


def _check_full_midpoint_equation(name, stepper_kind=None):
    """(I - hA) x+ = (I + hA) x + dt u b, h = dt/2, for the step as taken,
    with ``stepper_kind`` installed in place of the one _stepper picks."""
    ell = _SYSTEMS[name].model.ell
    cells = (64,) if ell == 1 else (8, 7)
    faces = FACES[ell]
    bc = {face: ("clamped" if k % 2 == 0 else "free") for k, face in enumerate(faces)}
    dsys = discretize(_SYSTEMS[name], GridSpec(cells), bc)
    rng = np.random.default_rng(23)
    a_mat = sparse.diags(1.0 / dsys.W) @ dsys.J @ dsys.C
    eye = sparse.identity(dsys.num_dofs)
    b = rng.standard_normal(dsys.num_dofs)
    channel = InputChannel("probe", "boundary", b, b * dsys.W, lambda t: np.cos(3.0 * t))
    t = 0.25
    for dt in (1e-3, 1e-1):
        if stepper_kind is not None:
            dsys._steppers[dt] = stepper_kind(dsys, dt)
        h = dt / 2.0
        for inputs in ([], [channel]):
            x = rng.standard_normal(dsys.num_dofs)
            forcing = dt * np.cos(3.0 * (t + h)) * b if inputs else 0.0
            x_new = step_midpoint(dsys, x, dt, inputs=inputs, t=t)
            rhs = (eye + h * a_mat) @ x + forcing
            error = np.linalg.norm((eye - h * a_mat) @ x_new - rhs) / np.linalg.norm(rhs)
            assert error <= 1e-12, (dt, len(inputs), error)


@pytest.mark.parametrize("name", SIMULABLE)
def test_midpoint_step_satisfies_the_full_midpoint_equation(name):
    """Pins x+ = 2y - x and the h u scaling of the input in the midpoint solve."""
    _check_full_midpoint_equation(name)


@pytest.mark.parametrize("name", SIMULABLE)
def test_schur_step_satisfies_the_full_midpoint_equation(name):
    """The velocity-Schur step solves the same equation as the full one."""
    _check_full_midpoint_equation(name, _SchurMidpoint)


@pytest.mark.parametrize("name", SIMULABLE)
def test_schur_solve_is_backward_stable(name):
    """The SPD velocity solve takes diagonal pivots only; it must stay at
    roundoff far past the accuracy limits of the step, where the relaxed
    pivots of the full factorization lose accuracy."""
    ell = _SYSTEMS[name].model.ell
    cells = (64,) if ell == 1 else (8, 7)
    faces = FACES[ell]
    rng = np.random.default_rng(29)
    for bc in (
        {},
        {face: "clamped" for face in faces},
        {face: ("clamped" if k % 2 == 0 else "free") for k, face in enumerate(faces)},
    ):
        dsys = discretize(_SYSTEMS[name], GridSpec(cells), bc)
        M_v, K_v, _ = pencil(dsys)
        for dt in (1e-3, 1e-1, 1.0, 10.0):
            matrix = M_v + (dt / 2.0) ** 2 * K_v
            r = rng.standard_normal(dsys.num_p)
            v = _SchurMidpoint(dsys, dt).lu.solve(r)
            scale = sparse.linalg.norm(matrix, 1) * np.linalg.norm(v, 1) + np.linalg.norm(r, 1)
            error = np.linalg.norm(matrix @ v - r, 1) / scale
            assert error <= 1e-15, (bc, dt, error)


SIMULABLE_2D = [name for name in SIMULABLE if _SYSTEMS[name].model.ell == 2]


@pytest.mark.parametrize("cells", [(8, 7), (64, 64)], ids=["8x7", "64x64"])
@pytest.mark.parametrize("name", SIMULABLE_2D)
def test_series_solve_is_backward_stable(name, cells):
    """The Neumann series at dt = 1e-3 leaves the backward error of a direct
    solve on the velocity system in the momenta, (W_p + h^2 K_v C_p) y_p = b."""
    faces = FACES[2]
    rng = np.random.default_rng(37)
    for bc in (
        {},
        {face: "clamped" for face in faces},
        {face: ("clamped" if k % 2 == 0 else "free") for k, face in enumerate(faces)},
    ):
        dsys = discretize(_SYSTEMS[name], GridSpec(cells), bc)
        _, K_v, _ = pencil(dsys)
        dt = 1e-3
        stepper = _SchurMidpoint(dsys, dt)
        assert stepper.terms > 0, stepper.rho_bound
        num_p = dsys.num_p
        matrix = sparse.diags(dsys.W[:num_p]) + (dt / 2.0) ** 2 * (K_v @ dsys.C[:num_p, :num_p])
        r = rng.standard_normal(num_p)
        v = stepper.solve(r)
        scale = sparse.linalg.norm(matrix, 1) * np.linalg.norm(v, 1) + np.linalg.norm(r, 1)
        error = np.linalg.norm(matrix @ v - r, 1) / scale
        assert error <= 1e-15, (bc, error)
        assert "lu" not in vars(stepper)


@pytest.mark.parametrize("name", SIMULABLE_2D)
def test_series_ratio_bound_holds(name):
    """rho_bound = |h^2 M_v^-1 K_v|_inf bounds h^2 lambda_max(M_v^-1 K_v),
    and terms is the fewest with rho_bound^terms <= 2^-53."""
    dsys = _dsys(name, (8, 7), {"left": "clamped", "top": "clamped"})
    M_v, K_v, _ = pencil(dsys)
    for dt in (1e-3, 1e-2):
        stepper = _SchurMidpoint(dsys, dt)
        rho = (dt / 2.0) ** 2 * scipy.linalg.eigh(K_v.toarray(), M_v.toarray(), eigvals_only=True)[-1]
        assert 0 < rho <= stepper.rho_bound, (dt, rho, stepper.rho_bound)
        assert stepper.rho_bound ** stepper.terms <= 2.0**-53 < stepper.rho_bound ** (stepper.terms - 1)


@pytest.mark.parametrize(
    "name, bc, port",
    [
        ("mindlin_plate", {}, "psi1"),
        ("elasticity2d", {"left": "clamped", "right": "free"}, "u1"),
    ],
    ids=["mindlin_plate-right-psi1", "elasticity2d-right-u1"],
)
def test_power_balance_on_the_series_path(name, bc, port):
    dsys = _dsys(name, (32, 32), bc)
    channel = boundary_traction_input(dsys, "right", port, lambda t: 0.5 * np.sin(3 * t))
    state = random_state(dsys, seed=4, amplitude=0.1)
    _, log = simulate(dsys, dt=1e-3, steps=300, state0=state, inputs=[channel])
    assert _stepper(dsys, 1e-3).terms > 0
    scale = np.maximum(1.0, np.abs(log.energy[1:]))
    assert np.max(log.residual[1:] / scale) <= 1e-10


@pytest.mark.parametrize("name", SIMULABLE)
def test_pencil_is_the_momentum_velocity_form(name):
    """M_v = W_p C_p^-1 (per-node block inverse, density scaling included) is
    symmetric positive definite; K_v = S^T C_eps D is symmetric and
    v^T K_v v is twice the strain energy of eps = D v; S = diag(W_eps) D is
    J's lower-left block."""
    ell = _SYSTEMS[name].model.ell
    cells = (16,) if ell == 1 else (6, 5)
    density = (lambda x: 1.0 + 0.5 * x) if ell == 1 else (lambda x, y: 1.0 + 0.5 * x * y)
    dsys = discretize(_SYSTEMS[name], GridSpec(cells), {}, density_scale=density)
    M_v, K_v, S = pencil(dsys)
    num_p = dsys.num_p
    w_p, w_eps = dsys.W[:num_p], dsys.W[num_p:]
    c_p, c_eps = dsys.C[:num_p, :num_p], dsys.C[num_p:, num_p:]
    rng = np.random.default_rng(31)
    p = rng.standard_normal(num_p)
    assert np.allclose(M_v @ (c_p @ p), w_p * p, rtol=1e-14, atol=1e-14 * np.abs(w_p * p).max())
    for matrix in (M_v, K_v):
        asym = abs(matrix - matrix.T).max()
        assert asym <= 1e-14 * abs(matrix).max(), asym
    assert np.linalg.eigvalsh(M_v.toarray()).min() > 0
    assert abs(S - sparse.diags(w_eps) @ dsys.D).max() == 0
    block = dsys.J[num_p:, :num_p]  # S is J's block, in the same layout
    assert all(np.array_equal(getattr(S, a), getattr(block, a)) for a in ("data", "indices", "indptr"))
    v = rng.standard_normal(num_p)
    eps = dsys.D @ v
    assert v @ (K_v @ v) == pytest.approx(eps @ (w_eps * (c_eps @ eps)), rel=1e-12)


@pytest.mark.parametrize("dt", [1e-3, 0.1], ids=["series", "factored"])
def test_a_schur_step_forms_the_pencil_once(monkeypatch, dt):
    simulate_module = sys.modules["phs_forge.simulate"]  # the package exports the function
    calls = []

    def spy(dsys):
        calls.append(dsys)
        return pencil(dsys)

    monkeypatch.setattr(simulate_module, "pencil", spy)
    dsys = _dsys("elasticity2d", (8, 7))
    step_midpoint(dsys, random_state(dsys, seed=2), dt)
    assert bool(_stepper(dsys, dt).terms) is (dt == 1e-3)
    assert len(calls) == 1


def test_pencil_refuses_a_coupled_co_energy_map():
    dsys = _dsys("timoshenko", (8,))
    coupling = sparse.coo_matrix(([1.0], ([0], [dsys.num_p])), shape=dsys.C.shape)
    dsys.C = (dsys.C + coupling).tocsr()
    with pytest.raises(ValueError, match="couples momenta and strains"):
        pencil(dsys)


# (beta L) of the first clamped-clamped mode: pi for the wave equation, the
# first root of cos(bL) cosh(bL) = 1 for the Euler-Bernoulli beam
_CLAMPED_ROOT = {1: math.pi, 2: 4.730040744862704}


@pytest.mark.parametrize(
    "name",
    [
        "string",
        "truss",
        pytest.param(
            "euler_bernoulli",
            marks=pytest.mark.xfail(strict=True, reason="pinned, ROADMAP item 3"),
        ),
    ],
)
def test_first_clamped_mode_converges_at_order_two(name):
    """omega_1 of the pencil against the closed form (beta L)^order sqrt(K/M)
    on the unit interval: pi for string and truss, 6.459 for a truly clamped
    Euler-Bernoulli beam.  The error must fall by about 4 per halving."""
    sys_ = _SYSTEMS[name]
    exact = _CLAMPED_ROOT[sys_.model.order] ** sys_.model.order * math.sqrt(
        sys_.stiffness[0][0] / sys_.mass[0][0]
    )
    errors = []
    for cells in (32, 64, 128):
        M_v, K_v, _ = pencil(discretize(sys_, GridSpec((cells,)), {"left": "clamped", "right": "clamped"}))
        omega_sq = scipy.linalg.eigh(K_v.toarray(), M_v.toarray(), eigvals_only=True)
        errors.append(abs(math.sqrt(omega_sq[0]) - exact))
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(3.5 <= r <= 4.5 for r in ratios), (errors, ratios)


# The continuum's rigid motions with every face free; a clamped face leaves none.
_RIGID_MOTIONS = {
    "string": 1, "truss": 1, "torsion": 1,
    "euler_bernoulli": 2, "timoshenko": 2, "rayleigh_beam": 2, "reddy_beam": 2,
    "elasticity2d": 3, "mindlin_plate": 3, "reddy_plate": 3,
}
# Rows that read otherwise at these grids: the count they read (a function of
# the cells per axis where it grows with the grid), why, and the ROADMAP item
# that fixes them.
_KERNEL_DEFECTS = {
    ("elasticity2d", "free"): (7, "one mode per corner node of p1: item 16"),
    ("elasticity2d", "clamped"): (1, "u2 on the half lattice is not held: item 3"),
    ("elasticity2d", "left"): (3, "items 3 and 16"),
    ("mindlin_plate", "free"): (7, "item 16"),
    ("mindlin_plate", "left"): (4, "items 3 and 16"),
    ("reddy_plate", "free"): (14, "slopes move apart from w: item 13"),
    ("reddy_plate", "clamped"): (1, "item 13"),
    ("reddy_plate", "left"): (7, "item 13"),
    ("reddy_beam", "free"): (3, "theta moves apart from w: item 2"),
    ("reddy_beam", "clamped"): (1, "item 2"),
    ("reddy_beam", "left"): (1, "item 2"),
    ("timoshenko", "clamped"): (1, "w on the half lattice is not held: item 3"),
    ("timoshenko", "left"): (1, "item 3"),
    ("euler_bernoulli", "left"): (1, "a rigid rotation; the clamp pins: item 3"),
    ("rayleigh_beam", "free"): (lambda cells: cells + 3, "theta moves apart from w: item 2"),
    ("rayleigh_beam", "clamped"): (lambda cells: cells - 1, "item 2"),
    ("rayleigh_beam", "left"): (lambda cells: cells + 1, "item 2"),
}


def _defect_count(name, faces, cells):
    """The zero modes a defect row reads with ``cells`` cells per axis."""
    count = _KERNEL_DEFECTS[name, faces][0]
    return count(cells) if callable(count) else count


def _kernel_cases(rows, xfail_defects=False):
    """``rows`` of (name, faces) on both grids; with ``xfail_defects``, each
    defect row is a strict xfail that names its count."""
    for name, faces in rows:
        ell = _SYSTEMS[name].model.ell
        for cells in ((16, 32) if ell == 1 else (6, 8)):
            marks = []
            if xfail_defects and (name, faces) in _KERNEL_DEFECTS:
                reason = f"{_defect_count(name, faces, cells)}, {_KERNEL_DEFECTS[name, faces][1]}"
                marks = [pytest.mark.xfail(strict=True, reason=reason)]
            yield pytest.param(name, faces, (cells,) * ell, marks=marks, id=f"{name}-{faces}-{cells}")


def _zero_modes(name, faces, cells):
    """The zero modes of (K_v, M_v), omega^2 < 1e-9 max omega^2, with all faces
    free, all clamped, or the left face clamped and the rest free."""
    sys_ = _SYSTEMS[name]
    bc = {f: "clamped" if faces == "clamped" or (faces, f) == ("left", "left") else "free"
          for f in FACES[sys_.model.ell]}
    M_v, K_v, _ = pencil(discretize(sys_, GridSpec(cells), bc))
    omega_sq = scipy.linalg.eigh(K_v.toarray(), M_v.toarray(), eigvals_only=True)
    return int(np.sum(omega_sq < 1e-9 * omega_sq.max()))


def test_kernel_table_covers_every_simulable_builtin():
    assert sorted(_RIGID_MOTIONS) == SIMULABLE


_KERNEL_ROWS = [(name, faces) for name in SIMULABLE for faces in ("free", "clamped", "left")]


@pytest.mark.parametrize("name, faces, cells", list(_kernel_cases(_KERNEL_ROWS, xfail_defects=True)))
def test_pencil_kernel_dimension_matches_the_continuum(name, faces, cells):
    """The zero modes number the continuum's rigid motions.  Energy gates
    cannot see a decoupled node or a missing constraint; this count can."""
    assert _zero_modes(name, faces, cells) == (_RIGID_MOTIONS[name] if faces == "free" else 0)


@pytest.mark.parametrize("name, faces, cells", list(_kernel_cases(_KERNEL_DEFECTS)))
def test_kernel_defect_rows_keep_their_measured_counts(name, faces, cells):
    """A strict xfail still passes when a wrong count moves to another wrong
    one; this pins the count each defect row reads."""
    assert _zero_modes(name, faces, cells) == _defect_count(name, faces, cells[0])


def test_schur_runs_conserve_energy():
    """The closed runs of test_conservation_closed_systems_quick and the
    density- and stiffness-scaled string, on the velocity-Schur path."""
    string = assemble_phs(builtin_model("string"))
    cases = [
        _dsys("string", (64,), {"left": "clamped", "right": "clamped"}),
        _dsys("timoshenko", (32,), {"left": "clamped", "right": "free"}),
        _dsys("rayleigh_beam", (32,), {"left": "clamped", "right": "clamped"}),
        _dsys("elasticity2d", (8, 8)),
        _dsys("reddy_plate", (6, 6)),
        discretize(
            string,
            GridSpec((48,)),
            {"left": "clamped", "right": "clamped"},
            density_scale=lambda x: 1.0 + 0.5 * x,
            stiffness_scale=lambda x: 2.0 - x,
        ),
    ]
    for dsys in cases:
        dsys._steppers[1e-3] = _SchurMidpoint(dsys, 1e-3)
        _, log = simulate(dsys, dt=1e-3, steps=2000, state0=random_state(dsys, seed=11))
        assert log.relative_drift <= 1e-11, (dsys.system.model.name, log.relative_drift)


def test_stepper_picks_the_solver_by_dimension():
    """1D takes the full factorization; 2D the velocity pencil, summed as a
    series at the simulator's step sizes and factored at large ones."""
    string = _dsys("string", (256,), {"left": "clamped", "right": "clamped"})
    assert type(_stepper(string, 1e-3)) is _FullMidpoint
    sim_2d = [
        _dsys("mindlin_plate", (64, 64)),
        _dsys("elasticity2d", (64, 64), {"left": "clamped", "right": "free"}),
        _dsys("reddy_plate", (32, 32)),
    ]
    for dsys in sim_2d:
        stepper = _stepper(dsys, 1e-3)
        assert type(stepper) is _SchurMidpoint
        assert 0 < stepper.rho_bound <= SERIES_MAX_RHO and 1 <= stepper.terms <= 16, stepper.rho_bound
        assert "lu" not in vars(stepper)  # nothing factored
    small = _dsys("elasticity2d", (8, 7))
    stepper = _stepper(small, 0.1)
    assert type(stepper) is _SchurMidpoint
    assert stepper.rho_bound > SERIES_MAX_RHO and stepper.terms == 0
    assert _stepper(small, 0.1) is small._steppers[0.1]


@pytest.mark.parametrize(
    "kind, dt, terms",
    [(_FullMidpoint, 1e-3, None), (_SchurMidpoint, 1e-3, True), (_SchurMidpoint, 0.1, False)],
    ids=["full", "schur", "schur-factored"],
)
def test_both_factorizations_expose_fill_and_forward(kind, dt, terms):
    """The benchmark reads lu.L, lu.U and forward.nnz of the cached stepper;
    forward is I + hA, built when read, and so is lu on the series path."""
    dsys = _dsys("mindlin_plate", (6, 6))
    dsys._steppers[dt] = kind(dsys, dt)
    step_midpoint(dsys, dsys.zero_state(), dt)
    stepper = dsys._steppers[dt]
    if terms is not None:
        assert bool(stepper.terms) is terms
        assert ("lu" not in vars(stepper)) is terms
    assert stepper.lu.L.nnz > 0 and stepper.lu.U.nnz > 0
    a_mat = sparse.diags(1.0 / dsys.W) @ dsys.J @ dsys.C
    expected = sparse.identity(dsys.num_dofs) + (dt / 2.0) * a_mat
    assert stepper.forward.nnz == expected.nnz
    assert abs(stepper.forward - expected).max() == 0


def test_each_schur_path_keeps_only_its_own_matrix():
    """The series path keeps N and no velocity matrix, even once its lazy lu
    is read; the factored path keeps no N."""
    dsys = _dsys("elasticity2d", (8, 7))
    series, factored = _SchurMidpoint(dsys, 1e-3), _SchurMidpoint(dsys, 0.1)
    assert series.terms and not factored.terms
    assert series.lu.L.nnz > 0 and factored.lu.L.nnz > 0
    assert "_series" in vars(series) and "_matrix" not in vars(series)
    assert not {"_series", "_matrix"} & set(vars(factored))


@pytest.mark.parametrize(
    "name, cells, bc, bound",
    [
        ("rayleigh_beam", (128,), {"left": "clamped", "right": "clamped"}, 3_000),
        ("mindlin_plate", (16, 16), {}, 55_000),
    ],
    ids=["rayleigh_beam-128-clamped", "mindlin_plate-16x16-free"],
)
def test_midpoint_factorization_fill(name, cells, bc, bound):
    lu = _FullMidpoint(_dsys(name, cells, bc), 1e-3).lu
    assert lu.L.nnz + lu.U.nnz <= bound


def test_logged_energy_is_the_discrete_hamiltonian():
    dsys = _dsys("timoshenko", (32,), {"left": "clamped", "right": "free"})
    state = random_state(dsys, seed=6)
    traj, log = simulate(dsys, dt=1e-3, steps=40, state0=state, record_every=20)
    for step, _, snapshot in traj.snapshots:
        assert log.energy[step] == discrete_hamiltonian(dsys, snapshot)


_BLOCK_CASES = {
    None: ("timoshenko", {"left": "clamped", "right": "free"}),
    "traction": ("timoshenko", {"left": "clamped", "right": "free"}),
    "distributed": ("truss", {"left": "clamped", "right": "clamped"}),
}


@pytest.fixture(scope="module")
def block_systems():
    """511-DOF systems, whose runs go in blocks of 16 steps."""
    return {name: _dsys(name, (256 if name == "truss" else 128,), bc) for name, bc in _BLOCK_CASES.values()}


def test_block_rows_follow_the_state_size():
    assert [_block_rows(n) for n in (1, 31, 127, 128, 254, 511, 8192, 8193, 13_281, 32_768)] == [
        64, 64, 64, 64, 32, 16, 1, 1, 1, 1,
    ]


@pytest.mark.parametrize("record_every", [0, 1, 7])
@pytest.mark.parametrize("steps", [1, 37, 130])
@pytest.mark.parametrize("port", [None, "traction", "distributed"])
def test_snapshots_are_the_states_of_repeated_steps(block_systems, port, steps, record_every):
    """Block edges (every 16 steps), record points and the last step fall
    out of step with each other; the states and the logged energies must not
    notice.  The logged power is checked against the per-step formula of the
    co-energy at the midpoint, to roundoff."""
    name, _ = _BLOCK_CASES[port]
    dsys = block_systems[name]
    assert _block_rows(dsys.num_dofs) == 16
    dt = 1e-3
    inputs = []
    if port == "traction":
        inputs = [boundary_traction_input(dsys, "right", "psi", lambda t: 0.4 * math.sin(7 * t))]
    elif port == "distributed":
        inputs = [distributed_input(dsys, 0, lambda t: math.cos(2 * t))]
    state = random_state(dsys, seed=steps, amplitude=0.2)
    traj, log = simulate(dsys, dt, steps, inputs=inputs, state0=state, record_every=record_every)

    expected_steps = list(range(0, steps + 1, record_every or steps))
    if expected_steps[-1] != steps:
        expected_steps.append(steps)
    assert [k for k, _, _ in traj.snapshots] == expected_steps
    snapshots = {k: (t, x) for k, t, x in traj.snapshots}
    power = np.zeros(steps + 1)
    for k in range(steps + 1):
        assert log.energy[k] == discrete_hamiltonian(dsys, state), k
        if k in snapshots:
            t, x = snapshots[k]
            assert t == k * dt
            assert np.array_equal(x, state), k
        if k == steps:
            break
        new_state = step_midpoint(dsys, state, dt, inputs=inputs, t=k * dt)
        e_mid = dsys.C @ (0.5 * (state + new_state))
        power[k + 1] = sum(float(e_mid @ ch.wvector) * ch.u(k * dt + dt / 2) for ch in inputs)
        state = new_state
    logged = log.boundary_power + log.distributed_power
    assert np.max(np.abs(logged - power)) <= 1e-13 * max(1.0, np.max(np.abs(power)))
    assert not (port == "traction" and log.distributed_power.any())
    assert not (port == "distributed" and log.boundary_power.any())


@pytest.mark.parametrize(
    "name, cells, bc, face",
    [
        ("truss", (16,), {"left": "clamped", "right": "clamped"}, None),
        ("timoshenko", (128,), {"left": "clamped", "right": "free"}, "right"),
    ],
    ids=["64-row-blocks", "16-row-blocks"],
)
def test_energy_overflow_in_mid_block_names_its_step(name, cells, bc, face):
    """The input jumps to 1e300 at step 21: the middle of the first block
    of 64 steps, or of the second block of 16, which runs backwards through
    the state buffer."""
    dsys = _dsys(name, cells, bc)
    u = lambda t: 1e300 if t > 0.02 else 1.0
    channel = boundary_traction_input(dsys, face, "psi", u) if face else distributed_input(dsys, 0, u)
    with pytest.raises(ValueError, match=r"energy is not finite after step 21 \(t = 0\.021\): inf$"):
        simulate(dsys, dt=1e-3, steps=40, inputs=[channel])


@pytest.mark.parametrize("argument", ["steps", "record_every"])
@pytest.mark.parametrize("value", [2.5, 1e3, 1.5, "3", None])
def test_step_counts_must_be_integers(argument, value):
    dsys = _dsys("string", (8,))
    arguments = {"steps": 3, "record_every": 1, argument: value}
    with pytest.raises(ValueError, match=f"^{argument} must be an integer, got {value!r}$"):
        simulate(dsys, dt=1e-2, **arguments)
    assert len(simulate(dsys, dt=1e-2, steps=np.int64(3), record_every=np.int32(2))[0].snapshots) == 3


def test_midpoint_is_second_order_in_time():
    """The string's first clamped mode against the exact flow of the
    semi-discrete system, expm(T W^-1 J C) x0: only the time step errs, and
    halving it divides the error by four."""
    dsys = _dsys("string", (32,), {"left": "clamped", "right": "clamped"})
    state = fourier_state(dsys, "p1", 1)
    a_mat = (sparse.diags(1.0 / dsys.W) @ dsys.J @ dsys.C).toarray()
    exact = scipy.linalg.expm(1.0 * a_mat) @ state
    errors = []
    for steps in (100, 200, 400):
        traj, _ = simulate(dsys, dt=1.0 / steps, steps=steps, state0=state)
        errors.append(np.max(np.abs(traj.snapshots[-1][2] - exact)))
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(3.9 <= r <= 4.1 for r in ratios), (errors, ratios)


def test_simulate_memory_stays_within_its_blocks():
    """A closed 1000-step run on 511 DOFs holds its block of 16 states, one
    work buffer and one product (about 200 KB) beside what it returns; a
    block four times larger would pass 256 KB."""
    dsys = _dsys("timoshenko", (128,), {"left": "clamped", "right": "free"})
    state = random_state(dsys, seed=5)
    step_midpoint(dsys, state, 1e-3)  # factor first: SuperLU's memory is not traced
    tracemalloc.start()
    try:
        traj, log = simulate(dsys, dt=1e-3, steps=1000, state0=state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    columns = (log.times, log.energy, log.boundary_power, log.distributed_power, log.residual)
    returned = sum(c.nbytes for c in columns) + sum(x.nbytes for _, _, x in traj.snapshots)
    assert peak - returned <= 256 * 1024, (peak, returned)


def test_power_balance_with_boundary_traction():
    dsys = _dsys("timoshenko", (32,), {"left": "clamped", "right": "free"})
    channel = boundary_traction_input(dsys, "right", "psi", lambda t: 0.5 * np.sin(3 * t))
    state = random_state(dsys, seed=2, amplitude=0.1)
    traj, log = simulate(dsys, dt=1e-3, steps=1000, state0=state, inputs=[channel])
    scale = np.maximum(1.0, np.abs(log.energy[1:]))
    assert np.max(log.residual[1:] / scale) <= 1e-10


def test_power_balance_with_distributed_force():
    dsys = _dsys("truss", (64,), {"left": "clamped", "right": "clamped"})
    channel = distributed_input(dsys, 0, lambda t: 1.0)
    traj, log = simulate(dsys, dt=1e-3, steps=1000, inputs=[channel])
    scale = np.maximum(1.0, np.abs(log.energy[1:]))
    assert np.max(log.residual[1:] / scale) <= 1e-9
    assert log.energy[-1] > 0  # work was done on the bar


def test_constant_traction_grows_energy_matching_work():
    dsys = _dsys("truss", (32,), {"left": "clamped", "right": "free"})
    channel = boundary_traction_input(dsys, "right", "u1", lambda t: 1.0)
    traj, log = simulate(dsys, dt=1e-3, steps=500, inputs=[channel])
    work = float(np.sum(log.boundary_power[1:]) * 1e-3)
    assert log.energy[-1] == pytest.approx(work, abs=1e-10)


def test_traction_rejected_on_clamped_face_and_half_lattice():
    dsys = _dsys("timoshenko", (16,), {"left": "clamped", "right": "free"})
    with pytest.raises(ValueError, match="clamped"):
        boundary_traction_input(dsys, "left", "psi", lambda t: 1.0)
    with pytest.raises(ValueError, match="no nodes"):
        boundary_traction_input(dsys, "right", "w", lambda t: 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_input_value_rejected(bad):
    dsys = _dsys("truss", (16,), {"left": "clamped", "right": "clamped"})
    channel = distributed_input(dsys, 0, lambda t: bad if t > 2e-3 else 1.0)
    with pytest.raises(ValueError, match=r"input distributed:0 is not finite at t = 0\.0025"):
        simulate(dsys, dt=1e-3, steps=5, inputs=[channel])
    with pytest.raises(ValueError, match="distributed:0 is not finite"):
        step_midpoint(dsys, dsys.zero_state(), 1e-3, inputs=[channel], t=0.01)


def test_unknown_field_name_rejected():
    dsys = _dsys("timoshenko", (16,), {"left": "clamped", "right": "free"})
    with pytest.raises(ValueError, match=r"unknown field 'u1'; known fields: p1 \(psi\), p2 \(w\)"):
        boundary_traction_input(dsys, "right", "u1", lambda t: 1.0)
    with pytest.raises(ValueError, match="unknown field"):
        fourier_state(dsys, "q")


def test_energy_overflow_stops_the_run():
    dsys = _dsys("truss", (16,), {"left": "clamped", "right": "clamped"})
    channel = distributed_input(dsys, 0, lambda t: 1e300)
    # no np.errstate here: simulate keeps numpy's overflow warning to itself
    with pytest.raises(ValueError, match=r"energy is not finite after step 1 \(t = 0\.001\)"):
        simulate(dsys, dt=1e-3, steps=5, inputs=[channel])


def test_distributed_input_requires_map():
    dsys = _dsys("string", (8,))
    with pytest.raises(ValueError, match="no distributed input"):
        distributed_input(dsys, 0, lambda t: 1.0)


def test_spatially_varying_coefficients_still_conserve():
    sys_ = assemble_phs(builtin_model("string"))
    dsys = discretize(
        sys_,
        GridSpec((48,)),
        {"left": "clamped", "right": "clamped"},
        density_scale=lambda x: 1.0 + 0.5 * x,
        stiffness_scale=lambda x: 2.0 - x,
    )
    uniform = discretize(sys_, GridSpec((48,)), {"left": "clamped", "right": "clamped"})
    state = random_state(dsys, seed=4)
    assert discrete_hamiltonian(dsys, state) != pytest.approx(
        discrete_hamiltonian(uniform, state)
    )
    _, log = simulate(dsys, dt=1e-3, steps=2000, state0=state)
    assert log.relative_drift <= 1e-11


def test_varying_coefficients_must_be_positive():
    sys_ = assemble_phs(builtin_model("string"))
    with pytest.raises(ValueError, match="positive"):
        discretize(sys_, GridSpec((8,)), density_scale=lambda x: -1.0)
    for which in ("density_scale", "stiffness_scale"):
        for bad in (float("nan"), float("inf"), 0.0):
            with pytest.raises(ValueError, match="positive and finite"):
                discretize(sys_, GridSpec((8,)), **{which: lambda x: bad})


def test_energy_log_shape_contract():
    dsys = _dsys("string", (8,))
    traj, log = simulate(dsys, dt=1e-2, steps=25, state0=random_state(dsys, 1))
    assert len(log) == 26
    assert len(log.times) == len(log.energy) == len(log.residual) == 26


def test_trajectory_snapshots_cadence():
    dsys = _dsys("string", (8,))
    traj, log = simulate(dsys, dt=1e-2, steps=10, state0=random_state(dsys, 1), record_every=4)
    assert [s[0] for s in traj.snapshots] == [0, 4, 8, 10]
    with pytest.raises(ValueError, match="record_every"):
        simulate(dsys, dt=1e-2, steps=10, record_every=-1)


def test_csv_outputs(tmp_path):
    dsys = _dsys("string", (8,))
    traj, log = simulate(dsys, dt=1e-2, steps=5, state0=random_state(dsys, 1), record_every=5)
    e_path = tmp_path / "energy.csv"
    t_path = tmp_path / "traj.csv"
    write_energy_csv(str(e_path), log)
    write_trajectory_csv(str(t_path), dsys, traj)
    header = e_path.read_text().splitlines()[0]
    assert header == "step,time,H,boundary_power,distributed_power,residual"
    lines = t_path.read_text().splitlines()
    assert lines[0] == "step,time,label,node,value"
    assert len(lines) == 1 + 2 * dsys.num_dofs  # two snapshots


def _reference_energy_csv(log):
    """One formatted value at a time: the byte-level reference."""
    out = ["step,time,H,boundary_power,distributed_power,residual\n"]
    for k in range(len(log.energy)):
        out.append(
            f"{k},{log.times[k]:.17g},{log.energy[k]:.17g},"
            f"{log.boundary_power[k]:.17g},{log.distributed_power[k]:.17g},"
            f"{log.residual[k]:.17g}\n"
        )
    return "".join(out)


def _reference_trajectory_csv(dsys, traj):
    out = ["step,time,label,node,value\n"]
    for step, t, state in traj.snapshots:
        for f in dsys.fields:
            for node, value in enumerate(state[f.offset : f.offset + f.size]):
                out.append(f"{step},{t:.17g},{f.label},{node},{value:.17g}\n")
    return "".join(out)


def test_csv_writers_match_a_per_value_reference(tmp_path):
    special = [-0.0, 1e-300, -1.5e300, 3.0, -2.0**60, 5e-324, 0.1]
    rows = 2 * ENERGY_CSV_CHUNK + 5
    rng = np.random.default_rng(8)
    columns = [rng.standard_normal(rows) for _ in range(5)]
    columns[0] = np.arange(rows) * 1e-3
    for k, col in enumerate(columns):
        col[k : k + len(special)] = special
        col[ENERGY_CSV_CHUNK - 1] = special[k]
    log = EnergyLog(*columns)
    write_energy_csv(str(tmp_path / "energy.csv"), log)
    assert (tmp_path / "energy.csv").read_bytes() == _reference_energy_csv(log).encode()

    dsys = _dsys("timoshenko", (16,), {"left": "clamped", "right": "free"})
    states = [rng.standard_normal(dsys.num_dofs) for _ in range(3)]
    for state in states:
        state[: len(special)] = special
        state[-len(special) :] = special
    traj = Trajectory([f.label for f in dsys.fields],
                      [(0, 0.0, states[0]), (7, np.float64(7e-3), states[1]), (9, 1e-300, states[2])])
    write_trajectory_csv(str(tmp_path / "traj.csv"), dsys, traj)
    assert (tmp_path / "traj.csv").read_bytes() == _reference_trajectory_csv(dsys, traj).encode()


@pytest.mark.parametrize(
    "rows", [1, ENERGY_CSV_CHUNK - 1, ENERGY_CSV_CHUNK, ENERGY_CSV_CHUNK + 1, 2 * ENERGY_CSV_CHUNK + 1]
)
def test_energy_csv_chunk_edges_match_the_reference(tmp_path, rows):
    rng = np.random.default_rng(rows)
    log = EnergyLog(np.arange(rows) * 1e-3, *(rng.standard_normal(rows) for _ in range(4)))
    write_energy_csv(str(tmp_path / "energy.csv"), log)
    assert (tmp_path / "energy.csv").read_bytes() == _reference_energy_csv(log).encode()


@pytest.mark.parametrize("t", [np.float64(7e-3), 1e-300], ids=["float64", "1e-300"])
def test_trajectory_csv_one_node_field_matches_the_reference(tmp_path, t):
    """A one-node field beside a three-node one; a "%" in a label stays out
    of the formatting."""
    fields = [
        FieldLayout("p%d", "a", "p", 0, (1,), (("half", "half"),), (0,), (1,), 0, ([F(1)],)),
        FieldLayout("eps1", "eps1", "eps", 0, (1,), (("half", "half"),), (0,), (3,), 1, ([F(1)] * 3,)),
    ]
    dsys = types.SimpleNamespace(fields=fields)
    states = np.array([[0.1, -0.0, 5e-324, 2.0**60], [-1.5e300, 3.0, 1e-300, 0.2]])
    traj = Trajectory([f.label for f in fields], [(0, 0.0, states[0]), (7, t, states[1])])
    write_trajectory_csv(str(tmp_path / "traj.csv"), dsys, traj)
    assert (tmp_path / "traj.csv").read_bytes() == _reference_trajectory_csv(dsys, traj).encode()


def test_csv_writers_memory_stays_within_a_chunk_or_field(tmp_path):
    """A 10^4-row energy log and an 11-snapshot 511-DOF trajectory: each
    writer holds one chunk or one field's text at a time.  The bounds are
    the per-value writers' measured peaks (117.6 KB and 39.2 KB) plus 10%,
    rounded up to a KiB; the one-% writers peaked at 110.5 and 33.6 KB."""
    rng = np.random.default_rng(3)
    rows = 10_000
    log = EnergyLog(np.arange(rows) * 1e-3, *(rng.standard_normal(rows) for _ in range(4)))
    dsys = _dsys("timoshenko", (128,), {"left": "clamped", "right": "free"})
    assert dsys.num_dofs == 511
    snapshots = [(100 * k, 0.1 * k, rng.standard_normal(dsys.num_dofs)) for k in range(11)]
    traj = Trajectory([f.label for f in dsys.fields], snapshots)
    for write, bound in (
        (lambda: write_energy_csv(str(tmp_path / "energy.csv"), log), 127 * 1024),
        (lambda: write_trajectory_csv(str(tmp_path / "traj.csv"), dsys, traj), 43 * 1024),
    ):
        tracemalloc.start()
        try:
            write()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)


def _operator_digest_update(h, dsys):
    """Text triples, so neither the sparse format nor the index dtype can
    move the digest."""
    for name in ("D", "J", "C"):
        coo = getattr(dsys, name).tocoo()
        triples = sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
        h.update(f"{name} {coo.shape}\n".encode())
        for r, c, v in triples:
            h.update(f"{r},{c},{v.hex()}\n".encode())
    h.update(dsys.W.tobytes())


def _digest_cases():
    """(name, bc, dsys) of every simulable builtin under all-free,
    all-clamped and mixed faces, on one small grid."""
    for name in SIMULABLE:
        ell = _SYSTEMS[name].model.ell
        cells = (7,) if ell == 1 else (5, 4)
        faces = FACES[ell]
        for bc in (
            {},
            {face: "clamped" for face in faces},
            {face: ("clamped" if k % 2 == 0 else "free") for k, face in enumerate(faces)},
        ):
            yield name, bc, discretize(_SYSTEMS[name], GridSpec(cells), bc)


def test_operator_digest_of_simulable_builtins():
    """D, J, C and W of every simulable builtin under all-free, all-clamped
    and mixed faces, plus the scaled-material string, hash to a pinned value."""
    h = hashlib.sha256()
    for name, bc, dsys in _digest_cases():
        h.update(f"{name} {sorted(bc.items())}\n".encode())
        _operator_digest_update(h, dsys)
    clamped = {"left": "clamped", "right": "clamped"}
    for scales in (
        {"density_scale": lambda x: 1.0 + 0.5 * x, "stiffness_scale": lambda x: 2.0 - x},
        {},
    ):
        h.update(f"string scaled {sorted(scales)}\n".encode())
        _operator_digest_update(h, discretize(_SYSTEMS["string"], GridSpec((48,)), clamped, **scales))
    assert h.hexdigest() == "757771e2189cdbaec60959a06c85121ed83ddaf1959728ea61c5d40f429240d4"


def test_face_record_sets_the_layout_the_weights_and_the_tractions():
    """Per field and axis: the nodes are the ones ``ends`` keeps, the weights
    cover the axis less dx / 2 per clamped end, and a traction is accepted on
    exactly the free faces where a momentum lattice keeps its face node."""
    for name, bc, dsys in _digest_cases():
        faces = FACES[len(dsys.grid.cells)]
        for f in dsys.fields:
            for axis, ((lo, hi), cells, dx) in enumerate(zip(f.ends, dsys.grid.cells, dsys.dx)):
                case = (name, bc, f.label, axis)
                if f.shifts[axis]:
                    assert (lo, hi) == ("half", "half"), case
                    nodes = range(cells)
                else:
                    if f.kind == "p":
                        sides = faces[2 * axis : 2 * axis + 2]
                        assert [lo, hi] == ["clamped" if bc.get(s) == "clamped" else "node" for s in sides], case
                    else:
                        assert lo == hi and lo in ("node", "restricted"), case
                    nodes = range(lo != "node", cells + (hi == "node"))
                assert range(f.starts[axis], f.starts[axis] + f.counts[axis]) == nodes, case
                assert sum(f.weights[axis]) == cells * dx - (lo, hi).count("clamped") * dx / 2, case
        for f in dsys.p_fields:
            for k, face in enumerate(faces):
                accepts = f.ends[k // 2][k % 2] == "node" and bc.get(face) != "clamped"
                try:
                    boundary_traction_input(dsys, face, f.label, lambda t: 1.0)
                except ValueError:
                    assert not accepts, (name, bc, f.label, face)
                else:
                    assert accepts, (name, bc, f.label, face)


def test_traction_vector_digest_of_simulable_builtins():
    """``vector`` and ``wvector`` of the traction on every free face of the
    operator digest's cases, for each momentum component on the face's
    integer lattice, hash to a pinned value."""
    h = hashlib.sha256()
    for name, bc, dsys in _digest_cases():
        for k, face in enumerate(FACES[dsys.system.model.ell]):
            if bc.get(face) == "clamped":
                continue
            for f in dsys.p_fields:
                if f.shifts[k // 2] == 0:
                    ch = boundary_traction_input(dsys, face, f.label, lambda t: 1.0)
                    h.update(f"{name} {sorted(bc.items())} {face} {f.label}\n".encode())
                    h.update(ch.vector.tobytes())
                    h.update(ch.wvector.tobytes())
    assert h.hexdigest() == "a52bd2a3b3c4e8fa2c97587c3a97c22d547be055d2cf04213fb790d25d0be1c3"


@st.composite
def grids(draw):
    name = draw(st.sampled_from(SIMULABLE))
    ell = _SYSTEMS[name].model.ell
    cells = tuple(draw(st.integers(3, 9)) for _ in range(ell))
    if draw(st.booleans()):
        bc = {}
    else:
        bc = {face: draw(st.sampled_from(("clamped", "free"))) for face in FACES[ell]}
    return name, cells, bc


@settings(max_examples=150, deadline=None)
@given(grid=grids(), seed=st.integers(0, 2**32))
def test_layout_properties_on_random_grids(grid, seed):
    name, cells, bc = grid
    dsys = discretize(_SYSTEMS[name], GridSpec(cells), bc)
    assert (dsys.J + dsys.J.T).nnz == 0
    assert len(dsys.W) == dsys.num_dofs and np.all(dsys.W > 0)
    if not bc:
        model = dsys.system.model
        rng = random.Random(seed)
        fields = [random_poly(rng, model.dist, 2) for _ in range(model.n)]
        assert difference_consistency_errors(dsys, fields) == []
    else:
        _checked_difference_entries(dsys)


SRC = Path(__file__).resolve().parents[1] / "src"


def _scipy_modules_after(code):
    """The scipy modules a fresh interpreter holds after running ``code``
    with this checkout's ``phs_forge`` first on its path."""
    script = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}\n"
        "import json; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    out = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_exact_stage_does_not_load_scipy():
    # the simulator's module-level scipy import used to cost every command ~0.45 s
    loaded = _scipy_modules_after(
        "import phs_forge, phs_forge.cli\n"
        "assert phs_forge.__file__.startswith(sys.path[0])\n"
        "phs_forge.assemble_phs(phs_forge.builtin_model('timoshenko'))"
    )
    assert loaded == []


def test_discretize_loads_scipy_sparse():
    loaded = _scipy_modules_after(
        "from phs_forge import GridSpec, assemble_phs, builtin_model, discretize\n"
        "discretize(assemble_phs(builtin_model('string')), GridSpec((8,)))"
    )
    assert "scipy.sparse" in loaded
