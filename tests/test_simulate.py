"""Discrete stage: lattice layout, exact skewness, stencil consistency,
conservation and the per-step power balance."""

import hashlib
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phs_forge.build import assemble_phs
from phs_forge.modelfile import parse_model
from phs_forge.models import builtin_model, builtin_names, random_poly
from phs_forge.simulate import (
    GridSpec,
    SimulationUnsupported,
    boundary_traction_input,
    difference_consistency_errors,
    discrete_hamiltonian,
    discretize,
    distributed_input,
    fourier_state,
    random_state,
    simulate,
    step_midpoint,
)


def _dsys(name, cells, bc=None, params=None):
    sys_ = assemble_phs(builtin_model(name, params))
    return discretize(sys_, GridSpec(cells), bc or {})


_SYSTEMS = {name: assemble_phs(builtin_model(name)) for name in builtin_names()}
SIMULABLE = sorted(
    name for name, s in _SYSTEMS.items()
    if s.model.ell == 1 or (s.model.ell == 2 and s.op.order == 1)
)
FACES = {1: ("left", "right"), 2: ("left", "right", "bottom", "top")}


def test_string_difference_is_bidiagonal():
    dsys = _dsys("string", (8,))
    dx = F(1, 8)
    by_row = {}
    for r, c, w in dsys.d_exact:
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
    from phs_forge.simulate import write_energy_csv, write_trajectory_csv

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


def test_operator_digest_of_simulable_builtins():
    """D, J, C and W of every simulable builtin under all-free, all-clamped
    and mixed faces, plus the scaled-material string, hash to a pinned value."""
    h = hashlib.sha256()
    for name in SIMULABLE:
        ell = _SYSTEMS[name].model.ell
        cells = (7,) if ell == 1 else (5, 4)
        faces = FACES[ell]
        for bc in (
            {},
            {face: "clamped" for face in faces},
            {face: ("clamped" if k % 2 == 0 else "free") for k, face in enumerate(faces)},
        ):
            h.update(f"{name} {sorted(bc.items())}\n".encode())
            _operator_digest_update(h, discretize(_SYSTEMS[name], GridSpec(cells), bc))
    clamped = {"left": "clamped", "right": "clamped"}
    for scales in (
        {"density_scale": lambda x: 1.0 + 0.5 * x, "stiffness_scale": lambda x: 2.0 - x},
        {},
    ):
        h.update(f"string scaled {sorted(scales)}\n".encode())
        _operator_digest_update(h, discretize(_SYSTEMS["string"], GridSpec((48,)), clamped, **scales))
    assert h.hexdigest() == "757771e2189cdbaec60959a06c85121ed83ddaf1959728ea61c5d40f429240d4"


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
