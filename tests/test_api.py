"""The package's public names: each addition or removal is an edit here."""

import importlib
import types

import phs_forge

PUBLIC_NAMES = [
    "BoundaryForm",
    "BuildError",
    "CircleSection",
    "DiffOpMatrix",
    "DiscreteSystem",
    "DomainSpec",
    "EnergyLog",
    "ExactError",
    "GridSpec",
    "IntervalSection",
    "KinematicModel",
    "ModelError",
    "MomentSection",
    "PHSystem",
    "ParseError",
    "PiRat",
    "PointSection",
    "Poly",
    "PolyMatrix",
    "RectangleSection",
    "SimulationUnsupported",
    "ValidationReport",
    "assemble_phs",
    "boundary_port_map",
    "boundary_traction_input",
    "builtin_model",
    "builtin_names",
    "check_energy_structure",
    "check_lemma1",
    "check_limits_and_reductions",
    "derive_operator",
    "discrete_hamiltonian",
    "discretize",
    "distributed_input",
    "export_system",
    "fourier_state",
    "ibp_residual",
    "ibp_symbol_residual",
    "jet",
    "mass_matrix",
    "parse_model",
    "parse_model_file",
    "random_state",
    "run_all",
    "section_moment",
    "serialize_model",
    "simulate",
    "step_midpoint",
    "stiffness_matrix",
    "strain_symbol",
    "validate_model",
]


def test_public_names_are_pinned():
    public = sorted(
        name
        for name, value in vars(phs_forge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == PUBLIC_NAMES


def test_package_simulate_is_the_function_and_the_module_stays_reachable():
    # the package attribute shadows the submodule of the same name
    module = importlib.import_module("phs_forge.simulate")
    assert isinstance(module, types.ModuleType)
    assert phs_forge.simulate is module.simulate
