"""The package's public names: each addition or removal is an edit here."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import phs_forge

SRC = Path(phs_forge.__file__).resolve().parents[1]

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
    # dir(), not vars(): the simulator's names resolve on first use (PEP 562)
    public = sorted(
        name
        for name in dir(phs_forge)
        if not name.startswith("_") and not isinstance(getattr(phs_forge, name), types.ModuleType)
    )
    assert public == PUBLIC_NAMES


def test_package_simulate_is_the_function_and_the_module_stays_reachable():
    # the package attribute shadows the submodule of the same name
    module = importlib.import_module("phs_forge.simulate")
    assert isinstance(module, types.ModuleType)
    assert phs_forge.simulate is module.simulate


def test_importing_the_cli_loads_no_numpy():
    # only the simulator needs numpy; verify, build and export start without it
    code = "import sys, phs_forge.cli; print(sorted({'numpy', 'phs_forge.simulate'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert out.stdout == "[]\n"


# file names such as `sections.py` are not attribute references
_FILE_NAME = re.compile(r"\w+\.(py|md|json|csv|toml|phsm)$")


def _readme_references():
    """Every `Owner.name` in a backticked span of README.md whose owner is a
    phs_forge module, the package itself, or a class defined in a module."""
    owners = {"phs_forge": phs_forge}
    for info in pkgutil.iter_modules(phs_forge.__path__):
        module = importlib.import_module(f"phs_forge.{info.name}")
        owners[info.name] = module
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                owners[name] = value
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)  # code blocks
    refs = set()
    for span in re.findall(r"`([^`]+)`", text):
        for owner, name in re.findall(r"\b([A-Za-z_]\w*)\.([A-Za-z_]\w*)", span):
            if owner in owners and not _FILE_NAME.match(f"{owner}.{name}"):
                refs.add((owner, name))
    return owners, sorted(refs)


def test_names_the_readme_cites_exist():
    owners, refs = _readme_references()
    assert len(refs) >= 20  # the scan still finds the README's references
    missing = [f"{owner}.{name}" for owner, name in refs if not hasattr(owners[owner], name)]
    assert missing == []
