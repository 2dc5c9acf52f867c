"""phs-forge: compile kinematic descriptions of linear-elastic flexible
structures into port-Hamiltonian form, verify the structural identities with
exact rational arithmetic, and run energy-conserving desk-scale simulations.
"""

import importlib
import sys
import types

from .build import (
    BuildError,
    PHSystem,
    assemble_phs,
    boundary_port_map,
    export_system,
    mass_matrix,
    stiffness_matrix,
)
from .diffop import (
    BoundaryForm,
    DiffOpMatrix,
    DomainSpec,
    ibp_residual,
    ibp_symbol_residual,
    jet,
)
from .exact import ExactError, PiRat
from .modelfile import ParseError, parse_model, parse_model_file, serialize_model
from .models import (
    KinematicModel,
    ModelError,
    ValidationReport,
    builtin_model,
    builtin_names,
    derive_operator,
    strain_symbol,
    validate_model,
)
from .poly import Poly, PolyMatrix
from .sections import (
    CircleSection,
    IntervalSection,
    MomentSection,
    PointSection,
    RectangleSection,
    section_moment,
)
from .verify import check_lemma1, check_energy_structure, check_limits_and_reductions, run_all

__version__ = "0.1.0"

# The simulator's names load on first use (PEP 562): only simulate.py imports
# numpy, and the exact stage (build, verify, export) never needs it.
_SIMULATE_NAMES = ("DiscreteSystem", "EnergyLog", "GridSpec", "SimulationUnsupported",
                   "boundary_traction_input", "discrete_hamiltonian", "discretize",
                   "distributed_input", "fourier_state", "random_state", "simulate", "step_midpoint")


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # any import of the submodule binds it here; the name stays the function
        module = name == "simulate" and isinstance(value, types.ModuleType)
        super().__setattr__(name, value.simulate if module else value)


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    if name not in _SIMULATE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(".simulate", __name__)
    globals().update((n, getattr(module, n)) for n in _SIMULATE_NAMES)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_SIMULATE_NAMES})
