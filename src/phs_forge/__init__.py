"""phs-forge: compile kinematic descriptions of linear-elastic flexible
structures into port-Hamiltonian form, verify the structural identities with
exact rational arithmetic, and run energy-conserving desk-scale simulations.
"""

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
from .simulate import (
    DiscreteSystem,
    EnergyLog,
    GridSpec,
    SimulationUnsupported,
    boundary_traction_input,
    discrete_hamiltonian,
    discretize,
    distributed_input,
    fourier_state,
    random_state,
    simulate,
    step_midpoint,
)
from .verify import check_lemma1, check_energy_structure, check_limits_and_reductions, run_all

__version__ = "0.1.0"
