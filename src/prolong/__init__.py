"""Exact exterior-calculus engine for prolongation structures of
nonlinear partial differential equations."""

from .coeff import ETA, I, Scalar, eta_coefficients, exp_atom, substitute
from .forms import (
    DerivationContext,
    Form,
    MatrixForm,
    check_dd_zero,
    pauli_compose,
    pauli_decompose,
)
from .jets import (
    EvolutionSystem,
    euler_operator,
    is_total_x_derivative,
    jet,
    reduce_mod_evolution,
    total_derivative,
)
from .su2 import (
    AKNSSpec,
    IDENTITY_NAMES,
    build_forms,
    build_su2_context,
    extract_evolution,
    gauge_transform,
    surface_data,
    surface_from_spec,
    theta_components,
    verify_identity,
)
from .conservation import (
    conserved_pairs,
    recursion_densities,
    verify_conservation,
)
from .we import (
    ConnectionData,
    ExteriorIdeal,
    closure_check,
    ideal_membership,
    prolongation_residual,
    section,
    zero_curvature_residual,
)
from .dsl import ModelFile, parse, parse_path, print_form, print_model, print_scalar

__version__ = "0.1.0"
