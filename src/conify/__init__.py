"""conify: exact degenerations, Diophantine approximants, and graded Poisson checks
for weighted affine singularities, with a small floating-point layer for the
model metric and rotation formulas."""

from .exactnum import ExactScalar, parse_scalar
from .polyring import (
    Polynomial,
    TermOrder,
    WeightData,
    homogeneous_weight,
    initial_form,
    is_homogeneous,
    parse_polynomial,
    term_weight,
)
from .groebner import (
    GroebnerBasis,
    IdealPresentation,
    ideal_quotient,
    ideals_equal,
    normal_form,
    reduced_basis,
)
from .degeneration import (
    TestConfiguration,
    build_test_configuration,
    central_fiber,
    flatness_witness,
    general_fiber,
    hilbert_function,
    stable_initial_ideal,
    weighted_initial_ideal,
)
from .diophantine import (
    AffineHull,
    ApproximantReport,
    ConeDescription,
    ReebVector,
    affine_hull,
    approximant_cone,
    cone_contains,
    default_N,
    dirichlet_approximant,
    kronecker_corner_search,
    nice_approximant,
    one_in_span,
    rational_rank,
    verify_perturbation_bound,
)
from .poisson import (
    FormTable,
    PoissonTable,
    bracket_weight,
    check_scaleup,
    decompose_semiinvariant,
    form_weight,
    invariant_generators,
    jacobi_defect,
    preserves_ideal,
)
from .numerics import (
    RotationSolution,
    metric_tensor,
    rotation_from_target,
    scaling_pullback_check,
)
from .inputdoc import InputDocument, parse_input

__version__ = "0.1.0"
