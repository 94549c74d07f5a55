"""Weighted curvature invariants and renormalized volume coefficients for
smooth metric measure spaces: exact jet arithmetic, pointwise weighted
curvature, truncated ambient expansions, built-in models, and sphere
quadrature for the variational identities."""

from .errors import (
    DeterminacyError,
    DimensionMismatch,
    DomainError,
    ExpressionError,
    ModelError,
    OrderError,
    WrvcError,
)
from .expr import evaluate, parse_expression, to_string
from .geometry import (
    CurvatureBundle,
    MetricAtPoint,
    christoffel,
    curvature,
    grad_norm2,
    hessian,
    laplacian,
    weighted_laplacian,
)
from .jets import Jet
from .models import (
    BUILTIN_NAMES,
    ModelSpec,
    builtin_model,
    lcf_candidate_ambient,
    load_model_file,
)
from .rho import (
    AmbientExpansion,
    ObstructionSet,
    RhoSeries,
    VolumeCoefficients,
    determinacy_cap,
    f_second_residual,
    l_operator,
    lambda_one_series,
    load_ambient_file,
    obstruction_tensors,
    poincare_to_ambient,
    save_ambient_file,
    volume_coefficients,
)
from .variational import (
    FunctionalReport,
    QuadratureGrid,
    delta_vk_identity_check,
    eigenvalue_bound_check,
    first_variation,
    functional_F_k,
    second_variation,
    second_variation_sign_certificate,
    weighted_volume,
)
from .weighted import (
    MetricMeasurePoint,
    WeightedInvariants,
    check_conformal_laws,
    conformal_rescale,
    quasi_einstein_residual,
    ric_phi_alternate,
    sigma_k_phi,
    v1_v2_closed_form,
    weighted_invariants,
)

__version__ = "0.1.0"
