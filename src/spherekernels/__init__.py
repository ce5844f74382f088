"""Isotropic positive definite kernels on spheres.

Closed-form kernel families of great circle distance, their expansion
coefficients in (normalized) Gegenbauer polynomials, dimension-walk
recursions, positive-definiteness verdicts, and downstream applications:
Gram verification, spherical radial basis interpolation, Gaussian random
field simulation and covariance localization.
"""

from .apps import (
    FieldSample,
    Interpolant,
    estimate_fractal_index,
    interpolate_eval,
    interpolate_fit,
    localization_compare,
    simulate,
)
from .catalog import (
    FAMILY_NAMES,
    KernelSpec,
    ValidityVerdict,
    evaluate,
    evaluate_euclidean,
    fractal_index_theoretical,
    kernel,
    list_families,
    parse_kernel,
    validate_params,
    yadrenko,
)
from .criteria import CriterionReport, polya_2n1, polya_circle, polya_s3
from .errors import (
    DimensionMismatchError,
    DomainError,
    FactorizationError,
    ParameterError,
    SphereKernelsError,
    UnknownFamilyError,
)
from .schoenberg import (
    MembershipVerdict,
    SchoenbergSequence,
    StrictnessEvidence,
    fourier_coeffs,
    gegenbauer_coeffs,
    membership,
    reconstruct,
    strictness_evidence,
    walk_1_to_3,
    walk_d_to_d2,
)
from .special import bessel_k, gauss_legendre
from .sphere import (
    GramReport,
    SpherePointSet,
    gram_report,
    read_points,
    sample_points,
    write_points,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
