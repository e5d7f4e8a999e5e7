"""Adiabatic elimination of coupling-scaled quantum stochastic models.

The package takes a family of Hudson-Parthasarathy coefficients whose drift,
coupling, and scattering depend polynomially on a coupling strength k,
verifies the structural identities that make the strong-coupling limit exist,
computes the reduced (eliminated) coefficients on the slow subspace, and
quantifies convergence of the unitary dynamics as k grows.
"""

from .errors import (
    ClampExceeded,
    DimensionMismatch,
    InvalidArgument,
    InvalidGroundVector,
    InvalidOperator,
    InvalidParameters,
    InvalidProjector,
    NumericalFailure,
    QsdeElimError,
    ResourceLimit,
    SingularRestriction,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    Projector,
    dagger,
    expm,
    kernel_projector,
    restricted_inverse,
    vec,
)
from .model import (
    CheckReport,
    CoefficientSet,
    ScaledModel,
    check_hp_unitarity,
    check_limit_unitarity,
    check_scaling_consistency,
    instantiate,
    norm_scale,
)
from .eliminate import (
    Decomposition,
    EliminationResult,
    check_ground_support,
    check_inverse_structure,
    decompose,
    displace_limit,
    displace_scaled,
    eliminate,
)
from .semigroup import (
    CLAMP_ABORT,
    ConvergenceReport,
    GeneratorResiduals,
    StepDrive,
    build_generators,
    default_ground_vector,
    generator_convergence_check,
    k_sweep,
    kurtz_corrector,
)
from . import catalog

__version__ = "0.1.0"

__all__ = [
    "QsdeElimError",
    "DEFAULT_RANK_TOL",
    "CLAMP_ABORT",
    "InvalidOperator",
    "DimensionMismatch",
    "InvalidProjector",
    "InvalidGroundVector",
    "InvalidParameters",
    "InvalidArgument",
    "SingularRestriction",
    "NumericalFailure",
    "ClampExceeded",
    "ResourceLimit",
    "Projector",
    "dagger",
    "vec",
    "kernel_projector",
    "restricted_inverse",
    "expm",
    "ScaledModel",
    "CoefficientSet",
    "CheckReport",
    "instantiate",
    "norm_scale",
    "check_hp_unitarity",
    "check_limit_unitarity",
    "check_scaling_consistency",
    "Decomposition",
    "EliminationResult",
    "decompose",
    "check_inverse_structure",
    "check_ground_support",
    "eliminate",
    "displace_scaled",
    "displace_limit",
    "StepDrive",
    "ConvergenceReport",
    "GeneratorResiduals",
    "build_generators",
    "default_ground_vector",
    "kurtz_corrector",
    "generator_convergence_check",
    "k_sweep",
    "catalog",
]
