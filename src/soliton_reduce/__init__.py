"""Gradient Ricci solitons conformal to pseudo-Euclidean space.

Construct solitons by integrating the reduced ODE systems of the quadric
substitution, lift them back to ambient space, and certify them against
the full tensor equation with exact conformal-geometry formulas and an
independent finite-difference curvature oracle.
"""

from .ansatz import (
    InvarianceClass,
    QuadricAnsatz,
    classify,
    fit_quadric_parameters,
    is_admissible,
    lambda_constant,
    xi_jet,
)
from .geometry import (
    ScalarJet2,
    Signature,
    conformal_christoffel,
    conformal_hessian,
    conformal_ricci,
    laplacian,
    scalar_curvature,
)
from .pde import (
    residual_diag,
    residual_offdiag,
    residual_soliton_tensor,
    residual_trace,
)
from .profiles import ClosedFormProfile, Profile, ProfileSample, lift
from .reduction import (
    GALLERY_NAMES,
    GalleryEntry,
    ReducedState,
    SolitonProblem,
    SpecialParams,
    check_special_constraint,
    gallery,
    reduced_rhs,
    special_rhs,
)
from .rk import Event, IntegrationConfig, integrate
from .solve import (
    NodeProfile,
    ReducedProfile,
    SpecialProfile,
    solve_reduced,
    solve_special,
)
from .verify import (
    ResidualReport,
    SampleSpec,
    fd_curvature_oracle,
    fd_hessian_oracle,
    verify_profile,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedFormProfile",
    "Event",
    "GALLERY_NAMES",
    "GalleryEntry",
    "IntegrationConfig",
    "InvarianceClass",
    "NodeProfile",
    "Profile",
    "ProfileSample",
    "QuadricAnsatz",
    "ReducedProfile",
    "ReducedState",
    "ResidualReport",
    "SampleSpec",
    "ScalarJet2",
    "Signature",
    "SolitonProblem",
    "SpecialParams",
    "SpecialProfile",
    "check_special_constraint",
    "classify",
    "conformal_christoffel",
    "conformal_hessian",
    "conformal_ricci",
    "fd_curvature_oracle",
    "fd_hessian_oracle",
    "fit_quadric_parameters",
    "gallery",
    "integrate",
    "is_admissible",
    "lambda_constant",
    "laplacian",
    "lift",
    "reduced_rhs",
    "residual_diag",
    "residual_offdiag",
    "residual_soliton_tensor",
    "residual_trace",
    "scalar_curvature",
    "solve_reduced",
    "solve_special",
    "special_rhs",
    "verify_profile",
    "xi_jet",
]
