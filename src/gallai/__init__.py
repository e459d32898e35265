"""Piercing sets for pairwise intersecting balls and illumination of
spiky balls and cap bodies in n dimensions."""

from .bounds import (
    ExponentReport,
    cap_share,
    covering_exponent,
    exponent_report,
    kl_exponent,
    solve_alpha,
)
from .errors import BudgetError, PairwiseError, VerificationError
from .geometry import DEFAULT_TOL, Ball, Balls
from .illumination import (
    CapBody,
    DirectionSet,
    SpikyBall,
    illuminate_cap_body,
    is_cap_body,
    positive_hull_full,
    verifies_illumination,
)
from .lowerbound import (
    MultiplicityReport,
    SeparatedSet,
    SymmetricSeparatedSet,
    build_lower_bound_body,
    construct_separated_set,
    multiplicity_report,
    symmetrize,
)
from .piercing import (
    BallFamily,
    PiercingSet,
    cap_overlap_radius,
    cover_points_by_balls,
    normalize_family,
    pierce,
    pierce_large,
    refine_ball_cover,
    verify_piercing,
)
from .sphere_cover import (
    Cover,
    CoverCertificate,
    CoverParams,
    Packing,
    PackParams,
    greedy_cover,
    maximal_packing,
    sphere_net,
    verify_cover,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "Balls",
    "BallFamily",
    "BudgetError",
    "CapBody",
    "Cover",
    "CoverCertificate",
    "CoverParams",
    "DEFAULT_TOL",
    "DirectionSet",
    "ExponentReport",
    "MultiplicityReport",
    "PackParams",
    "Packing",
    "PairwiseError",
    "PiercingSet",
    "SeparatedSet",
    "SpikyBall",
    "SymmetricSeparatedSet",
    "VerificationError",
    "build_lower_bound_body",
    "cap_overlap_radius",
    "cap_share",
    "construct_separated_set",
    "cover_points_by_balls",
    "covering_exponent",
    "exponent_report",
    "greedy_cover",
    "illuminate_cap_body",
    "is_cap_body",
    "kl_exponent",
    "maximal_packing",
    "multiplicity_report",
    "normalize_family",
    "pierce",
    "pierce_large",
    "positive_hull_full",
    "refine_ball_cover",
    "solve_alpha",
    "sphere_net",
    "symmetrize",
    "verifies_illumination",
    "verify_cover",
    "verify_piercing",
]
