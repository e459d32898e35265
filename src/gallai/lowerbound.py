"""Symmetric separated point sets and the cap bodies they induce.

Builds antipodally symmetric sets on the sphere whose pairwise angular
distances stay at least pi/3, turns them into centrally symmetric cap
bodies with vertex norm 2/sqrt(3) (tangent pi/6 caps), and measures how
many vertices a single direction can illuminate. The ratio of the
vertex count to the observed maximum multiplicity is a lower-bound
witness for the illumination number of the body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sampling
from .errors import PairwiseError, VerificationError
from .geometry import DEFAULT_TOL, as_unit_rows, first_pair_outside
from .illumination import CapBody

# Acceptance window for pairwise angular distances.
ANGLE_MIN = math.pi / 3
ANGLE_MAX = 2 * math.pi / 3

VERTEX_SCALE = 2.0 / math.sqrt(3.0)

# Candidates drawn per sampling.unit_vectors call in construct_separated_set.
_BLOCK = 512
# Band around each window edge inside which a block's dots are recomputed
# with the per-candidate product of construct_separated_set.
_RECHECK = 1e-12


@dataclass(frozen=True, eq=False)
class SeparatedSet:
    """Unit vectors with pairwise angles inside [pi/3, 2pi/3]."""

    dimension: int
    points: np.ndarray
    reached_target: bool = True

    def __post_init__(self):
        p = as_unit_rows(self.points, self.dimension, "points")
        if p.shape[0] == 0:
            raise ValueError("points must be non-empty")
        pair = first_pair_outside(p, ANGLE_MIN, ANGLE_MAX, angles=True, tol=DEFAULT_TOL)
        if pair is not None:
            raise PairwiseError(
                f"points {pair[0]} and {pair[1]} leave the separation window", pair
            )
        object.__setattr__(self, "points", p)

    def __len__(self):
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class SymmetricSeparatedSet:
    """Negation-closed unit vectors, pairwise at least pi/3 apart."""

    dimension: int
    points: np.ndarray

    def __post_init__(self):
        p = as_unit_rows(self.points, self.dimension, "points")
        if p.shape[0] == 0:
            raise ValueError("points must be non-empty")
        # Negation closure is exact: flipping signs is lossless in
        # floats. Adding 0.0 first collapses -0.0 onto 0.0 so the byte
        # comparison matches mathematical equality.
        have = {row.tobytes() for row in p + 0.0}
        missing = [i for i, row in enumerate(-p + 0.0) if row.tobytes() not in have]
        if missing:
            raise ValueError(f"set is not negation-closed (point {missing[0]})")
        pair = first_pair_outside(p, low=ANGLE_MIN, angles=True, tol=DEFAULT_TOL)
        if pair is not None:
            raise PairwiseError(f"points {pair[0]} and {pair[1]} are closer than pi/3", pair)
        object.__setattr__(self, "points", p)

    def __len__(self):
        return self.points.shape[0]


def construct_separated_set(
    n: int,
    target_size: int,
    seed: int = 0,
    max_draws: int | None = None,
    stall_limit: int = 600,
) -> SeparatedSet:
    """Seeded rejection sampling of a separated set.

    Draws uniform unit vectors and accepts one iff its angular distance
    to every accepted point stays in [pi/3, 2pi/3] (checked exactly, no
    tolerance). Greedy acceptance can jam below the target, so after
    ``stall_limit`` consecutive rejections the run restarts on a fresh
    derived stream and the largest run wins. Stops at ``target_size``
    or once ``max_draws`` total draws are spent; an undersized result
    is flagged via ``reached_target``, never returned silently.

    Candidates are drawn ``_BLOCK`` at a time and scanned with one matrix
    product, but every decision, draw count and restart is that of a loop
    drawing one vector per iteration, so the result does not depend on
    ``_BLOCK``.
    """
    if n < 3:
        raise ValueError("dimension must be at least 3")
    if target_size < 1:
        raise ValueError("target size must be positive")
    if max_draws is not None and max_draws < 1:
        raise ValueError(f"max_draws must be positive, got {max_draws}")
    if stall_limit < 0:
        raise ValueError(f"stall_limit must be non-negative, got {stall_limit}")
    budget = max_draws if max_draws is not None else max(20_000, 400 * target_size)
    cos_hi = math.cos(ANGLE_MIN)  # dots above this are too close
    cos_lo = math.cos(ANGLE_MAX)  # dots below this are too far
    band = max(_RECHECK, 4.0 * n * np.finfo(float).eps)
    best: list[np.ndarray] = []
    drawn = 0
    restart = 0
    while drawn < budget and len(best) < target_size:
        rng = sampling.subrng(seed, restart)
        restart += 1
        accepted: list[np.ndarray] = []
        stall = 0
        while drawn < budget and len(accepted) < target_size and stall <= stall_limit:
            # A block never passes the budget or the stall limit, so the
            # run stops after the same draw as a one-at-a-time loop; only a
            # run that reaches its target leaves the rest of a block unused.
            count = min(_BLOCK, budget - drawn, stall_limit + 1 - stall)
            block = sampling.unit_vectors(rng, n, count)
            while len(block) and len(accepted) < target_size:
                i = _first_fit(block, accepted, cos_lo, cos_hi, band)
                if i is None:
                    drawn += len(block)
                    stall += len(block)
                    break
                drawn += i + 1
                accepted.append(block[i])
                stall = 0
                block = block[i + 1 :]
        if len(accepted) > len(best):
            best = accepted
    return SeparatedSet(n, np.array(best), reached_target=len(best) >= target_size)


def _first_fit(block, accepted, cos_lo, cos_hi, band) -> int | None:
    """First row of ``block`` whose dots with every accepted point lie in
    [cos_lo, cos_hi], or None.

    Decides each row as ``np.array(accepted) @ row`` would: the block's
    matrix product may differ from it in the last bits, so rows with a
    dot within ``band`` of either edge are recomputed that way.
    """
    if not accepted:
        return 0
    pts = np.array(accepted)
    dots = block @ pts.T
    near = (np.abs(dots - cos_hi) <= band) | (np.abs(dots - cos_lo) <= band)
    outside = ((dots > cos_hi) | (dots < cos_lo)) & ~near
    unsure = near.any(axis=1)
    for i in np.flatnonzero(~outside.any(axis=1)):
        if not unsure[i]:
            return int(i)
        exact = pts @ block[i].copy()  # a fresh row, like a single draw
        if not (exact.max() > cos_hi or exact.min() < cos_lo):
            return int(i)
    return None


def symmetrize(x: SeparatedSet) -> SymmetricSeparatedSet:
    """Close a separated set under negation.

    Distances survive: for distinct u, v the angle between u and -v is
    pi minus a window angle, which is again in the window, and u to -u
    is pi. The window keeps antipodal pairs out of the input, so the
    output always has exactly twice the points.
    """
    return SymmetricSeparatedSet(
        x.dimension, np.concatenate([x.points, -x.points])
    )


def build_lower_bound_body(y: SymmetricSeparatedSet) -> CapBody:
    """Centrally symmetric cap body with vertices at (2/sqrt(3)) y_i.

    Each associated cap is the closed pi/6 cap at y_i; the pi/3
    separation makes them pairwise disjoint up to tangency.

    Raises:
        VerificationError: If the cap-body check fails, which would
            mean the separation invariant was violated upstream.
    """
    try:
        return CapBody.from_vertices(y.dimension, VERTEX_SCALE * y.points)
    except ValueError as exc:
        raise VerificationError(f"cap-body check failed: {exc}") from exc


def illumination_multiplicity(
    y: SymmetricSeparatedSet, u, tol: float = DEFAULT_TOL
) -> int:
    """Number of base points whose open pi/3 cap contains -u.

    This counts exactly the vertices of the induced cap body that the
    direction u illuminates.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (y.dimension,):
        raise ValueError(f"direction must have shape ({y.dimension},)")
    dots = y.points @ (-u)
    return int((dots > math.cos(ANGLE_MIN) + tol).sum())


@dataclass(frozen=True)
class MultiplicityReport:
    """Sampled illumination-multiplicity statistics.

    ``witness`` is size / max_multiplicity, a lower bound on the
    illumination number of the induced body (inf when no sampled
    direction illuminated anything).
    """

    samples: int
    max_multiplicity: int
    mean_multiplicity: float
    histogram: tuple[tuple[int, int], ...]  # (multiplicity, frequency)
    witness: float

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "max_multiplicity": self.max_multiplicity,
            "mean_multiplicity": self.mean_multiplicity,
            "histogram": {str(k): v for k, v in self.histogram},
            "witness": self.witness,
        }


def multiplicity_report(
    y: SymmetricSeparatedSet,
    samples: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> MultiplicityReport:
    """Multiplicity statistics over seeded uniform directions."""
    if samples < 1:
        raise ValueError("sample count must be positive")
    u = sampling.unit_vectors(sampling.rng_from(seed), y.dimension, samples)
    counts = ((-u @ y.points.T) > math.cos(ANGLE_MIN) + tol).sum(axis=1)
    top = int(counts.max())
    freq = np.bincount(counts)
    hist = tuple((int(k), int(freq[k])) for k in np.flatnonzero(freq))
    witness = len(y) / top if top > 0 else math.inf
    return MultiplicityReport(
        samples=samples,
        max_multiplicity=top,
        mean_multiplicity=float(counts.mean()),
        histogram=hist,
        witness=witness,
    )
