"""Certified piercing sets for finite families of pairwise intersecting balls.

The pipeline normalizes the family so its smallest ball is the unit
ball, pierces every large ball with points on the doubled sphere (any
large ball meeting the unit ball swallows a fat cap of that sphere),
and buckets the remaining balls by radius scale: each bucket's centers
are covered greedily by balls of the bucket's top radius, which are
then refined down one scale by an axis-aligned 2n-ball cover, so each
refined center lands inside every ball of the bucket it serves. The
result is verified against the original family before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PairwiseError, VerificationError
from .geometry import (DEFAULT_TOL, Balls, exact_fits, first_pair_outside, pair_distances,
                       pairs_within)
from .sphere_cover import greedy_cover


@dataclass(frozen=True, eq=False)
class BallFamily:
    """Non-empty family of same-dimension, pairwise intersecting balls.

    ``balls`` is a ``Balls``, whose arrays are kept as they are, or any
    sequence of ``Ball``s, which is stacked into one; ``family.balls``
    is then that ``Balls``. The arrays are checked once, when they are
    built, and the pairwise intersection once, here.
    """

    dimension: int
    balls: Balls

    def __post_init__(self):
        balls = self.balls if isinstance(self.balls, Balls) else Balls.of(self.balls)
        if balls.dimension != self.dimension:
            raise ValueError(
                f"dimension mismatch: family is {self.dimension}, "
                f"balls have {balls.dimension}"
            )
        object.__setattr__(self, "balls", balls)
        bad = first_non_intersecting_pair(balls)
        if bad is not None:
            raise PairwiseError(f"balls {bad[0]} and {bad[1]} do not intersect", bad)

    def centers(self) -> np.ndarray:
        """The read-only (m, n) centers."""
        return self.balls.centers

    def radii(self) -> np.ndarray:
        """The read-only (m,) radii."""
        return self.balls.radii

    def __len__(self):
        return len(self.balls)


def first_non_intersecting_pair(balls):
    """Index pair of the first pair farther apart than its radii sum plus
    the family's slack, or None if all intersect.

    ``balls`` is a ``Balls`` or a non-empty sequence of ``Ball``s. The
    slack is ``DEFAULT_TOL`` times the smallest radius, so scaling or
    moving the family changes no verdict beyond rounding.
    """
    if not isinstance(balls, Balls):
        balls = Balls.of(balls)
    slack = DEFAULT_TOL * float(balls.radii.min())
    return first_pair_outside(balls.centers, high=balls.radii, tol=slack)


@dataclass(frozen=True)
class PiercingAccounting:
    """Witnessed counts behind the output cardinality."""

    large_count: int
    scale_cover_counts: tuple[tuple[int, int], ...]  # (k, cover balls for bucket k)
    t: int
    lam: float


@dataclass(frozen=True, eq=False)
class PiercingSet:
    """Verified piercing set with per-point provenance.

    Provenance tags are "large" for doubled-sphere points, "scale:k"
    for refined centers of bucket k, and "center" for the single-ball
    shortcut.
    """

    dimension: int
    points: np.ndarray
    provenance: tuple[str, ...]
    accounting: PiercingAccounting

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        if p.ndim != 2 or p.shape[1] != self.dimension:
            raise ValueError(f"points must have shape (m, {self.dimension})")
        if len(self.provenance) != p.shape[0]:
            raise ValueError("one provenance tag per point required")
        object.__setattr__(self, "points", p)

    def __len__(self):
        return self.points.shape[0]


def normalize_family(family: BallFamily) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Translate and scale so the smallest ball is the unit ball at 0.

    Ties on the smallest radius go to the lowest index. Returns the
    normalized centers (m, n) and radii (m,), and the scale and offset
    (that ball's radius and center) that map a normalized point y back
    to offset + scale * y. The family was validated when it was built,
    so its mapped copy is only checked to be finite (mapping may
    overflow); ``pierce`` verifies its result against the input family.
    """
    centers, radii = family.centers(), family.radii()
    idx = int(np.argmin(radii))
    scale, offset = float(radii[idx]), centers[idx]
    mapped, scaled = (centers - offset) / scale, radii / scale
    if not (np.isfinite(mapped).all() and np.isfinite(scaled).all()):
        raise ValueError("normalized coordinates and radii must be finite")
    return mapped, scaled, scale, offset


def cap_overlap_radius(r: float, n: int) -> float:
    """Angular radius of the doubled-sphere cap inside any intersecting ball.

    A ball of radius r >= 2 that meets the unit ball cuts the sphere of
    radius 2 in a cap at least this wide: arccos((2r + 5) / (4 (r + 1))).
    Increasing in r with limit pi/3.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if r < 2.0:
        raise ValueError(f"radius must be at least 2, got {r}")
    return math.acos((2.0 * r + 5.0) / (4.0 * (r + 1.0)))


def pierce_large(n: int, seed: int = 0) -> np.ndarray:
    """Points on the doubled sphere piercing every large intersecting ball.

    Scales a certified cover of the unit sphere (angular radius matched
    to the large-ball cap width) by 2. Any ball of radius at least n
    that meets the unit ball contains one of these points. ``seed``
    reaches only a sampled fallback cover (see ``greedy_cover``).
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    theta = cap_overlap_radius(float(n), n)
    cover = greedy_cover(n, theta, seed)
    return 2.0 * cover.centers


def cover_points_by_balls(points, radius: float) -> np.ndarray:
    """Greedy center cover: every input point ends within ``radius`` of
    some returned center.

    Candidates are the points themselves, in index order, then for at
    most 600 points their pairwise midpoints. Repeatedly serve the
    uncovered point farthest from the chosen centers (ties by index)
    with the candidate covering the most uncovered points (ties by
    index). Deterministic.

    Every distance is ``pair_distances``, whose value depends only on
    its two points, so every decision, and the cover, is the one the
    full candidates x points tensor would give. A candidate set that
    ``geometry.exact_fits`` against the points (m^2 pairs for the points,
    m (m - 1) / 2 x m for the midpoints) computes its table once, and
    each step reads the target's column, the gains and the chosen row
    from it. A larger set computes per step the target's column and the
    chosen row, and scores the gains lazily through the blocks of
    ``pairs_within``: no candidate covers more than the open points, so
    scoring stops after the first block holding a candidate that covers
    them all (the first such is the argmax, ties to the lowest index),
    and that first block fits the exact formula. The midpoints are
    formed once per call, and scored only in a step where no point
    covers every open point (a midpoint then wins only with a strictly
    larger gain), so a step that a point serves never pays for them.
    Memory stays bounded by the candidates and one table or block.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty (m, n) array")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if not radius > 0:
        raise ValueError("radius must be positive")
    m = pts.shape[0]
    if m == 1:
        return pts.copy()
    covered = np.zeros(m, dtype=bool)
    nearest = np.full(m, np.inf)
    by_points, by_midpoints = _Candidates(pts, pts, radius), None
    centers = []
    while not covered.all():
        # A point is open exactly when it is farther than ``radius`` from
        # every chosen center, so the farthest point (ties by index) is
        # the farthest open one.
        target = int(np.argmax(nearest))
        free = ~covered
        side = by_points
        i, gain = side.best(target, free)
        # Midpoints grow quadratically; past 600 points the points alone
        # still yield a valid cover. Neither memory nor a step that a
        # point serves depends on this switch, but moving it would
        # change the covers, and so the artifacts.
        if m <= 600 and gain < np.count_nonzero(free):
            if by_midpoints is None:
                # The pairs i < j in row-major order, as np.triu_indices(m, 1)
                # gives them, without its fixed cost.
                r = np.arange(m)
                iu, ju = np.nonzero(r[:, None] < r)
                by_midpoints = _Candidates(0.5 * (pts[iu] + pts[ju]), pts, radius)
            j, mid_gain = by_midpoints.best(target, free)
            if mid_gain > gain:
                side, i = by_midpoints, j
        row = side.row(i)
        centers.append(side.candidates[i])
        covered |= row <= radius
        np.minimum(nearest, row, out=nearest)
    return np.array(centers)


class _Candidates:
    """Candidate centers scored against the points to cover: through
    their ``pair_distances`` table where ``exact_fits`` allows it, else
    step by step."""

    def __init__(self, candidates, pts, radius):
        self.candidates, self.pts, self.radius = candidates, pts, radius
        self.table = None
        if exact_fits(candidates.shape[0], pts.shape[0]):
            self.table = pair_distances(candidates.T[:, :, None], pts.T[:, None, :])
            # 0/1 per pair, so that one product counts a candidate's gain.
            self.hits = (self.table <= radius).astype(float)

    def best(self, target, free):
        """(index, gain) of the first candidate within ``radius`` of point
        ``target`` that covers the most points of the mask ``free``; the
        gain is -1 if none is that close."""
        if self.table is not None:
            gains = self.hits @ free
            gains[self.hits[:, target] == 0.0] = -1.0
            j = int(np.argmax(gains))
            return j, int(gains[j])
        # No candidate covers more than the open points, so the scan stops
        # after the first block holding one that covers them all.
        column = pair_distances(self.candidates.T, self.pts[target][:, None])
        able = np.flatnonzero(column <= self.radius)
        best, best_gain, size = -1, -1, np.count_nonzero(free)
        for rows, inside in pairs_within(self.candidates, self.pts[free], self.radius, able):
            gains = inside.sum(axis=1)
            j = int(np.argmax(gains))
            if gains[j] > best_gain:
                best, best_gain = int(rows[j]), int(gains[j])
                if best_gain == size:
                    break
        return best, best_gain

    def row(self, i):
        """Distances from candidate ``i`` to every point."""
        if self.table is None:
            return pair_distances(self.candidates[i][:, None], self.pts.T)
        return self.table[i]


def refine_ball_cover(centers, r2: float) -> np.ndarray:
    """The 2n axis-offset centers covering each ball(c, r2), c a row of
    the (k, n) ``centers``, one scale down.

    Returns the (2 n k, n) points c +- (r2 / sqrt(n)) e_i, per center in
    the order +e_1..+e_n then -e_1..-e_n. Balls of radius r2 * sqrt(1 -
    1/n) at these points cover the input balls, and that radius is tight
    along the diagonals.
    """
    if not r2 > 0:
        raise ValueError("radius must be positive")
    centers = np.asarray(centers, dtype=float)
    n = centers.shape[1]
    offset = (r2 / math.sqrt(n)) * np.eye(n)
    return (centers[:, None, :] + np.concatenate([offset, -offset])).reshape(-1, n)


def _scale_buckets(radii: np.ndarray, lam: float, t: int) -> np.ndarray:
    """Bucket of each radius below lam^t: the k >= 1 with
    lam^(k-1) <= r < lam^k, and 1 for r <= 1.

    The boundaries are Python float powers, as the bucket radii lam**k
    of ``pierce`` are; numpy's power can differ from them by an ulp (at
    n = 3, lam^3 is 1.8371173070873832 in Python and one ulp more in
    numpy), which would put a boundary radius in the wrong bucket.
    """
    bounds = np.array([lam**k for k in range(t + 1)])
    return np.maximum(np.searchsorted(bounds, radii, side="right"), 1)


def pierce(family: BallFamily, seed: int = 0) -> PiercingSet:
    """Construct a verified piercing set for a pairwise intersecting family.

    Balls of radius at least n (after normalization) are large. The
    scale ratio is lam = (1 - 1/n)^(-1/2), the largest for which the
    refined balls of bucket k, of radius lam^k sqrt(1 - 1/n), are no
    larger than its smallest ball, of radius lam^(k-1). ``seed`` reaches
    only a sampled fallback cover of the large balls (see
    ``greedy_cover``). The final check is ``verify_piercing``, whose
    slack scales with the smallest radius.

    Raises:
        VerificationError: If the final exact check finds an unpierced
            ball (the constructed set rides on the exception).
    """
    n = family.dimension
    lam = (1.0 - 1.0 / n) ** -0.5
    threshold = float(n)

    # Smallest t with lam^t strictly above the threshold; the relative
    # guard keeps exact powers (e.g. lam^2 = 2 at n = 2) below it.
    t = 1
    while lam**t <= threshold * (1.0 + 1e-12):
        t += 1

    if len(family) == 1:
        return _verified(
            family,
            PiercingSet(
                n,
                family.centers().copy(),
                ("center",),
                PiercingAccounting(0, (), t, lam),
            ),
        )

    centers, radii, scale, offset = normalize_family(family)

    points: list[np.ndarray] = []
    provenance: list[str] = []

    large = radii >= threshold
    large_count = 0
    if large.any():
        c0 = pierce_large(n, seed)
        large_count = c0.shape[0]
        points.append(c0)
        provenance.extend(["large"] * large_count)

    small = np.flatnonzero(~large)
    ks = _scale_buckets(radii[small], lam, t)
    scale_counts = []
    for k in map(int, np.unique(ks)):
        xk = centers[small[ks == k]]
        ball_centers = cover_points_by_balls(xk, lam**k)
        scale_counts.append((k, ball_centers.shape[0]))
        points.append(refine_ball_cover(ball_centers, lam**k))
        provenance.extend([f"scale:{k}"] * (2 * n * ball_centers.shape[0]))

    raw = np.concatenate(points) if points else np.empty((0, n))
    result = PiercingSet(
        n,
        offset + scale * raw,
        tuple(provenance),
        PiercingAccounting(large_count, tuple(scale_counts), t, lam),
    )
    return _verified(family, result)


def _verified(family, result: PiercingSet) -> PiercingSet:
    ok, witness = verify_piercing(family, result)
    if not ok:
        raise VerificationError(
            f"piercing verification failed at ball index {witness}",
            witness=witness,
            result=result,
        )
    return result


def verify_piercing(family: BallFamily, piercing) -> tuple[bool, int | None]:
    """Exact check that every ball contains at least one point.

    Accepts a PiercingSet or a raw (m, n) array. Returns (True, None)
    or (False, index of the first unpierced ball). A point pierces a
    ball when ``pair_distances(point, center) <= radius + DEFAULT_TOL *
    r_min``, r_min the family's smallest radius, as ``pairs_within``
    decides it, block by block, so memory stays bounded for any family
    and point count. The slack scales with the family, so a similarity
    of family and points changes no verdict beyond rounding.
    """
    pts = piercing.points if isinstance(piercing, PiercingSet) else np.asarray(
        piercing, dtype=float
    )
    if pts.ndim != 2 or pts.shape[1] != family.dimension:
        raise ValueError(f"points must have shape (m, {family.dimension})")
    if pts.shape[0] == 0:
        return False, 0
    limits = family.radii() + DEFAULT_TOL * float(family.radii().min())
    for rows, inside in pairs_within(family.centers(), pts, limits):
        missed = np.flatnonzero(~inside.any(axis=1))
        if missed.size:
            return False, int(rows[missed[0]])
    return True, None
