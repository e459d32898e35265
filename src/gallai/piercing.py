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
from .geometry import (
    DEFAULT_TOL,
    Balls,
    as_vector,
    first_pair_outside,
    gram_gaps,
    gram_rows,
)
from .sphere_cover import CoverParams, greedy_cover

# Distance entries evaluated at once by the blocked kernels below; bounds
# their scratch memory whatever the number of points or balls.
_BLOCK = 1 << 16
# Checks of up to this many pairs use the exact norms alone: below it the
# pair kernel's fixed cost, some thirty array calls, exceeds what it saves.
_EXACT_PAIRS = 1 << 13


@dataclass(frozen=True, eq=False)
class Similarity:
    """Positive similarity between original and normalized frames.

    normalized = (x - offset) / scale; original = offset + scale * y.
    """

    scale: float
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offset", as_vector(self.offset))
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    @classmethod
    def identity(cls, dim: int) -> "Similarity":
        return cls(1.0, np.zeros(dim))

    def to_normalized(self, points) -> np.ndarray:
        return (np.asarray(points, dtype=float) - self.offset) / self.scale

    def to_original(self, points) -> np.ndarray:
        return self.offset + self.scale * np.asarray(points, dtype=float)


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


def first_non_intersecting_pair(balls, tol: float = DEFAULT_TOL):
    """Index pair of the first disjoint pair, or None if all intersect.

    ``balls`` is a ``Balls`` or a non-empty sequence of ``Ball``s.
    """
    if not isinstance(balls, Balls):
        balls = Balls.of(balls)
    return first_pair_outside(balls.centers, high=balls.radii, tol=tol)


@dataclass(frozen=True)
class PiercingConfig:
    """Pipeline knobs; None means the dimension-dependent default."""

    lam: float | None = None  # scale ratio, default (1 - 1/n)^(-1/2)
    large_threshold: float | None = None  # default n; must be >= 2
    seed: int = 0
    tol: float = DEFAULT_TOL
    cover_params: CoverParams | None = None


@dataclass(frozen=True)
class PiercingAccounting:
    """Witnessed counts behind the output cardinality."""

    large_count: int
    scale_cover_counts: tuple[tuple[int, int], ...]  # (k, cover balls for bucket k)
    t: int
    lam: float

    def total(self, dimension: int) -> int:
        return self.large_count + sum(
            2 * dimension * c for _, c in self.scale_cover_counts
        )


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
    transform: Similarity
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


def normalize_family(family: BallFamily) -> tuple[np.ndarray, np.ndarray, Similarity]:
    """Translate and scale so the smallest ball is the unit ball at 0.

    Ties on the smallest radius go to the lowest index. Returns the
    normalized centers (m, n) and radii (m,), and the similarity mapping
    results back. The family was validated when it was built, so its
    mapped copy is only checked to be finite (mapping may overflow);
    ``pierce`` verifies its result against the input family.
    """
    centers, radii = family.centers(), family.radii()
    idx = int(np.argmin(radii))
    tr = Similarity(float(radii[idx]), centers[idx].copy())
    mapped, scaled = tr.to_normalized(centers), radii / tr.scale
    if not (np.isfinite(mapped).all() and np.isfinite(scaled).all()):
        raise ValueError("normalized coordinates and radii must be finite")
    return mapped, scaled, tr


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


def pierce_large(n: int, config: PiercingConfig | None = None) -> np.ndarray:
    """Points on the doubled sphere piercing every large intersecting ball.

    Scales a certified cover of the unit sphere (angular radius matched
    to the large-ball cap width) by 2. Any ball of radius at least the
    large threshold that meets the unit ball contains one of these
    points.
    """
    cfg = config or PiercingConfig()
    if n < 2:
        raise ValueError("dimension must be at least 2")
    threshold = cfg.large_threshold if cfg.large_threshold is not None else float(n)
    theta = cap_overlap_radius(threshold, n)
    cover = greedy_cover(n, theta, cfg.seed, cfg.cover_params)
    return 2.0 * cover.centers


def _norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis of a (k, i, n) difference array.

    Every ``<= radius`` decision of ``cover_points_by_balls`` is taken on
    these values. Each norm depends only on its own n differences, not
    on the array's other axes, so slicing the work never moves a bit.
    """
    return np.sqrt(np.einsum("kij,kij->ki", diff, diff))


def cover_points_by_balls(points, radius: float) -> np.ndarray:
    """Greedy center cover: every input point ends within ``radius`` of
    some returned center.

    Candidates are the points themselves, in index order, then for at
    most 600 points their pairwise midpoints. Repeatedly serve the
    uncovered point farthest from the chosen centers (ties by index)
    with the candidate covering the most uncovered points (ties by
    index). Deterministic.

    Each step is exact but lazy. No candidate covers more than the open
    points, so scoring stops after the first block holding a candidate
    that covers them all: the first such candidate is the argmax, ties
    to the lowest index. The midpoints are formed once per call, and
    scored only in a step where no point covers every open point (a
    midpoint then wins only with a strictly larger gain), so a step that
    a point serves never pays for the m (m - 1) / 2 midpoints.

    Memory is O(candidates * n + _BLOCK): no candidates x points array
    is built. The target's candidate column and the chosen center's row
    come from ``_norms``. Gains are counted over blocks of ``_BLOCK``
    candidate-point pairs by the pair kernel (``gram_gaps``), which
    settles every pair outside its rounding band from one Gram product;
    the pairs inside it are recomputed with ``_norms``, which alone
    decides blocks of at most ``_EXACT_PAIRS`` pairs. So every decision,
    and the cover, is the one the full ``_norms`` tensor would give.
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
    midpoints = None
    centers = []
    while not covered.all():
        open_idx = np.flatnonzero(~covered)
        target = pts[open_idx[int(np.argmax(nearest[open_idx]))]]
        free = pts[open_idx]
        i, gain = _best_candidate(pts, target, free, radius, pts[0])
        pick = pts[i]
        # Midpoints grow quadratically; past 600 points the points alone
        # still yield a valid cover. Neither memory nor a step that a
        # point serves depends on this switch, but moving it would
        # change the covers, and so the artifacts.
        if gain < free.shape[0] and m <= 600:
            if midpoints is None:
                iu, ju = np.triu_indices(m, k=1)
                midpoints = 0.5 * (pts[iu] + pts[ju])
            j, mid_gain = _best_candidate(midpoints, target, free, radius, pts[0])
            if mid_gain > gain:
                pick = midpoints[j]
        row = _norms(pick[None, None, :] - pts[None, :, :])[0]
        centers.append(pick)
        covered |= row <= radius
        np.minimum(nearest, row, out=nearest)
    return np.array(centers)


def _best_candidate(candidates, target, free, radius, origin):
    """(index, gain) of the first candidate within ``radius`` of
    ``target`` that covers the most rows of ``free``; (-1, -1) if none
    is that close. Stops after the first block holding a candidate that
    covers every row of ``free``, since no later one can cover more.
    The pair kernel shifts its rows by ``origin``."""
    column = _norms(candidates[:, None, :] - target[None, None, :])[:, 0]
    able = np.flatnonzero(column <= radius)
    step = max(1, _BLOCK // free.shape[0])
    best, best_gain = -1, -1
    free_rows = None
    for s in range(0, able.size, step):
        idx = able[s : s + step]
        block = candidates[idx]
        if block.shape[0] * free.shape[0] <= _EXACT_PAIRS:
            inside = _norms(block[:, None, :] - free[None, :, :]) <= radius
        else:
            if free_rows is None:
                free_rows = gram_rows(free, 0.0, origin)
            gap, band = gram_gaps(gram_rows(block, radius, origin), free_rows)
            inside = gap < -band[:, None]
            near = np.abs(gap, out=gap) <= band[:, None]
            if near.any():
                r, c = np.nonzero(near)
                inside[r, c] = _norms((block[r] - free[c])[:, None, :])[:, 0] <= radius
        gains = inside.sum(axis=1)
        j = int(np.argmax(gains))
        if gains[j] > best_gain:
            best, best_gain = int(idx[j]), int(gains[j])
            if best_gain == free.shape[0]:
                break
    return best, best_gain


def refine_ball_cover(center, r2: float) -> np.ndarray:
    """The 2n axis-offset centers covering ball(center, r2) one scale down.

    Returns center +- (r2 / sqrt(n)) e_i, in the order +e_1..+e_n then
    -e_1..-e_n. Balls of radius r2 * sqrt(1 - 1/n) at these centers
    cover the input ball, and that radius is tight along the diagonals.
    """
    c = as_vector(center)
    if not r2 > 0:
        raise ValueError("radius must be positive")
    n = c.size
    offset = (r2 / math.sqrt(n)) * np.eye(n)
    return np.concatenate([c + offset, c - offset])


def _bucket_index(r: float, lam: float) -> int:
    """Unique k >= 1 with lam^(k-1) <= r < lam^k, robust at boundaries."""
    if r <= 1.0:
        return 1
    k = max(1, int(math.floor(math.log(r) / math.log(lam))) + 1)
    while lam ** (k - 1) > r:
        k -= 1
    while r >= lam**k:
        k += 1
    return max(1, k)


def pierce(family: BallFamily, config: PiercingConfig | None = None) -> PiercingSet:
    """Construct a verified piercing set for a pairwise intersecting family.

    Raises:
        ValueError: On invalid configuration.
        VerificationError: If the final exact check finds an unpierced
            ball (the constructed set rides on the exception).
    """
    cfg = config or PiercingConfig()
    n = family.dimension

    lam_cap = (1.0 - 1.0 / n) ** -0.5
    lam = cfg.lam if cfg.lam is not None else lam_cap
    if not 1.0 < lam <= lam_cap + 1e-12:
        raise ValueError(
            f"lambda must lie in (1, {lam_cap}] so refined balls fit their bucket"
        )
    threshold = cfg.large_threshold if cfg.large_threshold is not None else float(n)
    if threshold < 2.0:
        raise ValueError("large threshold must be at least 2")

    # Smallest t with lam^t strictly above the threshold; the relative
    # guard keeps exact powers (e.g. lam^2 = 2 at n = 2) below it.
    t = 1
    while lam**t <= threshold * (1.0 + 1e-12):
        t += 1

    if len(family) == 1:
        return _verified(
            family,
            cfg,
            PiercingSet(
                n,
                family.centers().copy(),
                ("center",),
                Similarity.identity(n),
                PiercingAccounting(0, (), t, lam),
            ),
        )

    centers, radii, transform = normalize_family(family)

    points: list[np.ndarray] = []
    provenance: list[str] = []

    large = radii >= threshold
    large_count = 0
    if large.any():
        c0 = pierce_large(n, cfg)
        large_count = c0.shape[0]
        points.append(c0)
        provenance.extend(["large"] * large_count)

    buckets: dict[int, list[int]] = {}
    for i in np.flatnonzero(~large):
        buckets.setdefault(_bucket_index(float(radii[i]), lam), []).append(int(i))

    scale_counts = []
    for k in sorted(buckets):
        xk = centers[buckets[k]]
        ball_centers = cover_points_by_balls(xk, lam**k)
        scale_counts.append((k, ball_centers.shape[0]))
        for z in ball_centers:
            points.append(refine_ball_cover(z, lam**k))
            provenance.extend([f"scale:{k}"] * (2 * n))

    raw = np.concatenate(points) if points else np.empty((0, n))
    result = PiercingSet(
        n,
        transform.to_original(raw),
        tuple(provenance),
        transform,
        PiercingAccounting(large_count, tuple(scale_counts), t, lam),
    )
    return _verified(family, cfg, result)


def _verified(family, cfg, result: PiercingSet) -> PiercingSet:
    ok, witness = verify_piercing(family, result, cfg.tol)
    if not ok:
        raise VerificationError(
            f"piercing verification failed at ball index {witness}",
            witness=witness,
            result=result,
        )
    return result


def verify_piercing(
    family: BallFamily, piercing, tol: float = DEFAULT_TOL
) -> tuple[bool, int | None]:
    """Exact check that every ball contains at least one point.

    Accepts a PiercingSet or a raw (m, n) array. Returns (True, None)
    or (False, index of the first unpierced ball). A point pierces a
    ball when ``norm(point - center) <= radius + tol``. Past
    ``_EXACT_PAIRS`` ball-point pairs, the pair kernel (``gram_gaps``)
    settles every pair outside its rounding band from one Gram product;
    only the pairs inside it, of balls that no settled pair pierces, are
    recomputed with that norm. Balls are checked in blocks of about
    ``_BLOCK`` ball-point pairs, so memory stays bounded for any family
    and point count.
    """
    pts = piercing.points if isinstance(piercing, PiercingSet) else np.asarray(
        piercing, dtype=float
    )
    if pts.ndim != 2 or pts.shape[1] != family.dimension:
        raise ValueError(f"points must have shape (m, {family.dimension})")
    if pts.shape[0] == 0:
        return False, 0
    centers = family.centers()
    limits = family.radii() + tol
    step = max(1, _BLOCK // pts.shape[0])
    if centers.shape[0] * pts.shape[0] <= _EXACT_PAIRS:
        gaps = np.linalg.norm(pts[None, :, :] - centers[:, None, :], axis=-1)
        missed = np.flatnonzero(~(gaps <= limits[:, None]).any(axis=1))
        return (False, int(missed[0])) if missed.size else (True, None)
    ball_rows = gram_rows(centers, limits, centers[0])
    point_rows = gram_rows(pts, 0.0, centers[0])
    for s in range(0, centers.shape[0], step):
        gap, band = gram_gaps(ball_rows.take(slice(s, s + step)), point_rows)
        pierced = (gap < -band[:, None]).any(axis=1)
        if not pierced.all():
            # Unpierced rows hold no settled inside pair, so every pair
            # at or below the band is one to recompute.
            open_rows = np.flatnonzero(~pierced)
            r, c = np.nonzero(gap[open_rows] <= band[open_rows, None])
            r = open_rows[r]
            gaps = np.linalg.norm(pts[c] - centers[s + r], axis=-1)
            pierced[r[gaps <= limits[s + r]]] = True
        missed = np.flatnonzero(~pierced)
        if missed.size:
            return False, s + int(missed[0])
    return True, None
