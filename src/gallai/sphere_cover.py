"""Spherical cap covers and separated packings of the unit sphere.

Covers are upper witnesses for the covering number N(n, theta) and
packings lower witnesses for the packing number M(n, theta); neither is
claimed optimal. On the circle both problems are solved exactly; in
higher dimensions a seeded greedy runs over a candidate set and the
result carries a certificate (an exact net check in low dimensions, a
seeded Monte-Carlo check above that).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import sampling
from .errors import PairwiseError, VerificationError
from .geometry import DEFAULT_TOL, as_unit_rows, first_pair_outside

# Hard ceiling on exact-net sizes; nets grow exponentially with the
# dimension, so past this the sampled certificate is the only option.
MAX_NET_POINTS = 2_000_000


@dataclass(frozen=True, eq=False)
class CoverCertificate:
    """Evidence that a set of caps covers the sphere.

    The net method is a proof: if every net point lies within
    theta - delta of a center, the cover is complete. The sampled
    method is heuristic; ``undetected_measure`` is the relative measure
    of an uncovered region that the sample count would still miss with
    probability ~5%.
    """

    method: str  # "net" or "sampled"
    resolution_or_samples: float
    margin: float
    passed: bool
    undetected_measure: float | None = None


@dataclass(frozen=True, eq=False)
class Cover:
    """Closed caps of one angular radius, centered at unit vectors."""

    dimension: int
    angular_radius: float
    centers: np.ndarray
    certificate: CoverCertificate | None = None

    def __post_init__(self):
        c = as_unit_rows(self.centers, self.dimension, "centers")
        if not 0.0 < self.angular_radius <= math.pi / 2:
            raise ValueError("angular radius must lie in (0, pi/2]")
        object.__setattr__(self, "centers", c)

    def __len__(self):
        return self.centers.shape[0]


@dataclass(frozen=True, eq=False)
class Packing:
    """Unit vectors with pairwise angular distance >= separation."""

    dimension: int
    separation: float
    centers: np.ndarray
    saturated: bool = True

    def __post_init__(self):
        c = as_unit_rows(self.centers, self.dimension, "centers")
        if not 0.0 < self.separation < math.pi:
            raise ValueError("separation must lie in (0, pi)")
        object.__setattr__(self, "centers", c)
        pair = first_pair_outside(c, low=self.separation - DEFAULT_TOL, angles=True)
        if pair is not None:
            raise PairwiseError(
                f"packing separation violated by centers {pair[0]} and {pair[1]}", pair
            )

    def __len__(self):
        return self.centers.shape[0]


@dataclass(frozen=True)
class CoverParams:
    """Knobs for greedy cover construction. Zero means adaptive."""

    candidates: int = 0
    margin: float = 0.0
    certify: str = "auto"  # "auto", "net", or "sampled"
    certify_samples: int = 100_000
    max_centers: int = 20_000
    max_net_points: int = MAX_NET_POINTS


@dataclass(frozen=True)
class PackParams:
    """Knobs for greedy packing construction. Zero means adaptive."""

    pool: int = 0
    max_points: int = 0  # 0 = saturate; otherwise stop early (not saturated)
    polish: bool = True
    polish_candidates: int = 256
    polish_steps: int = 60
    extra_rounds: int = 1


def net_size(dim: int, m: int) -> int:
    """Number of integer points with L1 norm m in Z^dim."""
    top = min(dim, m)
    return sum(
        math.comb(dim, j) * (2**j) * math.comb(m - 1, j - 1) for j in range(1, top + 1)
    )


def sphere_net(
    dim: int, resolution: float, max_points: int = MAX_NET_POINTS
) -> tuple[np.ndarray, float]:
    """Deterministic net of the unit sphere with a proven resolution.

    Takes the integer points of L1 norm m in Z^dim, radially projected
    to the sphere. Every unit vector is within dim/m of a net point:
    moving to the L1 sphere, rounding barycentrically (error < sqrt(dim)/m
    inside one facet), and projecting back (the normalization map is
    sqrt(dim)-Lipschitz on a facet) compound to dim/m.

    Returns:
        (points, delta) where delta = dim/m <= resolution is the
        guaranteed angular resolution.

    Raises:
        RuntimeError: If the net would exceed ``max_points``.
    """
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    if not 0 < resolution < math.pi:
        raise ValueError("resolution must lie in (0, pi)")
    m = max(dim, math.ceil(dim / resolution))
    size = net_size(dim, m)
    if size > max_points:
        raise RuntimeError(
            f"net of resolution {resolution} in dimension {dim} needs {size} points "
            f"(limit {max_points}); use the sampled certificate instead"
        )
    rows = np.zeros((size, dim))
    i = 0
    for j in range(1, min(dim, m) + 1):
        # Rows run over supports, then compositions, then sign patterns,
        # each in lexicographic order; the j - 1 partial sums of a
        # composition of m are its cut points in 1..m-1.
        cuts = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(1, m), j - 1)),
            dtype=np.int64,
        ).reshape(math.comb(m - 1, j - 1), j - 1)
        comps = np.diff(cuts, axis=1, prepend=0, append=m)
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=j)))
        block = (comps[:, None, :] * signs[None, :, :]).reshape(-1, j)
        for support in itertools.combinations(range(dim), j):
            rows[i : i + len(block), list(support)] = block
            i += len(block)
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    return rows, dim / m


def _max_gap(points: np.ndarray, centers: np.ndarray, chunk: int = 20_000) -> float:
    """Largest angular distance from a point to its nearest center."""
    worst = -1.0
    for start in range(0, points.shape[0], chunk):
        block = points[start : start + chunk]
        best_dot = (block @ centers.T).max(axis=1)
        worst = max(worst, float(np.arccos(np.clip(best_dot, -1.0, 1.0)).max()))
    return worst


def verify_cover(
    cover: Cover,
    method: str = "sampled",
    resolution_or_samples: float | int | None = None,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_net_points: int = MAX_NET_POINTS,
) -> CoverCertificate:
    """Certify a cover by an exact net check or by uniform sampling.

    Net method: builds a delta-net and passes iff every net point lies
    within theta - delta of a center, which proves the cover is
    complete. Requires delta < theta. Sampled method: passes iff all of
    k uniform points are covered (closed caps, tolerance-inclusive).
    """
    theta = cover.angular_radius
    if method == "net":
        delta = float(resolution_or_samples) if resolution_or_samples else theta / 8
        if delta >= theta:
            raise ValueError(f"net resolution {delta} must be below the cap radius {theta}")
        net, exact_delta = sphere_net(cover.dimension, delta, max_net_points)
        worst = _max_gap(net, cover.centers)
        margin = (theta - exact_delta) - worst
        return CoverCertificate("net", exact_delta, margin, margin >= -tol)
    if method == "sampled":
        k = int(resolution_or_samples) if resolution_or_samples else 100_000
        if k < 1:
            raise ValueError("sample count must be positive")
        pts = sampling.unit_vectors(sampling.rng_from(seed), cover.dimension, k)
        worst = _max_gap(pts, cover.centers)
        margin = theta - worst
        return CoverCertificate(
            "sampled", k, margin, margin >= -tol, undetected_measure=math.log(20.0) / k
        )
    raise ValueError(f"unknown certification method {method!r}")


def covering_size_estimate(n: int, theta: float) -> float:
    """Leading-order size estimate (1/sin theta)^n for sphere covers."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not 0.0 < theta <= math.pi / 2:
        raise ValueError("theta must lie in (0, pi/2]")
    return (1.0 / math.sin(theta)) ** n


def _circle_positions(count: int) -> np.ndarray:
    angles = 2.0 * math.pi * np.arange(count) / count
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _adaptive_pool(n: int) -> int:
    return {3: 30_000, 4: 40_000, 5: 60_000}.get(n, 100_000)


def _adaptive_margin(n: int, theta: float, pool: int) -> float:
    # Estimated angular resolution of a uniform pool of that size; the
    # greedy marks candidates covered at theta minus this, so the true
    # uncovered region (beyond the pool) stays inside the caps.
    est = (3.0 * n * math.log(pool) / pool) ** (1.0 / (n - 1))
    return min(0.45 * theta, math.asin(min(0.95, est)))


def greedy_cover(
    n: int, theta: float, seed: int = 0, params: CoverParams | None = None
) -> Cover:
    """Construct a certified cover of the unit sphere by caps of radius theta.

    On the circle the optimal cover (ceil(pi/theta) equally spaced
    centers) is returned directly. Otherwise a seeded greedy covers a
    candidate set: repeatedly select the uncovered candidate farthest
    from the chosen centers (ties by index) and promote it to a center,
    marking candidates within a safety margin below theta as covered.
    Deterministic for fixed (n, theta, seed, params).

    Covers are memoized per process in a cache of ``_COVER_CACHE_SIZE``
    entries, so each one is built and certified on its first request
    only; ``params=None`` and ``CoverParams()`` share an entry. The
    returned cover is shared between callers and its ``centers`` array
    is read-only.

    Raises:
        RuntimeError: If the configured center or net limit is exceeded.
        VerificationError: If the final certificate does not pass.
    """
    return _certified_cover(operator.index(n), float(theta), int(seed), params or CoverParams())


# pierce_large asks for the same cover on every family of a dimension,
# while a caller such as illuminate may pass a new seed every time: the
# bound keeps that from growing memory with the number of calls.
_COVER_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_COVER_CACHE_SIZE)
def _certified_cover(n: int, theta: float, seed: int, params: CoverParams) -> Cover:
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not 0.0 < theta <= math.pi / 2:
        raise ValueError("theta must lie in (0, pi/2]")

    if n == 2:
        count = max(2, math.ceil(math.pi / theta - 1e-12))
        centers = _circle_positions(count)
        cover = Cover(2, theta, centers)
        cert = verify_cover(
            cover, "sampled", params.certify_samples, seed=_derived_seed(seed, 1)
        )
    else:
        centers, cert_plan = _greedy_cover_nd(n, theta, seed, params)
        cover = Cover(n, theta, centers)
        if cert_plan[0] == "net":
            cert = verify_cover(cover, "net", cert_plan[1], max_net_points=params.max_net_points)
        else:
            cert = verify_cover(
                cover, "sampled", params.certify_samples, seed=_derived_seed(seed, 1)
            )
    if not cert.passed:
        raise VerificationError(
            f"cover certification failed (margin {cert.margin!r})", result=cover
        )
    cover.centers.flags.writeable = False
    return Cover(cover.dimension, theta, cover.centers, cert)


def _derived_seed(seed: int, tag: int) -> int:
    # Stable derived seed for certificate sampling, independent of the
    # construction stream.
    return (int(seed) * 1_000_003 + tag) % (2**63)


def _greedy_cover_nd(n, theta, seed, params):
    use_net = params.certify == "net" or (params.certify == "auto" and n <= 3)
    if use_net:
        # Candidates are an exact net; covering them at depth
        # theta - 1.5 delta proves a complete cover with margin to spare.
        target = min(theta / 6.0, 0.12)
        candidates, delta = sphere_net(n, target, params.max_net_points)
        mark_depth = theta - 1.5 * delta
        plan = ("net", delta)
    else:
        pool = params.candidates or _adaptive_pool(n)
        margin = params.margin or _adaptive_margin(n, theta, pool)
        cross = np.concatenate([np.eye(n), -np.eye(n)])
        candidates = np.concatenate(
            [cross, sampling.unit_vectors(sampling.rng_from(seed), n, pool)]
        )
        mark_depth = theta - margin
        plan = ("sampled", None)
    if mark_depth <= 0:
        raise ValueError(f"cap radius {theta} too small for the candidate resolution")

    cos_mark = math.cos(mark_depth)
    best = np.full(candidates.shape[0], -2.0)
    picked: list[np.ndarray] = []
    while True:
        j = int(np.argmin(best))
        if best[j] >= cos_mark:
            break
        c = candidates[j]
        picked.append(c)
        if len(picked) > params.max_centers:
            raise RuntimeError(
                f"cover construction exceeded {params.max_centers} centers"
            )
        np.maximum(best, candidates @ c, out=best)
    return np.array(picked), plan


def _repel(u, centers, cos_target, steps):
    """Hill-climb ``u`` away from its nearest centers on the sphere.

    Returns (point, reached) where reached means the max dot product to
    the centers dropped to cos_target or below.
    """
    step = 0.2
    for _ in range(steps):
        dots = centers @ u
        m = float(dots.max())
        if m <= cos_target:
            return u, True
        active = centers[dots >= m - 0.05]
        g = -active.sum(axis=0)
        g -= (g @ u) * u
        norm = float(np.linalg.norm(g))
        if norm < 1e-14:
            break
        v = u + step * g / norm
        v /= np.linalg.norm(v)
        if float((centers @ v).max()) < m:
            u = v
        else:
            step *= 0.5
            if step < 1e-6:
                break
    return u, float((centers @ u).max()) <= cos_target


def maximal_packing(
    n: int, theta: float, seed: int = 0, params: PackParams | None = None
) -> Packing:
    """Construct a theta-separated point set, saturated over its pool.

    On the circle the optimum (floor(2 pi / theta) equally spaced
    points) is returned. Otherwise farthest-point greedy accepts pool
    candidates while the farthest one is still >= theta from every
    accepted point; near-miss candidates are then hill-climbed into any
    remaining holes, and fresh pools are scanned until nothing fits.
    Deterministic for fixed (n, theta, seed, params).
    """
    params = params or PackParams()
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie in (0, pi)")

    if n == 2:
        full = max(2, math.floor(2.0 * math.pi / theta + 1e-12))
        count = min(full, params.max_points) if params.max_points else full
        return Packing(2, theta, _circle_positions(count), saturated=count == full)

    pool_size = params.pool or _adaptive_pool(n) + 20_000
    limit = params.max_points or math.inf
    cos_theta = math.cos(theta) + 1e-12  # admit exact-theta ties
    cross = np.concatenate([np.eye(n), -np.eye(n)])

    accepted: list[np.ndarray] = []
    truncated = False
    for round_idx in range(1 + max(0, params.extra_rounds)):
        rng = sampling.subrng(seed, round_idx)
        pool = sampling.unit_vectors(rng, n, pool_size)
        if round_idx == 0:
            pool = np.concatenate([cross, pool])
        if accepted:
            best = (pool @ np.array(accepted).T).max(axis=1)
        else:
            best = np.full(pool.shape[0], -2.0)
        added = False
        while True:
            j = int(np.argmin(best))
            if best[j] > cos_theta:
                break
            if len(accepted) >= limit:
                truncated = True
                break
            accepted.append(pool[j])
            np.maximum(best, pool @ pool[j], out=best)
            added = True
        if truncated:
            break
        if params.polish and accepted:
            added |= _polish_packing(pool, best, accepted, theta, limit, params)
            if len(accepted) >= limit:
                truncated = True
                break
        if round_idx > 0 and not added:
            break

    centers = np.array(accepted)
    return Packing(n, theta, centers, saturated=not truncated)


def _polish_packing(pool, best, accepted, theta, limit, params):
    """Climb near-miss pool points into residual holes deeper than theta."""
    cos_theta = math.cos(theta) + 1e-12
    window = math.cos(max(theta - min(0.2 * theta, 0.25), 1e-9))
    near = np.flatnonzero((best > cos_theta) & (best <= window))
    if near.size == 0:
        return False
    order = near[np.argsort(best[near], kind="stable")]
    added = False
    for idx in order[: params.polish_candidates]:
        if len(accepted) >= limit:
            break
        centers = np.array(accepted)
        u, reached = _repel(pool[idx].copy(), centers, math.cos(theta), params.polish_steps)
        if reached:
            accepted.append(u)
            np.maximum(best, pool @ u, out=best)
            added = True
    return added
