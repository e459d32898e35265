"""Spherical cap covers and separated packings of the unit sphere.

Covers are upper witnesses for the covering number N(n, theta) and
packings lower witnesses for the packing number M(n, theta); neither is
claimed optimal. On the circle both problems are solved exactly. In
higher dimensions a cover grows at the deepest facet of the convex hull
of its centers and is proved complete from the facet offsets; past a
facet budget a seeded greedy over sampled candidates takes over, with a
seeded Monte-Carlo certificate. Packings come from a seeded greedy.
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

    The hull and net methods are proofs. The hull method checks that the
    facets of the centers' convex hull wrap once around the origin and
    that every facet lies at least cos(theta) from it (on the circle,
    that no arc between consecutive centers is longer than 2 theta);
    ``resolution_or_samples`` is then the number of facets checked. The
    net method passes if every net point lies within theta - delta of a
    center. The sampled method is heuristic; ``undetected_measure`` is
    the relative measure of an uncovered region that the sample count
    would still miss with probability ~5%.
    """

    method: str  # "hull", "net" or "sampled"
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
        pair = first_pair_outside(c, low=self.separation, angles=True, tol=DEFAULT_TOL)
        if pair is not None:
            raise PairwiseError(
                f"packing separation violated by centers {pair[0]} and {pair[1]}", pair
            )

    def __len__(self):
        return self.centers.shape[0]


@dataclass(frozen=True)
class CoverParams:
    """Knobs for cover construction. Zero means adaptive.

    ``candidates``, ``margin`` and ``certify_samples`` apply to the
    sampled greedy only, which runs where a hull cover cannot be built.
    """

    candidates: int = 0
    margin: float = 0.0
    certify_samples: int = 100_000
    max_centers: int = 20_000


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


# A simplex whose edge vectors have a smallest singular value this small
# is affinely degenerate (flat): it spans no hyperplane, and its cone has
# no interior. Edges of unit rows have length at most 2.
_FLAT_FLOOR = 1e-9
# A simplex that is not flat but whose vertex determinant is this small
# has no trusted orientation. For unit rows |det| <= 1 (Hadamard), and
# the rounding of an LU determinant of an n x n matrix stays near n^3
# machine epsilons.
_DET_FLOOR = 1e-9


def _rounding(n: int) -> float:
    # Bound on the rounding of an n-term dot product, a norm and a
    # quotient of unit-scale rows (each within (n + 2) machine epsilons,
    # Higham's gamma_n), with room to spare.
    return 8 * (n + 2) * float(np.finfo(float).eps)


def _closed_cycle(simplices: np.ndarray, orientation: np.ndarray) -> bool:
    """True iff the simplices can be oriented so that every ridge occurs
    exactly once with each orientation, with simplex k oriented by the
    sign of ``orientation[k]`` (positive: as listed) where that is
    nonzero and free where it is zero.

    A free simplex takes whichever orientation its neighbours force.

    Dropping vertex i of (v_0, ..., v_{n-1}) leaves a ridge with sign
    (-1)^i; sorting the ridge's indices multiplies the sign by the parity
    of the sort.
    """
    f, n = simplices.shape
    sign = np.sign(orientation).astype(int)
    ridges = np.stack([np.delete(simplices, i, axis=1) for i in range(n)], axis=1)
    ridges = ridges.reshape(f * n, n - 1)
    order = np.argsort(ridges, axis=1, kind="stable")
    inversions = np.triu(order[:, :, None] > order[:, None, :], k=1).sum(axis=(1, 2))
    signs = np.tile((-1) ** np.arange(n), f) * (-1) ** inversions
    keys = np.take_along_axis(ridges, order, axis=1)
    # Sorted, the ridges must come in equal pairs, and no pair may
    # equal the next one.
    rank = np.lexsort(keys.T[::-1])
    keys, signs, owner = keys[rank], signs[rank], np.repeat(np.arange(f), n)[rank]
    if not (
        len(keys) % 2 == 0
        and (keys[0::2] == keys[1::2]).all()
        and (keys[1:-1:2] != keys[2::2]).any(axis=1).all()
    ):
        return False
    s, t, a, b = owner[0::2], owner[1::2], signs[0::2], signs[1::2]
    # x is each simplex's orientation, 0 while unknown; a pair of
    # simplices sharing a ridge must give it opposite signs.
    x = sign.copy()
    while (x == 0).any():
        before = np.count_nonzero(x)
        for u, w, su, sw in ((s, t, a, b), (t, s, b, a)):
            fill = (x[u] == 0) & (x[w] != 0)
            x[u[fill]] = -x[w[fill]] * su[fill] * sw[fill]
        if np.count_nonzero(x) == before:
            x[np.flatnonzero(x == 0)[0]] = 1  # touches no oriented simplex
    return bool((x[s] * a + x[t] * b == 0).all())


def _arc_certificate(centers: np.ndarray, theta: float, tol: float) -> CoverCertificate:
    """Exact cover check on the circle: the arcs cover it iff the largest
    gap between consecutive center angles is at most 2 theta, and then
    the covering radius is half that gap.

    The margin is theta - max gap / 2 less ``_rounding(2)`` (7e-15),
    which exceeds the error of a gap: two angles (``arctan2`` is within
    an ulp of its result, at most pi) and three roundings (2 pi, the wrap
    sum and the difference, each under ulp(3 pi) / 2). It also proves
    covers whose hull does not hold the origin inside, such as two
    antipodal arcs at theta = pi/2.
    """
    angles = np.sort(np.arctan2(centers[:, 1], centers[:, 0]))
    gaps = np.diff(angles, append=angles[0] + 2.0 * math.pi)
    margin = theta - float(gaps.max()) / 2.0 - _rounding(2)
    return CoverCertificate("hull", len(gaps), margin, margin >= -tol)


def _hull_certificate(centers: np.ndarray, theta: float, tol: float) -> CoverCertificate:
    """Exact cover check from the facets of conv(centers); on the circle,
    from the gaps between the centers (``_arc_certificate``).

    Only Qhull's ``simplices`` are used, and they are checked, not
    trusted:

    1. A simplex is flat when its edge vectors v_i - v_0 have rank below
       n - 1 (smallest singular value <= ``_FLAT_FLOOR``); its cone has
       no interior, and it is oriented to fit its neighbours. Every other
       simplex is oriented positively about the origin by the sign of
       the determinant of its vertex rows, which must exceed
       ``_DET_FLOOR`` in size: a solid simplex whose hyperplane passes
       that close to the origin fails the certificate.
    2. Every ridge must occur once with each orientation. The simplices
       then form a closed cycle whose radial projection has degree at
       least 1, so the cones over the solid simplices cover every
       direction.
    3. A direction u in the cone over simplex V is x / |x| for a convex
       combination x of its vertices, so max_i v_i . u >= |x| (as
       |x|^2 = sum_i lambda_i v_i . x), and |x| >= min(V a) / |a| for
       any vector a. Every simplex, flat or not, gets this bound h with
       a the solution of V a = 1 (least squares for a flat simplex; for
       a solid one h = 1/|a|, its offset), divided by max |v| and less
       ``_rounding(n)``.

    The margin is theta - arccos(smallest h); any failure gives a failed
    certificate with margin theta - pi, as no covering radius below pi
    is then proved.
    """
    n = centers.shape[1]
    if n == 2:
        return _arc_certificate(centers, theta, tol)
    # Qhull (scipy.spatial) is loaded here and in _hull_centers only, so
    # commands that build no hull do not pay for it.
    from scipy.spatial import ConvexHull, QhullError

    failed = CoverCertificate("hull", 0, theta - math.pi, False)
    try:
        simplices = ConvexHull(centers).simplices
    except (QhullError, ValueError):
        return failed
    v = centers[simplices]
    det = np.linalg.det(v)
    flat = np.linalg.svd(v[:, 1:] - v[:, :1], compute_uv=False)[:, -1] <= _FLAT_FLOOR
    if flat.all() or not (np.abs(det[~flat]) > _DET_FLOOR).all():
        return failed
    if not _closed_cycle(simplices, np.where(flat, 0.0, det)):
        return failed
    a = np.empty((len(v), n))
    a[~flat] = np.linalg.solve(v[~flat], np.ones((len(v) - flat.sum(), n, 1)))[..., 0]
    a[flat] = np.linalg.pinv(v[flat]).sum(axis=2)
    reach = np.einsum("fij,fj->fi", v, a).min(axis=1)
    scale = np.linalg.norm(a, axis=1) * np.linalg.norm(centers, axis=1).max()
    offset = float((reach / scale).min()) - _rounding(n)
    if not offset > 0:
        return failed
    margin = theta - math.acos(min(offset, 1.0))
    return CoverCertificate("hull", len(simplices), margin, margin >= -tol)


def verify_cover(
    cover: Cover,
    method: str = "sampled",
    resolution_or_samples: float | int | None = None,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_net_points: int = MAX_NET_POINTS,
) -> CoverCertificate:
    """Certify a cover exactly from its convex hull or over a net, or by
    uniform sampling.

    Hull method: proves the cover complete from the facets of the
    centers' convex hull (see ``_hull_certificate``), in any dimension
    where Qhull can build that hull and it holds the origin strictly
    inside; on the circle, from the gaps between the centers. Net
    method: builds a delta-net and
    passes iff every net point lies within theta - delta of a center,
    which proves the cover is complete. Requires delta < theta. Sampled
    method: passes iff all of k uniform points are covered (closed caps,
    tolerance-inclusive).
    """
    theta = cover.angular_radius
    if method == "hull":
        return _hull_certificate(cover.centers, theta, tol)
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


def _circle_count(theta: float) -> int:
    return max(2, math.ceil(math.pi / theta - 1e-12))


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
    centers) is returned. Otherwise the centers start as the
    cross-polytope, and the unit normal of the hull facet nearest the
    origin, which is the point of the sphere farthest from every
    center, is added until every facet lies at least cos(theta) from
    the origin. Either cover is proved by ``verify_cover(method="hull")``
    and depends on (n, theta) only; ``seed`` is not used.

    A seeded greedy over sampled candidates runs instead when the hull
    passes ``_HULL_FACET_BUDGET`` facets or Qhull fails (it does from
    n = 8). It repeatedly promotes the uncovered pool candidate farthest
    from the chosen centers (ties by index) and marks candidates within
    a safety margin below theta as covered. Its covers are certified by
    sampling. Deterministic for fixed (n, theta, seed, params).

    Covers are memoized per process, keyed by (n, theta,
    params.max_centers) for hull covers and (n, theta, seed, params) for
    sampled ones, in caches of ``_COVER_CACHE_SIZE`` entries, so each is
    built and certified on its first request only; ``params=None`` and
    ``CoverParams()`` share an entry. The returned cover is shared
    between callers and its ``centers`` array is read-only.

    Raises:
        RuntimeError: If the configured center limit is exceeded.
        VerificationError: If the final certificate does not pass.
    """
    n, theta = operator.index(n), float(theta)
    params = params or CoverParams()
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not 0.0 < theta <= math.pi / 2:
        raise ValueError("theta must lie in (0, pi/2]")
    cover = _hull_cover(n, theta, params.max_centers)
    if cover is not None:
        return cover
    return _sampled_cover(n, theta, int(seed), params)


# pierce_large asks for the same cover on every family of a dimension,
# while a caller of the sampled greedy may pass a new seed every time:
# the bound keeps that from growing memory with the number of calls.
_COVER_CACHE_SIZE = 16
# Facets a hull cover may reach before the sampled greedy takes over.
# At the illumination and large-ball radii hull covers end with 1,184
# facets at n = 6 and 10,992 and 14,800 at n = 7 (about 1 s to build).
_HULL_FACET_BUDGET = 20_000
# The build stops once Qhull's smallest offset clears cos(theta) by this,
# far above Qhull's and the certificate's rounding, so the certificate
# of a finished build has a positive margin.
_BUILD_SLACK = 1e-10


def _certified(cover: Cover, cert: CoverCertificate) -> Cover:
    if not cert.passed:
        raise VerificationError(
            f"cover certification failed (margin {cert.margin!r})", result=cover
        )
    cover.centers.flags.writeable = False
    return Cover(cover.dimension, cover.angular_radius, cover.centers, cert)


@functools.lru_cache(maxsize=_COVER_CACHE_SIZE)
def _hull_cover(n: int, theta: float, max_centers: int) -> Cover | None:
    """Hull-built, hull-certified cover; None where the sampled greedy
    has to take over (the result is cached either way)."""
    if n == 2:
        centers = _circle_positions(_circle_count(theta))
    else:
        centers = _hull_centers(n, theta, max_centers)
        if centers is None:
            return None
    cover = Cover(n, theta, centers)
    return _certified(cover, verify_cover(cover, "hull"))


def _hull_centers(n: int, theta: float, max_centers: int) -> np.ndarray | None:
    from scipy.spatial import ConvexHull, QhullError

    if 2 * n > max_centers:
        raise RuntimeError(f"cover construction exceeded {max_centers} centers")
    target = math.cos(theta) + _BUILD_SLACK
    try:
        hull = ConvexHull(np.concatenate([np.eye(n), -np.eye(n)]), incremental=True)
    except QhullError:
        return None
    try:
        while True:
            offsets = -hull.equations[:, -1]
            j = int(np.argmin(offsets))
            if offsets[j] >= target:
                return np.array(hull.points)
            if len(offsets) > _HULL_FACET_BUDGET:
                return None
            if hull.npoints >= max_centers:
                raise RuntimeError(f"cover construction exceeded {max_centers} centers")
            normal = hull.equations[j, :-1]
            hull.add_points((normal / np.linalg.norm(normal))[None, :])
    except QhullError:
        return None
    finally:
        hull.close()


@functools.lru_cache(maxsize=_COVER_CACHE_SIZE)
def _sampled_cover(n: int, theta: float, seed: int, params: CoverParams) -> Cover:
    cover = Cover(n, theta, _greedy_cover_nd(n, theta, seed, params))
    cert = verify_cover(cover, "sampled", params.certify_samples, seed=_derived_seed(seed, 1))
    return _certified(cover, cert)


def _derived_seed(seed: int, tag: int) -> int:
    # Stable derived seed for certificate sampling, independent of the
    # construction stream.
    return (int(seed) * 1_000_003 + tag) % (2**63)


def _greedy_cover_nd(n, theta, seed, params):
    pool = params.candidates or _adaptive_pool(n)
    margin = params.margin or _adaptive_margin(n, theta, pool)
    cross = np.concatenate([np.eye(n), -np.eye(n)])
    candidates = np.concatenate(
        [cross, sampling.unit_vectors(sampling.rng_from(seed), n, pool)]
    )
    mark_depth = theta - margin
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
    return np.array(picked)


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
