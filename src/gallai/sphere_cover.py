"""Spherical cap covers and separated packings of the unit sphere.

Covers are upper witnesses for the covering number N(n, theta) and
packings lower witnesses for the packing number M(n, theta); neither is
claimed optimal. On the circle both problems are solved exactly. In
higher dimensions a cover grows at the deepest facet of the convex hull
of its centers, ``_Hull``, an incremental hull in numpy, and is proved
complete from the simplices of that hull; the proof checks the
simplices it is handed, and a cover read from a file gets a fresh
hull. Past a facet budget a seeded greedy over sampled candidates takes
over, with a seeded Monte-Carlo certificate. Packings start from a seeded greedy
over random pools, then grow at the deepest facet as a cover does until
the same certificate proves them saturated.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import sampling
from .bounds import cap_share
from .errors import BudgetError, PairwiseError, VerificationError
from .geometry import DEFAULT_TOL, as_unit_rows, first_pair_outside, max_dots

# Hard ceiling on exact-net sizes; nets grow exponentially with the
# dimension, so past this the sampled certificate is the only option.
MAX_NET_POINTS = 2_000_000
# Uniform points the sampled certificate checks unless told otherwise;
# the sampled fallback cover is certified with this many.
_SAMPLES = 100_000


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
    """Unit vectors with pairwise angular distance >= separation.

    ``saturated`` is a proof that no unit vector is farther than the
    separation from every center: the hull certificate of
    ``maximal_packing``, or its antipodal pair past pi/2. On the circle,
    sorted angles that prove the separation (``_circle_separated``)
    spare the check of every pair, which names the first bad pair.
    """

    dimension: int
    separation: float
    centers: np.ndarray
    saturated: bool = False

    def __post_init__(self):
        c = as_unit_rows(self.centers, self.dimension, "centers")
        if not 0.0 < self.separation < math.pi:
            raise ValueError("separation must lie in (0, pi)")
        object.__setattr__(self, "centers", c)
        if self.dimension == 2 and len(c) > 1 and _circle_separated(c, self.separation):
            return
        pair = first_pair_outside(c, low=self.separation, angles=True, tol=DEFAULT_TOL)
        if pair is not None:
            raise PairwiseError(
                f"packing separation violated by centers {pair[0]} and {pair[1]}", pair
            )

    def __len__(self):
        return self.centers.shape[0]


@dataclass(frozen=True)
class CoverParams:
    """Cover construction limit: more centers raise ``BudgetError``."""

    max_centers: int = 20_000


@dataclass(frozen=True)
class PackParams:
    """Knobs for greedy packing construction. Zero means adaptive.

    ``polish`` fills every hole deeper than the separation with the hull
    step of ``maximal_packing`` and proves the packing saturated.
    """

    pool: int = 0
    max_points: int = 0  # 0 = no limit; otherwise stop early (not saturated)
    polish: bool = True

    def __post_init__(self):
        for name in ("pool", "max_points"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


# Packing: fresh pools scanned after the first.
_EXTRA_ROUNDS = 1


def net_size(dim: int, m: int) -> int:
    """Number of integer points with L1 norm m in Z^dim."""
    top = min(dim, m)
    return sum(
        math.comb(dim, j) * (2**j) * math.comb(m - 1, j - 1) for j in range(1, top + 1)
    )


def sphere_net(dim: int, resolution: float) -> tuple[np.ndarray, float]:
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
        BudgetError: If the net would exceed ``MAX_NET_POINTS``.
    """
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    if not 0 < resolution < math.pi:
        raise ValueError("resolution must lie in (0, pi)")
    m = max(dim, math.ceil(dim / resolution))
    size = net_size(dim, m)
    if size > MAX_NET_POINTS:
        raise BudgetError(
            f"net of resolution {resolution} in dimension {dim} needs {size} points "
            f"(limit {MAX_NET_POINTS}); use the sampled certificate instead"
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


def _max_gap(points: np.ndarray, centers: np.ndarray) -> float:
    """Largest angular distance from a point to its nearest center."""
    return float(np.arccos(np.clip(max_dots(points, centers), -1.0, 1.0)).max())


# A simplex whose edge vectors have a smallest singular value this small
# is affinely degenerate (flat): it spans no hyperplane, and its cone has
# no interior. Edges of unit rows have length at most 2. The hull leaves
# out a row this close to a vertex of a facet it sees, so a near
# duplicate makes no sliver facet.
_FLAT_FLOOR = 1e-9
# A row sees a facet of ``_Hull`` when it lies more than this beyond the
# facet's hyperplane. That is far above the rounding of a unit normal's
# dot product with a unit row, and a row no farther out than this is
# left out of the hull, which only the certificate's offsets can notice.
_VISIBLE = 1e-12
# Facet offsets this close to the smallest count as tied when a hull
# cover picks the facet to deepen; the oldest tied facet wins, so the
# cross-polytope's equal facets are taken in the order they were made.
_TIE = 1e-12


def _rounding(n: int) -> float:
    # Bound on the rounding of an n-term dot product, a norm and a
    # quotient of unit-scale rows (each within (n + 2) machine epsilons,
    # Higham's gamma_n), with room to spare.
    return 8 * (n + 2) * float(np.finfo(float).eps)


def _det_rounding(n: int) -> float:
    """Bound on the error of ``np.linalg.det`` of n rows of norm <= 1.

    LU with partial pivoting gives L U = A + E with |E| <= gamma_n |L||U|
    (Higham, Thm 9.3), |L| <= 1 and entries of U at most the growth
    factor 2^(n - 1), so each row of E has norm under
    gamma_n n^1.5 2^(n - 1). By Hadamard's bound every determinant with
    some rows of A replaced by rows of E is at most the product of the
    replaced rows' norms, so det(A + E) is within about n times that of
    det(A) <= 1. numpy forms the determinant from the logarithms of the
    pivots, which adds a relative error of a few gamma_n. All of it stays
    under n^3 2^n machine epsilons: 5e-14 at n = 3, 3e-11 at n = 8.
    """
    return n**3 * 2.0**n * float(np.finfo(float).eps)


class _Hull:
    """Convex hull of unit rows, grown one row at a time (beneath-beyond;
    Edelsbrunner, *Algorithms in Combinatorial Geometry*, 1987).

    Each facet is a simplex of ``n`` indices into ``points`` (``labels``
    holds each point's index among the caller's rows) with its outward
    hyperplane ``normals . x = offsets``, oriented away from the
    centroid of the initial simplex, which stays inside every later hull.
    An added row kills the facets it sees and joins itself to their
    horizon ridges, the ridges that only one of them holds. Facets are
    appended to arrays with an ``alive`` mask, and dead ones are dropped
    only when the arrays are full, order kept, so a facet's index orders
    it by age. A row that sees no facet, or lies within ``_FLAT_FLOOR``
    of a vertex of a facet it sees, is left out.

    Nothing here is trusted: ``_hull_certificate`` checks the simplices.
    """

    def __init__(self, simplex: np.ndarray, labels: list[int]):
        n = simplex.shape[1]
        self.n = n
        self.inner = simplex.mean(axis=0)
        # Vertex positions of each facet's ridges: ridge i drops vertex i.
        self._ridges = np.array([[j for j in range(n) if j != i] for i in range(n)])
        self.points = np.empty((64, n))
        self.labels = np.empty(64, dtype=np.intp)
        self.npoints = 0
        self.facets = np.empty((0, n), dtype=np.intp)
        self.normals = np.empty((0, n))
        self.offsets = np.empty(0)
        self.alive = np.empty(0, dtype=bool)
        self.nfacets = self.nalive = 0
        for row, label in zip(simplex, labels):
            self._append_point(row, label)
        facets = np.array([[j for j in range(n + 1) if j != i] for i in range(n + 1)])
        v = simplex[facets]
        self._append_facets(facets, _null_vectors(v[:, 1:] - v[:, :1]))

    def live(self) -> np.ndarray:
        """Indices of the live facets, oldest first."""
        return np.flatnonzero(self.alive[: self.nfacets])

    def add(self, point: np.ndarray, label: int) -> bool:
        """Add ``point`` to the hull; False where it is left out."""
        k = self.nfacets
        seen = np.flatnonzero(
            self.alive[:k] & (self.normals[:k] @ point - self.offsets[:k] > _VISIBLE)
        )
        if not len(seen):
            return False
        facets = self.facets[seen]
        if (((self.points[facets.ravel()] - point) ** 2).sum(axis=1) <= _FLAT_FLOOR**2).any():
            return False
        ridges = np.sort(facets[:, self._ridges].reshape(-1, self.n - 1), axis=1)
        ridges = ridges[np.lexsort(ridges.T[::-1])]
        repeat = (ridges[1:] == ridges[:-1]).all(axis=1)
        once = np.ones(len(ridges), dtype=bool)
        once[1:] &= ~repeat
        once[:-1] &= ~repeat
        horizon = ridges[once]
        if not len(horizon):
            return False
        normals = _null_vectors(self.points[horizon] - point)
        self.alive[seen] = False
        self.nalive -= len(seen)
        self._append_point(point, label)
        new = np.empty((len(horizon), self.n), dtype=np.intp)
        new[:, :-1], new[:, -1] = horizon, self.npoints - 1
        self._append_facets(new, normals)
        return True

    def _append_point(self, point, label):
        if self.npoints == len(self.points):
            self.points = np.concatenate([self.points, np.empty_like(self.points)])
            self.labels = np.concatenate([self.labels, np.empty_like(self.labels)])
        self.points[self.npoints] = point
        self.labels[self.npoints] = label
        self.npoints += 1

    def _append_facets(self, facets, normals):
        """Append facets (rows of point indices) whose hyperplanes have
        the unit ``normals``, up to sign."""
        offsets = np.einsum("fj,fj->f", normals, self.points[facets[:, 0]])
        flip = normals @ self.inner > offsets
        normals[flip] *= -1.0
        offsets[flip] *= -1.0
        self._reserve(len(facets))
        a, b = self.nfacets, self.nfacets + len(facets)
        self.facets[a:b], self.normals[a:b], self.offsets[a:b] = facets, normals, offsets
        self.alive[a:b] = True
        self.nfacets, self.nalive = b, self.nalive + len(facets)

    def _reserve(self, extra):
        """Make room for ``extra`` more facets: when the arrays are full,
        the dead facets are dropped, order kept, into arrays twice the
        size of what is left."""
        if self.nfacets + extra <= len(self.alive):
            return
        keep = self.live()
        size = 2 * (len(keep) + extra)
        for name in ("facets", "normals", "offsets", "alive"):
            old = getattr(self, name)
            new = np.zeros((size,) + old.shape[1:], dtype=old.dtype)
            new[: len(keep)] = old[keep]
            setattr(self, name, new)
        self.nfacets = len(keep)


def _null_vectors(edges: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to the n - 1 rows of each (n - 1, n)
    block of ``edges``: the last column of Q in a complete QR of its
    transpose, which costs a third of an SVD."""
    return np.linalg.qr(np.swapaxes(edges, 1, 2), mode="complete")[0][:, :, -1]


def _hull_of(rows: np.ndarray) -> _Hull | None:
    """Hull of ``rows``: an initial simplex, then every other row in
    order. The simplex is row 0 and, n times, the first row farthest
    from the affine hull of those chosen. None where no row is farther
    than ``_FLAT_FLOOR`` from it; ``BudgetError`` where the hull passes
    ``_HULL_FACET_BUDGET`` live facets, as it then proves nothing."""
    chosen = [0]
    rel = rows - rows[0]
    for _ in range(rows.shape[1]):
        dist = np.linalg.norm(rel, axis=1)
        i = int(np.argmax(dist))
        if not dist[i] > _FLAT_FLOOR:
            return None
        chosen.append(i)
        rel = rel - np.outer(rel @ rel[i], rel[i] / dist[i] ** 2)
    hull = _Hull(rows[chosen], chosen)
    for i in sorted(set(range(len(rows))) - set(chosen)):
        hull.add(rows[i], i)
        if hull.nalive > _HULL_FACET_BUDGET:
            raise BudgetError(f"over {_HULL_FACET_BUDGET} hull facets; use the sampled certificate")
    return hull


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


def _circle_separated(centers: np.ndarray, separation: float) -> bool:
    """True when the sorted angles of two or more circle rows prove every
    half-chord angle (as ``first_pair_outside`` takes it) at least
    separation - ``DEFAULT_TOL``: rows of norm >= r at least the smallest
    gap g <= pi apart in angle are at least 2 asin(r sin(g / 2)) apart.
    ``_rounding(2)`` comes off g for its error (see ``_arc_certificate``)
    and off the bound for its own and that of the pairwise check."""
    angles = np.sort(np.arctan2(centers[:, 1], centers[:, 0]))
    gap = float(np.diff(angles, append=angles[0] + 2.0 * math.pi).min()) - _rounding(2)
    r = min(1.0, float(np.linalg.norm(centers, axis=1).min()))
    return 2 * math.asin(r * math.sin(max(gap, 0) / 2)) - _rounding(2) >= separation - DEFAULT_TOL


def _arc_certificate(centers: np.ndarray, theta: float) -> CoverCertificate:
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
    return CoverCertificate("hull", len(gaps), margin, margin >= -DEFAULT_TOL)


def _hull_certificate(centers: np.ndarray, hull: _Hull | None, theta: float) -> CoverCertificate:
    """Exact cover check from the live facets of ``hull``, whose labels
    index ``centers``; None, where ``_hull_of`` found no simplex or
    ``_deepen`` stopped short, fails. Only the facets' vertex indices
    are used, and they are checked, not trusted:

    1. A simplex is flat when its edge vectors v_i - v_0 have rank below
       n - 1 (smallest singular value <= ``_FLAT_FLOOR``); its cone has
       no interior, and it is oriented to fit its neighbours. Every other
       simplex is oriented positively about the origin by the sign of
       the determinant of its vertex rows, which must exceed its rounding
       bound ``_det_rounding(n)`` in size: a solid simplex whose
       hyperplane passes that close to the origin fails the certificate.
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
    failed = CoverCertificate("hull", 0, theta - math.pi, False)
    if hull is None:
        return failed
    simplices = hull.labels[hull.facets[hull.live()]]
    v = centers[simplices]
    det = np.linalg.det(v)
    flat = np.linalg.svd(v[:, 1:] - v[:, :1], compute_uv=False)[:, -1] <= _FLAT_FLOOR
    if flat.all() or not (np.abs(det[~flat]) > _det_rounding(n)).all():
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
    return CoverCertificate("hull", len(simplices), margin, margin >= -DEFAULT_TOL)


def verify_cover(
    cover: Cover,
    method: str = "sampled",
    resolution_or_samples: float | int | None = None,
    seed: int = 0,
) -> CoverCertificate:
    """Certify a cover exactly from its convex hull or over a net, or by
    uniform sampling.

    Hull method: proves the cover complete from the facets of a fresh
    hull of the centers, added in row order (see ``_hull_certificate``),
    when that hull holds the origin strictly inside; on the circle, from
    the gaps between the centers. Past ``_HULL_FACET_BUDGET`` facets it
    raises ``BudgetError``, as an oversized net does. Net method: builds
    a delta-net and passes iff every net
    point lies within theta - delta of a center, which proves the cover
    is complete. Requires delta < theta. Sampled method: passes iff all
    of k uniform points are covered (closed caps), drawn ``_SAMPLES`` at
    a time, so memory does not grow with k. ``resolution_or_samples``
    None means delta = theta / 8 or k = ``_SAMPLES``; a delta or k of 0
    raises ``ValueError``. Every method passes a margin of at least
    -``DEFAULT_TOL`` radians.
    """
    theta = cover.angular_radius
    if method == "hull":
        if cover.dimension == 2:
            return _arc_certificate(cover.centers, theta)
        return _hull_certificate(cover.centers, _hull_of(cover.centers), theta)
    if method == "net":
        delta = theta / 8 if resolution_or_samples is None else float(resolution_or_samples)
        if not 0 < delta < theta:
            raise ValueError(f"net resolution {delta} must lie in (0, cap radius {theta})")
        net, exact_delta = sphere_net(cover.dimension, delta)
        worst = _max_gap(net, cover.centers)
        margin = (theta - exact_delta) - worst
        return CoverCertificate("net", exact_delta, margin, margin >= -DEFAULT_TOL)
    if method == "sampled":
        k = _SAMPLES if resolution_or_samples is None else int(resolution_or_samples)
        if k < 1:
            raise ValueError("sample count must be positive")
        # _SAMPLES points at a time: unit_vectors is prefix-consistent and
        # a max is exact, so the blocks give the gap of one draw of k.
        rng = sampling.rng_from(seed)
        worst = max(
            _max_gap(sampling.unit_vectors(rng, cover.dimension, min(_SAMPLES, k - start)),
                     cover.centers)
            for start in range(0, k, _SAMPLES)
        )
        margin = theta - worst
        return CoverCertificate(
            "sampled", k, margin, margin >= -DEFAULT_TOL, undetected_measure=math.log(20.0) / k
        )
    raise ValueError(f"unknown certification method {method!r}")


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
    the origin; of facets whose offsets tie within ``_TIE`` the oldest
    is taken (``_deepen``). Either cover is proved by the hull method of
    ``verify_cover``, from the simplices of the hull the build grew, and
    depends on (n, theta) only; ``seed`` is not used.

    A seeded greedy over sampled candidates runs instead when the hull
    passes ``_HULL_FACET_BUDGET`` facets (it does from n = 8 at the
    library's radii). It repeatedly promotes the uncovered pool
    candidate farthest from the chosen centers (ties by index) and marks
    candidates within a safety margin below theta as covered. Its covers are certified by
    sampling. Deterministic for fixed (n, theta, seed, params).

    Covers are memoized per process, keyed by (n, theta,
    params.max_centers) for hull covers and (n, theta, seed,
    params.max_centers) for sampled ones, in caches of
    ``_COVER_CACHE_SIZE`` entries, so each is built and certified on its
    first request only; ``params=None`` and ``CoverParams()`` share an
    entry. The returned cover is shared between callers and its
    ``centers`` array is read-only.

    Raises:
        BudgetError: If the configured center limit is exceeded, or
            is below the count bound above (a RuntimeError and a
            ValueError).
        VerificationError: If the final certificate does not pass.
    """
    n, theta = operator.index(n), float(theta)
    max_centers = (params or CoverParams()).max_centers
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not 0.0 < theta <= math.pi / 2:
        raise ValueError("theta must lie in (0, pi/2]")
    # No cover has fewer caps than the circle's count or, up to pi/4, the
    # area bound 1 / cap_share (less 1e-9 relative); a smaller budget fails first.
    if n == 2:
        short = _circle_count(theta) > max_centers
    else:
        short = theta <= math.pi / 4 and max_centers * cap_share(n, theta) < 1.0 - 1e-9
    if short:
        raise BudgetError(f"cover construction exceeded {max_centers} centers")
    cover = _hull_cover(n, theta, max_centers)
    if cover is not None:
        return cover
    return _sampled_cover(n, theta, int(seed), max_centers)


# pierce_large asks for the same cover on every family of a dimension,
# while a caller of the sampled greedy may pass a new seed every time:
# the bound keeps that from growing memory with the number of calls.
_COVER_CACHE_SIZE = 16
# Live facets a hull may reach: past it a hull cover's build gives way
# to the sampled greedy, a packing stays unproved, and ``verify_cover``
# refuses the hull method. At the illumination and large-ball radii hull
# covers end with 1,184 facets at n = 6 and 10,926 and 14,120 at n = 7
# (under 1 s to build); at n = 8 the build passes the budget at 56
# centers.
_HULL_FACET_BUDGET = 20_000
# The build stops once the hull's smallest offset clears cos(theta) by
# this, far above the rounding of the build's normals and of the
# certificate, so the certificate of a finished build has a positive
# margin.
_BUILD_SLACK = 1e-10


def _certified(cover: Cover, cert: CoverCertificate) -> Cover:
    if not cert.passed:
        raise VerificationError(f"cover certification failed (margin {cert.margin!r})")
    cover.centers.flags.writeable = False
    return Cover(cover.dimension, cover.angular_radius, cover.centers, cert)


@functools.lru_cache(maxsize=_COVER_CACHE_SIZE)
def _hull_cover(n: int, theta: float, max_centers: int) -> Cover | None:
    """Hull-built cover, certified from the simplices of the hull its
    build grew; None where the sampled greedy has to take over (the
    result is cached either way)."""
    if n == 2:
        cover = Cover(n, theta, _circle_positions(_circle_count(theta)))
        return _certified(cover, verify_cover(cover, "hull"))
    if 2 * n > max_centers:
        raise BudgetError(f"cover construction exceeded {max_centers} centers")
    cross = np.concatenate([np.eye(n), -np.eye(n)])
    centers, hull = _deepen(cross, math.cos(theta) + _BUILD_SLACK, max_centers)
    if hull is None:
        return None
    cover = Cover(n, theta, centers)
    return _certified(cover, _hull_certificate(cover.centers, hull, theta))


def _deepen(rows: np.ndarray, stop: float, limit: float) -> tuple[np.ndarray, _Hull | None]:
    """Grow unit ``rows`` at their deepest hole: while the live facet of
    their hull nearest the origin (the oldest of those whose offsets tie
    within ``_TIE``) lies below ``stop``, append its unit normal, the
    point of the sphere farthest from every row and so farther than
    arccos(stop) from each.

    Returns the rows, the appended ones last, and their hull; None for
    the hull where the growth stopped short: the hull could not be
    built, passed ``_HULL_FACET_BUDGET`` live facets, or left a normal
    out. Raises ``BudgetError`` where a row would pass ``limit`` rows.
    """
    grown = list(rows)
    try:
        hull = _hull_of(rows)
    except BudgetError:
        hull = None
    while hull is not None:
        live = hull.live()
        offsets = hull.offsets[live]
        low = float(offsets.min())
        if low >= stop:
            return np.array(grown), hull
        if len(live) > _HULL_FACET_BUDGET:
            break
        if len(grown) >= limit:
            raise BudgetError(f"cover construction exceeded {limit} centers")
        j = live[int(np.argmax(offsets <= low + _TIE))]
        normal = hull.normals[j] / np.linalg.norm(hull.normals[j])
        if not hull.add(normal, len(grown)):
            break
        grown.append(normal)
    return np.array(grown), None


@functools.lru_cache(maxsize=_COVER_CACHE_SIZE)
def _sampled_cover(n: int, theta: float, seed: int, max_centers: int) -> Cover:
    cover = Cover(n, theta, _greedy_cover_nd(n, theta, seed, max_centers))
    return _certified(cover, verify_cover(cover, "sampled", seed=_derived_seed(seed, 1)))


def _derived_seed(seed: int, tag: int) -> int:
    # Stable derived seed for certificate sampling, independent of the
    # construction stream.
    return (int(seed) * 1_000_003 + tag) % (2**63)


def _greedy_cover_nd(n, theta, seed, max_centers):
    pool = _adaptive_pool(n)
    cross = np.concatenate([np.eye(n), -np.eye(n)])
    candidates = np.concatenate(
        [cross, sampling.unit_vectors(sampling.rng_from(seed), n, pool)]
    )
    # The margin is at most 0.45 theta, so candidates are marked at a
    # positive depth.
    cos_mark = math.cos(theta - _adaptive_margin(n, theta, pool))
    picked: list[np.ndarray] = []
    best = np.full(candidates.shape[0], -2.0)
    if not _farthest_first(candidates, best, picked, lambda d: d >= cos_mark, max_centers):
        raise BudgetError(f"cover construction exceeded {max_centers} centers")
    return np.array(picked)


def _farthest_first(rows, best, chosen, covered, limit) -> bool:
    """Farthest-point greedy over ``rows``.

    ``best`` holds each row's largest dot with the rows in ``chosen``
    (-2 with none). While the row with the smallest ``best`` (ties by
    index) is not ``covered(best)``, it is appended to ``chosen`` and
    ``best`` is raised by its dots, in place. Returns True once every
    row is covered, False when a row would be chosen past ``limit``.
    """
    while True:
        j = int(np.argmin(best))
        if covered(best[j]):
            return True
        if len(chosen) >= limit:
            return False
        chosen.append(rows[j])
        np.maximum(best, rows @ rows[j], out=best)


def maximal_packing(
    n: int, theta: float, seed: int = 0, params: PackParams | None = None
) -> Packing:
    """Construct a theta-separated point set, and prove it saturated
    where it can.

    On the circle the optimum (floor(2 pi / theta) equally spaced
    points) is returned. Otherwise farthest-point greedy accepts pool
    candidates, the cross-polytope first, while the farthest one is
    still >= theta from every accepted point, over ``1 + _EXTRA_ROUNDS``
    fresh pools. Past pi/2 that leaves e1 and -e1, which are saturated.
    With ``params.polish``, ``_deepen`` then fills every hole deeper
    than theta, as it builds a cover, and the packing is saturated iff
    the hull certificate of its hull passes (not past
    ``_HULL_FACET_BUDGET`` facets). A packing cut at
    ``params.max_points`` is not saturated. Deterministic for fixed
    (n, theta, seed, params).

    Raises:
        BudgetError: If a circle packing would pass ``MAX_NET_POINTS``
            points and ``params.max_points`` does not cap it.
    """
    params = params or PackParams()
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie in (0, pi)")

    if n == 2:
        full = max(2, math.floor(min(2.0 * math.pi / theta + 1e-12, MAX_NET_POINTS + 1)))
        count = min(full, params.max_points or full)
        if count > MAX_NET_POINTS:
            raise BudgetError(f"circle packing exceeded {MAX_NET_POINTS} points")
        return Packing(2, theta, _circle_positions(count), saturated=count == full)

    pool_size = params.pool or _adaptive_pool(n) + 20_000
    limit = params.max_points or math.inf
    cos_theta = math.cos(theta) + 1e-12  # admit exact-theta ties
    cross = np.concatenate([np.eye(n), -np.eye(n)])

    accepted: list[np.ndarray] = []
    for round_idx in range(1 + _EXTRA_ROUNDS):
        rng = sampling.subrng(seed, round_idx)
        pool = sampling.unit_vectors(rng, n, pool_size)
        if round_idx == 0:
            pool = np.concatenate([cross, pool])
        if accepted:
            best = max_dots(pool, np.array(accepted))
        else:
            best = np.full(pool.shape[0], -2.0)
        truncated = not _farthest_first(pool, best, accepted, lambda d: d > cos_theta, limit)
        if truncated:
            break

    centers = np.array(accepted)
    saturated = not truncated and theta > math.pi / 2  # e1 and -e1 leave no room
    if params.polish and not truncated and theta <= math.pi / 2:
        centers, hull = _deepen(centers, math.cos(theta), math.inf)
        saturated = _hull_certificate(centers, hull, theta).passed
        if len(centers) > limit:
            centers, saturated = centers[: params.max_points], False
    return Packing(n, theta, centers, saturated=saturated)
