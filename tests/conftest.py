"""Shared seeded generators for the test suite."""

import math
import tracemalloc

import numpy as np

from gallai import (
    Ball,
    BallFamily,
    CapBody,
    DirectionSet,
    SpikyBall,
    maximal_packing,
    verifies_illumination,
)
from gallai.geometry import first_pair_outside
from gallai.sampling import rng_from, unit_vectors
from gallai.sphere_cover import PackParams


def traced_peak(make):
    """What ``make()`` returns, and the traced peak while it ran."""
    tracemalloc.start()
    try:
        made = make()
        return made, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ball_points(rng, dim, count, radius=1.0, center=None):
    """Uniform points of the closed ball, shape (count, dim)."""
    dirs = unit_vectors(rng, dim, count)
    r = radius * rng.random(count) ** (1.0 / dim)
    pts = dirs * r[:, None]
    if center is not None:
        pts = pts + np.asarray(center, dtype=float)
    return pts


def cap_points(rng, axis, angular_radius, count, sphere_radius=1.0):
    """Seeded points of a spherical cap, shape (count, dim).

    Colatitudes are uniform on [0, angular_radius] (not area-uniform),
    which samples the rim region densely; the azimuthal part is uniform
    on the circle of directions orthogonal to the axis.
    """
    a = np.asarray(axis, dtype=float)
    dim = a.size
    g = rng.standard_normal((count, dim))
    w = g - np.outer(g @ a, a)
    norms = np.linalg.norm(w, axis=1)
    bad = norms < 1e-12
    while np.any(bad):
        g2 = rng.standard_normal((int(bad.sum()), dim))
        w[bad] = g2 - np.outer(g2 @ a, a)
        norms = np.linalg.norm(w, axis=1)
        bad = norms < 1e-12
    w = w / norms[:, None]
    t = rng.random(count) * angular_radius
    pts = np.cos(t)[:, None] * a + np.sin(t)[:, None] * w
    return sphere_radius * pts


def point_in_ball(p, ball, tol=1e-9):
    """Oracle for piercing one ball: ``p`` lies in the closed ball
    (within ``tol``)."""
    return float(np.linalg.norm(np.asarray(p, dtype=float) - ball.center)) <= ball.radius + tol


def angular_distance(u, v):
    """Oracle angle in [0, pi] between two unit vectors: arccos of the
    dot product, clamped to [-1, 1]."""
    return math.acos(min(1.0, max(-1.0, float(np.dot(u, v)))))


def base_cap_radius(x):
    """Oracle angular radius arccos(1/|x|) of the cap the spike at ``x``
    cuts on the unit sphere."""
    return math.acos(1.0 / float(np.linalg.norm(x)))


def lights(norm, angle):
    """Whether the direction ``angle`` away from -e1 lights the spike
    (norm, 0) in the plane, by ``verifies_illumination``. The other three
    directions complete a positively spanning set and light nothing."""
    d = [-math.cos(angle), math.sin(angle)]
    dirs = DirectionSet(2, [d, [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return verifies_illumination(SpikyBall(2, [[norm, 0.0]]), dirs)[0]


def far_axes_separated(body, alpha, tol=1e-9):
    """True iff the axes of the far vertices (norm >= 1/cos alpha) are
    pairwise at least 2 alpha apart, as disjoint caps force: each far
    vertex's cap is at least alpha wide."""
    v = body.vertices
    norms = np.linalg.norm(v, axis=1)
    far = norms >= 1.0 / math.cos(alpha) - 1e-12
    axes = v[far] / norms[far][:, None]
    return first_pair_outside(axes, low=2.0 * alpha, angles=True, tol=tol) is None


def random_intersecting_family(n, count, seed, max_ratio=None):
    """Seeded pairwise intersecting family with radius ratios up to 4n.

    Ball 0 is the unit ball at the origin (the global minimum radius),
    so the fallback placement at the origin always intersects everything
    already accepted. Other balls are anchored to a random accepted ball
    at a fraction of the sum of radii, so most placements are strict
    overlaps without a common point.
    """
    rng = np.random.default_rng(seed)
    top = max_ratio if max_ratio is not None else 4.0 * n
    radii = rng.uniform(1.0, top, count)
    radii[0] = 1.0
    balls = [(np.zeros(n), float(radii[0]))]
    for i in range(1, count):
        placed = False
        for _ in range(60):
            a = int(rng.integers(0, len(balls)))
            d = rng.standard_normal(n)
            d /= np.linalg.norm(d)
            u = rng.uniform(0.2, 0.98)
            c = balls[a][0] + d * u * (balls[a][1] + radii[i])
            if all(
                np.linalg.norm(c - cj) <= (rj + radii[i]) * (1 - 1e-9)
                for cj, rj in balls
            ):
                balls.append((c, float(radii[i])))
                placed = True
                break
        if not placed:
            # radii[i] >= 1 = radius of ball 0, so the origin works.
            balls.append((np.zeros(n), float(radii[i])))
    return BallFamily(n, tuple(Ball(c, r) for c, r in balls))


def random_cap_body(n, max_vertices, seed):
    """Seeded cap body: axes from a separated packing, cap radii
    back-solved so the open caps stay pairwise disjoint."""
    rng = np.random.default_rng(seed)
    theta = float(rng.uniform(0.75, 1.25))
    packing = maximal_packing(
        n, theta, seed, PackParams(pool=4000, max_points=max_vertices, polish=False)
    )
    cap_radii = 0.5 * theta * rng.uniform(0.35, 0.99, len(packing))
    norms = 1.0 / np.cos(cap_radii)
    return CapBody.from_vertices(n, packing.centers * norms[:, None])


def random_direction_set(n, size, seed, flavor="mixed"):
    """Seeded direction sets for positive-hull testing.

    "spanning": uniform directions plus the cross polytope, so the hull
    is decisively full. "halfspace": every direction forced to clear
    one pole by 0.5, so the dual cone around the opposite pole is fat
    and a Monte-Carlo check cannot miss it. "open": raw uniform
    directions, decided by nothing in particular. "mixed" alternates
    spanning and halfspace by seed; both alternatives keep the
    Monte-Carlo margin far from zero, which is what lets a sampled
    oracle arbitrate the feasibility decision at all.
    """
    rng = np.random.default_rng(seed)
    if flavor == "mixed":
        flavor = "halfspace" if seed % 3 == 0 else "spanning"
    dirs = rng.standard_normal((size, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    if flavor == "halfspace":
        pole = rng.standard_normal(n)
        pole /= np.linalg.norm(pole)
        dots = dirs @ pole
        flip = dots < 0.5
        dirs[flip] -= 2.0 * np.outer(dots[flip] - 0.5, pole)
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    elif flavor == "spanning":
        take = max(1, size - 2 * n)
        dirs = np.concatenate([np.eye(n), -np.eye(n), dirs[:take]])
    return dirs


def monte_carlo_hull_margin(directions, samples=10_000, seed=0):
    """Monte-Carlo oracle for ``positive_hull_full``.

    Samples uniform unit vectors u and returns min over u of
    max_j y_j . u: positive means every sampled u is seen by some
    direction (hull looks full), negative means a sampled witness
    halfspace avoids all directions. The sampled minimum can only
    over-state the true margin, so a negative value proves the hull is
    not full.
    """
    y = directions.directions if isinstance(directions, DirectionSet) else np.asarray(
        directions, dtype=float
    )
    u = unit_vectors(rng_from(seed), y.shape[1], samples)
    return float((u @ y.T).max(axis=1).min())


def illumination_multiplicity(y, u, tol=1e-9):
    """Per-direction oracle for ``multiplicity_report``: the number of
    points of the symmetric set ``y`` whose open pi/3 cap contains -u,
    i.e. the vertices of the induced cap body that u illuminates."""
    u = np.asarray(u, dtype=float)
    if u.shape != (y.dimension,):
        raise ValueError(f"direction must have shape ({y.dimension},)")
    dots = y.points @ (-u)
    return int((dots > math.cos(math.pi / 3) + tol).sum())


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def circle_cover_optimum(theta):
    # Arcs of angular radius theta centered at N equally spaced points
    # cover the circle iff the half-gap pi/N is at most theta.
    return math.ceil(math.pi / theta - 1e-12)


def circle_packing_optimum(theta):
    # N points pairwise >= theta apart force N gaps summing to 2 pi,
    # each >= theta, so N <= 2 pi / theta; equal spacing attains it.
    return math.floor(2.0 * math.pi / theta + 1e-12)


def dense_first_pair(rows, low=-math.inf, high=math.inf, angles=False, tol=0.0):
    """Oracle for ``first_pair_outside``: every distance at once from
    ``scipy.spatial.distance.cdist``, every window as (limit_i + limit_j)
    + slack, and the first flagged pair of the upper triangle in
    row-major order. Memory grows as m^2."""
    from scipy.spatial.distance import cdist

    rows = np.asarray(rows, dtype=float)
    d = cdist(rows, rows)
    if angles:
        d = 2.0 * np.arcsin(np.minimum(0.5 * d, 1.0))

    def window(limit, slack):
        limit = np.asarray(limit, dtype=float)
        if limit.ndim == 0:
            return limit + slack
        return limit[:, None] + limit[None, :] + slack

    bad = np.triu((d < window(low, -tol)) | (d > window(high, tol)), k=1)
    if not bad.any():
        return None
    return divmod(int(np.argmax(bad)), rows.shape[0])


def dense_first_missed(centers, radii, points, tol=0.0):
    """Oracle for ``verify_piercing``: all ball-point distances at once
    from ``cdist``; the first ball that no point lies within radius + tol
    of, or None."""
    from scipy.spatial.distance import cdist

    gaps = cdist(centers, points)
    missed = np.flatnonzero(~(gaps <= (radii + tol)[:, None]).any(axis=1))
    return int(missed[0]) if missed.size else None


def betainc_share(n, angle):
    """Oracle for ``cap_share``: scipy's regularized incomplete beta."""
    from scipy.special import betainc

    return 0.5 * float(betainc((n - 1) / 2, 0.5, math.sin(angle) ** 2))
