"""Seeded uniform samplers on spheres, balls, and caps.

All generators are driven by numpy's PCG64 so identical seeds give
identical streams; derived streams use ``subrng`` with an integer tag.
"""

from __future__ import annotations

import numpy as np


def rng_from(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))


def subrng(seed: int, tag: int) -> np.random.Generator:
    """Independent stream derived deterministically from (seed, tag)."""
    return np.random.default_rng([int(seed), int(tag)])


def unit_vectors(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Uniform points on the unit sphere, shape (count, dim).

    Prefix-consistent: one call for a + b vectors returns what a call for
    a followed by a call for b returns on the same stream.
    """
    out = rng.standard_normal((count, dim))
    norms = np.linalg.norm(out, axis=1)
    # Drop degenerate rows and top up from the stream; astronomically
    # rare, but it keeps the output well defined for every seed and the
    # same however the draws are split into calls.
    good = norms >= 1e-12
    while not good.all():
        more = rng.standard_normal((count - int(good.sum()), dim))
        out = np.concatenate([out[good], more])
        norms = np.concatenate([norms[good], np.linalg.norm(more, axis=1)])
        good = norms >= 1e-12
    return out / norms[:, None]


def ball_points(
    rng: np.random.Generator,
    dim: int,
    count: int,
    radius: float = 1.0,
    center=None,
) -> np.ndarray:
    """Uniform points of the closed ball, shape (count, dim)."""
    dirs = unit_vectors(rng, dim, count)
    r = radius * rng.random(count) ** (1.0 / dim)
    pts = dirs * r[:, None]
    if center is not None:
        pts = pts + np.asarray(center, dtype=float)
    return pts


def cap_points(
    rng: np.random.Generator,
    axis,
    angular_radius: float,
    count: int,
    sphere_radius: float = 1.0,
) -> np.ndarray:
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
