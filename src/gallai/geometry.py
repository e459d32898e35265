"""Core vector, ball, and spherical-cap primitives.

Every comparison takes an explicit tolerance. Closed predicates are
tolerance-inclusive and open predicates tolerance-exclusive, so the
open/closed cap distinction survives floating point.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

# Global slack for geometric comparisons.
DEFAULT_TOL = 1e-9
# Stricter slack used to validate unit norms.
UNIT_TOL = 1e-12


def as_vector(coords, dim: int | None = None) -> np.ndarray:
    """Validate coordinates and return them as a float vector.

    Args:
        coords: Sequence of coordinates.
        dim: Required dimension, or None to accept any.

    Raises:
        ValueError: On non-finite entries, fewer than two coordinates,
            or a dimension mismatch.
    """
    v = np.asarray(coords, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a flat coordinate sequence, got shape {v.shape}")
    if v.size < 2:
        raise ValueError("ambient dimension must be at least 2")
    if not np.all(np.isfinite(v)):
        raise ValueError("coordinates must be finite")
    if dim is not None and v.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.size}")
    return v


def as_unit_vector(coords, dim: int | None = None, tol: float = UNIT_TOL) -> np.ndarray:
    """Validate a vector of unit Euclidean norm (within ``tol``)."""
    v = as_vector(coords, dim)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"not a unit vector (norm {norm!r})")
    return v


def as_unit_rows(rows, dim: int, what: str) -> np.ndarray:
    """Validate an (m, dim) array of unit rows (norms within ``DEFAULT_TOL``)."""
    a = np.asarray(rows, dtype=float)
    if a.ndim != 2 or a.shape[1] != dim:
        raise ValueError(f"{what} must have shape (m, {dim})")
    norms = np.linalg.norm(a, axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > DEFAULT_TOL)
    if bad.size:
        raise ValueError(f"{what}[{bad[0]}] is not a unit vector (norm {norms[bad[0]]!r})")
    return a


# Distances per block of first_pair_outside: the check holds a few
# arrays of this many entries at a time, whatever the number of rows.
_PAIR_BLOCK = 2**16


def first_pair_outside(rows, low=-math.inf, high=math.inf, angles: bool = False,
                       tol: float = 0.0):
    """First pair ``(i, j)``, i < j in row-major order, whose distance lies
    outside [low - tol, high + tol]; None if every pair is inside.

    ``low`` and ``high`` are scalars or length-m vectors of per-row
    limits; with vectors the window of the pair (i, j) is
    [low[i] + low[j] - tol, high[i] + high[j] + tol], as for the sum of
    two radii. Distances come from coordinate differences (``cdist``),
    never from the expansion |a|^2 + |b|^2 - 2 a.b, so translating the
    rows moves them only by the rounding of the coordinates. With
    ``angles`` the rows are unit vectors and the distance is their
    angle, taken as the half-chord 2 asin(|a - b| / 2), which keeps full
    precision near 0, where arccos(a.b) loses ~1e-8. Rows are checked in
    blocks of about ``_PAIR_BLOCK`` distances, so memory stays O(m n +
    _PAIR_BLOCK).
    """
    rows = np.asarray(rows, dtype=float)
    m = rows.shape[0]
    low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
    if any(x.ndim and x.shape != (m,) for x in (low, high)):
        raise ValueError(f"per-row limits must have shape ({m},)")
    if m < 2:
        return None

    def window(limit, start, stop, slack):
        # Every limit is formed as (limit_i + limit_j) + slack.
        if limit.ndim == 0:
            return limit + slack
        return limit[start:stop, None] + limit[None, start + 1:] + slack

    step = max(1, _PAIR_BLOCK // m)
    for start in range(0, m - 1, step):
        stop = min(start + step, m - 1)
        # Row i of the block against columns j = start + 1, ..., m - 1.
        d = cdist(rows[start:stop], rows[start + 1:])
        if angles:
            d = 2.0 * np.arcsin(np.minimum(0.5 * d, 1.0))
        bad = (d < window(low, start, stop, -tol)) | (d > window(high, start, stop, tol))
        bad = np.triu(bad)
        if bad.any():
            i, c = divmod(int(np.argmax(bad)), bad.shape[1])
            return start + i, start + 1 + c
    return None


def unit(coords) -> np.ndarray:
    """Normalize to unit length; rejects near-zero input."""
    v = as_vector(coords)
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        raise ValueError("cannot normalize a near-zero vector")
    return v / norm


def angular_distance(u, v) -> float:
    """Geodesic angle in [0, pi] between two unit vectors.

    The dot product is clamped to [-1, 1] before arccos so identical or
    antipodal pairs cannot produce NaN.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(math.acos(min(1.0, max(-1.0, float(np.dot(u, v))))))


@dataclass(frozen=True, eq=False)
class Ball:
    """Closed Euclidean ball with positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")

    @property
    def dimension(self) -> int:
        return self.center.size

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


@dataclass(frozen=True, eq=False)
class Balls(Sequence):
    """Read-only sequence of closed balls stored as two arrays.

    ``centers`` is (m, n) and ``radii`` (m,), m >= 1 and n >= 2, copied
    once and made read-only. Centers must be finite and radii positive
    and finite, as for ``Ball``. ``len`` is O(1) and builds no ``Ball``;
    indexing or iterating builds each ``Ball`` on demand, and a
    non-empty slice is a ``Balls``.
    """

    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        centers = np.array(self.centers, dtype=float)
        radii = np.array(self.radii, dtype=float)
        if centers.ndim != 2 or centers.shape[0] == 0:
            raise ValueError(f"centers must be a non-empty (m, n) array, got shape {centers.shape}")
        if centers.shape[1] < 2:
            raise ValueError("ambient dimension must be at least 2")
        if radii.shape != centers.shape[:1]:
            raise ValueError(f"radii must have shape ({centers.shape[0]},), got {radii.shape}")
        bad = np.flatnonzero(~np.isfinite(centers).all(axis=1))
        if bad.size:
            raise ValueError(f"ball {bad[0]}: coordinates must be finite")
        bad = np.flatnonzero(~((radii > 0) & np.isfinite(radii)))
        if bad.size:
            raise ValueError(
                f"ball {bad[0]}: radius must be positive and finite, got {float(radii[bad[0]])}"
            )
        centers.flags.writeable = False
        radii.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)

    @classmethod
    def of(cls, balls) -> "Balls":
        """Stack a non-empty sequence of same-dimension ``Ball``s."""
        balls = tuple(balls)
        for b in balls:
            if b.dimension != balls[0].dimension:
                raise ValueError(
                    f"dimension mismatch: {balls[0].dimension} vs {b.dimension}"
                )
        return cls([b.center for b in balls], [b.radius for b in balls])

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]

    def __len__(self):
        return self.radii.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Balls(self.centers[i], self.radii[i])
        return Ball(self.centers[i], self.radii[i])


@dataclass(frozen=True, eq=False)
class SphericalCap:
    """Spherical cap on the sphere of radius ``sphere_radius``.

    ``axis`` is a unit vector; membership predicates scale points down
    by ``sphere_radius`` externally, so the axis stays unit-norm even
    for caps living on dilated spheres.
    """

    axis: np.ndarray
    angular_radius: float
    closed: bool = True
    sphere_radius: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "axis", as_unit_vector(self.axis))
        object.__setattr__(self, "angular_radius", float(self.angular_radius))
        object.__setattr__(self, "sphere_radius", float(self.sphere_radius))
        if not 0.0 < self.angular_radius < math.pi:
            raise ValueError(
                f"angular radius must lie in (0, pi), got {self.angular_radius}"
            )
        if not self.sphere_radius > 0:
            raise ValueError(f"sphere radius must be positive, got {self.sphere_radius}")

    @property
    def dimension(self) -> int:
        return self.axis.size


def cap_contains(cap: SphericalCap, p, tol: float = DEFAULT_TOL) -> bool:
    """Membership of a unit vector in a spherical cap.

    Closed caps admit dot >= cos(radius) - tol, open caps require
    dot > cos(radius) + tol. Points on dilated spheres must be scaled
    to unit norm by the caller.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != cap.axis.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {cap.axis.shape}")
    d = float(np.dot(cap.axis, p))
    threshold = math.cos(cap.angular_radius)
    if cap.closed:
        return d >= threshold - tol
    return d > threshold + tol


def balls_intersect(a: Ball, b: Ball, tol: float = DEFAULT_TOL) -> bool:
    """True iff two closed balls share a point (within ``tol``)."""
    if a.dimension != b.dimension:
        raise ValueError(f"dimension mismatch: {a.dimension} vs {b.dimension}")
    gap = float(np.linalg.norm(a.center - b.center))
    return gap <= a.radius + b.radius + tol


def point_in_ball(p, b: Ball, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``p`` lies in the closed ball (within ``tol``)."""
    p = np.asarray(p, dtype=float)
    if p.shape != b.center.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {b.center.shape}")
    return float(np.linalg.norm(p - b.center)) <= b.radius + tol
