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


# Entries per block of the pair kernel: a caller holds a few arrays of
# this many entries at a time, whatever the number of rows.
_PAIR_BLOCK = 2**16
# Absolute floor of the kernel's rounding band. Gradual underflow adds at
# most a few 2^-1074 to a Gram entry or to a sum of squares, far below it.
_BAND_FLOOR = 2.0**-1000
# A row whose squared augmented norm passes this is left to the exact
# formula; below it no Gram entry of two rows can overflow.
_SCALE_MAX = 2.0**1000
# first_pair_outside checks up to this many pairs with the exact formula
# alone: below it the Gram filter's fixed cost, some twenty array calls
# per window, exceeds what it saves.
_EXACT_PAIRS = 2048


@dataclass(frozen=True, eq=False)
class GramRows:
    """One side of the pair kernel (see ``gram_rows``).

    ``w`` holds the right-hand rows [x', e, 1, a] (x' the shifted rows, e
    their window columns, a = |x'|^2 - |e|^2), ``s`` the scales |x'|^2 +
    |e|^2 that bound the rounding, and ``s_max`` an upper bound on every
    scale of the rows this side was taken from.
    """

    w: np.ndarray
    s: np.ndarray
    s_max: float
    angles: bool

    def take(self, index) -> "GramRows":
        return GramRows(self.w[index], self.s[index], self.s_max, self.angles)


def gram_rows(x, h, origin, angles: bool = False) -> GramRows:
    """Rows x with half-windows h (a scalar or one per row), shifted by
    ``origin``, as one side of the pair kernel.

    For sides from (x, h) and (y, k) with the same origin, ``gram_gaps``
    gives, from one Gram product,

        G_ij = |x_i - y_j|^2 - c(h_i + k_j)^2,

    with c(t) = t for distances and c(t) = 2 sin(t / 2), the chord of the
    angle t, with ``angles``. Distances use e = [h], so that G_ij =
    a_i + a_j - 2 [x'_i, h_i] . [x'_j, k_j]. Angles use e = [-cos h,
    sin h] on the right and [cos h, sin h] on the left, as (2 sin((h +
    k) / 2))^2 = 2 - 2 cos h cos k + 2 sin h sin k; rows need not have
    unit norm.

    A row whose window the identity does not cover (h < 0, non-finite,
    or past pi/2 with ``angles``), or whose scale passes ``_SCALE_MAX``,
    gets an infinite scale. Its entries, and on the right side those of
    every block it belongs to, then fall inside the band and go to the
    caller's exact formula.
    """
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    h = np.asarray(h, dtype=float)
    k = n + (2 if angles else 1)
    w = np.empty((m, k + 2))
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(x, origin, out=w[:, :n])
        if angles:
            w[:, n] = -np.cos(h)
            w[:, n + 1] = np.sin(h)
        else:
            w[:, n] = h
        squares = np.square(w[:, :k])
        s = squares.sum(axis=1)
        # a = |x'|^2 - |e|^2 = s - 2 |e|^2.
        np.subtract(s, 2.0 * squares[:, n:].sum(axis=1), out=w[:, k + 1])
    w[:, k] = 1.0
    ok = (h >= 0.0) & (h <= (math.pi / 2 if angles else math.inf)) & (s <= _SCALE_MAX)
    if not ok.all():
        w[~ok] = 0.0
        s[~ok] = math.inf
    return GramRows(w, s, float(s.max()), angles)


def gram_gaps(left: GramRows, right: GramRows) -> tuple[np.ndarray, np.ndarray]:
    """(G, band): the (rows, columns) array G_ij of ``gram_rows`` from
    one product, and per left row i a band with |G_ij| > band_i only
    where G_ij has its computed sign. Inside the band the caller must
    decide with its exact formula.

    band_i = 8 (k + 8) eps (s_i + s_max) + ``_BAND_FLOOR`` for k window
    and coordinate columns. It bounds the rounding of the shift (at most
    eps (|x'_i| + |x'_j|) per pair and coordinate), of a, and of the
    (k + 2)-term product (within gamma_(k+2) of 2 (s_i + s_j), in any
    summation order), together about (3 k + 12) u (s_i + s_j) for the
    unit roundoff u = eps / 2. It also covers, with room to spare, the
    rounding of the exact formulas the callers compare against: a sum of
    n squares and its square root, the caller's window (limit_i +
    limit_j) + slack, and for angles the half-chord arcsine, whose
    rounding near pi is within a few eps in chord space. So outside the
    band the sign of G is the true sign, and the exact formula agrees.
    """
    # The left rows [-2 x', -2 e, a, 1]; angle rows hold -cos h on the
    # right and cos h on the left.
    k = left.w.shape[1] - 2
    lhs = np.empty_like(left.w)
    np.multiply(left.w[:, :k], -2.0, out=lhs[:, :k])
    if left.angles:
        lhs[:, k - 2] *= -1.0
    lhs[:, k] = left.w[:, k + 1]
    lhs[:, k + 1] = 1.0
    gap = lhs @ right.w.T
    band = left.s + right.s_max
    band *= 8 * (k + 8) * np.finfo(float).eps
    band += _BAND_FLOOR
    return gap, band


def pair_distances(xt, yt) -> np.ndarray:
    """Exact distances between points given coordinate first (xt[c] holds
    the c-th coordinates), broadcast against each other. Squared
    coordinate differences are summed in order, as
    ``scipy.spatial.distance.cdist`` does, so each value depends only on
    its own two points."""
    with np.errstate(over="ignore"):
        diff = np.subtract(xt, yt, order="C")
        diff *= diff
        total = diff[0]
        for c in range(1, diff.shape[0]):
            total += diff[c]
        return np.sqrt(total)


def first_pair_outside(rows, low=-math.inf, high=math.inf, angles: bool = False,
                       tol: float = 0.0):
    """First pair ``(i, j)``, i < j in row-major order, whose distance lies
    outside [low - tol, high + tol]; None if every pair is inside.

    ``low`` and ``high`` are scalars or length-m vectors of per-row
    limits; with vectors the window of the pair (i, j) is
    [low[i] + low[j] - tol, high[i] + high[j] + tol], as for the sum of
    two radii. With ``angles`` the rows are unit vectors and the distance
    is their angle, taken as the half-chord 2 asin(|a - b| / 2), which
    keeps full precision near 0, where arccos(a.b) loses ~1e-8.

    Every verdict is that of the exact formula: the distance from
    coordinate differences (``pair_distances``), never from the expansion
    |a|^2 + |b|^2 - 2 a.b, so translating the rows moves it only by the
    rounding of the coordinates. The pair kernel (``gram_gaps``, rows
    shifted by row 0) clears every pair that lies inside a window by
    more than its rounding band; only the other pairs are recomputed.
    Up to ``_EXACT_PAIRS`` pairs go to the exact formula alone. Rows are
    checked in blocks of about ``_PAIR_BLOCK`` pairs, so memory stays
    O(m n + _PAIR_BLOCK n).
    """
    rows = np.asarray(rows, dtype=float)
    m = rows.shape[0]
    low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
    if any(x.ndim and x.shape != (m,) for x in (low, high)):
        raise ValueError(f"per-row limits must have shape ({m},)")
    if m < 2:
        return None

    # The windows a pair can leave: (limit, slack, +1 if a pair is
    # outside above it, -1 below). No distance is below 0, and no angle
    # above 2 asin(1) = pi (as a double).
    top = math.pi if angles else math.inf
    sides = [
        (limit, slack, outside)
        for limit, slack, outside in ((low, -tol, -1), (high, tol, 1))
        if limit.ndim or ((limit + slack > 0.0) if outside < 0 else (limit + slack < top))
    ]

    columns = rows.T

    def first_bad(i, j):
        # The exact verdict on the pairs (i, j) with i < j, for index
        # arrays broadcast against each other, first in row-major order;
        # every window is formed as (limit_i + limit_j) + slack.
        d = pair_distances(columns[:, i], columns[:, j])
        if angles:
            d = 2.0 * np.arcsin(np.minimum(0.5 * d, 1.0))
        bad = np.zeros(d.shape, dtype=bool)
        for limit, slack, outside in sides:
            w = limit + slack if limit.ndim == 0 else limit[i] + limit[j] + slack
            bad |= d < w if outside < 0 else d > w
        bad &= i < j
        if not bad.any():
            return None
        first = int(np.argmax(bad))
        return int(np.broadcast_to(i, bad.shape).flat[first]), int(
            np.broadcast_to(j, bad.shape).flat[first])

    if not sides:
        return None
    if m * (m - 1) // 2 <= _EXACT_PAIRS:
        index = np.arange(m)
        return first_bad(index[:, None], index[None, :])

    # One kernel side per window. A scalar half-window is exact; a
    # per-row one is left to the exact formula where the slack is not
    # small against it, since the band covers the rounding of the window
    # only relative to the window.
    kernels = []
    for limit, slack, outside in sides:
        if limit.ndim == 0:
            h = (limit + slack) / 2
        else:
            h = limit + slack / 2
            h = np.where(h >= abs(slack), h, math.nan)
        kernels.append((outside, gram_rows(rows, h, rows[0], angles)))

    step = max(1, _PAIR_BLOCK // m)
    for start in range(0, m - 1, step):
        stop = min(start + step, m - 1)
        # Row i of the block against columns j = start + 1, ..., m - 1;
        # only j > i (c >= r) counts. A pair is cleared when its gap is
        # past the band on the inner side of every window.
        unsure = None
        for outside, side in kernels:
            gap, band = gram_gaps(side.take(slice(start, stop)), side.take(slice(start + 1, m)))
            if outside > 0:
                maybe = gap >= -band[:, None]
            else:
                maybe = gap <= band[:, None]
            unsure = maybe if unsure is None else unsure | maybe
        corner = unsure[:, : stop - start]
        corner[...] = np.triu(corner)
        if unsure.any():
            r, c = np.nonzero(unsure)
            pair = first_bad(start + r, start + 1 + c)
            if pair is not None:
                return pair
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
