"""Core vector and ball types and the pair kernel.

``Ball`` and ``Balls`` hold validated balls. ``first_pair_outside``
(pairs within one array, against windows) and ``pairs_within`` (pairs
across two arrays, against per-row limits) decide every distance or
angle check of the library, over whole arrays. Both take each verdict
on ``pair_distances``, the one exact formula, and switch to the Gram
filter at one size, ``_EXACT_PAIRS``, which ``exact_fits`` also decides
for callers that hold a whole distance table. Against upper windows on
distances (the ball family check), ``first_pair_outside`` first clears
the pairs that the triangle inequality through the row mean settles,
and checks only the rows it leaves. ``max_dots`` takes the largest dot
product of each row against a set. All three size their blocks from
``_PAIR_BLOCK``, so no caller holds a whole pairwise array.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# Global slack for geometric comparisons.
DEFAULT_TOL = 1e-9


def as_vector(coords) -> np.ndarray:
    """Validate coordinates and return them as a float vector.

    Raises:
        ValueError: On non-finite entries or fewer than two coordinates.
    """
    v = np.asarray(coords, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a flat coordinate sequence, got shape {v.shape}")
    if v.size < 2:
        raise ValueError("ambient dimension must be at least 2")
    if not np.all(np.isfinite(v)):
        raise ValueError("coordinates must be finite")
    return v


def as_unit_rows(rows, dim: int, what: str) -> np.ndarray:
    """Validate an (m, dim) array of unit rows (norms within ``DEFAULT_TOL``;
    a row with a NaN or infinite coordinate fails)."""
    a = np.asarray(rows, dtype=float)
    if a.ndim != 2 or a.shape[1] != dim:
        raise ValueError(f"{what} must have shape (m, {dim})")
    norms = np.linalg.norm(a, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= DEFAULT_TOL))
    if bad.size:
        raise ValueError(f"{what}[{bad[0]}] is not a unit vector (norm {float(norms[bad[0]])})")
    return a


# Entries per block of the pair kernel, of every blocked check over it
# and of ``max_dots``: a caller holds a few arrays of this many entries
# at a time, whatever the number of rows.
_PAIR_BLOCK = 2**16
# Absolute floor of the kernel's rounding band. Gradual underflow adds at
# most a few 2^-1074 to a Gram entry or to a sum of squares, far below it.
_BAND_FLOOR = 2.0**-1000
# A row whose squared augmented norm passes this is left to the exact
# formula; below it no Gram entry of two rows can overflow.
_SCALE_MAX = 2.0**1000
# A check that evaluates up to this many pairs uses the exact formula
# alone (``first_pair_outside`` evaluates k m for k hot rows of m): below
# it the Gram filter's fixed cost, some twenty array calls per window,
# exceeds what it saves. Over the benchmark's workload cycles on a 2-core
# x86_64 host, 2**11, 2**12 and 2**13 tied within noise. 2**13 is near
# the crossover of ``pairs_within``; that of a square (k = m)
# ``first_pair_outside`` lies at or below it (its two paths tie at m =
# 64). With k much smaller than m the Gram path still builds its rows
# for all m, and on the same host the paths tie later, between 2**15 and
# 2**16 pairs at m = 1,024 and 4,096; the one constant serves both.
_EXACT_PAIRS = 2**13


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
    rounding of ``pair_distances``, of a window (limit_i + limit_j) +
    slack and, for angles, of the half-chord arcsine (a few eps in chord
    space near pi). So outside the band the sign of G is the true sign,
    and ``pair_distances`` agrees.
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


def exact_fits(rows: int, columns: int) -> bool:
    """Whether a check of ``rows`` x ``columns`` pairs takes the exact
    formula alone: at most ``_EXACT_PAIRS`` pairs, read at call time.
    A caller may then hold the whole ``pair_distances`` table."""
    return rows * columns <= _EXACT_PAIRS


def pairs_within(x, y, limits, index=None):
    """Blocks (rows, inside) of the exact verdicts ``pair_distances(x_i,
    y_j) <= limits_i`` for rows x (k, n) and y (l, n), with ``limits`` a
    scalar or one per row of x: ``inside[r, j]`` is the verdict on row
    ``rows[r]`` of x. The rows are ``index`` (all of x if None), in its
    order, so a caller holds one block at a time and may stop early.

    The first block holds at most ``_EXACT_PAIRS`` pairs (one row at
    least, and never more than a later block), so a caller that stops
    after it pays only the exact formula on a few thousand pairs; the
    later ones about ``_PAIR_BLOCK`` pairs.
    A block that ``exact_fits`` uses ``pair_distances`` alone. Past it
    the pair kernel (``gram_gaps``, rows shifted by y[0]) settles every
    pair outside its rounding band, and only the pairs inside it are
    recomputed; y's side of the kernel is built once, by the first such
    block.
    """
    limits = np.broadcast_to(np.asarray(limits, dtype=float), x.shape[:1])
    index = np.arange(x.shape[0]) if index is None else np.asarray(index, dtype=np.intp)
    columns = max(1, y.shape[0])
    start, size = 0, max(1, min(_EXACT_PAIRS, _PAIR_BLOCK) // columns)
    y_rows = None
    while start < index.size:
        rows = index[start : start + size]
        start, size = start + size, max(1, _PAIR_BLOCK // columns)
        xb, lb = x[rows], limits[rows]
        if exact_fits(rows.size, y.shape[0]):
            yield rows, pair_distances(xb.T[:, :, None], y.T[:, None, :]) <= lb[:, None]
            continue
        if y_rows is None:
            y_rows = gram_rows(y, 0.0, y[0])
        gap, band = gram_gaps(gram_rows(xb, lb, y[0]), y_rows)
        inside = gap < -band[:, None]
        near = np.abs(gap, out=gap) <= band[:, None]
        if near.any():
            r, c = np.nonzero(near)
            inside[r, c] = pair_distances(xb[r].T, y[c].T) <= lb[r]
        yield rows, inside


def max_dots(a, b) -> np.ndarray:
    """For each row of ``a``, its largest dot product with a row of ``b``
    (non-empty), from blocks of about ``_PAIR_BLOCK`` products, so memory
    stays O(``_PAIR_BLOCK``) beside the output, whatever the row counts."""
    step = max(1, _PAIR_BLOCK // b.shape[0])
    out = np.empty(a.shape[0])
    for start in range(0, a.shape[0], step):
        out[start : start + step] = (a[start : start + step] @ b.T).max(axis=1)
    return out


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
    rounding of the coordinates.

    When the only window is an upper one on distances (the family check),
    the anchor bound clears most pairs first (the triangle-inequality
    pruning of Elkan, ICML 2003). With o the row mean, d_i = |x_i - o|
    and e_i = d_i - h_i (h_i = high[i], or high / 2 for a scalar),
    |x_i - x_j| - h_i - h_j <= e_i + e_j. Row i is "cold" when e_i <=
    (tol - M) / 2 and "hot" otherwise, and a pair of two cold rows is
    inside its window. The margin M = 8 (n + 8) eps (max d_i + max |h_i|
    + |tol|) + sqrt(``_BAND_FLOOR``), for n coordinates, covers the
    rounding of every d_i, e_i, pair distance and window, with room to
    spare. Its floor is a square root because a distance is the root of
    a sum of squares: underflow in the squares moves it by up to about
    sqrt(n) 2^-537. A NaN or infinite limit makes M NaN or infinite, so
    every row is hot but those with e_i = -inf (h_i = inf), whose windows
    no distance exceeds. Other windows (cap bodies, packings, separated
    sets) leave every row hot.

    The hot rows, moved ahead of the cold ones, are checked against every
    row after them in that order, so each pair with a hot end once. The
    pair kernel (``gram_gaps``, rows shifted by the first hot row) clears
    every pair that lies inside a window by more than its rounding band;
    only the other pairs are recomputed. Up to ``_EXACT_PAIRS`` evaluated
    pairs (k m for k hot rows) go to the exact formula alone. Hot rows
    are taken in blocks of about ``_PAIR_BLOCK`` pairs, so memory stays
    O(m n + _PAIR_BLOCK n).
    """
    rows = np.asarray(rows, dtype=float)
    m = rows.shape[0]
    low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
    if any(x.ndim and x.shape != (m,) for x in (low, high)):
        raise ValueError(f"per-row limits must have shape ({m},)")
    if m < 2:
        return None
    # Every window as per-row halves: a scalar limit c is c / 2 on every
    # row, and c / 2 + c / 2 == c exactly.
    low, high = (x if x.ndim else np.full(m, x / 2) for x in (low, high))

    # The windows a pair can leave: (half, slack, +1 if a pair is outside
    # above it, -1 below). No distance is below 0, and no angle above
    # 2 asin(1) = pi (as a double), so a side whose widest window is past
    # that is dropped; a NaN limit keeps its side.
    top = math.pi if angles else math.inf
    sides = [
        (half, slack, outside)
        for half, slack, outside in ((low, -tol, -1), (high, tol, 1))
        if not (2 * float(half.max()) + slack <= 0.0 if outside < 0
                else 2 * float(half.min()) + slack >= top)
    ]
    if not sides:
        return None

    # The k hot rows first, then the cold ones, each in index order; the
    # checks below run on positions in this order, and only the first k
    # as rows. Without the anchor bound, or with every row hot, positions
    # are row indices (order is None).
    order, k = None, m
    if not angles and len(sides) == 1 and sides[0][2] > 0:
        half, slack, _ = sides[0]
        with np.errstate(over="ignore", invalid="ignore"):
            d = pair_distances(rows.T, rows.mean(axis=0)[:, None])
            scale = d.max() + np.abs(half).max() + abs(slack)
            margin = 8 * (rows.shape[1] + 8) * np.finfo(float).eps * scale
            margin += math.sqrt(_BAND_FLOOR)
            hot = ~(d - half <= (slack - margin) / 2)
        k = int(np.count_nonzero(hot))
        if k == 0:
            return None
        if k < m:
            order = np.concatenate([np.flatnonzero(hot), np.flatnonzero(~hot)])
    # A pair found in a later block starts at a later hot row or at a cold
    # one, so none comes before a pair (r, s) found earlier with r <= the
    # first cold index.
    x, first_cold = rows, m
    if order is not None:
        x, first_cold = rows[order], int(order[k])
        sides = [(half[order], slack, outside) for half, slack, outside in sides]
    columns = x.T

    def first_bad(p, q):
        # The exact verdict on the positions (p, q) with p < q, index
        # arrays broadcast against each other; the first bad pair by row
        # indices (min, max) in row-major order. Every window is formed
        # as (half_i + half_j) + slack, which is symmetric in i and j.
        d = pair_distances(columns[:, p], columns[:, q])
        if angles:
            d = 2.0 * np.arcsin(np.minimum(0.5 * d, 1.0))
        bad = np.zeros(d.shape, dtype=bool)
        for half, slack, outside in sides:
            w = half[p] + half[q] + slack
            bad |= d < w if outside < 0 else d > w
        bad &= p < q
        if not bad.any():
            return None
        i, j = (p, q) if order is None else (order[p], order[q])
        key = np.broadcast_to(np.minimum(i, j) * m + np.maximum(i, j), bad.shape)
        return divmod(int(key[bad].min()), m)

    if exact_fits(k, m):
        return first_bad(np.arange(k)[:, None], np.arange(m)[None, :])

    # One kernel side per window. A half-window is left to the exact
    # formula where the slack is not small against it, since the band
    # covers the rounding of the window only relative to the window.
    kernels = []
    for half, slack, outside in sides:
        h = half + slack / 2
        h = np.where(h >= abs(slack), h, math.nan)
        kernels.append((outside, gram_rows(x, h, x[0], angles)))

    step = max(1, _PAIR_BLOCK // m)
    first = None
    for start in range(0, min(k, m - 1), step):
        stop = min(start + step, k, m - 1)
        # Row p of the block against columns q = start + 1, ..., m - 1;
        # only q > p (c >= r) counts. A pair is cleared when its gap is
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
                first = pair if first is None else min(first, pair)
                if first[0] <= first_cold:
                    return first
    return first


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
