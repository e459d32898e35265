"""Illumination of spiky balls and cap bodies.

A spiky ball is the union of the convex hulls of the unit ball with
each of finitely many outside vertices; it is a cap body exactly when
the open spherical caps its spikes cut on the unit sphere are pairwise
disjoint. The illumination certificate used throughout is the standard
sufficient condition: the direction set positively spans the whole
space, and every vertex's open illumination cap contains a direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import solve_alpha
from .errors import BudgetError, PairwiseError, VerificationError
from .geometry import DEFAULT_TOL, as_unit_rows, first_pair_outside, max_dots
from .sphere_cover import greedy_cover

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# Multiple of max(k, n) eps s[0] allowed between a computed singular
# value and the true one in the positive-hull certificate.
_SVD_SLACK = 64.0


@dataclass(frozen=True, eq=False)
class SpikyBall:
    """Vertex list of a spiky ball; every vertex finite and strictly
    outside the unit ball."""

    dimension: int
    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.dimension or v.shape[0] == 0:
            raise ValueError(f"vertices must have shape (m, {self.dimension}), m >= 1")
        bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
        if bad.size:
            raise ValueError(f"vertex {bad[0]} has a non-finite coordinate")
        norms = np.linalg.norm(v, axis=1)
        if np.any(norms < 1.0 + DEFAULT_TOL):
            bad = int(np.argmin(norms))
            raise ValueError(f"vertex {bad} has norm {float(norms[bad])}; must exceed 1")
        object.__setattr__(self, "vertices", v)

    def __len__(self):
        return self.vertices.shape[0]


@dataclass(frozen=True, eq=False)
class CapBody(SpikyBall):
    """Spiky ball whose associated open caps are pairwise disjoint."""

    def __post_init__(self):
        super().__post_init__()
        ok, pair = is_cap_body(self)
        if not ok:
            raise PairwiseError(
                f"not a cap body: caps of vertices {pair[0]} and {pair[1]} overlap", pair
            )

    @classmethod
    def from_vertices(cls, dimension: int, vertices) -> "CapBody":
        return cls(dimension, vertices)


@dataclass(frozen=True, eq=False)
class DirectionSet:
    """Unit directions with optional per-direction provenance tags."""

    dimension: int
    directions: np.ndarray
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        d = as_unit_rows(self.directions, self.dimension, "directions")
        if self.provenance and len(self.provenance) != d.shape[0]:
            raise ValueError("one provenance tag per direction required")
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "provenance", tuple(self.provenance))

    def __len__(self):
        return self.directions.shape[0]


def _vertices_of(body) -> np.ndarray:
    """The vertices of a body, or of a raw (m, n) array checked as a
    ``SpikyBall`` (finite rows of norm at least 1 + ``DEFAULT_TOL``)."""
    if hasattr(body, "vertices"):
        return body.vertices
    v = np.asarray(body, dtype=float)
    return SpikyBall(v.shape[-1] if v.ndim else 0, v).vertices


def is_cap_body(s) -> tuple[bool, tuple[int, int] | None]:
    """Pairwise disjointness check for the associated open caps.

    Tangency is allowed: axes must be at least the sum of the two cap
    radii apart, minus ``DEFAULT_TOL`` (half of it on each radius).
    Returns (True, None) or (False, (i, j)) with the first violating pair
    in row-major order.
    """
    v = _vertices_of(s)
    norms = np.linalg.norm(v, axis=1)
    radii = np.arccos(np.clip(1.0 / norms, -1.0, 1.0))
    pair = first_pair_outside(v / norms[:, None], low=radii - DEFAULT_TOL / 2, angles=True)
    return pair is None, pair


def positive_hull_full(directions) -> bool:
    """True iff the strictly positive combinations of the directions
    fill the whole space.

    Equivalent to the dual cone {u : y_j . u <= 0 for all j} being {0},
    and, by Stiemke's theorem (1915), to rank Y = n together with some
    lambda > 0 having Y^T lambda = 0. One thin SVD Y = U S V^T decides
    the rank by ``numpy.linalg.matrix_rank``'s rule and proposes
    lambda = 1 - U U^T 1, the all-ones vector projected onto null(Y^T).
    Let m = min lambda, r_up an upper bound on |Y^T lambda| (the
    computed norm plus its rounding error) and sigma_lo a lower bound on
    the smallest singular value sigma_n(Y). If m > 0 and
    sigma_lo * m > r_up, the hull is full. Proof: suppose a unit u had
    y_j . u <= 0 for every j, and put a_j = -y_j . u >= 0. Then
    m |a|_2 <= m |a|_1 <= sum_j lambda_j a_j = -(Y^T lambda) . u <= r_up,
    while |a|_2 = |Y u|_2 >= sigma_lo; together these contradict
    sigma_lo * m > r_up, so the dual cone is {0}.

    When the certificate is not found, the decision falls back to one
    feasibility solve: maximize sum(s) subject to Y u + s <= 0,
    0 <= s <= 1. A full positive hull forces optimum 0; any nonzero
    dual vector gives a positive optimum, and one above ``DEFAULT_TOL``
    decides. The fallback is the only place that loads
    ``scipy.optimize``.
    """
    y = directions.directions if isinstance(directions, DirectionSet) else np.asarray(
        directions, dtype=float
    )
    if y.ndim != 2:
        raise ValueError("directions must be a (k, n) array")
    k, n = y.shape
    if k < n + 1:
        return False
    u, s, _ = np.linalg.svd(y, full_matrices=False)
    if s[-1] <= s[0] * max(k, n) * _EPS:
        return False
    if _stiemke_certified(y, u, s):
        return True
    from scipy.optimize import linprog

    c = np.concatenate([np.zeros(n), -np.ones(k)])
    a_ub = np.hstack([y, np.eye(k)])
    bounds = [(None, None)] * n + [(0.0, 1.0)] * k
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(k), bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"feasibility solve failed: {res.message}")
    return -res.fun <= DEFAULT_TOL


def _stiemke_certified(y: np.ndarray, u: np.ndarray, s: np.ndarray) -> bool:
    """The checked Stiemke certificate of ``positive_hull_full`` for a
    (k, n) matrix ``y`` of rank n with thin SVD factors ``u``, ``s``.

    Every bound below errs on the safe side of the rounding in computing
    it. Each entry of the product Y^T lambda is off by at most
    gamma_k (|Y|^T |lambda|) with gamma_k = k eps / (1 - k eps), and the
    factor 1 + 4 (k + n) eps covers the rounding in the two norms, their
    sum and the final comparison; the term k * tiny covers underflow.
    A backward-stable SVD returns each singular value within a modest
    p(k, n) eps s[0] of the true one; ``_SVD_SLACK`` max(k, n) stands
    for p(k, n) with a wide margin.
    """
    k, n = y.shape
    lam = 1.0 - u @ u.sum(axis=0)
    m = lam.min()
    if not m > 0.0:
        return False
    gamma = k * _EPS / (1.0 - k * _EPS)
    residual = np.linalg.norm(y.T @ lam) + gamma * np.linalg.norm(np.abs(y).T @ lam)
    r_up = residual * (1.0 + 4 * (k + n) * _EPS) + k * _TINY
    sigma_lo = s[-1] - _SVD_SLACK * max(k, n) * _EPS * s[0]
    return bool(sigma_lo * m > r_up)


def verifies_illumination(s, d: DirectionSet) -> tuple[bool, int | None]:
    """Illumination certificate: full positive hull plus one direction
    strictly inside every vertex's open illumination cap.

    Returns (True, None) on success; (False, i) with the first vertex
    whose cap contains no direction; (False, None) when the positive
    hull already fails.
    """
    v = _vertices_of(s)
    if d.dimension != v.shape[1]:
        raise ValueError(f"dimension mismatch: {d.dimension} vs {v.shape[1]}")
    if len(d) == 0 or not positive_hull_full(d):
        return False, None
    norms = np.linalg.norm(v, axis=1)
    axes = v / norms[:, None]
    # Open-cap membership: dot with -axis must exceed cos(radius) + DEFAULT_TOL.
    thresholds = np.cos(math.pi / 2 - np.arccos(np.clip(1.0 / norms, -1.0, 1.0)))
    best = max_dots(-axes, d.directions)
    failing = np.flatnonzero(best <= thresholds + DEFAULT_TOL)
    if failing.size:
        return False, int(failing[0])
    return True, None


def illuminate_cap_body(
    body: CapBody, alpha: float | None = None, seed: int = 0
) -> DirectionSet:
    """Constructive illumination of a cap body.

    Far vertices (norm >= 1/cos(alpha)) each get their own antipodal
    axis direction; the rest are handled by the centers of a certified
    sphere cover of angular radius pi/2 - alpha, whose caps land inside
    every near vertex's illumination cap. The cover block is omitted
    when there are no near vertices and the axis directions already
    positively span. Alpha defaults to the exponent balance point. The
    cover depends on (n, alpha) only, so calls with other seeds share
    it; ``seed`` reaches only a sampled fallback cover (see
    ``greedy_cover``).

    Raises:
        VerificationError: If the certificate fails on the output.
    """
    if alpha is None:
        alpha = solve_alpha()
    if not 0.0 < alpha < math.pi / 2:
        raise ValueError(f"alpha must lie in (0, pi/2), got {alpha}")
    v = body.vertices
    n = body.dimension
    norms = np.linalg.norm(v, axis=1)
    far = norms >= 1.0 / math.cos(alpha) - 1e-12
    u1 = -v[far] / norms[far][:, None]
    tags = [f"U1:{i}" for i in np.flatnonzero(far)]

    need_cover = bool((~far).any()) or not positive_hull_full(u1)
    if need_cover:
        cover = greedy_cover(n, math.pi / 2 - alpha, seed)
        u2 = cover.centers
        tags.extend(f"U2:{j}" for j in range(u2.shape[0]))
        directions = np.concatenate([u1, u2]) if u1.size else u2
    else:
        directions = u1

    out = DirectionSet(n, directions, tuple(tags))
    ok, witness = verifies_illumination(body, out)
    if not ok:
        raise VerificationError(
            "illumination certificate failed"
            + (f" at vertex {witness}" if witness is not None else " (positive hull)"),
            witness=witness,
        )
    return out


def sweep_alpha(body: CapBody, alphas, seed: int = 0) -> tuple[float, DirectionSet]:
    """Pick the alpha from a grid minimizing the witnessed output size.

    Ties go to the smaller alpha; alphas whose construction fails to
    certify or runs out of its cover budget are skipped. Raises
    VerificationError if none succeed.
    """
    best: tuple[float, DirectionSet] | None = None
    for alpha in alphas:
        try:
            d = illuminate_cap_body(body, alpha, seed)
        except (VerificationError, BudgetError):
            continue
        if best is None or len(d) < len(best[1]):
            best = (float(alpha), d)
    if best is None:
        raise VerificationError("no alpha in the grid produced a certified direction set")
    return best
