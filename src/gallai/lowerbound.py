"""Symmetric separated point sets and the cap bodies they induce.

Builds antipodally symmetric sets on the sphere whose pairwise angular
distances stay at least pi/3, turns them into centrally symmetric cap
bodies with vertex norm 2/sqrt(3) (tangent pi/6 caps), and samples how
many vertices a single direction can illuminate. The vertex count over
the true maximum multiplicity is a lower bound on the illumination
number of the body; the sampled maximum can only under-count the true
one, so the reported ratio (the sampled witness) can only be too high
and is an estimate of that bound, not a bound.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

from . import sampling
from .errors import PairwiseError, VerificationError
from .geometry import DEFAULT_TOL, as_unit_rows, first_pair_outside
from .illumination import CapBody

# Acceptance window for pairwise angular distances.
ANGLE_MIN = math.pi / 3
ANGLE_MAX = 2 * math.pi / 3

VERTEX_SCALE = 2.0 / math.sqrt(3.0)

# Candidates drawn per sampling.unit_vectors call in construct_separated_set.
_BLOCK = 512
# Consecutive rejections after which construct_separated_set restarts.
_STALL_LIMIT = 600
# Band around each window edge inside which a block's dots are recomputed
# with the per-candidate product of construct_separated_set.
_RECHECK = 1e-12
# Directions drawn per block in multiplicity_report; the report holds a
# few arrays of this many rows at a time.
_SAMPLE_BLOCK = 4096
# Drawn blocks waiting for the helper thread of multiplicity_report at
# which the caller counts the next one itself.
_PENDING = 2


@dataclass(frozen=True, eq=False)
class SeparatedSet:
    """Unit vectors with pairwise angles inside [pi/3, 2pi/3]."""

    dimension: int
    points: np.ndarray
    reached_target: bool = True

    def __post_init__(self):
        p = as_unit_rows(self.points, self.dimension, "points")
        if p.shape[0] == 0:
            raise ValueError("points must be non-empty")
        pair = first_pair_outside(p, ANGLE_MIN, ANGLE_MAX, angles=True, tol=DEFAULT_TOL)
        if pair is not None:
            raise PairwiseError(
                f"points {pair[0]} and {pair[1]} leave the separation window", pair
            )
        object.__setattr__(self, "points", p)

    def __len__(self):
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class SymmetricSeparatedSet:
    """Negation-closed unit vectors, pairwise at least pi/3 apart."""

    dimension: int
    points: np.ndarray

    def __post_init__(self):
        p = as_unit_rows(self.points, self.dimension, "points")
        if p.shape[0] == 0:
            raise ValueError("points must be non-empty")
        # Negation closure is exact: flipping signs is lossless in
        # floats. Adding 0.0 first collapses -0.0 onto 0.0 so the byte
        # comparison matches mathematical equality.
        have = {row.tobytes() for row in p + 0.0}
        missing = [i for i, row in enumerate(-p + 0.0) if row.tobytes() not in have]
        if missing:
            raise ValueError(f"set is not negation-closed (point {missing[0]})")
        pair = first_pair_outside(p, low=ANGLE_MIN, angles=True, tol=DEFAULT_TOL)
        if pair is not None:
            raise PairwiseError(f"points {pair[0]} and {pair[1]} are closer than pi/3", pair)
        object.__setattr__(self, "points", p)

    def __len__(self):
        return self.points.shape[0]


def construct_separated_set(
    n: int,
    target_size: int,
    seed: int = 0,
    max_draws: int | None = None,
) -> SeparatedSet:
    """Seeded rejection sampling of a separated set.

    Draws uniform unit vectors and accepts one iff its angular distance
    to every accepted point stays in [pi/3, 2pi/3] (checked exactly, no
    tolerance). Greedy acceptance can jam below the target, so after
    ``_STALL_LIMIT`` consecutive rejections the run restarts on a fresh
    derived stream and the largest run wins. Stops at ``target_size``
    or once ``max_draws`` total draws are spent; an undersized result
    is flagged via ``reached_target``, never returned silently.

    Candidates are drawn ``_BLOCK`` at a time and scanned in order (see
    ``_scan_block``), but every decision, draw count and restart is that
    of a loop drawing one vector per iteration, so the result does not
    depend on ``_BLOCK``. Accepted points live in a buffer that doubles
    when full, so memory follows the points found, not ``target_size``.
    """
    if n < 3:
        raise ValueError("dimension must be at least 3")
    if target_size < 1:
        raise ValueError("target size must be positive")
    if max_draws is not None and max_draws < 1:
        raise ValueError(f"max_draws must be positive, got {max_draws}")
    budget = max_draws if max_draws is not None else max(20_000, 400 * target_size)
    cos_hi = math.cos(ANGLE_MIN)  # dots above this are too close
    cos_lo = math.cos(ANGLE_MAX)  # dots below this are too far
    band = max(_RECHECK, 4.0 * n * np.finfo(float).eps)
    best = np.empty((0, n))
    drawn = 0
    restart = 0
    while drawn < budget and len(best) < target_size:
        rng = sampling.subrng(seed, restart)
        restart += 1
        pts, k = np.empty((16, n)), 0
        stall = 0
        while drawn < budget and k < target_size and stall <= _STALL_LIMIT:
            # A block never passes the budget or the stall limit, so the
            # run stops after the same draw as a one-at-a-time loop; only a
            # run that reaches its target leaves the rest of a block unused.
            count = min(_BLOCK, budget - drawn, _STALL_LIMIT + 1 - stall)
            block = sampling.unit_vectors(rng, n, count)
            pts, fits = _scan_block(block, pts, k, target_size, cos_lo, cos_hi, band)
            k += len(fits)
            used = fits[-1] + 1 if k >= target_size else count
            drawn += used
            stall = used - fits[-1] - 1 if fits else stall + used
        if k > len(best):
            best = pts[:k]
    return SeparatedSet(n, best, reached_target=len(best) >= target_size)


def _scan_block(block, pts, k, target, cos_lo, cos_hi, band):
    """Accept rows of ``block`` in order until ``k`` reaches ``target``.

    A row is accepted iff ``pts[:k] @ row`` lies in [cos_lo, cos_hi], and
    is then appended to ``pts`` (doubled when full). Returns the buffer
    and the accepted row indices. Per-row flags come from the column max
    and min of one product ``pts[:k] @ block.T`` and from one
    matrix-vector product per acceptance (see ``_edge_flags``). These
    products may differ from the per-row one in the last bits, far less
    than ``band``, so a row they leave unsure is recomputed that way and
    every decision is that of the per-row product.
    """
    dots = pts[:k] @ block.T
    # 0.0, clearly inside the window, stands in for the dots of an empty set.
    bad, unsure = _edge_flags(
        dots.max(axis=0, initial=0.0), dots.min(axis=0, initial=0.0), cos_lo, cos_hi, band
    )
    fits: list[int] = []
    i = 0
    while i < len(block):
        i += int(bad[i:].argmin())  # the next row not ruled out
        if bad[i]:
            break
        if unsure[i]:
            exact = pts[:k] @ block[i].copy()  # a fresh row, like a single draw
            if exact.max() > cos_hi or exact.min() < cos_lo:
                i += 1
                continue
        if k == len(pts):
            pts = np.concatenate([pts, np.empty_like(pts)])
        pts[k] = block[i]
        k += 1
        fits.append(int(i))
        if k == target:
            break
        more = block[i + 1 :] @ block[i]
        more_bad, more_unsure = _edge_flags(more, more, cos_lo, cos_hi, band)
        bad[i + 1 :] |= more_bad
        unsure[i + 1 :] |= more_unsure
        i += 1
    return pts, fits


def _edge_flags(top, bottom, cos_lo, cos_hi, band):
    """Per row, from its largest and smallest dot: (a dot more than
    ``band`` outside [cos_lo, cos_hi], a dot not more than ``band``
    inside it). Only a row with neither flag is decided without a
    recheck, and only the first flag rules a row out."""
    bad = (top > cos_hi + band) | (bottom < cos_lo - band)
    return bad, (top >= cos_hi - band) | (bottom <= cos_lo + band)


def symmetrize(x: SeparatedSet) -> SymmetricSeparatedSet:
    """Close a separated set under negation.

    Distances survive: for distinct u, v the angle between u and -v is
    pi minus a window angle, which is again in the window, and u to -u
    is pi. The window keeps antipodal pairs out of the input, so the
    output always has exactly twice the points.
    """
    return SymmetricSeparatedSet(
        x.dimension, np.concatenate([x.points, -x.points])
    )


def build_lower_bound_body(y: SymmetricSeparatedSet) -> CapBody:
    """Centrally symmetric cap body with vertices at (2/sqrt(3)) y_i.

    Each associated cap is the closed pi/6 cap at y_i; the pi/3
    separation makes them pairwise disjoint up to tangency.

    Raises:
        VerificationError: If the cap-body check fails, which would
            mean the separation invariant was violated upstream.
    """
    try:
        return CapBody.from_vertices(y.dimension, VERTEX_SCALE * y.points)
    except ValueError as exc:
        raise VerificationError(f"cap-body check failed: {exc}") from exc


@dataclass(frozen=True)
class MultiplicityReport:
    """Sampled illumination-multiplicity statistics.

    ``witness`` is size / max_multiplicity (inf when no sampled direction
    illuminated anything, which ``to_dict`` writes as None). A sample can
    only under-count the true maximum, so the witness can only be too
    high: it estimates the lower bound size / (true maximum) on the
    illumination number of the induced body from above and is not
    itself a lower bound.
    """

    samples: int
    max_multiplicity: int
    mean_multiplicity: float
    histogram: tuple[tuple[int, int], ...]  # (multiplicity, frequency)
    witness: float

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "max_multiplicity": self.max_multiplicity,
            "mean_multiplicity": self.mean_multiplicity,
            "histogram": {str(k): v for k, v in self.histogram},
            # JSON has no infinity: no illuminated vertex gives null.
            "witness": self.witness if self.max_multiplicity else None,
        }


def multiplicity_report(
    y: SymmetricSeparatedSet, samples: int, seed: int = 0
) -> MultiplicityReport:
    """Multiplicity statistics over seeded uniform directions.

    u illuminates y_i when -u . y_i > c = cos(pi/3) + ``DEFAULT_TOL``.
    The directions are the rows of ``sampling.unit_vectors(
    _direction_rng(seed), y.dimension, samples)``: the first ``samples``
    normal draws of norm >= 1e-12 from a stream that no run of
    ``construct_separated_set`` with any seed draws from, each divided
    by its norm.
    Each antipodal pair {h, -h} is counted from d = u . h alone
    (-u . h > c iff d < -c, -u . -h > c iff d > c): as c > 0, the pair
    counts |d| > c.

    The calling thread draws the raw rows ``_SAMPLE_BLOCK`` at a time in
    stream order. When more than one CPU is usable and there is more
    than one block, it queues each block for a helper thread while fewer
    than ``_PENDING`` wait, counts it itself otherwise, and counts what is
    still queued once the stream ends. Each thread adds its blocks to its
    own histogram with the same product, |.|, comparison and bincount,
    and integer histograms sum the same in any order. After the helper is
    joined, the caller draws as many further rows as were dropped as
    degenerate, as ``unit_vectors`` tops up, so the report equals that of
    one product over all directions and points. At most ``_PENDING`` raw
    blocks wait, and each thread holds one (block, len(y) / 2) buffer, so
    memory is O(_SAMPLE_BLOCK * len(y)) whatever ``samples`` is. A
    helper's exception is raised here after the join, and the helper is
    joined however the call ends.
    """
    if samples < 1:
        raise ValueError("sample count must be positive")
    ht = np.ascontiguousarray(_one_per_pair(y.points).T)
    c = math.cos(ANGLE_MIN) + DEFAULT_TOL
    rng = _direction_rng(seed)
    block = min(_SAMPLE_BLOCK, samples)
    sizes = [min(block, samples - start) for start in range(0, samples, block)]
    mine = _Tally(ht, c, len(y), block)
    if len(sizes) > 1 and _usable_cpus() > 1:
        theirs = _Tally(ht, c, len(y), block)
        _count_with_helper(rng, y.dimension, sizes, mine, theirs)
        mine.freq += theirs.freq
        missing = mine.dropped + theirs.dropped
    else:
        for rows in sizes:
            mine.add(rng.standard_normal((rows, y.dimension)))
        missing = mine.dropped
    while missing:
        rows = min(missing, block)
        missing += mine.add(rng.standard_normal((rows, y.dimension))) - rows
    freq = mine.freq
    seen = np.flatnonzero(freq)
    top = int(seen[-1])
    hist = tuple((int(k), int(freq[k])) for k in seen)
    witness = len(y) / top if top > 0 else math.inf
    return MultiplicityReport(
        samples=samples,
        max_multiplicity=top,
        # Exact: an integer total below 2**53 and one rounded division.
        mean_multiplicity=int(np.arange(len(freq)) @ freq) / samples,
        histogram=hist,
        witness=witness,
    )


class _Tally:
    """One thread's share of a multiplicity report: ``freq[k]`` directions
    so far illuminate k of the ``size`` points, and ``dropped`` raw rows
    were degenerate. ``ht`` holds one point of each antipodal pair per
    column, and ``c`` is the illumination threshold."""

    def __init__(self, ht, c, size, block):
        pairs = ht.shape[1]
        self.ht, self.c = ht, c
        self.freq = np.zeros(size + 1, dtype=np.int64)  # a count is at most size
        self.dropped = 0
        self.buf, self.sums, self.ones = np.empty((block, pairs)), np.empty(block), np.ones(pairs)

    def add(self, raw) -> int:
        """Count the rows of ``raw`` (at most ``block``, normalized in
        place) and return how many were dropped as degenerate. A block is
        one product, |.| and one comparison in place in the buffer, and its
        counts are one product with a vector of ones."""
        u, dropped = sampling.normalize_rows(raw)
        self.dropped += dropped
        dots = np.matmul(u, self.ht, out=self.buf[: len(u)])
        np.abs(dots, out=dots)
        np.greater(dots, self.c, out=dots)
        counts = np.matmul(dots, self.ones, out=self.sums[: len(u)]).astype(np.intp)
        self.freq += np.bincount(counts, minlength=len(self.freq))
        return dropped


def _count_with_helper(rng, dim, sizes, mine, theirs):
    """Draw blocks of ``sizes`` rows from ``rng`` in order on this thread
    and count them into ``mine`` and, on a helper thread, ``theirs``."""
    blocks = queue.SimpleQueue()  # raw blocks for the helper, then None
    failure = []

    def helper():
        try:
            while (raw := blocks.get()) is not None:
                theirs.add(raw)
        except BaseException as exc:  # raised on the calling thread
            failure.append(exc)

    thread = threading.Thread(target=helper, name="multiplicity-count")
    thread.start()
    try:
        for rows in sizes:
            if failure:
                break
            raw = rng.standard_normal((rows, dim))
            if blocks.qsize() < _PENDING:
                blocks.put(raw)
            else:
                mine.add(raw)
        try:
            while not failure:
                mine.add(blocks.get_nowait())
        except queue.Empty:
            pass
    finally:
        blocks.put(None)
        thread.join()
    if failure:
        raise failure[0]


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where the OS cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _direction_rng(seed: int) -> np.random.Generator:
    """The direction stream of ``multiplicity_report``.

    ``sampling.subrng(seed, tag)`` seeds PCG64 with the 32-bit words of
    seed followed by those of tag, and numpy pads entropy of up to four
    words with zeros, so ``subrng(seed, 0)`` is ``rng_from(seed)``. Here
    four zero words follow the seed's: no tag's words end that way (only
    tag 0 has a zero word, and just one), so this stream is none that
    ``construct_separated_set`` restarts on.
    """
    return np.random.default_rng([int(seed), 0, 0, 0, 0])


def _one_per_pair(points: np.ndarray) -> np.ndarray:
    """The rows of a negation-closed set whose first nonzero coordinate is
    positive: exactly one of each antipodal pair."""
    first = (points != 0).argmax(axis=1)
    return points[points[np.arange(len(points)), first] > 0]
