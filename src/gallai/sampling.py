"""Seeded uniform sampling on the unit sphere.

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
    a followed by a call for b returns on the same stream. The rows are
    normalized in place in the freshly drawn array, which each call
    returns as a new array.
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
    out /= norms[:, None]
    return out
