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
    out, dropped = normalize_rows(rng.standard_normal((count, dim)))
    # Top up dropped rows from the stream; astronomically rare, but it
    # keeps the output well defined for every seed and the same however
    # the draws are split into calls.
    while dropped:
        more, dropped = normalize_rows(rng.standard_normal((dropped, dim)))
        out = np.concatenate([out, more])
    return out


def normalize_rows(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """(the rows of ``rows`` with norm >= 1e-12, each divided by its norm,
    how many rows were dropped). The division is in place: in ``rows``
    itself when no row is dropped, else in a new array of the kept rows."""
    norms = np.linalg.norm(rows, axis=1)
    good = norms >= 1e-12
    if not good.all():
        rows, norms = rows[good], norms[good]
    rows /= norms[:, None]
    return rows, len(good) - len(rows)
