"""Seeded samplers: prefix consistency of unit_vectors."""

import numpy as np
import pytest

from gallai.sampling import rng_from, subrng, unit_vectors


class StubStream:
    """Generator stand-in whose standard_normal serves fixed rows in order."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)
        self.pos = 0

    def standard_normal(self, shape):
        count, dim = shape
        assert dim == self.rows.shape[1]
        out = self.rows[self.pos : self.pos + count].copy()
        assert out.shape[0] == count, "stream exhausted"
        self.pos += count
        return out


def divided_unit_vectors(rng, dim, count):
    """unit_vectors with its rows divided into a new array, not in place."""
    out = rng.standard_normal((count, dim))
    norms = np.linalg.norm(out, axis=1)
    good = norms >= 1e-12
    while not good.all():
        more = rng.standard_normal((count - int(good.sum()), dim))
        out = np.concatenate([out[good], more])
        norms = np.concatenate([norms[good], np.linalg.norm(more, axis=1)])
        good = norms >= 1e-12
    return out / norms[:, None]


class TestUnitVectors:
    @pytest.mark.parametrize("dim", range(2, 11))
    @pytest.mark.parametrize("count", [1, 511, 512, 4097])
    def test_in_place_division_keeps_the_bits(self, dim, count):
        seed = 100 * dim + count
        new = unit_vectors(rng_from(seed), dim, count)
        assert new.tobytes() == divided_unit_vectors(rng_from(seed), dim, count).tobytes()

    def test_calls_return_separate_arrays(self):
        rng = rng_from(3)
        a = unit_vectors(rng, 4, 8)
        b = unit_vectors(rng, 4, 8)
        kept = b.copy()
        assert not np.shares_memory(a, b)
        a[:] = 7.0
        assert np.array_equal(b, kept)

    @pytest.mark.parametrize("seed", range(6))
    def test_prefix_consistent(self, seed):
        rng = np.random.default_rng(1000 + seed)
        dim = int(rng.integers(2, 9))
        sizes = rng.integers(0, 40, size=int(rng.integers(1, 8)))
        whole = unit_vectors(subrng(seed, 3), dim, int(sizes.sum()))
        stream = subrng(seed, 3)
        parts = np.concatenate([unit_vectors(stream, dim, int(k)) for k in sizes])
        assert parts.tobytes() == whole.tobytes()

    def test_rows_match_single_draws(self):
        whole = unit_vectors(rng_from(7), 8, 600)
        rng = rng_from(7)
        rows = np.concatenate([unit_vectors(rng, 8, 1) for _ in range(600)])
        assert rows.tobytes() == whole.tobytes()

    def test_degenerate_rows_are_dropped_in_order(self):
        rows = [[3.0, 4.0], [0.0, 0.0], [0.0, -2.0], [1e-13, 0.0], [-1.0, 0.0], [0.0, 5.0]]
        good = np.array([[0.6, 0.8], [0.0, -1.0], [-1.0, 0.0], [0.0, 1.0]])
        whole = unit_vectors(StubStream(rows), 2, 4)
        assert np.array_equal(whole, good)
        stream = StubStream(rows)
        split = np.concatenate([unit_vectors(stream, 2, 1), unit_vectors(stream, 2, 3)])
        assert np.array_equal(split, good)
        assert stream.pos == len(rows)

    def test_unit_norm(self):
        u = unit_vectors(rng_from(0), 5, 1000)
        assert u.shape == (1000, 5)
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)
