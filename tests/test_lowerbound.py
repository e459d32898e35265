"""Tests for separated sets, symmetrization, and multiplicity reports."""

import math
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from gallai import (
    SeparatedSet,
    SymmetricSeparatedSet,
    build_lower_bound_body,
    construct_separated_set,
    is_cap_body,
    multiplicity_report,
    symmetrize,
)
from gallai import DEFAULT_TOL, lowerbound, sampling
from gallai.lowerbound import _SAMPLE_BLOCK, MultiplicityReport, _direction_rng, _scan_block

from conftest import angular_distance, base_cap_radius, illumination_multiplicity

WINDOW = (math.pi / 3, 2 * math.pi / 3)


def per_draw_separated_set(n, target_size, seed=0, max_draws=None, stall_limit=600):
    """The one-vector-per-iteration rejection loop that
    construct_separated_set must reproduce byte for byte."""
    budget = max_draws if max_draws is not None else max(20_000, 400 * target_size)
    cos_hi = math.cos(math.pi / 3)
    cos_lo = math.cos(2 * math.pi / 3)
    best = []
    drawn = 0
    restart = 0
    while drawn < budget and len(best) < target_size:
        rng = sampling.subrng(seed, restart)
        restart += 1
        accepted = []
        stall = 0
        while drawn < budget and len(accepted) < target_size and stall <= stall_limit:
            cand = sampling.unit_vectors(rng, n, 1)[0]
            drawn += 1
            if accepted:
                dots = np.array(accepted) @ cand
                if dots.max() > cos_hi or dots.min() < cos_lo:
                    stall += 1
                    continue
            accepted.append(cand)
            stall = 0
        if len(accepted) > len(best):
            best = accepted
    return np.array(best), len(best) >= target_size


SAMPLER_CASES = [
    (n, target, seed, None, 600)
    for n in range(3, 9)
    for target in (2 * n, 3 * n)
    for seed in range(6)
] + [
    (3, 6, 0, 1, 600),
    (4, 12, 1, 123, 3),
    (5, 15, 2, 777, 0),
    (6, 18, 3, 5000, 7),
    (8, 24, 4, None, 3),
]


def pairwise_angles(points):
    out = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            out.append(angular_distance(points[i], points[j]))
    return out


class TestConstructSeparatedSet:
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_window_exhaustive(self, n):
        s = construct_separated_set(n, 2 * n, seed=0)
        for angle in pairwise_angles(s.points):
            assert WINDOW[0] <= angle <= WINDOW[1]

    def test_single_point_vacuous(self):
        s = construct_separated_set(3, 1, seed=0)
        assert len(s) == 1
        assert s.reached_target

    def test_budget_shortfall_is_flagged(self):
        s = construct_separated_set(3, 500, seed=0, max_draws=2_000)
        assert len(s) < 500
        assert not s.reached_target

    def test_deterministic(self):
        a = construct_separated_set(4, 8, seed=3)
        b = construct_separated_set(4, 8, seed=3)
        assert np.array_equal(a.points, b.points)

    def test_domain(self):
        with pytest.raises(ValueError):
            construct_separated_set(2, 4)
        with pytest.raises(ValueError):
            construct_separated_set(3, 0)

    @pytest.mark.parametrize("max_draws", [0, -5])
    def test_rejects_empty_budget(self, max_draws):
        with pytest.raises(ValueError, match="max_draws"):
            construct_separated_set(3, 4, max_draws=max_draws)

    @pytest.mark.parametrize("n,target,seed,max_draws,stall_limit", SAMPLER_CASES)
    def test_matches_per_draw_loop(self, n, target, seed, max_draws, stall_limit, monkeypatch):
        monkeypatch.setattr(lowerbound, "_STALL_LIMIT", stall_limit)
        s = construct_separated_set(n, target, seed, max_draws)
        points, reached = per_draw_separated_set(n, target, seed, max_draws, stall_limit)
        assert s.points.tobytes() == points.tobytes()
        assert s.reached_target == reached

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_first_fit_at_window_edges(self, n):
        # Candidates whose dots sit within a few ulps of cos(pi/3) or
        # cos(2pi/3): the block scan must decide each like the per-draw
        # product, including the rows it has to recompute.
        rng = np.random.default_rng(n)
        cos_hi, cos_lo = math.cos(math.pi / 3), math.cos(2 * math.pi / 3)
        accepted = list(sampling.unit_vectors(rng, n, 3))
        pts = np.array(accepted)

        def edge_row(a):
            w = rng.standard_normal(n)
            w -= (w @ a) * a
            w /= np.linalg.norm(w)
            c = rng.choice([cos_hi, cos_lo])
            row = c * a + math.sqrt(1 - c * c) * w
            return row / np.linalg.norm(row)

        block = np.array([edge_row(pts[rng.integers(3)]) for _ in range(400)])
        per_draw = (pts @ row.copy() for row in block)
        fits = [not (d.max() > cos_hi or d.min() < cos_lo) for d in per_draw]
        assert 0 < sum(fits) < len(fits)
        for start in range(len(block)):
            # Room for one acceptance: the scan returns the first fit.
            expect = next((i for i, ok in enumerate(fits[start:]) if ok), None)
            buf, got = _scan_block(block[start:], pts.copy(), 3, 4, cos_lo, cos_hi, 1e-12)
            assert got == ([] if expect is None else [expect])
            if got:  # the full buffer grew to take the accepted row
                assert buf[:4].tobytes() == np.vstack([pts, block[start + got[0]]]).tobytes()
        # Unlimited room: every later decision also counts the rows the
        # scan accepted earlier in the block, as the per-draw loop does.
        # Edge rows of earlier rows and uniform draws go between the edge
        # rows above, so rows sit on the edges of rows accepted in the block.
        mixed = []
        for row in block:
            anchor = mixed[rng.integers(len(mixed))] if mixed else row
            mixed += [row, edge_row(anchor), sampling.unit_vectors(rng, n, 1)[0]]
        mixed = np.array(mixed)
        loop, taken = list(accepted), []
        for i, row in enumerate(mixed):
            d = np.array(loop) @ row.copy()
            if not (d.max() > cos_hi or d.min() < cos_lo):
                loop.append(row)
                taken.append(i)
        buf, got = _scan_block(mixed, pts.copy(), 3, 10**9, cos_lo, cos_hi, 1e-12)
        assert got == taken
        assert buf[: len(loop)].tobytes() == np.array(loop).tobytes()

    def test_memory_independent_of_target(self):
        # A buffer sized by target_size would take 10**9 x 4 doubles.
        tracemalloc.start()
        try:
            s = construct_separated_set(4, 10**9, max_draws=2_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not s.reached_target
        assert peak < 2**20

    def test_type_rejects_window_violation(self):
        with pytest.raises(ValueError):
            SeparatedSet(3, np.array([[1.0, 0, 0], [-1.0, 0, 0]]))  # distance pi


class TestSymmetrize:
    def test_single_point_gives_antipodal_pair(self):
        s = SeparatedSet(3, np.array([[1.0, 0.0, 0.0]]))
        y = symmetrize(s)
        assert len(y) == 2
        assert angular_distance(y.points[0], y.points[1]) == pytest.approx(math.pi)

    def test_hand_witness_octahedron(self):
        # One sign per axis is a valid separated set (pairwise pi/2);
        # closing under negation yields all six cross-polytope vertices.
        s = SeparatedSet(3, np.eye(3))
        y = symmetrize(s)
        assert len(y) == 6
        assert sorted(
            round(a, 12) for a in pairwise_angles(y.points)
        ) == pytest.approx(
            sorted([math.pi / 2] * 12 + [math.pi] * 3), abs=1e-9
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_doubles_the_count(self, seed):
        s = construct_separated_set(3 + seed, 2 * (3 + seed), seed=seed)
        assert len(symmetrize(s)) == 2 * len(s)

    @pytest.mark.parametrize("seed", range(4))
    def test_output_separation(self, seed):
        y = symmetrize(construct_separated_set(4, 8, seed=seed))
        for angle in pairwise_angles(y.points):
            assert angle >= math.pi / 3 - 1e-9

    def test_exact_negation_closure(self):
        y = symmetrize(construct_separated_set(5, 10, seed=1))
        rows = {row.tobytes() for row in y.points}
        assert all((-row).tobytes() in rows for row in y.points)

    def test_type_rejects_asymmetric_sets(self):
        with pytest.raises(ValueError):
            SymmetricSeparatedSet(3, np.eye(3))


class TestBuildLowerBoundBody:
    def test_vertex_norms(self):
        y = symmetrize(construct_separated_set(3, 5, seed=2))
        body = build_lower_bound_body(y)
        norms = np.linalg.norm(body.vertices, axis=1)
        assert np.allclose(norms, 2.0 / math.sqrt(3.0), atol=1e-12)

    def test_cap_radius_is_pi_sixth(self):
        y = symmetrize(construct_separated_set(3, 4, seed=5))
        body = build_lower_bound_body(y)
        assert base_cap_radius(body.vertices[0]) == pytest.approx(math.pi / 6, abs=1e-12)

    def test_central_symmetry(self):
        y = symmetrize(construct_separated_set(4, 8, seed=3))
        body = build_lower_bound_body(y)
        rows = {row.tobytes() for row in body.vertices}
        assert all((-row).tobytes() in rows for row in body.vertices)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_always_a_cap_body(self, n):
        y = symmetrize(construct_separated_set(n, 2 * n, seed=n))
        body = build_lower_bound_body(y)
        ok, _ = is_cap_body(body)
        assert ok


class TestMultiplicity:
    def test_axis_direction_counts_exactly_one(self):
        # At -y_0 only y_0 itself can fall strictly inside the pi/3 cap:
        # every other point is at least pi/3 away from y_0.
        y = symmetrize(construct_separated_set(3, 5, seed=4))
        assert illumination_multiplicity(y, -y.points[0]) == 1

    def test_orthogonal_direction_counts_zero(self):
        # All points lie in the e1-e2 plane, so e3 is exactly pi/2 from
        # each of them and pi/2 > pi/3 means nothing is illuminated.
        plane = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0]])
        y = SymmetricSeparatedSet(3, plane)
        assert illumination_multiplicity(y, np.array([0.0, 0.0, 1.0])) == 0

    def test_antipodal_symmetry_of_counts(self):
        y = symmetrize(construct_separated_set(4, 8, seed=6))
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            assert illumination_multiplicity(y, u) == illumination_multiplicity(y, -u)

    def test_brute_force_recount(self):
        y = symmetrize(construct_separated_set(3, 6, seed=7))
        rng = np.random.default_rng(1)
        for _ in range(25):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            brute = sum(
                1
                for p in y.points
                if angular_distance(-u, p) < math.pi / 3 - 1e-9
            )
            assert illumination_multiplicity(y, u) == brute


class RowStream:
    """Generator stand-in whose standard_normal serves fixed rows in order."""

    def __init__(self, rows):
        self.rows = rows
        self.served = 0

    def standard_normal(self, shape):
        count, dim = shape
        assert dim == self.rows.shape[1]
        out = self.rows[self.served : self.served + count].copy()
        assert len(out) == count, "stream exhausted"
        self.served += count
        return out


def unit_row(*coords):
    """``coords`` with each 1.0 replaced by the value that makes the row
    unit in floating point, found next to sqrt(1 - the rest's squares):
    normalizing the row then keeps every coordinate."""
    row = np.array(coords)
    fill = row == 1.0
    rest = float((row[~fill] ** 2).sum())
    guess = math.sqrt(max(0.0, 1.0 - rest) / fill.sum())
    for step in range(64):
        row[fill] = guess
        if np.linalg.norm(row[None], axis=1)[0] == 1.0:
            return row
        guess = np.nextafter(guess, 2.0 if np.linalg.norm(row) < 1.0 else -2.0)
    raise AssertionError(f"no unit row through {coords}")


def one_product_report(y, samples, seed=0):
    """Reference multiplicity_report: one product of all the negated
    directions with all the points, no blocks and no pairing."""
    u = sampling.unit_vectors(lowerbound._direction_rng(seed), y.dimension, samples)
    counts = ((-u @ y.points.T) > math.cos(math.pi / 3) + DEFAULT_TOL).sum(axis=1)
    top = int(counts.max())
    freq = np.bincount(counts)
    return MultiplicityReport(
        samples=samples,
        max_multiplicity=top,
        mean_multiplicity=float(counts.mean()),
        histogram=tuple((int(k), int(freq[k])) for k in np.flatnonzero(freq)),
        witness=len(y) / top if top > 0 else math.inf,
    )


class TestMultiplicityReport:
    def test_antipodal_pair(self):
        y = symmetrize(SeparatedSet(3, np.array([[0.0, 0.0, 1.0]])))
        rep = multiplicity_report(y, 10_000, seed=0)
        assert rep.max_multiplicity == 1
        assert rep.witness == pytest.approx(2.0)

    def test_histogram_conserves_samples(self):
        y = symmetrize(construct_separated_set(4, 8, seed=8))
        rep = multiplicity_report(y, 5_000, seed=2)
        assert sum(freq for _, freq in rep.histogram) == 5_000

    def test_histogram_matches_counter(self):
        y = symmetrize(construct_separated_set(5, 15, seed=12))
        rep = multiplicity_report(y, 20_000, seed=5)
        u = sampling.unit_vectors(_direction_rng(5), 5, 20_000)
        counts = ((-u @ y.points.T) > math.cos(math.pi / 3) + 1e-9).sum(axis=1)
        assert rep.histogram == tuple(sorted(Counter(int(c) for c in counts).items()))
        assert len(rep.histogram) > 2

    def test_witness_without_illuminated_vertex_is_json_null(self, monkeypatch):
        y = symmetrize(SeparatedSet(3, np.array([[0.0, 0.0, 1.0]])))
        # The one direction, e1, is orthogonal to both points.
        stream = RowStream(np.array([[1.0, 0.0, 0.0]]))
        monkeypatch.setattr(lowerbound, "_direction_rng", lambda seed: stream)
        rep = multiplicity_report(y, 1, seed=0)
        assert rep.max_multiplicity == 0 and rep.witness == math.inf
        assert rep.to_dict()["witness"] is None

    def test_witness_formula(self):
        y = symmetrize(construct_separated_set(3, 5, seed=9))
        rep = multiplicity_report(y, 5_000, seed=3)
        assert rep.witness == pytest.approx(len(y) / rep.max_multiplicity)

    def test_deterministic(self):
        y = symmetrize(construct_separated_set(3, 5, seed=10))
        a = multiplicity_report(y, 2_000, seed=4)
        b = multiplicity_report(y, 2_000, seed=4)
        assert a == b

    def test_sample_validation(self):
        y = symmetrize(construct_separated_set(3, 3, seed=11))
        with pytest.raises(ValueError):
            multiplicity_report(y, 0)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("samples", [1, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1,
                                         3 * _SAMPLE_BLOCK + 1, 3 * _SAMPLE_BLOCK + 17, 100_000])
    def test_matches_one_product(self, n, samples):
        y = symmetrize(construct_separated_set(n, 3 * n, seed=n))
        assert multiplicity_report(y, samples, seed=samples) == one_product_report(
            y, samples, seed=samples
        )

    def test_any_order(self):
        # Pairs need not be split into halves.
        y = symmetrize(construct_separated_set(5, 15, seed=3))
        shuffled = SymmetricSeparatedSet(5, y.points[np.random.default_rng(0).permutation(len(y))])
        for z in (y, shuffled):
            assert multiplicity_report(z, 5_000, seed=1) == one_product_report(z, 5_000, seed=1)

    def test_dots_on_the_threshold(self, monkeypatch):
        # Directions whose dots with the axes are exactly +-c, 0 and +-1,
        # or one ulp either side of +-c, for c = cos(pi/3) + DEFAULT_TOL,
        # over a full block and a partial one. The rows are unit in
        # floating point, so normalizing them keeps every coordinate.
        c = math.cos(math.pi / 3) + DEFAULT_TOL
        up, down = np.nextafter(c, 2.0), np.nextafter(c, -2.0)
        chosen = [
            unit_row(c, 1.0, 0.0), unit_row(-c, 0.0, 1.0), unit_row(0.0, -c, 1.0),
            unit_row(1.0, 0.0, -c), [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0], unit_row(up, 0.0, 1.0), unit_row(1.0, down, 0.0),
            unit_row(-up, 1.0, 0.0), unit_row(0.0, 1.0, -down), unit_row(-0.0, 1.0, -c),
        ]
        if 2 * c * c <= 1.0:  # two coordinates on the threshold at once
            chosen += [unit_row(c, -c, 1.0), unit_row(-c, 1.0, c)]
        chosen = np.array(chosen)
        for value in (c, -c, up, -up, down, -down):
            assert value in chosen
        samples = _SAMPLE_BLOCK + 5
        rows = np.tile(chosen, (samples // len(chosen) + 1, 1))[:samples]
        assert np.array_equal(sampling.normalize_rows(rows.copy())[0], rows)
        y = symmetrize(SeparatedSet(3, np.eye(3)))

        def report(fn):
            stream = RowStream(rows)
            with monkeypatch.context() as m:
                m.setattr(lowerbound, "_direction_rng", lambda seed: stream)
                out = fn(y, samples, seed=0)
            assert stream.served == samples
            return out

        assert report(multiplicity_report) == report(one_product_report)

    @pytest.mark.parametrize("seed", range(8))
    def test_directions_are_not_a_construction_stream(self, seed, monkeypatch):
        # The report's directions come from no stream that the sampler
        # restarts on, so its first direction is not the set's first point.
        drawn = []
        real = lowerbound._direction_rng

        class Spy:
            def __init__(self, seed):
                self.rng = real(seed)

            def standard_normal(self, shape):
                out = self.rng.standard_normal(shape)
                drawn.append(out.copy())
                return out

        x = construct_separated_set(3, 4, seed)
        monkeypatch.setattr(lowerbound, "_direction_rng", Spy)
        multiplicity_report(symmetrize(x), 16, seed)
        u, dropped = sampling.normalize_rows(drawn[-1])
        assert dropped == 0
        for restart in range(4):
            assert not np.array_equal(u, sampling.unit_vectors(sampling.subrng(seed, restart), 3, 16))
        assert x.points[0] @ u[0] < 1.0 - 1e-6

    @pytest.mark.parametrize("zeros", [(0,), (_SAMPLE_BLOCK - 1,), (2 * _SAMPLE_BLOCK + 2,),
                                       (0, _SAMPLE_BLOCK - 1, 2 * _SAMPLE_BLOCK + 2,
                                        2 * _SAMPLE_BLOCK + 3)])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_degenerate_rows_are_topped_up_as_unit_vectors_does(self, zeros, cpus, monkeypatch):
        # Exactly-zero rows first in a block, last in a block and as the
        # last planned row; the last case also zeroes the first row drawn
        # to replace them, so the top-up draws twice.
        samples = 2 * _SAMPLE_BLOCK + 3
        rows = np.random.default_rng(9).standard_normal((samples + 8, 5))
        rows[list(zeros)] = 0.0
        y = symmetrize(construct_separated_set(5, 10, seed=2))
        monkeypatch.setattr(lowerbound, "_usable_cpus", lambda: cpus)

        def report(fn):
            stream = RowStream(rows)
            with monkeypatch.context() as m:
                m.setattr(lowerbound, "_direction_rng", lambda seed: stream)
                out = fn(y, samples, seed=0)
            assert stream.served == samples + len(zeros)
            return out

        rep = report(multiplicity_report)
        assert rep == report(one_product_report)
        assert sum(freq for _, freq in rep.histogram) == samples

    @pytest.mark.parametrize("samples", [1, _SAMPLE_BLOCK + 1, 100_000])
    def test_one_cpu_gives_the_same_report(self, samples, monkeypatch):
        # On one usable CPU no helper thread starts, and the caller
        # counts every block.
        y = symmetrize(construct_separated_set(6, 12, seed=6))
        monkeypatch.setattr(lowerbound, "_usable_cpus", lambda: 2)
        shared = multiplicity_report(y, samples, seed=3)
        monkeypatch.setattr(lowerbound, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("thread started"))
        assert multiplicity_report(y, samples, seed=3) == shared

    def test_no_thread_outlives_the_report(self, monkeypatch):
        y = symmetrize(construct_separated_set(4, 8, seed=4))
        monkeypatch.setattr(lowerbound, "_usable_cpus", lambda: 2)
        before = threading.active_count()
        multiplicity_report(y, 5 * _SAMPLE_BLOCK, seed=1)
        assert threading.active_count() == before

        class Failing:
            calls = 0

            def standard_normal(self, shape):
                Failing.calls += 1
                if Failing.calls == 3:
                    raise RuntimeError("stream broke")
                return np.random.default_rng(0).standard_normal(shape)

        monkeypatch.setattr(lowerbound, "_direction_rng", lambda seed: Failing())
        with pytest.raises(RuntimeError, match="stream broke"):
            multiplicity_report(y, 5 * _SAMPLE_BLOCK, seed=1)
        assert Failing.calls == 3
        assert threading.active_count() == before

    def test_blocks_shared_under_fast_switching(self, monkeypatch):
        # Four reports at once, more threads than cores, with the
        # interpreter switching threads every microsecond and one block
        # at most waiting for each helper, so callers and helpers both
        # count blocks: a block lost or counted twice would change the
        # histogram.
        y = symmetrize(construct_separated_set(5, 10, seed=7))
        samples = 12 * _SAMPLE_BLOCK + 5
        monkeypatch.setattr(lowerbound, "_usable_cpus", lambda: 1)
        expected = {seed: multiplicity_report(y, samples, seed=seed) for seed in range(4)}
        monkeypatch.setattr(lowerbound, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(lowerbound, "_PENDING", 1)
        counted_by = []
        real_add = lowerbound._Tally.add

        def add(self, raw):
            counted_by.append(threading.current_thread().name)
            return real_add(self, raw)

        monkeypatch.setattr(lowerbound._Tally, "add", add)
        got = {}

        def run(seed):
            got[seed] = multiplicity_report(y, samples, seed=seed)

        workers = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert got == expected
        helpers = counted_by.count("multiplicity-count")
        assert len(counted_by) == 4 * 13
        assert 0 < helpers < len(counted_by)

    def test_queued_blocks_stay_bounded(self, monkeypatch):
        # The helper stalls on its first block until the stream ends; the
        # caller then counts the blocks past _PENDING itself, so at most
        # _PENDING + 1 drawn blocks are ever waiting or being counted.
        y = symmetrize(construct_separated_set(5, 10, seed=7))
        samples = 10 * _SAMPLE_BLOCK
        expected = multiplicity_report(y, samples, seed=2)
        caller = threading.current_thread()
        done = threading.Event()
        real_rng, real_normalize = lowerbound._direction_rng, sampling.normalize_rows
        drawn, finished, waiting = [0], [0], []

        def normalize_rows(rows):
            if threading.current_thread() is not caller:
                assert done.wait(30)
            out = real_normalize(rows)
            finished[0] += 1
            return out

        class Stream:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def standard_normal(self, shape):
                waiting.append(drawn[0] - finished[0])
                drawn[0] += 1
                if drawn[0] == samples // _SAMPLE_BLOCK:
                    done.set()
                return self.rng.standard_normal(shape)

        monkeypatch.setattr(lowerbound, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(lowerbound, "_direction_rng", Stream)
        monkeypatch.setattr(sampling, "normalize_rows", normalize_rows)
        assert multiplicity_report(y, samples, seed=2) == expected
        assert drawn[0] == finished[0] == 10
        assert max(waiting) <= lowerbound._PENDING + 1

    def test_helper_failure_reaches_the_caller(self, monkeypatch):
        # The normalization fails on the helper thread only. The stream
        # holds the second block back until the helper has taken the
        # first, so the helper counts (and fails on) at least one block.
        y = symmetrize(construct_separated_set(4, 8, seed=4))
        caller = threading.current_thread()
        taken = threading.Event()
        real = sampling.normalize_rows

        def normalize_rows(rows):
            if threading.current_thread() is not caller:
                taken.set()
                raise ArithmeticError("helper failed")
            return real(rows)

        class Held:
            calls = 0

            def standard_normal(self, shape):
                Held.calls += 1
                if Held.calls == 2:
                    assert taken.wait(30)
                return np.random.default_rng(0).standard_normal(shape)

        monkeypatch.setattr(lowerbound, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(lowerbound, "_direction_rng", lambda seed: Held())
        monkeypatch.setattr(sampling, "normalize_rows", normalize_rows)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="helper failed"):
            multiplicity_report(y, 5 * _SAMPLE_BLOCK, seed=1)
        assert threading.active_count() == before

    def test_memory_independent_of_samples(self):
        # One product over all directions would take 200k x 32 doubles
        # (51 MB) plus the negated directions.
        y = symmetrize(construct_separated_set(8, 16, seed=1))
        assert len(y) >= 30
        tracemalloc.start()
        try:
            rep = multiplicity_report(y, 200_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.samples == 200_000
        assert peak < 4 * 2**20
