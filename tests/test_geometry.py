"""Unit tests for the core geometric primitives."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gallai import (
    DEFAULT_TOL,
    Ball,
    BallFamily,
    Balls,
    CapBody,
    Packing,
    SeparatedSet,
    SphericalCap,
    SpikyBall,
    angular_distance,
    balls_intersect,
    cap_contains,
    is_cap_body,
    point_in_ball,
)
from gallai import geometry, piercing
from gallai.errors import PairwiseError
from gallai.geometry import first_pair_outside, gram_gaps, gram_rows, pair_distances
from gallai.piercing import first_non_intersecting_pair, verify_piercing

from conftest import dense_first_missed, dense_first_pair

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def random_units(seed, count, dim=3):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestAngularDistance:
    def test_identity(self):
        assert angular_distance(E1, E1) == 0.0

    def test_orthogonal(self):
        assert angular_distance(E1, E2) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_antipodal(self):
        assert angular_distance(E1, -E1) == pytest.approx(math.pi, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            angular_distance(E1, np.array([1.0, 0.0]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_triangle_inequality(self, seed):
        u, v, w = random_units(seed, 3)
        assert angular_distance(u, w) <= (
            angular_distance(u, v) + angular_distance(v, w) + 1e-9
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_symmetry(self, seed):
        u, v = random_units(seed, 2)
        assert angular_distance(u, v) == angular_distance(v, u)


class TestCaps:
    def test_axis_in_closed_cap(self):
        assert cap_contains(SphericalCap(E1, math.pi / 3), E1)

    def test_open_cap_boundary_excluded(self):
        assert not cap_contains(SphericalCap(E1, math.pi / 2, closed=False), E2)

    def test_closed_cap_boundary_included(self):
        assert cap_contains(SphericalCap(E1, math.pi / 2, closed=True), E2)

    def test_validation(self):
        with pytest.raises(ValueError):
            SphericalCap(E1 * 2.0, 1.0)  # axis not unit
        with pytest.raises(ValueError):
            SphericalCap(E1, 0.0)  # empty cap
        with pytest.raises(ValueError):
            SphericalCap(E1, math.pi)  # whole sphere
        with pytest.raises(ValueError):
            SphericalCap(E1, 1.0, sphere_radius=0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 2.8), st.floats(0.01, 0.3))
    def test_monotone_in_radius(self, seed, radius, widen):
        u, p = random_units(seed, 2)
        if radius + widen >= math.pi:
            return
        small = SphericalCap(u, radius)
        large = SphericalCap(u, radius + widen)
        if cap_contains(small, p):
            assert cap_contains(large, p)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 3.0))
    def test_open_implies_closed(self, seed, radius):
        u, p = random_units(seed, 2)
        if not 0.0 < radius < math.pi:
            return
        if cap_contains(SphericalCap(u, radius, closed=False), p):
            assert cap_contains(SphericalCap(u, radius, closed=True), p)


class TestBalls:
    def test_tangent_intersect(self):
        assert balls_intersect(Ball([0, 0], 1), Ball([3, 0], 2))

    def test_separated(self):
        assert not balls_intersect(Ball([0, 0], 1), Ball([3.1, 0], 2))

    def test_nested(self):
        assert balls_intersect(Ball([0, 0], 1), Ball([0, 0], 5))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            balls_intersect(Ball([0, 0], 1), Ball([0, 0, 0], 1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_intersect_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        a = Ball(rng.standard_normal(3), float(rng.uniform(0.1, 3.0)))
        b = Ball(rng.standard_normal(3), float(rng.uniform(0.1, 3.0)))
        assert balls_intersect(a, b) == balls_intersect(b, a)

    def test_point_in_ball(self):
        tol = 1e-9
        assert point_in_ball([0.0, 0.0], Ball([0, 0], 1), tol)
        assert point_in_ball([1.0, 0.0], Ball([0, 0], 1), tol)
        assert not point_in_ball([1.0 + 2 * tol, 0.0], Ball([0, 0], 1), tol)

    def test_ball_validation(self):
        with pytest.raises(ValueError):
            Ball([0, 0], 0.0)
        with pytest.raises(ValueError):
            Ball([0, 0], -1.0)
        with pytest.raises(ValueError):
            Ball([math.inf, 0], 1.0)
        with pytest.raises(ValueError):
            Ball([1.0], 1.0)  # dimension below 2

    def test_balls_sequence(self):
        balls = Balls([[0, 0], [1, 0], [2, 0]], [1.0, 2.0, 3.0])
        assert len(balls) == 3
        assert balls[1].radius == 2.0 and balls[-1].center.tolist() == [2.0, 0.0]
        tail = balls[1:]
        assert isinstance(tail, Balls)
        assert tail.centers.tolist() == [[1, 0], [2, 0]]
        assert tail.radii.tolist() == [2.0, 3.0]
        assert [b.radius for b in balls[::2]] == [1.0, 3.0]
        with pytest.raises(ValueError):
            balls[3:]  # a family is non-empty


def gram_first_pair(bad):
    """Row-major first True above the diagonal, as the old checks found it."""
    bad = np.triu(bad, k=1)
    if not bad.any():
        return None
    i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return int(i), int(j)


def gram_angles(units):
    """The old arccos-of-Gram angles, kept here as the reference."""
    return np.arccos(np.clip(units @ units.T, -1.0, 1.0))


def pair_raised(make):
    """The pair a constructor rejects with, or None if it accepts."""
    try:
        make()
    except PairwiseError as exc:
        return exc.pair
    return None


MARGIN = 1e-6


def clear_of(values, thresholds):
    """True iff every off-diagonal value is MARGIN away from each threshold."""
    off = ~np.eye(values.shape[0], dtype=bool)
    return all(np.abs(values - t)[off].min() >= MARGIN for t in thresholds)


class TestPairwiseKernel:
    """first_pair_outside against the Gram / arccos formulas it replaced,
    on inputs whose pairs all sit at least MARGIN from every threshold."""

    def check(self, cases, verdicts):
        # Both verdicts must occur, so both branches are compared.
        seen = {True: 0, False: 0}
        for old, new in cases:
            assert new == old
            seen[old is None] += 1
        assert min(seen.values()) >= verdicts

    def test_families(self):
        rng = np.random.default_rng(11)

        def cases():
            while True:
                n = int(rng.integers(2, 6))
                c = rng.uniform(-1.0, 1.0, (int(rng.integers(2, 12)), n)) * rng.uniform(0.3, 2.5)
                r = rng.uniform(0.5, 1.5, c.shape[0])
                limit = r[:, None] + r[None, :] + DEFAULT_TOL
                gaps = np.linalg.norm(c[:, None] - c[None, :], axis=-1)
                if not clear_of(gaps, [limit]):
                    continue
                sq = np.einsum("ij,ij->i", c, c)
                d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * c @ c.T, 0.0)
                old = gram_first_pair(d2 > limit**2)
                balls = tuple(Ball(x, float(y)) for x, y in zip(c, r))
                assert first_non_intersecting_pair(balls) == old
                yield old, pair_raised(lambda: BallFamily(n, balls))

        self.check(itertools.islice(cases(), 300), 60)

    def test_cap_bodies(self):
        rng = np.random.default_rng(12)

        def cases():
            while True:
                n = int(rng.integers(3, 6))
                axes = random_units(int(rng.integers(0, 1 << 30)), int(rng.integers(2, 8)), n)
                caps = rng.uniform(0.05, 0.7, axes.shape[0])
                need = caps[:, None] + caps[None, :] - DEFAULT_TOL
                angles = gram_angles(axes)
                if not clear_of(angles, [need]):
                    continue
                body = SpikyBall(n, axes / np.cos(caps)[:, None])
                old = gram_first_pair(angles < need)
                assert is_cap_body(body) == (old is None, old)
                yield old, pair_raised(lambda: CapBody(body))

        self.check(itertools.islice(cases(), 300), 60)

    def test_packings(self):
        rng = np.random.default_rng(13)

        def cases():
            while True:
                n = int(rng.integers(2, 6))
                c = random_units(int(rng.integers(0, 1 << 30)), int(rng.integers(2, 8)), n)
                sep = float(rng.uniform(0.2, 1.6))
                angles = gram_angles(c)
                if not clear_of(angles, [sep - DEFAULT_TOL]):
                    continue
                old = gram_first_pair(angles < sep - DEFAULT_TOL)
                yield old, pair_raised(lambda: Packing(n, sep, c))

        self.check(itertools.islice(cases(), 300), 60)

    def test_separated_sets(self):
        rng = np.random.default_rng(14)
        lo, hi = math.pi / 3 - DEFAULT_TOL, 2 * math.pi / 3 + DEFAULT_TOL

        def cases():
            while True:
                n = int(rng.integers(3, 7))
                p = random_units(int(rng.integers(0, 1 << 30)), int(rng.integers(2, 5)), n)
                angles = gram_angles(p)
                if not clear_of(angles, [lo, hi]):
                    continue
                old = gram_first_pair((angles < lo) | (angles > hi))
                yield old, pair_raised(lambda: SeparatedSet(n, p))

        self.check(itertools.islice(cases(), 300), 30)

    def test_tiny_and_antipodal_angles(self):
        e = np.array([[1.0, 0.0, 0.0], [math.cos(1e-8), math.sin(1e-8), 0.0]])
        assert first_pair_outside(e, low=0.99e-8, angles=True) is None
        assert first_pair_outside(e, low=1.01e-8, angles=True) == (0, 1)
        flip = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert first_pair_outside(flip, high=math.pi - 1e-12, angles=True) == (0, 1)
        assert first_pair_outside(flip[:1], low=1.0, angles=True) is None


class TestBlockedPairs:
    @pytest.mark.parametrize("block", [1, 7, 64, 2**16])
    def test_first_pair_matches_dense(self, block, monkeypatch):
        # Many violating pairs, so the row-major first one is what counts.
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        monkeypatch.setattr(geometry, "_EXACT_PAIRS", 0)
        rng = np.random.default_rng(block)
        for _ in range(40):
            m = int(rng.integers(2, 40))
            c = rng.uniform(-2.0, 2.0, (m, 3))
            r = rng.uniform(0.2, 1.5, m)
            want = dense_first_pair(c, high=r, tol=1e-9)
            assert first_pair_outside(c, high=r, tol=1e-9) == want
            u = random_units(int(rng.integers(0, 1 << 30)), m, 3)
            lo, hi = float(rng.uniform(0.2, 1.0)), float(rng.uniform(1.5, 3.0))
            want = dense_first_pair(u, lo, hi, angles=True, tol=1e-9)
            assert first_pair_outside(u, lo, hi, angles=True, tol=1e-9) == want
            caps = rng.uniform(0.05, 0.6, m)
            want = dense_first_pair(u, low=caps, angles=True, tol=1e-9)
            assert first_pair_outside(u, low=caps, angles=True, tol=1e-9) == want

    def test_limit_shape_checked(self):
        with pytest.raises(ValueError):
            first_pair_outside(np.eye(3), high=np.ones(2))

    def test_memory_bounded(self):
        # The dense check held m x m distances and limits: 163 MB traced
        # for these 3,000 balls.
        rng = np.random.default_rng(3)
        d = rng.standard_normal((3000, 3))
        centers = d / np.linalg.norm(d, axis=1)[:, None] * rng.random(3000)[:, None] ** (1 / 3)
        balls = tuple(Ball(c, 1.0) for c in centers)
        tracemalloc.start()
        try:
            family = BallFamily(3, balls)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(family) == 3000
        assert peak < 8 * 2**20


def on_window_pairs(rng, rows, count):
    """Random distinct index pairs (i, j), i != j, to put on a window."""
    m = rows.shape[0]
    i = rng.integers(0, m, count)
    j = (i + rng.integers(1, m, count)) % m
    return zip(i.tolist(), j.tolist())


@pytest.fixture(params=["gram", "exact"])
def pair_path(request, monkeypatch):
    """Run first_pair_outside and verify_piercing through the Gram filter
    at every size, or through their exact formulas alone."""
    limit = 0 if request.param == "gram" else 10**9
    monkeypatch.setattr(geometry, "_EXACT_PAIRS", limit)
    monkeypatch.setattr(piercing, "_EXACT_PAIRS", limit)
    return request.param


class TestPairKernel:
    """The Gram pair kernel against the dense oracles of conftest, on
    pairs placed exactly on their windows, where rounding decides."""

    @staticmethod
    def scaled(rng, m, n):
        scale = 10.0 ** rng.uniform(-9.0, 9.0)
        offset = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(0.0, 9.0)
        return offset + scale * rng.standard_normal((m, n)), scale

    def test_tangent_balls(self, pair_path):
        rng = np.random.default_rng(101)
        outcomes = set()
        for _ in range(400):
            n, m = int(rng.integers(2, 11)), int(rng.integers(2, 24))
            c, scale = self.scaled(rng, m, n)
            r = scale * rng.uniform(0.2, 2.0, m)
            tol = float(rng.choice([0.0, 1e-9, 1e-9 * scale]))
            for i, j in on_window_pairs(rng, c, 4):
                d = float(pair_distances(c[i], c[j]))
                if d - r[i] - tol > 0:
                    r[j] = d - r[i] - tol
            want = dense_first_pair(c, high=r, tol=tol)
            assert first_pair_outside(c, high=r, tol=tol) == want
            outcomes.add(want is None)
            assert first_pair_outside(c, low=r, tol=tol) == dense_first_pair(c, low=r, tol=tol)
            i, j = next(iter(on_window_pairs(rng, c, 1)))
            d = float(pair_distances(c[i], c[j]))
            for lo, hi in ((d + tol, math.inf), (-math.inf, d - tol), (d + tol, 2 * d)):
                want = dense_first_pair(c, lo, hi, tol=tol)
                assert first_pair_outside(c, lo, hi, tol=tol) == want
        assert outcomes == {True, False}

    def test_angles_on_window(self, pair_path):
        rng = np.random.default_rng(102)
        outcomes = set()
        for _ in range(400):
            n, m = int(rng.integers(2, 11)), int(rng.integers(2, 24))
            u = random_units(int(rng.integers(0, 1 << 30)), m, n)
            pick = rng.integers(0, m, 2)
            u[pick[1]] = -u[pick[0]] if rng.random() < 0.5 else u[pick[0]]
            u *= 1.0 + rng.uniform(-1e-9, 1e-9, (m, 1))
            caps = rng.uniform(0.05, 0.7, m)
            tol = float(rng.choice([0.0, 1e-9]))
            for i, j in on_window_pairs(rng, u, 4):
                d = pair_distances(u[i], u[j])
                angle = float(2.0 * np.arcsin(np.minimum(0.5 * d, 1.0)))
                if 0 < angle + tol - caps[i] < math.pi / 2:
                    caps[j] = angle + tol - caps[i]
            want = dense_first_pair(u, low=caps, angles=True, tol=tol)
            assert first_pair_outside(u, low=caps, angles=True, tol=tol) == want
            outcomes.add(want is None)
            i, j = next(iter(on_window_pairs(rng, u, 1)))
            d = pair_distances(u[i], u[j])
            angle = float(2.0 * np.arcsin(np.minimum(0.5 * d, 1.0)))
            for lo, hi in ((angle + tol, math.inf), (-math.inf, angle - tol),
                           (angle + tol, math.pi), (math.pi / 3, angle - tol)):
                want = dense_first_pair(u, lo, hi, angles=True, tol=tol)
                assert first_pair_outside(u, lo, hi, angles=True, tol=tol) == want
        assert outcomes == {True, False}

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e150, 1e160, 1e300])
    def test_squares_past_the_double_range(self, pair_path, scale):
        # Squares that underflow or overflow leave every pair to the
        # exact formula, whose verdict (inf included) is the oracle's.
        rng = np.random.default_rng(103)
        for _ in range(20):
            c = scale * rng.standard_normal((12, 3))
            r = scale * rng.uniform(0.5, 2.0, 12)
            assert first_pair_outside(c, high=r) == dense_first_pair(c, high=r)
            assert first_pair_outside(c, low=r) == dense_first_pair(c, low=r)

    def test_verify_piercing_points_on_spheres(self, pair_path):
        rng = np.random.default_rng(104)
        outcomes = set()
        for _ in range(300):
            n, m = int(rng.integers(2, 11)), int(rng.integers(1, 30))
            v, scale = self.scaled(rng, m, n)
            offset = v[0].copy()
            centers = offset + 0.5 * (v - offset) / max(1.0, float(np.abs(v - offset).max()) / scale)
            radii = scale * rng.uniform(1.0, 1.5, m)
            family = BallFamily(n, Balls(centers, radii))
            out = random_units(int(rng.integers(0, 1 << 30)), m, n)
            points = centers + radii[:, None] * out
            points = points[rng.random(m) < 0.7]
            if points.shape[0] == 0:
                points = centers[:1] + radii[0] * out[:1]
            tol = float(rng.choice([0.0, 1e-9]))
            want = dense_first_missed(centers, radii, points, tol)
            assert verify_piercing(family, points, tol) == (want is None, want)
            outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_pair_distances_match_cdist(self):
        # The exact formula sums squares in cdist's order, so the values,
        # and every verdict taken on them, are cdist's to the bit.
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(106)
        for n in range(2, 13):
            x, _ = self.scaled(rng, 40, n)
            y = x[rng.permutation(40)] + rng.standard_normal((40, n))
            assert pair_distances(x.T, y.T).tobytes() == np.diag(cdist(x, y)).tobytes()
            dense = pair_distances(x.T[:, :, None], y.T[:, None, :])
            assert dense.tobytes() == cdist(x, y).tobytes()

    def test_band_holds_the_true_sign(self):
        # Outside its band the computed gap has the sign of the exact
        # one, computed here in rationals from the float inputs.
        from fractions import Fraction

        rng = np.random.default_rng(105)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            x, scale = self.scaled(rng, 6, n)
            h = scale * rng.uniform(0.0, 2.0, 6)
            d = pair_distances(x[0], x[1])
            h[1] = max(0.0, d - h[0])
            rows = gram_rows(x, h, x[0])
            gap, band = gram_gaps(rows, rows)
            for i, j in itertools.product(range(6), repeat=2):
                true = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x[i], x[j]))
                true -= (Fraction(h[i]) + Fraction(h[j])) ** 2
                if abs(gap[i, j]) > band[i]:
                    assert (gap[i, j] > 0) == (true > 0)
