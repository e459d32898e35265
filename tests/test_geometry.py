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
from gallai import geometry
from gallai.errors import PairwiseError
from gallai.geometry import first_pair_outside
from gallai.piercing import first_non_intersecting_pair

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


def dense_first_pair(rows, low, high, angles):
    """The unblocked check over full m x m distance and limit arrays."""
    d = np.linalg.norm(rows[:, None] - rows[None, :], axis=-1)
    if angles:
        d = 2.0 * np.arcsin(np.minimum(0.5 * d, 1.0))
    bad = np.triu((d < low) | (d > high), k=1)
    if not bad.any():
        return None
    return divmod(int(np.argmax(bad)), rows.shape[0])


class TestBlockedPairs:
    @pytest.mark.parametrize("block", [1, 7, 64, 2**16])
    def test_first_pair_matches_dense(self, block, monkeypatch):
        # Many violating pairs, so the row-major first one is what counts.
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(block)
        for _ in range(40):
            m = int(rng.integers(2, 40))
            c = rng.uniform(-2.0, 2.0, (m, 3))
            r = rng.uniform(0.2, 1.5, m)
            want = dense_first_pair(c, -math.inf, r[:, None] + r[None, :] + 1e-9, False)
            assert first_pair_outside(c, high=r, tol=1e-9) == want
            u = random_units(int(rng.integers(0, 1 << 30)), m, 3)
            lo, hi = float(rng.uniform(0.2, 1.0)), float(rng.uniform(1.5, 3.0))
            want = dense_first_pair(u, lo - 1e-9, hi + 1e-9, True)
            assert first_pair_outside(u, lo, hi, angles=True, tol=1e-9) == want
            caps = rng.uniform(0.05, 0.6, m)
            want = dense_first_pair(u, caps[:, None] + caps[None, :] - 1e-9, math.inf, True)
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
