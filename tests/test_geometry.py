"""Unit tests for the core geometric primitives."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gallai import (
    DEFAULT_TOL,
    Ball,
    BallFamily,
    Balls,
    CapBody,
    Cover,
    DirectionSet,
    Packing,
    SeparatedSet,
    SpikyBall,
    SymmetricSeparatedSet,
    is_cap_body,
    verifies_illumination,
)
from gallai import geometry
from gallai.errors import PairwiseError
from gallai.geometry import first_pair_outside, gram_gaps, gram_rows, pair_distances
from gallai.piercing import first_non_intersecting_pair, verify_piercing

from conftest import (
    angular_distance,
    ball_points,
    dense_first_missed,
    dense_first_pair,
    lights,
    traced_peak,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def random_units(seed, count, dim=3):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1)[:, None]


def spikes(axes, caps):
    """Spiky ball whose spikes cut caps of the given radii about the axes."""
    axes = np.asarray(axes, dtype=float)
    return SpikyBall(axes.shape[1], axes / np.cos(np.asarray(caps, dtype=float))[:, None])


class TestAngularDistance:
    """Angles of the pair kernel (``first_pair_outside`` with
    ``angles``), against the arccos oracle where one is needed."""

    def test_identity(self):
        assert first_pair_outside([E1, E1], high=0.0, angles=True) is None
        assert first_pair_outside([E1, E1], low=1e-12, angles=True) == (0, 1)

    def test_orthogonal(self):
        right = math.pi / 2
        assert first_pair_outside([E1, E2], right - 1e-15, right + 1e-15, angles=True) is None
        assert first_pair_outside([E1, E2], low=right + 1e-12, angles=True) == (0, 1)
        assert first_pair_outside([E1, E2], high=right - 1e-12, angles=True) == (0, 1)

    def test_antipodal(self):
        assert first_pair_outside([E1, -E1], low=math.pi - 1e-15, angles=True) is None
        assert first_pair_outside([E1, -E1], high=math.pi - 1e-12, angles=True) == (0, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            first_pair_outside([E1, np.array([1.0, 0.0])], angles=True)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_triangle_inequality(self, seed):
        u, v, w = random_units(seed, 3)
        bound = angular_distance(u, v) + angular_distance(v, w) + 1e-9
        assert first_pair_outside([u, w], high=bound, angles=True) is None

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_symmetry(self, seed):
        u, v = random_units(seed, 2)
        angle = angular_distance(u, v)
        assert first_pair_outside([u, v], angle - 1e-6, angle + 1e-6, angles=True) is None
        for lo, hi in ((angle + 1e-6, math.inf), (-math.inf, angle - 1e-6)):
            assert first_pair_outside([u, v], lo, hi, angles=True) == (0, 1)
            assert first_pair_outside([v, u], lo, hi, angles=True) == (0, 1)


class TestCaps:
    """Cap semantics of the batch checks: ``is_cap_body`` on the closed
    caps the spikes cut, ``verifies_illumination`` on the open caps of
    directions that light them."""

    def test_axis_in_closed_cap(self):
        # The antipode of a spike's axis lights it, however short it is.
        for norm in (1.0 + 1e-6, math.sqrt(2.0), 2.0, 10.0):
            assert lights(norm, 0.0)

    def test_open_cap_boundary_excluded(self):
        # The spike at norm 2 is lit by an open cap of radius pi/6: a
        # dot with its axis must pass cos(pi/6) by more than DEFAULT_TOL.
        assert lights(2.0, math.pi / 6 - 1e-6)
        assert not lights(2.0, math.pi / 6)
        edge = math.cos(math.pi / 6)
        assert lights(2.0, math.acos(edge + 2 * DEFAULT_TOL))
        assert not lights(2.0, math.acos(edge + DEFAULT_TOL / 2))

    def test_closed_cap_boundary_included(self):
        # A pi/4 cap and a pi/6 cap may touch at their rims.
        for gap, ok in ((5 * math.pi / 12, True), (5 * math.pi / 12 - 1e-6, False)):
            axes = [[1.0, 0.0], [math.cos(gap), math.sin(gap)]]
            assert is_cap_body(spikes(axes, [math.pi / 4, math.pi / 6]))[0] is ok

    def test_validation(self):
        with pytest.raises(ValueError):
            DirectionSet(3, [E1 * 2.0])  # direction not unit
        with pytest.raises(ValueError):
            SpikyBall(3, [E1])  # norm 1 cuts an empty cap
        with pytest.raises(ValueError):
            SpikyBall(3, [[2.0, 0.0]])  # dimension mismatch

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 1.4), st.floats(0.01, 0.3))
    def test_monotone_in_radius(self, seed, radius, widen):
        # Widening one cap can only make two caps overlap.
        u, p = random_units(seed, 2)
        if radius + widen >= math.pi / 2:
            return
        if is_cap_body(spikes([u, p], [radius + widen, radius]))[0]:
            assert is_cap_body(spikes([u, p], [radius, radius]))[0]

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1.01, 5.0), st.floats(0.0, 1.6))
    def test_open_implies_closed(self, norm, angle):
        # Inside the open cap with slack DEFAULT_TOL is inside it without
        # slack: the dot with the axis passes the cap's cosine.
        if lights(norm, angle):
            assert math.cos(angle) > math.sqrt(1.0 - 1.0 / norm**2)


class TestBalls:
    """Ball intersection and containment through the batch checks."""

    def test_tangent_intersect(self):
        assert first_non_intersecting_pair([Ball([0, 0], 1), Ball([3, 0], 2)]) is None

    def test_separated(self):
        assert first_non_intersecting_pair([Ball([0, 0], 1), Ball([3.1, 0], 2)]) == (0, 1)

    def test_nested(self):
        assert first_non_intersecting_pair([Ball([0, 0], 1), Ball([0, 0], 5)]) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            first_non_intersecting_pair([Ball([0, 0], 1), Ball([0, 0, 0], 1)])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_intersect_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        a = Ball(rng.standard_normal(3), float(rng.uniform(0.1, 3.0)))
        b = Ball(rng.standard_normal(3), float(rng.uniform(0.1, 3.0)))
        assert (first_non_intersecting_pair([a, b]) is None) == (
            first_non_intersecting_pair([b, a]) is None
        )

    def test_point_in_ball(self):
        # The slack is DEFAULT_TOL in units of the smallest radius, at
        # every scale.
        for s in (1.0, 1e-12, 1e12):
            family = BallFamily(2, (Ball([0, 0], s),))
            for x, ok in ((0.0, True), (1.0, True), (1.0 + DEFAULT_TOL / 2, True),
                          (1.0 + 2 * DEFAULT_TOL, False), (100.0, False)):
                want = (True, None) if ok else (False, 0)
                assert verify_piercing(family, np.array([[x * s, 0.0]])) == want

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


UNIT_ROW_TYPES = {
    "DirectionSet": lambda rows: DirectionSet(2, rows),
    "Cover": lambda rows: Cover(2, 1.0, rows),
    "Packing": lambda rows: Packing(2, 0.5, rows),
    "SeparatedSet": lambda rows: SeparatedSet(2, rows),
    "SymmetricSeparatedSet": lambda rows: SymmetricSeparatedSet(2, rows),
}


class TestNonFiniteRows:
    """Domain types reject rows with a NaN or infinite coordinate."""

    @pytest.mark.parametrize("make", UNIT_ROW_TYPES.values(), ids=UNIT_ROW_TYPES.keys())
    @pytest.mark.parametrize("row", [[math.nan, math.nan], [math.nan, 0.0], [0.0, math.inf]])
    def test_unit_rows(self, make, row):
        with pytest.raises(ValueError, match=r"^\w+\[0\] is not a unit vector \(norm (nan|inf)\)$"):
            make([row, [-1.0, 0.0]])

    def test_unit_row_message_prints_a_plain_float(self):
        with pytest.raises(ValueError) as got:
            DirectionSet(2, [[1.0, 0.0], [2.0, 0.0]])
        assert str(got.value) == "directions[1] is not a unit vector (norm 2.0)"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_spiky_ball_vertices(self, bad):
        with pytest.raises(ValueError, match=r"^vertex 1 has a non-finite coordinate$"):
            SpikyBall(2, [[2.0, 0.0], [bad, 2.0]])

    def test_spiky_ball_message_prints_a_plain_float(self):
        with pytest.raises(ValueError) as got:
            SpikyBall(2, [[2.0, 0.0], [0.5, 0.0]])
        assert str(got.value) == "vertex 1 has norm 0.5; must exceed 1"


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
                yield old, pair_raised(lambda: CapBody(n, body.vertices))

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
            r = rng.uniform(0.2, 1.5, m) + 0.5e-9
            assert first_pair_outside(c, high=r) == dense_first_pair(c, high=r)
            u = random_units(int(rng.integers(0, 1 << 30)), m, 3)
            lo, hi = float(rng.uniform(0.2, 1.0)) - 1e-9, float(rng.uniform(1.5, 3.0)) + 1e-9
            want = dense_first_pair(u, lo, hi, angles=True)
            assert first_pair_outside(u, lo, hi, angles=True) == want
            caps = rng.uniform(0.05, 0.6, m) - 0.5e-9
            want = dense_first_pair(u, low=caps, angles=True)
            assert first_pair_outside(u, low=caps, angles=True) == want

    def test_limit_shape_checked(self):
        with pytest.raises(ValueError):
            first_pair_outside(np.eye(3), high=np.ones(2))

    @staticmethod
    def two_clusters(m):
        """About half the rows radius-1 balls within 0.2 of (10.5, 0, 0),
        the rest radius-10 balls within 0.2 of the origin: pairwise
        intersecting, and the small balls miss the centroid, so their rows
        are hot."""
        rng = np.random.default_rng(4)
        small = rng.random(m) < 0.5
        centers = ball_points(rng, 3, m, radius=0.2)
        centers[small, 0] += 10.5
        return centers, np.where(small, 1.0, 10.0)

    def test_memory_bounded(self):
        # The dense check held m x m distances and limits: 163 MB traced
        # for these 3,000 balls inside the unit ball. All but 21 of their
        # rows are cold (the centroid is 0.01 off the origin), so the
        # kernel sees few pairs; the family below keeps it busy.
        rng = np.random.default_rng(3)
        d = rng.standard_normal((3000, 3))
        centers = d / np.linalg.norm(d, axis=1)[:, None] * rng.random(3000)[:, None] ** (1 / 3)
        balls = tuple(Ball(c, 1.0) for c in centers)
        assert clear_hot_rows(centers, np.full(3000, 1.0 + DEFAULT_TOL / 2)).size == 21
        family, peak = traced_peak(lambda: BallFamily(3, balls))
        assert len(family) == 3000
        assert peak < 8 * 2**20

    def test_memory_bounded_with_hot_rows(self):
        centers, radii = self.two_clusters(300)
        assert first_non_intersecting_pair(Balls(centers, radii)) is None
        assert dense_first_pair(centers, high=radii + DEFAULT_TOL / 2) is None
        centers, radii = self.two_clusters(3000)
        assert clear_hot_rows(centers, radii + DEFAULT_TOL / 2).size >= 1000
        balls = Balls(centers, radii)
        family, peak = traced_peak(lambda: BallFamily(3, balls))
        assert len(family) == 3000
        assert peak < 8 * 2**20


class TestPairsWithin:
    """The blocks of ``pairs_within`` against the dense verdict."""

    @pytest.mark.parametrize("block", [1, 7, geometry._PAIR_BLOCK])
    @pytest.mark.parametrize("exact", [0, geometry._EXACT_PAIRS])
    def test_blocks_match_dense(self, block, exact, monkeypatch):
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        monkeypatch.setattr(geometry, "_EXACT_PAIRS", exact)
        rng = np.random.default_rng([block, exact])
        for _ in range(30):
            n, k, l = int(rng.integers(2, 6)), int(rng.integers(1, 60)), int(rng.integers(1, 40))
            scale, offset = scale_and_offset(rng, n)
            x = offset + scale * rng.standard_normal((k, n))
            y = offset + scale * rng.standard_normal((l, n))
            dense = pair_distances(x.T[:, :, None], y.T[:, None, :])
            # About half the limits lie exactly on a distance of their row,
            # where rounding decides; a scalar limit now and then.
            limits = np.where(rng.random(k) < 0.5, dense[np.arange(k), rng.integers(0, l, k)],
                              scale * rng.uniform(0.5, 3.0, k))
            if rng.random() < 0.2:
                limits = float(limits[0])
            want = dense <= np.broadcast_to(limits, (k,))[:, None]
            subset = rng.permutation(k)[: int(rng.integers(1, k + 1))]
            for index in (None, subset, np.array([], dtype=int)):
                blocks = list(geometry.pairs_within(x, y, limits, index))
                rows = [int(i) for r, _ in blocks for i in r]
                assert rows == (list(range(k)) if index is None else index.tolist())
                if blocks:  # the first block fits the exact formula
                    assert blocks[0][0].size * l <= max(min(exact, block), l)
                for r, inside in blocks:
                    assert r.size * l <= max(block, l)
                    assert inside.tolist() == want[r].tolist()


class TestMaxDots:
    @pytest.mark.parametrize("block", [1, 7, geometry._PAIR_BLOCK])
    def test_matches_dense(self, block, monkeypatch):
        # A block's product may round a dot differently in its last bit
        # than the whole product does (BLAS picks its kernel by shape).
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(block)
        for k, l, n in ((1, 1, 2), (50, 3, 3), (301, 40, 8)):
            a, b = rng.standard_normal((k, n)), rng.standard_normal((l, n))
            got = geometry.max_dots(a, b)
            assert got.shape == (k,)
            np.testing.assert_allclose(got, (a @ b.T).max(axis=1), rtol=1e-13, atol=1e-13)


def on_window_pairs(rng, rows, count):
    """Random distinct index pairs (i, j), i != j, to put on a window."""
    m = rows.shape[0]
    i = rng.integers(0, m, count)
    j = (i + rng.integers(1, m, count)) % m
    return zip(i.tolist(), j.tolist())


def scale_and_offset(rng, n):
    """A scale in 1e-9..1e9 and an offset of up to 1e9 per coordinate."""
    scale = 10.0 ** rng.uniform(-9.0, 9.0)
    return scale, rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(0.0, 9.0)


@pytest.fixture(params=["gram", "exact"])
def pair_path(request, monkeypatch):
    """Run first_pair_outside and verify_piercing through the Gram filter
    at every size, or through their exact formulas alone."""
    limit = 0 if request.param == "gram" else 10**9
    monkeypatch.setattr(geometry, "_EXACT_PAIRS", limit)
    return request.param


class TestPairKernel:
    """The Gram pair kernel against the dense oracles of conftest, on
    pairs placed exactly on their windows, where rounding decides."""

    @staticmethod
    def scaled(rng, m, n):
        scale, offset = scale_and_offset(rng, n)
        return offset + scale * rng.standard_normal((m, n)), scale

    def test_tangent_balls(self, pair_path):
        rng = np.random.default_rng(101)
        outcomes = set()
        for _ in range(400):
            n, m = int(rng.integers(2, 11)), int(rng.integers(2, 24))
            c, scale = self.scaled(rng, m, n)
            # Halves with a slack of 0, 1e-9 or 1e-9 scale folded in.
            r = scale * rng.uniform(0.2, 2.0, m) + float(rng.choice([0.0, 1e-9, 1e-9 * scale])) / 2
            for i, j in on_window_pairs(rng, c, 4):
                d = float(pair_distances(c[i], c[j]))
                if d - r[i] > 0:
                    r[j] = d - r[i]
            want = dense_first_pair(c, high=r)
            assert first_pair_outside(c, high=r) == want
            outcomes.add(want is None)
            assert first_pair_outside(c, low=r) == dense_first_pair(c, low=r)
            i, j = next(iter(on_window_pairs(rng, c, 1)))
            d = float(pair_distances(c[i], c[j]))
            for lo, hi in ((d, math.inf), (-math.inf, d), (d, 2 * d)):
                assert first_pair_outside(c, lo, hi) == dense_first_pair(c, lo, hi)
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
            # Halves with a slack of 0 or 1e-9 folded in.
            caps = rng.uniform(0.05, 0.7, m) - float(rng.choice([0.0, 1e-9])) / 2
            for i, j in on_window_pairs(rng, u, 4):
                d = pair_distances(u[i], u[j])
                angle = float(2.0 * np.arcsin(np.minimum(0.5 * d, 1.0)))
                if 0 < angle - caps[i] < math.pi / 2:
                    caps[j] = angle - caps[i]
            want = dense_first_pair(u, low=caps, angles=True)
            assert first_pair_outside(u, low=caps, angles=True) == want
            outcomes.add(want is None)
            i, j = next(iter(on_window_pairs(rng, u, 1)))
            d = pair_distances(u[i], u[j])
            angle = float(2.0 * np.arcsin(np.minimum(0.5 * d, 1.0)))
            for lo, hi in ((angle, math.inf), (-math.inf, angle), (angle, math.pi),
                           (math.pi / 3, angle)):
                want = dense_first_pair(u, lo, hi, angles=True)
                assert first_pair_outside(u, lo, hi, angles=True) == want
        assert outcomes == {True, False}

    @pytest.mark.parametrize("angles", [False, True])
    def test_slack_as_large_as_the_half(self, angles, monkeypatch):
        # Halves r - s r with s = 1 - 1e-12, 1 or 1.5, as a folded slack as
        # large as the half leaves them: tiny, zero or negative. The Gram
        # filter reads them as given, with no rule of its own that sends
        # them to the exact formula, and must agree with the oracle. Some
        # pairs are duplicate rows, at distance 0, and some sit on their
        # windows.
        monkeypatch.setattr(geometry, "_EXACT_PAIRS", 0)
        rng = np.random.default_rng(110 + angles)
        outcomes = set()
        for _ in range(300):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 30))
            if angles:
                x, r = random_units(int(rng.integers(0, 1 << 30)), m, n), rng.uniform(0.05, 0.7, m)
            else:
                x, scale = self.scaled(rng, m, n)
                r = scale * rng.uniform(0.2, 2.0, m)
            pick = rng.integers(0, m, 2)
            x[pick[1]] = x[pick[0]]
            h = r - rng.choice([1.0 - 1e-12, 1.0, 1.5], m) * r
            for i, j in on_window_pairs(rng, x, 2):
                d = float(pair_distances(x[i], x[j]))
                if angles:
                    d = 2.0 * math.asin(min(0.5 * d, 1.0))
                h[j] = d - h[i]
            for low, high in ((h, math.inf), (-math.inf, h), (h, h + r)):
                want = dense_first_pair(x, low, high, angles=angles)
                assert first_pair_outside(x, low, high, angles=angles) == want
                outcomes.add(want is None)
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
            # On each sphere grown to its limit r (1 + gamma) + slack, a
            # slack inside it, or a slack beyond.
            slack = DEFAULT_TOL * float(radii.min())
            limits = radii * (1 + geometry.rounding(n)) + slack
            grown = limits + rng.choice([-1.0, 0.0, 1.0], m) * slack
            points = centers + grown[:, None] * out
            points = points[rng.random(m) < 0.7]
            if points.shape[0] == 0:
                points = centers[:1] + grown[0] * out[:1]
            want = dense_first_missed(centers, limits, points)
            assert verify_piercing(family, points) == (want is None, want)
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


def clear_hot_rows(c, r):
    """The rows the anchor bound of ``first_pair_outside`` must call hot
    for the halves r: those with e_i = |c_i - o| - r_i (o the row mean)
    above 0. None if some e_i lies within 1e-6 of the family's scale of
    0, where rounding decides, or if some half is not finite."""
    if not np.isfinite(r).all():
        return None
    d = np.linalg.norm(c - c.mean(axis=0), axis=1)
    e = d - r
    if (np.abs(e) <= 1e-6 * (d.max() + np.abs(r).max())).any():
        return None
    return np.flatnonzero(e > 0)


class TestAnchorBound:
    """``first_pair_outside`` on ball families whose rows the anchor bound
    calls cold (no hot rows), partly hot or all hot, scaled and offset,
    with violating or tangent pairs planted, against the dense oracle,
    through the Gram filter in blocks of a few rows."""

    @staticmethod
    def family(rng, kind):
        """Unscaled centers and radii. "cold": every ball holds the
        centroid with room to spare. "few": that cluster plus one to three
        balls 3 away, whose radii fall short of the centroid. "hot":
        random unit vectors in R^30..R^39, radii 0.8..0.9."""
        if kind == "hot":
            n, m = int(rng.integers(30, 40)), int(rng.integers(8, 40))
            return random_units(int(rng.integers(0, 1 << 30)), m, n), rng.uniform(0.8, 0.9, m)
        n, m = int(rng.integers(2, 8)), int(rng.integers(20, 60))
        c = 0.3 * rng.uniform(-1.0, 1.0, (m, n)) / math.sqrt(n)
        r = rng.uniform(1.0, 1.2, m)
        if kind == "few":
            few = rng.choice(m, int(rng.integers(1, 4)), replace=False)
            axis = random_units(int(rng.integers(0, 1 << 30)), 1, n)[0]
            c[few] = 3.0 * axis + 0.2 * random_units(int(rng.integers(0, 1 << 30)), few.size, n)
            r[few] = 2.4
        return c, r

    @staticmethod
    def plant(rng, c, r, hot):
        """Shrink hot radii so that chosen pairs leave their windows, or,
        half the time, sit exactly on them: one hot-hot pair; a cold row
        and an earlier hot row against the last hot row, so that the first
        pair is the cold row's; or three pairs with a hot end. Returns
        what was planted."""
        cold = np.setdiff1d(np.arange(r.size), hot)
        tangent = bool(rng.random() < 0.5)

        def shrink(i, j):
            # Radius j on the window of the pair (i, j), or just inside it.
            w = float(pair_distances(c[i], c[j])) - r[i]
            r[j] = min(r[j], w if tangent else w - 1e-6 * (abs(w) + abs(r[i])))

        kinds = ["none"]
        if hot.size >= 2:
            kinds.append("hot-hot")
        if hot.size and cold.size and cold[0] < hot[-1]:
            kinds.append("cold-first")
        if hot.size:
            kinds.append("several")
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "hot-hot":
            shrink(*rng.choice(hot, 2, replace=False))
        elif kind == "cold-first":
            last = hot[-1]
            if hot.size >= 2:
                shrink(hot[0], last)
            shrink(cold[0], last)
        elif kind == "several":
            for i in rng.choice(hot, 3):
                j = int(rng.integers(r.size))
                if j != i:
                    shrink(j, i)
        return kind

    def test_first_pair_matches_dense(self, monkeypatch):
        monkeypatch.setattr(geometry, "_EXACT_PAIRS", 0)
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", 97)
        kernel_rows = []
        gaps = geometry.gram_gaps

        def counted(left, right):
            kernel_rows.append(left.w.shape[0])
            return gaps(left, right)

        monkeypatch.setattr(geometry, "gram_gaps", counted)
        rng = np.random.default_rng(107)
        seen = []
        for case in range(900):
            c, r = self.family(rng, ("cold", "few", "hot")[case % 3])
            scale, offset = scale_and_offset(rng, c.shape[1])
            # Halves with a slack of 0, 1e-9 or 1e-9 scale folded in.
            c = offset + scale * c
            r = scale * r + float(rng.choice([0.0, 1e-9, 1e-9 * scale])) / 2
            hot = clear_hot_rows(c, r)
            if hot is None:
                continue
            planted = self.plant(rng, c, r, hot)
            if rng.random() < 0.1:
                r[rng.integers(r.size)] = rng.choice([math.inf, -math.inf, math.nan])
            want = dense_first_pair(c, high=r)
            kernel_rows.clear()
            assert first_pair_outside(c, high=r) == want
            # Without a violating pair the kernel takes every hot row as a
            # row and no cold one (the m - 1 rows with a later row when
            # every row is hot).
            hot_after = clear_hot_rows(c, r)
            if want is None and hot_after is not None:
                assert sum(kernel_rows) == min(hot_after.size, r.size - 1)
            share = "cold" if hot.size == 0 else "hot" if hot.size == r.size else "few"
            seen.append((share, planted, want is None, want is not None and want[0] not in hot))
        for share in ("cold", "few", "hot"):
            assert sum(s == (share, "none", True, False) for s in seen) >= 20
        for planted in ("hot-hot", "cold-first", "several"):
            assert sum(s[1] == planted and not s[2] for s in seen) >= 20
        # The row-major first pair starts at a cold row, found in a later
        # block than a hot-hot pair.
        assert sum(s[1] == "cold-first" and s[3] for s in seen) >= 20

    def test_tangent_through_the_anchor(self, pair_path):
        # Rows in pairs o + v, o - v with each radius the computed distance
        # to the row mean: every e_i is 0, and each pair (o + v, o - v) is
        # tangent through the anchor, so rounding alone decides whether it
        # leaves its window. Without the margin every row would be cold.
        rng = np.random.default_rng(109)
        outcomes = set()
        for _ in range(300):
            n, half = int(rng.integers(2, 9)), int(rng.integers(1, 12))
            scale, offset = scale_and_offset(rng, n)
            v = scale * rng.standard_normal((half, n))
            c = (offset + np.concatenate([v, -v]))[rng.permutation(2 * half)]
            r = pair_distances(c.T, c.mean(axis=0)[:, None])
            want = dense_first_pair(c, high=r)
            assert first_pair_outside(c, high=r) == want
            outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_limits_that_are_not_finite(self, monkeypatch):
        # A NaN limit leaves every window of its row unexceeded, so does
        # an infinite one; -inf exceeds every window of its row.
        monkeypatch.setattr(geometry, "_EXACT_PAIRS", 0)
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", 5)
        rng = np.random.default_rng(108)
        for _ in range(100):
            c, r = self.family(rng, "few")
            for value in (math.inf, -math.inf, math.nan):
                r2 = r.copy()
                r2[rng.choice(r.size, int(rng.integers(1, 4)))] = value
                assert first_pair_outside(c, high=r2) == dense_first_pair(c, high=r2)
