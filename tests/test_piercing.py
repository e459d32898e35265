"""Tests for the piercing pipeline and its helper operations."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gallai import (
    Ball,
    BallFamily,
    Balls,
    cap_overlap_radius,
    cover_points_by_balls,
    normalize_family,
    pierce,
    pierce_large,
    refine_ball_cover,
    verify_piercing,
)
from gallai import PairwiseError, files, geometry, piercing, sphere_cover
from gallai.geometry import DEFAULT_TOL, pair_distances
from gallai.piercing import first_non_intersecting_pair
from gallai.sampling import rng_from

from conftest import (
    ball_points,
    cap_points,
    circle_cover_optimum,
    point_in_ball,
    random_intersecting_family,
)


def dense_reference_cover(points, radius):
    """The greedy cover over the full candidates x points distance tensor.

    Same candidates, order and tie-breaks as ``cover_points_by_balls``,
    with every distance computed up front by ``cdist``, whose values
    ``pair_distances`` matches to the bit; memory grows as m^3.
    """
    from scipy.spatial.distance import cdist

    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    if m == 1:
        return pts.copy()
    if m <= 600:
        iu, ju = np.triu_indices(m, k=1)
        candidates = np.concatenate([pts, 0.5 * (pts[iu] + pts[ju])])
    else:
        candidates = pts
    dist = cdist(candidates, pts)
    covered = np.zeros(m, dtype=bool)
    nearest = np.full(m, np.inf)
    centers = []
    while not covered.all():
        open_idx = np.flatnonzero(~covered)
        target = open_idx[int(np.argmax(nearest[open_idx]))]
        able = np.flatnonzero(dist[:, target] <= radius)
        gains = (dist[able][:, ~covered] <= radius).sum(axis=1)
        pick = able[int(np.argmax(gains))]
        centers.append(candidates[pick])
        covered |= dist[pick] <= radius
        np.minimum(nearest, dist[pick], out=nearest)
    return np.array(centers)


def loop_reference_verify(family, points):
    """One ball at a time: (True, None) or (False, first unpierced index),
    with ``cdist``'s distances against the limit r (1 + gamma) + DEFAULT_TOL
    * smallest radius, gamma = ``geometry.rounding(n)``."""
    from scipy.spatial.distance import cdist

    if points.shape[0] == 0:
        return False, 0
    tol = DEFAULT_TOL * min(b.radius for b in family.balls)
    grow = 1 + geometry.rounding(family.dimension)
    for i, b in enumerate(family.balls):
        gaps = cdist(b.center[None, :], points)[0]
        if not (gaps <= b.radius * grow + tol).any():
            return False, i
    return True, None


def assert_same_cover(points, radius):
    got = cover_points_by_balls(points, radius)
    want = dense_reference_cover(points, radius)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return got


class TestBallFamily:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BallFamily(2, ())

    def test_rejects_disjoint_with_pair(self):
        with pytest.raises(ValueError, match="0 and 1"):
            BallFamily(2, (Ball([0, 0], 1), Ball([9, 0], 2)))

    def test_rejects_mixed_dimension(self):
        with pytest.raises(ValueError):
            BallFamily(2, (Ball([0, 0], 1), Ball([0, 0, 0], 1)))

    def test_accepts_tiny_far_families(self):
        # Radii in [1e-6, 2e-6] and centers within 0.99e-6 of a point 1e6
        # from the origin, so every pair overlaps by at least 1% of its
        # radius sum; then the same family scaled up by 1e3.
        rng = np.random.default_rng(2024)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            count = int(rng.integers(2, 30))
            d = rng.standard_normal((count, n))
            d *= (0.99 * rng.random(count) / np.linalg.norm(d, axis=1))[:, None]
            radii = 1e-6 * rng.uniform(1.0, 2.0, count)
            offset = 1e6 * rng.standard_normal(n) / math.sqrt(n)
            centers = offset + 1e-6 * d
            for scale in (1.0, 1e3):
                BallFamily(
                    n,
                    tuple(Ball(scale * c, scale * float(r)) for c, r in zip(centers, radii)),
                )


    def test_array_constructor_matches_balls(self):
        rng = np.random.default_rng(31)
        for far in (False, True):
            centers = rng.uniform(-0.5, 0.5, (12, 3))
            radii = rng.uniform(1.0, 1.5, 12)
            if far:
                centers[7] += 10.0  # ball 7 misses the others
            balls = tuple(Ball(c, float(r)) for c, r in zip(centers, radii))
            built = []
            for make in (lambda: BallFamily(3, balls),
                         lambda: BallFamily(3, Balls(centers, radii))):
                try:
                    built.append(make())
                except PairwiseError as exc:
                    built.append(exc.pair)
            a, b = built
            if far:
                assert a == b == (0, 7)
                continue
            for family in (a, b):
                assert np.array_equal(family.centers(), centers)
                assert np.array_equal(family.radii(), radii)
                assert len(family.balls) == 12
                for arr in (family.centers(), family.radii()):
                    with pytest.raises(ValueError, match="read-only"):
                        arr[0] = 0.0
            centers[0, 0] += 1.0  # the family keeps its own copy
            assert b.centers()[0, 0] != centers[0, 0]

    def test_array_constructor_validates(self):
        with pytest.raises(ValueError, match="ball 1: radius"):
            BallFamily(2, Balls([[0, 0], [1, 0]], [1.0, 0.0]))
        with pytest.raises(ValueError, match="ball 0: coordinates"):
            BallFamily(2, Balls([[math.nan, 0], [1, 0]], [1.0, 1.0]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            BallFamily(3, Balls([[0, 0], [1, 0]], [1.0, 1.0]))
        with pytest.raises(ValueError):
            BallFamily(2, Balls(np.empty((0, 2)), []))
        with pytest.raises(ValueError):
            BallFamily(2, Balls([[0, 0], [1, 0]], [1.0]))

    def test_memory_bounded(self):
        # Parse, family and normalized copy of 20,000 balls in 3D. One
        # Ball object per ball, and a second validated family from
        # normalize_family, took 11 MB traced.
        rng = np.random.default_rng(7)
        m = 20_000
        d = rng.standard_normal((m, 3))
        centers = d / np.linalg.norm(d, axis=1)[:, None] * rng.random(m)[:, None] ** (1 / 3)
        doc = {
            "kind": "ball_family",
            "dimension": 3,
            "balls": [{"center": c, "radius": r}
                      for c, r in zip(centers.tolist(), rng.uniform(1.0, 1.5, m).tolist())],
        }
        tracemalloc.start()
        try:
            dim, balls = files.parse_ball_family(doc)
            normalize_family(BallFamily(dim, balls))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestNormalizeFamily:
    def test_single_ball(self):
        family = BallFamily(2, (Ball([3, 3], 2),))
        centers, radii, scale, offset = normalize_family(family)
        assert np.allclose(centers, [[0, 0]])
        assert radii.tolist() == [1.0]
        assert scale == 2.0
        assert np.allclose(offset, [3, 3])

    def test_already_normalized_is_identity(self):
        family = BallFamily(2, (Ball([0, 0], 1), Ball([1.5, 0], 2)))
        centers, radii, scale, offset = normalize_family(family)
        assert scale == 1.0
        assert np.allclose(offset, [0, 0])
        assert np.array_equal(centers, family.centers())
        assert np.array_equal(radii, family.radii())

    def test_hand_worked_similarity(self):
        # Smallest radius 2 at the origin: scale by 1/2 leaves centers
        # halved and radii halved.
        family = BallFamily(2, (Ball([0, 0], 2), Ball([1, 0], 4)))
        centers, radii, scale, offset = normalize_family(family)
        assert np.allclose(centers, [[0, 0], [0.5, 0]])
        assert radii.tolist() == [1.0, 2.0]
        # The map back that pierce applies to its points.
        assert np.array_equal(offset + scale * centers, family.centers())

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_map_is_rejected(self):
        # Both families are valid, but their normalized copies are not
        # finite: a center maps to -inf, or a radius to inf.
        for centers, radii in (
            ([[1e308, 0], [-1e308, 0]], [1e308, 1e308]),
            ([[0, 0], [0, 0]], [1e-300, 1e300]),
        ):
            family = BallFamily(2, Balls(centers, radii))
            with pytest.raises(ValueError, match="must be finite"):
                normalize_family(family)
            with pytest.raises(ValueError, match="must be finite"):
                pierce(family)


class TestCapOverlapRadius:
    def test_value_at_two(self):
        assert cap_overlap_radius(2.0, 2) == pytest.approx(math.acos(0.75), abs=1e-15)
        assert cap_overlap_radius(2.0, 2) == pytest.approx(0.7227342478134157, abs=1e-12)

    def test_limit_pi_third(self):
        assert cap_overlap_radius(1e9, 3) == pytest.approx(math.pi / 3, abs=1e-6)

    def test_pipeline_threshold_value(self):
        for n in (2, 3, 4, 5):
            expected = math.acos((2 * n + 5) / (4 * (n + 1)))
            assert cap_overlap_radius(float(n), n) == pytest.approx(expected, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cap_overlap_radius(1.9, 3)


class TestPierceLarge:
    def test_circle_count_and_norms(self):
        pts = pierce_large(2)
        assert len(pts) == circle_cover_optimum(math.acos(0.75)) == 5
        assert np.allclose(np.linalg.norm(pts, axis=1), 2.0, atol=1e-12)

    def test_tangent_large_ball_contains_a_point(self):
        # Radius-2 ball tangent to the unit disk from outside; the
        # doubled-circle layer must pierce it (2 = threshold for n=2).
        pts = pierce_large(2)
        ball = Ball([3.0, 0.0], 2.0)
        assert any(point_in_ball(p, ball) for p in pts)

    def test_large_ball_soundness_randomized(self):
        # Any ball with radius >= n intersecting the unit ball must
        # contain a layer point.
        for n in (2, 3, 4):
            pts = pierce_large(n, seed=11)
            rng = rng_from(100 + n)
            for _ in range(25):
                r = float(rng.uniform(n, 6 * n))
                direction = rng.standard_normal(n)
                direction /= np.linalg.norm(direction)
                reach = float(rng.uniform(0.0, r + 1.0))
                ball = Ball(reach * direction, r)
                assert any(point_in_ball(p, ball) for p in pts), (n, r, reach)


class TestCoverPointsByBalls:
    def test_single_point(self):
        out = cover_points_by_balls(np.array([[1.0, 2.0]]), 0.5)
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_non_finite_points_rejected(self):
        # No candidate is within range of a non-finite target, so the
        # greedy loop could never cover it.
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                cover_points_by_balls(np.array([[0.0, 0.0], [bad, 0.0]]), 1.0)

    def test_tight_cluster_one_center(self):
        rng = rng_from(3)
        pts = ball_points(rng, 3, 40, radius=0.9, center=[5, 5, 5])
        centers = cover_points_by_balls(pts, 1.0)
        gaps = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2).min(axis=1)
        assert gaps.max() <= 1.0
        assert len(centers) <= 3

    def test_random_points_all_covered(self):
        rng = rng_from(17)
        pts = ball_points(rng, 2, 100, radius=2.0)
        centers = cover_points_by_balls(pts, 1.0)
        gaps = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2).min(axis=1)
        assert gaps.max() <= 1.0

    def test_deterministic(self):
        rng = rng_from(23)
        pts = ball_points(rng, 3, 60, radius=3.0)
        assert np.array_equal(cover_points_by_balls(pts, 1.0), cover_points_by_balls(pts, 1.0))

    @pytest.mark.parametrize(
        "n, m, spread, radius",
        [
            (2, 200, 0.999, 1.2),  # midpoint candidates, one center
            (3, 120, 0.999, 1.44),
            (4, 90, 3.0, 1.0),  # midpoint candidates, several centers
            (2, 650, 0.999, 1.2),  # points only, past the m <= 600 switch
            (3, 700, 4.0, 1.0),  # points only, several centers
        ],
    )
    def test_matches_dense_reference(self, n, m, spread, radius):
        for seed in range(3):
            pts = ball_points(rng_from(1000 * n + seed), n, m, radius=spread)
            assert_same_cover(pts, radius)

    @pytest.mark.parametrize("n, m", [(2, 40), (3, 60), (4, 90)])
    def test_midpoints_match_dense_reference(self, n, m):
        # Clusters of radius 0.05 at -0.9 e_1, +0.9 e_1 and 3 e_2, in
        # turn by index. At radius 1 no point reaches both of the first
        # two, but a midpoint near the origin does: the first center is
        # a midpoint, built only in that step, and a point of the third
        # cluster then serves the rest.
        offsets = np.zeros((3, n))
        offsets[0, 0], offsets[1, 0], offsets[2, 1] = -0.9, 0.9, 3.0
        for seed in range(3):
            pts = ball_points(rng_from(2000 * n + seed), n, m, radius=0.05)
            pts += offsets[np.arange(m) % 3]
            centers = assert_same_cover(pts, 1.0)
            assert len(centers) == 2
            assert not (centers[0] == pts).all(axis=1).any()
            assert (centers[1] == pts).all(axis=1).any()

    def test_point_serving_the_open_set_ends_the_scan(self, monkeypatch):
        # Point 0 covers the whole cluster, so the first block of
        # candidates settles the only step: it fits the exact formula, so
        # no Gram block is built, the other points and the 44,850
        # midpoints are never scored, and no midpoint is formed.
        pairs = []
        real_distances = geometry.pair_distances

        def counting_distances(xt, yt):
            out = real_distances(xt, yt)
            pairs.append(out.size)
            return out

        def no_gram(*args, **kwargs):
            raise AssertionError("Gram block built")

        pts = ball_points(rng_from(9), 3, 300, radius=0.999, center=[2.0, -1.0, 0.5])
        pts[0] = [2.0, -1.0, 0.5]
        built = self.candidate_sets(monkeypatch)
        monkeypatch.setattr(geometry, "pair_distances", counting_distances)
        monkeypatch.setattr(geometry, "gram_gaps", no_gram)
        centers = cover_points_by_balls(pts, 1.0)
        assert centers.tobytes() == pts[:1].tobytes()
        assert built == [(300, False)]  # the points, without a table
        assert pairs == [(geometry._EXACT_PAIRS // 300) * 300]

    @staticmethod
    def candidate_sets(monkeypatch):
        """The (size, table built) of every candidate set the covers form,
        the points first and then, if a step needs them, the midpoints."""
        built = []
        real = piercing._Candidates

        def spy(candidates, pts, radius):
            side = real(candidates, pts, radius)
            built.append((len(candidates), side.table is not None))
            return side

        monkeypatch.setattr(piercing, "_Candidates", spy)
        return built

    @pytest.mark.parametrize("m", [25, 26, 90, 91])
    def test_table_switch_matches_dense_reference(self, m, monkeypatch):
        # The points' table fits up to m = 90 (m^2 <= 8,192 pairs), the
        # midpoints' up to m = 25 (m (m - 1) / 2 x m pairs). Three
        # clusters make the first center a midpoint, as in
        # test_midpoints_match_dense_reference; a wide spread makes many
        # centers.
        built = self.candidate_sets(monkeypatch)
        offsets = np.zeros((3, 3))
        offsets[0, 0], offsets[1, 0], offsets[2, 1] = -0.9, 0.9, 3.0
        for seed in range(3):
            pts = ball_points(rng_from(3000 + seed), 3, m, radius=0.05)
            assert len(assert_same_cover(pts + offsets[np.arange(m) % 3], 1.0)) == 2
            assert len(assert_same_cover(ball_points(rng_from(4000 + seed), 3, m, 3.0), 1.0)) > 5
        pairs = m * (m - 1) // 2
        assert geometry.exact_fits(m, m) == (m <= 90)
        assert geometry.exact_fits(pairs, m) == (m <= 25)
        assert set(built) == {(m, m <= 90), (pairs, m <= 25)}

    @staticmethod
    def spread_points():
        return rng_from(31).uniform(-5.0, 5.0, (150, 3))

    def test_many_centers_match_dense_reference(self):
        centers = assert_same_cover(self.spread_points(), 0.6)
        assert len(centers) > 20

    LATTICES = [(2, 5), (3, 3), (2, 7), (3, 4), (2, 10)]
    RADII = [1.0, math.sqrt(2.0), 0.5, 2.0]

    @staticmethod
    def lattice_sets(n, side):
        """The grid of side^n points, reversed, scaled by 3 and moved a
        billion units from the origin."""
        grid = np.array(list(itertools.product(range(side), repeat=n)), dtype=float)
        return (grid, grid[::-1].copy(), 3.0 * grid, grid + 1e9)

    @pytest.mark.parametrize("radius", RADII)
    @pytest.mark.parametrize("n, side", LATTICES)
    def test_lattice_ties_match_dense_reference(self, n, side, radius):
        # Grid points and their midpoints sit at distances exactly equal
        # to these radii, so every tie must fall as in the dense tensor,
        # also a billion units from the origin. The grids of 25 and 27
        # points take tables for points and midpoints, those of 49 and
        # 64 for the points alone, that of 100 for neither.
        for pts in self.lattice_sets(n, side):
            assert_same_cover(pts, radius)

    def test_pair_kernel_at_every_size_matches_dense_reference(self, monkeypatch):
        # The same covers with no table and the pair kernel on every
        # block, however small, so its ties fall as the exact norms' do.
        monkeypatch.setattr(geometry, "_EXACT_PAIRS", 0)
        built = self.candidate_sets(monkeypatch)
        grams = []
        real_gaps = geometry.gram_gaps

        def counting_gaps(left, right):
            grams.append(len(left.s))
            return real_gaps(left, right)

        def gram_cover(pts, radius):
            count = len(grams)
            centers = assert_same_cover(pts, radius)
            assert len(grams) > count
            return centers

        monkeypatch.setattr(geometry, "gram_gaps", counting_gaps)
        assert len(gram_cover(self.spread_points(), 0.6)) > 20
        for n, side in self.LATTICES:
            for radius in self.RADII:
                for pts in self.lattice_sets(n, side):
                    gram_cover(pts, radius)
        assert built and not any(table for _, table in built)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pierce_buckets_match_dense_reference(self, n, monkeypatch):
        # Every bucket of seeded pierce runs: families with radii spread
        # over [1, 4n] (many small buckets) and a same-scale cluster (one
        # bucket past the points' table, served by its ball at 0).
        buckets = []
        real = piercing.cover_points_by_balls

        def spy(points, radius):
            buckets.append((np.array(points), radius))
            return real(points, radius)

        monkeypatch.setattr(piercing, "cover_points_by_balls", spy)
        for seed, count in ((0, 30), (1, 120)):
            pierce(random_intersecting_family(n, count, seed=10 * n + seed))
        rng = rng_from(50 + n)
        centers = ball_points(rng, n, 150, radius=0.999)
        centers[0] = 0.0
        radii = rng.uniform(1.0, 1.1, 150)
        radii[0] = 1.0
        pierce(BallFamily(n, Balls(centers, radii)))
        assert max(len(points) for points, _ in buckets) > 90
        for points, radius in buckets:
            assert_same_cover(points, radius)

    def test_memory_bounded(self):
        # The dense tensor alone would take 31375 x 250 x 3 doubles (188 MB).
        pts = ball_points(rng_from(5), 3, 250, radius=0.999)
        tracemalloc.start()
        try:
            cover_points_by_balls(pts, 1.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestRefineBallCover:
    def test_unit_disk_centers(self):
        centers = refine_ball_cover([[0.0, 0.0]], 1.0)
        d = 1.0 / math.sqrt(2.0)
        expected = np.array([[d, 0], [0, d], [-d, 0], [0, -d]])
        assert np.allclose(np.sort(centers, axis=0), np.sort(expected, axis=0), atol=1e-15)
        # Several centers: each center's 2n points in turn, in the same order.
        two = refine_ball_cover([[0.0, 0.0], [3.0, -1.0]], 1.0)
        assert two.tobytes() == np.concatenate([centers, centers + [3.0, -1.0]]).tobytes()

    def test_boundary_tightness_dimension_four(self):
        # The all-halves point of the unit sphere in dimension 4 sits at
        # distance exactly sqrt(3/4) from the nearest refined center.
        centers = refine_ball_cover([[0.0] * 4], 1.0)
        x = np.full(4, 0.5)
        gap = np.linalg.norm(centers - x, axis=1).min()
        assert gap == pytest.approx(math.sqrt(0.75), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_sampled_containment(self, n):
        r2 = 1.7
        centers = refine_ball_cover([[0.0] * n], r2)
        r1 = r2 * math.sqrt(1.0 - 1.0 / n)
        pts = ball_points(rng_from(n), n, 20_000, radius=r2)
        gaps = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2).min(axis=1)
        assert gaps.max() <= r1 + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            refine_ball_cover([[0.0, 0.0]], 0.0)


class TestPierce:
    def test_single_ball_short_circuit(self):
        family = BallFamily(2, (Ball([4, -1], 3),))
        out = pierce(family)
        assert len(out) == 1
        assert np.allclose(out.points[0], [4, -1])
        assert out.provenance == ("center",)

    def test_two_ball_family(self):
        family = BallFamily(2, (Ball([0, 0], 1), Ball([5.5, 0], 5)))
        out = pierce(family)
        ok, witness = verify_piercing(family, out)
        assert ok and witness is None
        assert out.accounting.large_count == 5  # radius 5 >= threshold 2

    def test_scale_ratio_and_bucket_count(self):
        # In the plane the ratio is sqrt(2) and three scales reach past
        # the large-ball threshold 2 (sqrt(2)^2 = 2 is not beyond it).
        family = BallFamily(2, (Ball([0, 0], 1), Ball([1, 0], 1.5)))
        out = pierce(family)
        assert out.accounting.lam == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert out.accounting.t == 3

    def test_accounting_matches_output(self):
        family = random_intersecting_family(3, 80, seed=2)
        out = pierce(family, seed=2)
        acct = out.accounting
        assert acct.large_count + sum(2 * 3 * c for _, c in acct.scale_cover_counts) == len(out)
        tags = [p for p in out.provenance if p == "large"]
        assert len(tags) == out.accounting.large_count

    def test_repeat_with_cached_cover_is_byte_identical(self):
        family = random_intersecting_family(3, 60, seed=4)
        sphere_cover._hull_cover.cache_clear()
        first = pierce(family)
        hits = sphere_cover._hull_cover.cache_info().hits
        second = pierce(family)
        assert first.accounting.large_count > 0
        assert sphere_cover._hull_cover.cache_info().hits == hits + 1
        assert first.points.tobytes() == second.points.tobytes()
        assert first.provenance == second.provenance

    @pytest.mark.parametrize("seed", range(8))
    def test_soundness_random_families(self, seed):
        n = 2 + seed % 4
        family = random_intersecting_family(n, 60, seed=seed)
        out = pierce(family, seed=seed)
        ok, witness = verify_piercing(family, out)
        assert ok, f"ball {witness} unpierced"

    def test_equivariance_exact_doubling(self):
        family = random_intersecting_family(3, 40, seed=7)
        doubled = BallFamily(
            3, tuple(Ball(2.0 * b.center, 2.0 * b.radius) for b in family.balls)
        )
        a = pierce(family, seed=5)
        b = pierce(doubled, seed=5)
        # Doubling is exact in floating point, so the pipelines agree bitwise.
        assert np.array_equal(b.points, 2.0 * a.points)
        assert a.provenance == b.provenance

    def test_equivariance_generic_similarity(self):
        family = random_intersecting_family(3, 40, seed=7)
        scale, shift = 1.7, np.array([0.3, -1.2, 2.4])
        moved = BallFamily(
            3, tuple(Ball(scale * b.center + shift, scale * b.radius) for b in family.balls)
        )
        a = pierce(family, seed=5)
        b = pierce(moved, seed=5)
        assert np.allclose(b.points, scale * a.points + shift, atol=1e-8)

    def test_large_threshold_is_n(self):
        # A ball of radius n (the smallest being 1) is large; one a float
        # step smaller goes to a bucket below t.
        for n in (2, 3, 4):
            e = np.eye(n)[0]
            at = pierce(BallFamily(n, (Ball(np.zeros(n), 1), Ball(e, float(n)))))
            below = BallFamily(n, (Ball(np.zeros(n), 1), Ball(e, math.nextafter(float(n), 0))))
            assert at.accounting.large_count > 0
            out = pierce(below)
            assert out.accounting.large_count == 0
            assert max(k for k, _ in out.accounting.scale_cover_counts) <= out.accounting.t


def scalar_bucket(r, lam):
    """The per-ball bucket rule: the unique k >= 1 with
    lam^(k-1) <= r < lam^k, and 1 for r <= 1."""
    if r <= 1.0:
        return 1
    k = max(1, int(math.floor(math.log(r) / math.log(lam))) + 1)
    while lam ** (k - 1) > r:
        k -= 1
    while r >= lam**k:
        k += 1
    return max(1, k)


class TestScaleBuckets:
    def test_matches_scalar_rule(self):
        # Every boundary lam^k and its two float neighbours, where an
        # ulp in the boundary table moves a radius to the next bucket.
        rng = np.random.default_rng(0)
        for n in range(2, 40):
            lam = (1.0 - 1.0 / n) ** -0.5
            t = 1
            while lam**t <= n * (1.0 + 1e-12):
                t += 1
            edges = np.array([lam**k for k in range(t + 1)])
            radii = np.concatenate([
                edges,
                np.nextafter(edges, 0.0),
                np.nextafter(edges, np.inf),
                rng.uniform(0.5, n, 2000),
            ])
            want = [scalar_bucket(float(r), lam) for r in radii]
            assert piercing._scale_buckets(radii, lam, t).tolist() == want, n

    def test_bucket_order_kept(self, monkeypatch):
        # Each bucket's centers reach the cover in family order.
        family = random_intersecting_family(3, 80, seed=6)
        seen = []
        real = piercing.cover_points_by_balls

        def spy(points, radius):
            seen.append(np.array(points))
            return real(points, radius)

        monkeypatch.setattr(piercing, "cover_points_by_balls", spy)
        out = pierce(family)
        centers, radii, _, _ = normalize_family(family)
        lam = out.accounting.lam
        assert len(seen) == len(out.accounting.scale_cover_counts) > 1
        for (k, _), got in zip(out.accounting.scale_cover_counts, seen):
            members = [i for i, r in enumerate(radii) if r < 3 and scalar_bucket(r, lam) == k]
            assert got.tobytes() == centers[members].tobytes()


class TestVerifyPiercing:
    def test_centers_always_pierce(self):
        family = random_intersecting_family(3, 30, seed=4)
        ok, witness = verify_piercing(family, family.centers())
        assert ok and witness is None

    def test_far_point_fails_with_witness(self):
        family = BallFamily(2, (Ball([0, 0], 1), Ball([3, 0], 2)))
        ok, witness = verify_piercing(family, np.array([[10.0, 10.0]]))
        assert not ok
        assert witness == 0

    def test_accepts_piercing_set_object(self):
        family = random_intersecting_family(2, 20, seed=9)
        out = pierce(family, seed=9)
        ok, _ = verify_piercing(family, out)
        assert ok

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_ball_loop(self, seed):
        n = 2 + seed % 4
        family = random_intersecting_family(n, 80, seed=seed)
        rng = rng_from(50 + seed)
        candidates = [
            family.centers(),
            pierce(family).points,
            rng.standard_normal((3, n)),  # several balls unpierced
            rng.standard_normal((2000, n)),  # more than one block of balls
            np.empty((0, n)),
        ]
        for pts in candidates:
            assert verify_piercing(family, pts) == loop_reference_verify(family, pts)

    def test_first_of_several_unpierced(self):
        family = BallFamily(
            2, (Ball([0, 0], 2), Ball([1, 0], 2), Ball([3, 0], 2), Ball([1, 1], 3))
        )
        # Balls 1 and 2 miss the point; ball 1 is reported.
        pts = np.array([[-1.5, 0.0]])
        assert loop_reference_verify(family, pts) == (False, 1)
        assert verify_piercing(family, pts) == (False, 1)

    @pytest.mark.parametrize("n", [8, 9])
    def test_point_on_every_sphere_pierces(self, n):
        # One point at distance exactly the limit r (1 + gamma) + slack
        # from the center of every ball but the first, by the exact
        # formula, which the family check also uses; one ulp less radius
        # and it misses. Ball 0, the unit ball at the point, fixes the
        # slack at DEFAULT_TOL. From n = 8 np.linalg.norm reads some of
        # these distances an ulp larger.
        rng = rng_from(1)
        point = rng.standard_normal((1, n))
        out = rng.standard_normal((40, n))
        out /= np.linalg.norm(out, axis=1)[:, None]
        centers = point + rng.uniform(2.0, 3.0, (40, 1)) * out
        reach = pair_distances(centers.T, point.T)
        grow = 1 + geometry.rounding(n)

        def limit(radii):
            return radii * grow + DEFAULT_TOL

        radii = (reach - DEFAULT_TOL) / grow
        for _ in range(4):
            radii = np.where(limit(radii) < reach, np.nextafter(radii, np.inf), radii)
            radii = np.where(limit(radii) > reach, np.nextafter(radii, 0.0), radii)
        assert (limit(radii) == reach).all()
        for grown, want in ((radii, (True, None)), (np.nextafter(radii, 0.0), (False, 1))):
            family = BallFamily(n, Balls(np.concatenate([point, centers]), np.r_[1.0, grown]))
            assert verify_piercing(family, point) == want
            assert loop_reference_verify(family, point) == want

    def test_pair_kernel_at_every_size_matches_per_ball_loop(self, monkeypatch):
        monkeypatch.setattr(geometry, "_EXACT_PAIRS", 0)
        for seed in range(6):
            self.test_matches_per_ball_loop(seed)
        self.test_first_of_several_unpierced()
        self.test_far_point_fails_with_witness()
        for n in (8, 9):
            self.test_point_on_every_sphere_pierces(n)

    def test_dimension_mismatch(self):
        family = BallFamily(2, (Ball([0, 0], 1),))
        with pytest.raises(ValueError):
            verify_piercing(family, np.zeros((1, 3)))


class TestInclusionBounds:
    def test_cap_overlap_soundness_sampled(self):
        # Tangent configuration: points of the doubled-sphere cap must
        # lie inside the large ball that produced it.
        rng = rng_from(42)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            r = float(rng.uniform(2.0, 50.0))
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            alpha = cap_overlap_radius(r, n)
            pts = cap_points(rng, u, alpha, 2_000, sphere_radius=2.0)
            gaps = np.linalg.norm(pts - (r + 1.0) * u, axis=1)
            assert gaps.max() <= r + 1e-9

    def test_refine_tightness(self):
        for n in range(2, 8):
            centers = refine_ball_cover([[0.0] * n], 1.0)
            diag = np.full(n, 1.0 / math.sqrt(n))
            gap = np.linalg.norm(centers - diag, axis=1).min()
            bound = math.sqrt(1.0 - 1.0 / n)
            assert gap <= bound + 1e-12
            assert gap >= bound - 1e-3


# A valid two-ball family far from the origin. Its coordinates round at
# about 1e-7, so an absolute slack of 1e-9 refused its own piercing set.
FAR_FAMILY = {
    "kind": "ball_family",
    "dimension": 2,
    "balls": [
        {"center": [-611732283.7171162, -666410640.3258581], "radius": 3570846.453743335},
        {"center": [-618528970.3390145, -670983223.617407], "radius": 19856572.512968536},
    ],
}


class TestScaleFree:
    """Intersection and piercing verdicts do not change under a
    similarity x -> s x + t of family and points."""

    @pytest.mark.parametrize("s", [1.0, 1e-6, 1e-10, 1e-12, 1e12])
    def test_disjoint_pair_refused_at_every_scale(self, s):
        # The gap is half a radius.
        with pytest.raises(PairwiseError) as exc:
            BallFamily(2, (Ball([0.0, 0.0], s), Ball([2.5 * s, 0.0], s)))
        assert exc.value.pair == (0, 1)

    def test_point_outside_tiny_ball_misses(self):
        family = BallFamily(2, (Ball([0.0, 0.0], 1e-12),))
        assert verify_piercing(family, np.array([[1e-10, 0.0]])) == (False, 0)

    def test_far_family_pierces(self):
        family = BallFamily(*files.parse_ball_family(FAR_FAMILY))
        out = pierce(family)
        assert len(out) == 9
        assert verify_piercing(family, out) == (True, None)

    def test_random_similarities(self):
        # Seeded families as in the benchmark (ball 0 the unit ball at the
        # origin, radii up to 4n), mapped by s in 1e-9..1e9 and t up to
        # 1e3 s per coordinate. The mapped family is accepted, pierced and
        # pierced by the mapped points of the original.
        for case in range(100):
            rng = np.random.default_rng(9_000 + case)
            n = 2 + case % 4
            family = random_intersecting_family(n, int(rng.integers(2, 60)), seed=case)
            s = 10.0 ** rng.uniform(-9.0, 9.0)
            t = rng.uniform(-1e3 * s, 1e3 * s, n)
            c, r = family.centers(), family.radii()
            mapped = BallFamily(n, Balls(s * c + t, s * r))
            assert verify_piercing(mapped, s * pierce(family).points + t) == (True, None), case
            pierce(mapped)  # verified before it is returned
            # One more ball, a relative gap of 1e-6 or more beyond ball 0.
            u = rng.standard_normal(n)
            extra = float(rng.uniform(1.0, 4.0 * n))
            x = (1.0 + extra) * (1.0 + float(rng.uniform(1e-6, 1e-3))) * u / np.linalg.norm(u)
            apart = np.vstack([c, x]), np.r_[r, extra]
            for centers, radii in (apart, (s * apart[0] + t, s * apart[1])):
                with pytest.raises(PairwiseError) as exc:
                    BallFamily(n, Balls(centers, radii))
                assert exc.value.pair == (0, len(r)), case
            one = BallFamily(n, Balls(t[None], np.array([s])))
            outside = t + 100.0 * s * np.eye(n)[:1]
            assert verify_piercing(one, outside) == (False, 0), case
            assert verify_piercing(one, t[None]) == (True, None), case

    @staticmethod
    def squared_gap(a, b):
        """|a - b|^2 in rational arithmetic on the float coordinates."""
        return sum((Fraction(float(x)) - Fraction(float(y))) ** 2 for x, y in zip(a, b))

    @staticmethod
    def unit(rng, n):
        v = rng.standard_normal(n)
        return v / np.linalg.norm(v)

    def test_points_inside_huge_balls_pierce(self):
        # A point c + R u on the sphere of radius R = 1e6..1e10 around c,
        # beside the unit ball at the origin, kept when it lies in the
        # ball in rational arithmetic (about half). At these radii the
        # slack, DEFAULT_TOL, is below the rounding of the distance, so
        # only the rounding bound on each radius lets every one pierce.
        rng = np.random.default_rng(0)
        kept = 0
        for _ in range(400):
            n = int(rng.integers(2, 11))
            big = 10.0 ** rng.uniform(6.0, 10.0)
            c = (big + 0.5) * self.unit(rng, n)
            p = c + big * self.unit(rng, n)
            if self.squared_gap(p, c) > Fraction(big) ** 2:
                continue
            kept += 1
            family = BallFamily(n, Balls(np.array([np.zeros(n), c]), np.array([1.0, big])))
            assert verify_piercing(family, np.array([np.zeros(n), p])) == (True, None)
        assert kept > 150

    def test_meeting_pairs_at_mixed_scales_are_accepted(self):
        # The unit ball at T and a ball of radius R = 1e6..1e10 at T + (1 +
        # R) u, T up to 1e9 per coordinate, kept when the balls meet in
        # rational arithmetic (about half). The slack alone is below the
        # rounding of the distance here, as above.
        rng = np.random.default_rng(0)
        kept = 0
        for _ in range(2000):
            n = int(rng.integers(2, 11))
            big = 10.0 ** rng.uniform(6.0, 10.0)
            t = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(6.0, 9.0)
            c = t + (1.0 + big) * self.unit(rng, n)
            if self.squared_gap(t, c) > (Fraction(big) + 1) ** 2:
                continue
            kept += 1
            assert first_non_intersecting_pair(Balls(np.array([t, c]), np.array([1.0, big]))) is None
        assert kept > 900
