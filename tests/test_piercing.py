"""Tests for the piercing pipeline and its helper operations."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gallai import (
    Ball,
    BallFamily,
    Balls,
    PiercingConfig,
    Similarity,
    cap_overlap_radius,
    cover_points_by_balls,
    normalize_family,
    pierce,
    pierce_large,
    point_in_ball,
    refine_ball_cover,
    verify_piercing,
)
from gallai import PairwiseError, files, piercing, sphere_cover
from gallai.geometry import gram_gaps
from gallai.sampling import ball_points, cap_points, rng_from

from conftest import circle_cover_optimum, random_intersecting_family


def dense_reference_cover(points, radius):
    """The greedy cover over the full candidates x points distance tensor.

    Same candidates, order and tie-breaks as ``cover_points_by_balls``,
    with every distance computed up front; memory grows as m^3 n.
    """
    pts = np.asarray(points, dtype=float)
    m = pts.shape[0]
    if m == 1:
        return pts.copy()
    if m <= 600:
        iu, ju = np.triu_indices(m, k=1)
        candidates = np.concatenate([pts, 0.5 * (pts[iu] + pts[ju])])
    else:
        candidates = pts
    diff = candidates[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.einsum("kij,kij->ki", diff, diff))
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


def loop_reference_verify(family, points, tol):
    """One ball at a time: (True, None) or (False, first unpierced index)."""
    if points.shape[0] == 0:
        return False, 0
    for i, b in enumerate(family.balls):
        gaps = np.linalg.norm(points - b.center, axis=1)
        if not (gaps <= b.radius + tol).any():
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
        centers, radii, tr = normalize_family(family)
        assert np.allclose(centers, [[0, 0]])
        assert radii.tolist() == [1.0]
        assert tr.scale == 2.0
        assert np.allclose(tr.offset, [3, 3])

    def test_already_normalized_is_identity(self):
        family = BallFamily(2, (Ball([0, 0], 1), Ball([1.5, 0], 2)))
        centers, radii, tr = normalize_family(family)
        assert tr.scale == 1.0
        assert np.allclose(tr.offset, [0, 0])
        assert np.array_equal(centers, family.centers())
        assert np.array_equal(radii, family.radii())

    def test_hand_worked_similarity(self):
        # Smallest radius 2 at the origin: scale by 1/2 leaves centers
        # halved and radii halved.
        family = BallFamily(2, (Ball([0, 0], 2), Ball([1, 0], 4)))
        centers, radii, tr = normalize_family(family)
        assert np.allclose(centers, [[0, 0], [0.5, 0]])
        assert radii.tolist() == [1.0, 2.0]
        # Round trip through the transform.
        pts = np.array([[0.25, -0.5], [1.0, 1.0]])
        assert np.allclose(tr.to_normalized(tr.to_original(pts)), pts)

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
            pts = pierce_large(n, PiercingConfig(seed=11))
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
        # candidates settles the only step: the other points and the
        # 44,850 midpoints are never scored, and no midpoint is formed.
        rows = []

        def counting_gaps(left, right):
            rows.append(len(left.s))
            return gram_gaps(left, right)

        def no_midpoints(*args, **kwargs):
            raise AssertionError("midpoints formed")

        pts = ball_points(rng_from(9), 3, 300, radius=0.999, center=[2.0, -1.0, 0.5])
        pts[0] = [2.0, -1.0, 0.5]
        monkeypatch.setattr(piercing, "gram_gaps", counting_gaps)
        monkeypatch.setattr(piercing.np, "triu_indices", no_midpoints)
        centers = cover_points_by_balls(pts, 1.0)
        assert centers.tobytes() == pts[:1].tobytes()
        assert len(rows) == 1 and rows[0] <= piercing._BLOCK // 300

    def test_many_centers_match_dense_reference(self):
        pts = rng_from(31).uniform(-5.0, 5.0, (150, 3))
        centers = assert_same_cover(pts, 0.6)
        assert len(centers) > 20

    @pytest.mark.parametrize("radius", [1.0, math.sqrt(2.0), 0.5, 2.0])
    @pytest.mark.parametrize("n, side", [(2, 7), (3, 4)])
    def test_lattice_ties_match_dense_reference(self, n, side, radius):
        # Grid points and their midpoints sit at distances exactly equal
        # to these radii, so every tie must fall as in the dense tensor,
        # also a billion units from the origin.
        grid = np.array(list(itertools.product(range(side), repeat=n)), dtype=float)
        for pts in (grid, grid[::-1].copy(), 3.0 * grid, grid + 1e9):
            assert_same_cover(pts, radius)

    def test_pair_kernel_at_every_size_matches_dense_reference(self, monkeypatch):
        # The same covers with the pair kernel on every block, however
        # small, so its ties fall as the exact norms' do.
        monkeypatch.setattr(piercing, "_EXACT_PAIRS", 0)
        self.test_many_centers_match_dense_reference()
        for n, side in [(2, 7), (3, 4)]:
            for radius in [1.0, math.sqrt(2.0), 0.5, 2.0]:
                self.test_lattice_ties_match_dense_reference(n, side, radius)

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
        centers = refine_ball_cover([0.0, 0.0], 1.0)
        d = 1.0 / math.sqrt(2.0)
        expected = np.array([[d, 0], [0, d], [-d, 0], [0, -d]])
        assert np.allclose(np.sort(centers, axis=0), np.sort(expected, axis=0), atol=1e-15)

    def test_boundary_tightness_dimension_four(self):
        # The all-halves point of the unit sphere in dimension 4 sits at
        # distance exactly sqrt(3/4) from the nearest refined center.
        centers = refine_ball_cover([0.0] * 4, 1.0)
        x = np.full(4, 0.5)
        gap = np.linalg.norm(centers - x, axis=1).min()
        assert gap == pytest.approx(math.sqrt(0.75), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_sampled_containment(self, n):
        r2 = 1.7
        centers = refine_ball_cover([0.0] * n, r2)
        r1 = r2 * math.sqrt(1.0 - 1.0 / n)
        pts = ball_points(rng_from(n), n, 20_000, radius=r2)
        gaps = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2).min(axis=1)
        assert gaps.max() <= r1 + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            refine_ball_cover([0.0, 0.0], 0.0)


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
        out = pierce(family, PiercingConfig(seed=2))
        assert out.accounting.total(3) == len(out)
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
        out = pierce(family, PiercingConfig(seed=seed))
        ok, witness = verify_piercing(family, out, 1e-9)
        assert ok, f"ball {witness} unpierced"

    def test_equivariance_exact_doubling(self):
        family = random_intersecting_family(3, 40, seed=7)
        doubled = BallFamily(
            3, tuple(Ball(2.0 * b.center, 2.0 * b.radius) for b in family.balls)
        )
        a = pierce(family, PiercingConfig(seed=5))
        b = pierce(doubled, PiercingConfig(seed=5))
        # Doubling is exact in floating point, so the pipelines agree bitwise.
        assert np.array_equal(b.points, 2.0 * a.points)
        assert a.provenance == b.provenance

    def test_equivariance_generic_similarity(self):
        family = random_intersecting_family(3, 40, seed=7)
        scale, shift = 1.7, np.array([0.3, -1.2, 2.4])
        moved = BallFamily(
            3, tuple(Ball(scale * b.center + shift, scale * b.radius) for b in family.balls)
        )
        a = pierce(family, PiercingConfig(seed=5))
        b = pierce(moved, PiercingConfig(seed=5))
        assert np.allclose(b.points, scale * a.points + shift, atol=1e-8)

    def test_lambda_validation(self):
        family = BallFamily(2, (Ball([0, 0], 1), Ball([1, 0], 1)))
        with pytest.raises(ValueError):
            pierce(family, PiercingConfig(lam=0.9))
        with pytest.raises(ValueError):
            pierce(family, PiercingConfig(lam=2.0))

    def test_threshold_validation(self):
        family = BallFamily(2, (Ball([0, 0], 1), Ball([1, 0], 1)))
        with pytest.raises(ValueError):
            pierce(family, PiercingConfig(large_threshold=1.5))


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
        out = pierce(family, PiercingConfig(seed=9))
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
            for tol in (0.0, 1e-9):
                assert verify_piercing(family, pts, tol) == loop_reference_verify(
                    family, pts, tol
                )

    def test_first_of_several_unpierced(self):
        family = BallFamily(
            2, (Ball([0, 0], 2), Ball([1, 0], 2), Ball([3, 0], 2), Ball([1, 1], 3))
        )
        # Balls 1 and 2 miss the point; ball 1 is reported.
        pts = np.array([[-1.5, 0.0]])
        assert loop_reference_verify(family, pts, 1e-9) == (False, 1)
        assert verify_piercing(family, pts) == (False, 1)

    def test_pair_kernel_at_every_size_matches_per_ball_loop(self, monkeypatch):
        monkeypatch.setattr(piercing, "_EXACT_PAIRS", 0)
        for seed in range(6):
            self.test_matches_per_ball_loop(seed)
        self.test_first_of_several_unpierced()
        self.test_far_point_fails_with_witness()

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
            centers = refine_ball_cover([0.0] * n, 1.0)
            diag = np.full(n, 1.0 / math.sqrt(n))
            gap = np.linalg.norm(centers - diag, axis=1).min()
            bound = math.sqrt(1.0 - 1.0 / n)
            assert gap <= bound + 1e-12
            assert gap >= bound - 1e-3
