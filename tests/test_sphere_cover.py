"""Tests for sphere covers, packings, nets, and their certificates."""

import itertools
import math

import numpy as np
import pytest

from gallai import (
    Cover,
    CoverParams,
    Packing,
    PackParams,
    covering_size_estimate,
    greedy_cover,
    maximal_packing,
    sphere_net,
    verify_cover,
)
from gallai.errors import PairwiseError
from gallai import sphere_cover
from gallai.geometry import first_pair_outside
from gallai.sphere_cover import net_size

from conftest import circle_cover_optimum, circle_packing_optimum


def arc_centers(angles):
    return np.column_stack([np.cos(angles), np.sin(angles)])


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def looped_net(dim, m):
    """The row-by-row net construction sphere_net must reproduce byte for byte."""
    rows = np.empty((net_size(dim, m), dim), dtype=float)
    i = 0
    for j in range(1, min(dim, m) + 1):
        for support in itertools.combinations(range(dim), j):
            for comp in compositions(m, j):
                for signs in itertools.product((1.0, -1.0), repeat=j):
                    row = np.zeros(dim)
                    for axis, value, sign in zip(support, comp, signs):
                        row[axis] = sign * value
                    rows[i] = row
                    i += 1
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    return rows


class TestSphereNet:
    def test_resolution_guarantee(self):
        # Every random sphere point must lie within the reported delta
        # of some net point.
        for n in (2, 3, 4):
            net, delta = sphere_net(n, 0.3)
            pts = np.random.default_rng(5).standard_normal((5000, n))
            pts /= np.linalg.norm(pts, axis=1)[:, None]
            gaps = np.arccos(np.clip((pts @ net.T).max(axis=1), -1, 1))
            assert gaps.max() <= delta

    def test_size_formula(self):
        # resolution 0.5 in dimension 3 uses L1 radius m = ceil(3 / 0.5) = 6
        net, delta = sphere_net(3, 0.5)
        assert delta == 3 / 6
        assert len(net) == net_size(3, 6)

    def test_resource_limit(self):
        with pytest.raises(RuntimeError):
            sphere_net(6, 0.01)

    def test_unit_norms(self):
        net, _ = sphere_net(3, 0.4)
        assert np.allclose(np.linalg.norm(net, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("extra", [0, 1, 2, 5])
    def test_matches_row_loop(self, dim, extra):
        m = dim + extra
        net, delta = sphere_net(dim, dim / m)
        assert delta == dim / m
        assert net.tobytes() == looped_net(dim, m).tobytes()


class TestVerifyCover:
    def test_three_tangent_arcs_sampled(self):
        # Tangent cover of the circle: three arcs of angular radius pi/3
        # at mutual distance 2 pi / 3.
        cover = Cover(2, math.pi / 3, arc_centers([0, 2 * math.pi / 3, 4 * math.pi / 3]))
        cert = verify_cover(cover, "sampled", 50_000, seed=1)
        assert cert.passed
        assert cert.method == "sampled"

    def test_three_tangent_arcs_net_has_no_margin(self):
        # A tangent cover cannot be certified by the net method: the
        # sound condition needs strictly positive depth behind theta.
        cover = Cover(2, math.pi / 3, arc_centers([0, 2 * math.pi / 3, 4 * math.pi / 3]))
        cert = verify_cover(cover, "net", 0.01)
        assert not cert.passed

    def test_enlarged_arcs_net_pass(self):
        cover = Cover(2, math.pi / 3 + 0.05, arc_centers([0, 2 * math.pi / 3, 4 * math.pi / 3]))
        cert = verify_cover(cover, "net", 0.01)
        assert cert.passed
        assert cert.margin > 0

    def test_two_arcs_fail(self):
        # Total measure 4 pi / 3 < 2 pi cannot cover.
        cover = Cover(2, math.pi / 3, arc_centers([0, math.pi]))
        assert not verify_cover(cover, "sampled", 20_000, seed=2).passed
        assert not verify_cover(cover, "net", 0.02).passed

    def test_single_cap_misses_far_hemisphere(self):
        cover = Cover(3, 1.0, np.array([[1.0, 0.0, 0.0]]))
        assert not verify_cover(cover, "sampled", 1_000, seed=3).passed

    def test_net_resolution_must_undershoot_theta(self):
        cover = Cover(2, 0.3, arc_centers(np.linspace(0, 2 * math.pi, 30, endpoint=False)))
        with pytest.raises(ValueError):
            verify_cover(cover, "net", 0.5)

    def test_unknown_method(self):
        cover = Cover(2, 0.5, arc_centers([0.0]))
        with pytest.raises(ValueError):
            verify_cover(cover, "exhaustive")


class TestGreedyCover:
    @pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 4, math.pi / 6, 0.9])
    def test_circle_optimum(self, theta):
        cover = greedy_cover(2, theta, seed=0)
        assert len(cover) == circle_cover_optimum(theta)
        assert cover.certificate.passed

    def test_three_dim_hemisphere_window(self):
        # Upper witness: the six cross-polytope caps of radius pi/2
        # cover the sphere, so greedy should not need more; two caps
        # leave the marking margin uncovered, so at least three appear.
        cover = greedy_cover(3, math.pi / 2, seed=0)
        assert 3 <= len(cover) <= 6
        witness = Cover(3, math.pi / 2, np.concatenate([np.eye(3), -np.eye(3)]))
        assert verify_cover(witness, "sampled", 20_000, seed=4).passed

    @pytest.mark.parametrize("n,theta", [(3, 0.7227), (4, 0.8632), (5, 0.8957)])
    def test_certificates_pass(self, n, theta):
        cover = greedy_cover(n, theta, seed=1)
        assert cover.certificate.passed
        assert cover.certificate.margin > 0

    def test_determinism(self):
        a = greedy_cover(4, 0.9, seed=7)
        sphere_cover._certified_cover.cache_clear()
        b = greedy_cover(4, 0.9, seed=7)
        assert a is not b
        assert np.array_equal(a.centers, b.centers)

    def test_monotone_in_theta(self):
        for n in (3, 4):
            sizes = [
                len(greedy_cover(n, theta, seed=0))
                for theta in (0.5, 0.7, 0.9, 1.1, 1.3, math.pi / 2)
            ]
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_resource_limit_is_loud(self):
        with pytest.raises(RuntimeError):
            greedy_cover(3, 0.2, seed=0, params=CoverParams(max_centers=3))

    def test_domain(self):
        with pytest.raises(ValueError):
            greedy_cover(1, 0.5)
        with pytest.raises(ValueError):
            greedy_cover(3, 0.0)
        with pytest.raises(ValueError):
            greedy_cover(3, math.pi / 2 + 0.01)


class TestCoverCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        sphere_cover._certified_cover.cache_clear()
        yield
        sphere_cover._certified_cover.cache_clear()

    def test_repeat_returns_same_cover(self):
        a = greedy_cover(4, 0.9, seed=7)
        assert greedy_cover(4, 0.9, seed=7) is a
        assert sphere_cover._certified_cover.cache_info().misses == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_centers_are_read_only(self, n):
        cover = greedy_cover(n, 0.9, seed=7)
        assert not cover.centers.flags.writeable
        with pytest.raises(ValueError):
            cover.centers[0, 0] = 0.0
        with pytest.raises(ValueError):
            cover.centers *= 2.0

    def test_equivalent_keys_share_an_entry(self):
        a = greedy_cover(3, 0.9, seed=7)
        assert greedy_cover(3, 0.9, seed=np.int64(7), params=CoverParams()) is a
        assert greedy_cover(np.int64(3), np.float64(0.9), 7, None) is a
        assert sphere_cover._certified_cover.cache_info().currsize == 1

    @pytest.mark.parametrize(
        "args",
        [(3, 0.9, 8, None), (3, 0.91, 7, None), (3, 0.9, 7, CoverParams(certify="sampled"))],
    )
    def test_different_keys_miss(self, args):
        a = greedy_cover(3, 0.9, seed=7)
        b = greedy_cover(*args)
        assert b is not a
        assert sphere_cover._certified_cover.cache_info().misses == 2

    def test_size_is_bounded(self):
        for seed in range(50):
            greedy_cover(3, 1.2, seed=seed, params=CoverParams(certify="sampled"))
        info = sphere_cover._certified_cover.cache_info()
        assert info.misses == 50
        assert info.currsize <= sphere_cover._COVER_CACHE_SIZE == info.maxsize

    def test_failures_are_not_cached(self):
        params = CoverParams(max_centers=3)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                greedy_cover(3, 0.2, seed=0, params=params)
        info = sphere_cover._certified_cover.cache_info()
        assert info.misses == 2
        assert info.currsize == 0

class TestMaximalPacking:
    def test_circle_square(self):
        packing = maximal_packing(2, math.pi / 2, seed=0)
        assert len(packing) == 4 == circle_packing_optimum(math.pi / 2)

    def test_circle_triangle(self):
        packing = maximal_packing(2, 2 * math.pi / 3, seed=0)
        assert len(packing) == 3 == circle_packing_optimum(2 * math.pi / 3)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_near_antipodal_pair(self, n):
        packing = maximal_packing(n, 3.1, seed=0)
        assert len(packing) == 2

    @pytest.mark.parametrize("n,theta", [(3, 1.0), (4, math.pi / 2), (5, 1.2)])
    def test_separation_exhaustive(self, n, theta):
        packing = maximal_packing(n, theta, seed=3)
        assert first_pair_outside(packing.centers, low=theta - 1e-9, angles=True) is None

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 2])
    def test_saturated_packing_is_cover(self, n, theta):
        packing = maximal_packing(n, theta, seed=0)
        assert packing.saturated
        cover = Cover(n, theta, packing.centers)
        cert = verify_cover(cover, "sampled", 100_000, seed=12345)
        assert cert.passed

    def test_determinism(self):
        a = maximal_packing(4, 1.1, seed=9)
        b = maximal_packing(4, 1.1, seed=9)
        assert np.array_equal(a.centers, b.centers)

    def test_max_points_stops_early(self):
        packing = maximal_packing(4, 0.8, seed=0, params=PackParams(max_points=5))
        assert len(packing) == 5
        assert not packing.saturated

    def test_domain(self):
        with pytest.raises(ValueError):
            maximal_packing(3, 0.0)
        with pytest.raises(ValueError):
            maximal_packing(3, math.pi)


class TestCoveringSizeEstimate:
    def test_power_of_two(self):
        assert covering_size_estimate(10, math.pi / 6) == pytest.approx(1024.0, rel=1e-12)

    def test_hemisphere_limit(self):
        assert covering_size_estimate(5, math.pi / 2 - 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_generic_value(self):
        assert covering_size_estimate(4, math.pi / 3) == pytest.approx(
            (2.0 / math.sqrt(3.0)) ** 4, rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            covering_size_estimate(4, 1.8)


class TestTypes:
    def test_cover_rejects_non_unit_centers(self):
        with pytest.raises(ValueError):
            Cover(2, 0.5, np.array([[2.0, 0.0]]))

    def test_packing_rejects_violated_separation(self):
        centers = np.array([[1.0, 0.0], [math.cos(0.2), math.sin(0.2)]])
        with pytest.raises(PairwiseError) as info:
            Packing(2, 1.0, centers)
        assert info.value.pair == (0, 1)

    def test_packing_resolves_tiny_angles(self):
        # arccos of the dot product reads 0 for rows 1e-8 apart.
        centers = np.array([[1.0, 0.0, 0.0], [math.cos(1e-8), math.sin(1e-8), 0.0]])
        assert len(Packing(3, 5e-9, centers)) == 2
