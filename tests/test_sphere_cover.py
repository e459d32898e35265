"""Tests for sphere covers, packings, nets, and their certificates."""

import itertools
import math
import time

import numpy as np
import pytest

from gallai import (
    Cover,
    CoverParams,
    Packing,
    PackParams,
    covering_exponent,
    greedy_cover,
    maximal_packing,
    sphere_net,
    verify_cover,
)
from gallai.bounds import solve_alpha
from gallai.errors import BudgetError, PairwiseError
from gallai import sphere_cover
from gallai.geometry import first_pair_outside
from gallai.piercing import cap_overlap_radius
from gallai.sphere_cover import net_size
from scipy.spatial import ConvexHull

from conftest import circle_cover_optimum, circle_packing_optimum, traced_peak


def arc_centers(angles):
    return np.column_stack([np.cos(angles), np.sin(angles)])


def clear_cover_caches():
    sphere_cover._hull_cover.cache_clear()
    sphere_cover._sampled_cover.cache_clear()


@pytest.fixture
def no_hull(monkeypatch):
    """Make every hull build fail, so greedy_cover falls back to sampling."""
    monkeypatch.setattr(sphere_cover, "_hull_of", lambda rows: None)


CROSS_3 = np.concatenate([np.eye(3), -np.eye(3)])


def cover_misses():
    return (
        sphere_cover._hull_cover.cache_info().misses
        + sphere_cover._sampled_cover.cache_info().misses
    )


# The two radii the library asks covers for: the illumination radius
# pi/2 - alpha* and the large-ball cap radius at the default threshold n.
ILLUMINATION_THETA = math.pi / 2 - solve_alpha()
LIBRARY_RADII = [(n, theta) for n in range(2, 7)
                 for theta in (ILLUMINATION_THETA, cap_overlap_radius(n, n))]


def facet_offsets(centers):
    """Distances from the origin to the facet hyperplanes of conv(centers)
    from Qhull (scipy.spatial), the test-only oracle for ``_Hull``, each
    from the null vector of its edge vectors (SVD), not from a linear
    solve; flat simplices span no hyperplane and are skipped."""
    v = centers[ConvexHull(centers).simplices]
    _, sv, vh = np.linalg.svd(v[:, 1:] - v[:, :1])
    solid = sv[:, -1] > 1e-9
    return np.abs(np.einsum("fj,fj->f", vh[solid, -1], v[solid, 0]))


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

    @pytest.mark.parametrize("cover", [
        Cover(2, math.pi / 3, arc_centers([0, 2 * math.pi / 3, 4 * math.pi / 3])),
        # Four caps of radius pi/2 at +-e1, +-e2 in R^3, tangent at +-e3:
        # their hull is a square through the origin, so only sampling
        # passes them.
        Cover(3, math.pi / 2, np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]])),
    ], ids=["arcs", "square"])
    def test_tangent_cover_net_has_no_margin(self, cover):
        # A tangent cover cannot be certified by the net method: the
        # sound condition needs strictly positive depth behind theta.
        for delta in (0.01, 0.05, 0.3):
            cert = verify_cover(cover, "net", delta)
            assert not cert.passed
            if cover.dimension == 3:
                # The net holds e3, exactly pi/2 from every center.
                assert cert.margin == pytest.approx(-cert.resolution_or_samples, abs=1e-12)
        assert verify_cover(cover, "sampled", 20_000, seed=5).passed
        assert verify_cover(cover, "hull").passed == (cover.dimension == 2)

    @pytest.mark.parametrize("method,default", [("sampled", 100_000), ("net", 0.5 / 8)])
    def test_only_none_means_the_default_budget(self, method, default):
        cover = Cover(2, 0.5, arc_centers(np.linspace(0, 2 * math.pi, 8, endpoint=False)))
        assert verify_cover(cover, method).resolution_or_samples == default
        with pytest.raises(ValueError):
            verify_cover(cover, method, 0)

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

    def test_max_gap_memory_bounded(self):
        # As many centers as the n = 8 sampled cover of the CLI has. The
        # parent held a 20,000 x centers block of dots, 324 MB traced.
        rng = np.random.default_rng(4)
        points = unit_rows(rng, 100_000, 8)
        centers = unit_rows(rng, 2119, 8)
        worst, peak = traced_peak(lambda: sphere_cover._max_gap(points, centers))
        assert peak < 8 * 2**20
        want = max(float(np.arccos(np.clip((points[s : s + 1000] @ centers.T).max(axis=1),
                                           -1.0, 1.0)).max())
                   for s in range(0, 100_000, 1000))
        assert worst == pytest.approx(want, abs=1e-12)

    def test_sampled_memory_independent_of_samples(self):
        # Drawn all at once, 2,000,000 points of R^4 traced a 153 MB peak.
        cover = greedy_cover(4, 0.987)
        default, peak = traced_peak(lambda: verify_cover(cover, "sampled"))
        many, many_peak = traced_peak(lambda: verify_cover(cover, "sampled", 2_000_000))
        assert many_peak < 1.25 * peak < 12 * 2**20
        # The first block is the default sample, so the margin can only fall.
        assert many.margin <= default.margin

    def test_sampled_blocks_give_the_gap_of_one_draw(self, monkeypatch):
        cover = greedy_cover(4, 0.987)
        pts = sphere_cover.sampling.unit_vectors(sphere_cover.sampling.rng_from(3), 4, 2_500)
        want = cover.angular_radius - sphere_cover._max_gap(pts, cover.centers)
        monkeypatch.setattr(sphere_cover, "_SAMPLES", 1_000)
        assert verify_cover(cover, "sampled", 2_500, seed=3).margin == want


class TestHullCertificate:
    def test_three_tangent_arcs(self):
        # Tangent arcs: the exact covering radius is pi/3, so the margin
        # is zero up to rounding and a 1e-6 change of theta decides.
        centers = arc_centers([0, 2 * math.pi / 3, 4 * math.pi / 3])
        cert = verify_cover(Cover(2, math.pi / 3, centers), "hull")
        assert cert.method == "hull"
        assert abs(cert.margin) < 1e-12
        assert not verify_cover(Cover(2, math.pi / 3 - 1e-6, centers), "hull").passed
        assert verify_cover(Cover(2, math.pi / 3 + 1e-6, centers), "hull").passed

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_dropping_any_center_fails(self, n):
        cover = greedy_cover(n, ILLUMINATION_THETA)
        assert verify_cover(cover, "hull").passed
        for k in range(len(cover)):
            rest = np.delete(cover.centers, k, axis=0)
            assert not verify_cover(Cover(n, cover.angular_radius, rest), "hull").passed

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_one_hemisphere_fails(self, n):
        # Centers with a positive first coordinate leave the direction
        # -e_1 farther than pi/2 from all of them, whatever theta.
        rng = np.random.default_rng(n)
        pts = rng.standard_normal((60, n))
        pts[:, 0] = np.abs(pts[:, 0]) + 0.05
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        cert = verify_cover(Cover(n, math.pi / 2, pts), "hull")
        assert not cert.passed
        if n == 2:
            # The circle is certified from its gaps, so the margin is
            # exact: half the largest gap, which spans -e_1, is past pi/2.
            angles = np.sort(np.arctan2(pts[:, 1], pts[:, 0]))
            wrap = angles[0] + 2 * math.pi - angles[-1]
            assert cert.margin == pytest.approx(math.pi / 2 - wrap / 2, abs=1e-14)
            assert cert.margin < 0
        else:
            assert cert.margin == -math.pi / 2

    @pytest.mark.parametrize("centers", [
        np.array([[1.0, 0.0]]),
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ])
    def test_degenerate_hull_fails_without_raising(self, centers):
        cover = Cover(centers.shape[1], math.pi / 2, centers)
        assert not verify_cover(cover, "hull").passed

    def test_two_antipodal_arcs(self):
        # Their hull is a segment through the origin, but the two closed
        # half-circles cover the circle, tangent at +-e_2.
        centers = arc_centers([0.0, math.pi])
        cert = verify_cover(Cover(2, math.pi / 2, centers), "hull")
        assert cert.passed and abs(cert.margin) < 1e-14
        assert not verify_cover(Cover(2, math.pi / 2 - 1e-6, centers), "hull").passed

    @pytest.mark.parametrize("count", [3, 5, 12, 101])
    def test_circle_gaps(self, count):
        # Equally spaced arcs, rotated: covering radius pi / count, and
        # one center moved by 1e-3 widens its larger gap by that much.
        angles = 0.3 + 2 * math.pi * np.arange(count) / count
        theta = math.pi / count + 1e-9
        cert = verify_cover(Cover(2, theta, arc_centers(angles)), "hull")
        assert cert.passed and cert.resolution_or_samples == count
        assert cert.margin == pytest.approx(1e-9, abs=1e-13)
        angles[1] += 1e-3
        cert = verify_cover(Cover(2, theta, arc_centers(angles)), "hull")
        assert cert.margin == pytest.approx(1e-9 - 5e-4, abs=1e-13)

    @pytest.mark.parametrize("depth", [1e-15, 1e-10, 1e-6])
    def test_facet_near_the_origin_fails(self, depth):
        # A pentagon of centers on the plane x_3 = -depth and the north
        # pole: the hull encloses the origin, but its bottom facets pass
        # within depth of it, so -e_3 is about pi/2 from every center.
        # At depth 1e-15 the bottom triangles are not flat, yet their
        # determinants fall below their rounding bound.
        phi = 2 * math.pi * np.arange(5) / 5
        ring = np.column_stack([np.cos(phi), np.sin(phi), np.full(5, -depth)])
        centers = np.concatenate([ring, [[0.0, 0.0, 1.0]]])
        v = Cover(3, 1.2, centers).centers[ConvexHull(centers).simplices]
        edges = np.linalg.svd(v[:, 1:] - v[:, :1], compute_uv=False)[:, -1]
        assert (edges > 0.1).all()
        floor = sphere_cover._det_rounding(3)
        assert (np.abs(np.linalg.det(v)) < floor).any() == (depth < floor)
        for theta in (1.2, math.pi / 2 - 1e-3):
            assert not verify_cover(Cover(3, theta, centers), "hull").passed
        # Closed caps of radius pi/2 do cover once the origin lies inside
        # by more than the determinant's rounding.
        exact = verify_cover(Cover(3, math.pi / 2, centers), "hull")
        assert exact.passed == (depth > floor)
        if not exact.passed:
            assert exact.margin == -math.pi / 2

    def test_cycle_check(self):
        # The octahedron's eight triangles, each oriented positively.
        tri = np.array([[i, j, k] for i in (0, 3) for j in (1, 4) for k in (2, 5)])
        octahedron = np.concatenate([np.eye(3), -np.eye(3)])
        det = np.linalg.det(octahedron[tri])
        assert sphere_cover._closed_cycle(tri, det)
        assert not sphere_cover._closed_cycle(tri[1:], det[1:])
        assert not sphere_cover._closed_cycle(np.concatenate([tri, tri[:1]]),
                                              np.concatenate([det, det[:1]]))
        # A flat triangle's orientation is free, but its ridges must pair.
        flat = det.copy()
        flat[0] = 0.0
        assert sphere_cover._closed_cycle(tri, flat)
        wrong = det.copy()
        wrong[0] = -wrong[0]
        assert not sphere_cover._closed_cycle(tri, wrong)

    def test_flat_triangulation_simplices(self):
        # In dimension 4 at theta = 0.5 the hull has facets with coplanar
        # vertices, which Qhull's triangulation splits into flat simplices.
        cover = greedy_cover(4, 0.5)
        det = np.linalg.det(cover.centers[ConvexHull(cover.centers).simplices])
        assert (np.abs(det) < 1e-9).any()
        assert cover.certificate.method == "hull" and cover.certificate.margin > 0
        exact = 0.5 - math.acos(float(facet_offsets(cover.centers).min()))
        assert cover.certificate.margin == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("n,theta", LIBRARY_RADII)
    def test_margin_matches_facet_offsets(self, n, theta):
        cover = greedy_cover(n, theta)
        exact = theta - math.acos(float(facet_offsets(cover.centers).min()))
        assert cover.certificate.margin == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("n,theta", LIBRARY_RADII)
    def test_agrees_with_sampling(self, n, theta):
        # A sample can only miss the farthest point, so the sampled
        # margin is at least the exact one; the exact covering radius is
        # attained at the normal of the facet nearest the origin.
        cover = greedy_cover(n, theta)
        hull = verify_cover(cover, "hull")
        sampled = verify_cover(cover, "sampled", 200_000, seed=n)
        assert hull.passed and sampled.passed and hull.margin > 0
        assert sampled.margin >= hull.margin - 1e-12
        eq = ConvexHull(cover.centers).equations
        deepest = eq[np.argmax(eq[:, -1]), :-1]
        radius = math.acos(float((cover.centers @ deepest).max()))
        assert theta - radius == pytest.approx(hull.margin, abs=1e-9)


def unit_rows(rng, count, n):
    rows = rng.standard_normal((count, n))
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def hull_facets(rows, original=None):
    """The facets of ``sphere_cover._hull_of(rows)`` as sorted index
    tuples, each index mapped through ``original`` when given."""
    hull = sphere_cover._hull_of(rows)
    simplices = hull.labels[hull.facets[hull.live()]]
    if original is not None:
        simplices = original[simplices]
    return {tuple(sorted(s)) for s in simplices.tolist()}


def qhull_facets(rows):
    return {tuple(sorted(s)) for s in ConvexHull(rows).simplices.tolist()}


# Centers +-e1, +-e2, +-e3 and two rows 1.4e-9 from e1 and e2, at a
# radius 0.05 above the octahedron's covering radius: every facet of
# their hull is a sliver or an octahedron facet.
SLIVER_CENTERS = np.concatenate([
    np.eye(3), -np.eye(3),
    np.array([[1.0, 1e-9, -1e-9], [-1e-9, 1.0, 1e-9]]) / math.sqrt(1 + 2e-18)])
SLIVER_THETA = math.acos(1 / math.sqrt(3)) + 0.05


class TestHull:
    """``_Hull`` against Qhull (scipy.spatial), the test-only oracle."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_sets_match_qhull(self, n, seed):
        # Points in general position have one triangulation, their facets.
        rng = np.random.default_rng([n, seed])
        rows = unit_rows(rng, int(rng.integers(10, 201)), n)
        assert hull_facets(rows) == qhull_facets(rows)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cross_polytope_matches_qhull(self, n):
        rows = np.concatenate([np.eye(n), -np.eye(n)])
        facets = hull_facets(rows)
        assert len(facets) == 2**n and facets == qhull_facets(rows)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_cube_offsets_match_qhull(self, n):
        # The cube's facets are not simplices, so the two triangulations
        # may differ; every simplex still lies on a facet, 1/sqrt(n) out.
        rows = np.array(list(itertools.product((1.0, -1.0), repeat=n))) / math.sqrt(n)
        hull = sphere_cover._hull_of(rows)
        offsets = hull.offsets[hull.live()]
        assert np.abs(offsets - 1 / math.sqrt(n)).max() < 1e-15
        assert abs(facet_offsets(rows).min() - 1 / math.sqrt(n)) < 1e-15
        theta = math.acos(1 / math.sqrt(n))
        cert = verify_cover(Cover(n, theta + 1e-9, rows), "hull")
        assert cert.passed and cert.margin == pytest.approx(1e-9, abs=1e-13)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_near_duplicates_are_left_out(self, n):
        # Each of 15 rows gets a copy within 1e-10 (under _FLAT_FLOOR);
        # one of each pair is left out, so the facets are those of the
        # rows without copies, whichever of a pair comes first.
        rng = np.random.default_rng(n)
        rows = unit_rows(rng, 40, n)
        copies = rows[:15] + unit_rows(rng, 15, n) * rng.uniform(1e-11, 1e-10, (15, 1))
        copies /= np.linalg.norm(copies, axis=1)[:, None]
        order = rng.permutation(55)
        original = np.concatenate([np.arange(40), np.arange(15)])[order]
        both = np.concatenate([rows, copies])[order]
        assert hull_facets(both, original) == qhull_facets(rows)
        theta = math.acos(float(facet_offsets(rows).min())) + 1e-6
        cert = verify_cover(Cover(n, theta, both), "hull")
        assert cert.passed and cert.margin == pytest.approx(1e-6, abs=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_closed_hemisphere_fails_cleanly(self, n):
        # e1 and the equator's cross-polytope: the origin lies on the
        # hull's boundary, so -e1 is exactly pi/2 from every center.
        rows = np.concatenate([np.eye(n), -np.eye(n)[1:]])
        cert = verify_cover(Cover(n, math.pi / 2, rows), "hull")
        assert not cert.passed and cert.margin == -math.pi / 2

    def test_sliver_cover_in_every_row_order(self):
        # The two near pairs make sliver facets whose determinants are
        # about 1e-9: above their rounding bound, so no order is refused.
        # The facet (-e1, -e2, -e3) keeps the covering radius of the
        # octahedron, so the exact margin is 0.05; a sliver's offset,
        # solved from a matrix of condition ~1e9, may read it lower.
        rng = np.random.default_rng(0)
        assert verify_cover(Cover(3, SLIVER_THETA, SLIVER_CENTERS), "net", 0.01).passed
        for _ in range(300):
            centers = SLIVER_CENTERS[rng.permutation(8)]
            cert = verify_cover(Cover(3, SLIVER_THETA, centers), "hull")
            assert cert.passed and 0.05 - 1e-6 < cert.margin <= 0.05 + 1e-12

    def test_facet_budget_fails_the_certificate(self, monkeypatch):
        rows = unit_rows(np.random.default_rng(3), 100, 4)
        theta = math.acos(float(facet_offsets(rows).min())) + 1e-6
        assert verify_cover(Cover(4, theta, rows), "hull").passed
        monkeypatch.setattr(sphere_cover, "_HULL_FACET_BUDGET", 100)
        cert = verify_cover(Cover(4, theta, rows), "hull")
        assert not cert.passed and cert.margin == theta - math.pi

    def test_sampled_n8_cover_fails_within_the_budget(self):
        # 2,119 sampled centers in R^8 pass the facet budget long before
        # the last one is added.
        cover = greedy_cover(8, 0.987)
        assert cover.certificate.method == "sampled" and len(cover) == 2119
        cert = verify_cover(cover, "hull")
        assert not cert.passed and cert.margin == 0.987 - math.pi

    def test_five_thousand_points(self):
        rows = unit_rows(np.random.default_rng(5), 5000, 3)
        cert = verify_cover(Cover(3, 0.2, rows), "hull")
        # Every row is a vertex: 2 * 5000 - 4 triangles.
        assert cert.passed and cert.resolution_or_samples == 9996


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
        clear_cover_caches()
        b = greedy_cover(4, 0.9, seed=7)
        assert a is not b
        assert np.array_equal(a.centers, b.centers)

    @pytest.mark.parametrize("n,theta", LIBRARY_RADII)
    def test_library_covers_are_exact(self, n, theta):
        cert = greedy_cover(n, theta).certificate
        assert cert.method == "hull"
        assert cert.passed and cert.margin > 0

    def test_sizes(self):
        # Witnessed hull cover sizes at the illumination radius and at
        # the large-ball radius.
        assert [len(greedy_cover(n, ILLUMINATION_THETA)) for n in range(2, 8)] == [
            4, 6, 24, 26, 44, 71]
        assert [len(greedy_cover(n, cap_overlap_radius(n, n))) for n in range(2, 8)] == [
            5, 14, 24, 42, 44, 82]

    def test_two_point_circle_is_exact(self):
        # Two antipodal arcs of radius pi/2 enclose no polygon around the
        # origin; the circle's gap certificate proves them all the same.
        cover = greedy_cover(2, math.pi / 2)
        assert len(cover) == 2
        assert cover.certificate.method == "hull" and cover.certificate.passed

    def test_facet_budget_falls_back_to_sampling(self, monkeypatch):
        clear_cover_caches()
        monkeypatch.setattr(sphere_cover, "_HULL_FACET_BUDGET", 10)
        cover = greedy_cover(4, 0.9, seed=7)
        assert cover.certificate.method == "sampled"
        assert cover.certificate.passed
        assert sphere_cover._hull_cover(4, 0.9, 20_000) is None
        clear_cover_caches()

    def test_hull_failure_falls_back_to_sampling(self, no_hull):
        clear_cover_caches()
        cover = greedy_cover(3, 0.9, seed=7)
        assert cover.certificate.method == "sampled"
        assert verify_cover(cover, "hull").margin == 0.9 - math.pi
        clear_cover_caches()

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

    @pytest.mark.parametrize("build", [
        lambda: sphere_net(6, 0.01),
        lambda: sphere_cover._hull_cover(3, 0.2, 5),  # the cross-polytope has 6
        lambda: sphere_cover._deepen(CROSS_3, math.cos(0.2), 8),  # the hull grows past 8
        lambda: sphere_cover._greedy_cover_nd(3, 0.9, 0, 5),
    ])
    def test_every_budget_raises_one_error(self, build):
        # A RuntimeError for library callers, a ValueError (exit 3) for the CLI.
        assert issubclass(BudgetError, RuntimeError) and issubclass(BudgetError, ValueError)
        with pytest.raises(BudgetError, match="needs|exceeded"):
            build()

    @pytest.mark.parametrize("n, theta", [(2, 1e-5), (2, 1e-9), (3, 0.01), (30, math.pi / 4)])
    def test_budget_below_the_count_bound_is_refused_first(self, n, theta):
        # The circle needs ceil(pi / theta) centers (314,160 at 1e-5), and
        # up to pi/4 every cover needs 1 / cap_share of them (40,000 at
        # 0.01 in R^3, 229,899 at pi/4 in R^30), past the 20,000 of
        # CoverParams: each is refused before the hull or the greedy runs.
        misses = sphere_cover._hull_cover.cache_info().misses
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="exceeded 20000 centers"):
            greedy_cover(n, theta)
        assert time.perf_counter() - start < 0.5
        assert sphere_cover._hull_cover.cache_info().misses == misses

    def test_budget_at_the_count_bound_is_built(self):
        # The circle's cover at 0.5 has exactly ceil(pi / 0.5) = 7
        # centers, and in R^3 the area bound at 0.5 (16.3 caps) lets a
        # budget of 17 through to the hull build, which runs out of it.
        assert len(greedy_cover(2, 0.5, params=CoverParams(max_centers=7))) == 7
        with pytest.raises(BudgetError):
            greedy_cover(2, 0.5, params=CoverParams(max_centers=6))
        misses = sphere_cover._hull_cover.cache_info().misses
        with pytest.raises(BudgetError):
            greedy_cover(3, 0.5, params=CoverParams(max_centers=17))
        assert sphere_cover._hull_cover.cache_info().misses == misses + 1
        clear_cover_caches()

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
        clear_cover_caches()
        yield
        clear_cover_caches()

    def test_repeat_returns_same_cover(self):
        a = greedy_cover(4, 0.9, seed=7)
        assert greedy_cover(4, 0.9, seed=7) is a
        assert sphere_cover._hull_cover.cache_info().misses == 1

    def test_other_seed_hits(self):
        # A hull cover depends on (n, theta) only.
        a = greedy_cover(4, 0.9, seed=7)
        assert greedy_cover(4, 0.9, seed=8) is a
        info = sphere_cover._hull_cover.cache_info()
        assert (info.hits, info.misses) == (1, 1)

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
        assert sphere_cover._hull_cover.cache_info().currsize == 1

    @pytest.mark.parametrize(
        "args",
        [
            (3, 0.9, 7, CoverParams(max_centers=100)),
            (3, 0.91, 7, None),
            (4, 0.9, 7, None),
        ],
    )
    def test_different_keys_miss(self, args):
        a = greedy_cover(3, 0.9, seed=7)
        b = greedy_cover(*args)
        assert b is not a
        assert cover_misses() == 2

    def test_sampled_path_keys_on_seed(self, no_hull):
        a = greedy_cover(3, 0.9, seed=7)
        assert a.certificate.method == "sampled"
        assert greedy_cover(3, 0.9, seed=7) is a
        assert greedy_cover(3, 0.9, seed=8) is not a
        assert sphere_cover._sampled_cover.cache_info().misses == 2

    def test_size_is_bounded(self, no_hull):
        for seed in range(50):
            greedy_cover(3, 1.2, seed=seed)
        info = sphere_cover._sampled_cover.cache_info()
        assert info.misses == 50
        assert info.currsize <= sphere_cover._COVER_CACHE_SIZE == info.maxsize

    def test_failures_are_not_cached(self):
        # Past pi/4 no count bound refuses the budget first, so the hull
        # build runs out of it inside the cache.
        params = CoverParams(max_centers=7)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                greedy_cover(3, 0.9, seed=0, params=params)
        info = sphere_cover._hull_cover.cache_info()
        assert info.misses == 2
        assert info.currsize == 0

    def test_fallback_is_cached(self, monkeypatch):
        # Past the budget the hull is tried once per (n, theta,
        # max_centers); each seed then has its own sampled cover.
        monkeypatch.setattr(sphere_cover, "_HULL_FACET_BUDGET", 10)
        a = greedy_cover(4, 0.9, seed=7)
        b = greedy_cover(4, 0.9, seed=8)
        assert a.certificate.method == b.certificate.method == "sampled"
        hull = sphere_cover._hull_cover.cache_info()
        assert (hull.hits, hull.misses) == (1, 1)
        assert sphere_cover._sampled_cover.cache_info().misses == 2


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

    def test_antipodal_pair_is_saturated_past_a_right_angle(self):
        # Every unit vector lies within pi/2 of e1 or -e1, which the pool
        # accepts first; the hull step has nothing to add.
        packing = maximal_packing(3, 2.0, seed=0)
        assert packing.saturated
        assert np.array_equal(packing.centers, [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])

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

    def test_round_two_memory(self):
        # The pool rounds accept 293 points, checked against the
        # second round's 80,000-row pool (one whole product of the two
        # traced a 191 MB peak); the hull step then proves 365 saturated.
        packing, peak = traced_peak(lambda: maximal_packing(5, 0.5))
        assert len(packing) == 365 and packing.saturated
        assert peak < 40 * 2**20

    # n = 6 at 0.5 passes the facet budget, as at 0.6 below.
    @pytest.mark.parametrize("n, theta", [
        (n, theta) for n in range(3, 7) for theta in (0.5, 0.75, 1.0, math.pi / 2)
        if (n, theta) != (6, 0.5)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_saturation_is_proved(self, n, theta, seed):
        packing = maximal_packing(n, theta, seed=seed)
        assert packing.saturated
        assert verify_cover(Cover(n, theta, packing.centers), "hull").passed
        if theta == math.pi / 2:
            # The cross-polytope: every row lies exactly pi/2 from its
            # nearest, so no row taken out leaves a hole deeper than theta.
            assert len(packing) == 2 * n
            return
        # Without the row whose nearest neighbour is farthest, that row
        # lies farther than theta from every other: the proof must fail.
        dots = packing.centers @ packing.centers.T
        np.fill_diagonal(dots, -1.0)
        nearest = dots.max(axis=1)
        lone = int(np.argmin(nearest))
        assert math.acos(nearest[lone]) > theta + 1e-6
        rest = np.delete(packing.centers, lone, axis=0)
        assert not verify_cover(Cover(n, theta, rest), "hull").passed

    def test_pool_holes_are_filled(self):
        # The pool alone leaves a hole deeper than 0.5 here, and so did
        # the hill-climbing polish this hull step replaced (309 points, a
        # certificate margin of -0.0393).
        pool = maximal_packing(5, 0.5, seed=1, params=PackParams(polish=False))
        assert not pool.saturated
        assert not verify_cover(Cover(5, 0.5, pool.centers), "hull").passed
        packing = maximal_packing(5, 0.5, seed=1)
        assert packing.saturated
        assert verify_cover(Cover(5, 0.5, packing.centers), "hull").passed
        assert np.array_equal(packing.centers[: len(pool)], pool.centers)

    def test_past_the_facet_budget(self):
        packing = maximal_packing(6, 0.6, seed=0)
        assert not packing.saturated
        assert first_pair_outside(packing.centers, low=0.6 - 1e-9, angles=True) is None

    def test_max_points_stops_early(self):
        packing = maximal_packing(4, 0.8, seed=0, params=PackParams(max_points=5))
        assert len(packing) == 5
        assert not packing.saturated

    def test_circle_budget_is_refused_first(self):
        # floor(2 pi / 1e-9) is about 6.3e9 points, past MAX_NET_POINTS.
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="exceeded 2000000 points"):
            maximal_packing(2, 1e-9)
        assert time.perf_counter() - start < 0.5
        capped = maximal_packing(2, 1e-9, params=PackParams(max_points=5))
        assert len(capped) == 5 and not capped.saturated
        assert len(maximal_packing(2, 1e-3)) == 6_283

    @pytest.mark.parametrize("field", ["pool", "max_points"])
    def test_negative_params_are_refused(self, field):
        with pytest.raises(ValueError, match=field):
            PackParams(**{field: -1})

    def test_domain(self):
        with pytest.raises(ValueError):
            maximal_packing(3, 0.0)
        with pytest.raises(ValueError):
            maximal_packing(3, math.pi)


def looped_cover_nd(n, theta, seed, max_centers=20_000):
    """The sampled greedy's own loop, which _greedy_cover_nd must
    reproduce byte for byte."""
    pool = sphere_cover._adaptive_pool(n)
    margin = sphere_cover._adaptive_margin(n, theta, pool)
    candidates = np.concatenate([np.eye(n), -np.eye(n), sphere_cover.sampling.unit_vectors(
        sphere_cover.sampling.rng_from(seed), n, pool)])
    cos_mark = math.cos(theta - margin)
    best = np.full(candidates.shape[0], -2.0)
    picked = []
    while True:
        j = int(np.argmin(best))
        if best[j] >= cos_mark:
            break
        picked.append(candidates[j])
        if len(picked) > max_centers:
            raise RuntimeError("limit")
        np.maximum(best, candidates @ candidates[j], out=best)
    return np.array(picked)


class TestFarthestFirst:
    # The four unit vectors +-e1, +-e2 of the plane, none chosen yet.
    ROWS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])

    def run(self, covered, limit=math.inf):
        chosen = []
        done = sphere_cover._farthest_first(
            self.ROWS, np.full(4, -2.0), chosen, covered, limit)
        return done, [self.ROWS.tolist().index(list(c)) for c in chosen]

    def test_closed_stop_test(self):
        # Ties go to the first index: e1, then -e1 (dot -1); e2 and -e2
        # then sit at dot 0, which a closed test counts as covered.
        assert self.run(lambda d: d >= 0.0) == (True, [0, 1])

    def test_open_stop_test(self):
        assert self.run(lambda d: d > 0.0) == (True, [0, 1, 2, 3])

    def test_limit(self):
        assert self.run(lambda d: d > 0.0, limit=3) == (False, [0, 1, 2])
        assert self.run(lambda d: d >= 0.0, limit=2) == (True, [0, 1])

    @pytest.mark.parametrize("n,theta,seed", [(3, 0.9, 0), (3, 1.3, 4), (4, 1.0, 2)])
    def test_sampled_cover_matches_own_loop(self, n, theta, seed):
        centers = sphere_cover._greedy_cover_nd(n, theta, seed, 20_000)
        assert centers.tobytes() == looped_cover_nd(n, theta, seed).tobytes()

    def test_sampled_cover_limit_raises(self):
        with pytest.raises(RuntimeError, match="exceeded 5 centers"):
            sphere_cover._greedy_cover_nd(3, 0.9, 0, 5)


class TestCoveringSizeEstimate:
    """The leading-order cover size (1/sin theta)^n by caps of radius
    theta, read off the covering rate as 2^(n covering_exponent(pi/2 -
    theta))."""

    @staticmethod
    def estimate(n, theta):
        return 2.0 ** (n * covering_exponent(math.pi / 2 - theta))

    def test_power_of_two(self):
        assert self.estimate(10, math.pi / 6) == pytest.approx(1024.0, rel=1e-12)

    def test_hemisphere_limit(self):
        assert self.estimate(5, math.pi / 2 - 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_generic_value(self):
        assert self.estimate(4, math.pi / 3) == pytest.approx(
            (2.0 / math.sqrt(3.0)) ** 4, rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            self.estimate(4, 1.8)


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
