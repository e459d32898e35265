"""Tests for spiky balls, cap bodies, and the illumination engine."""

import math

import numpy as np
import pytest

from gallai import (
    CapBody,
    DirectionSet,
    SpikyBall,
    VerificationError,
    base_cap,
    illuminate_cap_body,
    illumination_cap,
    is_cap_body,
    positive_hull_full,
    solve_alpha,
    u1_separation_check,
    verifies_illumination,
)
from gallai import sphere_cover
from gallai.illumination import monte_carlo_hull_margin

from conftest import random_cap_body, random_direction_set

SQRT2 = math.sqrt(2.0)


def cross_polytope_vertices(n, scale):
    return scale * np.concatenate([np.eye(n), -np.eye(n)])


def hand_body():
    return CapBody.from_vertices(3, cross_polytope_vertices(3, SQRT2))


class TestBaseCap:
    def test_norm_two(self):
        cap = base_cap([2.0, 0.0, 0.0])
        assert np.allclose(cap.axis, [1, 0, 0])
        assert cap.angular_radius == pytest.approx(math.pi / 3, abs=1e-12)
        assert cap.closed

    def test_lower_bound_scale(self):
        cap = base_cap([2.0 / math.sqrt(3.0), 0.0])
        assert cap.angular_radius == pytest.approx(math.pi / 6, abs=1e-12)

    def test_sqrt_two(self):
        cap = base_cap([SQRT2, 0.0])
        assert cap.angular_radius == pytest.approx(math.pi / 4, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            base_cap([1.0, 0.0])


class TestIlluminationCap:
    def test_lower_bound_scale(self):
        cap = illumination_cap([2.0 / math.sqrt(3.0), 0.0])
        assert np.allclose(cap.axis, [-1, 0])
        assert cap.angular_radius == pytest.approx(math.pi / 3, abs=1e-12)
        assert not cap.closed

    def test_sqrt_two(self):
        cap = illumination_cap([SQRT2, 0.0])
        assert cap.angular_radius == pytest.approx(math.pi / 4, abs=1e-12)

    def test_widens_toward_hemisphere(self):
        cap = illumination_cap([1.0 + 1e-9, 0.0])
        assert cap.angular_radius == pytest.approx(math.pi / 2, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            illumination_cap([0.5, 0.0])


class TestIsCapBody:
    def test_tangent_cross_polytope(self):
        # Adjacent axes are pi/2 apart and the pi/4 caps touch exactly.
        ok, pair = is_cap_body(SpikyBall(3, cross_polytope_vertices(3, SQRT2)))
        assert ok and pair is None

    def test_overlapping_cross_polytope(self):
        # Norm 2 gives pi/3 caps, and pi/2 < 2 pi/3.
        ok, pair = is_cap_body(SpikyBall(3, cross_polytope_vertices(3, 2.0)))
        assert not ok
        assert pair == (0, 1)

    def test_single_vertex(self):
        ok, pair = is_cap_body(SpikyBall(2, [[2.0, 0.0]]))
        assert ok and pair is None

    def test_cap_body_constructor_enforces(self):
        with pytest.raises(ValueError):
            CapBody.from_vertices(3, cross_polytope_vertices(3, 2.0))

    def test_spiky_ball_vertex_validation(self):
        with pytest.raises(ValueError):
            SpikyBall(2, [[1.0, 0.0]])


class TestPositiveHull:
    def test_cross_polytope_spans(self):
        for n in (2, 4):
            assert positive_hull_full(np.concatenate([np.eye(n), -np.eye(n)]))

    def test_quarter_plane(self):
        assert not positive_hull_full(np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_halfspace_boundary_pair(self):
        # {e1, -e1, e2} leaves -e2 unseen even though the rank is full.
        assert not positive_hull_full(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))

    def test_too_few_directions(self):
        assert not positive_hull_full(np.eye(3))

    def test_regular_simplex(self):
        simplex = np.array(
            [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
        ) / math.sqrt(3.0)
        assert positive_hull_full(simplex)
        assert monte_carlo_hull_margin(simplex, 10_000, seed=0) > 0

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_monte_carlo(self, seed):
        n = 2 + seed % 5
        size = 4 + (seed * 7) % 40
        dirs = random_direction_set(n, size, seed)
        margin = monte_carlo_hull_margin(dirs, 10_000, seed=seed)
        decided = positive_hull_full(dirs)
        if margin > 1e-3:
            assert decided
        if margin < -1e-3:
            assert not decided


class TestVerifiesIllumination:
    def test_hand_body_with_antipodal_axes(self):
        body = hand_body()
        dirs = DirectionSet(3, cross_polytope_vertices(3, 1.0))
        ok, witness = verifies_illumination(body, dirs)
        assert ok and witness is None

    def test_halfspace_directions_fail_hull(self):
        body = hand_body()
        dirs = DirectionSet(3, random_direction_set(3, 10, 1, flavor="halfspace"))
        ok, witness = verifies_illumination(body, dirs)
        assert not ok and witness is None

    def test_single_spike_with_spanning_directions(self):
        body = SpikyBall(2, [[2.0, 0.0]])
        square = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        ok, witness = verifies_illumination(body, DirectionSet(2, square))
        assert ok

    def test_reports_first_dark_vertex(self):
        body = SpikyBall(2, [[2.0, 0.0]])
        # Spanning set whose members all miss the narrow pi/6 cap at -e1.
        spread = np.array(
            [
                [math.cos(a), math.sin(a)]
                for a in (0.0, math.pi / 2, math.pi - 0.8, math.pi + 0.8)
            ]
        )
        ok, witness = verifies_illumination(body, DirectionSet(2, spread))
        assert not ok
        assert witness == 0

    def test_monotone_under_added_directions(self):
        for seed in range(4):
            body = random_cap_body(3 + seed, 40, seed=50 + seed)
            dirs = illuminate_cap_body(body, seed=seed)
            extra = random_direction_set(body.dimension, 5, seed + 99, flavor="open")
            bigger = DirectionSet(
                body.dimension, np.concatenate([dirs.directions, extra])
            )
            ok, _ = verifies_illumination(body, bigger)
            assert ok

    def test_outward_scaling_keeps_certificates_valid(self):
        # Pushing a vertex outward shrinks its illumination cap, so a
        # set certified for the scaled body still certifies the original.
        body = random_cap_body(4, 30, seed=77)
        vertices = body.vertices.copy()
        vertices[0] *= 1.25
        scaled = CapBody.from_vertices(4, vertices)
        dirs = illuminate_cap_body(scaled, seed=3)
        ok, _ = verifies_illumination(body, dirs)
        assert ok


class TestIlluminateCapBody:
    def test_hand_body_exactly_six_directions(self):
        out = illuminate_cap_body(hand_body(), alpha=math.pi / 4, seed=0)
        assert len(out) == 6
        assert all(tag.startswith("U1:") for tag in out.provenance)
        axes = -hand_body().vertices / SQRT2
        # Output is exactly the antipodal vertex directions.
        assert np.allclose(np.sort(out.directions, axis=0), np.sort(axes, axis=0))

    def test_all_near_body_uses_cover_only(self):
        body = random_cap_body(3, 20, seed=13)
        vertices = body.vertices / np.linalg.norm(body.vertices, axis=1)[:, None] * 1.05
        near_body = CapBody.from_vertices(3, vertices)
        alpha = solve_alpha(1e-9)
        assert (np.linalg.norm(near_body.vertices, axis=1) < 1 / math.cos(alpha)).all()
        out = illuminate_cap_body(near_body, seed=2)
        assert not any(tag.startswith("U1:") for tag in out.provenance)
        assert all(tag.startswith("U2:") for tag in out.provenance)

    def test_size_bound(self):
        for seed in range(6):
            body = random_cap_body(3 + seed % 3, 60, seed=200 + seed)
            alpha = 0.7
            out = illuminate_cap_body(body, alpha=alpha, seed=seed)
            norms = np.linalg.norm(body.vertices, axis=1)
            far = int((norms >= 1.0 / math.cos(alpha) - 1e-12).sum())
            u2 = sum(1 for tag in out.provenance if tag.startswith("U2:"))
            assert len(out) <= far + u2

    def test_determinism(self):
        body = random_cap_body(4, 40, seed=5)
        a = illuminate_cap_body(body, seed=21)
        b = illuminate_cap_body(body, seed=21)
        assert np.array_equal(a.directions, b.directions)
        assert a.provenance == b.provenance

    def test_other_seed_reuses_the_cover(self):
        # The U2 block is a hull cover, which depends on (n, theta) only.
        sphere_cover._hull_cover.cache_clear()
        body = random_cap_body(5, 40, seed=9)
        a = illuminate_cap_body(body, seed=1)
        b = illuminate_cap_body(body, seed=2)
        u2 = [i for i, tag in enumerate(a.provenance) if tag.startswith("U2:")]
        assert u2 and a.provenance == b.provenance
        assert a.directions[u2].tobytes() == b.directions[u2].tobytes()
        info = sphere_cover._hull_cover.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            illuminate_cap_body(hand_body(), alpha=0.0)
        with pytest.raises(ValueError):
            illuminate_cap_body(hand_body(), alpha=math.pi / 2)


class TestU1Separation:
    def test_hand_body_at_pi_quarter(self):
        assert u1_separation_check(hand_body(), math.pi / 4)

    def test_single_far_vertex(self):
        assert u1_separation_check(SpikyBall(2, [[3.0, 0.0]]), 0.9)

    def test_violating_spiky_ball(self):
        # Two deep spikes 0.3 rad apart: their axes are far less than
        # 2 alpha apart for alpha = pi/4.
        v = np.array(
            [[3.0, 0.0], [3.0 * math.cos(0.3), 3.0 * math.sin(0.3)]]
        )
        assert not u1_separation_check(SpikyBall(2, v), math.pi / 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_holds_for_random_cap_bodies(self, seed):
        body = random_cap_body(3 + seed % 4, 50, seed=300 + seed)
        for alpha in (0.3, solve_alpha(1e-9), 1.2):
            assert u1_separation_check(body, alpha)


class TestRandomBodiesEndToEnd:
    @pytest.mark.parametrize("seed", range(6))
    def test_pipeline(self, seed):
        body = random_cap_body(3 + seed % 4, 60, seed=400 + seed)
        out = illuminate_cap_body(body, seed=seed)
        ok, witness = verifies_illumination(body, out, 1e-9)
        assert ok, f"vertex {witness} dark"

    def test_verification_error_carries_result(self):
        body = hand_body()
        # Alpha so small every vertex is "far": U1 works here, so force
        # failure by tampering instead: a one-direction set cannot span.
        ok, _ = verifies_illumination(body, DirectionSet(3, [[1.0, 0.0, 0.0]]))
        assert not ok
