"""Tests for spiky balls, cap bodies, and the illumination engine."""

import json
import math
import subprocess
import sys

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
from gallai.cli import main

from conftest import monte_carlo_hull_margin, random_cap_body, random_direction_set

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


def _raise_on_lp(*args, **kwargs):
    raise AssertionError("the LP fallback ran")


def _stiemke_lambda(y):
    u, _, _ = np.linalg.svd(y, full_matrices=False)
    return 1.0 - u @ u.sum(axis=0)


def _circle_margin(y):
    """Exact min over unit u of max_j y_j . u for unit rows in the plane:
    cos of half the widest angular gap between consecutive rows."""
    angles = np.sort(np.arctan2(y[:, 1], y[:, 0]))
    gaps = np.diff(np.append(angles, angles[0] + 2.0 * math.pi))
    return math.cos(gaps.max() / 2.0)


@pytest.fixture
def no_lp(monkeypatch):
    monkeypatch.setattr("scipy.optimize.linprog", _raise_on_lp)


def _certified(y, monkeypatch):
    """True iff positive_hull_full proves ``y`` full without the LP."""
    with monkeypatch.context() as m:
        m.setattr("scipy.optimize.linprog", _raise_on_lp)
        try:
            return positive_hull_full(y)
        except AssertionError:
            return False


class TestPositiveHull:
    def test_cross_polytope_spans(self, no_lp):
        for n in range(1, 8):
            assert positive_hull_full(np.concatenate([np.eye(n), -np.eye(n)]))

    def test_quarter_plane(self):
        assert not positive_hull_full(np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_halfspace_boundary_pair(self):
        # {e1, -e1, e2} leaves -e2 unseen even though the rank is full.
        assert not positive_hull_full(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))

    def test_too_few_directions(self):
        assert not positive_hull_full(np.eye(3))

    def test_regular_simplex(self, no_lp):
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


class TestStiemkeCertificate:
    """The SVD certificate decides full hulls; the LP only the rest."""

    @pytest.mark.parametrize("seed", range(3))
    def test_illuminate_output_proved_without_lp(self, seed, no_lp):
        body = random_cap_body(3 + seed, 60, seed=40 + seed)
        out = illuminate_cap_body(body, seed=seed)
        assert positive_hull_full(out)
        assert verifies_illumination(body, out) == (True, None)

    def test_non_positive_lambda_falls_back_to_lp(self, monkeypatch):
        # A full fan whose widest gap is 179 degrees: the projected
        # all-ones vector is negative on the row at 90 degrees, so only
        # the LP can say full.
        a = np.radians([0.0, 45.0, 90.0, 135.0, 181.0])
        y = np.stack([np.cos(a), np.sin(a)], axis=1)
        assert _stiemke_lambda(y).min() <= 0.0
        assert _circle_margin(y) > 0.0
        from scipy import optimize

        solve, calls = optimize.linprog, []

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(optimize, "linprog", counting)
        assert positive_hull_full(y)
        assert len(calls) == 1

    @pytest.mark.parametrize("y", [
        np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [-3.0, 0.0]]),
        np.concatenate([cross_polytope_vertices(2, 1.0), np.zeros((4, 1))], axis=1),
        np.zeros((5, 3)),
    ], ids=["line", "plane-in-space", "zero"])
    def test_rank_deficient_false_without_lp(self, y, no_lp):
        assert not positive_hull_full(y)

    @pytest.mark.parametrize("delta", [1e-12, 1e-9, 1e-6])
    def test_perturbed_half_space_boundary_never_overcertified(self, delta, monkeypatch):
        # {e1, -e1, e2} with each boundary row tilted by -delta, 0 or
        # +delta: full only when both tilt away from e2.
        for a in (-delta, 0.0, delta):
            for b in (-delta, 0.0, delta):
                y = np.array([[1.0, a], [-1.0, b], [0.0, 1.0]])
                y /= np.linalg.norm(y, axis=1)[:, None]
                margin = _circle_margin(y)
                if _certified(y, monkeypatch):
                    assert margin >= -1e-12, (a, b)
                    assert monte_carlo_hull_margin(y, 10_000, seed=1) >= -1e-12
                if margin < -1e-12:
                    assert not positive_hull_full(y), (a, b)

    @pytest.mark.parametrize("seed", range(8))
    def test_perturbed_cross_polytope_facet_never_overcertified(self, seed, monkeypatch):
        # {+-e1, +-e2, e3} in R^3 with random tilts of size 1e-12 .. 1e-2.
        # At odd seeds every side row tilts toward e3, which leaves -e3
        # unseen.
        rng = np.random.default_rng(seed)
        base = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]], float)
        for scale in (1e-12, 1e-9, 1e-6, 1e-2):
            tilt = scale * rng.uniform(-1.0, 1.0, base.shape)
            if seed % 2:
                tilt[:4, 2] = np.abs(tilt[:4, 2])
            y = base + tilt
            y /= np.linalg.norm(y, axis=1)[:, None]
            witness = (y @ np.array([0.0, 0.0, -1.0])).max()
            margin = min(witness, monte_carlo_hull_margin(y, 10_000, seed=seed))
            if _certified(y, monkeypatch):
                assert margin >= -1e-12, scale

    def test_cli_import_leaves_out_scipy_optimize(self, tmp_path, capsys):
        # In a fresh interpreter: importing the CLI, lowerbound, a pierce
        # without large balls, both verifiers and bounds load no scipy
        # module; illuminate loads Qhull (scipy.spatial) for its cover
        # but not scipy.optimize, whose LP runs only when the certificate
        # fails, as it does for the half-plane set. The directions to
        # verify are built here, before the fresh interpreter starts.
        spikes = [[s * 1.1 if i == j else 0.0 for j in range(3)] for i in range(3) for s in (1, -1)]
        family, body, points, dirs = (
            str(tmp_path / name) for name in ("family.json", "body.json", "points.json", "dirs.json")
        )
        balls = [{"center": [0, 0], "radius": 1}, {"center": [1.5, 0], "radius": 1}]
        with open(family, "w") as fh:
            json.dump({"kind": "ball_family", "dimension": 2, "balls": balls}, fh)
        with open(body, "w") as fh:
            json.dump({"kind": "spiky_body", "dimension": 3, "vertices": spikes}, fh)
        assert main(["illuminate", body, "--output", dirs]) == 0
        capsys.readouterr()
        scipy_free = [
            ["lowerbound", "-n", "5", "--target", "10", "--samples", "1000"],
            ["pierce", family, "--output", points],
            ["verify", "--family", family, "--points", points],
            ["verify", "--body", body, "--directions", dirs],
            ["bounds"],
        ]
        code = (
            "import contextlib, io, sys\n"
            "import numpy as np\n"
            "import gallai.cli\n"
            "from gallai import positive_hull_full\n"
            "def scipy():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "def run(argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert gallai.cli.main(argv) == 0, argv\n"
            "assert scipy() == [], scipy()\n"
            f"for argv in {scipy_free!r}:\n"
            "    run(argv)\n"
            "    assert scipy() == [], (argv, scipy())\n"
            f"run({['illuminate', body, '--output', dirs]!r})\n"
            "assert 'scipy.spatial' in scipy() and 'scipy.optimize' not in scipy(), scipy()\n"
            "assert positive_hull_full(np.concatenate([np.eye(3), -np.eye(3)]))\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "assert not positive_hull_full(np.array([[1.0, 0], [-1, 0], [0, 1]]))\n"
            "assert 'scipy.optimize' in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


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
