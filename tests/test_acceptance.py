"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; the runtime ceilings are asserted too.
"""

import json
import math
import time

import numpy as np
import pytest

from gallai import (
    Ball,
    BallFamily,
    CapBody,
    SpikyBall,
    covering_exponent,
    illuminate_cap_body,
    is_cap_body,
    kl_exponent,
    maximal_packing,
    multiplicity_report,
    pierce,
    positive_hull_full,
    refine_ball_cover,
    solve_alpha,
    construct_separated_set,
    symmetrize,
    build_lower_bound_body,
    verifies_illumination,
    verify_piercing,
)
from gallai import files
from gallai.cli import main
from gallai.lowerbound import _direction_rng
from gallai.piercing import cap_overlap_radius
from gallai.sampling import rng_from, unit_vectors

from conftest import (
    ball_points,
    cap_points,
    circle_cover_optimum,
    circle_packing_optimum,
    far_axes_separated,
    illumination_multiplicity,
    monte_carlo_hull_margin,
    random_cap_body,
    random_direction_set,
    random_intersecting_family,
)


def _report(number, name, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (budget {budget}s)"
    print(f"criterion {number:02d} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_01_balance_root():
    started = time.monotonic()
    alpha = solve_alpha()
    assert 0.583807 <= alpha <= 0.583809
    assert 1.0 / math.cos(alpha) < 1.19851 + 1e-5
    assert abs(math.degrees(2.0 * alpha) - 66.9) <= 0.05
    _report(1, "balance root", started, 1.0)


def test_criterion_02_endpoint_identities():
    started = time.monotonic()
    diff = kl_exponent(math.pi / 2) - covering_exponent(math.pi / 4)
    assert abs(diff - (-0.5)) <= 1e-9
    assert kl_exponent(math.pi / 2) == 0.0
    _report(2, "endpoint identities", started, 1.0)


def test_criterion_03_scale_refinement_suite():
    started = time.monotonic()
    for n in range(2, 11):
        centers = refine_ball_cover([[0.0] * n], 1.0)
        bound = math.sqrt(1.0 - 1.0 / n)
        pts = ball_points(rng_from(n), n, 100_000, radius=1.0)
        gaps = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2).min(axis=1)
        assert gaps.max() <= bound + 1e-12, f"n={n}"
        # Worst-case direction: the diagonal point of the unit sphere.
        diag = np.full(n, 1.0 / math.sqrt(n))
        worst = np.linalg.norm(centers - diag, axis=1).min()
        assert worst <= bound + 1e-12
        assert worst >= bound - 1e-3
    _report(3, "scale refinement", started, 10.0)


def test_criterion_04_large_ball_cap_suite():
    started = time.monotonic()
    rng = rng_from(2024)
    for case in range(100):
        n = 2 + case % 5
        r = float(rng.uniform(2.0, 50.0))
        u = unit_vectors(rng, n, 1)[0]
        alpha = cap_overlap_radius(r, n)
        pts = cap_points(rng, u, alpha, 10_000, sphere_radius=2.0)
        gaps = np.linalg.norm(pts - (r + 1.0) * u, axis=1)
        assert gaps.max() <= r + 1e-9, f"case {case}: n={n} r={r}"
    _report(4, "large-ball caps", started, 30.0)


def test_criterion_05_piercing_pipeline():
    started = time.monotonic()
    rng = rng_from(99)
    for case in range(200):
        n = 2 + case % 4
        count = int(rng.integers(2, 201))
        family = random_intersecting_family(n, count, seed=10_000 + case)
        out = pierce(family, seed=case)
        ok, witness = verify_piercing(family, out)
        assert ok, f"case {case}: ball {witness} unpierced"
        acct = out.accounting
        expected = acct.large_count + sum(2 * n * c for _, c in acct.scale_cover_counts)
        assert len(out) == expected, f"case {case}: accounting mismatch"
    _report(5, "piercing pipeline", started, 300.0)


def test_criterion_06_circle_oracles(tmp_path, capsys):
    started = time.monotonic()
    for theta in (math.pi / 3, math.pi / 4, math.pi / 6):
        out = tmp_path / f"cover_{theta:.3f}.json"
        code = main(["cover", "-n", "2", "--theta", repr(theta), "--output", str(out)])
        assert code == 0
        capsys.readouterr()
        doc = files.load_document(out)
        assert len(doc["directions"]) == circle_cover_optimum(theta)
    for theta, expected in ((math.pi / 2, 4), (2 * math.pi / 3, 3)):
        packing = maximal_packing(2, theta, seed=0)
        assert len(packing) == expected == circle_packing_optimum(theta)
        # Exhaustive pairwise check on the circle.
        gram = packing.centers @ packing.centers.T
        np.fill_diagonal(gram, -1.0)
        assert math.acos(float(gram.max())) >= theta - 1e-9
    _report(6, "circle oracles", started, 10.0)


def test_criterion_07_illumination_pipeline():
    started = time.monotonic()
    alpha_star = solve_alpha()
    for case in range(100):
        n = 3 + case % 4
        body = random_cap_body(n, 100, seed=20_000 + case)
        out = illuminate_cap_body(body, seed=case)
        ok, witness = verifies_illumination(body, out)
        assert ok, f"case {case}: vertex {witness} dark"
        assert far_axes_separated(body, alpha_star)
        norms = np.linalg.norm(body.vertices, axis=1)
        far = int((norms >= 1.0 / math.cos(alpha_star) - 1e-12).sum())
        u2 = sum(1 for tag in out.provenance if tag.startswith("U2:"))
        assert len(out) <= far + u2
    # Hand-checked body: exactly its six antipodal vertex directions.
    v = math.sqrt(2.0) * np.concatenate([np.eye(3), -np.eye(3)])
    hand = CapBody(3, v)
    out = illuminate_cap_body(hand, alpha=math.pi / 4, seed=0)
    assert len(out) == 6
    assert all(tag.startswith("U1:") for tag in out.provenance)
    assert np.allclose(
        np.sort(out.directions, axis=0), np.sort(-v / math.sqrt(2.0), axis=0), atol=1e-12
    )
    _report(7, "illumination pipeline", started, 120.0)


def test_criterion_08_positive_hull_oracle():
    started = time.monotonic()
    rng = rng_from(7)
    disagreements = 0
    for case in range(500):
        n = 2 + case % 5
        size = int(rng.integers(n + 1, 51))
        dirs = random_direction_set(n, size, seed=30_000 + case)
        decided = positive_hull_full(dirs)
        margin = monte_carlo_hull_margin(dirs, 10_000, seed=case)
        if margin > 1e-3 and not decided:
            disagreements += 1
        if margin < -1e-3 and decided:
            disagreements += 1
    assert disagreements == 0
    _report(8, "positive-hull oracle", started, 60.0)


def test_criterion_09_lower_bound_construction():
    started = time.monotonic()
    for n in range(3, 9):
        separated = construct_separated_set(n, 2 * n, seed=n)
        angles = np.arccos(
            np.clip(separated.points @ separated.points.T, -1.0, 1.0)
        )
        np.fill_diagonal(angles, math.pi / 2)
        assert angles.min() >= math.pi / 3 - 1e-12
        assert angles.max() <= 2 * math.pi / 3 + 1e-12

        symmetric = symmetrize(separated)
        rows = {row.tobytes() for row in symmetric.points}
        assert all((-row).tobytes() in rows for row in symmetric.points)
        sym_angles = np.arccos(
            np.clip(symmetric.points @ symmetric.points.T, -1.0, 1.0)
        )
        np.fill_diagonal(sym_angles, math.pi)
        assert sym_angles.min() >= math.pi / 3 - 1e-12

        body = build_lower_bound_body(symmetric)
        ok, _ = is_cap_body(body)
        assert ok

        samples = 2_000
        rep = multiplicity_report(symmetric, samples, seed=n)
        directions = unit_vectors(_direction_rng(n), n, samples)
        counts = [illumination_multiplicity(symmetric, u) for u in directions]
        assert max(counts) == rep.max_multiplicity
        assert sum(counts) / samples == pytest.approx(rep.mean_multiplicity)
        assert dict(rep.histogram) == {
            k: sum(1 for c in counts if c == k) for k in set(counts)
        }
        assert rep.witness == pytest.approx(len(symmetric) / rep.max_multiplicity)
    _report(9, "lower-bound construction", started, 120.0)


def test_criterion_10_determinism(tmp_path, capsys):
    started = time.monotonic()
    family = random_intersecting_family(2, 15, seed=5)
    fam_path = tmp_path / "family.json"
    files.write_document(files.ball_family_document(2, family.balls), fam_path)
    v = math.sqrt(2.0) * np.concatenate([np.eye(3), -np.eye(3)])
    body_path = tmp_path / "body.json"
    files.write_document(files.spiky_body_document(SpikyBall(3, v)), body_path)

    commands = {
        "cover": ["cover", "-n", "3", "--theta", "0.9", "--seed", "11"],
        "pack": ["pack", "-n", "3", "--theta", "1.1", "--seed", "11"],
        "pierce": ["pierce", str(fam_path), "--seed", "11"],
        "illuminate": ["illuminate", str(body_path), "--seed", "11"],
        "lowerbound": [
            "lowerbound", "-n", "3", "--target", "4", "--samples", "300",
            "--seed", "11",
        ],
    }
    for name, argv in commands.items():
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}.json"
            assert main([*argv, "--output", str(out)]) == 0
            capsys.readouterr()
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"{name} not byte-identical"
    _report(10, "determinism", started, 60.0)
