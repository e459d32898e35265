"""Seeded inputs and request cycles for the four benchmark workloads.

Each workload is a fixed cycle of CLI requests. The cycle's shape
(dimensions, family sizes, targets) is the same for every seed, so the
cost of a cycle hardly moves between seeds; the seed only draws the
geometry (centers, radii, cap axes). Every input is validated by the
library's own constructors and written as a JSON artifact before any
timing starts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from gallai import Ball, BallFamily, CapBody, files, maximal_packing
from gallai.sphere_cover import PackParams

# Workload tags keep the per-workload input streams independent.
_TAGS = {"pierce-spread": 1, "pierce-dense": 2, "illuminate": 3, "lowerbound": 4}


@dataclass(frozen=True)
class Workload:
    """One cycle of argv lists (without ``--output``) and its seed rule.

    With a ``seed_base`` every request gets its own CLI seed, the base
    plus its request index; without one the CLI default seed is used.
    """

    name: str
    cycle: tuple[tuple[str, ...], ...]
    seed_base: int | None = None


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _TAGS[workload]])


def _seed_base(seed: int) -> int:
    # Requests of one run get consecutive CLI seeds; runs with different
    # workload seeds get disjoint ranges.
    return int(seed) * 1_000_000


def _spread(count: int, lo: float, hi: float) -> list[int]:
    """``count`` evenly spaced integer sizes covering [lo, hi]."""
    return [int(round(lo + (hi - lo) * (k + 0.5) / count)) for k in range(count)]


def _interleave(sizes: list[int], step: int) -> list[int]:
    """Reorder so any stretch of the cycle mixes small and large sizes."""
    return [sizes[(k * step) % len(sizes)] for k in range(len(sizes))]


def anchored_family(rng, n: int, count: int, top: float) -> BallFamily:
    """Pairwise intersecting family with radii uniform in [1, top].

    Ball 0 is the unit ball at the origin. Every other ball is placed at
    a random fraction of the sum of radii from a random earlier ball and
    kept only if it meets all earlier balls; after 60 misses it goes to
    the origin, which every earlier ball contains or meets because no
    radius is below 1.
    """
    radii = rng.uniform(1.0, top, count)
    radii[0] = 1.0
    centers = np.zeros((count, n))
    for i in range(1, count):
        for _ in range(60):
            a = int(rng.integers(0, i))
            d = rng.standard_normal(n)
            d /= np.linalg.norm(d)
            c = centers[a] + d * rng.uniform(0.2, 0.98) * (radii[a] + radii[i])
            gaps = np.linalg.norm(centers[:i] - c, axis=1)
            if np.all(gaps <= (radii[:i] + radii[i]) * (1 - 1e-9)):
                centers[i] = c
                break
    return BallFamily(n, tuple(Ball(c, float(r)) for c, r in zip(centers, radii)))


def clustered_family(rng, n: int, count: int) -> BallFamily:
    """Same-scale family: radii in [1, 1.15], centers uniform in a ball of
    radius 0.999, so every pair of balls intersects and the radius ratio
    stays below (1 - 1/n)^(-1/2) for n <= 4 (one bucket, no large balls).
    Ball 0 is the unit ball at the origin, as in ``anchored_family``."""
    radii = rng.uniform(1.0, 1.15, count)
    d = rng.standard_normal((count, n))
    d /= np.linalg.norm(d, axis=1)[:, None]
    centers = d * (0.999 * rng.random(count) ** (1.0 / n))[:, None]
    radii[0], centers[0] = 1.0, 0.0
    return BallFamily(n, tuple(Ball(c, float(r)) for c, r in zip(centers, radii)))


def cap_body(rng, n: int, max_vertices: int, seed: int) -> CapBody:
    """Cap body with axes from a separated packing and back-solved cap
    radii, so the open caps stay pairwise disjoint."""
    theta = float(rng.uniform(0.75, 1.25))
    packing = maximal_packing(
        n, theta, seed, PackParams(pool=4000, max_points=max_vertices, polish=False)
    )
    cap_radii = 0.5 * theta * rng.uniform(0.35, 0.99, len(packing))
    norms = 1.0 / np.cos(cap_radii)
    return CapBody.from_vertices(n, packing.centers * norms[:, None])


def _write(doc: dict, path: str) -> str:
    files.write_document(doc, path)
    return path


def build(name: str, seed: int, input_dir: str) -> Workload:
    """Generate, validate and write the inputs of workload ``name``."""
    rng = _rng(name, seed)
    os.makedirs(input_dir, exist_ok=True)
    cycle: list[tuple[str, ...]] = []
    if name == "pierce-spread":
        # 24 families, n cycling 2..5, sizes 2..600 spread over each n.
        sizes = _interleave(_spread(24, 2, 600), 7)
        for j, count in enumerate(sizes):
            n = 2 + j % 4
            family = anchored_family(rng, n, count, 4.0 * n)
            path = _write(files.ball_family_document(n, family.balls),
                          os.path.join(input_dir, f"family{j}.json"))
            cycle.append(("pierce", path))
        return Workload(name, tuple(cycle))
    if name == "pierce-dense":
        # 15 families, n cycling 2..4: eleven of 150..350 balls (dense
        # candidate tensor) and four of 700..1000 (points-only), every
        # fourth request a large one. An odd cycle puts the median
        # inside one family's repeats, not between two families.
        sizes = _interleave(_spread(11, 150, 350), 4)
        big = _spread(4, 700, 1000)
        order = [big.pop(0) if j % 4 == 1 else sizes.pop(0) for j in range(15)]
        for j, count in enumerate(order):
            n = 2 + j % 3
            family = clustered_family(rng, n, count)
            path = _write(files.ball_family_document(n, family.balls),
                          os.path.join(input_dir, f"family{j}.json"))
            cycle.append(("pierce", path))
        return Workload(name, tuple(cycle))
    if name == "illuminate":
        # 9 bodies, up to 100 vertices each: n cycling 3..6 twice, plus
        # one more n = 5 so that the median falls among the n = 5
        # requests instead of between the n = 4 and n = 5 ones.
        for j, n in enumerate((3, 4, 5, 6, 3, 4, 5, 6, 5)):
            body = cap_body(rng, n, 100, int(rng.integers(0, 2**31)))
            path = _write(files.spiky_body_document(body),
                          os.path.join(input_dir, f"body{j}.json"))
            cycle.append(("illuminate", path))
        return Workload(name, tuple(cycle), _seed_base(seed))
    if name == "lowerbound":
        # n cycling 4..8 at the target 3n, which runs out the draw budget,
        # and 5..8 at the reachable target 2n; the inputs are the CLI
        # arguments and the per-request CLI seeds. n = 4 gets no 2n
        # request: the sampler stops at 7 points there, so it would be a
        # second budget-exhausting request rather than a reachable one.
        for n in range(4, 9):
            for mult in (2, 3) if n > 4 else (3,):
                cycle.append(("lowerbound", "-n", str(n), "--target", str(mult * n),
                              "--samples", "100000"))
        return Workload(name, tuple(cycle), _seed_base(seed))
    raise ValueError(f"unknown workload {name!r}")


NAMES = tuple(_TAGS)


def argv_for(workload: Workload, index: int, output: str) -> list[str]:
    """The argv of request ``index`` of the closed loop."""
    argv = list(workload.cycle[index % len(workload.cycle)])
    if workload.seed_base is not None:
        argv += ["--seed", str(workload.seed_base + index)]
    return argv + ["--output", output]

