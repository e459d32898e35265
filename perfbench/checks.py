"""Output checks run after timing: re-verify and hash every artifact.

Every artifact is re-verified with the library's public verifiers:
piercing sets with ``verify_piercing`` against the input family,
direction sets with ``verifies_illumination`` against the input body,
and lower-bound bodies with ``is_cap_body`` plus the separation window
of the point set they were built from.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from gallai import BallFamily, files, is_cap_body, verifies_illumination, verify_piercing
from gallai.lowerbound import VERTEX_SCALE, SeparatedSet, SymmetricSeparatedSet


def digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _family(path: str) -> BallFamily:
    dim, balls = files.parse_ball_family(files.load_document(path))
    return BallFamily(dim, tuple(balls))


def _lower_bound_body_ok(doc: dict) -> bool:
    body = files.parse_spiky_body(doc)
    if not is_cap_body(body)[0]:
        return False
    points = body.vertices / VERTEX_SCALE
    half = len(points) // 2
    try:
        # The body is (2/sqrt 3) * (X, -X) for a separated set X.
        SeparatedSet(body.dimension, points[:half])
        SymmetricSeparatedSet(body.dimension, points)
    except ValueError:
        return False
    return bool(np.allclose(np.linalg.norm(points, axis=1), 1.0, atol=1e-9))


class Verifier:
    """Re-verifies artifacts; inputs are parsed once per input file."""

    def __init__(self):
        self._inputs: dict[str, object] = {}
        self._seen: dict[tuple, bool] = {}

    def _input(self, path: str, parse):
        if path not in self._inputs:
            self._inputs[path] = parse(path)
        return self._inputs[path]

    def check(self, argv: list[str], artifact: str, sha: str) -> tuple[bool, int]:
        """(passed, rows of the artifact) for the request ``argv``.

        A byte-identical artifact of the same request is verified once.
        """
        key = (tuple(argv[:2]), sha)
        doc = files.load_document(artifact)
        if argv[0] == "pierce":
            rows = len(doc["points"])
            if key not in self._seen:
                family = self._input(argv[1], _family)
                _, points, _ = files.parse_point_set(doc)
                self._seen[key] = verify_piercing(family, points)[0]
        elif argv[0] == "illuminate":
            rows = len(doc["directions"])
            if key not in self._seen:
                body = self._input(
                    argv[1], lambda p: files.parse_spiky_body(files.load_document(p))
                )
                directions = files.parse_direction_set(doc)
                self._seen[key] = verifies_illumination(body, directions)[0]
        elif argv[0] == "lowerbound":
            rows = len(doc["vertices"])
            if key not in self._seen:
                self._seen[key] = _lower_bound_body_ok(doc)
        else:
            raise ValueError(f"no check for command {argv[0]!r}")
        return self._seen[key], rows


def witness(stdout: str) -> float:
    """Sampled lower-bound witness from a ``lowerbound`` report."""
    return float(json.loads(stdout)["report"]["multiplicity"]["witness"])
