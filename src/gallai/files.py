"""JSON artifact files.

One self-describing document per artifact: a "kind" discriminator, a
"dimension" field, and the payload. Numbers round-trip losslessly
(shortest-repr doubles). Structural problems raise FileFormatError.
Meaning (radii, vertex norms, unit directions) is checked only by the
domain constructors; a parser reports their ValueError as a
FileFormatError. Pairwise preconditions (e.g. non-intersecting
families) are left to the caller's constructor.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .geometry import Ball, Balls
from .illumination import DirectionSet, SpikyBall

KIND_BALL_FAMILY = "ball_family"
KIND_SPIKY_BODY = "spiky_body"
KIND_DIRECTION_SET = "direction_set"
KIND_POINT_SET = "point_set"


class FileFormatError(ValueError):
    """Artifact file failed to parse or violated its schema."""


def load_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: expected a JSON object at top level")
    return doc


def write_document(doc: dict, path) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ": "), indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _require(doc: dict, key: str, kind: str):
    if key not in doc:
        raise FileFormatError(f"{kind} document is missing {key!r}")
    return doc[key]


def _check_kind(doc: dict, kind: str) -> int:
    found = _require(doc, "kind", kind)
    if found != kind:
        raise FileFormatError(f"expected kind {kind!r}, found {found!r}")
    dim = _require(doc, "dimension", kind)
    if not isinstance(dim, int) or dim < 2:
        raise FileFormatError(f"dimension must be an integer >= 2, got {dim!r}")
    return dim


def _numeric_matrix(rows, dim: int, what: str) -> np.ndarray:
    _check_rows(rows, dim, what)
    return _finite_matrix(rows, what)


def _is_row(row, dim: int) -> bool:
    """A list of ``dim`` numbers; bools are not numbers."""
    return isinstance(row, list) and len(row) == dim and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in row
    )


def _check_rows(rows, dim: int, what: str) -> None:
    """Structure only: a non-empty list of lists of ``dim`` numbers."""
    if not isinstance(rows, list) or not rows:
        raise FileFormatError(f"{what} must be a non-empty list")
    for i, row in enumerate(rows):
        if not _is_row(row, dim):
            raise FileFormatError(
                f"{what}[{i}] must be a list of {dim} numbers"
            )


def _finite_matrix(rows, what: str) -> np.ndarray:
    """Rows that passed ``_check_rows`` as a finite float array."""
    try:
        out = np.asarray(rows, dtype=float)
    except OverflowError as exc:  # an integer too large for a double
        raise FileFormatError(f"{what}: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise FileFormatError(f"{what} contains non-finite values")
    return out


def _construct(what: str, cls, *args):
    """``cls(*args)``, with its ValueError (or the OverflowError of an
    integer too large for a double) reported as a FileFormatError."""
    try:
        return cls(*args)
    except (ValueError, OverflowError) as exc:
        raise FileFormatError(f"{what}: {exc}") from exc


def _provenance(doc: dict, count: int) -> tuple[str, ...]:
    tags = doc.get("provenance")
    if tags is None:
        return ()
    if not isinstance(tags, list) or len(tags) != count or not all(
        isinstance(t, str) for t in tags
    ):
        raise FileFormatError("provenance must be a list of strings, one per row")
    return tuple(tags)


# -- ball families -----------------------------------------------------------


def parse_ball_family(doc: dict) -> tuple[int, Balls]:
    """Structural parse; pairwise intersection is checked downstream.

    Entries are checked in order, and their centers and radii are then
    converted and validated in one array each; the error raised is the
    first bad entry's, as when each entry is parsed whole before the
    next.
    """
    dim = _check_kind(doc, KIND_BALL_FAMILY)
    raw = _require(doc, "balls", KIND_BALL_FAMILY)
    if not isinstance(raw, list) or not raw:
        raise FileFormatError("balls must be a non-empty list")
    rows, radii = [], []
    try:
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise FileFormatError(f"balls[{i}] must be an object")
            center = _require(entry, "center", "ball")
            if not _is_row(center, dim):
                _check_rows([center], dim, f"balls[{i}].center")  # raises
            rows.append(center)
            radius = _require(entry, "radius", "ball")
            if not isinstance(radius, (int, float)) or isinstance(radius, bool):
                raise FileFormatError(f"balls[{i}].radius must be a number")
            radii.append(radius)
    except FileFormatError:
        _first_bad_entry(rows, radii)  # an earlier entry's numeric error comes first
        raise
    try:
        return dim, Balls(rows, radii)
    except (ValueError, OverflowError) as exc:
        _first_bad_entry(rows, radii)
        raise FileFormatError(f"balls: {exc}") from exc


def _first_bad_entry(rows, radii) -> None:
    """Raise the numeric error of the first bad entry, if any.

    Entry by entry, as ``Ball`` checks each: its center (which may
    overflow or not be finite), then its radius. ``rows`` may hold one
    row more than ``radii``: the center of an entry whose radius failed
    its structural check.
    """
    for i, row in enumerate(rows):
        center = _finite_matrix([row], f"balls[{i}].center")[0]
        if i < len(radii):
            _construct(f"balls[{i}]", Ball, center, radii[i])


def ball_family_document(dimension: int, balls) -> dict:
    return {
        "kind": KIND_BALL_FAMILY,
        "dimension": int(dimension),
        "balls": [
            {"center": b.center.tolist(), "radius": float(b.radius)} for b in balls
        ],
    }


# -- spiky bodies ------------------------------------------------------------


def parse_spiky_body(doc: dict) -> SpikyBall:
    dim = _check_kind(doc, KIND_SPIKY_BODY)
    vertices = _numeric_matrix(_require(doc, "vertices", KIND_SPIKY_BODY), dim, "vertices")
    return _construct(KIND_SPIKY_BODY, SpikyBall, dim, vertices)


def spiky_body_document(body, meta: dict | None = None) -> dict:
    vertices = body.vertices if hasattr(body, "vertices") else np.asarray(body)
    doc = {
        "kind": KIND_SPIKY_BODY,
        "dimension": int(vertices.shape[1]),
        "vertices": vertices.tolist(),
    }
    if meta:
        doc["meta"] = meta
    return doc


# -- direction and point sets ------------------------------------------------


def parse_direction_set(doc: dict) -> DirectionSet:
    dim = _check_kind(doc, KIND_DIRECTION_SET)
    directions = _numeric_matrix(
        _require(doc, "directions", KIND_DIRECTION_SET), dim, "directions"
    )
    provenance = _provenance(doc, directions.shape[0])
    return _construct(KIND_DIRECTION_SET, DirectionSet, dim, directions, provenance)


def parse_angular_radius(doc: dict) -> float | None:
    """``meta.angular_radius`` of a cover document as a float; None if absent."""
    meta = doc.get("meta") or {}
    if not isinstance(meta, dict):
        raise FileFormatError("meta must be an object")
    theta = meta.get("angular_radius")
    if theta is None:
        return None
    if not isinstance(theta, (int, float)) or isinstance(theta, bool):
        raise FileFormatError(f"meta.angular_radius must be a number, got {theta!r}")
    try:
        return float(theta)
    except OverflowError as exc:  # an integer too large for a double
        raise FileFormatError(f"meta.angular_radius: {exc}") from exc


def direction_set_document(d: DirectionSet, meta: dict | None = None) -> dict:
    doc = {
        "kind": KIND_DIRECTION_SET,
        "dimension": int(d.dimension),
        "directions": d.directions.tolist(),
    }
    if d.provenance:
        doc["provenance"] = list(d.provenance)
    if meta:
        doc["meta"] = meta
    return doc


def parse_point_set(doc: dict) -> tuple[int, np.ndarray, tuple[str, ...]]:
    dim = _check_kind(doc, KIND_POINT_SET)
    points = _numeric_matrix(_require(doc, "points", KIND_POINT_SET), dim, "points")
    return dim, points, _provenance(doc, points.shape[0])


def point_set_document(dimension: int, points, provenance=(), meta: dict | None = None) -> dict:
    doc = {
        "kind": KIND_POINT_SET,
        "dimension": int(dimension),
        "points": np.asarray(points, dtype=float).tolist(),
    }
    if provenance:
        doc["provenance"] = list(provenance)
    if meta:
        doc["meta"] = meta
    return doc
