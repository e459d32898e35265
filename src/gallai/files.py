"""JSON artifact files.

One self-describing document per artifact, built by ``_document``: a
"kind" discriminator, a "dimension" field, and the payload, written by
``dumps_document`` as one line of JSON with sorted keys, which
``python -m json.tool`` pretty-prints. Numbers round-trip losslessly
(shortest-repr doubles). Structural problems raise FileFormatError.
Every artifact's rows (vertices, directions, points, ball centers) are
checked and converted by ``_rows`` in one pass over the whole array; a
per-row (for ball families, per-entry) scan runs only when that pass
fails, to name the first bad row. Meaning (radii, vertex norms, unit
directions) is checked only by the domain constructors; a parser reports
their ValueError as a FileFormatError. Pairwise preconditions (e.g.
non-intersecting families) are left to the caller's constructor.
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
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path} nests too deeply to parse") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: expected a JSON object at top level")
    return doc


def write_document(doc: dict, path) -> None:
    """Atomic write: temp file in the target directory, then rename. A
    path that cannot be written raises FileFormatError, as an unreadable
    one does in ``load_document``."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(dumps_document(doc))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc


def dumps_document(doc: dict) -> str:
    """``doc`` as one line of JSON with sorted keys, shortest-repr floats
    and ASCII escapes, plus a newline: a rerun gives the same bytes."""
    return json.dumps(doc, sort_keys=True) + "\n"


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


def _is_number(v) -> bool:
    """An int or a float; bools are not numbers."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_row(row, dim: int, what: str) -> None:
    """The per-row check, run only where a whole-array check failed."""
    if not (isinstance(row, list) and len(row) == dim and all(map(_is_number, row))):
        raise FileFormatError(f"{what} must be a list of {dim} numbers")


def _floats(cells, what: str) -> np.ndarray:
    """Numbers that passed the structure check as a finite float array."""
    out = _construct(what, np.asarray, cells, float)
    if not np.isfinite(out).all():
        raise FileFormatError(f"{what} contains non-finite values")
    return out


def _rows(rows, dim: int, what: str) -> np.ndarray:
    """A non-empty list of lists of ``dim`` numbers as a finite (m, dim)
    float array. Shape and types are checked on the whole array at once;
    only if that fails is each row checked, to name the first bad one. A
    scan that finds none (an int or float subclass such as ``np.float64``)
    goes on to the conversion."""
    if not isinstance(rows, list) or not rows:
        raise FileFormatError(f"{what} must be a non-empty list")
    try:
        cells = np.array(rows, dtype=object)
        ok = (
            cells.shape == (len(rows), dim)
            and set(map(type, rows)) <= {list}
            and set(map(type, cells.flat)) <= {int, float}
        )
    except ValueError:  # rows numpy cannot stack, such as arrays
        ok = False
    if not ok:
        for i, row in enumerate(rows):
            _check_row(row, dim, f"{what}[{i}]")
        cells = rows
    return _floats(cells, what)


def _construct(what: str, cls, *args):
    """``cls(*args)``, with its ValueError (or the OverflowError of an
    integer too large for a double, as from ``float``) reported as a
    FileFormatError."""
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


def _document(kind: str, dimension: int, key: str, rows: list, provenance=(),
              meta: dict | None = None) -> dict:
    doc = {"kind": kind, "dimension": int(dimension), key: rows}
    if provenance:
        doc["provenance"] = list(provenance)
    if meta:
        doc["meta"] = meta
    return doc


# -- ball families -----------------------------------------------------------


def parse_ball_family(doc: dict) -> tuple[int, Balls]:
    """Structural parse; pairwise intersection is checked downstream.

    The centers and the radii are validated as one array each. If that
    fails, the entries are scanned in order, each checked whole (center
    structure, center values, radius structure, radius value) before the
    next, and the first bad entry's error is raised.
    """
    dim = _check_kind(doc, KIND_BALL_FAMILY)
    raw = _require(doc, "balls", KIND_BALL_FAMILY)
    if not isinstance(raw, list) or not raw:
        raise FileFormatError("balls must be a non-empty list")
    try:
        centers = [entry["center"] for entry in raw]
        radii = [entry["radius"] for entry in raw]
        if set(map(type, raw)) <= {dict} and set(map(type, radii)) <= {int, float}:
            return dim, Balls(_rows(centers, dim, "balls"), radii)
    except (TypeError, KeyError, ValueError, OverflowError):
        pass  # the scan names the first bad entry
    return dim, _scan_balls(raw, dim)


def _scan_balls(raw: list, dim: int) -> Balls:
    balls = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise FileFormatError(f"balls[{i}] must be an object")
        center = _require(entry, "center", "ball")
        _check_row(center, dim, f"balls[{i}].center")
        center = _floats(center, f"balls[{i}].center")
        radius = _require(entry, "radius", "ball")
        if not _is_number(radius):
            raise FileFormatError(f"balls[{i}].radius must be a number")
        balls.append(_construct(f"balls[{i}]", Ball, center, radius))
    return Balls.of(balls)


def ball_family_document(dimension: int, balls) -> dict:
    """``balls`` is a ``Balls`` or a sequence of ``Ball``s."""
    if not isinstance(balls, Balls):
        balls = Balls.of(balls)
    rows = [
        {"center": center, "radius": radius}
        for center, radius in zip(balls.centers.tolist(), balls.radii.tolist())
    ]
    return _document(KIND_BALL_FAMILY, dimension, "balls", rows)


# -- spiky bodies ------------------------------------------------------------


def parse_spiky_body(doc: dict) -> SpikyBall:
    dim = _check_kind(doc, KIND_SPIKY_BODY)
    vertices = _rows(_require(doc, "vertices", KIND_SPIKY_BODY), dim, "vertices")
    return _construct(KIND_SPIKY_BODY, SpikyBall, dim, vertices)


def spiky_body_document(body, meta: dict | None = None) -> dict:
    vertices = body.vertices if hasattr(body, "vertices") else np.asarray(body)
    return _document(KIND_SPIKY_BODY, vertices.shape[1], "vertices", vertices.tolist(),
                     meta=meta)


# -- direction and point sets ------------------------------------------------


def parse_direction_set(doc: dict) -> DirectionSet:
    dim = _check_kind(doc, KIND_DIRECTION_SET)
    directions = _rows(_require(doc, "directions", KIND_DIRECTION_SET), dim, "directions")
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
    if not _is_number(theta):
        raise FileFormatError(f"meta.angular_radius must be a number, got {theta!r}")
    return _construct("meta.angular_radius", float, theta)


def direction_set_document(d: DirectionSet, meta: dict | None = None) -> dict:
    return _document(KIND_DIRECTION_SET, d.dimension, "directions", d.directions.tolist(),
                     d.provenance, meta)


def parse_point_set(doc: dict) -> tuple[int, np.ndarray, tuple[str, ...]]:
    dim = _check_kind(doc, KIND_POINT_SET)
    points = _rows(_require(doc, "points", KIND_POINT_SET), dim, "points")
    return dim, points, _provenance(doc, points.shape[0])


def point_set_document(dimension: int, points, provenance=(), meta: dict | None = None) -> dict:
    return _document(KIND_POINT_SET, dimension, "points",
                     np.asarray(points, dtype=float).tolist(), provenance, meta)
