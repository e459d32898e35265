"""Artifact file round-trips and the CLI exit-status contract."""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from gallai import Ball, DirectionSet, SpikyBall
from gallai import files
from gallai.cli import main

from conftest import betainc_share, random_intersecting_family


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.json"
    family = random_intersecting_family(2, 12, seed=1)
    files.write_document(
        files.ball_family_document(2, family.balls), path
    )
    return str(path)


@pytest.fixture
def hand_body_file(tmp_path):
    path = tmp_path / "body.json"
    v = math.sqrt(2.0) * np.concatenate([np.eye(3), -np.eye(3)])
    files.write_document(files.spiky_body_document(SpikyBall(3, v)), path)
    return str(path)


class TestRoundTrips:
    def test_ball_family(self, tmp_path):
        balls = [Ball([0.1, -2.3456789012345678], 1.25), Ball([1.0, 0.0], 2.0)]
        doc = files.ball_family_document(2, balls)
        path = tmp_path / "f.json"
        files.write_document(doc, path)
        dim, parsed = files.parse_ball_family(files.load_document(path))
        assert dim == 2
        for a, b in zip(parsed, balls):
            assert np.array_equal(a.center, b.center)
            assert a.radius == b.radius

    def test_spiky_body(self, tmp_path):
        body = SpikyBall(3, [[1.5, 0.0, 0.0], [0.0, -1.0000000001, 1.0]])
        path = tmp_path / "s.json"
        files.write_document(files.spiky_body_document(body), path)
        parsed = files.parse_spiky_body(files.load_document(path))
        assert np.array_equal(parsed.vertices, body.vertices)

    def test_direction_set_with_provenance(self, tmp_path):
        d = DirectionSet(2, [[1.0, 0.0], [0.0, 1.0]], ("U1:0", "U2:0"))
        path = tmp_path / "d.json"
        files.write_document(files.direction_set_document(d, meta={"alpha": 0.25}), path)
        doc = files.load_document(path)
        parsed = files.parse_direction_set(doc)
        assert np.array_equal(parsed.directions, d.directions)
        assert parsed.provenance == d.provenance
        assert doc["meta"] == {"alpha": 0.25}

    def test_point_set(self, tmp_path):
        pts = np.array([[0.123456789012345678, -9.87], [3.0, 4.0]])
        doc = files.point_set_document(2, pts, ("large", "scale:1"))
        path = tmp_path / "p.json"
        files.write_document(doc, path)
        dim, parsed, prov = files.parse_point_set(files.load_document(path))
        assert dim == 2
        assert np.array_equal(parsed, pts)
        assert prov == ("large", "scale:1")

    def test_full_precision(self, tmp_path):
        value = 1.0 / 3.0
        doc = files.point_set_document(2, [[value, value * 7]])
        path = tmp_path / "v.json"
        files.write_document(doc, path)
        _, parsed, _ = files.parse_point_set(files.load_document(path))
        assert parsed[0, 0] == value
        assert parsed[0, 1] == value * 7


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX file modes")
@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifact_mode_follows_the_umask(umask, mode, tmp_path):
    # A new artifact, and one written over an existing file, is created
    # as open() creates a file: 0o666 less the umask.
    path = tmp_path / "a.json"
    old = os.umask(umask)
    try:
        files.write_document({"a": 1}, path)
        first = path.stat().st_mode & 0o777
        path.chmod(0o640)
        files.write_document({"a": 2}, path)
        second = path.stat().st_mode & 0o777
    finally:
        os.umask(old)
    assert first == second == mode
    assert files.load_document(path) == {"a": 2}
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]


class TestParseErrors:
    def test_missing_kind(self):
        with pytest.raises(files.FileFormatError):
            files.parse_ball_family({"dimension": 2, "balls": []})

    def test_wrong_kind(self):
        with pytest.raises(files.FileFormatError):
            files.parse_spiky_body({"kind": "ball_family", "dimension": 2})

    def test_center_length_mismatch(self):
        doc = {
            "kind": "ball_family",
            "dimension": 3,
            "balls": [{"center": [0, 0], "radius": 1}],
        }
        with pytest.raises(files.FileFormatError):
            files.parse_ball_family(doc)

    def test_nonpositive_radius(self):
        doc = {
            "kind": "ball_family",
            "dimension": 2,
            "balls": [{"center": [0, 0], "radius": 0}],
        }
        with pytest.raises(files.FileFormatError):
            files.parse_ball_family(doc)

    def test_inside_vertex(self):
        doc = {"kind": "spiky_body", "dimension": 2, "vertices": [[0.5, 0.0]]}
        with pytest.raises(files.FileFormatError):
            files.parse_spiky_body(doc)

    def test_non_unit_direction(self):
        doc = {"kind": "direction_set", "dimension": 2, "directions": [[2.0, 0.0]]}
        with pytest.raises(files.FileFormatError):
            files.parse_direction_set(doc)

    def test_provenance_length(self):
        doc = {
            "kind": "point_set",
            "dimension": 2,
            "points": [[0, 0]],
            "provenance": ["a", "b"],
        }
        with pytest.raises(files.FileFormatError):
            files.parse_point_set(doc)


def per_entry_parse(doc):
    """Reference ball-family parse: each entry whole, before the next.

    Center structure, center value, radius structure, radius value, as
    the parser did when it built one ``Ball`` per entry.
    """
    dim = doc.get("dimension")
    raw = doc["balls"]
    if not isinstance(raw, list) or not raw:
        raise files.FileFormatError("balls must be a non-empty list")
    balls = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise files.FileFormatError(f"balls[{i}] must be an object")
        if "center" not in entry:
            raise files.FileFormatError("ball document is missing 'center'")
        center = entry["center"]
        if (
            not isinstance(center, list)
            or len(center) != dim
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in center)
        ):
            raise files.FileFormatError(f"balls[{i}].center must be a list of {dim} numbers")
        try:
            c = np.asarray(center, dtype=float)
        except OverflowError as exc:
            raise files.FileFormatError(f"balls[{i}].center: {exc}") from exc
        if not np.all(np.isfinite(c)):
            raise files.FileFormatError(f"balls[{i}].center contains non-finite values")
        if "radius" not in entry:
            raise files.FileFormatError("ball document is missing 'radius'")
        radius = entry["radius"]
        if not isinstance(radius, (int, float)) or isinstance(radius, bool):
            raise files.FileFormatError(f"balls[{i}].radius must be a number")
        try:
            balls.append(Ball(c, radius))
        except (ValueError, OverflowError) as exc:
            raise files.FileFormatError(f"balls[{i}]: {exc}") from exc
    return dim, balls


FAULTS = (
    "center not a list",
    "center too long",
    "center too short",
    "bool coordinate",
    "string coordinate",
    "huge coordinate",
    "huge radius",
    "NaN coordinate",
    "Infinity coordinate",
    "NaN radius",
    "Infinity radius",
    "zero radius",
    "negative radius",
    "string radius",
    "missing radius",
)


def fuzzed_ball_family(rng):
    """(document as json.loads returns it, faults applied) with 0-3 faults."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 9))
    # Large integers a double holds (rounded) are values, not faults.
    values = [0, -3, 2.5, 1e-300, 2**63 + 1, 10**30, -(10**19)]
    balls = []
    for _ in range(m):
        center = [
            values[int(rng.integers(len(values)))] if rng.random() < 0.2 else float(x)
            for x in rng.uniform(-2.0, 2.0, n)
        ]
        radius = int(rng.integers(1, 4)) if rng.random() < 0.3 else float(rng.uniform(0.5, 3.0))
        balls.append({"center": center, "radius": radius})
    faults = [FAULTS[int(k)] for k in rng.integers(len(FAULTS), size=int(rng.integers(0, 4)))]
    for fault in faults:
        ball = balls[int(rng.integers(m))]
        k = int(rng.integers(n))
        center = ball["center"]
        if fault == "center not a list":
            ball["center"] = {"x": 1.0}
        elif fault == "missing radius":
            ball.pop("radius", None)
        elif fault.endswith("radius"):
            ball["radius"] = {
                "huge radius": 10**400,
                "NaN radius": math.nan,
                "Infinity radius": math.inf,
                "zero radius": 0,
                "negative radius": -float(rng.uniform(0.1, 2.0)),
                "string radius": "1.0",
            }[fault]
        elif not isinstance(center, list):
            continue  # an earlier fault replaced the center
        elif fault == "center too long":
            ball["center"] = center + [0.0]
        elif fault == "center too short":
            ball["center"] = center[:-1]
        elif k < len(center):
            center[k] = {
                "bool coordinate": True,
                "string coordinate": "1.0",
                "huge coordinate": -(10**400),
                "NaN coordinate": math.nan,
                "Infinity coordinate": -math.inf,
            }[fault]
    text = json.dumps({"kind": "ball_family", "dimension": n, "balls": balls})
    return json.loads(text), faults


class TestBallFamilyParse:
    def test_matches_per_entry_parse(self):
        rng = np.random.default_rng(8)
        outcomes = {"parsed": 0, "failed": 0}
        for _ in range(400):
            doc, faults = fuzzed_ball_family(rng)
            try:
                want = per_entry_parse(doc)
            except files.FileFormatError as exc:
                with pytest.raises(type(exc)) as got:
                    files.parse_ball_family(doc)
                assert str(got.value) == str(exc), faults
                outcomes["failed"] += 1
                continue
            dim, balls = files.parse_ball_family(doc)
            assert dim == want[0]
            assert np.array_equal(balls.centers, np.array([b.center for b in want[1]]))
            assert np.array_equal(balls.radii, np.array([b.radius for b in want[1]]))
            outcomes["parsed"] += 1
        assert min(outcomes.values()) >= 50

    def test_json_literals_reach_the_parser(self):
        # json.load accepts NaN and Infinity; the parser names the entry.
        doc = json.loads(
            '{"kind": "ball_family", "dimension": 2, "balls": ['
            '{"center": [0, 0], "radius": 1}, {"center": [0, NaN], "radius": 1}, '
            '{"center": [0, 0], "radius": Infinity}]}'
        )
        with pytest.raises(files.FileFormatError, match=r"^balls\[1\]\.center contains non-finite"):
            files.parse_ball_family(doc)
        doc["balls"][1]["center"] = [0, 0]
        with pytest.raises(files.FileFormatError, match=r"^balls\[2\]: radius must be positive"):
            files.parse_ball_family(doc)

    @pytest.mark.parametrize("center", [[0], [0, 0, 0], [0, "1"], [True, 0], 5])
    def test_malformed_center_names_the_center(self, center):
        balls = [{"center": [0, 0], "radius": 1}] * 3 + [{"center": center, "radius": 1}]
        doc = {"kind": "ball_family", "dimension": 2, "balls": balls}
        with pytest.raises(files.FileFormatError) as got:
            files.parse_ball_family(doc)
        assert str(got.value) == "balls[3].center must be a list of 2 numbers"

    @pytest.mark.parametrize("last", [
        {"center": {"x": 1.0}, "radius": 1},
        {"center": [0, 0, 0], "radius": 1},
        {"center": [0], "radius": 1},
        {"center": [True, 0], "radius": 1},
        {"center": [0, "1.0"], "radius": 1},
        {"center": [0, -(10**400)], "radius": 1},
        {"center": [math.nan, 0], "radius": 1},
        {"center": [0, -math.inf], "radius": 1},
        {"center": [0, 0], "radius": 10**400},
        {"center": [0, 0], "radius": math.nan},
        {"center": [0, 0], "radius": math.inf},
        {"center": [0, 0], "radius": 0},
        {"center": [0, 0], "radius": -1.5},
        {"center": [0, 0], "radius": "1.0"},
        {"center": [0, 0], "radius": False},
        {"center": [0, 0]},
        {"radius": 1},
        [0, 0],
    ], ids=lambda last: json.dumps(last))
    def test_fault_in_the_last_of_many_entries(self, last):
        rng = np.random.default_rng(4)
        balls = [
            {"center": rng.uniform(-1.0, 1.0, 2).tolist(), "radius": float(rng.uniform(1.0, 2.0))}
            for _ in range(1999)
        ]
        doc = {"kind": "ball_family", "dimension": 2, "balls": balls + [last]}
        with pytest.raises(files.FileFormatError) as want:
            per_entry_parse(doc)
        with pytest.raises(files.FileFormatError) as got:
            files.parse_ball_family(doc)
        assert str(got.value) == str(want.value)
        assert "1999" in str(got.value) or "missing" in str(got.value)

    def test_numpy_scalars_built_in_python(self):
        # np.float64 is a float: such a document parses as its floats do.
        centers = np.array([[0.5, -1.25], [2.0, 0.0]])
        doc = {"kind": "ball_family", "dimension": 2, "balls": [
            {"center": list(c), "radius": r} for c, r in zip(centers, np.float64([1.0, 3.0]))
        ]}
        assert isinstance(doc["balls"][0]["center"][0], np.float64)
        dim, balls = files.parse_ball_family(doc)
        assert dim == 2
        assert balls.centers.tolist() == centers.tolist()
        assert balls.radii.tolist() == [1.0, 3.0]
        rows = [list(np.float64([1.5, x])) for x in (0.0, -2.0)]
        _, points, _ = files.parse_point_set({"kind": "point_set", "dimension": 2, "points": rows})
        assert points.tolist() == [[1.5, 0.0], [1.5, -2.0]]
        body = files.parse_spiky_body({"kind": "spiky_body", "dimension": 2, "vertices": rows})
        assert body.vertices.tolist() == points.tolist()


def reference_rows(rows, dim, what):
    """The row reader before the whole-array check: every row checked in
    turn, then the rows converted and checked for finite values."""
    if not isinstance(rows, list) or not rows:
        raise files.FileFormatError(f"{what} must be a non-empty list")
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == dim and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in row
        )):
            raise files.FileFormatError(f"{what}[{i}] must be a list of {dim} numbers")
    try:
        out = np.asarray(rows, dtype=float)
    except OverflowError as exc:
        raise files.FileFormatError(f"{what}: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise files.FileFormatError(f"{what} contains non-finite values")
    return out


ROW_KINDS = (
    ("spiky_body", "vertices", files.parse_spiky_body, lambda dim, rows: SpikyBall(dim, rows)),
    ("direction_set", "directions", files.parse_direction_set,
     lambda dim, rows: DirectionSet(dim, rows)),
    ("point_set", "points", files.parse_point_set, lambda dim, rows: (dim, rows, ())),
)


class TestRowReader:
    @pytest.mark.parametrize("kind, key, parse, build", ROW_KINDS, ids=[k[0] for k in ROW_KINDS])
    def test_matches_reference_reader(self, kind, key, parse, build):
        # Rows are the centers of fuzzed ball families, faults included.
        # Half of the direction rows are scaled to unit norm, so that some
        # direction sets parse.
        rng = np.random.default_rng(9)
        outcomes = {"parsed": 0, "failed": 0}
        for _ in range(400):
            ball_doc, faults = fuzzed_ball_family(rng)
            dim = ball_doc["dimension"]
            rows = [ball.get("center") for ball in ball_doc["balls"]]
            if kind == "direction_set" and rng.random() < 0.5:
                rows = [unit_row(r, dim) for r in rows]
            doc = {"kind": kind, "dimension": dim, key: rows}
            try:
                want = build(dim, reference_rows(rows, dim, key))
            except files.FileFormatError as exc:
                message = str(exc)
            except (ValueError, OverflowError) as exc:
                message = f"{kind}: {exc}"
            else:
                got = parse(doc)
                if kind == "point_set":
                    assert got[0] == want[0] and got[2] == want[2]
                    assert np.array_equal(got[1], want[1])
                else:
                    attr = key if kind == "direction_set" else "vertices"
                    assert np.array_equal(getattr(got, attr), getattr(want, attr))
                outcomes["parsed"] += 1
                continue
            with pytest.raises(files.FileFormatError) as got:
                parse(doc)
            assert str(got.value) == message, faults
            outcomes["failed"] += 1
        assert min(outcomes.values()) >= 50

    @pytest.mark.parametrize("rows", [
        [],
        {"0": [1.0, 2.0]},
        [(1.0, 2.0)],
        [[1.0, 2.0], np.array([1.0, 2.0])],
        [[1.0, 2.0], np.array([1.0, 2.0, 3.0])],
        [[1.0, 2.0], np.zeros((2, 2))],
        [np.float64([1.0, 2.0]).tolist(), [np.int64(1), 2.0]],
        [[1.0, 2.0], [[1.0], 2.0]],
        [[1.0, 2.0], [[1.0, 2.0], [3.0, 4.0]]],
        [[1.0, np.nan]],
        [[1.0, 10**400]],
    ], ids=repr)
    def test_python_built_rows(self, rows):
        with pytest.raises(files.FileFormatError) as want:
            reference_rows(rows, 2, "points")
        with pytest.raises(files.FileFormatError) as got:
            files.parse_point_set({"kind": "point_set", "dimension": 2, "points": rows})
        assert str(got.value) == str(want.value)


def unit_row(row, dim):
    """``row`` scaled to unit norm if it is a list of ``dim`` finite
    numbers with a norm to scale by; else ``row`` itself."""
    try:
        v = reference_rows([row], dim, "row")[0]
    except files.FileFormatError:
        return row
    norm = np.linalg.norm(v)
    return (v / norm).tolist() if 0.0 < norm < math.inf else row


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestExitCodes:
    def run(self, *argv):
        return main(list(argv))

    def test_pierce_ok(self, family_file, tmp_path, capsys):
        out = str(tmp_path / "points.json")
        assert self.run("pierce", family_file, "--output", out) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["points"] > 0 and "verified" not in report and "witness" not in report

    def test_parse_error_on_garbage(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert self.run("pierce", str(path)) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "parse"

    def test_parse_error_on_missing_file(self, tmp_path, capsys):
        assert self.run("pierce", str(tmp_path / "nope.json")) == 2

    def test_parse_error_on_text_that_is_not_utf8(self, tmp_path, capsys):
        # A UTF-16 file: its decoding error is a ValueError, but the file
        # is at fault, so it is a parse error that names the file.
        path = tmp_path / "utf16.json"
        doc = {"kind": "ball_family", "dimension": 2,
               "balls": [{"center": [0, 0], "radius": 1}]}
        path.write_bytes(b"\xff\xfe" + json.dumps(doc).encode("utf-16-le"))
        assert self.run("pierce", str(path)) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "parse" and str(path) in report["detail"]

    def test_parse_error_on_arrays_nested_too_deep(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"kind": "ball_family", "dimension": 2, "balls": '
                        + "[" * 5000 + "]" * 5000 + "}")
        assert self.run("pierce", str(path)) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "parse" and str(path) in report["detail"]

    @pytest.mark.parametrize("where", ["radius", "coordinate"])
    def test_parse_error_on_integer_too_large_for_a_double(self, where, tmp_path, capsys):
        huge = 10**400
        ball = {"center": [huge, 0], "radius": 1} if where == "coordinate" else {
            "center": [0, 0], "radius": huge}
        doc = {"kind": "ball_family", "dimension": 2, "balls": [ball]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert self.run("pierce", str(path)) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "parse"

    def test_parse_error_on_output_in_a_missing_directory(self, tmp_path, capsys):
        # The temp file cannot even be made.
        out = tmp_path / "missing" / "x.json"
        assert self.run("bounds", "--output", str(out)) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "parse" and f"cannot write {out}" in report["detail"]
        assert list(tmp_path.rglob("*")) == []

    def test_parse_error_on_output_that_is_a_directory(self, tmp_path, capsys):
        # The temp file is written, and the rename onto the directory fails.
        out = tmp_path / "taken"
        out.mkdir()
        assert self.run("cover", "-n", "3", "--theta", "0.9", "--output", str(out)) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "parse" and f"cannot write {out}" in report["detail"]
        assert list(tmp_path.rglob("*.tmp")) == []
        assert out.is_dir() and list(out.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["pierce", "family.json"], ["illuminate", "body.json"],
        ["cover", "-n", "3", "--theta", "1"], ["pack", "-n", "3", "--theta", "1"],
        ["lowerbound", "-n", "3", "--target", "4"], ["verify", "--cover", "cover.json"],
    ], ids=lambda argv: argv[0])
    def test_tol_is_not_an_option_of(self, command, capsys):
        # Every tolerance is worked out from the input; none is an option.
        with pytest.raises(SystemExit) as exc:
            self.run(*command, "--tol", "1e-5")
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["pierce", "family.json"], ["illuminate", "body.json"]],
                             ids=lambda argv: argv[0])
    def test_skip_verify_is_not_an_option_of(self, command, capsys):
        # Only verified artifacts are written; no flag writes another.
        with pytest.raises(SystemExit) as exc:
            self.run(*command, "--skip-verify")
        assert exc.value.code == 2
        assert "--skip-verify" in capsys.readouterr().err

    @pytest.mark.parametrize("command,target", [
        ("pierce", "gallai.piercing.verify_piercing"),
        ("illuminate", "gallai.illumination.verifies_illumination"),
    ])
    def test_failed_self_check_writes_nothing(self, command, target, family_file,
                                              hand_body_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(target, lambda *args: (False, 1))
        out = tmp_path / "artifact.json"
        source = family_file if command == "pierce" else hand_body_file
        assert self.run(command, source, "--output", str(out)) == 4
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "verification" and report["witness"] == 1
        assert not out.exists() and list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("command", [
        ["cover", "-n", "3", "--theta", "0.9"], ["cover", "-n", "8", "--theta", "0.987"],
        ["pack", "-n", "3", "--theta", "1"], ["lowerbound", "-n", "3", "--target", "4"],
        ["illuminate", "body.json"], ["verify", "--cover", "cover.json"],
    ], ids=["cover-hull", "cover-sampled", "pack", "lowerbound", "illuminate", "verify"])
    def test_negative_seed_is_refused_before_any_work(self, command, capsys):
        # The hull cover at n = 3 never reads its seed and the n = 8 cover
        # samples; both are refused alike, before any file is read.
        assert self.run(*command, "--seed", "-1") == 3
        report = json.loads(capsys.readouterr().out)
        assert report == {"error": "precondition", "detail": "--seed must be non-negative, got -1"}

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_precondition_on_family_that_overflows_when_normalized(self, tmp_path, capsys):
        # Valid as given (the pairwise limit is inf too), but normalizing
        # maps ball 1's center to -inf.
        doc = {
            "kind": "ball_family",
            "dimension": 2,
            "balls": [
                {"center": [1e308, 0], "radius": 1e308},
                {"center": [-1e308, 0], "radius": 1e308},
            ],
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        assert self.run("pierce", str(path)) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "precondition"
        assert "finite" in out["detail"]

    def test_precondition_on_disjoint_family(self, tmp_path, capsys):
        doc = {
            "kind": "ball_family",
            "dimension": 2,
            "balls": [
                {"center": [0, 0], "radius": 1},
                {"center": [9, 0], "radius": 2},
            ],
        }
        path = tmp_path / "disjoint.json"
        files.write_document(doc, path)
        assert self.run("pierce", str(path)) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "precondition"
        assert out["pair"] == [0, 1]

    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e12])
    def test_near_miss_family_reports_pair(self, scale, tmp_path, capsys):
        # A gap of 1e-6 radii fails the precondition at every scale, and
        # the report names the pair.
        doc = files.ball_family_document(
            2, [Ball([0, 0], scale), Ball([(2 + 1e-6) * scale, 0], scale)]
        )
        path = tmp_path / "near.json"
        files.write_document(doc, path)
        assert self.run("pierce", str(path)) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "precondition"
        assert out["pair"] == [0, 1]

    def test_verify_tampered_piercing(self, family_file, tmp_path, capsys):
        out = str(tmp_path / "points.json")
        assert self.run("pierce", family_file, "--output", out) == 0
        capsys.readouterr()
        doc = files.load_document(out)
        doc["points"] = [[250.0, 250.0]]
        doc.pop("provenance", None)
        files.write_document(doc, out)
        assert self.run("verify", "--family", family_file, "--points", out) == 4
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["passed"] is False
        assert isinstance(report["witness"], int)

    def test_illuminate_ok_and_report(self, hand_body_file, tmp_path, capsys):
        out = str(tmp_path / "dirs.json")
        code = self.run(
            "illuminate", hand_body_file, "--alpha", str(math.pi / 4), "--output", out
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["u1_count"] == 6
        assert report["u2_count"] == 0
        assert "verified" not in report and "witness" not in report

    def test_illuminate_rejects_non_cap_body(self, tmp_path, capsys):
        v = 2.0 * np.concatenate([np.eye(3), -np.eye(3)])
        path = tmp_path / "spiky.json"
        files.write_document(files.spiky_body_document(SpikyBall(3, v)), path)
        assert self.run("illuminate", str(path)) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "precondition"
        assert out["pair"] == [0, 1]

    def test_overlapping_caps_report_pair(self, tmp_path, capsys):
        # Two pi/4 caps whose axes are 5e-8 rad short of tangency.
        gap = math.pi / 2 - 5e-8
        v = math.sqrt(2.0) * np.array([[1.0, 0.0, 0.0], [math.cos(gap), math.sin(gap), 0.0]])
        path = tmp_path / "overlap.json"
        files.write_document(files.spiky_body_document(SpikyBall(3, v)), path)
        assert self.run("illuminate", str(path)) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "precondition"
        assert out["pair"] == [0, 1]

    def test_illuminate_skip_cap_check_still_verifies(self, tmp_path, capsys):
        # The overlapping cross polytope is still illuminable: all its
        # vertices are far, and the axis directions span.
        v = 2.0 * np.concatenate([np.eye(3), -np.eye(3)])
        path = tmp_path / "spiky.json"
        files.write_document(files.spiky_body_document(SpikyBall(3, v)), path)
        assert self.run("illuminate", str(path), "--skip-cap-check") == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["directions"] == 6

    def test_verify_illumination_roundtrip(self, hand_body_file, tmp_path, capsys):
        dirs = str(tmp_path / "dirs.json")
        assert self.run("illuminate", hand_body_file, "--output", dirs) == 0
        capsys.readouterr()
        assert self.run("verify", "--body", hand_body_file, "--directions", dirs) == 0

    def test_verify_cover_net_and_tamper(self, tmp_path, capsys):
        cover_path = str(tmp_path / "cover.json")
        assert self.run("cover", "-n", "2", "--theta", "1.2", "--output", cover_path) == 0
        capsys.readouterr()
        assert self.run("verify", "--cover", cover_path, "--method", "net",
                        "--resolution", "0.02") == 0
        capsys.readouterr()
        doc = files.load_document(cover_path)
        doc["directions"] = doc["directions"][:1]
        files.write_document(doc, cover_path)
        assert self.run("verify", "--cover", cover_path) == 4

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_verify_cover_hull_and_tamper(self, n, tmp_path, capsys):
        cover_path = str(tmp_path / "cover.json")
        assert self.run("cover", "-n", str(n), "--theta", "0.987", "--output", cover_path) == 0
        capsys.readouterr()
        assert self.run("verify", "--cover", cover_path, "--method", "hull") == 0
        cert = json.loads(capsys.readouterr().out)["report"]["certificate"]
        assert cert["method"] == "hull" and cert["margin"] > 0
        doc = files.load_document(cover_path)
        doc["directions"] = doc["directions"][1:]
        files.write_document(doc, cover_path)
        assert self.run("verify", "--cover", cover_path, "--method", "hull") == 4
        cert = json.loads(capsys.readouterr().out)["report"]["certificate"]
        assert not cert["passed"] and math.isfinite(cert["margin"])

    def test_verify_two_arc_circle_cover_hull(self, tmp_path, capsys):
        # Two antipodal arcs at theta = pi/2: their hull is a segment
        # through the origin, and the circle's gap certificate proves them.
        cover_path = str(tmp_path / "cover.json")
        assert self.run("cover", "-n", "2", "--theta", repr(math.pi / 2),
                        "--output", cover_path) == 0
        capsys.readouterr()
        assert self.run("verify", "--cover", cover_path, "--method", "hull") == 0
        cert = json.loads(capsys.readouterr().out)["report"]["certificate"]
        assert cert["method"] == "hull" and cert["passed"]

    @pytest.mark.parametrize("theta", [10**400, "1.2"])
    def test_verify_cover_bad_angular_radius_is_parse_error(self, theta, tmp_path, capsys):
        cover_path = str(tmp_path / "cover.json")
        assert self.run("cover", "-n", "2", "--theta", "1.2", "--output", cover_path) == 0
        capsys.readouterr()
        doc = files.load_document(cover_path)
        doc["meta"]["angular_radius"] = theta
        files.write_document(doc, cover_path)
        assert self.run("verify", "--cover", cover_path) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "parse"

    @pytest.mark.parametrize("extra", [
        ("--samples", "0"),
        ("--method", "net", "--resolution", "0"),
    ])
    def test_verify_cover_zero_budget_is_precondition(self, extra, tmp_path, capsys):
        # 0 is not "use the default": a certificate over no points or at
        # resolution 0 is refused.
        cover_path = str(tmp_path / "cover.json")
        assert self.run("cover", "-n", "3", "--theta", "0.987", "--output", cover_path) == 0
        capsys.readouterr()
        assert self.run("verify", "--cover", cover_path, *extra) == 3
        assert json.loads(capsys.readouterr().out)["error"] == "precondition"

    def test_verify_net_past_its_point_budget_is_precondition(self, tmp_path, capsys):
        cover_path = str(tmp_path / "cover.json")
        assert self.run("cover", "-n", "4", "--theta", "0.987", "--output", cover_path) == 0
        capsys.readouterr()
        assert self.run("verify", "--cover", cover_path, "--method", "net",
                        "--resolution", "1e-4") == 3
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "precondition" and "needs 170666666880000 points" in report["detail"]

    def test_cover_past_its_center_budget_is_precondition(self, tmp_path, capsys):
        # Every cover by caps of radius 0.01 in R^3 needs 40,000 of them
        # by the area bound, past the 20,000 of CoverParams, and the 314,160
        # arcs of radius 1e-5 on the circle are past it too: both are
        # refused before any cover is built.
        out = tmp_path / "cover.json"
        assert self.run("cover", "-n", "2", "--theta", "1e-5", "--output", str(out)) == 3
        assert json.loads(capsys.readouterr().out)["error"] == "precondition"
        assert self.run("cover", "-n", "3", "--theta", "0.01", "--output", str(out)) == 3
        report = json.loads(capsys.readouterr().out)
        assert report == {"error": "precondition",
                          "detail": "cover construction exceeded 20000 centers"}
        assert not out.exists()

    def test_verify_cover_default_samples_follow_the_library(self, tmp_path, capsys,
                                                             monkeypatch):
        # Without --samples the CLI passes None, so verify_cover's own
        # default, sphere_cover._SAMPLES, sets the count.
        from gallai import sphere_cover

        cover_path = str(tmp_path / "cover.json")
        assert self.run("cover", "-n", "3", "--theta", "0.987", "--output", cover_path) == 0
        capsys.readouterr()
        for samples in (sphere_cover._SAMPLES, 1234):
            monkeypatch.setattr(sphere_cover, "_SAMPLES", samples)
            assert self.run("verify", "--cover", cover_path) == 0
            cert = json.loads(capsys.readouterr().out)["report"]["certificate"]
            assert cert["resolution_or_samples"] == samples

    def test_verify_samples_help_names_the_default(self, capsys):
        from gallai.sphere_cover import _SAMPLES

        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"(default {_SAMPLES:,})" in help_text

    @pytest.mark.parametrize("n", [2, 3])
    def test_pack_negative_max_points_is_precondition(self, n, tmp_path, capsys):
        out = str(tmp_path / "pack.json")
        assert self.run("pack", "-n", str(n), "--theta", "1", "--max-points", "-1",
                        "--output", out) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "precondition" and "max_points" in report["detail"]
        assert not (tmp_path / "pack.json").exists()

    def test_pack_circle_budget_is_precondition(self, tmp_path, capsys):
        # floor(2 pi / 1e-9) is about 6.3e9 points: refused before any is made.
        out = tmp_path / "pack.json"
        start = time.perf_counter()
        assert self.run("pack", "-n", "2", "--theta", "1e-9", "--output", str(out)) == 3
        assert time.perf_counter() - start < 0.5
        assert json.loads(capsys.readouterr().out)["error"] == "precondition"
        assert not out.exists()

    def test_pack_saturated_is_hull_proved(self, tmp_path, capsys):
        out = str(tmp_path / "pack.json")
        assert self.run("pack", "-n", "5", "--theta", "0.5", "--seed", "1",
                        "--output", out) == 0
        assert json.loads(capsys.readouterr().out)["report"]["saturated"] is True
        assert self.run("verify", "--cover", out, "--theta", "0.5", "--method", "hull") == 0

    def test_verify_requires_exactly_one_target(self, capsys):
        assert self.run("verify") == 3

    def test_bad_alpha_is_precondition(self, hand_body_file, capsys):
        assert self.run("illuminate", hand_body_file, "--alpha", "2.0") == 3

    def test_bounds_report(self, capsys):
        assert self.run("bounds") == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert abs(report["alpha_star"] - 0.583808) < 1e-5
        assert report["bound_base"] < 1.19851 + 1e-5
        assert abs(report["gallai_upper"] - 1.22474) < 1e-4
        assert abs(report["gallai_lower"] - 1.15470) < 1e-4

    def test_illuminate_reports_default_alpha(self, hand_body_file, capsys):
        assert self.run("illuminate", hand_body_file) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert abs(report["alpha"] - 0.583808) < 1e-5

    def test_illuminate_sweep_never_worse_than_default(self, hand_body_file, tmp_path,
                                                       capsys):
        # In R^4 the sweep's last alpha, 0.1, asks for a cover past the
        # 20,000-center budget; that alpha is skipped, not fatal.
        spikes = tmp_path / "spikes4.json"
        v = 1.1 * np.concatenate([np.eye(4), -np.eye(4)])
        files.write_document(files.spiky_body_document(SpikyBall(4, v)), spikes)
        for body in (hand_body_file, str(spikes)):
            assert self.run("illuminate", body) == 0
            base = json.loads(capsys.readouterr().out)["report"]["directions"]
            assert self.run("illuminate", body, "--sweep", "5") == 0
            swept = json.loads(capsys.readouterr().out)["report"]["directions"]
            assert swept <= base

    def test_lowerbound_ok(self, tmp_path, capsys):
        out = str(tmp_path / "body.json")
        code = self.run(
            "lowerbound", "-n", "3", "--target", "4", "--samples", "500",
            "--output", out,
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["symmetric_size"] == 2 * report["separated_size"]
        body = files.parse_spiky_body(files.load_document(out))
        assert len(body) == report["symmetric_size"]

    def test_lowerbound_without_illuminated_vertex_is_strict_json(self, capsys):
        # Four points in R^6 leave most of the sphere in no open pi/3 cap,
        # so some seed's single sampled direction illuminates no vertex.
        witnesses = set()
        for seed in range(8):
            assert self.run("lowerbound", "-n", "6", "--target", "2", "--samples", "1",
                            "--seed", str(seed)) == 0
            out = capsys.readouterr().out
            stats = json.loads(out, parse_constant=_reject_constant)["report"]["multiplicity"]
            assert (stats["witness"] is None) == (stats["max_multiplicity"] == 0)
            witnesses.add(stats["witness"])
        assert None in witnesses and len(witnesses) > 1

    @pytest.mark.parametrize("n, reachable", [(3, 7), (4, 17), (8, 394)])
    def test_lowerbound_rejects_target_past_the_cap_area_bound(self, n, reachable, capsys):
        # 2 * target points pairwise >= pi/3 apart have disjoint open
        # pi/6 caps; one more pair than the area bound allows is refused
        # at once instead of running out the draw budget.
        for target in (reachable + 1, 10**9):
            assert self.run("lowerbound", "-n", str(n), "--target", str(target)) == 3
            report = json.loads(capsys.readouterr().out)
            assert report["error"] == "precondition" and "unreachable" in report["detail"]

    def test_lowerbound_refusal_matches_betainc(self, monkeypatch, capsys):
        # The cap-area bound from the series in bounds.cap_share gives the
        # verdict and message that scipy's betainc gives, for targets
        # around the bound. An accepted target stops at the construction.
        class Accepted(Exception):
            pass

        def accepted(*args, **kwargs):
            raise Accepted

        monkeypatch.setattr("gallai.cli.construct_separated_set", accepted)
        for n in range(3, 41):
            share = betainc_share(n, math.pi / 6)
            bound = int(0.5 / share)
            for target in range(max(1, bound - 2), bound + 3):
                argv = ("lowerbound", "-n", str(n), "--target", str(target))
                if 2 * target * share > 1.0 + 1e-9:
                    assert self.run(*argv) == 3
                    detail = json.loads(capsys.readouterr().out)["detail"]
                    assert detail == (
                        f"target {target} is unreachable in dimension {n}: "
                        f"at most {0.5 / share:.1f} antipodal pairs fit pairwise pi/3 apart"
                    )
                else:
                    with pytest.raises(Accepted):
                        self.run(*argv)

    def test_lowerbound_accepts_target_at_the_cap_area_bound(self, capsys):
        code = self.run("lowerbound", "-n", "4", "--target", "17", "--samples", "10")
        assert code == 0
        assert json.loads(capsys.readouterr().out)["report"]["target"] == 17

    def test_lowerbound_max_draws_refuses_a_short_set(self, tmp_path, capsys):
        # The cap-area bound (~2.5e6 pairs at n = 20) lets this target
        # through; without a budget the sampler would take 8e8 draws.
        out = tmp_path / "body.json"
        start = time.perf_counter()
        code = self.run("lowerbound", "-n", "20", "--target", "2000000", "--samples", "10",
                        "--max-draws", "1000", "--output", str(out))
        assert code == 3 and time.perf_counter() - start < 10
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "precondition"
        assert report["detail"].startswith("--max-draws 1000: all 1000 draws spent with ")
        assert "of the target 2000000" in report["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_lowerbound_max_draws_must_be_positive(self, budget, capsys):
        assert self.run("lowerbound", "-n", "3", "--target", "4", "--max-draws", budget) == 3
        assert "max_draws must be positive" in json.loads(capsys.readouterr().out)["detail"]

    @pytest.mark.parametrize("n, target", [(4, 12), (6, 18), (5, 10)])
    def test_lowerbound_max_draws_default_is_the_implicit_budget(self, n, target, capsys):
        # A budget that the set reaches its target within changes no
        # byte; the 3n requests that run out the implicit budget still
        # exit 0 without the flag and are refused with it.
        argv = ("lowerbound", "-n", str(n), "--target", str(target), "--samples", "100")
        assert self.run(*argv) == 0
        plain = capsys.readouterr().out
        reached = json.loads(plain)["report"]["reached_target"]
        budget = str(max(20_000, 400 * target))
        assert self.run(*argv, "--max-draws", budget) == (0 if reached else 3)
        if reached:
            assert capsys.readouterr().out == plain
        else:
            assert json.loads(capsys.readouterr().out)["error"] == "precondition"

    def test_module_entry_point(self, family_file, tmp_path):
        # The package runs as python -m gallai.
        out = str(tmp_path / "points.json")
        proc = subprocess.run(
            [sys.executable, "-m", "gallai", "pierce", family_file, "--output", out],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


class TestRequestPath:
    def test_pierce_and_verify_build_no_ball_objects(self, family_file, tmp_path,
                                                    monkeypatch, capsys):
        built = []
        post_init = Ball.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(Ball, "__post_init__", counting)
        out = str(tmp_path / "points.json")
        assert main(["pierce", family_file, "--output", out]) == 0
        assert main(["verify", "--family", family_file, "--points", out]) == 0
        assert built == []

    def test_parser_reused_across_requests(self, family_file, tmp_path, capsys):
        # One process: pierce, cover, a usage error, pierce again with
        # default options; each call prints what a fresh process prints.
        requests = [
            ["pierce", family_file, "--seed", "5", "--output", str(tmp_path / "p.json")],
            ["cover", "-n", "3", "--theta", "1.0"],
            ["pierce", family_file, "--no-such-option"],
            ["pierce", family_file],
        ]
        codes = []
        for argv in requests:
            try:
                codes.append(main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
            out, err = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "gallai", *argv], capture_output=True, text=True
            )
            assert (codes[-1], out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert codes == [0, 0, 2, 0]
        assert json.loads(out)["report"]["seed"] == 0 and "output" not in json.loads(out)


class TestDeterminism:
    def _twice(self, tmp_path, *argv_tail):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.json"
            assert main([*argv_tail, "--output", str(out)]) == 0
            paths.append(out.read_bytes())
        return paths

    def test_cover(self, tmp_path, capsys):
        a, b = self._twice(tmp_path, "cover", "-n", "3", "--theta", "0.9", "--seed", "3")
        assert a == b

    def test_pack(self, tmp_path, capsys):
        a, b = self._twice(tmp_path, "pack", "-n", "3", "--theta", "1.1", "--seed", "3")
        assert a == b

    def test_pierce(self, family_file, tmp_path, capsys):
        a, b = self._twice(tmp_path, "pierce", family_file, "--seed", "3")
        assert a == b

    def test_illuminate(self, hand_body_file, tmp_path, capsys):
        a, b = self._twice(tmp_path, "illuminate", hand_body_file, "--seed", "3")
        assert a == b

    def test_lowerbound(self, tmp_path, capsys):
        a, b = self._twice(
            tmp_path, "lowerbound", "-n", "3", "--target", "4", "--samples", "200",
            "--seed", "3",
        )
        assert a == b


def check_line(text, doc):
    """``text`` is json's one line of ``doc`` with sorted keys and a
    newline, and reads back as ``doc``: floats to the bit (NaN and -0.0
    too), tuples as lists, other keys as the strings json makes of them."""
    assert text == json.dumps(doc, sort_keys=True) + "\n"
    assert text.count("\n") == 1
    assert_same_value(json.loads(text), doc)


def assert_same_value(loaded, doc):
    if isinstance(doc, dict):
        assert type(loaded) is dict
        doc = {k if isinstance(k, str) else json.dumps(k): v for k, v in doc.items()}
        assert sorted(loaded) == sorted(doc)
        for key, value in doc.items():
            assert_same_value(loaded[key], value)
    elif isinstance(doc, (list, tuple)):
        assert type(loaded) is list and len(loaded) == len(doc)
        for a, b in zip(loaded, doc):
            assert_same_value(a, b)
    elif isinstance(doc, float):
        assert type(loaded) is float
        assert (math.isnan(loaded) and math.isnan(doc)) or (
            loaded == doc and math.copysign(1.0, loaded) == math.copysign(1.0, doc))
    elif isinstance(doc, bool) or doc is None:
        assert loaded is doc
    else:  # an int or a str, subclasses included
        assert type(loaded) is (int if isinstance(doc, int) else str) and loaded == doc


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


def _self_referent():
    doc = {"a": [1.0]}
    doc["a"].append(doc)
    return doc


# Documents dumps_document must write as json's one line, or refuse with
# json's exception.
EDGE_DOCUMENTS = [
    {},
    {"rows": [[1.0, 2.5], [-0.0, 1e300], [5e-324, -1.7976931348623157e308]]},
    {"rows": [[1.0, math.inf], [math.nan, 2.0]]},
    {"rows": [[-math.inf]], "x": 1.0},
    {"x": math.nan},
    {"rows": [[True, 1.5], [1, 2.0], [False], [None, 0]]},
    {"empty": [], "rows": [[]], "nested": [[[]], [[1.0, 2.0], []], {}], "obj": {}},
    {"deep": [[[[[[0.5]]]]]], "ints": [0, -1, 10**30], "n": -7},
    {"s": ["\u00e9", 'a"b', "back\\slash", "\n\t\x00", "\u2028", "\u65e5\u672c", "\U0001f600"],
     "\u00e9": "\u00fc", "": ""},
    {"none": None, "t": True, "f": False, "mixed": ["a", 1.0, None, [True]]},
    {"rows": [["a", "b"], ["c"]], "meta": {"b": 1, "a": {"d": [], "c": "x"}}},
    {1: "int key", 2: "b"},
    {"a": {2.5: 1.0}},
    {"a": 1, 2: "mixed keys"},
    {"t": (1.0, 2.0)},
    {"rows": [(1.0, 2.0)]},
    {"i": _Int(3)},
    {"f": _Float(0.1), "rows": [[_Float(0.1), 0.2]]},
    {"s": _Str("sub"), "strs": [_Str("a"), "b"]},
    {"k": [_Str("a")], _Str("key"): 1},
    {"np": [[np.float64(0.1), np.float64(-2.0)]], "scalar": np.float64(3.0)},
    {"np_int": np.int64(3)},
    _self_referent(),
]


class TestDumpsDocument:
    @pytest.mark.parametrize("doc", EDGE_DOCUMENTS)
    def test_edge_cases_match_json(self, doc):
        try:
            json.dumps(doc, sort_keys=True)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                files.dumps_document(doc)
        else:
            check_line(files.dumps_document(doc), doc)

    def test_random_documents_match_json(self):
        rng = np.random.default_rng(12)
        scalars = [lambda: float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300)),
                   lambda: int(rng.integers(-10**6, 10**6)), lambda: "k\u00e9y\"" * int(rng.integers(3)),
                   lambda: bool(rng.integers(2)), lambda: None,
                   lambda: float(rng.choice([math.inf, -math.inf, math.nan, -0.0]))]

        def build(depth):
            pick = int(rng.integers(0, 9 if depth < 4 else 6))
            if pick < 6:
                return scalars[pick]() if rng.random() < 0.97 or pick == 5 else scalars[0]()
            if pick == 6:
                return [[float(x) for x in rng.standard_normal(int(rng.integers(0, 4)))]
                        for _ in range(int(rng.integers(0, 4)))]
            if pick == 7:
                return [build(depth + 1) for _ in range(int(rng.integers(0, 4)))]
            return {f"k{int(rng.integers(0, 20))}": build(depth + 1)
                    for _ in range(int(rng.integers(0, 4)))}

        for _ in range(400):
            doc = {f"k{i}": build(0) for i in range(int(rng.integers(0, 5)))}
            check_line(files.dumps_document(doc), doc)

    def test_every_cli_document_matches_json(self, family_file, hand_body_file, tmp_path,
                                             monkeypatch, capsys):
        # Every report and artifact the commands write, on success and on
        # each error, goes through dumps_document; each is checked as one
        # line of json that reads back as the same object.
        real = files.dumps_document
        kinds = set()

        def checked(doc):
            text = real(doc)
            check_line(text, doc)
            kinds.add(doc.get("kind") or doc.get("error") or "report")
            return text

        monkeypatch.setattr(files, "dumps_document", checked)
        out = lambda name: str(tmp_path / name)
        far = tmp_path / "far.json"
        files.write_document(files.ball_family_document(
            2, [Ball([0, 0], 1), Ball([5, 0], 1)]), far)
        short = tmp_path / "short.json"
        files.write_document(files.point_set_document(2, [[50.0, 50.0]]), short)
        runs = [
            (0, "pierce", family_file, "--output", out("points.json")),
            (0, "pierce", family_file),
            (0, "verify", "--family", family_file, "--points", out("points.json")),
            (4, "verify", "--family", family_file, "--points", str(short)),
            (0, "illuminate", hand_body_file, "--output", out("dirs.json")),
            (0, "verify", "--body", hand_body_file, "--directions", out("dirs.json")),
            (0, "bounds", "--output", out("bounds.json")),
            (0, "cover", "-n", "3", "--theta", "0.9", "--output", out("cover.json")),
            (0, "verify", "--cover", out("cover.json")),
            (0, "pack", "-n", "3", "--theta", "1.1", "--output", out("pack.json")),
            (0, "lowerbound", "-n", "3", "--target", "4", "--samples", "200",
             "--output", out("lb.json")),
            (2, "pierce", out("missing.json")),
            (3, "pierce", str(far)),
        ]
        for code, *argv in runs:
            assert main(argv) == code, argv
        capsys.readouterr()
        assert {"ball_family", "point_set", "direction_set", "spiky_body", "parse",
                "precondition", "report"} <= kinds
