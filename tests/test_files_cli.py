"""Artifact file round-trips and the CLI exit-status contract."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from gallai import Ball, DirectionSet, SpikyBall
from gallai import files
from gallai.cli import main

from conftest import random_intersecting_family


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


class TestExitCodes:
    def run(self, *argv):
        return main(list(argv))

    def test_pierce_ok(self, family_file, tmp_path, capsys):
        out = str(tmp_path / "points.json")
        assert self.run("pierce", family_file, "--output", out) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["verified"] is True

    def test_parse_error_on_garbage(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert self.run("pierce", str(path)) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "parse"

    def test_parse_error_on_missing_file(self, tmp_path, capsys):
        assert self.run("pierce", str(tmp_path / "nope.json")) == 2

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

    @pytest.mark.parametrize("command", ["cover", "pack"])
    def test_tol_is_not_an_option_of(self, command, capsys):
        # Neither command verifies anything a tolerance could loosen.
        with pytest.raises(SystemExit) as exc:
            self.run(command, "-n", "3", "--theta", "1.0", "--tol", "0.5")
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

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

    def test_near_miss_family_reports_pair_under_loose_tol(self, tmp_path, capsys):
        # --tol loosens verification only; the 1e-6 gap still fails the
        # precondition, which names the pair.
        doc = files.ball_family_document(2, [Ball([0, 0], 1), Ball([2 + 1e-6, 0], 1)])
        path = tmp_path / "near.json"
        files.write_document(doc, path)
        assert self.run("pierce", str(path), "--tol", "1e-5") == 3
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
        assert report["verified"] is True

    def test_illuminate_rejects_non_cap_body(self, tmp_path, capsys):
        v = 2.0 * np.concatenate([np.eye(3), -np.eye(3)])
        path = tmp_path / "spiky.json"
        files.write_document(files.spiky_body_document(SpikyBall(3, v)), path)
        assert self.run("illuminate", str(path)) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "precondition"
        assert out["pair"] == [0, 1]

    def test_overlapping_caps_report_pair_under_loose_tol(self, tmp_path, capsys):
        # Two pi/4 caps whose axes are 5e-8 rad short of tangency.
        gap = math.pi / 2 - 5e-8
        v = math.sqrt(2.0) * np.array([[1.0, 0.0, 0.0], [math.cos(gap), math.sin(gap), 0.0]])
        path = tmp_path / "overlap.json"
        files.write_document(files.spiky_body_document(SpikyBall(3, v)), path)
        assert self.run("illuminate", str(path), "--tol", "1e-5") == 3
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
        assert report["verified"] is True

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

    def test_illuminate_sweep_never_worse_than_default(self, hand_body_file, capsys):
        assert self.run("illuminate", hand_body_file) == 0
        base = json.loads(capsys.readouterr().out)["report"]["directions"]
        assert self.run("illuminate", hand_body_file, "--sweep", "5") == 0
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

    def test_module_entry_point(self, family_file, tmp_path):
        # The package runs as python -m gallai.
        out = str(tmp_path / "points.json")
        proc = subprocess.run(
            [sys.executable, "-m", "gallai", "pierce", family_file, "--output", out],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


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
