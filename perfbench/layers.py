"""Per-layer metrics from the traced run.

Layers are the modules of ``src/gallai``; a metric is named
``<module>.<function>.<quantity>``. Counts and times are per request of
the traced pass (so they compare across workloads with different pass
lengths); ``self_s`` is a span's duration minus the time its child spans
cover. ``setup.<module>.import_s`` is the cumulative import time that
``python -X importtime`` reports in a fresh interpreter.
"""

from __future__ import annotations

import re
import statistics
from collections import defaultdict

# Modules whose cumulative import time is reported under setup.*.
SETUP_MODULES = (
    "gallai", "gallai.cli", "gallai.files", "gallai.illumination", "gallai.piercing",
    "gallai.sphere_cover", "gallai.lowerbound", "gallai.bounds", "gallai.sampling",
    "gallai.geometry", "gallai.errors", "numpy", "scipy.optimize",
)

# (name, unit, better). Order is the print order.
PER_LAYER = (
    ("piercing.cover_points_by_balls.calls", "calls/req", "lower"),
    ("piercing.cover_points_by_balls.points", "points/req", "lower"),
    ("piercing.cover_points_by_balls.centers", "centers/req", "lower"),
    ("piercing.cover_points_by_balls.self_s", "s/req", "lower"),
    ("piercing.cover_points_by_balls.peak_mb", "MB", "lower"),
    ("piercing.first_non_intersecting_pair.calls", "calls/req", "lower"),
    ("piercing.first_non_intersecting_pair.self_s", "s/req", "lower"),
    ("piercing.normalize_family.self_s", "s/req", "lower"),
    ("piercing.verify_piercing.self_s", "s/req", "lower"),
    ("piercing.verify_piercing.balls", "balls/req", "lower"),
    ("piercing.pierce.self_s", "s/req", "lower"),
    ("piercing.pierce_large.calls", "calls/req", "lower"),
    ("piercing.pierce_large.self_s", "s/req", "lower"),
    ("piercing.refine_ball_cover.calls", "calls/req", "lower"),
    ("piercing.refine_ball_cover.self_s", "s/req", "lower"),
    ("sphere_cover.greedy_cover.calls", "calls/req", "lower"),
    ("sphere_cover.greedy_cover.self_s", "s/req", "lower"),
    ("sphere_cover.greedy_cover.centers", "centers/req", "lower"),
    ("sphere_cover.greedy_cover.repeat_share", "1", "higher"),
    ("sphere_cover.verify_cover.calls", "calls/req", "lower"),
    ("sphere_cover.verify_cover.self_s", "s/req", "lower"),
    ("sphere_cover.verify_cover.points", "points/req", "lower"),
    ("sphere_cover.sphere_net.calls", "calls/req", "lower"),
    ("sphere_cover.sphere_net.self_s", "s/req", "lower"),
    ("sphere_cover.sphere_net.points", "points/req", "lower"),
    ("sampling.unit_vectors.calls", "calls/req", "lower"),
    ("sampling.unit_vectors.vectors", "vectors/req", "lower"),
    ("sampling.unit_vectors.self_s", "s/req", "lower"),
    ("illumination.is_cap_body.calls", "calls/req", "lower"),
    ("illumination.is_cap_body.self_s", "s/req", "lower"),
    ("illumination.positive_hull_full.calls", "calls/req", "lower"),
    ("illumination.positive_hull_full.self_s", "s/req", "lower"),
    ("illumination.verifies_illumination.self_s", "s/req", "lower"),
    ("illumination.illuminate_cap_body.self_s", "s/req", "lower"),
    ("bounds.solve_alpha.calls", "calls/req", "lower"),
    ("lowerbound.construct_separated_set.self_s", "s/req", "lower"),
    ("lowerbound.construct_separated_set.draws", "draws/req", "lower"),
    ("lowerbound.construct_separated_set.accept_ratio", "1", "higher"),
    ("lowerbound.construct_separated_set.reached_share", "1", "higher"),
    ("lowerbound.multiplicity_report.self_s", "s/req", "lower"),
    ("lowerbound.multiplicity_report.witness", "1", "higher"),
    ("lowerbound.build_lower_bound_body.self_s", "s/req", "lower"),
    ("files.load_document.self_s", "s/req", "lower"),
    ("files.load_document.bytes", "B/req", "lower"),
    ("files.write_document.self_s", "s/req", "lower"),
    ("files.write_document.bytes", "B/req", "lower"),
    ("files.parse.self_s", "s/req", "lower"),
    ("cli.main.self_s", "s/req", "lower"),
    ("cli.main.output_size", "rows/req", "lower"),
    *((f"setup.{m}.import_s", "s", "lower") for m in SETUP_MODULES),
    ("trace.overhead_s", "s/req", "lower"),
)

_SUMMED = {"points", "centers", "balls", "vectors", "bytes"}


def span_metrics(spans: list[dict], requests: int) -> dict[str, float]:
    """Per-layer values from the spans of ``requests`` traced requests."""
    child_time = [0.0] * len(spans)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
            children[s["parent"]].append(i)
    by_layer = defaultdict(list)
    for i, s in enumerate(spans):
        s["self_s"] = (s["end"] - s["start"]) - child_time[i]
        s["index"] = i
        by_layer[s["name"]].append(s)

    def child_sum(span, name, field):
        return sum(spans[c].get(field, 0) for c in children[span["index"]]
                   if spans[c]["name"] == name)

    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        layer, quantity = name.rsplit(".", 1)
        group = by_layer.get(layer, [])
        if quantity == "calls":
            value = len(group) / requests
        elif quantity == "self_s":
            value = sum(s["self_s"] for s in group) / requests
        elif quantity in _SUMMED and layer != "sphere_cover.verify_cover":
            value = sum(s.get(quantity, 0) for s in group) / requests
        elif quantity == "peak_mb":
            value = max((s.get("peak_mb", 0.0) for s in group), default=0.0)
        elif quantity == "repeat_share":
            keys = [s["key"] for s in group if "key" in s]
            value = (len(keys) - len(set(keys))) / len(keys) if keys else 0.0
        elif name == "sphere_cover.verify_cover.points":
            # Sampled certificates count their samples; net certificates
            # the points of the net they build.
            value = sum(s.get("samples", 0) + child_sum(s, "sphere_cover.sphere_net", "points")
                        for s in group) / requests
        elif quantity == "draws":
            value = sum(child_sum(s, "sampling.unit_vectors", "vectors") for s in group) / requests
        elif quantity == "accept_ratio":
            draws = sum(child_sum(s, "sampling.unit_vectors", "vectors") for s in group)
            value = sum(s.get("accepted", 0) for s in group) / draws if draws else 0.0
        elif quantity == "reached_share":
            value = sum(s.get("reached", 0) for s in group) / len(group) if group else 0.0
        elif quantity == "witness":
            values = [s["witness"] for s in group if "witness" in s]
            value = statistics.fmean(values) if values else 0.0
        else:
            continue
        out[name] = value
    return out


_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match and match.group(3) in SETUP_MODULES:
            out[match.group(3)] = int(match.group(2)) / 1e6
    return out
