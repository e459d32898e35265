"""Span recorder that wraps the library's public functions from outside.

Each wrapped function is replaced at the module attribute its callers
look up (``from .x import f`` binds a name in the importing module, so
the same function is patched in every module that calls it). A span is
recorded only while a request is open; it keeps the layer name, start
and end times, the index of the span that caused it, the request id
and a few counts taken from the arguments or the result. Spans stay in
memory until the caller writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
import tracemalloc

from gallai.sphere_cover import CoverParams


def _greedy_key(a, r):
    params = a["params"] or CoverParams()
    return {"centers": len(r), "key": repr((a["n"], float(a["theta"]), a["seed"], params))}


def _verify_cover(a, r):
    return {"samples": r.resolution_or_samples if r.method == "sampled" else 0}


def _separated(a, r):
    return {"accepted": len(r), "reached": int(r.reached_target)}


def _file_bytes(a, r):
    return {"bytes": os.path.getsize(a["path"])}


# (module attribute patched, span name, counts taken from the call).
# A counts function gets (arguments by name, result) and returns a dict.
TARGETS = (
    ("gallai.cli.main", "cli.main", None),
    ("gallai.cli.pierce", "piercing.pierce", None),
    ("gallai.cli.first_non_intersecting_pair", "piercing.first_non_intersecting_pair", None),
    ("gallai.piercing.first_non_intersecting_pair", "piercing.first_non_intersecting_pair", None),
    ("gallai.piercing.normalize_family", "piercing.normalize_family", None),
    ("gallai.piercing.pierce_large", "piercing.pierce_large", None),
    ("gallai.piercing.cover_points_by_balls", "piercing.cover_points_by_balls",
     lambda a, r: {"points": len(a["points"]), "centers": len(r)}),
    ("gallai.piercing.refine_ball_cover", "piercing.refine_ball_cover", None),
    ("gallai.piercing.verify_piercing", "piercing.verify_piercing",
     lambda a, r: {"balls": len(a["family"].balls)}),
    ("gallai.cli.verify_piercing", "piercing.verify_piercing",
     lambda a, r: {"balls": len(a["family"].balls)}),
    ("gallai.piercing.greedy_cover", "sphere_cover.greedy_cover", _greedy_key),
    ("gallai.illumination.greedy_cover", "sphere_cover.greedy_cover", _greedy_key),
    ("gallai.cli.greedy_cover", "sphere_cover.greedy_cover", _greedy_key),
    ("gallai.sphere_cover.verify_cover", "sphere_cover.verify_cover", _verify_cover),
    ("gallai.sphere_cover.sphere_net", "sphere_cover.sphere_net",
     lambda a, r: {"points": len(r[0])}),
    ("gallai.sampling.unit_vectors", "sampling.unit_vectors",
     lambda a, r: {"vectors": int(a["count"])}),
    ("gallai.cli.is_cap_body", "illumination.is_cap_body", None),
    ("gallai.illumination.is_cap_body", "illumination.is_cap_body", None),
    ("gallai.illumination.positive_hull_full", "illumination.positive_hull_full", None),
    ("gallai.cli.verifies_illumination", "illumination.verifies_illumination", None),
    ("gallai.illumination.verifies_illumination", "illumination.verifies_illumination", None),
    ("gallai.cli.illuminate_cap_body", "illumination.illuminate_cap_body", None),
    ("gallai.cli.solve_alpha", "bounds.solve_alpha", None),
    ("gallai.illumination.solve_alpha", "bounds.solve_alpha", None),
    ("gallai.cli.construct_separated_set", "lowerbound.construct_separated_set", _separated),
    ("gallai.cli.symmetrize", "lowerbound.symmetrize", None),
    ("gallai.cli.build_lower_bound_body", "lowerbound.build_lower_bound_body", None),
    ("gallai.cli.multiplicity_report", "lowerbound.multiplicity_report",
     lambda a, r: {"witness": r.witness}),
    ("gallai.files.load_document", "files.load_document", _file_bytes),
    ("gallai.files.write_document", "files.write_document", _file_bytes),
    ("gallai.files.parse_ball_family", "files.parse", None),
    ("gallai.files.parse_spiky_body", "files.parse", None),
    ("gallai.files.parse_direction_set", "files.parse", None),
    ("gallai.files.parse_point_set", "files.parse", None),
)

# Spans whose peak traced memory is measured. tracemalloc runs only
# inside these, so it does not slow the rest of the traced run; none of
# them contains another wrapped call.
PEAK_MEMORY = frozenset({"piercing.cover_points_by_balls"})


def resolve(target: str):
    """(module, attribute name) of a dotted ``module.attribute`` target."""
    module_name, attr = target.rsplit(".", 1)
    return importlib.import_module(module_name), attr


class Tracer:
    """Installs wrappers, records spans of open requests, restores."""

    def __init__(self):
        self.spans: list[dict] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for target, name, counts in TARGETS:
            module, attr = resolve(target)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counts))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, counts):
        params = inspect.signature(fn).parameters
        names = list(params)
        defaults = {k: p.default for k, p in params.items()
                    if p.default is not inspect.Parameter.empty}
        peak = name in PEAK_MEMORY
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = {"name": name, "parent": parent, "request": tracer.request}
            tracer.spans.append(span)
            tracer._stack.append(index)
            if peak:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if peak:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                tracer._stack.pop()
                span["start"], span["end"] = start, end
            if counts is not None:
                arguments = {**defaults, **dict(zip(names, args)), **kwargs}
                span.update(counts(arguments, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper
