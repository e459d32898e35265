"""Runs one workload's requests in a fresh interpreter.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

Each request is one in-process ``gallai.cli.main(argv)`` call whose
stdout is captured in memory. Modes:

- ``timed``: closed loop, one client. Whole cycles of the workload run
  until ``seconds`` have passed; records per-request latency, exit
  code and report, the loop's wall time and the process's peak RSS.
- ``trace``: the first ``requests`` requests run once untraced and
  once with the tracer installed; the spans are written to
  ``spans_path`` and the wrappers are restored.
- ``replay``: the listed request indices run once, to compare their
  artifacts with those of another process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import workloads


def _call(index: int, workload, out_dir: str) -> dict:
    import gallai.cli

    argv = workloads.argv_for(workload, index, os.path.join(out_dir, f"{index}.json"))
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            # Looked up on every call, so an installed tracer sees it.
            code = gallai.cli.main(argv)
    except Exception:  # noqa: BLE001 - a crashed request is a failed request
        traceback.print_exc()
        code = -1
    latency = time.perf_counter() - start
    return {"index": index, "latency": latency, "code": code, "stdout": buf.getvalue()}


def _timed(plan, workload) -> dict:
    cycle = len(workload.cycle)
    records = []
    start = time.perf_counter()
    while True:
        for _ in range(cycle):
            records.append(_call(len(records), workload, plan["out_dir"]))
        if time.perf_counter() - start >= plan["seconds"]:
            break
    wall = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"records": records, "wall": wall, "peak_rss_mb": rss_kb / 1024.0}


def _pass(workload, count: int, out_dir: str, tracer=None):
    os.makedirs(out_dir, exist_ok=True)
    records = []
    start = time.perf_counter()
    for index in range(count):
        if tracer is not None:
            tracer.request = index
        records.append(_call(index, workload, out_dir))
        if tracer is not None:
            tracer.request = None
    return records, time.perf_counter() - start


def _trace(plan, workload) -> dict:
    from tracer import TARGETS, Tracer, resolve

    def current():
        return [getattr(*resolve(target)) for target, _, _ in TARGETS]

    count = plan["requests"]
    plain, plain_wall = _pass(workload, count, os.path.join(plan["out_dir"], "plain"))
    before = current()
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_wall = _pass(
            workload, count, os.path.join(plan["out_dir"], "traced"), tracer
        )
    finally:
        tracer.restore()
    restored = all(a is b for a, b in zip(before, current()))
    with open(plan["spans_path"], "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return {"records": plain, "traced_records": traced, "wall": plain_wall,
            "traced_wall": traced_wall, "restored": restored}


def _replay(plan, workload) -> dict:
    records = [_call(i, workload, plan["out_dir"]) for i in plan["indices"]]
    return {"records": records}


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    workload = workloads.Workload(**plan["workload"])
    import gallai.cli  # noqa: F401 - imported before any request is timed

    os.makedirs(plan["out_dir"], exist_ok=True)
    run = {"timed": _timed, "trace": _trace, "replay": _replay}[plan["mode"]]
    result = run(plan, workload)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
