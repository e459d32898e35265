"""gallai benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload pierce-spread --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

For one workload the steps are:

1. generate and validate the seeded inputs and write them as JSON
   artifacts (never timed);
2. time cold ``import gallai.cli`` in fresh interpreters (``setup_s``;
   with ``--trace 1`` the per-module ``-X importtime`` figures instead);
3. run the requests in a fresh worker interpreter, a closed loop with
   one client: whole cycles for ``--seconds`` with ``--trace 0``; with
   ``--trace 1`` a fixed request list (``--seconds`` does not apply),
   run untraced and then traced;
4. re-verify and hash every artifact; for ``--trace 0`` also replay a few
   requests in another fresh interpreter and compare artifact hashes.

Every metric is printed as ``<workload> <name> = <value> <unit>``; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A request fails when it exits non-zero, its
artifact fails re-verification, or its artifact hash differs from
another run of the same request.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

if not (SRC / "gallai" / "__init__.py").is_file():
    sys.exit(f"perfbench: no gallai sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("throughput_rps", "req/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# Tail percentile per workload, pinned so that runs with a cycle more
# or less compare the same quantile: the highest that keeps at least
# ten samples beyond it at the fewest requests a 20 s run makes on a
# 2-core x86_64 host (pierce-dense: 3 cycles of 15, lowerbound: 4 of 9).
# p70 also falls inside one input's group of repeats there rather than
# between two inputs. tail() lowers it only for a run with too few samples.
TAIL_PERCENTILE = {"pierce-spread": 95, "pierce-dense": 70, "illuminate": 95,
                   "lowerbound": 70}
# Whole cycles in the fixed request list of the traced run.
TRACE_CYCLES = {"pierce-spread": 3, "pierce-dense": 1, "illuminate": 4, "lowerbound": 1}
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
REPLAYS = 4
CHILD_TIMEOUT = 170

_IMPORT = ("import time; t = time.perf_counter(); import gallai.cli; "
           "print(time.perf_counter() - t)")


def _env() -> dict:
    env = dict(os.environ)
    # One client in one process: BLAS on one thread, so request times do
    # not depend on load on the other cores (two OpenBLAS threads ran the
    # illuminate cycle twice as slow while another process held a core).
    env.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def _python(args: list[str], timeout: float = CHILD_TIMEOUT):
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=timeout, check=True)


def _worker(plan: dict, work: Path, tag: str) -> dict:
    plan_path, result_path = work / f"{tag}-plan.json", work / f"{tag}-result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
        cwd=ROOT, env=_env(), timeout=CHILD_TIMEOUT, stdout=subprocess.DEVNULL,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({tag}) exited with {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def setup_seconds() -> float:
    """Median wall time of a cold ``import gallai.cli``."""
    return statistics.median(
        float(_python(["-c", _IMPORT]).stdout) for _ in range(SETUP_SAMPLES)
    )


def setup_layers() -> dict[str, float]:
    runs = [layers.import_times(_python(["-X", "importtime", "-c", "import gallai.cli"]).stderr)
            for _ in range(IMPORTTIME_SAMPLES)]
    return {f"setup.{m}.import_s": statistics.median(r.get(m, 0.0) for r in runs)
            for m in layers.SETUP_MODULES}


def tail(latencies: list[float], percentile: float) -> tuple[float, float]:
    """Latency at ``percentile``; lowered if fewer than ten samples lie beyond."""
    n = len(latencies)
    if n * (1 - percentile / 100) < 10:
        percentile = max(0.0, math.floor(100 * (1 - 10 / n)))
    return float(np.percentile(latencies, percentile)), percentile


def _check_records(workload, records, out_dir: Path, verifier, failed: set) -> tuple[dict, list]:
    """Verify each request's artifact; returns hashes and artifact rows."""
    hashes, rows = {}, []
    for rec in records:
        i = rec["index"]
        path = str(out_dir / f"{i}.json")
        sha = checks.digest(path)
        hashes[i] = sha
        if rec["code"] != 0 or sha is None:
            failed.add(i)
            continue
        ok, count = verifier.check(workloads.argv_for(workload, i, path), path, sha)
        rows.append(count)
        if not ok:
            failed.add(i)
    return hashes, rows


def _traced(workload, plan: dict, work: Path) -> dict:
    """Per-layer metrics from a fixed request list, run untraced then traced."""
    verifier, failed, notes = checks.Verifier(), set(), []
    metrics = setup_layers()
    count = TRACE_CYCLES[workload.name] * len(workload.cycle)
    out = work / "trace"
    result = _worker({**plan, "mode": "trace", "requests": count, "out_dir": str(out),
                      "spans_path": str(work / "spans.json")}, work, "trace")
    plain, rows = _check_records(workload, result["records"], out / "plain", verifier, failed)
    traced, _ = _check_records(workload, result["traced_records"], out / "traced",
                               verifier, failed)
    failed.update(i for i in plain if plain[i] != traced.get(i))
    if not result["restored"]:
        failed.update(plain)
        notes.append("wrappers were not restored")
    spans = json.loads((work / "spans.json").read_text(encoding="utf-8"))
    metrics.update(layers.span_metrics(spans, count))
    metrics["cli.main.output_size"] = statistics.fmean(rows) if rows else 0.0
    metrics["trace.overhead_s"] = (result["traced_wall"] - result["wall"]) / count
    notes.append(f"traced pass: {count} requests, {result['traced_wall']:.3f} s "
                 f"(untraced {result['wall']:.3f} s)")
    units = {n: u for n, u, _ in layers.PER_LAYER}
    return {"attempted": count, "failed": len(failed), "notes": notes,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def _timed(workload, plan: dict, work: Path, seconds: float) -> dict:
    """End-to-end metrics from the closed loop, then the output checks."""
    verifier, failed, notes = checks.Verifier(), set(), []
    setup = setup_seconds()
    out = work / "timed"
    result = _worker({**plan, "mode": "timed", "seconds": seconds, "out_dir": str(out)},
                     work, "timed")
    records = result["records"]
    hashes, rows = _check_records(workload, records, out, verifier, failed)
    if workload.seed_base is None:
        # The same request recurs every cycle and must give the same bytes.
        first = {}
        for i, sha in hashes.items():
            if first.setdefault(i % len(workload.cycle), sha) != sha:
                failed.add(i)
    n = len(records)
    picks = sorted({round(k * (n - 1) / (REPLAYS - 1)) for k in range(REPLAYS)})
    replay = _worker({**plan, "mode": "replay", "indices": picks,
                      "out_dir": str(work / "replay")}, work, "replay")
    for rec in replay["records"]:
        i = rec["index"]
        if rec["code"] != 0 or checks.digest(str(work / "replay" / f"{i}.json")) != hashes[i]:
            failed.add(i)
    latencies = [r["latency"] for r in records]
    tail_value, pct = tail(latencies, TAIL_PERCENTILE[workload.name])
    metrics = {
        "setup_s": setup,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "throughput_rps": n / result["wall"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes.append(f"latency_tail_s is p{pct:g} of {n} samples; "
                 f"latency_p50_s of {n} samples; loop wall {result['wall']:.3f} s")
    notes.append(f"failed_fraction {len(failed) / n:.4g}; output_size "
                 f"{statistics.fmean(rows) if rows else 0.0:.6g} rows/artifact; "
                 f"replayed requests {picks}")
    if workload.name == "lowerbound":
        witnesses = [checks.witness(r["stdout"]) for r in records if r["code"] == 0]
        notes.append(f"lowerbound_witness {statistics.fmean(witnesses):.6g}")
    return {"attempted": n, "failed": len(failed), "notes": notes,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u, _ in END_TO_END}}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = workloads.build(name, seed, str(work / "inputs"))
        plan = {"workload": dataclasses.asdict(workload)}
        if trace:
            return {"workload": name, **_traced(workload, plan, work)}
        return {"workload": name, **_timed(workload, plan, work, seconds)}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def metadata() -> dict:
    import scipy

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = None
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "gallai").glob("*.py")))
    return {"nproc": os.cpu_count(), "usable_cpus": cpus, "cpu_pinning": "not used",
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "src_gallai_lines": lines,
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    started = time.perf_counter()
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    print(f"meta {json.dumps(metadata(), sort_keys=True)}")
    for res in results:
        for key, m in res["metrics"].items():
            print(f"{res['workload']} {key} = {m['value']:.6g} {m['unit']}")
        for note in res["notes"]:
            print(f"{res['workload']} note: {note}")
        print(f"{res['workload']} attempted {res['attempted']} failed {res['failed']}")
    print(f"total wall {time.perf_counter() - started:.1f} s")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
