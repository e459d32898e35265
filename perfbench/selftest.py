"""Self-test of the benchmark harness.

Usage (from the repository root): python3 perfbench/selftest.py

On a small seed and a short request list of every workload it checks
that traced and untraced runs write byte-identical artifacts, that the
tracer restores every wrapped attribute, that each run re-verifies
without failures, and that every metric named in BENCHMARK.json is
printed with its unit. Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    sys.path.insert(0, str(HERE))
    import layers
    import run
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    expected_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expected_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if expected_e2e != {n: u for n, u, _ in run.END_TO_END}:
        problems.append("end_to_end metrics differ between BENCHMARK.json and run.py")
    if expected_layer != {n: u for n, u, _ in layers.PER_LAYER}:
        problems.append("per_layer metrics differ between BENCHMARK.json and layers.py")
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        problems.append("workloads differ between BENCHMARK.json and workloads.py")

    # Trace mode compares untraced and traced artifacts byte for byte and
    # counts a mismatch or an unrestored wrapper as a failed request.
    for name in workloads.NAMES:
        for trace, expected in ((0, expected_e2e), (1, expected_layer)):
            result = _run(name, trace)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{name} trace={trace}: metrics/units differ: "
                                f"{sorted(set(got.items()) ^ set(expected.items()))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} requests failed")
            print(f"{name} trace={trace}: {result['attempted']} requests, "
                  f"{result['failed']} failed", flush=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
