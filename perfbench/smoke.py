"""Smoke check of the benchmark itself: tiny runs of every workload.

Run from the root of a checkout:

    python3 perfbench/smoke.py

For each workload it runs one round end to end (--trace 0) and one traced
request (--trace 1), with --seconds 1, and checks that every known answer
matched and that exactly the metrics BENCHMARK.json names are printed, with
their units.  It also checks that the workloads' reasons agree with
BENCHMARK.json and that the benchmark's own candidate count agrees with
tropdiff.troppoly.count_candidates.  Takes about a minute; exit code 0 when
everything holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, count_candidates  # noqa: E402


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    problems = []

    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    if whys != {name: w.why for name, w in WORKLOADS.items()}:
        problems.append("workload names or reasons differ from BENCHMARK.json")

    sys.path.insert(0, str(root / "src"))
    from tropdiff.troppoly import count_candidates as program_count

    for box, nvars in (((3, 2), 1), ((10,), 1), ((2, 1), 2), ((4,), 2), ((0,), 3)):
        if count_candidates(box, nvars) != program_count(box, None, nvars):
            problems.append(f"candidate count differs for box {box}")

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for name in WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=180)
            tag = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics {sorted(got.items())} differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: known answers did not all match\n{proc.stdout[-3000:]}")
            print(f"{tag}: {result['attempted']} requests, {result['failed']} failed, "
                  f"{len(got)} metrics")

    for p in problems:
        print("PROBLEM:", p)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
