"""Self-test of the benchmark harness.

Runs every workload at a tiny size for a few seconds and checks that

1. every metric ``BENCHMARK.json`` names is emitted, with its unit, in
   both the untraced (end-to-end) and the traced (per-layer) run;
2. replan sessions that miss the server's close broadcasts, so that
   their replans keep the closed item, fail the correctness check once
   per replan (and the run exits non-zero);
3. a generator that falls behind its schedule is flagged;

and that ``provenance.json`` still describes the workloads as defined.

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
from typing import List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SECONDS = "4"


def run(workload: str, trace: int, inject: Optional[str] = None) -> Tuple[int, dict, str]:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "0", "--seconds", SECONDS,
        "--trace", str(trace), "--tiny",
    ]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, result, proc.stdout + proc.stderr


def stale_provenance(names: List[str]) -> List[str]:
    sys.path[:0] = [str(ROOT / "src")]
    from workloads import WORKLOADS

    recorded = json.loads((ROOT / "perfbench" / "provenance.json").read_text())
    problems = []
    for name in names:
        want = json.loads(json.dumps(WORKLOADS[name].provenance()))
        got = {k: v for k, v in recorded.get(name, {}).items() if k in want}
        if got != want:
            problems.append(
                f"provenance.json is stale for {name}: rerun the workload "
                "and perfbench/provenance.py"
            )
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    problems = stale_provenance(names)
    for workload in names:
        for trace in (0, 1):
            code, result, output = run(workload, trace)
            got = {
                name: entry.get("unit")
                for name, entry in result.get("metrics", {}).items()
            }
            if code != 0 or not result.get("correct"):
                problems.append(f"{workload} trace={trace}: run failed\n{output}")
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                wrong = sorted(
                    n for n in got if n in expected[trace] and got[n] != expected[trace][n]
                )
                extra = sorted(set(got) - set(expected[trace]))
                problems.append(
                    f"{workload} trace={trace}: missing {missing}, wrong "
                    f"unit {wrong}, unexpected {extra}"
                )
            print(f"{workload} trace={trace}: {len(got)} metrics, exit {code}")
        for inject, check in (
            ("closed-item", "check no_closed_items_served: FAIL"),
            ("lag", "check generator_within_bound: FAIL"),
        ):
            code, result, output = run(workload, 0, inject)
            flagged = code != 0 and result.get("correct") is False and check in output
            if flagged and inject == "closed-item":
                # Every replan kept the item its triggering delta closed.
                report = json.loads(
                    (ROOT / ".perfbench" / f"{workload}-seed0-trace0.json").read_text()
                )
                caught = len(report["checks"]["no_closed_items_served"])
                replans = report["measured"]["counts"]["replans"]
                flagged = caught == replans > 0
                output += f"\n{caught} of {replans} replans flagged"
            print(f"{workload} inject={inject}: {'flagged' if flagged else 'MISSED'}")
            if not flagged:
                problems.append(f"{workload} inject={inject} not flagged\n{output}")
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
