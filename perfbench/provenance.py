"""Write ``perfbench/provenance.json`` from the run reports in ``.perfbench/``.

For every workload: why it was chosen, its loop with rate or client
count, the catalog size, the percentile and sample count behind each
tail metric, and the medians over the untraced runs (of the workloads as
defined now, at the pinned hash seed) of the properties the layers depend on — plan-memo hit share, degraded-rung share, share of
deltas that hit a session's suffix — with the plan digests seen.

Run from the repository root after a set of ``--trace 0`` runs::

    python3 perfbench/provenance.py
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from workloads import WORKLOADS  # noqa: E402

SHARES = ("memo_hit_share", "degraded_rung_share", "suffix_hit_share", "slo_attainment")


def _median_of(runs, key):
    return statistics.median(key(r) for r in runs)


def main() -> int:
    reports = [
        json.loads(path.read_text())
        for path in sorted((ROOT / ".perfbench").glob("*-trace0.json"))
    ]
    # Only runs of the workloads as defined now, at the pinned hash seed;
    # self-test runs are tiny and injected and describe no workload.
    current = {
        name: json.loads(json.dumps(wl.provenance()))
        for name, wl in WORKLOADS.items()
    }
    reports = [
        r for r in reports
        if not r.get("tiny")
        and r.get("hash_seed") == 0
        and r["provenance"] == current.get(r["workload"])
    ]
    out = {}
    for name in sorted({r["workload"] for r in reports}):
        runs = [r for r in reports if r["workload"] == name]
        tails = {}
        for metric in runs[0]["tails"]:
            # The schedule fixes the percentile; runs disagreeing on it
            # ran different definitions, and all of them are listed.
            percentiles = sorted({r["tails"][metric]["percentile"] for r in runs})
            tails[metric] = {
                "percentile": percentiles[0] if len(percentiles) == 1 else percentiles,
                "samples_median": _median_of(
                    runs, lambda r: r["tails"][metric]["samples"]
                ),
            }
        out[name] = {
            **WORKLOADS[name].provenance(),
            "runs": len(runs),
            "seconds": sorted({r["seconds"] for r in runs}),
            "seeds": sorted(r["seed"] for r in runs),
            "tails": tails,
            "measured_median": {
                key: _median_of(runs, lambda r: r["measured"][key])
                for key in SHARES
            },
            "counts_median": {
                key: _median_of(runs, lambda r: r["measured"]["counts"][key])
                for key in runs[0]["measured"]["counts"]
            },
            "plan_digests": sorted({r["measured"]["plan_digest"] for r in runs}),
        }
    target = ROOT / "perfbench" / "provenance.json"
    target.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {target} ({len(reports)} run reports)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
