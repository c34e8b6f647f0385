"""One end-to-end benchmark for the planning service.

Run from the repository root::

    python3 perfbench/run.py --workload scale_5k --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice in the same window (untraced,
then traced), reports the per-layer table from the traced half and the
tracing overhead as traced minus untraced.  Workloads: ``scale_5k``,
``churn_5k`` (see ``workloads.py``).

Every metric is printed by name with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full run report (provenance, tail
percentiles and sample counts, plan digest, checks) and, for traced
runs, the span dump are written under ``.perfbench/``.  The exit code
is non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
from typing import Any, Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "serve_p50_ms": "ms",
    "serve_tail_ms": "ms",
    "plan_score_mean": "score",
    "saturated_rps": "req/s",
    "delta_ack_p50_ms": "ms",
    "delta_ack_tail_ms": "ms",
    "replan_mean_ms": "ms",
    "replan_tail_ms": "ms",
    "recovery_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

FAILED_SERVE = ("shed", "rejected", "failed")
FAILED_REPLAN = ("failed", "shed", "draining", "invalidated")


def _ok(result) -> bool:
    return result is not None and result.ok


def _share(flags: List[bool]) -> float:
    return sum(flags) / len(flags) if flags else 0.0


def summarize(sc) -> Dict[str, Any]:
    """End-to-end metrics, checks and counts of one finished scenario."""
    from checks import closed_item_violations, invalid_ok_plans, plan_records
    from drivers import mean, median, tail
    from workloads import GENERATOR_LAG_BOUND_S, SERVE_SLO_S

    from repro.core import DomainMode
    from repro.core.validation import PlanValidator

    wl, w = sc.wl, sc.writes
    serves = w.serves if wl.serve == "churn" else sc.serves
    saturation = [] if sc.saturation is sc.serves else sc.saturation
    everything = serves + saturation + w.deltas + w.replans

    results = [e.result for e in serves]
    serve_lat = [e.latency for e in serves]
    delta_lat = [e.latency for e in w.deltas]
    replan_lat = [e.latency for e in w.replans]
    tails = {
        "serve_tail_ms": tail(serve_lat, sc.planned["serve"]),
        "delta_ack_tail_ms": tail(delta_lat, sc.planned["delta"]),
        "replan_tail_ms": tail(replan_lat, sc.planned["replan"]),
    }
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "serve_p50_ms": 1e3 * median(serve_lat),
        "serve_tail_ms": 1e3 * tails["serve_tail_ms"][0],
        "plan_score_mean": statistics.fmean(
            r.score.value if _ok(r) else 0.0 for r in results
        ),
        "saturated_rps": (
            sum(_ok(e.result) for e in sc.saturation) / sc.saturation_elapsed
        ),
        "delta_ack_p50_ms": 1e3 * median(delta_lat),
        "delta_ack_tail_ms": 1e3 * tails["delta_ack_tail_ms"][0],
        "replan_mean_ms": 1e3 * mean(replan_lat),
        "replan_tail_ms": 1e3 * tails["replan_tail_ms"][0],
        "recovery_s": mean(w.recovery_s),
        "setup_s": median(sc.setup_s),
        "peak_rss_mb": rss_kb / 1024.0,
    }

    records = plan_records(w.serves, w.replans, w.history)
    lag_tail, lag_max = tail(sc.lags)[0], max(sc.lags, default=0.0)
    validator = PlanValidator(
        sc.task.hard, credits_are_budget=sc.mode is DomainMode.TRIP
    )
    checks = {
        "no_closed_items_served": closed_item_violations(records, w.history),
        "ok_plans_validate": invalid_ok_plans(
            [e.result for e in serves + saturation + w.replans], validator
        ),
        "replay_reproduces_live_state": (
            w.replay_mismatches if w.recovery_s else ["no journal replay ran"]
        ),
        "generator_within_bound": (
            []
            if lag_max <= GENERATOR_LAG_BOUND_S
            else [
                f"generator fell {1e3 * lag_max:.1f} ms behind "
                f"(bound {1e3 * GENERATOR_LAG_BOUND_S:.0f} ms)"
            ]
        ),
        "no_errors": [
            f"{type(e.error).__name__}: {e.error}"
            for e in everything
            if e.error is not None
        ],
    }
    failed = (
        sum(
            e.result is not None and e.result.outcome in FAILED_SERVE
            for e in serves + saturation
        )
        + sum(
            e.result is not None and e.result.outcome in FAILED_REPLAN
            for e in w.replans
        )
        + sum(e.error is not None for e in everything)
    )
    return {
        "metrics": metrics,
        # Every latency sample, in seconds, so that other statistics of
        # a run can be computed from its report.
        "samples_s": {
            "serve": serve_lat,
            "delta_ack": delta_lat,
            "replan": replan_lat,
            "recovery": w.recovery_s,
            "setup": sc.setup_s,
        },
        "tails": {
            name: {"percentile": q, "samples": n}
            for name, (_v, q, n) in tails.items()
        },
        "checks": checks,
        "attempted": len(everything),
        "failed": failed,
        "measured": {
            "memo_hit_share": _share(
                [r is not None and r.plan_cache_hit for r in results]
            ),
            "degraded_rung_share": _share(
                [r is not None and r.rung != "sarsa" for r in results]
            ),
            "suffix_hit_share": _share(
                [True] * w.hits + [False] * (len(w.deltas) - w.hits)
            ),
            "slo_attainment": _share(
                [
                    _ok(e.result) and e.latency <= SERVE_SLO_S
                    for e in serves
                ]
            ),
            "shed_share": _share(
                [e.result is not None and e.result.outcome == "shed" for e in serves]
            ),
            "generator_lag_tail_ms": 1e3 * lag_tail,
            "generator_lag_max_ms": 1e3 * lag_max,
            "plan_digest": sc.digest,
            "setup_runs_s": sc.setup_s,
            "recovery_runs_s": w.recovery_s,
            "counts": {
                "serves": len(serves),
                "saturation": len(sc.saturation),
                "deltas": len(w.deltas),
                "replans": len(w.replans),
            },
        },
    }


def run_untraced(wl, args, work) -> Dict[str, Any]:
    from workloads import Scenario

    scenario = Scenario(
        wl, args.seed, args.seconds, work, tiny=args.tiny, inject=args.inject
    ).run()
    summary = summarize(scenario)
    summary["report_metrics"] = {
        name: (summary["metrics"][name], unit)
        for name, unit in END_TO_END.items()
    }
    return summary


def run_traced(wl, args, work, spans_path) -> Dict[str, Any]:
    """Untraced and traced halves of the window; per-layer table."""
    from tracing import LAYER_METRICS, Tracer, layer_metrics
    from workloads import Scenario

    half = args.seconds / 2.0
    plain = summarize(
        Scenario(wl, args.seed, half, work, setups=1, tiny=args.tiny).run()
    )
    tracer = Tracer().install()
    try:
        scenario = Scenario(
            wl, args.seed, half, work, tracer=tracer, setups=1,
            tiny=args.tiny, inject=args.inject,
        ).run()
    finally:
        tracer.uninstall()
    summary = summarize(scenario)
    tracer.write(spans_path)
    layers = layer_metrics(tracer)
    measured = summary["measured"]
    layers.update(
        {
            "server.shed_share": measured["shed_share"],
            "server.slo_attainment": measured["slo_attainment"],
            "generator.lag_tail_ms": measured["generator_lag_tail_ms"],
            "trace.overhead_serve_p50_ms": (
                summary["metrics"]["serve_p50_ms"]
                - plain["metrics"]["serve_p50_ms"]
            ),
            "trace.overhead_setup_s": (
                summary["metrics"]["setup_s"] - plain["metrics"]["setup_s"]
            ),
        }
    )
    summary["untraced_metrics"] = plain["metrics"]
    # Both halves ran the program: their checks and counts all stand.
    for name, problems in plain["checks"].items():
        summary["checks"][name] = problems + summary["checks"][name]
    summary["attempted"] += plain["attempted"]
    summary["failed"] += plain["failed"]
    summary["report_metrics"] = {
        name: (layers[name], unit)
        for name, (unit, _better) in LAYER_METRICS.items()
    }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set and dict iteration order follows the interpreter's string-hash
    # seed, and it alone moves catalog re-materialization (and with it
    # delta acks and journal replay) between processes, so every run pins
    # it; other values measure that spread.
    parser.add_argument("--hash-seed", type=int, default=0)
    # Harness self-test knobs (selftest.py): shrink the synthetic
    # catalogs, or inject a fault the checks must catch.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--inject", action="append", default=[],
        choices=("closed-item", "lag"), help=argparse.SUPPRESS,
    )
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != str(args.hash_seed):
        os.environ["PYTHONHASHSEED"] = str(args.hash_seed)
        os.execv(sys.executable, [sys.executable, *sys.argv])

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no planning-service sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = tempfile.mkdtemp(dir=OUT, prefix="work-")
    try:
        if args.trace:
            summary = run_traced(wl, args, work, OUT / f"{stem}.spans.jsonl")
        else:
            summary = run_untraced(wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not any(summary["checks"].values())
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "hash_seed": args.hash_seed,
        "tiny": args.tiny,
        "provenance": wl.provenance(),
        **{k: v for k, v in summary.items() if k != "report_metrics"},
        "correct": correct,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2, default=str))

    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, (value, unit) in summary["report_metrics"].items():
        extra = summary["tails"].get(name)
        note = ""
        if extra:
            note = f"  (p{extra['percentile']}, n={extra['samples']})"
        print(f"  {name:34s} {value:14.4f} {unit}{note}")
    for name, value in summary["measured"].items():
        if isinstance(value, float):
            print(f"  [{name}] {value:.4f}")
    print(f"  [plan_digest] {summary['measured']['plan_digest']}")
    for name, problems in summary["checks"].items():
        status = "ok" if not problems else f"FAIL ({len(problems)})"
        print(f"  check {name}: {status}")
        for problem in problems[:5]:
            print(f"    {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in summary["report_metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
