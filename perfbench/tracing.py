"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of each layer of ``repro`` from the
outside (nothing under ``src/`` changes) and records one span per call:
name, start, end, parent span and request id.  Roots are the calls
that begin a unit of work — a plan request entering the server or the
facade, a replan, a delta, a journal recovery; every wrapped call made
on the same thread while a root is open becomes its descendant.  Calls
outside any root (policy training during set-up, for one) are not
recorded, so their cost stays out of the per-layer table.

Spans stay in memory until :meth:`Tracer.write` dumps them as JSON
lines.  :func:`layer_metrics` reduces them to the per-layer table.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from drivers import clock, median, tail

#: One finished span: (id, parent id, name, start, end, request id, info).
Span = Tuple[int, int, str, float, float, int, Any]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.queue_waits: List[float] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []
        #: id(ServeRequest) -> (request id, submit time, request); a
        #: request object keeps its id while it waits in the queue.
        self._submitted: Dict[int, Tuple[int, float, Any]] = {}
        self._submitted_lock = threading.Lock()

    # -- span recording -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        root: Optional[Callable[[tuple], int]] = None,
        info: Optional[Callable[[tuple, Any], Any]] = None,
        after: Optional[Callable[[tuple, Any, int, float], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``root(args)`` returns the request id when the call may open a
        root span; without it the call is recorded only inside a root.
        ``info(args, result)`` attaches a small payload to the span;
        ``after(args, result, rid, end)`` runs once the span closed.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, rid = stack[-1]
            elif root is None:
                return original(*args, **kwargs)
            else:
                parent, rid = 0, root(args)
            sid = next(tracer._ids)
            stack.append((sid, rid))
            result = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = info(args, result) if info and result is not None else None
                tracer.spans.append((sid, parent, name, start, end, rid, extra))
                if after is not None:
                    after(args, result, rid, end)

        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, traced)

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span (set-up steps).  It opens no root: calls
        made inside it are not recorded."""
        start = clock()
        try:
            yield
        finally:
            self.spans.append(
                (next(self._ids), 0, name, start, clock(), 0, None)
            )

    def new_rid(self, _args: tuple = ()) -> int:
        return next(self._rids)

    # -- request-id propagation across the server queue -----------------

    def _submit_rid(self, args) -> int:
        rid = self.new_rid()
        if len(args) > 1:
            with self._submitted_lock:
                self._submitted[id(args[1])] = (rid, clock(), args[1])
        return rid

    def _submit_done(self, args, future, _rid, _end) -> None:
        # A shed or rejected request never reaches the facade.
        if len(args) > 1 and (future is None or future.done()):
            with self._submitted_lock:
                entry = self._submitted.get(id(args[1]))
                if entry is not None and entry[2] is args[1]:
                    del self._submitted[id(args[1])]

    def _serve_rid(self, args) -> int:
        if len(args) > 1:
            with self._submitted_lock:
                entry = self._submitted.pop(id(args[1]), None)
            if entry is not None and entry[2] is args[1]:
                self.queue_waits.append(clock() - entry[1])
                return entry[0]
        return self.new_rid()

    # -- install / uninstall --------------------------------------------

    def install(self) -> "Tracer":
        from repro.baselines.eda import EDAPlanner
        from repro.core.deltas import CatalogView
        from repro.core.planner import RLPlanner
        from repro.core.policy import GreedyPolicy
        from repro.core.qtable import QTable, QTableBase, SparseQTable
        from repro.core.reward import RewardFunction
        from repro.core.scoring import PlanScorer
        from repro.serving import facade, server
        from repro.serving.journal import DeltaJournal
        from repro.serving.registry import CacheEntry, PolicyRegistry
        from repro.serving.repair import RepairPlanner
        from repro.serving.replan import ReplanSession

        new = self.new_rid
        w = self.wrap
        # Roots.
        w(server.PlanningServer, "submit", "server.submit",
          root=self._submit_rid, after=self._submit_done)
        w(server.PlanningServer, "apply_delta", "server.apply_delta", root=new)
        w(facade.PlanningService, "serve", "facade.serve",
          root=self._serve_rid, info=_attempts)
        w(facade.PlanningService, "attach_journal", "recovery", root=new)
        w(ReplanSession, "replan", "replan.ladder", root=new, info=_attempts)
        # Layers below the roots.
        w(server, "screen_request", "admission.screen")
        w(facade, "screen_request", "admission.screen")
        w(PolicyRegistry, "acquire", "registry.acquire")
        w(CacheEntry, "cached_plan", "registry.memo",
          info=lambda a, r: True)
        w(RLPlanner, "recommend_anytime", "planner.anytime")
        w(GreedyPolicy, "recommend", "policy.rollout",
          info=lambda a, plan: len(plan))
        w(GreedyPolicy, "complete", "policy.rollout",
          info=lambda a, plan: len(plan) - len(a[1] if len(a) > 1 else ()))
        w(RewardFunction, "mask_actions", "reward.mask")
        w(RewardFunction, "feasible_mask", "reward.feasible",
          info=lambda a, mask: (int(mask.sum()), len(mask)))
        w(RewardFunction, "batch_components", "reward.batch")
        for cls in (QTableBase, QTable, SparseQTable):
            for attr in ("best_continuation", "best_action", "best_action_idx"):
                if attr in cls.__dict__:
                    w(cls, attr, "qtable.lookup")
        w(PlanScorer, "score", "scoring.score")
        w(EDAPlanner, "recommend", "eda")
        w(EDAPlanner, "complete", "eda")
        w(RepairPlanner, "recommend", "repair")
        w(CatalogView, "apply", "deltas.apply")
        w(CatalogView, "restore", "deltas.restore")
        w(DeltaJournal, "append", "journal.append")
        w(DeltaJournal, "write_snapshot", "journal.snapshot")
        w(DeltaJournal, "replay", "journal.replay")
        w(ReplanSession, "ingest", "replan.ingest")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as out:
            for sid, parent, name, start, end, rid, extra in self.spans:
                record = {
                    "id": sid, "parent": parent, "name": name,
                    "start_us": round(1e6 * (start - origin), 1),
                    "end_us": round(1e6 * (end - origin), 1),
                    "request": rid,
                }
                if extra is not None:
                    record["info"] = extra
                out.write(json.dumps(record) + "\n")


def _attempts(_args, result) -> Dict[str, Any]:
    return {
        "outcome": result.outcome,
        "attempts": [(a.rung, a.outcome) for a in result.attempts],
    }


def self_times(spans: Iterable[Span], name: str) -> List[float]:
    """Self time of every ``name`` span: its duration minus the part of
    that interval its child spans cover."""
    spans = list(spans)
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append((span[3], span[4]))
    out = []
    for sid, _parent, span_name, start, end, _rid, _ in spans:
        if span_name != name:
            continue
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


#: Per-layer metrics: name -> (unit, better).  Durations are medians.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "server.submit_us": ("us", "lower"),
    "server.queue_wait_p50_ms": ("ms", "lower"),
    "server.queue_wait_tail_ms": ("ms", "lower"),
    "server.shed_share": ("ratio", "lower"),
    "server.slo_attainment": ("ratio", "higher"),
    "admission.screen_us": ("us", "lower"),
    "admission.screens_per_request": ("count", "lower"),
    "registry.acquire_us": ("us", "lower"),
    "registry.memo_hit_ratio": ("ratio", "higher"),
    "registry.memo_probes": ("count", "lower"),
    "facade.serve_ms": ("ms", "lower"),
    "facade.self_ms": ("ms", "lower"),
    "facade.rung_attempts_per_request": ("count", "lower"),
    "facade.rung_yield": ("ratio", "higher"),
    "planner.anytime_ms": ("ms", "lower"),
    "planner.rollouts_per_call": ("count", "lower"),
    "policy.rollout_ms": ("ms", "lower"),
    "policy.steps_per_rollout": ("count", "lower"),
    "reward.mask_ms": ("ms", "lower"),
    "reward.feasible_ms": ("ms", "lower"),
    "reward.batch_ms": ("ms", "lower"),
    "reward.mask_calls_per_request": ("count", "lower"),
    "reward.feasible_ratio": ("ratio", "higher"),
    "qtable.lookup_ms": ("ms", "lower"),
    "scoring.score_us": ("us", "lower"),
    "scoring.calls_per_request": ("count", "lower"),
    "eda.ms": ("ms", "lower"),
    "eda.reach_share": ("ratio", "lower"),
    "eda.valid_ratio": ("ratio", "higher"),
    "repair.ms": ("ms", "lower"),
    "repair.reach_share": ("ratio", "lower"),
    "repair.valid_ratio": ("ratio", "higher"),
    "deltas.apply_ms": ("ms", "lower"),
    "deltas.applies_per_delta": ("count", "lower"),
    "deltas.restore_ms": ("ms", "lower"),
    "journal.append_ms": ("ms", "lower"),
    "journal.append_tail_ms": ("ms", "lower"),
    "journal.snapshot_ms": ("ms", "lower"),
    "journal.replay_ms": ("ms", "lower"),
    "replan.ingest_us": ("us", "lower"),
    "replan.ladder_ms": ("ms", "lower"),
    "replan.per_delta": ("ratio", "lower"),
    "replan.ok_ratio": ("ratio", "higher"),
    "setup.generate_s": ("s", "lower"),
    "setup.audit_s": ("s", "lower"),
    "setup.fit_s": ("s", "lower"),
    "generator.lag_tail_ms": ("ms", "lower"),
    "trace.overhead_serve_p50_ms": ("ms", "lower"),
    "trace.overhead_setup_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Reduce the recorded spans to the per-layer table (traced values
    only; the driver-side entries are filled in by the caller)."""
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in tracer.spans:
        by_name[span[2]].append(span)

    def durations(name: str, scale: float) -> List[float]:
        return [scale * (s[4] - s[3]) for s in by_name[name]]

    def p50(name: str, scale: float) -> float:
        return median(durations(name, scale))

    serves = by_name["facade.serve"]
    replans = by_name["replan.ladder"]
    ladders = [s[6] for s in serves + replans if s[6] is not None]
    attempts = [a for ladder in ladders for a in ladder["attempts"]]
    requests = len(serves) + len(replans)

    def rung(name: str) -> Tuple[float, float]:
        reached = sum(any(a[0] == name for a in l["attempts"]) for l in ladders)
        tries = [a for a in attempts if a[0] == name]
        valid = sum(a[1] == "ok" for a in tries)
        return _ratio(reached, len(ladders)), _ratio(valid, len(tries))

    anytime_ids = {s[0] for s in by_name["planner.anytime"]}
    rollouts = by_name["policy.rollout"]
    feasible = [s[6] for s in by_name["reward.feasible"] if s[6]]
    memo = by_name["registry.memo"]
    deltas = by_name["server.apply_delta"]
    # The service's fold and every session's ingest, under one delta.
    delta_rids = {s[5] for s in deltas}
    applies = [s for s in by_name["deltas.apply"] if s[5] in delta_rids]
    eda_reach, eda_valid = rung("eda")
    repair_reach, repair_valid = rung("repair")
    setup = lambda name: p50(name, 1.0)  # noqa: E731
    return {
        "server.submit_us": p50("server.submit", 1e6),
        "server.queue_wait_p50_ms": 1e3 * median(tracer.queue_waits),
        "server.queue_wait_tail_ms": 1e3 * tail(tracer.queue_waits)[0],
        "admission.screen_us": p50("admission.screen", 1e6),
        "admission.screens_per_request": _ratio(
            len(by_name["admission.screen"]), len(serves)
        ),
        "registry.acquire_us": p50("registry.acquire", 1e6),
        "registry.memo_hit_ratio": _ratio(
            sum(s[6] is not None for s in memo), len(memo)
        ),
        "registry.memo_probes": float(len(memo)),
        "facade.serve_ms": p50("facade.serve", 1e3),
        "facade.self_ms": 1e3 * median(
            self_times(tracer.spans, "facade.serve")
        ),
        "facade.rung_attempts_per_request": _ratio(len(attempts), len(ladders)),
        "facade.rung_yield": _ratio(
            sum(a[1] == "ok" for a in attempts), len(attempts)
        ),
        "planner.anytime_ms": p50("planner.anytime", 1e3),
        "planner.rollouts_per_call": _ratio(
            sum(s[1] in anytime_ids for s in rollouts), len(anytime_ids)
        ),
        "policy.rollout_ms": p50("policy.rollout", 1e3),
        "policy.steps_per_rollout": _ratio(
            sum(s[6] or 0 for s in rollouts), len(rollouts)
        ),
        "reward.mask_ms": p50("reward.mask", 1e3),
        "reward.feasible_ms": p50("reward.feasible", 1e3),
        "reward.batch_ms": p50("reward.batch", 1e3),
        "reward.mask_calls_per_request": _ratio(
            len(by_name["reward.mask"]), requests
        ),
        "reward.feasible_ratio": _ratio(
            sum(f[0] for f in feasible), sum(f[1] for f in feasible)
        ),
        "qtable.lookup_ms": p50("qtable.lookup", 1e3),
        "scoring.score_us": p50("scoring.score", 1e6),
        "scoring.calls_per_request": _ratio(
            len(by_name["scoring.score"]), requests
        ),
        "eda.ms": p50("eda", 1e3),
        "eda.reach_share": eda_reach,
        "eda.valid_ratio": eda_valid,
        "repair.ms": p50("repair", 1e3),
        "repair.reach_share": repair_reach,
        "repair.valid_ratio": repair_valid,
        "deltas.apply_ms": p50("deltas.apply", 1e3),
        "deltas.applies_per_delta": _ratio(len(applies), len(deltas)),
        "deltas.restore_ms": p50("deltas.restore", 1e3),
        "journal.append_ms": p50("journal.append", 1e3),
        "journal.append_tail_ms": tail(durations("journal.append", 1e3))[0],
        "journal.snapshot_ms": p50("journal.snapshot", 1e3),
        "journal.replay_ms": p50("journal.replay", 1e3),
        "replan.ingest_us": p50("replan.ingest", 1e6),
        "replan.ladder_ms": p50("replan.ladder", 1e3),
        "replan.per_delta": _ratio(len(replans), len(deltas)),
        "replan.ok_ratio": _ratio(
            sum(
                s[6] is not None and s[6]["outcome"] in ("ok", "degraded", "noop")
                for s in replans
            ),
            len(replans),
        ),
        "setup.generate_s": setup("setup.generate"),
        "setup.audit_s": setup("setup.audit"),
        "setup.fit_s": setup("setup.fit"),
    }
