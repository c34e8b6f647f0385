"""Mid-plan replanning under availability churn.

A :class:`ReplanSession` holds a partially-executed plan (the first
``executed`` slots are committed history), ingests a stream of
:class:`~repro.core.deltas.CatalogDelta` / ``ConstraintDelta`` events,
classifies each one, and — when asked — replans *only the suffix* under
a :class:`~repro.serving.deadline.Deadline`, reusing the serving
degradation ladder:

1. **sarsa** — :meth:`RLPlanner.complete_plan` extends the committed
   prefix through the trained Q-table, restricted to the live item set
   (no retrain needed for suffix-only churn).  The prefix-loaded
   :class:`~repro.core.plan.PlanBuilder` replays its
   :class:`~repro.core.similarity.IncrementalSimilarity` state once and
   keeps it in sync, so reward evaluations never rescan the prefix.
2. **eda** — greedy :meth:`EDAPlanner.complete` over the live catalog,
   under the same grace budget the serving facade grants.
3. **repair** — :class:`RepairPlanner` with the prefix *pinned*
   (bounded-latency, feasibility-only).  When the deadline is already
   tight the ladder skips straight here.

Delta classification
--------------------
benign
    The current plan remains valid as-is (closure of an unplanned item,
    any reopen, a credit/constraint move the plan still satisfies).
suffix_only
    Only slots ``>= executed`` must change (closure of a suffix item, a
    credit/budget move the suffix can absorb).
prefix_invalidating
    Committed history itself is now illegal (a prefix item closed, or
    the prefix alone exceeds a tightened trip budget).  The session
    cannot repair this by replanning — history is immutable — so it
    reports ``invalidated`` instead of serving a rewritten past.

Every ingest and replan appends to a deterministic decision log (no
wall-clock values), so replaying the same seeded churn schedule yields
byte-identical logs (:meth:`ReplanSession.log_json`).
"""

from __future__ import annotations

import dataclasses
import json
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..baselines.eda import EDAPlanner
from ..core.catalog import Catalog
from ..core.constraints import TaskSpec
from ..core.deltas import (
    DELTA_CLOSE,
    DELTA_REOPEN,
    CatalogView,
    ConstraintDelta,
    Delta,
    LiveState,
)
from ..core.env import DomainMode
from ..core.exceptions import PlanningError
from ..core.items import Item
from ..core.plan import Plan
from ..core.scoring import PlanScore, PlanScorer
from ..obs import get_registry, labelled
from .deadline import Deadline

#: Delta classifications.
CLASS_BENIGN = "benign"
CLASS_SUFFIX_ONLY = "suffix_only"
CLASS_PREFIX_INVALIDATING = "prefix_invalidating"

#: Replan outcomes.
REPLAN_OK = "ok"
REPLAN_DEGRADED = "degraded"
REPLAN_NOOP = "noop"
REPLAN_INVALIDATED = "invalidated"
REPLAN_FAILED = "failed"
REPLAN_DRAINING = "draining"
REPLAN_SHED = "shed"

#: Ladder rungs (mirror the facade's names so dashboards line up).
RUNG_SARSA = "sarsa"
RUNG_EDA = "eda"
RUNG_REPAIR = "repair"

REPLAN_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 60.0,
)
SUFFIX_LENGTH_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0,
)

_CLASS_SEVERITY = {
    CLASS_BENIGN: 0,
    CLASS_SUFFIX_ONLY: 1,
    CLASS_PREFIX_INVALIDATING: 2,
}


@dataclass(frozen=True)
class AppliedDelta:
    """Provenance record of one delta folded into a session."""

    seq: int
    kind: str
    classification: str
    item_id: Optional[str] = None
    value: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "seq": self.seq,
            "kind": self.kind,
            "classification": self.classification,
        }
        if self.item_id is not None:
            out["item"] = self.item_id
        if self.value is not None:
            out["value"] = self.value
        return out


@dataclass(frozen=True)
class ReplanAttempt:
    """What one ladder rung did during a replan."""

    rung: str
    outcome: str  # ok | invalid | timeout | error | skipped
    error: Optional[str] = None


@dataclass(frozen=True)
class ReplanResult:
    """The replan envelope: new plan (if any) + full delta provenance."""

    outcome: str
    plan: Optional[Plan] = None
    score: Optional[PlanScore] = None
    rung: Optional[str] = None
    trigger: str = "manual"
    suffix_start: int = 0
    deadline_s: Optional[float] = None
    deadline_spent: float = 0.0
    deadline_exceeded: bool = False
    attempts: Tuple[ReplanAttempt, ...] = ()
    #: The deltas this replan was answering (unresolved at call time).
    deltas: Tuple[AppliedDelta, ...] = ()
    session_id: str = ""

    @property
    def ok(self) -> bool:
        """True when a hard-constraint-valid plan is attached."""
        return (
            self.outcome in (REPLAN_OK, REPLAN_DEGRADED, REPLAN_NOOP)
            and self.score is not None
            and self.score.is_valid
        )

    def describe(self) -> str:
        lines = [f"outcome  : {self.outcome} (trigger {self.trigger})"]
        if self.rung is not None:
            lines.append(f"rung     : {self.rung}")
        if self.plan is not None:
            lines.append(f"plan     : {self.plan.describe()}")
            lines.append(f"suffix   : from slot {self.suffix_start}")
        if self.deltas:
            lines.append(
                "deltas   : "
                + ", ".join(
                    f"{d.kind}:{d.item_id or d.value}[{d.classification}]"
                    for d in self.deltas
                )
            )
        for attempt in self.attempts:
            detail = f" ({attempt.error})" if attempt.error else ""
            lines.append(f"  {attempt.rung}: {attempt.outcome}{detail}")
        return "\n".join(lines)


@dataclass
class _SessionState:
    """Mutable session fields guarded by the session lock."""

    plan: Plan
    executed: int
    task: TaskSpec
    seq: int = 0
    unresolved: List[AppliedDelta] = field(default_factory=list)
    log: List[Dict[str, object]] = field(default_factory=list)
    drained: bool = False


class ReplanSession:
    """One partially-executed plan surviving a changing world.

    Parameters
    ----------
    service:
        The owning :class:`~repro.serving.facade.PlanningService`
        (supplies the trained planner, config, mode, and clock).
    plan:
        The currently-adopted plan.
    executed:
        How many leading slots are committed history (immutable).
    session_id:
        Display/routing id assigned by the server.
    repair_only_below_s:
        When the replan deadline's remaining budget is at or below this,
        skip the learned rungs and go straight to bounded repair.
    """

    def __init__(
        self,
        service,
        plan: Plan,
        executed: int = 0,
        session_id: str = "",
        repair_only_below_s: float = 0.01,
    ) -> None:
        if not 0 <= executed <= len(plan):
            raise PlanningError(
                f"executed={executed} out of range for a "
                f"{len(plan)}-item plan"
            )
        self.service = service
        self.session_id = session_id
        self.repair_only_below_s = repair_only_below_s
        # The view must be based on the *pristine* base catalog with the
        # service's current churn state replayed in (fork_view) — basing
        # it on the pruned live catalog would make a later ``reopen`` of
        # an already-closed item unresolvable ("unknown to base").
        fork = getattr(service, "fork_view", None)
        self.view = (
            fork() if callable(fork) else CatalogView(service.live_catalog)
        )
        self._state = _SessionState(
            plan=plan, executed=executed, task=service.task
        )
        self._lock = threading.RLock()
        self.last_result: Optional[ReplanResult] = None
        # Per-(catalog version, task) EDA/repair rungs and per-task
        # scorer, rebuilt only when the view or the task moves.
        self._rungs: Dict[str, Tuple[int, TaskSpec, object]] = {}
        self._scorer: Optional[PlanScorer] = None

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    @property
    def plan(self) -> Plan:
        return self._state.plan

    @property
    def executed(self) -> int:
        return self._state.executed

    @property
    def task(self) -> TaskSpec:
        return self._state.task

    @property
    def drained(self) -> bool:
        return self._state.drained

    @property
    def pending_deltas(self) -> int:
        """Deltas ingested but not yet incorporated into the plan."""
        return len(self._state.unresolved)

    @property
    def committed(self) -> Tuple[Item, ...]:
        """The immutable prefix, re-costed through live credit overrides.

        History keeps its items even when they have since closed — only
        their *credits* track the live world (a price change applies to
        a booked-but-unpaid visit; a closure does not unbook it).
        """
        prefix = self._state.plan.items[: self._state.executed]
        return tuple(self.view.resolve(item) for item in prefix)

    def advance(self, steps: int = 1) -> int:
        """Mark ``steps`` more slots as executed; returns the new count."""
        with self._lock:
            new = self._state.executed + steps
            if not 0 <= new <= len(self._state.plan):
                raise PlanningError(
                    f"cannot advance to {new} of a "
                    f"{len(self._state.plan)}-item plan"
                )
            self._state.executed = new
            return new

    def prefix_valid(self) -> bool:
        """Is the committed history still legal in the live world?

        False when a prefix item has closed, or (trip mode) the
        re-costed prefix alone exceeds the budget.  Recomputed from the
        view, so a ``reopen`` heals a previously invalidated session.
        """
        state = self.view.state
        prefix = self.committed
        if any(state.is_closed(item.item_id) for item in prefix):
            return False
        if self.service.mode is DomainMode.TRIP:
            budget = self._state.task.hard.min_credits
            if sum(i.credits for i in prefix) > budget + 1e-9:
                return False
        return True

    def decision_log(self) -> Tuple[Dict[str, object], ...]:
        """The deterministic decision log (no wall-clock values)."""
        with self._lock:
            return tuple(dict(entry) for entry in self._state.log)

    def log_json(self) -> str:
        """Canonical JSON of the decision log — byte-identical across
        replays of the same seeded schedule."""
        return json.dumps(
            list(self.decision_log()),
            sort_keys=True,
            separators=(",", ":"),
        )

    # ------------------------------------------------------------------
    # Delta ingestion
    # ------------------------------------------------------------------

    def ingest(self, delta: Delta) -> str:
        """Fold one delta into the session; returns its classification."""
        with self._lock:
            if self._state.drained:
                raise PlanningError(
                    f"session {self.session_id or '?'} is drained"
                )
            classification = self._classify(delta)
            if isinstance(delta, ConstraintDelta):
                hard = dataclasses.replace(
                    self._state.task.hard, min_credits=delta.value
                )
                self._state.task = dataclasses.replace(
                    self._state.task, hard=hard
                )
                record = AppliedDelta(
                    seq=self._next_seq(),
                    kind=delta.kind,
                    classification=classification,
                    value=delta.value,
                )
            else:
                self.view.apply(delta)
                record = AppliedDelta(
                    seq=self._next_seq(),
                    kind=delta.kind,
                    classification=classification,
                    item_id=delta.item_id,
                )
            if classification is not CLASS_BENIGN:
                self._state.unresolved.append(record)
            entry: Dict[str, object] = {
                "event": "delta",
                "seq": record.seq,
                "kind": record.kind,
                "classification": classification,
            }
            if delta.seq != 0:
                # Provenance for cross-restart correlation: the wire /
                # journal sequence number this event carried (the
                # session's own seq restarts at 1 per session, the
                # journal watermark does not).  Seeded churn schedules
                # stamp identical seqs on replay, so decision logs stay
                # byte-identical.
                entry["wire_seq"] = delta.seq
            if record.item_id is not None:
                entry["item"] = record.item_id
            if record.value is not None:
                entry["value"] = record.value
            self._state.log.append(entry)
        obs = get_registry()
        obs.inc(labelled("deltas_applied_total", kind=delta.kind))
        return classification

    def _next_seq(self) -> int:
        self._state.seq += 1
        return self._state.seq

    def _classify(self, delta: Delta) -> str:
        """Classify against the *current* plan/prefix (see module doc)."""
        state = self._state
        trip = self.service.mode is DomainMode.TRIP
        prefix = state.plan.items[: state.executed]
        suffix = state.plan.items[state.executed:]
        prefix_ids = {item.item_id for item in prefix}
        suffix_ids = {item.item_id for item in suffix}

        def credits_of(item: Item, override: Optional[float] = None) -> float:
            if override is not None and item.item_id == override_id:
                return override
            return self.view.resolve(item).credits

        override_id = None
        if isinstance(delta, ConstraintDelta):
            plan_total = sum(credits_of(i) for i in state.plan.items)
            if trip:
                prefix_total = sum(credits_of(i) for i in prefix)
                if prefix_total > delta.value + 1e-9:
                    return CLASS_PREFIX_INVALIDATING
                if plan_total <= delta.value + 1e-9:
                    return CLASS_BENIGN
                return CLASS_SUFFIX_ONLY
            if plan_total >= delta.value - 1e-9:
                return CLASS_BENIGN
            return CLASS_SUFFIX_ONLY

        if delta.kind == DELTA_REOPEN:
            return CLASS_BENIGN
        if delta.kind == DELTA_CLOSE:
            if delta.item_id in prefix_ids:
                return CLASS_PREFIX_INVALIDATING
            if delta.item_id in suffix_ids:
                return CLASS_SUFFIX_ONLY
            return CLASS_BENIGN
        # credit_change: judge by what the re-costed plan looks like.
        if delta.item_id not in prefix_ids and delta.item_id not in suffix_ids:
            return CLASS_BENIGN
        override_id = delta.item_id
        assert delta.credits is not None
        plan_total = sum(
            credits_of(i, override=delta.credits) for i in state.plan.items
        )
        budget = state.task.hard.min_credits
        if trip:
            prefix_total = sum(
                credits_of(i, override=delta.credits) for i in prefix
            )
            if prefix_total > budget + 1e-9:
                return CLASS_PREFIX_INVALIDATING
            if plan_total <= budget + 1e-9:
                return CLASS_BENIGN
            return CLASS_SUFFIX_ONLY
        if plan_total >= budget - 1e-9:
            return CLASS_BENIGN
        return CLASS_SUFFIX_ONLY

    # ------------------------------------------------------------------
    # Replanning
    # ------------------------------------------------------------------

    def replan(
        self,
        deadline_s: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        trigger: Optional[str] = None,
    ) -> ReplanResult:
        """Replan the suffix under a deadline; returns the envelope.

        Never raises for request-level problems — the envelope carries
        the outcome.  On ``ok``/``degraded`` the session adopts the new
        plan; on ``noop`` nothing needed to change; on ``invalidated``
        the committed history itself is illegal and the caller must
        decide (history is never rewritten); on ``failed`` no valid
        completion was found and the previous plan stays adopted.
        """
        obs = get_registry()
        if deadline is None:
            deadline = Deadline(deadline_s, clock=self.service.clock)
        with self._lock:
            state = self._state
            pending = tuple(state.unresolved)
            if trigger is None:
                trigger = self._dominant_trigger(pending)
            with obs.span("replan"):
                result = self._replan_locked(
                    deadline, deadline_s, trigger, pending
                )
            self.last_result = result
        obs.inc(
            labelled(
                "replan_requests_total",
                trigger=trigger,
                outcome=result.outcome,
            )
        )
        obs.histogram(
            "replan_latency_seconds", REPLAN_LATENCY_BUCKETS
        ).observe(result.deadline_spent)
        obs.histogram(
            "replan_suffix_length", SUFFIX_LENGTH_BUCKETS
        ).observe(float(len(self._state.plan) - self._state.executed))
        return result

    def _dominant_trigger(self, pending: Tuple[AppliedDelta, ...]) -> str:
        if not pending:
            return "manual"
        return max(
            (d.classification for d in pending),
            key=lambda c: _CLASS_SEVERITY[c],
        )

    def _replan_locked(
        self,
        deadline: Deadline,
        deadline_s: Optional[float],
        trigger: str,
        pending: Tuple[AppliedDelta, ...],
    ) -> ReplanResult:
        state = self._state
        if state.drained:
            return self._finish(
                REPLAN_DRAINING, None, None, None, trigger, pending,
                deadline, deadline_s, (),
            )
        if not self.prefix_valid():
            return self._finish(
                REPLAN_INVALIDATED, None, None, None, trigger, pending,
                deadline, deadline_s, (),
            )
        if not pending:
            score = self._plan_scorer().score(state.plan)
            return self._finish(
                REPLAN_NOOP, state.plan, score, None, trigger, pending,
                deadline, deadline_s, (),
            )
        attempts: List[ReplanAttempt] = []
        best = self._plan_suffix(deadline, attempts)
        if best is None or not best[1].is_valid:
            outcome = REPLAN_FAILED
            plan = best[0] if best else None
            score = best[1] if best else None
            rung = best[2] if best else None
        else:
            plan, score, rung = best
            degraded = rung != RUNG_SARSA or deadline.expired
            outcome = REPLAN_DEGRADED if degraded else REPLAN_OK
        return self._finish(
            outcome, plan, score, rung, trigger, pending,
            deadline, deadline_s, tuple(attempts),
        )

    def _plan_suffix(
        self,
        deadline: Deadline,
        attempts: List[ReplanAttempt],
    ) -> Optional[Tuple[Plan, PlanScore, str]]:
        """Run the sarsa→eda→repair ladder over the suffix only."""
        state = self._state
        live = self.view.state
        prefix = self.committed
        horizon = state.task.hard.plan_length
        scorer = self._plan_scorer()
        tight = (
            deadline.seconds is not None
            and deadline.remaining() <= self.repair_only_below_s
        )
        rungs: Tuple[str, ...] = (
            (RUNG_REPAIR,) if tight else (RUNG_SARSA, RUNG_EDA, RUNG_REPAIR)
        )
        best: Optional[Tuple[Plan, PlanScore, str]] = None
        best_key = None
        for rung in rungs:
            try:
                plan = self._run_rung(
                    rung, prefix, live, horizon, deadline, scorer
                )
            except Exception as exc:  # noqa: BLE001 - rung isolation
                attempts.append(
                    ReplanAttempt(
                        rung, "error", f"{type(exc).__name__}: {exc}"
                    )
                )
                continue
            if plan is None:
                attempts.append(
                    ReplanAttempt(rung, "timeout", "deadline expired")
                )
                continue
            score = scorer.score(plan)
            if score.is_valid:
                attempts.append(ReplanAttempt(rung, "ok"))
                return plan, score, rung
            attempts.append(
                ReplanAttempt(rung, "invalid", score.report.describe())
            )
            key = (score.is_valid, score.value, score.raw_value)
            if best_key is None or key > best_key:
                best_key = key
                best = (plan, score, rung)
        return best

    def _plan_scorer(self) -> PlanScorer:
        """The scorer for the session's current task (rebuilt when a
        constraint delta retargets it)."""
        scorer = self._scorer
        if scorer is None or scorer.task is not self._state.task:
            scorer = self._scorer = PlanScorer(
                self._state.task, mode=self.service.mode
            )
        return scorer

    def _rung_planner(self, rung: str, live: LiveState):
        """This session's EDA or repair planner for ``live``'s version and
        the current task; the only replan code that materializes the
        live catalog."""
        task = self._state.task
        cached = self._rungs.get(rung)
        if (
            cached is not None
            and cached[0] == live.version
            and cached[1] is task
        ):
            return cached[2]
        service = self.service
        if rung == RUNG_EDA:
            planner = EDAPlanner(
                live.catalog, task, config=service.config,
                mode=service.mode, seed=service.config.seed,
            )
        else:
            from .repair import RepairPlanner

            planner = RepairPlanner(
                live.catalog, task, mode=service.mode,
                max_expansions=service.repair_max_expansions,
            )
        self._rungs[rung] = (live.version, task, planner)
        return planner

    def _run_rung(
        self,
        rung: str,
        prefix: Tuple[Item, ...],
        live: LiveState,
        horizon: int,
        deadline: Deadline,
        scorer: PlanScorer,
    ) -> Optional[Plan]:
        service = self.service
        if rung == RUNG_SARSA:
            planner = service.planner
            if not planner.is_fitted or planner.qtable.update_count == 0:
                raise PlanningError("policy rung has no trained Q-table")
            allowed = live.mask_over(planner.qtable.catalog)
            if prefix:
                plan, _score, _ = planner.complete_plan(
                    prefix,
                    horizon=horizon,
                    should_stop=deadline.should_stop,
                    allowed_item_ids=allowed,
                    scorer=scorer,
                )
            else:
                plan, _score, _ = planner.recommend_anytime(
                    horizon=horizon,
                    should_stop=deadline.should_stop,
                    stop_when_valid=True,
                    allowed_item_ids=allowed,
                )
            return plan
        if rung == RUNG_EDA:
            grace = Deadline(
                max(deadline.remaining(), service.eda_grace_s),
                clock=service.clock,
            )
            eda = self._rung_planner(RUNG_EDA, live)
            if prefix:
                plan = eda.complete(
                    prefix, horizon=horizon, should_stop=grace.should_stop
                )
            else:
                plan = eda.recommend(
                    self._live_start(live.catalog), horizon=horizon,
                    should_stop=grace.should_stop,
                )
            if grace.expired and len(plan) < horizon:
                return None
            return plan
        repair = self._rung_planner(RUNG_REPAIR, live)
        if prefix:
            return repair.recommend(pinned=prefix)
        return repair.recommend()

    @staticmethod
    def _live_start(live: Catalog) -> str:
        for item in live.primaries():
            if item.prerequisites.is_empty:
                return item.item_id
        return live.items[0].item_id

    def _finish(
        self,
        outcome: str,
        plan: Optional[Plan],
        score: Optional[PlanScore],
        rung: Optional[str],
        trigger: str,
        pending: Tuple[AppliedDelta, ...],
        deadline: Deadline,
        deadline_s: Optional[float],
        attempts: Tuple[ReplanAttempt, ...],
    ) -> ReplanResult:
        state = self._state
        if outcome in (REPLAN_OK, REPLAN_DEGRADED):
            assert plan is not None
            state.plan = plan
            state.unresolved.clear()
        elif outcome == REPLAN_NOOP:
            state.unresolved.clear()
        entry: Dict[str, object] = {
            "event": "replan",
            "seq": self._next_seq(),
            "trigger": trigger,
            "outcome": outcome,
            "suffix_start": state.executed,
        }
        if rung is not None:
            entry["rung"] = rung
        if plan is not None:
            entry["plan"] = list(plan.item_ids)
        state.log.append(entry)
        return ReplanResult(
            outcome=outcome,
            plan=plan,
            score=score,
            rung=rung,
            trigger=trigger,
            suffix_start=state.executed,
            deadline_s=(
                deadline_s if deadline_s is not None else deadline.seconds
            ),
            deadline_spent=deadline.elapsed(),
            deadline_exceeded=deadline.expired,
            attempts=attempts,
            deltas=pending,
            session_id=self.session_id,
        )

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------

    def quiesce(
        self, grace_s: float = 0.0
    ) -> ReplanResult:
        """Finish-or-shed at server drain time.

        With a positive grace budget and pending deltas, runs one final
        bounded replan ("finish"); otherwise — or when that replan fails
        — sheds with a typed ``draining`` envelope.  Either way the
        session is marked drained and rejects further ingests.
        """
        with self._lock:
            state = self._state
            if state.drained:
                return self.last_result or self._shed_draining()
            result: Optional[ReplanResult] = None
            if state.unresolved and grace_s > 0:
                try:
                    result = self.replan(
                        deadline_s=grace_s, trigger="drain"
                    )
                except Exception:  # noqa: BLE001 - drain must not raise
                    result = None
                if result is not None and result.outcome in (
                    REPLAN_FAILED,
                ):
                    result = None
            if result is None:
                result = self._shed_draining()
            state.drained = True
            self.last_result = result
            return result

    def _shed_draining(self) -> ReplanResult:
        state = self._state
        pending = tuple(state.unresolved)
        state.log.append(
            {
                "event": "drained",
                "seq": self._next_seq(),
                "pending": len(pending),
            }
        )
        return ReplanResult(
            outcome=REPLAN_DRAINING,
            trigger=self._dominant_trigger(pending) if pending else "drain",
            suffix_start=state.executed,
            deltas=pending,
            session_id=self.session_id,
        )
