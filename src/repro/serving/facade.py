"""The resilient serving facade: admission → plan → validate → envelope.

:class:`PlanningService` fronts the existing planners with the three
mechanisms a production planning service needs:

1. **Admission control** — the catalog is audited once at construction
   (strict by default, quarantine-and-continue on request) and every
   request passes the fast structural screens, so malformed catalogs and
   provably unsatisfiable tasks are rejected with a typed report instead
   of burning the deadline on a doomed search.
2. **Deadline-aware anytime planning** — ``serve`` drives the policy
   rung through :meth:`RLPlanner.recommend_anytime` under a monotonic
   :class:`~repro.serving.deadline.Deadline`; the rung keeps the best
   valid plan found so far and a timeout returns that snapshot (or falls
   through) instead of hanging.
3. **Degradation ladder + circuit breakers** — trained SARSA policy →
   EDA greedy → feasibility-only constructive repair, each rung guarded
   by a :class:`~repro.serving.breaker.CircuitBreaker` that trips after
   ``k`` consecutive failures/timeouts and recovers after a cool-down.
   The two fallback rungs run even when the deadline is already spent:
   they are fast by construction, and returning a slightly-late valid
   plan beats returning nothing (the envelope discloses the overrun).

Every response is a :class:`ServeResult` envelope carrying the rung
used, the deadline spent, the admission findings, the per-rung attempt
log, and the validation report — the caller never has to guess what the
service did on its behalf.
"""

from __future__ import annotations

import dataclasses
import logging
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..baselines.eda import EDAPlanner
from ..core.catalog import Catalog, SubsetFinding
from ..core.config import PlannerConfig
from ..core.constraints import TaskSpec
from ..core.deltas import CatalogDelta, CatalogView
from ..core.env import DomainMode
from ..core.exceptions import (
    ArtifactError,
    DeltaError,
    NonRetriableError,
    UntrainedPolicyError,
)
from ..core.plan import Plan
from ..core.planner import RLPlanner
from ..core.scoring import PlanScore
from ..obs import get_registry, labelled
from .admission import AdmissionReport, audit_catalog, screen_request
from .breaker import CircuitBreaker
from .deadline import Deadline
from .fingerprint import short_key
from .journal import DeltaJournal, record_checksum
from .registry import CacheEntry, PolicyRegistry
from .repair import RepairPlanner

logger = logging.getLogger(__name__)

RUNG_SARSA = "sarsa"
RUNG_EDA = "eda"
RUNG_REPAIR = "repair"

#: Ladder order, top rung first.  Also the fault-injection task indices
#: (``slow@0`` stalls the policy rung, ``error@1`` breaks EDA, ...).
RUNGS: Tuple[str, ...] = (RUNG_SARSA, RUNG_EDA, RUNG_REPAIR)

#: Deadline-remaining histogram buckets: sub-millisecond to a minute.
DEADLINE_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 60.0,
)

OUTCOME_OK = "ok"
OUTCOME_DEGRADED = "degraded"
OUTCOME_REJECTED = "rejected"
OUTCOME_FAILED = "failed"

#: How many recent (seq -> record checksum) pairs the facade retains to
#: verify that a duplicate-seq delta actually matches the record it was
#: journaled as.  Older seqs (evicted, or compacted into a snapshot)
#: still dedupe by watermark alone.
DEDUPE_VERIFY_WINDOW = 4096


@dataclass
class _ServeContext:
    """Per-request mutable scratch, threaded through one ``serve`` call.

    Provenance that earlier versions parked on ``self`` (and that two
    concurrent requests would therefore cross-contaminate) lives here:
    each request owns its context for the duration of ``_serve_inner``
    and the envelope reads it back at the end.
    """

    policy: Optional[str] = None
    plan_cache_hit: bool = False


@dataclass(frozen=True)
class ServeRequest:
    """One planning request.

    Attributes
    ----------
    start_item_id:
        Pinned opening item; ``None`` lets the service pick among the
        natural openers (prerequisite-free primaries).
    deadline_s:
        Wall-clock budget for the request (monotonic); ``None`` is
        unbounded.
    horizon:
        Optional plan-length override passed to the policy/EDA rungs.
    """

    start_item_id: Optional[str] = None
    deadline_s: Optional[float] = None
    horizon: Optional[int] = None


@dataclass(frozen=True)
class RungAttempt:
    """What one rung of the ladder did for one request."""

    rung: str
    outcome: str  # ok | invalid | timeout | error | skipped_open
    seconds: float = 0.0
    error: Optional[str] = None

    def __str__(self) -> str:  # pragma: no cover - display helper
        detail = f" ({self.error})" if self.error else ""
        return f"{self.rung}: {self.outcome} in {self.seconds:.3f}s{detail}"


@dataclass(frozen=True)
class ServeResult:
    """The response envelope: plan + full provenance.

    ``outcome`` is ``ok`` (top rung, valid, in budget), ``degraded``
    (valid plan via a lower rung, over budget, or an invalid best-effort
    plan explicitly marked as such), ``rejected`` (admission refused the
    request), or ``failed`` (no rung produced any plan).
    """

    outcome: str
    plan: Optional[Plan] = None
    score: Optional[PlanScore] = None
    rung: Optional[str] = None
    degraded: bool = False
    deadline_s: Optional[float] = None
    deadline_spent: float = 0.0
    deadline_exceeded: bool = False
    admission: Optional[AdmissionReport] = None
    attempts: Tuple[RungAttempt, ...] = ()
    #: Provenance of the policy that answered (``<short_key>@v<N>``)
    #: when the request was served through a registry; ``None`` for the
    #: classic fit-and-serve path.
    policy: Optional[str] = None
    #: True when the response came from the per-policy-version plan
    #: memo — no traversal ran at all.
    plan_cache_hit: bool = False
    #: Delta provenance: how many availability deltas the live catalog
    #: had absorbed when this request was served (0 = pristine base).
    catalog_version: int = 0

    @property
    def ok(self) -> bool:
        """True when a hard-constraint-valid plan was returned."""
        return self.score is not None and self.score.is_valid

    @property
    def valid(self) -> bool:
        """Alias for :attr:`ok` (validation-report view)."""
        return self.ok

    def describe(self) -> str:
        """Multi-line envelope rendering for logs and the CLI."""
        lines = [f"outcome  : {self.outcome}"]
        if self.rung is not None:
            lines.append(f"rung     : {self.rung}")
        if self.policy is not None:
            memo = " (plan memo hit)" if self.plan_cache_hit else ""
            lines.append(f"policy   : {self.policy}{memo}")
        if self.plan is not None:
            lines.append(f"plan     : {self.plan.describe()}")
        if self.score is not None:
            lines.append(f"score    : {self.score.value:.2f}")
            lines.append(f"valid    : {self.score.report.describe()}")
        budget = "unbounded" if self.deadline_s is None else (
            f"{self.deadline_s:g}s"
        )
        exceeded = " (EXCEEDED)" if self.deadline_exceeded else ""
        lines.append(
            f"deadline : spent {self.deadline_spent:.3f}s of "
            f"{budget}{exceeded}"
        )
        if self.admission is not None and not self.admission.ok:
            lines.append("admission:")
            lines.extend(
                f"  {finding}" for finding in self.admission.findings
            )
        if self.attempts:
            lines.append("ladder   :")
            lines.extend(f"  {attempt}" for attempt in self.attempts)
        return "\n".join(lines)


@dataclass(frozen=True)
class DeltaReport:
    """What applying one world-level catalog delta did to the service."""

    kind: str
    item_id: str
    catalog_version: int
    #: Dangling-prereq findings of the folded live state.
    findings: Tuple[SubsetFinding, ...] = ()
    #: True when the delta changed the catalog fingerprint of an
    #: attached registry's policy key (a refit may have been scheduled).
    fingerprint_changed: bool = False
    #: True when a single-flight background refit was scheduled for the
    #: new key by this call (False if one was already in flight).
    refit_scheduled: bool = False
    #: Journal sequence number this delta landed (or was deduped) at;
    #: 0 when no journal is attached.
    seq: int = 0
    #: True when the delta's seq was at/below the journal watermark —
    #: a client retry or replayed wire event acked as a no-op instead
    #: of double-applied.  ``findings`` is empty and
    #: ``catalog_version`` is the *unchanged* current version.
    duplicate: bool = False


@dataclass(frozen=True)
class JournalRecovery:
    """What :meth:`PlanningService.attach_journal` recovered at startup.

    ``restored`` is True when prior durable state existed and the live
    view was rebuilt from it.  ``quarantined`` lists the paths a
    corrupt journal was moved aside to (pristine-catalog fallback);
    empty on a clean replay.
    """

    restored: bool
    snapshot_seq: int = 0
    replayed_deltas: int = 0
    #: Stale pre-watermark tail records the journal skipped (crash
    #: landed between snapshot rename and journal truncation).
    stale_records: int = 0
    #: Tail deltas that failed to apply at replay.  Application is
    #: deterministic, so these are exactly the deltas that were
    #: journaled but then *rejected* pre-crash (e.g. closing the last
    #: open item) — skipping them reproduces the pre-crash state.
    skipped_deltas: int = 0
    last_seq: int = 0
    catalog_version: int = 0
    torn_tail: bool = False
    quarantined: Tuple[str, ...] = ()

    def describe(self) -> str:
        if self.quarantined:
            return (
                f"journal CORRUPT: quarantined "
                f"{', '.join(self.quarantined)}; serving pristine catalog"
            )
        if not self.restored:
            return "journal empty: serving pristine catalog"
        torn = ", torn tail dropped" if self.torn_tail else ""
        stale = (
            f", {self.stale_records} stale pre-watermark skipped"
            if self.stale_records
            else ""
        )
        skipped = (
            f", {self.skipped_deltas} rejected-pre-crash skipped"
            if self.skipped_deltas
            else ""
        )
        return (
            f"journal restored: snapshot seq {self.snapshot_seq} + "
            f"{self.replayed_deltas} tail delta(s){stale}{skipped}{torn} "
            f"-> catalog v{self.catalog_version} (watermark seq "
            f"{self.last_seq})"
        )


class PlanningService:
    """Resilient planning facade for one (catalog, task) pair.

    Parameters
    ----------
    catalog / task / config / mode:
        The TPP instance, exactly as for :class:`RLPlanner`.
    planner:
        An existing (possibly fitted) :class:`RLPlanner` to reuse;
        built from the other arguments when omitted.
    audit:
        Run load-time admission on the catalog at construction.
    quarantine:
        With ``audit``, drop defective items and continue on the clean
        subset instead of rejecting outright (task-level infeasibility
        still rejects).
    breaker_threshold / breaker_cooldown_s:
        Circuit-breaker tuning, shared by all rungs.
    eda_grace_s:
        Minimum wall-clock the EDA rung is allowed even after the
        deadline is spent (the fallbacks must be able to finish).
    clock:
        Injectable monotonic clock for deadlines and breakers (tests).
    fault_injector:
        Optional :class:`~repro.runner.faults.FaultInjector`; rung *i*
        of :data:`RUNGS` is perturbed as task index *i* before it runs,
        which is how the chaos suite drives the ladder deterministically.
    """

    def __init__(
        self,
        catalog: Catalog,
        task: TaskSpec,
        config: Optional[PlannerConfig] = None,
        mode: DomainMode = DomainMode.COURSE,
        planner: Optional[RLPlanner] = None,
        audit: bool = True,
        quarantine: bool = False,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 30.0,
        eda_grace_s: float = 2.0,
        repair_max_expansions: int = 200_000,
        clock: Callable[[], float] = time.monotonic,
        fault_injector=None,
    ) -> None:
        self.task = task
        self.mode = mode
        self.clock = clock
        self.eda_grace_s = eda_grace_s
        self.fault_injector = fault_injector
        self.admission: Optional[AdmissionReport] = None
        if audit:
            report, catalog = audit_catalog(
                catalog, task=task, mode=mode, quarantine=quarantine
            )
            report.raise_if_rejected()
            self.admission = report
        self.catalog = catalog
        if planner is not None:
            self.planner = planner
        else:
            self.planner = RLPlanner(catalog, task, config, mode=mode)
        self.config = self.planner.config
        # The fallback rungs keep per-search mutable state (EDA's
        # tie-break RNG, repair's expansion counter / stop callback), so
        # each worker thread gets its own instances; everything they
        # read (catalog, task, config) is immutable after construction.
        self._repair_max_expansions = repair_max_expansions
        self._rung_local = threading.local()
        self.breakers: Dict[str, CircuitBreaker] = {
            rung: CircuitBreaker(
                rung,
                failure_threshold=breaker_threshold,
                cooldown_s=breaker_cooldown_s,
                clock=clock,
            )
            for rung in RUNGS
        }
        # Registry wiring (attach_registry); None keeps the classic
        # fit-and-serve behaviour untouched.  _adopt_lock serializes the
        # adopt-on-version-change step so concurrent requests cannot
        # interleave the (adopt table, remember entry) pair.
        self.policy_registry: Optional[PolicyRegistry] = None
        self._policy_key: Optional[str] = None
        self._registry_episodes: Optional[int] = None
        self._registry_label: str = ""
        self._cache_entry: Optional[CacheEntry] = None
        self._adopt_lock = threading.Lock()
        # Availability churn (apply_delta): the live catalog view, the
        # catalog the adopted policy indexes (they diverge while a
        # post-churn refit is pending), and the refit-target key the
        # resolve step probes each request.
        self._delta_lock = threading.Lock()
        self._catalog_view: Optional[CatalogView] = None
        self._policy_catalog: Catalog = self.catalog
        self._pending_policy_key: Optional[str] = None
        # Durability (attach_journal): deltas are journaled+fsync'd
        # before they fold, and _journal_seq is the dedupe watermark —
        # a retried seq at/below it acks as a no-op after its payload
        # is verified against the journaled record's checksum (bounded
        # window; a seq-space collision raises instead of acking).
        self._journal: Optional[DeltaJournal] = None
        self._journal_seq: int = 0
        self._journal_checksums: Dict[int, str] = {}

    @classmethod
    def from_dataset(cls, dataset, **kwargs) -> "PlanningService":
        """Build a service from a :class:`repro.datasets.Dataset`."""
        kwargs.setdefault("config", dataset.default_config)
        return cls(
            dataset.catalog, dataset.task, mode=dataset.mode, **kwargs
        )

    # ------------------------------------------------------------------
    # Policy lifecycle
    # ------------------------------------------------------------------

    def fit(self, **kwargs):
        """Train the policy rung (delegates to :meth:`RLPlanner.fit`)."""
        return self.planner.fit(**kwargs)

    def load_policy(self, path, strict: bool = False) -> None:
        """Load a saved policy for the top rung."""
        self.planner.load_policy(path, strict=strict)

    def attach_registry(
        self,
        registry: PolicyRegistry,
        episodes: Optional[int] = None,
        label: str = "",
    ) -> None:
        """Serve the policy rung through a :class:`PolicyRegistry`.

        The policy key for this service's (catalog, task, config, mode)
        universe is derived once here; after that a request is a warm
        cache probe — a miss trains (or disk-loads) through the
        registry, a hit adopts the cached table and goes straight to
        greedy traversal with no fit and no disk read.  ``episodes``
        overrides ``config.episodes`` for registry-triggered training.
        """
        self.policy_registry = registry
        self._registry_episodes = episodes
        self._registry_label = label
        key = registry.key_for(
            self.catalog, self.task, self.config, self.mode
        )
        with self._delta_lock:
            self._policy_key = key
            self._cache_entry = None
            self._policy_catalog = self.catalog
            self._pending_policy_key = None

    # ------------------------------------------------------------------
    # Durability: the write-ahead delta journal
    # ------------------------------------------------------------------

    def attach_journal(
        self, journal: DeltaJournal, recover: bool = True
    ) -> JournalRecovery:
        """Journal every future delta; optionally replay prior state.

        Attach *after* :meth:`attach_registry` (the CLI's order): the
        replay re-derives the post-churn policy fingerprint so a
        pending refit interrupted by the crash is re-armed.

        Recovery never raises for journal damage: a corrupt journal is
        quarantined (:class:`~repro.core.exceptions.ArtifactError`
        logged loudly) and the service falls back to the pristine
        catalog rather than crash-looping.
        """
        obs = get_registry()
        if not recover:
            with self._delta_lock:
                self._journal = journal
                self._journal_seq = 0
                self._journal_checksums = {}
            return JournalRecovery(restored=False)
        with obs.span("journal.replay"):
            try:
                replay = journal.replay()
            except ArtifactError as exc:
                logger.error(
                    "journal %s is corrupt (%s); quarantining and "
                    "serving the PRISTINE catalog — durable churn "
                    "state has been lost",
                    journal.root, exc,
                )
                quarantined = journal.quarantine()
                with self._delta_lock:
                    self._journal = journal
                    self._journal_seq = 0
                    self._journal_checksums = {}
                return JournalRecovery(
                    restored=False,
                    quarantined=tuple(str(p) for p in quarantined),
                )
            if replay.empty:
                with self._delta_lock:
                    self._journal = journal
                    self._journal_seq = 0
                    self._journal_checksums = {}
                return JournalRecovery(restored=False)
            view = CatalogView(self.catalog)
            skipped = 0
            try:
                if replay.snapshot is not None:
                    state = replay.snapshot.state_payload()
                    view.restore(
                        state["closed"],
                        state["credit_overrides"],
                        state["version"],
                    )
                for delta in replay.deltas:
                    try:
                        view.apply(delta)
                    except DeltaError as exc:
                        # Deterministic apply: this delta was rejected
                        # identically pre-crash after being journaled;
                        # skipping it reproduces the exact state.
                        skipped += 1
                        logger.warning(
                            "replay: skipping seq %d (%s) — rejected "
                            "at original apply too: %s",
                            delta.seq, delta.kind, exc,
                        )
                        continue
                    obs.inc("journal_replay_deltas_total")
            except DeltaError as exc:
                # Snapshot state that cannot restore against this base
                # catalog: the journal belongs to a different universe.
                logger.error(
                    "journal %s does not fit catalog %r (%s); "
                    "quarantining and serving the PRISTINE catalog",
                    journal.root, self.catalog.name, exc,
                )
                quarantined = journal.quarantine()
                with self._delta_lock:
                    self._journal = journal
                    self._journal_seq = 0
                    self._journal_checksums = {}
                return JournalRecovery(
                    restored=False,
                    quarantined=tuple(str(p) for p in quarantined),
                )
            with self._delta_lock:
                self._catalog_view = view
                self._journal = journal
                self._journal_seq = replay.last_seq
                # Seed duplicate verification from the replayed tail
                # (recomputing each record's checksum from the decoded
                # delta reproduces the journaled value — to_dict() is
                # canonical).  Snapshot-compacted seqs are gone; their
                # duplicates dedupe by watermark alone.
                self._journal_checksums = {}
                for delta in replay.deltas:
                    self._remember_journal_checksum(delta)
                # Re-arm the pending-refit fingerprint state the crash
                # dropped: same branch apply_delta takes per delta.
                if self.policy_registry is not None:
                    live = view.live
                    new_key = self.policy_registry.key_for(
                        live, self.task, self.config, self.mode
                    )
                    if new_key != self._policy_key:
                        self._pending_policy_key = new_key
                        self.policy_registry.invalidate(
                            new_key,
                            live,
                            self.task,
                            self.config,
                            self.mode,
                            episodes=self._registry_episodes,
                            label=self._registry_label,
                        )
                    else:
                        self._pending_policy_key = None
        obs.inc("server_restarts_total")
        return JournalRecovery(
            restored=True,
            snapshot_seq=(
                replay.snapshot.seq if replay.snapshot is not None else 0
            ),
            replayed_deltas=len(replay.deltas) - skipped,
            stale_records=replay.stale_records,
            skipped_deltas=skipped,
            last_seq=replay.last_seq,
            catalog_version=view.version,
            torn_tail=replay.torn_tail,
        )

    @property
    def journal(self) -> Optional[DeltaJournal]:
        """The attached write-ahead journal, or ``None``."""
        return self._journal

    @property
    def journal_seq(self) -> int:
        """Dedupe watermark: highest journaled seq (0 = none)."""
        return self._journal_seq

    def _remember_journal_checksum(self, delta: CatalogDelta) -> None:
        """Retain (seq -> record checksum) for duplicate verification.

        Bounded at :data:`DEDUPE_VERIFY_WINDOW` entries (oldest seqs
        evicted first); caller holds ``_delta_lock``.
        """
        checksums = self._journal_checksums
        checksums[delta.seq] = record_checksum(delta.seq, delta.to_dict())
        while len(checksums) > DEDUPE_VERIFY_WINDOW:
            del checksums[next(iter(checksums))]

    @property
    def pending_policy_key(self) -> Optional[str]:
        """The post-churn policy key a refit is in flight for, if any."""
        return self._pending_policy_key

    # ------------------------------------------------------------------
    # The changing world: availability deltas
    # ------------------------------------------------------------------

    @property
    def live_catalog(self) -> Catalog:
        """The post-delta catalog (the base until the first delta).

        Materialized once per catalog version; the hot paths read the
        view's masks instead (:attr:`catalog_view`).
        """
        view = self._catalog_view
        return view.live if view is not None else self.catalog

    @property
    def catalog_view(self) -> Optional[CatalogView]:
        """The live view over the base catalog (``None`` before churn)."""
        return self._catalog_view

    @property
    def catalog_version(self) -> int:
        """Number of availability deltas absorbed (0 = pristine base)."""
        view = self._catalog_view
        return view.version if view is not None else 0

    @property
    def repair_max_expansions(self) -> int:
        """DFS node budget the repair rung is constructed with."""
        return self._repair_max_expansions

    def apply_delta(self, delta: CatalogDelta) -> DeltaReport:
        """Fold one world-level catalog delta into the service.

        The live view folds it (closures cascade to items whose every
        prerequisite alternative closed; reopens restore them),
        subsequent requests are screened and planned against it, and —
        when a registry is attached — a changed catalog fingerprint
        schedules exactly one single-flight background refit for the
        new policy key while the stale policy keeps serving (restricted
        to live items).

        Constraint deltas are session-scoped (they retarget a
        :class:`~repro.serving.replan.ReplanSession`'s task); passing
        one here raises :class:`DeltaError`.

        With a journal attached the delta is fsync'd to the write-ahead
        log *before* it folds (crash after the ack ⇒ replay re-applies
        it), and a ``seq`` at or below the journal watermark is acked
        as a duplicate no-op — at-least-once delivery composes with
        exactly-once application.  A "duplicate" whose payload differs
        from the record journaled at that seq (checked over a bounded
        recent window) is a seq-space collision and raises
        :class:`DeltaError` instead of silently discarding a genuine
        world event.  Unstamped deltas (``seq == 0``) are stamped
        ``watermark + 1``.
        """
        if not isinstance(delta, CatalogDelta):
            raise DeltaError(
                "PlanningService.apply_delta takes CatalogDelta events; "
                "constraint deltas are session-scoped (ReplanSession.ingest)"
            )
        if delta.item_id not in self.catalog:
            # Pre-journal validation: a delta naming an item the base
            # catalog has never heard of is wire garbage, not a world
            # event — reject it before it pollutes the journal (the
            # same check apply() would make, hoisted above the append).
            raise DeltaError(
                f"delta {delta.kind!r} references item {delta.item_id!r} "
                f"unknown to base catalog {self.catalog.name!r}"
            )
        obs = get_registry()
        with self._delta_lock:
            journal = self._journal
            if journal is not None:
                if delta.seq != 0 and delta.seq <= self._journal_seq:
                    # Watermark alone cannot distinguish a genuine
                    # retry from a client that miscounts seqs and
                    # stamps a *new* world event with a used one —
                    # verify the payload against the record actually
                    # journaled at that seq (bounded window).
                    journaled = self._journal_checksums.get(delta.seq)
                    if journaled is not None and journaled != (
                        record_checksum(delta.seq, delta.to_dict())
                    ):
                        obs.inc("journal_duplicate_mismatch_total")
                        raise DeltaError(
                            f"delta seq {delta.seq} ({delta.kind!r} on "
                            f"{delta.item_id!r}) does not match the "
                            f"record journaled at that seq: seq-space "
                            f"collision, refusing to ack as duplicate"
                        )
                    obs.inc("journal_duplicate_deltas_total")
                    return DeltaReport(
                        kind=delta.kind,
                        item_id=delta.item_id,
                        catalog_version=(
                            self._catalog_view.version
                            if self._catalog_view is not None
                            else 0
                        ),
                        seq=delta.seq,
                        duplicate=True,
                    )
                if delta.seq == 0:
                    delta = dataclasses.replace(
                        delta, seq=self._journal_seq + 1
                    )
                # Write-ahead: journal (fsync) before fold.  If the
                # fold below rejects the delta, replay rejects it
                # identically and skips it — state stays reproducible.
                journal.append(delta)
                self._journal_seq = delta.seq
                self._remember_journal_checksum(delta)
            if self._catalog_view is None:
                self._catalog_view = CatalogView(self.catalog)
            findings = self._catalog_view.apply(delta)
            version = self._catalog_view.version
            fingerprint_changed = False
            refit_scheduled = False
            if self.policy_registry is not None:
                live = self._catalog_view.live
                new_key = self.policy_registry.key_for(
                    live, self.task, self.config, self.mode
                )
                if new_key != self._policy_key:
                    fingerprint_changed = True
                    if new_key != self._pending_policy_key:
                        self._pending_policy_key = new_key
                        refit_scheduled = (
                            self.policy_registry.invalidate(
                                new_key,
                                live,
                                self.task,
                                self.config,
                                self.mode,
                                episodes=self._registry_episodes,
                                label=self._registry_label,
                            )
                        )
                else:
                    # The delta cycled the world back to the adopted
                    # policy's universe (e.g. close then reopen).
                    self._pending_policy_key = None
            if journal is not None and journal.should_compact():
                journal.write_snapshot(
                    self._catalog_view.state_payload(),
                    self._journal_seq,
                )
        obs.inc(labelled("deltas_applied_total", kind=delta.kind))
        for finding in findings:
            obs.inc(
                labelled("delta_prereq_findings_total", code=finding.code)
            )
        return DeltaReport(
            kind=delta.kind,
            item_id=delta.item_id,
            catalog_version=version,
            findings=findings,
            fingerprint_changed=fingerprint_changed,
            refit_scheduled=refit_scheduled,
            seq=delta.seq,
        )

    def fork_view(self) -> CatalogView:
        """A session-scoped :class:`CatalogView` seeded with today's state.

        The fork is based on the *pristine* base catalog (not the pruned
        ``live_catalog``) with the service's current closed-set/credit
        overrides replayed in, so a session opened after a ``close`` can
        still ingest a later ``reopen`` of that item — the id resolves
        against the full base even though the live catalog dropped it.
        """
        with self._delta_lock:
            if self._catalog_view is not None:
                return self._catalog_view.fork()
        return CatalogView(self.catalog)

    def open_session(
        self,
        plan: Plan,
        executed: int = 0,
        session_id: str = "",
        repair_only_below_s: Optional[float] = None,
    ):
        """Start a :class:`~repro.serving.replan.ReplanSession` over a
        partially-executed plan (snapshotting today's live catalog)."""
        from .replan import ReplanSession

        kwargs = {}
        if repair_only_below_s is not None:
            kwargs["repair_only_below_s"] = repair_only_below_s
        return ReplanSession(
            self, plan, executed=executed, session_id=session_id, **kwargs
        )

    def replan(
        self,
        session,
        deadline_s: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ):
        """The ``replan`` entry point: suffix-only replanning for a
        session, with delta provenance in the returned envelope."""
        return session.replan(deadline_s=deadline_s, deadline=deadline)

    @property
    def eda(self) -> EDAPlanner:
        """This thread's EDA rung (lazily built; see ``_rung_local``).

        Rebuilt when the live catalog has moved past the version this
        thread's instance was constructed against, so fallback rungs
        never offer closed items.
        """
        version = self.catalog_version
        cached = getattr(self._rung_local, "eda", None)
        if cached is None or cached[0] != version:
            eda = EDAPlanner(
                self.live_catalog, self.task, config=self.config,
                mode=self.mode, seed=self.config.seed,
            )
            self._rung_local.eda = (version, eda)
            return eda
        return cached[1]

    @property
    def repair(self) -> RepairPlanner:
        """This thread's repair rung (lazily built; see ``_rung_local``)."""
        version = self.catalog_version
        cached = getattr(self._rung_local, "repair", None)
        if cached is None or cached[0] != version:
            repair = RepairPlanner(
                self.live_catalog, self.task, mode=self.mode,
                max_expansions=self._repair_max_expansions,
            )
            self._rung_local.repair = (version, repair)
            return repair
        return cached[1]

    @property
    def default_start(self) -> str:
        """The opener used when a request does not pin one."""
        live = self.live_catalog
        for item in live.primaries():
            if item.prerequisites.is_empty:
                return item.item_id
        return live.items[0].item_id

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def serve(
        self,
        request: Optional[ServeRequest] = None,
        *,
        start_item_id: Optional[str] = None,
        deadline_s: Optional[float] = None,
        horizon: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ) -> ServeResult:
        """Serve one request through the ladder; never raises for
        request-level problems — the envelope carries the outcome.

        ``deadline`` lets a front-end pass a budget that started ticking
        at *arrival* (so queueing time counts against it) instead of a
        fresh one starting now.

        (Programming errors and ``KeyboardInterrupt``/``SystemExit``
        still propagate.)
        """
        if request is None:
            request = ServeRequest(
                start_item_id=start_item_id,
                deadline_s=deadline_s,
                horizon=horizon,
            )
        obs = get_registry()
        if deadline is None:
            deadline = Deadline(request.deadline_s, clock=self.clock)
        with obs.span("serve"):
            result = self._serve_inner(request, deadline)
        obs.inc(
            labelled(
                "serve_requests_total",
                rung=result.rung or "none",
                outcome=result.outcome,
            )
        )
        obs.histogram(
            "serve_deadline_remaining_seconds", DEADLINE_BUCKETS
        ).observe(deadline.remaining())
        return result

    def _serve_inner(
        self, request: ServeRequest, deadline: Deadline
    ) -> ServeResult:
        obs = get_registry()
        ctx = _ServeContext()
        with obs.span("serve.admission"):
            # Screen against the *live* (post-delta) catalog, not the
            # admission-time snapshot: a start item that has since
            # closed, or a universe churn made infeasible, must reject
            # here instead of failing deep inside a rung.
            screen = screen_request(
                self._catalog_view or self.catalog, self.task, self.mode,
                request.start_item_id,
            )
        if screen.rejected:
            for finding in screen.findings:
                obs.inc(
                    labelled(
                        "admission_rejects_total", code=finding.code
                    )
                )
            return ServeResult(
                outcome=OUTCOME_REJECTED,
                admission=screen,
                deadline_s=request.deadline_s,
                deadline_spent=deadline.elapsed(),
                deadline_exceeded=deadline.expired,
                catalog_version=self.catalog_version,
            )

        attempts: List[RungAttempt] = []
        best: Optional[Tuple[Plan, PlanScore, str]] = None
        for index, rung in enumerate(RUNGS):
            breaker = self.breakers[rung]
            if not breaker.allows():
                attempts.append(RungAttempt(rung, "skipped_open"))
                continue
            t0 = self.clock()
            try:
                with obs.span(f"serve.rung.{rung}"):
                    if self.fault_injector is not None:
                        self.fault_injector.perturb(index)
                    plan, score = self._run_rung(
                        rung, request, deadline, ctx
                    )
            except NonRetriableError as exc:
                # The request itself is broken (e.g. unsatisfiable
                # task surfaced mid-search): no lower rung can help.
                attempts.append(
                    RungAttempt(
                        rung, "error", self.clock() - t0,
                        f"{type(exc).__name__}: {exc}",
                    )
                )
                breaker.record_failure()
                return self._envelope(
                    OUTCOME_REJECTED, None, request, deadline, screen,
                    attempts, ctx,
                )
            except Exception as exc:  # noqa: BLE001 - rung isolation:
                # any rung failure (injected fault, missing policy,
                # artifact rot) must degrade, not propagate.
                attempts.append(
                    RungAttempt(
                        rung, "error", self.clock() - t0,
                        f"{type(exc).__name__}: {exc}",
                    )
                )
                breaker.record_failure()
                continue
            elapsed = self.clock() - t0
            if plan is None:
                attempts.append(
                    RungAttempt(
                        rung, "timeout", elapsed,
                        "deadline expired before any plan completed",
                    )
                )
                breaker.record_failure()
                continue
            if score.is_valid:
                attempts.append(RungAttempt(rung, "ok", elapsed))
                breaker.record_success()
                best = (plan, score, rung)
                break
            # A complete but invalid plan: deterministic, so the rung
            # is healthy (no breaker trip) — keep it as best-effort and
            # fall one rung down.
            attempts.append(
                RungAttempt(
                    rung, "invalid", elapsed,
                    score.report.describe(),
                )
            )
            breaker.record_success()
            if best is None:
                best = (plan, score, rung)
        if best is None:
            return self._envelope(
                OUTCOME_FAILED, None, request, deadline, screen, attempts,
                ctx,
            )
        return self._envelope(
            None, best, request, deadline, screen, attempts, ctx
        )

    def _envelope(
        self,
        outcome: Optional[str],
        best: Optional[Tuple[Plan, PlanScore, str]],
        request: ServeRequest,
        deadline: Deadline,
        screen: AdmissionReport,
        attempts: List[RungAttempt],
        ctx: _ServeContext,
    ) -> ServeResult:
        plan = score = rung = None
        if best is not None:
            plan, score, rung = best
        exceeded = deadline.expired
        if outcome is None:
            degraded = (
                rung != RUNG_SARSA
                or not score.is_valid
                or exceeded
            )
            outcome = OUTCOME_DEGRADED if degraded else OUTCOME_OK
        else:
            degraded = outcome != OUTCOME_OK
        return ServeResult(
            outcome=outcome,
            plan=plan,
            score=score,
            rung=rung,
            degraded=degraded,
            deadline_s=request.deadline_s,
            deadline_spent=deadline.elapsed(),
            deadline_exceeded=exceeded,
            admission=screen,
            attempts=tuple(attempts),
            policy=ctx.policy if rung == RUNG_SARSA else None,
            plan_cache_hit=(
                ctx.plan_cache_hit if rung == RUNG_SARSA else False
            ),
            catalog_version=self.catalog_version,
        )

    # ------------------------------------------------------------------
    # Rung execution
    # ------------------------------------------------------------------

    def _run_rung(
        self,
        rung: str,
        request: ServeRequest,
        deadline: Deadline,
        ctx: _ServeContext,
    ) -> Tuple[Optional[Plan], Optional[PlanScore]]:
        if rung == RUNG_SARSA:
            return self._run_sarsa(request, deadline, ctx)
        if rung == RUNG_EDA:
            return self._run_eda(request, deadline)
        return self._run_repair(request)

    def _run_sarsa(
        self,
        request: ServeRequest,
        deadline: Deadline,
        ctx: _ServeContext,
    ) -> Tuple[Optional[Plan], Optional[PlanScore]]:
        """Anytime policy rung: best valid snapshot under the deadline.

        With a registry attached, the rung first resolves the policy
        for this universe (warm cache probe on the steady state) and
        consults the per-version plan memo — a memo hit answers without
        any traversal at all.  A pinned start is honoured exactly (one
        rollout set, matching a bare :meth:`RLPlanner.recommend` — the
        happy path adds only the envelope); otherwise the natural
        openers are swept best-first until the deadline fires.
        """
        entry = self._resolve_policy(ctx)
        # One planner for the mask and the traversal: a concurrent refit
        # adoption swaps self.planner, and the mask indexes its catalog.
        planner = self.planner
        allowed = self._sarsa_allowed(planner)
        if entry is not None and allowed is None:
            # The plan memo is only trustworthy when the policy's
            # catalog IS the live universe — a memoized plan may hold
            # items that have since closed.
            hit = entry.cached_plan(request.start_item_id, request.horizon)
            if hit is not None:
                get_registry().inc("serve_plan_memo_hits_total")
                ctx.plan_cache_hit = True
                return hit
        if entry is None and (
            not planner.is_fitted or planner.qtable.update_count == 0
        ):
            # Satellite guard: an unfitted (or zero-update) table would
            # "succeed" with an untrained greedy traversal — garbage
            # with a straight face.  Raise the typed retriable error so
            # rung isolation records it and the ladder degrades to EDA.
            get_registry().inc("serve_untrained_policy_total")
            raise UntrainedPolicyError(
                "policy rung has no trained Q-table: call fit(), load a "
                "policy artifact (serve --policy), or attach a registry "
                "(serve --registry); degrading to the EDA rung"
            )
        starts = (
            [request.start_item_id]
            if request.start_item_id is not None
            else None
        )
        plan, score, _ = planner.recommend_anytime(
            start_item_ids=starts,
            horizon=request.horizon,
            should_stop=deadline.should_stop,
            stop_when_valid=True,
            allowed_item_ids=allowed,
        )
        if (
            entry is not None
            and allowed is None
            and plan is not None
            and score is not None
            and score.is_valid
        ):
            # A valid stop_when_valid result is deterministic for this
            # (table, start, horizon) regardless of the deadline — safe
            # to memoize.  Invalid/truncated snapshots are not (nor is
            # anything produced under an availability filter).
            entry.store_plan(
                request.start_item_id, request.horizon, plan, score
            )
        return plan, score

    def _sarsa_allowed(self, planner: RLPlanner) -> Optional[np.ndarray]:
        """Availability filter for the policy rung, or ``None``.

        ``None`` when the adopted policy already indexes the live
        universe (no churn, or the post-churn refit has been adopted);
        otherwise the live items as a boolean mask over ``planner``'s
        policy catalog, so a stale policy keeps serving without ever
        offering a closed item.  The view's live mask when the policy
        catalog is the base; otherwise mapped onto the policy catalog
        once per catalog version.
        """
        view = self._catalog_view
        if view is None:
            return None
        catalog = (
            planner.qtable.catalog if planner.is_fitted else planner.catalog
        )
        return view.state.mask_over(catalog)

    def _resolve_policy(self, ctx: _ServeContext) -> Optional[CacheEntry]:
        """Resolve the policy rung's table through the registry.

        Returns ``None`` when no registry is attached (classic path).
        Otherwise: acquire through cache → disk → train, adopt the
        table into the planner only when the version actually changed
        (under ``_adopt_lock`` — two concurrent requests racing a
        version swap must not interleave the adopt/remember pair), and
        stamp the request's policy provenance on its context.
        """
        if self.policy_registry is None:
            return None
        pending = self._pending_policy_key
        if pending is not None:
            fresh = self.policy_registry.peek(pending)
            if fresh is not None:
                self._adopt_refit(pending, fresh)
            # else: the refit hasn't landed — keep serving the stale
            # version (restricted to live items by _sarsa_allowed).
        entry, _source = self.policy_registry.acquire(
            self._policy_catalog,
            self.task,
            self.config,
            self.mode,
            episodes=self._registry_episodes,
            label=self._registry_label,
            key=self._policy_key,
        )
        if entry is not self._cache_entry:
            with self._adopt_lock:
                if entry is not self._cache_entry:
                    self.planner.adopt_policy(entry.qtable)
                    self._cache_entry = entry
        ctx.policy = (
            f"{short_key(entry.meta.key)}@v{entry.meta.version}"
        )
        return entry

    def _adopt_refit(self, key: str, entry: CacheEntry) -> None:
        """Swap in a landed post-churn refit (new catalog universe).

        ``adopt_policy`` refuses a table whose item-id set differs from
        the planner's catalog, so the planner is rebuilt over the refit
        table's own catalog first; the old policy key retires and the
        memo naturally starts fresh with the new entry.

        The pending-key fields are written by ``apply_delta`` under
        ``_delta_lock``, so this method checks and clears them under the
        same lock — and re-checks right before the swap — ensuring a
        delta that scheduled a newer refit while the planner was being
        rebuilt is never clobbered (its pending key stays armed and this
        stale refit is discarded).
        """
        with self._adopt_lock:
            with self._delta_lock:
                if self._pending_policy_key != key:
                    return
            planner = RLPlanner(
                entry.qtable.catalog, self.task, self.config,
                mode=self.mode,
            )
            planner.adopt_policy(entry.qtable)
            with self._delta_lock:
                if self._pending_policy_key != key:
                    return
                self.planner = planner
                self._policy_catalog = entry.qtable.catalog
                self._policy_key = key
                self._pending_policy_key = None
                self._cache_entry = entry
            get_registry().inc("serve_policy_swaps_total")

    def _run_eda(
        self, request: ServeRequest, deadline: Deadline
    ) -> Tuple[Optional[Plan], Optional[PlanScore]]:
        """Greedy fallback, granted a grace budget past the deadline.

        EDA is O(H·|I|) — milliseconds — so it runs even when the
        policy rung already spent the request budget; the grace guard
        only exists to bound pathological catalogs.
        """
        grace = Deadline(
            max(deadline.remaining(), self.eda_grace_s), clock=self.clock
        )
        start = request.start_item_id or self.default_start
        plan = self.eda.recommend(
            start, horizon=request.horizon,
            should_stop=grace.should_stop,
        )
        if grace.expired and len(plan) < self.task.hard.plan_length:
            # Partial plan cut off by the guard: surface as a timeout
            # rather than pretending the greedy run completed.
            return None, None
        return plan, self.planner.scorer.score(plan)

    def _run_repair(
        self, request: ServeRequest
    ) -> Tuple[Optional[Plan], Optional[PlanScore]]:
        """Floor rung: constructive feasibility search, no deadline.

        Deliberately unbounded by the request deadline — this is the
        last chance to return a valid plan, and its DFS is capped by
        ``max_expansions`` anyway.
        """
        plan = self.repair.recommend(request.start_item_id)
        return plan, self.planner.scorer.score(plan)
