"""Workloads of the planning-service benchmark and the scenario that runs them.

Every workload is one traffic mix against the public API of
``repro.serving`` / ``repro.core`` on a 5000-item ``generate_instance``
catalog, run in up to three phases that split the run's seconds and
interleave in a few rounds:

* **serve** — plan requests through a :class:`PlanningServer` from a
  closed loop of ``nproc`` clients (``scale_5k``), which doubles as the
  saturation phase;
* **saturation** — a closed loop of ``nproc`` clients over the same
  request mix, for ``saturated_rps`` (``churn_5k``);
* **writes** — a periodic open-loop stream of close/reopen/credit deltas
  through ``PlanningServer.apply_delta`` with a write-ahead journal
  (fsync on), replan sessions over served plans, a ``submit_replan``
  after every delta that hits a session's suffix, and checkpoints spread
  over the run where the stream pauses and fresh services replay a copy
  of the journal.  ``churn_5k`` serves plan requests alongside the
  deltas; ``scale_5k`` runs this phase on a sibling service that shares
  the fitted policy, so its serve phase keeps its own character.

The catalog is fixed.  The seed orders the inputs: ``scale_5k``'s starts
and ``churn_5k``'s plan requests.  What a 5000-item run can afford is a
few dozen heavy operations, too few to average out a seeded mix of
cheap and costly ones, so the multisets they draw from (start lists,
delta targets, session plans) and every phase that only completes the
metric set come from a fixed seed.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.core import DomainMode
from repro.core.config import PlannerConfig
from repro.core.deltas import (
    DELTA_CLOSE,
    DELTA_CREDIT_CHANGE,
    DELTA_REOPEN,
    CatalogDelta,
)
from repro.datasets import SyntheticSpec, generate_instance
from repro.serving import (
    CLASS_BENIGN,
    DeltaJournal,
    PlanningServer,
    PlanningService,
    PolicyRegistry,
    ServeRequest,
    audit_catalog,
)

from drivers import (
    Event,
    await_all,
    clock,
    closed_loop,
    open_loop,
    stamp,
)

#: Plan-request latency objective (the serving SLO).
SERVE_SLO_S = 0.25
#: Deadline carried by every plan request and replan.
REQUEST_DEADLINE_S = 2.0
#: A run whose generator fell further behind than this is invalid.
GENERATOR_LAG_BOUND_S = 0.1
#: Serial probe requests whose plans form the run's plan digest.
PROBES = 6
#: Journal tail length that triggers a compaction snapshot.
COMPACT_EVERY = 30

NPROC = len(os.sched_getaffinity(0))

#: Kinds the deltas that miss every session take, in turn.
BENIGN_KINDS = (DELTA_CLOSE, DELTA_CREDIT_CHANGE, DELTA_REOPEN)


@dataclass(frozen=True)
class Writes:
    """The write phase: deltas, replan sessions, journal, recovery."""

    #: Share of the run's seconds.
    share: float
    #: Seconds per cycle of the periodic schedule.
    period: float
    #: Replan sessions held open over served plans.
    sessions: int
    #: Cycles between checkpoints, where a fresh service replays the
    #: journal.  A checkpoint at every cycle or two spreads the replays
    #: over the run; their tails follow the same pattern on every run.
    checkpoint: int
    #: Committed prefix of each session; negative counts from the end.
    executed: int
    #: Closures beyond this many open items reopen the oldest closed one.
    max_closed: int
    #: Phases (fractions of ``period``) of the deltas that close an item
    #: of a session's suffix, each followed by a replan.  A periodic
    #: stream overlaps operations the same way in every cycle; with
    #: random arrivals, whether the odd delta waits on a replan for the
    #: interpreter lock decides the median of a few dozen acks.  The next
    #: delta comes at least 0.2 s later, so a replan ends before it even
    #: when the host runs slow.
    hits: Tuple[float, ...]
    #: Phases of the other deltas, which take close, credit change and
    #: reopen in turn.
    benign: Tuple[float, ...]
    #: Phases of the plan requests served alongside the deltas in each
    #: cycle (none: no plan requests in this phase).  Two at once keep
    #: both workers busy, so that each request spans the speed of both
    #: vCPUs: one request alone on a shared host ran in one of two speed
    #: modes, and the median of a run's 20 flipped between them.
    serves: Tuple[float, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    reason: str
    size: int
    registry: bool
    #: Training episodes.
    episodes: int
    #: ``closed`` (``nproc`` clients) or ``churn`` (plan requests served
    #: alongside the write phase).
    serve: str
    serve_share: float
    saturation_share: float
    writes: Writes
    #: Items plan requests start from (0: the whole catalog), drawn from
    #: the prerequisite-free ones.  Delta streams never close them, so a
    #: request never names a closed start.
    start_pool: int = 0
    #: Requests a closed serve loop is expected to complete; fixes the
    #: percentile its tail is read at.
    closed_samples: int = 0
    #: Rounds the phases interleave in (see :class:`Scenario`).
    rounds: int = 8

    def provenance(self) -> Dict[str, Any]:
        w = self.writes
        deltas = (len(w.hits) + len(w.benign)) / w.period
        loop = {
            "closed": f"closed loop, nproc={NPROC} clients",
            "churn": (
                f"open loop, periodic: {deltas:g} deltas/s + "
                f"{len(w.serves) / w.period:g} plan req/s"
            ),
        }[self.serve]
        return {
            "reason": self.reason,
            "loop": loop,
            "catalog": "generate_instance",
            "catalog_size": self.size,
            "registry": self.registry,
            "phases": {
                "serve": self.serve_share,
                "saturation": self.saturation_share,
                "writes": w.share,
                "rounds": self.rounds,
            },
            "writes": {
                **w.__dict__,
                "compact_every": COMPACT_EVERY,
                "deltas_per_s": deltas,
            },
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="scale_5k",
            why=(
                "5000-item synthetic catalog, closed loop over distinct "
                "starts; the greedy traversal does nearly all the work"
            ),
            reason=(
                "The smallest catalog size the ROADMAP claims: a "
                "generate_instance catalog with |I|=5000 behind a registry, "
                "closed loop of nproc clients over distinct uniformly drawn "
                "starts (a fixed list in seeded order) so the plan memo is "
                "bypassed; mask_actions/feasible_mask "
                "dominate and about half the requests also run EDA and "
                "repair.  The front door is negligible."
            ),
            size=5000,
            registry=True,
            episodes=20,
            serve="closed",
            serve_share=0.45,
            saturation_share=0.0,
            writes=Writes(
                share=0.55, period=0.45, sessions=2, checkpoint=2,
                executed=-2, max_closed=8, hits=(0.0,), benign=(0.5, 0.75),
            ),
            closed_samples=44,
        ),
        Workload(
            name="churn_5k",
            why=(
                "availability churn on the 5000-item catalog: journaled "
                "deltas, replans and plan requests share one server and "
                "live catalog"
            ),
            reason=(
                "Availability churn at |I|=5000 (ATLAS, arXiv 2509.25586: "
                "live availability is constraint state that reads and "
                "writes share).  A fitted policy without a registry, so no "
                "background refit races the measurements; a fsync'd "
                "DeltaJournal; 2 replan sessions two items before the end of "
                "their plans; each delta re-materializes the live catalog "
                "once per view.  Every 1.6 s cycle runs six deltas (two hit "
                "a session's suffix and trigger a replan), then one plan "
                "request, back to back: a half-second plan request "
                "overlapping the deltas made the delta-ack p90 swing by half "
                "its median between seeds.  Replans and stale-policy serves "
                "read the churned catalog through the allowed-items filter, "
                "which bypasses the memo.  After every cycle a fresh service "
                "replays a copy of the journal."
            ),
            size=5000,
            registry=False,
            episodes=20,
            serve="churn",
            serve_share=0.0,
            saturation_share=0.20,
            writes=Writes(
                share=0.80, period=1.6, sessions=2, checkpoint=1,
                executed=-2, max_closed=16, hits=(0.0, 0.22),
                benign=(0.13, 0.18, 0.35, 0.41), serves=(0.47, 0.47),
            ),
            start_pool=400,
            rounds=4,
        ),
    )
}

#: Tiny variants for the harness self-test (same code paths, small sizes).
TINY_SIZE = 300


@dataclass
class Ready:
    """A service after set-up, with what set-up cost."""

    service: Any
    seconds: float


@dataclass
class WritesResult:
    deltas: List[Event] = field(default_factory=list)
    replans: List[Event] = field(default_factory=list)
    serves: List[Event] = field(default_factory=list)
    #: Per successful delta: (sent, done, catalog version, closed set).
    history: List[Tuple[float, float, int, frozenset]] = field(
        default_factory=list
    )
    hits: int = 0
    recovery_s: List[float] = field(default_factory=list)
    #: Checkpoints whose replay did not reproduce the live state.
    replay_mismatches: List[str] = field(default_factory=list)


class Scenario:
    """One run of one workload: set-up, probe digest, phases, checks.

    The phases interleave in ``workload.rounds`` rounds, so every metric's
    samples spread over the whole run rather than one stretch of it: on a
    shared machine whose speed drifts from second to second, a phase run
    in one block reads whatever speed that block happened to get.  For
    the same reason the journal replays and the set-ups after the first
    run at checkpoints of the write phase, spread over the run.
    """

    def __init__(
        self,
        workload: Workload,
        seed: int,
        seconds: float,
        work: str,
        tracer=None,
        setups: int = 3,
        tiny: bool = False,
        inject: Sequence[str] = (),
    ) -> None:
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tracer = tracer
        self.setups = setups
        self.size = min(workload.size, TINY_SIZE) if tiny else workload.size
        self.inject = set(inject)
        self.rng = random.Random(seed)
        self.fixed_rng = random.Random(0)
        self.setup_s: List[float] = []
        self.digest = ""
        self.serves: List[Event] = []
        self.saturation: List[Event] = []
        self.saturation_elapsed = 0.0
        self.writes = WritesResult()
        self.lags: List[float] = []
        #: Sample counts the schedule plans per operation (tail percentiles).
        self.planned = {"serve": 0, "delta": 0, "replan": 0}

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------

    def setup(self) -> Ready:
        span = self.tracer.span if self.tracer else (lambda _n: nullcontext())
        wl = self.wl
        t0 = clock()
        with span("setup.generate"):
            catalog, task = generate_instance(
                SyntheticSpec(num_items=self.size), seed=0
            )
            mode, config = DomainMode.COURSE, PlannerConfig()
        with span("setup.audit"):
            report, catalog = audit_catalog(catalog, task=task, mode=mode)
            report.raise_if_rejected()
        service = PlanningService(catalog, task, config, mode=mode, audit=False)
        with span("setup.fit"):
            if wl.registry:
                registry = PolicyRegistry(tempfile.mkdtemp(dir=self.work))
                registry.acquire(
                    catalog, task, service.config, mode, episodes=wl.episodes
                )
                service.attach_registry(registry, episodes=wl.episodes)
            else:
                service.fit(episodes=wl.episodes)
        return Ready(service, clock() - t0)

    def probe_digest(self, service) -> str:
        """Plan digest over a fixed serial probe set (no deadline)."""
        items = service.catalog.items
        digest = hashlib.sha256()
        for k in range(PROBES):
            start = items[(k * len(items)) // PROBES].item_id
            result = service.serve(start_item_id=start)
            plan = ",".join(result.plan.item_ids) if result.plan else ""
            digest.update(
                f"{start}|{result.outcome}|{result.rung}|{plan}\n".encode()
            )
        return digest.hexdigest()[:16]

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------

    def _start_ids(self, catalog) -> List[str]:
        if not self.wl.start_pool:
            return list(catalog.item_ids)
        # Prerequisite-free items: closing another item never orphans them
        # out of the live catalog, so no request names a vanished start.
        ids = [i.item_id for i in catalog.items if i.prerequisites.is_empty]
        # A tiny catalog keeps the pool's share, so sessions' suffixes
        # still hold items a delta may close.
        size = max(1, self.wl.start_pool * self.size // self.wl.size)
        return self.fixed_rng.sample(ids, min(size, len(ids)))

    @staticmethod
    def _draw_starts(rng, pool: Sequence[str], count: int) -> List[str]:
        """Distinct starts (cycling only past the pool's size), so a
        registry's plan memo never answers a repeat."""
        picks = rng.sample(pool, min(count, len(pool)))
        return [picks[i % len(picks)] for i in range(count)]

    def _blocked(self, starts: List[str], block: int = 8) -> List[str]:
        """``starts`` shuffled by the run's seed within blocks of
        ``block``: any whole number of blocks is the same multiset on
        every seed, so the mix of cheap and costly requests a
        time-bounded closed loop completes hardly moves its median."""
        out: List[str] = []
        for i in range(0, len(starts), block):
            chunk = starts[i:i + block]
            self.rng.shuffle(chunk)
            out.extend(chunk)
        return out

    def _stall(self, count: int):
        """Self-test hook: stall the generator once, mid-stream."""
        if "lag" not in self.inject:
            return None
        return lambda i: time.sleep(0.2) if i == count // 2 else None

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _timed_setup(self) -> Ready:
        gc.collect()  # each set-up starts from a clean heap
        ready = self.setup()
        self.setup_s.append(ready.seconds)
        return ready

    def run(self) -> "Scenario":
        service = self._timed_setup().service
        self.task, self.mode = service.task, service.mode
        if self.tracer is None:
            self.digest = self.probe_digest(service)
        wl = self.wl
        rounds = wl.rounds
        step = self.seconds / rounds
        pool = self._start_ids(service.catalog)
        closed_starts = iter(
            self._blocked(
                self._draw_starts(self.fixed_rng, pool, int(2000 * self.seconds))
            )
        )
        if wl.serve == "churn":
            target = service
        else:
            # A sibling sharing the fitted policy: the write phase must
            # not turn the serve phase's catalog into a churned one.
            target = PlanningService(
                service.catalog, service.task, service.config,
                mode=service.mode, planner=service.planner, audit=False,
            )
        writes = WritePhase(self, target, pool, step * wl.writes.share, rounds)
        # The other set-ups run at checkpoints about evenly spaced over
        # the run, the first one having run at its start.
        extra = self.setups - 1
        setup_at = [
            max(0, k * writes.checkpoints // (extra + 1) - 1)
            for k in range(1, extra + 1)
        ]
        server = (
            writes.server
            if wl.serve == "churn"
            else PlanningServer(service, workers=NPROC, max_queue=64)
        )
        try:
            for _round in range(rounds):
                if wl.serve == "closed":
                    self.serves += self._closed(
                        server, closed_starts, step * wl.serve_share
                    )
                if wl.saturation_share:
                    self.saturation += self._closed(
                        server, closed_starts, step * wl.saturation_share
                    )
                for index in writes.segment():
                    for _ in range(setup_at.count(index)):
                        self._timed_setup()
        finally:
            writes.close()
            if server is not writes.server:
                server.close()
        if wl.serve == "closed":
            self.planned["serve"] = wl.closed_samples
            self.saturation = self.serves
        return self

    def _request(self, start: str):
        return ServeRequest(start_item_id=start, deadline_s=REQUEST_DEADLINE_S)

    def _open_serves(
        self, server, offsets: Sequence[float], starts: Sequence[str],
        start: float,
    ) -> List[Event]:
        self.planned["serve"] += len(offsets)

        def fire(i):
            return server.submit(self._request(starts[i]))

        events, futures = open_loop(offsets, fire, start=start)
        await_all(futures, events)
        self.lags.extend(e.lag for e in events)
        return events

    def _closed(self, server, starts, duration: float) -> List[Event]:
        events, elapsed = closed_loop(
            lambda _i: server.submit(self._request(next(starts))),
            NPROC, duration,
        )
        self.saturation_elapsed += elapsed
        return events


class WritePhase:
    """Deltas, replan sessions, journal and recovery of one run.

    Set up once (journal, server, sessions), run in segments between the
    other phases.  Each segment runs whole checkpoint intervals; at every
    checkpoint a fresh service replays a copy of the journal.
    """

    def __init__(
        self, sc: Scenario, service, pool, duration: float, rounds: int
    ) -> None:
        spec = sc.wl.writes
        self.sc, self.spec, self.service, self.pool = sc, spec, service, pool
        self.out = sc.writes
        cycles = max(1, round(duration / spec.period))
        #: Cycles per checkpoint interval, and per segment (whole intervals).
        self.chunk = min(spec.checkpoint, cycles)
        self.cycles = cycles - cycles % self.chunk
        self.checkpoints = rounds * self.cycles // self.chunk
        self.journal_dir = tempfile.mkdtemp(dir=sc.work)
        service.attach_journal(
            DeltaJournal(self.journal_dir, compact_every=COMPACT_EVERY),
            recover=False,
        )
        self.server = PlanningServer(service, workers=NPROC, max_queue=64)
        self.sessions = self._open_sessions()
        if "closed-item" in sc.inject:
            # Self-test fault: sessions miss every close the server
            # broadcasts, so their replans keep the closed item.
            for session in self.sessions:
                session.ingest = _deaf_to_closes(session.ingest)
        self.protected = {
            item.item_id
            for s in self.sessions for item in s.plan.items[: s.executed]
        } | (set(pool) if sc.wl.start_pool else set())
        self.closed: "OrderedDict[str, None]" = OrderedDict()
        self.credits: Dict[str, float] = {}
        self.rotation = {"hit": 0, "benign": 0}
        self.replan_futures: list = []
        self.cycles_done = 0
        self.checkpoints_done = 0
        if spec.serves:
            # A fixed multiset of starts in a seeded order: with a few
            # dozen heavy requests, the mix would otherwise move the median.
            self.serve_starts = sc._draw_starts(
                sc.fixed_rng, pool, rounds * self.cycles * len(spec.serves)
            )
            sc.rng.shuffle(self.serve_starts)

    def _open_sessions(self) -> list:
        spec = self.spec
        sessions = []
        for start in self.sc._draw_starts(
            self.sc.fixed_rng, self.pool, 20 * spec.sessions
        ):
            result = self.service.serve(start_item_id=start)
            if not result.ok or result.plan is None:
                continue
            executed = spec.executed
            if executed < 0:
                executed += len(result.plan)
            sessions.append(
                self.server.open_session(result.plan, executed=executed)
            )
            if len(sessions) == spec.sessions:
                break
        return sessions

    def segment(self):
        """Run one round's stretch of the delta stream (and, on churn_5k,
        the plan requests beside it), one checkpoint interval at a time;
        yield the index of each checkpoint after its journal replay.  The
        replay runs in the interval's idle end, before its last period is
        over, so the schedule keeps its rate."""
        for _ in range(self.cycles // self.chunk):
            end = self._interval(self.chunk)
            self.checkpoint()
            yield self.checkpoints_done
            self.checkpoints_done += 1
            time.sleep(max(0.0, end - clock()))

    def _interval(self, cycles: int) -> float:
        """``cycles`` cycles of the schedule; wait for their replans.
        Returns the time the last cycle's period ends."""
        spec, out, sc = self.spec, self.out, self.sc
        serve_offsets = None
        schedule = sorted(
            [(phase, True) for phase in spec.hits]
            + [(phase, False) for phase in spec.benign]
        )
        offsets = [
            (c + phase) * spec.period
            for c in range(cycles) for phase, _hit in schedule
        ]
        hits = {
            i for i, (_phase, hit) in enumerate(schedule * cycles) if hit
        }
        if spec.serves:
            serve_offsets = [
                (c + phase) * spec.period
                for c in range(cycles) for phase in spec.serves
            ]
        sc.planned["delta"] += len(offsets)
        sc.planned["replan"] += len(hits)
        # Which items the deltas name comes from the fixed seed: the cost
        # of re-materializing the catalog depends on them (closing an item
        # with many dependents cascades), and a few dozen deltas would
        # otherwise carry that mix into the medians.
        picks = [sc.fixed_rng.random() for _ in offsets]
        snapshots: List[frozenset] = []

        def fire(i: int):
            delta, session = self._next_delta(i in hits, picks[i])
            report = self.server.apply_delta(delta)
            if delta.kind == DELTA_CLOSE:
                self.closed[delta.item_id] = None
            elif delta.kind == DELTA_REOPEN:
                self.closed.pop(delta.item_id, None)
            snapshots.append(frozenset(self.closed))
            if session is not None:
                out.hits += 1
                # The session ingested the delta before apply_delta
                # returned, so the replan reads its version or a later one.
                event = Event(due=clock(), floor=report.catalog_version)
                event.sent = event.due
                future = self.server.submit_replan(
                    session, deadline_s=REQUEST_DEADLINE_S
                )
                future.add_done_callback(stamp(event))
                out.replans.append(event)
                self.replan_futures.append(future)
            return report

        start = clock() + 0.05
        reader = None
        if serve_offsets is not None:
            taken = self.cycles_done * len(spec.serves)
            starts = self.serve_starts[taken:taken + len(serve_offsets)]

            def serve_stream():
                out.serves.extend(
                    sc._open_serves(self.server, serve_offsets, starts, start)
                )

            reader = threading.Thread(target=serve_stream, name="arrivals")
            reader.start()
        try:
            events, _ = open_loop(
                offsets, fire, sync=True, start=start,
                stall=sc._stall(len(offsets)),
            )
        finally:
            if reader is not None:
                reader.join()
            await_all(self.replan_futures, out.replans)
        self.cycles_done += cycles
        out.deltas.extend(events)
        sc.lags.extend(e.lag for e in events)
        for event, closed in zip(
            (e for e in events if e.error is None), snapshots
        ):
            out.history.append(
                (event.sent, event.done, event.result.catalog_version, closed)
            )
        return start + cycles * spec.period

    def _next_delta(self, hit: bool, u: float):
        closed, sessions = self.closed, self.sessions
        if hit:
            # Sessions take suffix hits in turn; the pick names the item.
            first = self.rotation["hit"]
            self.rotation["hit"] += 1
            for k in range(len(sessions)):
                session = sessions[(first + k) % len(sessions)]
                suffix = [
                    item.item_id
                    for item in session.plan.items[session.executed:]
                    if item.item_id not in closed
                    and item.item_id not in self.protected
                ]
                if suffix:
                    target = suffix[int(u * len(suffix))]
                    return CatalogDelta(kind=DELTA_CLOSE, item_id=target), session
        # Other deltas rotate through a fixed mix of kinds: the kinds cost
        # differently, so a seeded mix would move the median ack.
        kind = BENIGN_KINDS[self.rotation["benign"] % len(BENIGN_KINDS)]
        self.rotation["benign"] += 1
        if closed and (kind == DELTA_REOPEN or len(closed) >= self.spec.max_closed):
            return CatalogDelta(kind=DELTA_REOPEN, item_id=next(iter(closed))), None
        base = self.service.catalog
        in_plans = {i.item_id for s in sessions for i in s.plan.items}
        benign = [
            item_id for item_id in base.item_ids
            if item_id not in closed and item_id not in self.protected
        ]
        quiet = [item_id for item_id in benign if item_id not in in_plans]
        if kind == DELTA_CLOSE and quiet:
            return CatalogDelta(kind=DELTA_CLOSE, item_id=quiet[int(u * len(quiet))]), None
        # Credit raises (and reverts) never break a course plan.
        target = benign[int(u * len(benign))]
        if self.credits.pop(target, None) is not None:
            value = base[target].credits
        else:
            value = self.credits[target] = base[target].credits + 1.0
        return (
            CatalogDelta(kind=DELTA_CREDIT_CHANGE, item_id=target, credits=value),
            None,
        )

    def close(self) -> None:
        self.server.close()
        self.service.journal.close()
        shutil.rmtree(self.journal_dir, ignore_errors=True)

    def checkpoint(self) -> None:
        """Warm restart: a fresh service replays a copy of the journal as
        it stands (every delta acknowledged, so fsync'd) and must reach
        the live catalog's item set, version and name."""
        live, out = self.service, self.out
        copy = tempfile.mkdtemp(dir=self.sc.work)
        shutil.copytree(self.journal_dir, copy, dirs_exist_ok=True)
        want = (
            set(live.live_catalog.item_ids),
            live.catalog_version,
            live.live_catalog.name,
        )
        gc.collect()  # a restart does not inherit the run's garbage
        t0 = clock()
        fresh = PlanningService(
            live.catalog, live.task, live.config, mode=live.mode,
            planner=live.planner, audit=False,
        )
        journal = DeltaJournal(copy)
        recovery = fresh.attach_journal(journal)
        out.recovery_s.append(clock() - t0)
        journal.close()
        shutil.rmtree(copy, ignore_errors=True)
        got = (
            set(fresh.live_catalog.item_ids),
            fresh.catalog_version,
            fresh.live_catalog.name,
        )
        if got != want or not recovery.restored:
            out.replay_mismatches.append(
                f"replayed v{got[1]} {got[2]} ({len(got[0])} items) != "
                f"live v{want[1]} {want[2]} ({len(want[0])} items)"
            )


def _deaf_to_closes(ingest):
    """``ingest`` that silently drops close deltas (a lost broadcast)."""

    def deaf(delta):
        if delta.kind == DELTA_CLOSE:
            return CLASS_BENIGN
        return ingest(delta)

    return deaf
