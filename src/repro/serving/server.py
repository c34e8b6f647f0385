"""Concurrent service front-end: a threaded traffic path for serving.

:class:`PlanningServer` multiplexes concurrent requests onto one
:class:`~repro.serving.facade.PlanningService` through a stdlib
``ThreadPoolExecutor``, adding the four things a single-threaded facade
cannot provide:

1. **Bounded admission queue + shedding.**  The executor's internal
   queue is unbounded, so the server tracks queued/in-flight counts
   itself and *sheds* (typed ``shed`` envelope, never an exception)
   when the backlog reaches ``max_queue``, when the estimated queue
   wait already exceeds the request's deadline (an EWMA of recent
   service times prices the wait), or when the server is draining.
   Provably-doomed requests are rejected on the caller's thread by the
   existing :func:`~repro.serving.admission.screen_request` fast
   screens before they ever occupy a queue slot.
2. **Arrival-anchored deadlines.**  The request's
   :class:`~repro.serving.deadline.Deadline` starts ticking at
   *admission*, so time spent queued counts against the budget; a
   request whose budget died in the queue is shed at dequeue instead of
   burning a worker on an already-lost cause.
3. **Graceful drain.**  :meth:`drain` stops admitting (new submits get
   ``shed``/``draining`` envelopes), lets every admitted request
   finish, and joins the pool — the shutdown path load tests exercise
   mid-flight.
4. **A wire protocol.**  :meth:`listen` exposes the same ``submit``
   path over a JSON-lines TCP socket (one request object per line, one
   envelope per line back), the minimal front-end a load balancer or
   the load generator can talk to across processes.

Everything beneath ``submit`` is the ordinary facade ladder — breakers,
degradation, registry — which is exactly the point: this is the layer
that puts real contention on the resilience machinery.

Thread-safety contract (see DESIGN.md §10): the server shares one
``PlanningService`` across workers; the facade keeps per-request state
on a per-request context and per-thread fallback rungs, the breakers
and metrics registry take locks, and this module's own counters are
guarded by ``_lock``.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.deltas import CatalogDelta, Delta, delta_from_payload
from ..core.exceptions import DataModelError, DeltaError, PlanningError
from ..core.plan import Plan
from ..obs import get_registry, labelled
from .admission import screen_request
from .deadline import Deadline
from .facade import (
    OUTCOME_REJECTED,
    DeltaReport,
    PlanningService,
    ServeRequest,
    ServeResult,
)
from .replan import (
    REPLAN_DRAINING,
    REPLAN_SHED,
    ReplanResult,
    ReplanSession,
)

#: Envelope outcome for a request the server refused to run at all.
OUTCOME_SHED = "shed"

#: Shed reasons (the ``reason`` label on ``server_shed_total``).
SHED_QUEUE_FULL = "queue_full"
SHED_DEADLINE_UNREACHABLE = "deadline_unreachable"
SHED_QUEUE_EXPIRED = "queue_expired"
SHED_DRAINING = "draining"
SHED_NOT_READY = "not_ready"

#: Wire-layer hardening defaults: a request line has no business being
#: anywhere near 64 KiB, and an idle connection is held open forever
#: unless the server opts into a timeout.
WIRE_MAX_LINE_BYTES = 64 * 1024

#: Server latency histogram buckets (seconds): sub-ms to 30 s.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0, 30.0,
)

#: EWMA smoothing for the service-time estimate behind deadline sheds.
EWMA_ALPHA = 0.2


class ServerClosed(RuntimeError):
    """The server was closed (not draining — fully shut down)."""


class PlanningServer:
    """Threaded front-end multiplexing requests onto a PlanningService.

    Parameters
    ----------
    service:
        The (fitted / registry-attached) facade answering requests.
    workers:
        Thread-pool size.
    max_queue:
        Bound on *queued* (admitted, not yet running) requests; the
        queue-full shed threshold.
    default_deadline_s:
        Budget applied to requests that do not carry their own.
    drain_session_grace_s:
        Per-session replan budget :meth:`drain` grants open
        :class:`~repro.serving.replan.ReplanSession`s with unresolved
        deltas before shedding them with a ``draining`` envelope.
    clock:
        Injectable monotonic clock (tests drive shedding without
        sleeping).
    ready:
        Start in the ready state.  A recovering front-end passes
        ``False`` and calls :meth:`mark_ready` once journal replay has
        completed, so plan requests shed (``not_ready``) instead of
        serving pre-replay state; ``{"op": "ready"}`` probes report it.
    wire_max_line_bytes:
        Hard bound on one JSON-lines request line; an oversized line
        gets a typed ``error`` envelope and the connection is dropped
        (a client streaming garbage cannot balloon server memory).
    wire_idle_timeout_s:
        Per-connection idle timeout for the socket listener; ``None``
        keeps connections forever (the pre-hardening behaviour).
    """

    def __init__(
        self,
        service: PlanningService,
        workers: int = 4,
        max_queue: int = 32,
        default_deadline_s: Optional[float] = None,
        drain_session_grace_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        ready: bool = True,
        wire_max_line_bytes: int = WIRE_MAX_LINE_BYTES,
        wire_idle_timeout_s: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if wire_max_line_bytes < 2:
            raise ValueError("wire_max_line_bytes must be >= 2")
        if wire_idle_timeout_s is not None and wire_idle_timeout_s <= 0:
            raise ValueError("wire_idle_timeout_s must be positive")
        self.service = service
        self.workers = workers
        self.max_queue = max_queue
        self.default_deadline_s = default_deadline_s
        self.drain_session_grace_s = drain_session_grace_s
        self.clock = clock
        self.wire_max_line_bytes = wire_max_line_bytes
        self.wire_idle_timeout_s = wire_idle_timeout_s
        self._ready = ready
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="plansrv"
        )
        self._lock = threading.Lock()
        self._queued = 0
        self._inflight = 0
        self._ewma_service_s: Optional[float] = None
        self._draining = False
        self._closed = False
        self._tcp_server: Optional[_JsonLineTcpServer] = None
        self._tcp_thread: Optional[threading.Thread] = None
        self._sessions: Dict[str, ReplanSession] = {}
        self._session_seq = 0

    # ------------------------------------------------------------------
    # Admission + dispatch
    # ------------------------------------------------------------------

    def submit(
        self,
        request: Optional[ServeRequest] = None,
        *,
        start_item_id: Optional[str] = None,
        deadline_s: Optional[float] = None,
        horizon: Optional[int] = None,
    ) -> "Future[ServeResult]":
        """Admit one request; returns a future resolving to its envelope.

        Sheds (an immediately-completed future carrying a ``shed``
        envelope) instead of blocking or raising when the queue is
        full, the deadline is provably unreachable, or the server is
        draining.  Raises :class:`ServerClosed` only after
        :meth:`close`.
        """
        if request is None:
            request = ServeRequest(
                start_item_id=start_item_id,
                deadline_s=deadline_s,
                horizon=horizon,
            )
        if request.deadline_s is None and self.default_deadline_s is not None:
            request = ServeRequest(
                start_item_id=request.start_item_id,
                deadline_s=self.default_deadline_s,
                horizon=request.horizon,
            )
        obs = get_registry()
        if self._closed:
            raise ServerClosed("server is closed")
        if not self.ready:  # property: reads the flag under _lock
            # Journal replay hasn't completed: serving now could hand
            # out plans over pre-crash state (closed items included).
            return self._shed(request, SHED_NOT_READY)

        # Fast screen on the caller's thread: a provably-doomed request
        # must not occupy a queue slot or a worker.
        screen = screen_request(
            getattr(self.service, "catalog_view", None)
            or self.service.live_catalog,
            self.service.task,
            self.service.mode,
            request.start_item_id,
        )
        if screen.rejected:
            for finding in screen.findings:
                obs.inc(
                    labelled("admission_rejects_total", code=finding.code)
                )
            obs.inc(
                labelled("server_requests_total", outcome=OUTCOME_REJECTED)
            )
            return _completed(
                ServeResult(
                    outcome=OUTCOME_REJECTED,
                    admission=screen,
                    deadline_s=request.deadline_s,
                    catalog_version=getattr(
                        self.service, "catalog_version", 0
                    ),
                )
            )

        with self._lock:
            if self._draining:
                return self._shed(request, SHED_DRAINING)
            if self._queued >= self.max_queue:
                return self._shed(request, SHED_QUEUE_FULL)
            if request.deadline_s is not None:
                wait = self._estimated_wait_locked()
                if wait >= request.deadline_s:
                    return self._shed(request, SHED_DEADLINE_UNREACHABLE)
            self._queued += 1
            obs.set_gauge("server_queue_depth", self._queued)
        deadline = Deadline(request.deadline_s, clock=self.clock)
        admitted_at = self.clock()
        return self._executor.submit(
            self._work, request, deadline, admitted_at
        )

    def handle(
        self,
        request: Optional[ServeRequest] = None,
        **kwargs: Any,
    ) -> ServeResult:
        """Synchronous :meth:`submit` (closed-loop clients block here)."""
        return self.submit(request, **kwargs).result()

    def _work(
        self, request: ServeRequest, deadline: Deadline, admitted_at: float
    ) -> ServeResult:
        obs = get_registry()
        with self._lock:
            self._queued -= 1
            self._inflight += 1
            obs.set_gauge("server_queue_depth", self._queued)
        try:
            queue_wait = max(0.0, self.clock() - admitted_at)
            obs.histogram(
                "server_queue_wait_seconds", LATENCY_BUCKETS
            ).observe(queue_wait)
            if deadline.expired:
                # The whole budget died in the queue: shed at dequeue
                # rather than burn a worker on a lost cause.
                obs.inc(
                    labelled("server_shed_total", reason=SHED_QUEUE_EXPIRED)
                )
                obs.inc(
                    labelled("server_requests_total", outcome=OUTCOME_SHED)
                )
                return ServeResult(
                    outcome=OUTCOME_SHED,
                    deadline_s=request.deadline_s,
                    deadline_spent=deadline.elapsed(),
                    deadline_exceeded=True,
                )
            t0 = self.clock()
            result = self.service.serve(request, deadline=deadline)
            service_s = max(0.0, self.clock() - t0)
            with self._lock:
                if self._ewma_service_s is None:
                    self._ewma_service_s = service_s
                else:
                    self._ewma_service_s = (
                        EWMA_ALPHA * service_s
                        + (1.0 - EWMA_ALPHA) * self._ewma_service_s
                    )
            obs.inc(
                labelled("server_requests_total", outcome=result.outcome)
            )
            obs.histogram(
                "server_latency_seconds", LATENCY_BUCKETS
            ).observe(queue_wait + service_s)
            return result
        finally:
            with self._lock:
                self._inflight -= 1

    def _estimated_wait_locked(self) -> float:
        """Expected seconds before a new arrival reaches a worker."""
        if self._ewma_service_s is None:
            return 0.0
        backlog = self._queued + max(0, self._inflight - self.workers + 1)
        return self._ewma_service_s * (backlog / self.workers)

    def _shed(
        self, request: ServeRequest, reason: str
    ) -> "Future[ServeResult]":
        obs = get_registry()
        obs.inc(labelled("server_shed_total", reason=reason))
        obs.inc(labelled("server_requests_total", outcome=OUTCOME_SHED))
        return _completed(
            ServeResult(
                outcome=OUTCOME_SHED,
                deadline_s=request.deadline_s,
            )
        )

    # ------------------------------------------------------------------
    # Sessions + world deltas
    # ------------------------------------------------------------------

    def open_session(
        self, plan: Plan, executed: int = 0
    ) -> ReplanSession:
        """Register a mid-execution plan for delta broadcast + replans."""
        if self._closed:
            raise ServerClosed("server is closed")
        with self._lock:
            if self._draining:
                raise PlanningError(
                    "server is draining; no new replan sessions"
                )
            self._session_seq += 1
            session_id = f"s{self._session_seq}"
        session = self.service.open_session(
            plan, executed=executed, session_id=session_id
        )
        with self._lock:
            # Re-check: a drain() that began while the session was being
            # built has already run its quiesce pass, which would never
            # see this session — reject instead of leaking a live
            # session on a drained server.
            draining = self._draining
            if not draining:
                self._sessions[session_id] = session
        if draining:
            session.quiesce(grace_s=0.0)
            raise PlanningError(
                "server is draining; no new replan sessions"
            )
        return session

    def sessions(self) -> Tuple[ReplanSession, ...]:
        """Snapshot of registered sessions (drained ones included)."""
        with self._lock:
            return tuple(self._sessions.values())

    def apply_delta(self, delta: Delta) -> Optional[DeltaReport]:
        """Fold one world delta in and broadcast it to open sessions.

        Catalog deltas go through the service (folding them into the
        live view and invalidating the policy fingerprint) *and* to
        every non-drained session; constraint deltas are session-scoped
        and only broadcast.  Returns the service's
        :class:`~repro.serving.facade.DeltaReport` for catalog deltas,
        ``None`` for constraint deltas.
        """
        if self._closed:
            raise ServerClosed("server is closed")
        obs = get_registry()
        report: Optional[DeltaReport] = None
        if isinstance(delta, CatalogDelta):
            report = self.service.apply_delta(delta)
            if report.duplicate:
                # A journal-deduped retry: the world did not change, so
                # re-broadcasting would double-log the event in every
                # session's decision log.
                return report
        for session in self.sessions():
            if session.drained:
                continue
            try:
                session.ingest(delta)
            except (PlanningError, DeltaError):
                # The session drained between the check and the ingest,
                # or its view cannot absorb this delta.  Record it and
                # keep broadcasting — one failing session must not
                # starve the sessions after it in the list.
                obs.inc(
                    labelled(
                        "server_session_ingest_errors_total",
                        kind=delta.kind,
                    )
                )
        return report

    def submit_replan(
        self,
        session: ReplanSession,
        deadline_s: Optional[float] = None,
    ) -> "Future[ReplanResult]":
        """Admit one replan onto the worker pool (same queue accounting).

        Replans share the serve path's backpressure: a full queue sheds
        with a typed ``shed`` envelope so a replan burst cannot bypass
        ``max_queue``.  While draining, replans are shed with a typed
        ``draining`` envelope instead of being enqueued — the quiesce
        pass in :meth:`drain` is the only replanning after that.
        """
        obs = get_registry()
        if self._closed:
            raise ServerClosed("server is closed")
        with self._lock:
            if self._draining:
                obs.inc(
                    labelled("server_shed_total", reason=SHED_DRAINING)
                )
                return _completed(
                    ReplanResult(
                        outcome=REPLAN_DRAINING,
                        trigger="drain",
                        suffix_start=session.executed,
                        session_id=session.session_id,
                    )
                )
            if self._queued >= self.max_queue:
                obs.inc(
                    labelled("server_shed_total", reason=SHED_QUEUE_FULL)
                )
                return _completed(
                    ReplanResult(
                        outcome=REPLAN_SHED,
                        trigger="queue_full",
                        suffix_start=session.executed,
                        session_id=session.session_id,
                    )
                )
            self._queued += 1
            obs.set_gauge("server_queue_depth", self._queued)
        return self._executor.submit(
            self._replan_work, session, deadline_s
        )

    def _replan_work(
        self, session: ReplanSession, deadline_s: Optional[float]
    ) -> ReplanResult:
        obs = get_registry()
        with self._lock:
            self._queued -= 1
            self._inflight += 1
            obs.set_gauge("server_queue_depth", self._queued)
        try:
            return session.replan(deadline_s=deadline_s)
        finally:
            with self._lock:
                self._inflight -= 1

    def _quiesce_sessions(self) -> None:
        """Finish-or-shed every open session at drain time."""
        obs = get_registry()
        for session in self.sessions():
            if session.drained:
                continue
            result = session.quiesce(
                grace_s=self.drain_session_grace_s
            )
            outcome = (
                "shed" if result.outcome == REPLAN_DRAINING else "finished"
            )
            obs.inc(
                labelled(
                    "server_sessions_quiesced_total", outcome=outcome
                )
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Point-in-time queue/pool state (for logs and tests)."""
        with self._lock:
            return {
                "queued": self._queued,
                "inflight": self._inflight,
                "workers": self.workers,
                "max_queue": self.max_queue,
                "draining": self._draining,
                "ready": self._ready,
                "sessions": len(self._sessions),
                "ewma_service_ms": (
                    None
                    if self._ewma_service_s is None
                    else 1e3 * self._ewma_service_s
                ),
            }

    @property
    def ready(self) -> bool:
        """True once :meth:`mark_ready` ran (or the server started ready)."""
        with self._lock:
            return self._ready

    def mark_ready(self) -> None:
        """Open the floodgates: journal replay (if any) has completed."""
        with self._lock:
            self._ready = True
        get_registry().set_gauge("server_ready", 1)

    def health(self) -> Dict[str, Any]:
        """The ``{"op": "health"}`` probe payload: liveness + durability.

        Superset of :meth:`stats` with catalog/journal provenance — what
        an operator needs to decide whether a restarted replica has
        actually converged (watermark, pending refit, live version).
        """
        service = self.service
        payload = self.stats()
        payload["outcome"] = "health"
        payload["catalog_version"] = service.catalog_version
        payload["journal_attached"] = service.journal is not None
        payload["journal_seq"] = service.journal_seq
        payload["pending_refit"] = service.pending_policy_key
        registry = service.policy_registry
        payload["refits_in_flight"] = (
            registry.refits_in_flight if registry is not None else 0
        )
        return payload

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Stop admitting, finish every admitted request, join the pool.

        After the pool quiesces, every open replan session is drained
        too: sessions with unresolved deltas get one final bounded
        replan (``drain_session_grace_s``), the rest are shed with a
        typed ``draining`` envelope — no session is left half-updated.
        """
        with self._lock:
            self._draining = True
        if self._tcp_server is not None:
            self._tcp_server.shutdown()
        self._executor.shutdown(wait=True)
        self._quiesce_sessions()

    def close(self) -> None:
        """Drain, tear down the socket listener, and reject new submits."""
        self.drain()
        if self._tcp_server is not None:
            self._tcp_server.server_close()
            self._tcp_server = None
        if self._tcp_thread is not None:
            self._tcp_thread.join(timeout=5.0)
            self._tcp_thread = None
        self._closed = True

    def __enter__(self) -> "PlanningServer":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # JSON-lines socket front-end
    # ------------------------------------------------------------------

    def listen(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Serve the JSON-lines protocol on a TCP socket.

        Returns the bound ``(host, port)`` (``port=0`` picks a free
        one).  Each connection may pipeline many newline-delimited
        request objects; each gets one envelope line back.  The accept
        loop runs on a daemon thread; :meth:`close` tears it down.
        """
        if self._tcp_server is not None:
            raise RuntimeError("server is already listening")
        self._tcp_server = _JsonLineTcpServer((host, port), self)
        self._tcp_thread = threading.Thread(
            target=self._tcp_server.serve_forever,
            name="plansrv-accept",
            daemon=True,
        )
        self._tcp_thread.start()
        bound = self._tcp_server.server_address
        return str(bound[0]), int(bound[1])


def _completed(result: Any) -> "Future[Any]":
    future: "Future[Any]" = Future()
    future.set_result(result)
    return future


# ----------------------------------------------------------------------
# Wire codecs (JSON-lines protocol)
# ----------------------------------------------------------------------


def request_from_payload(payload: Dict[str, Any]) -> ServeRequest:
    """Decode one request line; raises ``ValueError`` on bad fields."""
    if not isinstance(payload, dict):
        raise ValueError("request must be a JSON object")
    known = {"start", "deadline_s", "horizon"}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown request fields: {sorted(unknown)}")
    start = payload.get("start")
    if start is not None and not isinstance(start, str):
        raise ValueError("start must be a string item id")
    deadline_s = payload.get("deadline_s")
    if deadline_s is not None:
        deadline_s = float(deadline_s)
        if deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
    horizon = payload.get("horizon")
    if horizon is not None:
        horizon = int(horizon)
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
    return ServeRequest(
        start_item_id=start, deadline_s=deadline_s, horizon=horizon
    )


def result_to_payload(result: ServeResult) -> Dict[str, Any]:
    """Encode one envelope as a JSON-ready dict (wire + load reports)."""
    return {
        "outcome": result.outcome,
        "catalog_version": result.catalog_version,
        "rung": result.rung,
        "degraded": result.degraded,
        "valid": result.ok,
        "score": None if result.score is None else result.score.value,
        "plan": (
            None if result.plan is None else list(result.plan.item_ids)
        ),
        "policy": result.policy,
        "plan_cache_hit": result.plan_cache_hit,
        "deadline_s": result.deadline_s,
        "deadline_spent": result.deadline_spent,
        "deadline_exceeded": result.deadline_exceeded,
        "attempts": [
            {
                "rung": attempt.rung,
                "outcome": attempt.outcome,
                "seconds": attempt.seconds,
                "error": attempt.error,
            }
            for attempt in result.attempts
        ],
    }


class _JsonLineHandler(socketserver.StreamRequestHandler):
    """One connection: newline-delimited request → envelope exchanges.

    Hardened against the three classic line-protocol abuses: an
    oversized line (bounded ``readline`` — typed error + disconnect
    instead of unbounded buffering), an idle connection (socket
    timeout), and a client that vanished mid-reply (``_reply`` swallows
    the broken pipe instead of tracebacking the handler thread).  Every
    drop is counted under ``server_wire_errors_total`` by kind.
    """

    def handle(self) -> None:
        server: _JsonLineTcpServer = self.server  # type: ignore[assignment]
        planning = server.planning_server
        max_line = planning.wire_max_line_bytes
        idle_timeout = planning.wire_idle_timeout_s
        if idle_timeout is not None:
            self.connection.settimeout(idle_timeout)
        while True:
            try:
                raw = self.rfile.readline(max_line + 1)
            except socket.timeout:
                get_registry().inc(
                    labelled("server_wire_errors_total", kind="idle_timeout")
                )
                return
            except (ConnectionResetError, OSError):
                get_registry().inc(
                    labelled("server_wire_errors_total", kind="reset")
                )
                return
            if not raw:
                return  # EOF: client closed cleanly.
            if len(raw) > max_line:
                get_registry().inc(
                    labelled("server_wire_errors_total", kind="oversized")
                )
                self._reply(
                    {
                        "outcome": "error",
                        "error": (
                            f"line exceeds {max_line} bytes; "
                            f"closing connection"
                        ),
                    }
                )
                return
            line = raw.strip()
            if not line:
                continue
            try:
                payload = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                get_registry().inc(
                    labelled("server_wire_errors_total", kind="malformed")
                )
                if not self._reply(
                    {"outcome": "error", "error": str(exc)}
                ):
                    return
                continue
            if isinstance(payload, dict) and "op" in payload:
                if not self._handle_op(payload):
                    return
                continue
            if isinstance(payload, dict) and "delta" in payload:
                if not self._handle_delta(payload):
                    return
                continue
            try:
                request = request_from_payload(payload)
            except ValueError as exc:
                if not self._reply(
                    {"outcome": "error", "error": str(exc)}
                ):
                    return
                continue
            try:
                result = planning.handle(request)
            except ServerClosed:
                self._reply(
                    {"outcome": "error", "error": "server is closed"}
                )
                return
            if not self._reply(result_to_payload(result)):
                return

    def _handle_op(self, payload: Dict[str, Any]) -> bool:
        """One ``{"op": ...}`` control line (health/ready probes)."""
        planning = self.server.planning_server  # type: ignore[attr-defined]
        op = payload.get("op")
        extra = set(payload) - {"op"}
        if extra:
            return self._reply(
                {
                    "outcome": "error",
                    "error": f"unknown op fields: {sorted(extra)}",
                }
            )
        if op == "health":
            return self._reply(planning.health())
        if op == "ready":
            return self._reply(
                {"outcome": "ready", "ready": planning.ready}
            )
        return self._reply(
            {"outcome": "error", "error": f"unknown op {op!r}"}
        )

    def _handle_delta(self, payload: Dict[str, Any]) -> bool:
        """One ``{"delta": {...}}`` line: apply a world delta event."""
        server: _JsonLineTcpServer = self.server  # type: ignore[assignment]
        planning_server = server.planning_server
        extra = set(payload) - {"delta"}
        if extra:
            return self._reply(
                {
                    "outcome": "error",
                    "error": f"unknown delta fields: {sorted(extra)}",
                }
            )
        try:
            delta = delta_from_payload(payload["delta"])
            report = planning_server.apply_delta(delta)
        except (DeltaError, DataModelError, ValueError) as exc:
            return self._reply({"outcome": "error", "error": str(exc)})
        except ServerClosed:
            self._reply({"outcome": "error", "error": "server is closed"})
            return False
        reply: Dict[str, Any] = {
            "outcome": "delta_applied",
            "kind": delta.kind,
            "catalog_version": planning_server.service.catalog_version,
        }
        if report is not None:
            reply["seq"] = report.seq
            reply["duplicate"] = report.duplicate
            reply["findings"] = [f.code for f in report.findings]
            reply["fingerprint_changed"] = report.fingerprint_changed
            reply["refit_scheduled"] = report.refit_scheduled
        return self._reply(reply)

    def _reply(self, payload: Dict[str, Any]) -> bool:
        """Write one envelope line; False when the client vanished.

        A broken pipe / reset here is the *client's* lifecycle event,
        not a server error — counted, logged at debug level by the
        socketserver machinery, and the handler loop just ends.
        """
        try:
            self.wfile.write(
                (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            )
            self.wfile.flush()
            return True
        except (BrokenPipeError, ConnectionResetError, OSError):
            get_registry().inc(
                labelled("server_wire_errors_total", kind="client_gone")
            )
            return False


class _JsonLineTcpServer(socketserver.ThreadingTCPServer):
    """Threading TCP server bound to one :class:`PlanningServer`.

    Connection threads only parse lines and block in ``handle`` — all
    backpressure still happens in the planning server's admission path,
    so a thousand idle connections cost threads but cannot bypass the
    bounded queue.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        planning_server: PlanningServer,
    ) -> None:
        self.planning_server = planning_server
        super().__init__(address, _JsonLineHandler)
