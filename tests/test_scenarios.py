"""Scenario generators and the server's dynamic-world surface.

Schedule determinism and spec parsing; the adversarial prereq-cut drill
(every served plan stays valid against the live catalog); burst churn
through the load generator (shed/degrade, never serve a plan with a
closed item); delta events over the JSON-lines wire; and drain-time
session quiescing.
"""

from __future__ import annotations

import json
import socket

import pytest
from conftest import make_item, make_task

from repro.core.catalog import Catalog
from repro.core.config import PlannerConfig
from repro.core.deltas import (
    DELTA_CLOSE,
    DELTA_REOPEN,
    CatalogDelta,
)
from repro.core.items import ItemType, Prerequisites
from repro.obs import MetricsRegistry, use_registry
from repro.scenarios import (
    ChurnEvent,
    burst_schedule,
    poisson_schedule,
    prereq_cut_schedule,
    schedule_from_spec,
)
from repro.core.exceptions import DeltaError
from repro.serving import (
    REPLAN_DRAINING,
    REPLAN_SHED,
    DeltaJournal,
    PlanningServer,
    PlanningService,
    ServeRequest,
    closed_loop,
)
from repro.serving.loadgen import SERVED_OUTCOMES

pytestmark = [pytest.mark.serving, pytest.mark.scenarios]


def _catalog() -> Catalog:
    items = [
        make_item("p1", ItemType.PRIMARY, topics={"t1"}),
        make_item("p2", ItemType.PRIMARY, topics={"t2"}),
        make_item("p3", ItemType.PRIMARY, topics={"t3"}),
        make_item("p4", ItemType.PRIMARY, topics={"t4"}),
        make_item("p5", ItemType.PRIMARY, topics={"t1", "t3"}),
        make_item("s1", ItemType.SECONDARY, topics={"t1"}),
        make_item(
            "s2",
            ItemType.SECONDARY,
            topics={"t2"},
            prereqs=Prerequisites.all_of(["p1"]),
        ),
        make_item(
            "s3",
            ItemType.SECONDARY,
            topics={"t3"},
            prereqs=Prerequisites.any_of(["p2", "p3"]),
        ),
        make_item("s4", ItemType.SECONDARY, topics={"t4"}),
        make_item("s5", ItemType.SECONDARY, topics={"t2", "t4"}),
    ]
    return Catalog(items, name="scenario-unit")


@pytest.fixture(scope="module")
def catalog() -> Catalog:
    return _catalog()


@pytest.fixture(scope="module")
def fitted_proto(catalog):
    service = PlanningService(
        catalog, make_task(), PlannerConfig(episodes=250, seed=3)
    )
    service.fit()
    return service


@pytest.fixture()
def service(fitted_proto):
    return PlanningService(
        fitted_proto.catalog,
        fitted_proto.task,
        fitted_proto.config,
        planner=fitted_proto.planner,
    )


class TestSchedules:
    def test_poisson_is_seed_deterministic(self, catalog):
        a = poisson_schedule(catalog, seed=7, rate=8.0, reopen_rate=4.0)
        b = poisson_schedule(catalog, seed=7, rate=8.0, reopen_rate=4.0)
        assert a.to_dict() == b.to_dict()
        c = poisson_schedule(catalog, seed=8, rate=8.0, reopen_rate=4.0)
        assert a.to_dict() != c.to_dict()

    def test_poisson_respects_max_closed_fraction(self, catalog):
        schedule = poisson_schedule(
            catalog,
            seed=1,
            rate=200.0,
            reopen_rate=0.0,
            max_closed_fraction=0.3,
        )
        closures = [
            e for e in schedule.events if e.delta.kind == DELTA_CLOSE
        ]
        assert 0 < len(closures) <= int(0.3 * len(catalog))

    def test_burst_closes_then_reopens(self, catalog):
        schedule = burst_schedule(
            catalog, seed=2, every=0.25, length=0.1, per_burst=2
        )
        closes = [
            e for e in schedule.events if e.delta.kind == DELTA_CLOSE
        ]
        reopens = [
            e for e in schedule.events if e.delta.kind == DELTA_REOPEN
        ]
        assert len(closes) == len(reopens) == 8
        assert {e.delta.item_id for e in closes} == {
            e.delta.item_id for e in reopens
        }
        assert schedule.to_dict() == burst_schedule(
            catalog, seed=2, every=0.25, length=0.1, per_burst=2
        ).to_dict()

    def test_prereq_cut_targets_load_bearing_antecedents(self, catalog):
        schedule = prereq_cut_schedule(catalog, seed=0, cuts=2)
        cut_ids = {e.delta.item_id for e in schedule.events}
        # p1, p2, p3 are the only antecedents; the two chosen must come
        # from that set.
        assert cut_ids <= {"p1", "p2", "p3"}
        assert len(cut_ids) == 2

    def test_prereq_cut_prioritizes_committed_prefix(
        self, catalog, fitted_proto
    ):
        plan = fitted_proto.serve().plan
        schedule = prereq_cut_schedule(
            catalog, seed=0, cuts=1, plan=plan, executed=2
        )
        prefix_antecedents = set(plan.item_ids[:2]) & {"p1", "p2", "p3"}
        if prefix_antecedents:
            assert schedule.events[0].delta.item_id in prefix_antecedents

    def test_events_until_is_ordered_filter(self, catalog):
        schedule = poisson_schedule(catalog, seed=3, rate=10.0)
        due = schedule.events_until(0.5)
        assert all(e.at <= 0.5 for e in due)
        assert list(due) == [e for e in schedule.events if e.at <= 0.5]

    def test_event_fraction_validated(self, catalog):
        with pytest.raises(ValueError):
            ChurnEvent(
                at=1.5,
                delta=CatalogDelta(kind=DELTA_CLOSE, item_id="p1", seq=1),
            )


class TestSpecParsing:
    def test_round_trip_specs(self, catalog):
        for spec, kind in (
            ("poisson:rate=6,reopen=3,seed=4", "poisson"),
            ("cut:cuts=2,at=0.5,seed=1", "cut"),
            ("burst:every=0.25,len=0.1,per=2,seed=9", "burst"),
        ):
            schedule = schedule_from_spec(catalog, spec)
            assert schedule.kind == kind
            assert schedule.to_dict() == schedule_from_spec(
                catalog, spec
            ).to_dict()

    def test_unknown_kind_rejected(self, catalog):
        with pytest.raises(ValueError):
            schedule_from_spec(catalog, "meteor:rate=1")

    def test_unknown_field_rejected(self, catalog):
        with pytest.raises(ValueError):
            schedule_from_spec(catalog, "burst:every=0.25,wat=1")

    def test_bad_value_rejected(self, catalog):
        with pytest.raises(ValueError):
            schedule_from_spec(catalog, "poisson:rate=fast")


class TestChurnUnderLoad:
    def test_burst_churn_never_serves_closed_items(self, service):
        server = PlanningServer(service, workers=1, max_queue=8)
        try:
            report = closed_loop(
                server,
                concurrency=1,
                requests=24,
                deadline_s=5.0,
                churn_spec="burst:every=0.25,len=0.1,per=2,seed=5",
            )
        finally:
            server.close()
        assert report["invalid_served"] == 0
        assert report["churn"]["applied"] > 0
        assert report["churn"]["errors"] == 0
        assert sum(report["outcomes"].values()) == 24

    def test_adversarial_prereq_cut_drill(self, service):
        """Every served plan must pass validation against the live world."""
        server = PlanningServer(service, workers=1, max_queue=8)
        try:
            report = closed_loop(
                server,
                concurrency=1,
                requests=16,
                deadline_s=5.0,
                churn_spec="cut:cuts=2,at=0.5,seed=0",
            )
        finally:
            server.close()
        assert report["invalid_served"] == 0
        assert report["churn"]["applied"] == 2
        # Post-drill: plans served now must avoid the cut items and
        # their orphaned dependents.
        live = service.live_catalog
        result = service.serve()
        if result.outcome in SERVED_OUTCOMES:
            assert all(i in live for i in result.plan.item_ids)

    def test_open_sessions_receive_broadcast_deltas(self, service):
        server = PlanningServer(service, workers=1, max_queue=8)
        try:
            plan = service.serve().plan
            session = server.open_session(plan, executed=1)
            victim = plan.item_ids[-1]
            report = server.apply_delta(
                CatalogDelta(kind=DELTA_CLOSE, item_id=victim, seq=1)
            )
            assert report is not None and report.catalog_version == 1
            assert session.pending_deltas == 1
            future = server.submit_replan(session, deadline_s=5.0)
            result = future.result(timeout=30.0)
            assert result.ok
            assert victim not in result.plan.item_ids
        finally:
            server.close()

    def test_broadcast_survives_one_failing_session(self, service):
        """A session whose ingest raises must not starve the sessions
        after it in the broadcast list (REVIEW: high)."""

        class _Exploding:
            session_id = "boom"
            drained = False
            executed = 0

            def ingest(self, delta):
                raise DeltaError("cannot absorb this delta")

        server = PlanningServer(service, workers=1, max_queue=8)
        try:
            plan = service.serve().plan
            with server._lock:
                server._sessions["boom"] = _Exploding()
            healthy = server.open_session(plan, executed=1)
            victim = plan.item_ids[-1]
            report = server.apply_delta(
                CatalogDelta(kind=DELTA_CLOSE, item_id=victim, seq=1)
            )
            # The service-level state moved and the healthy session
            # (broadcast after the exploding one) still got the delta.
            assert report is not None and report.catalog_version == 1
            assert healthy.pending_deltas == 1
        finally:
            with server._lock:
                server._sessions.pop("boom", None)
            server.close()

    def test_replan_sheds_at_queue_full(self, service):
        """Replans share the serve path's max_queue backpressure."""
        server = PlanningServer(service, workers=1, max_queue=1)
        try:
            plan = service.serve().plan
            session = server.open_session(plan, executed=1)
            with server._lock:
                server._queued = server.max_queue  # simulate a full queue
            shed = server.submit_replan(session, deadline_s=1.0).result()
            assert shed.outcome == REPLAN_SHED
            assert shed.trigger == "queue_full"
            with server._lock:
                server._queued = 0
        finally:
            server.close()

    def test_drain_quiesces_open_sessions(self, service):
        obs = MetricsRegistry()
        with use_registry(obs):
            server = PlanningServer(
                service,
                workers=1,
                max_queue=8,
                drain_session_grace_s=5.0,
            )
            plan = service.serve().plan
            finishing = server.open_session(plan, executed=1)
            finishing.ingest(
                CatalogDelta(
                    kind=DELTA_CLOSE, item_id=plan.item_ids[-1], seq=1
                )
            )
            idle = server.open_session(plan, executed=1)
            server.drain()
            assert finishing.drained and idle.drained
            assert finishing.last_result.outcome != REPLAN_DRAINING
            assert idle.last_result.outcome == REPLAN_DRAINING
            payload = obs.snapshot()["counters"]
            quiesced = {
                name: count
                for name, count in payload.items()
                if name.startswith("server_sessions_quiesced_total")
            }
            assert sum(quiesced.values()) == 2
            # Replans after drain shed with the typed draining envelope.
            shed = server.submit_replan(idle, deadline_s=1.0).result()
            assert shed.outcome == REPLAN_DRAINING
            server.close()

    def test_draining_server_rejects_new_sessions(self, service):
        from repro.core.exceptions import PlanningError

        server = PlanningServer(service, workers=1, max_queue=8)
        plan = service.serve().plan
        server.drain()
        with pytest.raises(PlanningError):
            server.open_session(plan)
        server.close()


class TestWireDeltas:
    def _roundtrip(self, sock_file, wfile, payload):
        wfile.write((json.dumps(payload) + "\n").encode("utf-8"))
        wfile.flush()
        return json.loads(sock_file.readline().decode("utf-8"))

    def test_delta_events_over_the_wire(self, service):
        server = PlanningServer(service, workers=2, max_queue=8)
        victim = service.serve().plan.item_ids[-1]
        try:
            host, port = server.listen()
            with socket.create_connection((host, port), timeout=10.0) as conn:
                rfile = conn.makefile("rb")
                wfile = conn.makefile("wb")
                reply = self._roundtrip(
                    rfile,
                    wfile,
                    {"delta": {"kind": DELTA_CLOSE, "item": victim}},
                )
                assert reply["outcome"] == "delta_applied"
                assert reply["kind"] == DELTA_CLOSE
                assert reply["catalog_version"] == 1
                assert reply["fingerprint_changed"] is False
                # A follow-up request must avoid the closed item and
                # carry delta provenance in its envelope.
                served = self._roundtrip(rfile, wfile, {"deadline_s": 5.0})
                assert served["outcome"] in SERVED_OUTCOMES
                assert served["catalog_version"] == 1
                assert victim not in served["plan"]
                # Malformed deltas get typed error envelopes.
                bad = self._roundtrip(
                    rfile,
                    wfile,
                    {"delta": {"kind": "close", "item": "ghost"}},
                )
                assert bad["outcome"] == "error"
                worse = self._roundtrip(
                    rfile,
                    wfile,
                    {"delta": {"kind": "melt", "item": victim}},
                )
                assert worse["outcome"] == "error"
        finally:
            server.close()


class TestLiveMaskCache:
    """A stale policy reads the churned universe through a live mask the
    facade builds once per catalog version."""

    def test_mask_built_once_per_catalog_version(self, service, catalog):
        assert service._sarsa_allowed(service.planner) is None  # no churn yet
        service.apply_delta(CatalogDelta(kind=DELTA_CLOSE, item_id="s4"))
        first = service._sarsa_allowed(service.planner)
        assert first is service._sarsa_allowed(service.planner)  # cached
        assert first.tolist() == [i != "s4" for i in catalog.item_ids]
        result = service.serve(start_item_id="p1")
        assert result.plan is not None
        assert "s4" not in result.plan.item_ids

        service.apply_delta(CatalogDelta(kind=DELTA_CLOSE, item_id="s5"))
        second = service._sarsa_allowed(service.planner)
        assert second is not first
        assert second.tolist() == [
            i not in ("s4", "s5") for i in catalog.item_ids
        ]
        service.apply_delta(CatalogDelta(kind=DELTA_REOPEN, item_id="s4"))
        service.apply_delta(CatalogDelta(kind=DELTA_REOPEN, item_id="s5"))
        # Back to the policy's own universe: no filter at all.
        assert service._sarsa_allowed(service.planner) is None


class TestNoMaterialization:
    """The hot paths read the view's masks: serving, delta acks, session
    ingests, sarsa replans and journal recovery never build the live
    catalog; the first cold read builds it once for its version."""

    def test_churn_never_materializes_live_catalog(
        self, service, tmp_path, monkeypatch
    ):
        import repro.core.deltas as deltas

        built = []
        original = deltas._materialize

        def counting(state):
            built.append(state.version)
            return original(state)

        monkeypatch.setattr(deltas, "_materialize", counting)
        # Compacting every two records makes recovery restore a snapshot.
        service.attach_journal(DeltaJournal(tmp_path, compact_every=2))
        server = PlanningServer(service, workers=1, max_queue=8)
        try:
            plan = server.submit(ServeRequest(deadline_s=5.0)).result(30.0).plan
            # Sessions opened after a delta fork the service's view.
            server.apply_delta(CatalogDelta(kind=DELTA_CLOSE, item_id="p4"))
            sessions = [
                server.open_session(plan, executed=1) for _ in range(2)
            ]
            victim = plan.item_ids[-1]
            deltas_in = [
                CatalogDelta(kind=DELTA_CLOSE, item_id=victim),
                CatalogDelta(kind=DELTA_CLOSE, item_id="p2"),
                # s3 needs p2 or p3: the second close orphans it.
                CatalogDelta(kind=DELTA_CLOSE, item_id="p3"),
                CatalogDelta(
                    kind="credit_change", item_id="s5", credits=4.0
                ),
            ]
            for delta in deltas_in:
                server.apply_delta(delta)
                served = server.submit(ServeRequest(deadline_s=5.0))
                assert served.result(30.0).ok
            for session in sessions:
                assert session.pending_deltas >= 1
                result = server.submit_replan(session, deadline_s=5.0)
                result = result.result(30.0)
                assert result.ok and result.rung == "sarsa"
                assert victim not in result.plan.item_ids[1:]
            rejected = server.submit(
                ServeRequest(start_item_id="s3", deadline_s=5.0)
            ).result(30.0)
            assert rejected.outcome == "rejected"
        finally:
            server.close()

        restarted = PlanningService(
            service.catalog, service.task, service.config,
            planner=service.planner,
        )
        recovery = restarted.attach_journal(DeltaJournal(tmp_path))
        assert recovery.restored and recovery.snapshot_seq > 0
        assert recovery.catalog_version == 5
        assert restarted.serve(ServeRequest(deadline_s=5.0)).ok
        assert built == []

        live = restarted.live_catalog
        assert restarted.live_catalog is live
        assert built == [5]
        assert "s3" not in live and victim not in live
        assert live.name == f"{service.catalog.name}@v5"
