"""Differential tests: the mask-based ``CatalogView`` against its oracle.

``CatalogView`` folds deltas into masks over the base catalog and
materializes the live catalog lazily; ``catalog_view_oracle`` keeps the
fold it replaced, which rebuilt the live catalog from the base on every
delta.  Over random close/reopen/credit_change sequences (with forks) on
an AND/OR chain catalog with cascades, cycles and foreign references, a
300-item synthetic catalog and ``njit_cs``, every step must agree: the
materialized live catalog (items, order, pruned groups, credits, name),
the live mask, the version and fold state, ``restore`` of the state
payload, both rollbacks, and the admission screen read from the masks
against the screen that read the materialized catalog.  Findings are compared after reducing the
oracle's multi-pass reports to the final-state definition (one finding
per affected item, in base order).  Hypothesis runs derandomized under a
fixed example budget.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import make_task
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.catalog import Catalog
from repro.core.deltas import (
    DELTA_CLOSE,
    DELTA_CREDIT_CHANGE,
    DELTA_REOPEN,
    CatalogDelta,
    CatalogView,
)
from repro.core.env import DomainMode
from repro.core.exceptions import DeltaError
from repro.core.items import Item, ItemType, Prerequisites
from repro.datasets import load
from repro.datasets.synthetic import generate_instance
from repro.serving.admission import screen_request

from catalog_view_oracle import (
    OracleCatalogView,
    normalized_findings,
    oracle_screen_request,
)

pytestmark = [pytest.mark.scenarios]

BUDGET = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

FORK = "fork"
CREDITS = (1.0, 2.5, 4.0)


def _item(item_id, groups=(), item_type=ItemType.SECONDARY, credits=3.0):
    return Item(
        item_id=item_id,
        name=item_id,
        item_type=item_type,
        credits=credits,
        topics=frozenset({f"t-{item_id}"}),
        prerequisites=Prerequisites.from_cnf(groups),
    )


def _chain_catalog() -> Catalog:
    """AND/OR chains that cascade, cycles with an escape, and groups
    naming ids the catalog never held."""
    items = [
        _item("r1", item_type=ItemType.PRIMARY),
        _item("r2", item_type=ItemType.PRIMARY, credits=4.0),
        _item("a1", [["r1"]]),
        _item("a2", [["a1", "r2"]]),
        _item("a3", [["a2"], ["a1", "out-of-program"]]),
        _item("a4", [["a3"]], item_type=ItemType.PRIMARY),
        _item("b1", [["b2"]]),
        _item("b2", [["b1", "r1"]]),
        _item("c1", [["c3"]]),
        _item("c2", [["c1"]]),
        _item("c3", [["c2", "r2"]]),
        _item("f1", [["foreign-only"]]),
        _item("d1", [["a4"], ["b1"]]),
        _item("d2", [["d1", "a4"], ["r2"]]),
        _item("s1", credits=2.0),
    ]
    return Catalog(items, name="chains", validate_prerequisites=False)


_INSTANCES = {}


def _instance(name: str):
    """(catalog, task) for a named instance."""
    if name not in _INSTANCES:
        if name == "chains":
            # Three primaries, and the four largest credits just reach
            # the floor: closures and credit changes flip the screens.
            _INSTANCES[name] = (_chain_catalog(), make_task(min_credits=13.0))
        elif name == "synthetic-300":
            _INSTANCES[name] = generate_instance(num_items=300, seed=0)
        else:
            ds = load(name, seed=0, with_gold=False)
            _INSTANCES[name] = (ds.catalog, ds.task)
    return _INSTANCES[name]


def _load_bearing(catalog: Catalog):
    """Indices of items some other item names as a prerequisite."""
    referenced = catalog.antecedent_ids()
    return [
        i for i, item_id in enumerate(catalog.item_ids) if item_id in referenced
    ]


def _ops(catalog: Catalog):
    index = st.integers(0, len(catalog) - 1)
    bearing = _load_bearing(catalog)
    if bearing:
        # Closing antecedents is what cascades: favour them.
        index = st.one_of(st.sampled_from(bearing), index)
    op = st.one_of(
        st.tuples(
            st.sampled_from((DELTA_CLOSE, DELTA_CLOSE, DELTA_REOPEN)), index
        ),
        st.tuples(
            st.just(DELTA_CREDIT_CHANGE), index, st.sampled_from(CREDITS)
        ),
        st.tuples(st.just(FORK)),
    )
    return st.lists(op, max_size=30)


def _delta(catalog: Catalog, op) -> CatalogDelta:
    item_id = catalog.item_ids[op[1]]
    if op[0] == DELTA_CREDIT_CHANGE:
        return CatalogDelta(kind=op[0], item_id=item_id, credits=op[2])
    return CatalogDelta(kind=op[0], item_id=item_id)


def _expected_findings(base: Catalog, findings):
    by_key = {(f.code, f.item_ids[0]): f for f in findings}
    return tuple(by_key[key] for key in normalized_findings(base, findings))


def _assert_same(
    view: CatalogView, oracle: OracleCatalogView, task, start=None
) -> None:
    # Screen first: the view's figures come from masks, not ``live``.
    assert screen_request(
        view, task, DomainMode.COURSE, start
    ) == oracle_screen_request(oracle.live, task, DomainMode.COURSE, start)
    live, ref = view.live, oracle.live
    assert live.name == ref.name
    assert live.item_ids == ref.item_ids
    assert live.items == ref.items  # credits and pruned groups included
    assert live.topic_vocabulary == ref.topic_vocabulary
    assert view.version == oracle.version
    assert view.closed_ids == oracle.closed_ids
    assert view.credit_overrides == oracle.credit_overrides
    assert view.state_payload() == oracle.state_payload()
    base_ids = view.base.item_ids
    state = view.state
    assert {base_ids[i] for i in np.flatnonzero(state.live_mask)} == set(
        ref.item_ids
    )
    assert state.name == ref.name
    assert view.last_findings == _expected_findings(
        view.base, oracle.last_findings
    )


def _check_restore(
    view: CatalogView, oracle: OracleCatalogView, task
) -> None:
    payload = view.state_payload()
    fresh = CatalogView(view.base)
    findings = fresh.restore(
        payload["closed"], payload["credit_overrides"], payload["version"]
    )
    assert findings == view.last_findings
    _assert_same(fresh, oracle, task)


def _run(name: str, ops) -> None:
    catalog, task = _instance(name)
    pairs = [(CatalogView(catalog), OracleCatalogView(catalog))]
    for op in ops:
        view, oracle = pairs[-1]
        if op[0] == FORK:
            pairs.append((view.fork(), oracle.fork()))
            continue
        delta = _delta(catalog, op)
        try:
            expected = oracle.apply(delta)
        except DeltaError as exc:
            before = view.state
            with pytest.raises(DeltaError) as err:
                view.apply(delta)
            assert str(err.value) == str(exc)
            assert view.state is before
            _assert_same(view, oracle, task, delta.item_id)
            continue
        found = view.apply(delta)
        assert found == _expected_findings(catalog, expected)
        _assert_same(view, oracle, task, delta.item_id)
    # Every fork kept folding on its own: earlier views still match
    # their own oracles.
    for view, oracle in pairs:
        _assert_same(view, oracle, task)
        _check_restore(view, oracle, task)
    assert screen_request(
        catalog, task, DomainMode.COURSE, catalog.item_ids[0]
    ) == oracle_screen_request(
        catalog, task, DomainMode.COURSE, catalog.item_ids[0]
    )


@pytest.mark.parametrize("name", ["chains", "synthetic-300", "njit_cs"])
def test_fold_matches_oracle(name):
    catalog, _task = _instance(name)

    @BUDGET
    @given(ops=_ops(catalog))
    def check(ops):
        _run(name, ops)

    check()


def test_chain_cascade_matches_oracle():
    """Closing both roots orphans the chains; reopening one heals them."""
    _run(
        "chains",
        [
            (DELTA_CLOSE, 0),
            (DELTA_CREDIT_CHANGE, 3, 2.5),
            (FORK,),
            (DELTA_CLOSE, 1),
            (DELTA_REOPEN, 0),
            (DELTA_CLOSE, 7),
        ],
    )


def test_rollback_last_open_item():
    catalog = Catalog([_item("x"), _item("y")], name="pair")
    view, oracle = CatalogView(catalog), OracleCatalogView(catalog)
    close_x = CatalogDelta(kind=DELTA_CLOSE, item_id="x")
    view.apply(close_x)
    oracle.apply(close_x)
    before = view.state
    close_y = CatalogDelta(kind=DELTA_CLOSE, item_id="y")
    with pytest.raises(DeltaError) as ref:
        oracle.apply(close_y)
    with pytest.raises(DeltaError) as err:
        view.apply(close_y)
    assert str(err.value) == str(ref.value)
    assert "last open item" in str(err.value)
    assert view.state is before
    _assert_same(view, oracle, make_task())


def test_rollback_prune_emptied_catalog():
    catalog = Catalog(
        [_item("r"), _item("a", [["r"]]), _item("b", [["a"]])],
        name="tower",
    )
    view, oracle = CatalogView(catalog), OracleCatalogView(catalog)
    delta = CatalogDelta(kind=DELTA_CLOSE, item_id="r")
    with pytest.raises(DeltaError) as ref:
        oracle.apply(delta)
    with pytest.raises(DeltaError) as err:
        view.apply(delta)
    assert str(err.value) == str(ref.value)
    assert "empty after prerequisite pruning" in str(err.value)
    assert view.version == 0 and view.live is catalog
    _assert_same(view, oracle, make_task())
    with pytest.raises(DeltaError, match="empty after prerequisite pruning"):
        view.restore(["r"], {}, 4)
    assert view.version == 0


def test_live_materialized_once_per_version_and_shared_by_forks(monkeypatch):
    import repro.core.deltas as deltas

    calls = []
    original = deltas._materialize

    def counting(state):
        calls.append(state.version)
        return original(state)

    monkeypatch.setattr(deltas, "_materialize", counting)
    catalog, _task = _instance("chains")
    view = CatalogView(catalog)
    view.apply(CatalogDelta(kind=DELTA_CLOSE, item_id="r1"))
    assert calls == []
    fork = view.fork()
    assert view.live is fork.live is view.live
    assert calls == [1]
    fork.apply(CatalogDelta(kind=DELTA_REOPEN, item_id="r1"))
    assert fork.live is not view.live
    assert calls == [1, 2]
