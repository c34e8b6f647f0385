"""Differential tests: the index-native traversal against its oracles.

``GreedyPolicy`` steps over catalog-index masks and evaluates the gates
once per step, vectorized; ``traversal_oracle`` keeps the Item-based
traversal and the scalar pooled feasibility check it replaced.  Every
plan must come out identical — same items, same order, same tie-break
draws — across course and trip datasets, synthetic catalogs, random
availability subsets, foreign prefix items, both recommendation modes,
masking on and off, and a feedback-adjusted reward; and the vector
feasibility check must agree with the scalar one candidate by
candidate.  Hypothesis runs derandomized under a fixed example budget.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.eda import EDAPlanner
from repro.core.catalog import Catalog
from repro.core.config import PlannerConfig, RecommendationMode
from repro.core.env import DomainMode
from repro.core.items import Item, ItemType, Prerequisites
from repro.core.plan import PlanBuilder
from repro.core.planner import RLPlanner
from repro.core.policy import TIE_TOLERANCE, GreedyPolicy, tied_winners
from repro.core.reward import RewardFunction
from repro.datasets import load
from repro.datasets.synthetic import generate_instance
from repro.feedback.adapter import FeedbackAdjustedReward
from repro.feedback.models import Feedback
from repro.feedback.store import FeedbackStore

from traversal_oracle import (
    OracleGreedyPolicy,
    eda_recommend,
    feasibility_context,
    feasibility_gate,
    mask_actions,
)

BUDGET = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class _Setup:
    """A trained policy over one instance."""

    def __init__(self, catalog, task, config, mode, episodes):
        self.catalog = catalog
        self.task = task
        self.config = config
        self.mode = mode
        planner = RLPlanner(catalog, task, config, mode=mode)
        planner.fit(episodes=episodes)
        self.qtable = planner.qtable
        self.reward = RewardFunction(task, config)


_SETUPS = {}


def _categorized_instance(size: int):
    """A synthetic catalog with five categories, uneven credits and
    per-category credit minima: the pooled minima, second minima and
    fixer pools all come into play."""
    catalog, task = generate_instance(num_items=size, seed=4)
    rng = np.random.default_rng(size)
    items = [
        dataclasses.replace(
            item,
            category=f"c{index % 5}",
            credits=float(rng.choice([1.5, 2.0, 2.5, 3.0, 4.0])),
        )
        for index, item in enumerate(catalog)
    ]
    minima = (("c0", 4.0), ("c1", 5.0), ("c2", 3.5), ("c3", 2.5))
    hard = dataclasses.replace(task.hard, category_credits=minima)
    return Catalog(items, name="categorized"), dataclasses.replace(
        task, hard=hard
    )


def _setup(name: str) -> _Setup:
    if name not in _SETUPS:
        if name.startswith("synthetic"):
            size = int(name.split("-")[1])
            catalog, task = generate_instance(num_items=size, seed=size)
            setup = _Setup(
                catalog, task, PlannerConfig(seed=3), DomainMode.COURSE, 25
            )
        elif name.startswith("categorized"):
            catalog, task = _categorized_instance(int(name.split("-")[1]))
            setup = _Setup(
                catalog, task, PlannerConfig(seed=3), DomainMode.COURSE, 25
            )
        else:
            # "paris-tight": the Paris trip under a 3 km distance budget,
            # so the distance leg binds mid-plan.
            ds = load(name.split("-")[0], seed=0, with_gold=False)
            task = ds.task
            if name.endswith("-tight"):
                task = dataclasses.replace(
                    task,
                    hard=dataclasses.replace(task.hard, max_distance=3.0),
                )
            setup = _Setup(ds.catalog, task, ds.default_config, ds.mode, 80)
        _SETUPS[name] = setup
    return _SETUPS[name]


DATASETS = [
    "njit_cs",
    "synthetic-300",
    "synthetic-1000",
    "categorized-300",
    "paris",
    "paris-tight",
    "univ2_ds",
]


def _policies(setup: _Setup, reward, recommendation, mask, seed, discount):
    kwargs = dict(
        mode=setup.mode,
        rng_seed=seed,
        reward=reward,
        recommendation=recommendation,
        discount=discount,
        mask=mask,
    )
    return (
        GreedyPolicy(setup.qtable, setup.task, **kwargs),
        OracleGreedyPolicy(setup.qtable, setup.task, **kwargs),
    )


def _allowed(data, catalog, keep_ids=()):
    """A random live subset (None half the time) holding ``keep_ids``."""
    if not data.draw(st.booleans(), label="filtered"):
        return None
    share = data.draw(st.sampled_from([0.3, 0.6, 0.9]), label="share")
    seed = data.draw(st.integers(0, 2**16), label="subset_seed")
    rng = np.random.default_rng(seed)
    picked = rng.random(len(catalog)) < share
    ids = {item_id for item_id, keep in zip(catalog.item_ids, picked) if keep}
    return frozenset(ids | set(keep_ids))


def _traversal_args(data):
    recommendation = data.draw(
        st.sampled_from(
            [RecommendationMode.LOOKAHEAD, RecommendationMode.Q_ONLY]
        ),
        label="recommendation",
    )
    mask = data.draw(st.booleans(), label="mask")
    seed = data.draw(st.sampled_from([None, 0, 7, 11]), label="rng_seed")
    discount = data.draw(st.sampled_from([0.95, 0.0]), label="discount")
    return recommendation, mask, seed, discount


def _same_outcome(new_call, oracle_call):
    """Both plans identical, or both traversals raising the same type."""
    try:
        expected = oracle_call()
    except Exception as exc:  # noqa: BLE001 - compared below
        with pytest.raises(type(exc)):
            new_call()
        return
    assert new_call().item_ids == expected.item_ids


@pytest.mark.parametrize("name", DATASETS)
@BUDGET
@given(data=st.data())
def test_recommend_matches_oracle(name, data):
    setup = _setup(name)
    catalog = setup.catalog
    start = catalog.item_at(
        data.draw(st.integers(0, len(catalog) - 1), label="start")
    ).item_id
    allowed = _allowed(data, catalog, keep_ids=(start,))
    recommendation, mask, seed, discount = _traversal_args(data)
    new, oracle = _policies(
        setup, setup.reward, recommendation, mask, seed, discount
    )
    _same_outcome(
        lambda: new.recommend(
            start, require_trained=False, allowed_item_ids=allowed
        ),
        lambda: oracle.recommend(start, allowed_item_ids=allowed),
    )


def _random_prefix(catalog, data, shortest, longest, foreign):
    """Distinct random catalog items, up to ``foreign`` of them swapped
    for foreign look-alikes."""
    length = data.draw(st.integers(shortest, longest), label="prefix_length")
    picks = data.draw(
        st.lists(
            st.integers(0, len(catalog) - 1),
            min_size=length,
            max_size=length,
            unique=True,
        ),
        label="prefix",
    )
    swapped = data.draw(
        st.sets(st.integers(0, max(0, length - 1)), max_size=foreign),
        label="foreign",
    )
    return [
        _foreign_item(catalog.item_at(index), position)
        if position in swapped
        else catalog.item_at(index)
        for position, index in enumerate(picks)
    ]


def _foreign_item(template: Item, index: int) -> Item:
    """An item absent from every catalog, shaped like ``template``."""
    return Item(
        item_id=f"foreign{index}",
        name=f"Foreign {index}",
        item_type=template.item_type,
        credits=template.credits,
        topics=template.topics,
        category=template.category,
        metadata=template.metadata,
    )


@pytest.mark.parametrize("name", DATASETS)
@BUDGET
@given(data=st.data())
def test_complete_with_foreign_prefix_matches_oracle(name, data):
    setup = _setup(name)
    catalog = setup.catalog
    # Up to two prefix items are foreign look-alikes (history that left
    # the universe); the last one too, sometimes.
    prefix = _random_prefix(
        catalog, data, 1, max(1, setup.task.hard.plan_length - 2), 2
    )
    allowed = _allowed(data, catalog)
    recommendation, mask, seed, discount = _traversal_args(data)
    new, oracle = _policies(
        setup, setup.reward, recommendation, mask, seed, discount
    )
    _same_outcome(
        lambda: new.complete(
            prefix, require_trained=False, allowed_item_ids=allowed
        ),
        lambda: oracle.complete(prefix, allowed_item_ids=allowed),
    )


@pytest.mark.parametrize("name", ["njit_cs", "synthetic-300"])
@BUDGET
@given(data=st.data())
def test_feedback_adjusted_reward_matches_oracle(name, data):
    setup = _setup(name)
    catalog = setup.catalog
    store = FeedbackStore()
    seed = data.draw(st.integers(0, 2**16), label="feedback_seed")
    rng = np.random.default_rng(seed)
    for index in rng.choice(len(catalog), size=len(catalog) // 3):
        store.add(
            Feedback(
                catalog.item_at(int(index)).item_id,
                utility=float(rng.uniform(-1.0, 1.0)),
            )
        )
    reward = FeedbackAdjustedReward(setup.reward, store, reject_threshold=-0.5)
    start = catalog.item_at(
        data.draw(st.integers(0, len(catalog) - 1), label="start")
    ).item_id
    allowed = _allowed(data, catalog, keep_ids=(start,))
    recommendation, mask, rng_seed, discount = _traversal_args(data)
    new, oracle = _policies(
        setup, reward, recommendation, mask, rng_seed, discount
    )
    _same_outcome(
        lambda: new.recommend(
            start, require_trained=False, allowed_item_ids=allowed
        ),
        lambda: oracle.recommend(start, allowed_item_ids=allowed),
    )


@pytest.mark.parametrize("name", DATASETS)
def test_eda_fill_matches_oracle(name):
    """The EDA baseline's index-path fill picks the same items with the
    same RNG draws as the Item-based fill."""
    setup = _setup(name)
    catalog = setup.catalog
    for k in range(6):
        start = catalog.item_at((k * len(catalog)) // 6).item_id
        new, oracle = (
            EDAPlanner(
                catalog, setup.task, config=setup.config, mode=setup.mode,
                seed=k,
            )
            for _ in range(2)
        )
        assert new.recommend(start).item_ids == (
            eda_recommend(oracle, start).item_ids
        )


def test_planner_live_mask_equals_id_set():
    """The facade's cached mask and a replan's id set are one filter."""
    setup = _setup("synthetic-300")
    planner = RLPlanner(setup.catalog, setup.task, setup.config)
    planner.adopt_policy(setup.qtable)
    ids = frozenset(setup.catalog.item_ids[::3])
    mask = np.zeros(len(setup.catalog), dtype=bool)
    mask[::3] = True
    by_ids = planner.recommend_anytime(allowed_item_ids=ids)
    by_mask = planner.recommend_anytime(allowed_item_ids=mask)
    assert by_ids[0].item_ids == by_mask[0].item_ids


# ----------------------------------------------------------------------
# The vector feasibility check against the scalar one
# ----------------------------------------------------------------------


STATE_BUDGET = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
STATE_DATASETS = DATASETS + ["categorized-30", "nyc"]


def _random_state(setup: _Setup, data) -> PlanBuilder:
    """A builder holding a random prefix — catalog items and, at times,
    a foreign one — at any fill level up to the horizon."""
    builder = PlanBuilder(setup.catalog)
    for item in _random_prefix(
        setup.catalog, data, 0, setup.task.hard.plan_length, 1
    ):
        builder.add(item)
    return builder


@pytest.mark.parametrize("name", STATE_DATASETS)
@STATE_BUDGET
@given(data=st.data())
def test_vector_feasibility_matches_scalar_check(name, data):
    """Every remaining item as a candidate, in random builder states."""
    setup = _setup(name)
    catalog = setup.catalog
    reward = setup.reward
    builder = _random_state(setup, data)
    cand_idx = builder.remaining_indices()
    vector = reward.feasible_mask(builder, cand_idx)
    ctx = feasibility_context(reward, builder)
    if ctx is None:
        assert not vector.any()
        return
    scalar = [ctx.check(catalog.item_at(int(i))) for i in cand_idx]
    assert vector.tolist() == scalar
    # The item-sequence wrapper is the same check.
    items = [catalog.item_at(int(i)) for i in cand_idx]
    assert reward.feasible_mask(builder, items).tolist() == scalar


@pytest.mark.parametrize("name", STATE_DATASETS)
@STATE_BUDGET
@given(data=st.data())
def test_gated_actions_match_item_cascade(name, data):
    """The index step's tier equals the Item-based cascade, and the
    theta it hands to the Eq. 2 totals equals the recomputed gates."""
    setup = _setup(name)
    catalog = setup.catalog
    reward = setup.reward
    builder = _random_state(setup, data)
    cand_idx = builder.remaining_indices()
    gated = reward.mask_actions(builder, cand_idx)
    items = tuple(catalog.item_at(int(i)) for i in cand_idx)
    expected = mask_actions(reward, builder, items)
    assert [catalog.item_at(int(i)) for i in gated.idx] == list(expected)
    assert reward.mask_actions(builder, items) == expected
    recomputed = reward.batch_components(builder, gated.idx)
    assert gated.theta.tolist() == recomputed[0].tolist()
    for got, want in zip(reward.batch_components(builder, gated), recomputed):
        np.testing.assert_array_equal(got, want)


def _hand_built(spec, num_primary, num_secondary, minima, gap=1):
    """A small course catalog from ``(id, primary?, category, prereqs)``
    rows (3 credits each) and its task."""
    from repro.core.constraints import (
        HardConstraints,
        InterleavingTemplate,
        SoftConstraints,
        TaskSpec,
    )

    catalog = Catalog(
        [
            Item(
                item_id=item_id,
                name=item_id,
                item_type=ItemType.PRIMARY if primary else ItemType.SECONDARY,
                credits=3.0,
                topics=frozenset({f"t_{item_id}"}),
                category=category,
                prerequisites=Prerequisites.all_of(list(prereqs)),
            )
            for item_id, primary, category, prereqs in spec
        ]
    )
    length = num_primary + num_secondary
    hard = HardConstraints.for_courses(
        3.0 * length, num_primary, num_secondary, gap,
        category_credits=minima,
    )
    task = TaskSpec(
        hard=hard,
        soft=SoftConstraints(
            ideal_topics=frozenset(f"t_{i}" for i in catalog.item_ids),
            template=InterleavingTemplate.from_labels(
                [["P"] * num_primary + ["S"] * num_secondary]
            ),
        ),
    )
    return catalog, RewardFunction(task, PlannerConfig())


@pytest.mark.parametrize(
    "spec, quota, minima, expected",
    [
        # Taking y1 (a reachable primary of y) leaves y's pool without
        # primaries: the last primary needs a slot that categories y and
        # w already fill.
        (
            [("a", True, "x", ()), ("p2", True, "x", ()),
             ("y1", True, "y", ()), ("y2", False, "y", ()),
             ("w1", False, "w", ()), ("w2", False, "w", ())],
            (3, 2),
            {"y": 6, "w": 6},
            {"y1": False},
        ),
        # Taking k makes the primary y1 reachable (k fixes it): y1 joins
        # y's pool and covers a primary slot.
        (
            [("a", True, "x", ()), ("p2", True, "x", ()),
             ("k", False, "x", ()), ("y1", True, "y", ("k",)),
             ("y2", False, "y", ()), ("w1", False, "w", ()),
             ("w2", False, "w", ())],
            (3, 4),
            {"y": 6, "w": 6},
            {"k": True},
        ),
    ],
    ids=["pool-loses-candidate-primary", "fixer-adds-primary"],
)
def test_vector_feasibility_pooled_primaries(spec, quota, minima, expected):
    """Hand-built states where the category pools' primary counts
    decide feasibility: the candidate leaving its pool, and the items it
    fixes joining theirs."""
    catalog, reward = _hand_built(spec, *quota, minima)
    builder = PlanBuilder(catalog)
    builder.add(catalog["a"])
    cand_idx = builder.remaining_indices()
    ctx = feasibility_context(reward, builder)
    scalar = [ctx.check(catalog.item_at(int(i))) for i in cand_idx]
    vector = reward.feasible_mask(builder, cand_idx).tolist()
    assert vector == scalar
    verdict = dict(zip((catalog.item_at(int(i)).item_id for i in cand_idx),
                       vector))
    for item_id, feasible in expected.items():
        assert verdict[item_id] is feasible
        assert feasibility_gate(reward, builder, catalog[item_id]) is feasible
        assert reward.feasibility_gate(builder, catalog[item_id]) is feasible


# ----------------------------------------------------------------------
# The winner scan
# ----------------------------------------------------------------------


def _sequential_winners(totals):
    best_value = -np.inf
    winners = []
    for j, total in enumerate(totals.tolist()):
        if total > best_value + TIE_TOLERANCE:
            best_value = total
            winners = [j]
        elif abs(total - best_value) <= TIE_TOLERANCE:
            winners.append(j)
    return winners


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    base=st.sampled_from([0.0, 1.0, 7.25, 250.0, 3e4]),
    offsets=st.lists(
        st.sampled_from([0.0, 0.0, 0.0, 1e-15, 3e-13, 9e-13, 1.5e-12,
                         2.5e-12, 5e-12, 1e-3, 1.0]),
        min_size=1,
        max_size=12,
    ),
    signs=st.lists(st.booleans(), min_size=12, max_size=12),
)
def test_tied_winners_equals_sequential_scan(base, offsets, signs):
    """Exact ties, float-noise ties and near-tolerance chains alike."""
    totals = np.array(
        [base + (o if s else -o) for o, s in zip(offsets, signs)]
    )
    assert tied_winners(totals).tolist() == _sequential_winners(totals)
