"""The batched reward engine must equal the scalar Eq. 2 path exactly.

``RewardFunction.reward_batch`` is a pure performance rewrite: for any
partial plan and candidate set it must produce, to the last bit, the
same numbers as calling the scalar ``__call__`` per item, and the
batched ``mask_actions`` must return the same tuple as the scalar
tiering (the reference cascades live in ``traversal_oracle``).  These
tests sweep randomized synthetic instances (all three similarity
modes), the trip datasets (haversine distance budgets) and Univ-2
(per-category credit minima), plus the feedback-adjusted wrapper and
the off-catalog fallback path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PlannerConfig, SimilarityMode
from repro.core.items import Item, ItemType
from repro.core.plan import PlanBuilder
from repro.core.reward import RewardFunction, batch_rewards
from repro.datasets import load
from repro.datasets.synthetic import generate_instance
from repro.feedback.adapter import FeedbackAdjustedReward
from repro.feedback.models import Feedback
from repro.feedback.store import FeedbackStore

import traversal_oracle


def _assert_step_equality(reward, builder, candidates) -> None:
    """Batch == scalar for rewards, gates and the masked action set."""
    batch = batch_rewards(reward, builder, candidates)
    scalar = np.array([reward(builder, item) for item in candidates])
    np.testing.assert_array_equal(batch, scalar)
    if isinstance(reward, RewardFunction):
        masked = reward.mask_actions(builder, candidates)
        assert masked == traversal_oracle.mask_actions_scalar(
            reward, builder, candidates
        )
        assert masked == traversal_oracle.mask_actions(
            reward, builder, candidates
        )


def _greedy_sweep(catalog, task, reward, steps: int = 6) -> None:
    """Walk a greedy episode, checking equality at every step."""
    builder = PlanBuilder(catalog)
    builder.add(catalog.item_at(0))
    for _ in range(steps):
        candidates = builder.remaining_items()
        if not candidates:
            break
        _assert_step_equality(reward, builder, candidates)
        scores = batch_rewards(reward, builder, candidates)
        builder.add(candidates[int(np.argmax(scores))])


class TestSyntheticInstances:
    @pytest.mark.parametrize(
        "mode",
        [SimilarityMode.AVERAGE, SimilarityMode.MINIMUM,
         SimilarityMode.MAXIMUM],
        ids=lambda m: m.value,
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_equals_scalar(self, mode, seed):
        catalog, task = generate_instance(num_items=40, seed=seed)
        config = PlannerConfig(similarity=mode)
        reward = RewardFunction(task, config)
        _greedy_sweep(catalog, task, reward)


class TestPaperDatasets:
    @pytest.mark.parametrize("name", ["nyc", "paris"])
    def test_trip_datasets(self, name):
        """Trips: haversine travel budget + POI categories."""
        dataset = load(name, seed=0, with_gold=False)
        reward = RewardFunction(dataset.task, dataset.default_config)
        _greedy_sweep(dataset.catalog, dataset.task, reward)

    def test_univ2_category_minima(self):
        """Univ-2: six per-category credit minima in the lookahead."""
        dataset = load("univ2_ds", seed=0, with_gold=False)
        reward = RewardFunction(dataset.task, dataset.default_config)
        _greedy_sweep(dataset.catalog, dataset.task, reward)


class TestFeedbackWrapper:
    def test_adjusted_batch_equals_adjusted_scalar(self):
        catalog, task = generate_instance(num_items=30, seed=7)
        store = FeedbackStore()
        for index, item_id in enumerate(catalog.item_ids[:10]):
            store.add(Feedback(item_id, utility=((-1) ** index) * 0.8))
        reward = FeedbackAdjustedReward(
            RewardFunction(task, PlannerConfig()), store
        )
        _greedy_sweep(catalog, task, reward)


class TestFallbacks:
    def test_off_catalog_candidate_uses_scalar_path(self):
        """Candidates outside the catalog fall back per-item, same
        numbers."""
        catalog, task = generate_instance(num_items=20, seed=3)
        reward = RewardFunction(task, PlannerConfig())
        builder = PlanBuilder(catalog)
        builder.add(catalog.item_at(0))
        stranger = Item(
            item_id="offcat",
            name="Off-catalog item",
            item_type=ItemType.SECONDARY,
            credits=3.0,
            topics=frozenset({"topic000"}),
        )
        candidates = list(builder.remaining_items()[:5]) + [stranger]
        batch = batch_rewards(reward, builder, candidates)
        scalar = np.array([reward(builder, item) for item in candidates])
        np.testing.assert_array_equal(batch, scalar)

    def test_empty_candidate_set(self):
        catalog, task = generate_instance(num_items=20, seed=3)
        reward = RewardFunction(task, PlannerConfig())
        builder = PlanBuilder(catalog)
        builder.add(catalog.item_at(0))
        assert batch_rewards(reward, builder, []).shape == (0,)
        assert reward.mask_actions(builder, ()) == ()

    def test_batch_rewards_helper_without_batch_method(self):
        """Objects lacking reward_batch are scored per item."""

        class ScalarOnly:
            def __init__(self, base):
                self.base = base

            def __call__(self, builder, item):
                return self.base(builder, item)

        catalog, task = generate_instance(num_items=20, seed=5)
        base = RewardFunction(task, PlannerConfig())
        builder = PlanBuilder(catalog)
        builder.add(catalog.item_at(0))
        candidates = builder.remaining_items()
        np.testing.assert_array_equal(
            batch_rewards(ScalarOnly(base), builder, candidates),
            batch_rewards(base, builder, candidates),
        )
