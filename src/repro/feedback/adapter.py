"""Feedback-adjusted reward: folding preferences into Equation 2.

The adapter wraps a base :class:`~repro.core.reward.RewardFunction` and
adds a preference term to gated-in actions:

    R'(s, e, s') = theta * [ delta*Sim + beta*weight
                             + phi * preference(item) ]

where ``phi`` is the feedback weight and ``preference`` comes from the
:class:`~repro.feedback.store.FeedbackStore`.  The theta gate is
untouched — feedback can re-rank valid actions but never launder an
invalid one — and strongly rejected items are additionally masked out
of the action set, mirroring how an advisor simply stops suggesting a
course the student refused.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from ..core.catalog import Catalog
from ..core.items import Item
from ..core.plan import PlanBuilder
from ..core.reward import GatedActions, RewardBreakdown, RewardFunction
from .store import FeedbackStore


class FeedbackAdjustedReward:
    """RewardFunction-compatible wrapper adding a preference term.

    Parameters
    ----------
    base:
        The Equation-2 reward being wrapped.
    store:
        Live feedback store (shared with the session driving it).
    feedback_weight:
        ``phi`` — how strongly preference shifts the reward.
    reject_threshold:
        Items at/below this preference are masked from the action set
        entirely (None disables hard rejection).
    """

    def __init__(
        self,
        base: RewardFunction,
        store: FeedbackStore,
        feedback_weight: float = 0.3,
        reject_threshold: Optional[float] = -0.5,
    ) -> None:
        self.base = base
        self.store = store
        self.feedback_weight = feedback_weight
        self.reject_threshold = reject_threshold

    # ------------------------------------------------------------------
    # RewardFunction interface (delegated gates, adjusted total)
    # ------------------------------------------------------------------

    @property
    def task(self):
        """The wrapped task (RewardFunction interface)."""
        return self.base.task

    @property
    def config(self):
        """The wrapped config (RewardFunction interface)."""
        return self.base.config

    def coverage_gate(self, builder: PlanBuilder, item: Item) -> int:
        """Delegates r1 to the base reward."""
        return self.base.coverage_gate(builder, item)

    def gap_gate(self, builder: PlanBuilder, item: Item) -> int:
        """Delegates r2 to the base reward."""
        return self.base.gap_gate(builder, item)

    def feasibility_gate(self, builder: PlanBuilder, item: Item) -> bool:
        """Delegates the lookahead feasibility mask."""
        return self.base.feasibility_gate(builder, item)

    def type_weight(self, item: Item) -> float:
        """Delegates the type/category weight."""
        return self.base.type_weight(item)

    def best_possible(self) -> float:
        """Single-step bound including the maximal preference bonus."""
        return self.base.best_possible() + self.feedback_weight

    def breakdown(self, builder: PlanBuilder, item: Item) -> RewardBreakdown:
        """Base breakdown with the preference term folded into total."""
        base = self.base.breakdown(builder, item)
        if base.theta == 0:
            return base
        bonus = self.feedback_weight * self.store.preference(item.item_id)
        return RewardBreakdown(
            r1_coverage=base.r1_coverage,
            r2_gap=base.r2_gap,
            similarity=base.similarity,
            type_weight=base.type_weight,
            total=max(0.0, base.total + bonus),
        )

    def __call__(self, builder: PlanBuilder, item: Item) -> float:
        """Adjusted Equation-2 value."""
        return self.breakdown(builder, item).total

    def preferences(self, catalog: Catalog) -> np.ndarray:
        """The store's preferences as a vector over ``catalog`` indices
        (0.0 for unrated items; rated ids outside the catalog ignored)."""
        index_map = catalog.index_map
        prefs = np.zeros(len(catalog), dtype=np.float64)
        for item_id in self.store.rated_items():
            idx = index_map.get(item_id)
            if idx is not None:
                prefs[idx] = self.store.preference(item_id)
        return prefs

    def reward_batch(self, builder: PlanBuilder, candidates) -> np.ndarray:
        """Vectorized adjusted rewards (batched base + preference term).

        ``candidates`` are catalog items, catalog indices, or a step's
        :class:`GatedActions`.  Matches the per-item :meth:`__call__`
        exactly: the preference bonus applies only to theta-gated-in
        actions and the adjusted total is clamped at zero.
        """
        if not isinstance(candidates, (np.ndarray, GatedActions)):
            candidates = self.base._catalog_indices(
                builder.catalog, tuple(candidates)
            )
        theta, _sims, _weights, totals = self.base.batch_components(
            builder, candidates
        )
        cand_idx = (
            candidates.idx
            if isinstance(candidates, GatedActions)
            else candidates
        )
        prefs = self.preferences(builder.catalog)[cand_idx]
        adjusted = np.maximum(0.0, totals + self.feedback_weight * prefs)
        return np.where(theta, adjusted, totals)

    def mask_actions(self, builder: PlanBuilder, candidates):
        """Base tiered masking plus hard rejection of refused items.

        Rejection is a preference mask over the candidates' catalog
        indices, skipped when it would reject every candidate.
        Index-array input returns the base's :class:`GatedActions`, item
        input the kept items.
        """
        if self.reject_threshold is not None:
            items = None
            cand_idx = candidates
            if not isinstance(candidates, np.ndarray):
                candidates = items = tuple(candidates)
                cand_idx = self.base._catalog_indices(builder.catalog, items)
            accepted = (
                self.preferences(builder.catalog)[cand_idx]
                > self.reject_threshold
            )
            if accepted.any():
                candidates = (
                    cand_idx[accepted]
                    if items is None
                    else tuple(itertools.compress(items, accepted.tolist()))
                )
        return self.base.mask_actions(builder, candidates)
