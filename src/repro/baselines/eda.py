"""The *EDA* baseline (Section IV-A-2, item 2).

The paper adapts the next-step-recommendation paradigm of exploratory
data analysis into "a greedy method that chooses the action with the
highest reward based on Equation 2 in each step.  If two actions provide
the same result, one will be picked at random."

Crucially, EDA is *myopic and unmasked*: it sees the same Eq. 2 reward
RL-Planner optimizes, but it neither looks ahead (no learned Q) nor
reasons about the feasibility of completing the hard constraints — which
is exactly why it trails RL-Planner in Figure 1 and sometimes scores 0
in the robustness tables.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..core.catalog import Catalog
from ..core.config import PlannerConfig
from ..core.constraints import TaskSpec
from ..core.env import DomainMode
from ..core.exceptions import PlanningError
from ..core.items import Item
from ..core.plan import Plan, PlanBuilder
from ..core.reward import RewardFunction
from .base import BaselinePlanner


class EDAPlanner(BaselinePlanner):
    """Greedy next-step planner on the Equation-2 reward.

    Parameters
    ----------
    config:
        Supplies the reward's epsilon / weights / similarity mode (the
        robustness tables sweep these for EDA too).
    seed:
        Tie-breaking RNG seed.
    """

    name = "EDA"

    def __init__(
        self,
        catalog: Catalog,
        task: TaskSpec,
        config: Optional[PlannerConfig] = None,
        mode: DomainMode = DomainMode.COURSE,
        seed: Optional[int] = 0,
    ) -> None:
        super().__init__(catalog, task, mode)
        self.config = config if config is not None else PlannerConfig()
        self.reward = RewardFunction(task, self.config)
        self._rng = np.random.default_rng(seed)

    def recommend(
        self,
        start_item_id: str,
        horizon: Optional[int] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> Plan:
        """Greedy plan: argmax of immediate Eq. 2 reward at every step.

        ``should_stop`` is checked once per step; when it fires the plan
        built so far is returned (possibly shorter than the horizon) so
        a serving deadline can bound even this fallback.
        """
        if start_item_id not in self.catalog:
            raise PlanningError(
                f"start item {start_item_id!r} not in catalog"
            )
        builder = PlanBuilder(self.catalog)
        builder.add(self.catalog[start_item_id])
        return self._greedy_fill(builder, self._horizon(horizon), should_stop)

    def complete(
        self,
        prefix_items: Sequence[Item],
        horizon: Optional[int] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> Plan:
        """Greedily extend a committed plan prefix to the horizon.

        The prefix items are placed verbatim and may be foreign to this
        planner's catalog (mid-plan replanning runs EDA over the *live*
        catalog while the committed prefix references the original one);
        only the suffix is chosen, from this catalog's remaining items.
        """
        prefix = tuple(prefix_items)
        if not prefix:
            raise PlanningError("complete() requires a non-empty prefix")
        builder = PlanBuilder(self.catalog)
        for item in prefix:
            builder.add(item)
        return self._greedy_fill(builder, self._horizon(horizon), should_stop)

    def _greedy_fill(
        self,
        builder: PlanBuilder,
        horizon: int,
        should_stop: Optional[Callable[[], bool]],
    ) -> Plan:
        """Greedy steps over catalog indices: the affordable unvisited
        items (catalog order), scored by the index-path Eq. 2 engine, one
        uniform draw among the maxima per step."""
        credits = self.catalog.columns.credits
        while len(builder) < horizon:
            if should_stop is not None and should_stop():
                break
            cand_idx = builder.remaining_indices()
            budget_left = self._budget_left(builder.total_credits)
            cand_idx = cand_idx[credits[cand_idx] <= budget_left]
            if cand_idx.size == 0:
                break
            rewards = self.reward.reward_batch(builder, cand_idx)
            winners = np.flatnonzero(rewards == rewards.max())
            pick = int(winners[int(self._rng.integers(winners.size))])
            choice = cand_idx[pick]
            builder.add(self.catalog.item_at(int(choice)))
        return builder.build()
