"""Plan recommendation from a learned Q-table (Algorithm 1, lines 15-24).

Given a learned policy (Q-table) and a starting item, the recommender
greedily traverses the table: from the current item it picks the
unvisited item with the maximum Q-value, repeating until the sequence
holds ``H`` items (courses) or the time budget is exhausted (trips).

Two traversal strategies are provided:

* ``Q_ONLY`` — the literal Algorithm 1: argmax of the stored Q value.
* ``LOOKAHEAD`` (default) — argmax of ``R(s, a) + gamma * max_b Q(a, b)``:
  the same learned table supplies the long-horizon value, but the
  immediate term is recomputed in the *actual* plan context.  Because a
  state is only the last item, stored Q entries average over every
  prefix that ever reached that item; re-evaluating Eq. 2 against the
  true prefix removes that aliasing and recovers the paper's reported
  score levels (the ablation bench compares both).

The traversal runs on catalog indices: the unvisited and live items are
boolean masks over the policy's catalog, and each step evaluates the
coverage, gap and feasibility gates once, vectorized over every
candidate (:meth:`RewardFunction.mask_actions`).
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence, Tuple, Union

import numpy as np

from .catalog import Catalog
from .constraints import TaskSpec
from .env import DomainMode
from .exceptions import PlanningError, UntrainedPolicyError
from .items import Item
from .plan import Plan, PlanBuilder
from .qtable import QTableBase
from .config import RecommendationMode
from .reward import GatedActions, RewardFunction

#: An availability filter: live item ids, or a boolean mask over the
#: policy catalog (True = live).
Allowed = Union[FrozenSet[str], np.ndarray]

#: Totals within this distance of the running best tie (Algorithm 1's
#: random tie-breaking among equal values).
TIE_TOLERANCE = 1e-12


def live_mask(
    catalog: Catalog, allowed: Optional[Allowed]
) -> Optional[np.ndarray]:
    """``allowed`` as a boolean mask over ``catalog`` (None stays None).

    Ids outside the catalog are ignored; a mask is checked for shape and
    passed through unchanged.
    """
    if allowed is None:
        return None
    if isinstance(allowed, np.ndarray):
        if allowed.shape != (len(catalog),) or allowed.dtype != bool:
            raise PlanningError(
                f"live mask of shape {allowed.shape} does not cover "
                f"catalog {catalog.name!r} ({len(catalog)} items)"
            )
        return allowed
    index_map = catalog.index_map
    mask = np.zeros(len(catalog), dtype=bool)
    mask[[index_map[i] for i in allowed if i in index_map]] = True
    return mask


def tied_winners(totals: np.ndarray) -> np.ndarray:
    """Positions of the argmax winners of ``totals``, in order.

    Exactly the sequential scan: the running best moves to a total that
    beats it by more than :data:`TIE_TOLERANCE`, and totals within the
    tolerance of the running best join its winner list.  When every
    total either equals the maximum or trails it by more than four
    tolerances (exact ties; the common case) the scan provably selects
    exactly the totals equal to the maximum, found in one array pass.
    """
    best = totals.max()
    tol = TIE_TOLERANCE
    if abs(best) < 1e4:  # the float spacing stays far below the tolerance
        top = totals == best
        if not (~top & (totals >= best - 4 * tol)).any():
            return np.flatnonzero(top)
    best_value = -np.inf
    winners: list = []
    for j, total in enumerate(totals.tolist()):
        if total > best_value + tol:
            best_value = total
            winners = [j]
        elif abs(total - best_value) <= tol:
            winners.append(j)
    return np.asarray(winners, dtype=np.int64)


class GreedyPolicy:
    """Greedy Q-table traversal producing a plan.

    Parameters
    ----------
    qtable:
        The learned action-value table.
    task:
        Hard/soft constraints (provides the horizon and the trip budget).
    mode:
        Course or trip semantics for episode termination.
    rng_seed:
        Seed for random tie-breaking among equal Q-values (None = catalog
        order, fully deterministic).
    reward:
        Optional :class:`RewardFunction`; when provided, actions failing
        its Eq. 3/4 gates are masked out at recommendation time (the
        "valid action" semantics of Section III-B-1), falling back to
        the unmasked set only when no gated action exists.
    """

    def __init__(
        self,
        qtable: QTableBase,
        task: TaskSpec,
        mode: DomainMode = DomainMode.COURSE,
        rng_seed: Optional[int] = None,
        reward: Optional[RewardFunction] = None,
        recommendation: RecommendationMode = RecommendationMode.LOOKAHEAD,
        discount: float = 0.95,
        mask: bool = True,
    ) -> None:
        self.qtable = qtable
        self.task = task
        self.mode = mode
        self.reward = reward
        self.recommendation = recommendation
        self.discount = discount
        self.mask = mask
        if recommendation is RecommendationMode.LOOKAHEAD and reward is None:
            raise PlanningError(
                "LOOKAHEAD recommendation needs a reward function"
            )
        self._rng = (
            np.random.default_rng(rng_seed) if rng_seed is not None else None
        )

    @property
    def catalog(self) -> Catalog:
        """The catalog the Q-table is defined over."""
        return self.qtable.catalog

    def recommend(
        self,
        start_item_id: str,
        horizon: Optional[int] = None,
        require_trained: bool = True,
        allowed_item_ids: Optional[Allowed] = None,
    ) -> Plan:
        """Produce a plan of up to ``horizon`` items starting at the item.

        Parameters
        ----------
        start_item_id:
            The first item of the plan (``s_1`` of Table III).
        horizon:
            Override of the task's plan length (#primary + #secondary).
        require_trained:
            When True, refuse to recommend from a never-updated table
            (all-zero Q would otherwise yield an arbitrary plan).
        allowed_item_ids:
            Optional availability filter — live ids, or a boolean mask
            over :attr:`catalog` (see :func:`live_mask`): only these
            items may be chosen (and only they contribute continuation
            value).  Lets a policy trained on the full catalog serve a
            live universe where some items have closed, without
            retraining.
        """
        catalog = self.catalog
        if start_item_id not in catalog:
            raise PlanningError(
                f"start item {start_item_id!r} not in catalog "
                f"{catalog.name!r}"
            )
        live = live_mask(catalog, allowed_item_ids)
        if live is not None and not live[catalog.index_of(start_item_id)]:
            raise PlanningError(
                f"start item {start_item_id!r} is not in the allowed "
                f"(live) item set"
            )
        h = horizon if horizon is not None else self.task.hard.plan_length
        self._check_trained(require_trained, h)
        builder = PlanBuilder(catalog)
        builder.add(catalog[start_item_id])
        return self._extend(builder, h, live)

    def complete(
        self,
        prefix_items: Sequence[Item],
        horizon: Optional[int] = None,
        require_trained: bool = True,
        allowed_item_ids: Optional[Allowed] = None,
    ) -> Plan:
        """Extend a committed plan prefix to the horizon.

        The prefix items are placed verbatim (they may even be absent
        from the live universe — history is immutable); the traversal
        then continues from the last prefix item exactly as
        :meth:`recommend` would, optionally restricted to
        ``allowed_item_ids``.  Used by mid-plan replanning to redo only
        the suffix after an availability delta.
        """
        prefix = tuple(prefix_items)
        if not prefix:
            raise PlanningError("complete() requires a non-empty prefix")
        h = horizon if horizon is not None else self.task.hard.plan_length
        self._check_trained(require_trained, h)
        builder = PlanBuilder(self.catalog)
        for item in prefix:
            builder.add(item)
        return self._extend(
            builder, h, live_mask(self.catalog, allowed_item_ids)
        )

    def _check_trained(self, require_trained: bool, horizon: int) -> None:
        if require_trained and self.qtable.update_count == 0 and horizon > 1:
            raise UntrainedPolicyError(
                "the Q-table has never been updated; train first or pass "
                "require_trained=False"
            )

    def _extend(
        self,
        builder: PlanBuilder,
        horizon: int,
        live: Optional[np.ndarray],
    ) -> Plan:
        """Greedy steps over index masks until the horizon.

        ``pool`` (unvisited and live) is both the candidate set and the
        continuation set; in trip mode candidates must also fit the
        remaining time budget.
        """
        catalog = self.catalog
        credits = catalog.columns.credits
        pool = builder.remaining_mask()
        if live is not None:
            pool &= live
        while len(builder) < horizon:
            pool_idx = np.flatnonzero(pool)
            cand_idx = pool_idx
            if self.mode is DomainMode.TRIP:
                budget_left = (
                    self.task.hard.min_credits - builder.total_credits
                )
                cand_idx = cand_idx[credits[cand_idx] <= budget_left + 1e-9]
            gated: Optional[GatedActions] = None
            if self.mask and self.reward is not None:
                gated = self.reward.mask_actions(builder, cand_idx)
                cand_idx = gated.idx
            if cand_idx.size == 0:
                break
            if self.recommendation is RecommendationMode.LOOKAHEAD:
                chosen = self._lookahead_choice(
                    builder, cand_idx if gated is None else gated, pool_idx
                )
            else:
                chosen = self._q_only_choice(builder, cand_idx)
            builder.add(catalog.item_at(chosen))
            pool[chosen] = False
        return builder.build()

    def _q_only_choice(
        self, builder: PlanBuilder, cand_idx: np.ndarray
    ) -> int:
        """Literal Algorithm-1 argmax of the stored Q row.

        A foreign last prefix item has no Q row: ``index_of`` refuses
        it (:class:`UnknownItemError`).
        """
        state_idx = self.catalog.index_of(builder.last_item.item_id)
        return self.qtable.best_action_idx(state_idx, cand_idx, rng=self._rng)

    def _lookahead_choice(
        self,
        builder: PlanBuilder,
        candidates: Union[np.ndarray, GatedActions],
        pool_idx: np.ndarray,
    ) -> int:
        """argmax over a of ``R(s, a) + gamma * max_b Q(a, b)``.

        The immediate term comes from the batched reward engine (reusing
        the step's gates when masking ran) and the continuation term
        from the backend's ``best_continuation`` over the unvisited live
        items (a sliced vectorized ``max`` on the dense table, a
        stored-entry scan on the sparse one — identical results either
        way).
        """
        cand_idx = (
            candidates.idx
            if isinstance(candidates, GatedActions)
            else candidates
        )
        future = self.qtable.best_continuation(cand_idx, pool_idx)
        rewards = self.reward.reward_batch(builder, candidates)
        totals = rewards + self.discount * future
        winners = tied_winners(totals)
        pick = 0
        if winners.size > 1 and self._rng is not None:
            pick = int(self._rng.integers(winners.size))
        return int(cand_idx[winners[pick]])

    def recommend_many(
        self, start_item_ids: Sequence[str], horizon: Optional[int] = None
    ) -> Tuple[Plan, ...]:
        """Recommend one plan per starting item."""
        return tuple(
            self.recommend(start, horizon=horizon) for start in start_item_ids
        )
