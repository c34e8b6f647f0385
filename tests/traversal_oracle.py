"""Reference oracles for the index-native greedy traversal.

The recommender now steps over catalog-index arrays and evaluates the
coverage, gap and feasibility gates once per step, vectorized
(``GreedyPolicy._extend``, ``RewardFunction.mask_actions`` on an index
array, ``_FeasibilityContext.check``).  This module keeps the
Item-based code it replaced, as the reference the differential tests
pin the survivor to:

* :class:`OracleGreedyPolicy` — the Item-based traversal
  (``_allowed_actions`` + ``mask_actions`` + ``_lookahead_choice`` /
  ``_q_only_choice``), with the availability filter as an id set;
* :func:`mask_actions` — the Item-based tier cascade over per-item gap
  checks and the scalar pooled feasibility check;
* :class:`ScalarFeasibility` / :func:`feasibility_context` — the scalar
  pooled check, one candidate at a time, with its fixers dictionary;
* :func:`feasibility_gate` — the definitional per-item feasibility
  gate, which rescans the remaining pool for every candidate;
* :func:`mask_actions_scalar` — the tier cascade over the definitional
  per-item gates (``coverage_gate``, ``gap_gate``, ``feasibility_gate``);
* :func:`eda_recommend` — the EDA baseline's Item-based greedy fill.

Rewards are the scalar Eq. 2 (``reward(builder, item)``), so nothing
here runs through the index path under test.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import RecommendationMode
from repro.core.env import DomainMode
from repro.core.exceptions import PlanningError
from repro.core.items import Item
from repro.core.plan import Plan, PlanBuilder
from repro.core.validation import haversine_km


def feasibility_gate(reward, builder: PlanBuilder, item: Item) -> bool:
    """Can the plan still satisfy P_hard after ``item``? (definitional)

    Rebuilds the unused pool for this one candidate — the primary split,
    reachability under the projected positions, the joint category
    minima, the distance budget — with no shared per-step state.
    """
    hard = reward.task.hard
    slots_after = hard.plan_length - (len(builder) + 1)
    if slots_after < 0:
        return False

    # Primary split: enough primary slots and unused primaries left.
    primaries_have = sum(
        1 for chosen in builder.items if chosen.is_primary
    ) + (1 if item.is_primary else 0)
    primaries_short = max(0, hard.num_primary - primaries_have)
    if primaries_short > slots_after:
        return False
    # Future positions that matter for reachability: a pooled item
    # can still enter the plan only if each of its prerequisite
    # groups has a member already placed (counting the candidate)
    # early enough to satisfy the gap by the final slot.
    future_positions = dict(builder.positions)
    future_positions[item.item_id] = len(builder)
    last_slot = hard.plan_length - 1
    unused = [
        other
        for other in builder.remaining_items()
        if other.item_id != item.item_id
        and is_reachable(reward, other, future_positions, last_slot)
    ]
    unused_primaries = sum(1 for other in unused if other.is_primary)
    if primaries_short > unused_primaries:
        return False

    if not _joint_feasible(
        reward, builder, item, unused, slots_after, primaries_short
    ):
        return False
    return _distance_feasible(reward, builder, item)


def is_reachable(reward, item: Item, positions, last_slot: int) -> bool:
    """Could ``item`` still legally enter the plan by the final slot?

    Conservative filter for feasibility pools: an item with an
    unsatisfied prerequisite group whose members are all absent from
    the (projected) plan cannot be scheduled any more.  Items whose
    prerequisites might *themselves* still be added later are
    counted as unreachable — a stricter gate only makes validity
    more robust.
    """
    if item.prerequisites.is_empty:
        return True
    return item.prerequisites.satisfied_by(
        positions, last_slot, reward.task.hard.gap
    )


def _joint_feasible(
    reward,
    builder: PlanBuilder,
    item: Item,
    unused,
    slots_after: int,
    primaries_short: int,
) -> bool:
    """Category minima and the primary quota, checked *jointly*.

    The two constraints interact: when the remaining slots are all
    forced to be primary, a category whose unused pool is all
    secondary can no longer be filled.  Categories partition items,
    so a greedy assignment that prefers primaries inside each
    category's demand is exact.
    """
    minima = reward.task.hard.category_credit_map
    if not minima:
        return True
    earned: Dict[str, float] = {}
    for chosen in builder.items:
        if chosen.category is not None:
            earned[chosen.category] = (
                earned.get(chosen.category, 0.0) + chosen.credits
            )
    if item.category is not None:
        earned[item.category] = (
            earned.get(item.category, 0.0) + item.credits
        )

    slots_used = 0
    primaries_covered = 0
    for category, minimum in minima.items():
        shortfall = minimum - earned.get(category, 0.0)
        if shortfall <= 1e-9:
            continue
        pool = [o for o in unused if o.category == category]
        if not pool:
            return False
        per_item = min(o.credits for o in pool)
        needed = int(-(-shortfall // per_item))  # ceil division
        if needed > len(pool):
            return False
        slots_used += needed
        # Prefer primaries inside the demand: they double-count
        # toward the primary quota.
        pool_primaries = sum(1 for o in pool if o.is_primary)
        primaries_covered += min(needed, pool_primaries)

    if slots_used > slots_after:
        return False
    primaries_left = max(0, primaries_short - primaries_covered)
    free_slots = slots_after - slots_used
    if primaries_left > free_slots:
        return False
    unused_primaries = sum(1 for o in unused if o.is_primary)
    return primaries_left <= unused_primaries


def _distance_feasible(reward, builder: PlanBuilder, item: Item) -> bool:
    """Trip distance budget not blown by the leg to ``item``."""
    max_distance = reward.task.hard.max_distance
    if max_distance is None or not builder.items:
        return True
    coords = []
    for chosen in list(builder.items) + [item]:
        lat, lon = chosen.meta("lat"), chosen.meta("lon")
        if lat is None or lon is None:
            return True  # no geo data: nothing to enforce
        coords.append((float(lat), float(lon)))
    total = sum(
        haversine_km(a[0], a[1], b[0], b[1])
        for a, b in zip(coords, coords[1:])
    )
    return total <= max_distance + 1e-9


class CategoryPoolStats:
    """Per-category aggregates of a feasibility pool (count, primary
    count, two smallest distinct credit values)."""

    def __init__(self) -> None:
        self.count = 0
        self.primaries = 0
        self.min1 = float("inf")
        self.min1_count = 0
        self.min2 = float("inf")

    def add(self, item: Item) -> None:
        self.count += 1
        if item.is_primary:
            self.primaries += 1
        credits = item.credits
        if credits < self.min1:
            self.min2 = self.min1
            self.min1 = credits
            self.min1_count = 1
        elif credits == self.min1:
            self.min1_count += 1
        elif credits < self.min2:
            self.min2 = credits

    def min_without(self, credits: float) -> float:
        """Smallest credit value if one item worth ``credits`` left."""
        if credits == self.min1 and self.min1_count == 1:
            return self.min2
        return self.min1


class ScalarFeasibility:
    """One step's feasibility pool, checked one candidate at a time."""

    def __init__(
        self,
        reward,
        index_map: Dict[str, int],
        slots_after: int,
        base_primaries: int,
        reachable: np.ndarray,
        reachable_primaries: int,
        category_stats: Dict[str, CategoryPoolStats],
        fixers: Dict[str, List[Item]],
        base_earned: Dict[str, float],
        distance_applies: bool,
        base_distance: float,
        last_coords: Optional[Tuple[float, float]],
    ) -> None:
        self.reward = reward
        self.index_map = index_map
        self.slots_after = slots_after
        self.base_primaries = base_primaries
        self.reachable = reachable
        self.reachable_primaries = reachable_primaries
        self.category_stats = category_stats
        self.fixers = fixers
        self.base_earned = base_earned
        self.distance_applies = distance_applies
        self.base_distance = base_distance
        self.last_coords = last_coords

    def check(self, cand: Item) -> bool:
        """Would the plan stay completable after taking ``cand``?"""
        hard = self.reward.task.hard
        primaries_have = self.base_primaries + (1 if cand.is_primary else 0)
        primaries_short = max(0, hard.num_primary - primaries_have)
        if primaries_short > self.slots_after:
            return False
        fixed = self.fixers.get(cand.item_id, ())
        idx = self.index_map.get(cand.item_id)
        cand_reachable = idx is not None and bool(self.reachable[idx])
        unused_primaries = (
            self.reachable_primaries
            - (1 if cand.is_primary and cand_reachable else 0)
            + sum(1 for other in fixed if other.is_primary)
        )
        if primaries_short > unused_primaries:
            return False
        if hard.category_credit_map and not _joint_feasible_pooled(
            self.reward,
            cand,
            self.category_stats,
            self.base_earned,
            fixed,
            cand_reachable,
            self.slots_after,
            primaries_short,
            unused_primaries,
        ):
            return False
        if self.distance_applies:
            lat, lon = cand.meta("lat"), cand.meta("lon")
            if lat is not None and lon is not None:
                total = self.base_distance + haversine_km(
                    self.last_coords[0],
                    self.last_coords[1],
                    float(lat),
                    float(lon),
                )
                if total > hard.max_distance + 1e-9:
                    return False
        return True


def _joint_feasible_pooled(
    reward,
    cand: Item,
    category_stats: Dict[str, CategoryPoolStats],
    base_earned: Dict[str, float],
    fixed: Sequence[Item],
    cand_reachable: bool,
    slots_after: int,
    primaries_short: int,
    unused_primaries: int,
) -> bool:
    minima = reward.task.hard.category_credit_map
    slots_used = 0
    primaries_covered = 0
    for category, minimum in minima.items():
        earned = base_earned.get(category, 0.0)
        if cand.category == category:
            earned += cand.credits
        shortfall = minimum - earned
        if shortfall <= 1e-9:
            continue
        stats = category_stats.get(category)
        if stats is None:
            pool_count = 0
            pool_min = float("inf")
            pool_primaries = 0
        else:
            pool_count = stats.count
            pool_min = stats.min1
            pool_primaries = stats.primaries
            if cand_reachable and cand.category == category:
                pool_count -= 1
                pool_min = stats.min_without(cand.credits)
                if cand.is_primary:
                    pool_primaries -= 1
        for other in fixed:
            if other.category == category:
                pool_count += 1
                pool_min = min(pool_min, other.credits)
                if other.is_primary:
                    pool_primaries += 1
        if pool_count == 0:
            return False
        needed = int(-(-shortfall // pool_min))  # ceil division
        if needed > pool_count:
            return False
        slots_used += needed
        primaries_covered += min(needed, pool_primaries)

    if slots_used > slots_after:
        return False
    primaries_left = max(0, primaries_short - primaries_covered)
    free_slots = slots_after - slots_used
    if primaries_left > free_slots:
        return False
    return primaries_left <= unused_primaries


def feasibility_context(reward, builder: PlanBuilder):
    """The scalar pooled feasibility state of one step (None: no slot)."""
    hard = reward.task.hard
    slots_after = hard.plan_length - (len(builder) + 1)
    if slots_after < 0:
        return None
    catalog = builder.catalog
    positions = builder.positions
    k = len(builder)
    last_slot = hard.plan_length - 1
    gap = hard.gap
    minima = hard.category_credit_map

    remaining = builder.remaining_items()
    reachable = np.zeros(len(catalog), dtype=bool)
    unreachable: List[Item] = []
    category_stats: Dict[str, CategoryPoolStats] = {}
    for other in remaining:
        if is_reachable(reward, other, positions, last_slot):
            reachable[catalog.index_of(other.item_id)] = True
            if other.category in minima:
                category_stats.setdefault(
                    other.category, CategoryPoolStats()
                ).add(other)
        else:
            unreachable.append(other)
    reachable_primaries = sum(
        1
        for other in remaining
        if other.is_primary and reachable[catalog.index_of(other.item_id)]
    )

    fixers: Dict[str, List[Item]] = {}
    if last_slot - k >= gap:
        for other in unreachable:
            unsatisfied = [
                group
                for group in other.prerequisites.groups
                if not any(
                    member in positions
                    and last_slot - positions[member] >= gap
                    for member in group
                )
            ]
            for fixer_id in frozenset.intersection(*unsatisfied):
                fixers.setdefault(fixer_id, []).append(other)

    base_earned: Dict[str, float] = {}
    if minima:
        for chosen in builder.items:
            if chosen.category is not None:
                base_earned[chosen.category] = (
                    base_earned.get(chosen.category, 0.0) + chosen.credits
                )

    distance_applies = hard.max_distance is not None and len(builder) > 0
    base_distance = 0.0
    last_coords = None
    if distance_applies:
        coords = []
        for chosen in builder.items:
            lat, lon = chosen.meta("lat"), chosen.meta("lon")
            if lat is None or lon is None:
                distance_applies = False
                break
            coords.append((float(lat), float(lon)))
        if distance_applies:
            for a, b in zip(coords, coords[1:]):
                base_distance += haversine_km(a[0], a[1], b[0], b[1])
            last_coords = coords[-1]

    return ScalarFeasibility(
        reward=reward,
        index_map=catalog.index_map,
        slots_after=slots_after,
        base_primaries=builder.num_primary,
        reachable=reachable,
        reachable_primaries=reachable_primaries,
        category_stats=category_stats,
        fixers=fixers,
        base_earned=base_earned,
        distance_applies=distance_applies,
        base_distance=base_distance,
        last_coords=last_coords,
    )


def feasible_mask(reward, builder: PlanBuilder, candidates) -> np.ndarray:
    """The scalar pooled check over candidates, one at a time."""
    candidates = tuple(candidates)
    out = np.zeros(len(candidates), dtype=bool)
    ctx = feasibility_context(reward, builder) if candidates else None
    if ctx is None:
        return out
    for j, cand in enumerate(candidates):
        out[j] = ctx.check(cand)
    return out


def mask_actions(reward, builder: PlanBuilder, candidates) -> tuple:
    """Item-based tier cascade: per-item r1/r2 gates, pooled feasibility.

    ``reward`` may be a feedback-adjusted wrapper: its hard rejection of
    refused items runs first, by id, as it did item by item.
    """
    candidates = tuple(candidates)
    if not candidates:
        return candidates
    threshold = getattr(reward, "reject_threshold", None)
    if threshold is not None:
        filtered = tuple(
            item
            for item in candidates
            if reward.store.preference(item.item_id) > threshold
        )
        if filtered:
            candidates = filtered
    base = getattr(reward, "base", reward)
    gap_ok = tuple(item for item in candidates if base.gap_gate(builder, item))
    feasible_flags = feasible_mask(base, builder, gap_ok)
    feasible = tuple(
        item for item, ok in zip(gap_ok, feasible_flags.tolist()) if ok
    )
    for tier in (feasible, gap_ok):
        covered = tuple(
            item for item in tier if base.coverage_gate(builder, item)
        )
        if covered:
            return covered
        if tier:
            return tier
    return candidates


def mask_actions_scalar(reward, builder: PlanBuilder, candidates) -> tuple:
    """Tier cascade over the definitional per-item gates."""
    gap_ok = tuple(
        item for item in candidates if reward.gap_gate(builder, item)
    )
    feasible = tuple(
        item for item in gap_ok if feasibility_gate(reward, builder, item)
    )
    for tier in (feasible, gap_ok):
        covered = tuple(
            item for item in tier if reward.coverage_gate(builder, item)
        )
        if covered:
            return covered
        if tier:
            return tier
    return tuple(candidates)


class OracleGreedyPolicy:
    """The Item-based greedy traversal (same constructor as
    ``GreedyPolicy``; ``allowed_item_ids`` is an id set)."""

    def __init__(
        self,
        qtable,
        task,
        mode: DomainMode = DomainMode.COURSE,
        rng_seed: Optional[int] = None,
        reward=None,
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
        self._rng = (
            np.random.default_rng(rng_seed) if rng_seed is not None else None
        )

    @property
    def catalog(self):
        return self.qtable.catalog

    def recommend(
        self,
        start_item_id: str,
        horizon: Optional[int] = None,
        allowed_item_ids: Optional[FrozenSet[str]] = None,
    ) -> Plan:
        if (
            allowed_item_ids is not None
            and start_item_id not in allowed_item_ids
        ):
            raise PlanningError("start item not live")
        builder = PlanBuilder(self.catalog)
        builder.add(self.catalog[start_item_id])
        h = horizon if horizon is not None else self.task.hard.plan_length
        return self._extend(builder, start_item_id, h, allowed_item_ids)

    def complete(
        self,
        prefix_items: Sequence[Item],
        horizon: Optional[int] = None,
        allowed_item_ids: Optional[FrozenSet[str]] = None,
    ) -> Plan:
        prefix = tuple(prefix_items)
        builder = PlanBuilder(self.catalog)
        for item in prefix:
            builder.add(item)
        h = horizon if horizon is not None else self.task.hard.plan_length
        return self._extend(builder, prefix[-1].item_id, h, allowed_item_ids)

    def _extend(self, builder, current, horizon, allowed_item_ids) -> Plan:
        while len(builder) < horizon:
            candidates = self._allowed_actions(builder, allowed_item_ids)
            if not candidates:
                break
            if self.recommendation is RecommendationMode.LOOKAHEAD:
                next_id = self._lookahead_choice(
                    builder, candidates, allowed_item_ids
                )
            else:
                next_id = self._q_only_choice(current, candidates)
            builder.add_by_id(next_id)
            current = next_id
        return builder.build()

    def _q_only_choice(self, current: str, candidates: Sequence[Item]) -> str:
        return self.qtable.best_action(
            current, [c.item_id for c in candidates], rng=self._rng
        )

    def _lookahead_choice(self, builder, candidates, allowed_item_ids) -> str:
        catalog = self.catalog
        remaining_idx = builder.remaining_indices()
        if allowed_item_ids is not None:
            keep = np.fromiter(
                (
                    catalog.item_at(int(i)).item_id in allowed_item_ids
                    for i in remaining_idx
                ),
                dtype=bool,
                count=len(remaining_idx),
            )
            remaining_idx = remaining_idx[keep]
        cand_idx = np.fromiter(
            (catalog.index_of(item.item_id) for item in candidates),
            dtype=np.int64,
            count=len(candidates),
        )
        future = self.qtable.best_continuation(cand_idx, remaining_idx)
        rewards = np.array([self.reward(builder, c) for c in candidates])
        totals = rewards + self.discount * future

        best_value = -np.inf
        winners: list = []
        for action, total in zip(candidates, totals.tolist()):
            if total > best_value + 1e-12:
                best_value = total
                winners = [action.item_id]
            elif abs(total - best_value) <= 1e-12:
                winners.append(action.item_id)
        if len(winners) > 1 and self._rng is not None:
            return winners[int(self._rng.integers(len(winners)))]
        return winners[0]

    def _allowed_actions(self, builder, allowed_item_ids) -> Tuple[Item, ...]:
        remaining = builder.remaining_items()
        if allowed_item_ids is not None:
            remaining = tuple(
                item for item in remaining if item.item_id in allowed_item_ids
            )
        if self.mode is DomainMode.TRIP:
            budget_left = self.task.hard.min_credits - builder.total_credits
            remaining = tuple(
                item
                for item in remaining
                if item.credits <= budget_left + 1e-9
            )
        if self.mask and self.reward is not None:
            return mask_actions(self.reward, builder, remaining)
        return remaining


def eda_recommend(eda, start_item_id: str, horizon: Optional[int] = None):
    """The Item-based EDA greedy fill: the remaining items that fit the
    budget (re-read per item), scalar Eq. 2 rewards, one uniform draw
    among the maxima per step from ``eda``'s own RNG."""
    builder = PlanBuilder(eda.catalog)
    builder.add(eda.catalog[start_item_id])
    horizon = eda._horizon(horizon)
    while len(builder) < horizon:
        candidates = [
            item
            for item in builder.remaining_items()
            if item.credits <= eda._budget_left(builder.total_credits)
        ]
        if not candidates:
            break
        rewards = np.array([eda.reward(builder, item) for item in candidates])
        winners = np.flatnonzero(rewards == rewards.max())
        pick = int(winners[int(eda._rng.integers(winners.size))])
        builder.add(candidates[pick])
    return builder.build()
