"""The weighted reward function of Equation 2.

    R(s_i, e_i, s_{i+1}) = theta * [ delta * Sim(s_{i+1}, IT_{i+1})
                                     + beta * weight_{type_m} ]
    theta = r1 * r2                                             (Eq. 5)

where

* ``r1`` (Eq. 3) gates on *topic coverage*: the action must add at least
  ``epsilon`` new topics from ``T_ideal`` to the running coverage set,
* ``r2`` (Eq. 4) gates on the *antecedent gap*: every (AND) / any (OR)
  prerequisite of the added item must already be in the plan at least
  ``gap`` positions earlier — in the trip domain the gap is instantiated
  as "no two consecutive POIs of the same theme",
* ``Sim`` is the interleaving similarity of the plan prefix *after* the
  action against the template ``IT`` (Eq. 6/7, average or minimum
  aggregation),
* ``weight_{type_m}`` is ``w1`` for primary and ``w2`` for secondary
  items (``w1 > w2``), generalized to per-category weights w1..w6 for the
  Univ-2 six-sub-discipline requirement.

This module exposes both the individual components (so tests and the
EDA baseline can reuse them) and a :class:`RewardFunction` that binds a
catalog + task + config into a single callable.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .catalog import Catalog
from .config import PlannerConfig
from .constraints import HardConstraints, TaskSpec
from .exceptions import PlanningError
from .items import Item
from .plan import PlanBuilder
from .similarity import aggregate_similarity
from .validation import haversine_km


@dataclass(frozen=True)
class RewardBreakdown:
    """The components of one reward evaluation, for diagnostics.

    ``total`` is the Equation-2 value; the other fields expose the gates
    and terms so experiments can report *why* an action scored zero.
    """

    r1_coverage: int
    r2_gap: int
    similarity: float
    type_weight: float
    total: float

    @property
    def theta(self) -> int:
        """The multiplicative gate ``theta = r1 * r2`` (Eq. 5)."""
        return self.r1_coverage * self.r2_gap


class GatedActions(NamedTuple):
    """One step's gated action set over catalog indices.

    What :meth:`RewardFunction.mask_actions` returns for an index-array
    input: ``idx`` holds the winning tier's catalog indices (input
    order kept) and ``theta`` the Eq. 5 gate ``r1 * r2`` of each, so
    the step's Eq. 2 totals (:meth:`RewardFunction.batch_components`)
    read the gates the tiering already evaluated.
    """

    idx: np.ndarray
    theta: np.ndarray


class _PrereqArrays(NamedTuple):
    """Every item's prerequisite CNF, flattened for reduceat passes.

    Members are tokenized rather than index-mapped because prerequisite
    edges may reference ids outside the catalog (out-of-program
    antecedents) and plan positions may contain foreign prefix items —
    both take part in gap checks by id, not by catalog index.
    """

    carriers: np.ndarray  # catalog index of each item with antecedents
    group_counts: np.ndarray  # CNF groups per carrier
    item_group_starts: np.ndarray  # first group of each carrier
    group_starts: np.ndarray  # first member of each group
    member_tokens: np.ndarray  # token of each group member
    token_index: Dict[str, int]  # member id -> token
    group_owner: np.ndarray  # carrier position of each group
    member_group: np.ndarray  # group of each member
    token_items: np.ndarray  # catalog index of each token (-1: foreign)


class _CatalogView:
    """Task-specific vectorized columns over one catalog.

    Combines the catalog's generic :class:`~repro.core.catalog.CatalogColumns`
    with everything the batch reward derives from the *task/config* pair:
    the ideal-topic incidence submatrix, the per-item type/category
    weight vector, and the flattened prerequisite CNF.  Built once per
    (reward, catalog) pair and cached.
    """

    def __init__(
        self,
        catalog: Catalog,
        task: TaskSpec,
        config: PlannerConfig,
        category_weights: Dict[str, float],
    ) -> None:
        cols = catalog.columns
        self.cols = cols

        ideal = task.soft.ideal_topics
        ideal_cols = sorted(
            cols.topic_index[t] for t in ideal if t in cols.topic_index
        )
        ideal_matrix = cols.topic_matrix[:, ideal_cols]
        # The Eq. 3 gain of a candidate is its ideal-topic count minus
        # its already-covered ones: one BLAS matrix-vector product
        # (float sums of a few ones are exact).
        self.ideal_counts = ideal_matrix.sum(axis=1)
        self.ideal_float = ideal_matrix.astype(np.float32)
        # topic -> position inside the ideal submatrix, for the running
        # covered-ideal vector.
        vocabulary_positions = {
            col: pos for pos, col in enumerate(ideal_cols)
        }
        self.ideal_positions: Dict[str, int] = {
            topic: vocabulary_positions[col]
            for topic, col in cols.topic_index.items()
            if col in vocabulary_positions
        }

        weights = np.where(
            cols.primary_mask,
            config.weights.w_primary,
            config.weights.w_secondary,
        )
        if category_weights:
            for code, category in enumerate(cols.categories):
                weight = category_weights.get(category)
                if weight is not None:
                    weights[cols.category_codes == code] = weight
        self.item_weights = weights
        self.category_codes: Dict[str, int] = {
            category: code for code, category in enumerate(cols.categories)
        }
        # Flattened prerequisite CNF (built lazily on first batched gap
        # or reachability evaluation; None until then).
        self._prereq_arrays: Optional[_PrereqArrays] = None
        self._catalog_ref = weakref.ref(catalog)

    def _prereqs(self) -> _PrereqArrays:
        arrays = self._prereq_arrays
        if arrays is None:
            arrays = self._prereq_arrays = self._build_prereq_arrays()
        return arrays

    def _build_prereq_arrays(self) -> _PrereqArrays:
        catalog = self._catalog_ref()
        carriers: List[int] = []
        group_counts: List[int] = []
        item_group_starts: List[int] = []
        group_starts: List[int] = []
        member_tokens: List[int] = []
        token_index: Dict[str, int] = {}
        for idx, item in enumerate(catalog):
            groups = item.prerequisites.groups
            if not groups:
                continue
            carriers.append(idx)
            item_group_starts.append(len(group_starts))
            group_counts.append(len(groups))
            for group in groups:
                group_starts.append(len(member_tokens))
                for member in sorted(group):
                    token = token_index.setdefault(member, len(token_index))
                    member_tokens.append(token)
        counts = np.asarray(group_counts, dtype=np.int64)
        starts = np.asarray(group_starts, dtype=np.int64)
        sizes = np.diff(np.append(starts, len(member_tokens)))
        index_map = catalog.index_map
        return _PrereqArrays(
            carriers=np.asarray(carriers, dtype=np.int64),
            group_counts=counts,
            item_group_starts=np.asarray(item_group_starts, dtype=np.int64),
            group_starts=starts,
            member_tokens=np.asarray(member_tokens, dtype=np.int64),
            token_index=token_index,
            group_owner=np.repeat(np.arange(counts.size), counts),
            member_group=np.repeat(np.arange(starts.size), sizes),
            token_items=np.fromiter(
                (index_map.get(member, -1) for member in token_index),
                dtype=np.int64,
                count=len(token_index),
            ),
        )

    def group_satisfied(
        self, positions: Dict[str, int], at_position: int, gap: int
    ) -> np.ndarray:
        """Per flattened CNF group: does it hold a member placed at
        least ``gap`` positions before ``at_position``?

        A member counts iff it is in ``positions`` (foreign prefix items
        included) with ``at_position - position >= gap`` — exactly the
        scalar ``Prerequisites.satisfied_by`` semantics.
        """
        arrays = self._prereqs()
        if arrays.group_starts.size == 0:
            return np.zeros(0, dtype=bool)
        token_pos = np.full(len(arrays.token_index), -1, dtype=np.int64)
        for item_id, position in positions.items():
            token = arrays.token_index.get(item_id)
            if token is not None:
                token_pos[token] = position
        member_pos = token_pos[arrays.member_tokens]
        member_ok = (member_pos >= 0) & (at_position - member_pos >= gap)
        return np.add.reduceat(member_ok, arrays.group_starts) > 0

    def item_satisfied(self, group_sat: np.ndarray) -> np.ndarray:
        """Per catalog index: no antecedents, or every group satisfied."""
        arrays = self._prereqs()
        out = np.ones(len(self.cols.primary_mask), dtype=bool)
        if arrays.carriers.size:
            sat_groups = np.add.reduceat(
                group_sat.astype(np.int64), arrays.item_group_starts
            )
            out[arrays.carriers] = sat_groups == arrays.group_counts
        return out

    def prereq_satisfied(
        self, positions: Dict[str, int], at_position: int, gap: int
    ) -> np.ndarray:
        """Vectorized ``Prerequisites.satisfied_by`` over the whole catalog."""
        return self.item_satisfied(
            self.group_satisfied(positions, at_position, gap)
        )

    def fixer_pairs(
        self, group_sat: np.ndarray, open_items: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(fixer, fixed)`` catalog-index pairs for the open items.

        Placing ``fixer`` now satisfies every unsatisfied group of the
        open (``open_items`` mask) item ``fixed``: ``fixer`` lies in the
        intersection of those groups, i.e. it is counted once per
        unsatisfied group.  Foreign members fix nothing a candidate
        could be.
        """
        arrays = self._prereqs()
        none = np.zeros(0, dtype=np.int64)
        if group_sat.size == 0:
            return none, none
        open_groups = ~group_sat & open_items[
            arrays.carriers[arrays.group_owner]
        ]
        if not open_groups.any():
            return none, none
        unsatisfied = np.bincount(
            arrays.group_owner[open_groups], minlength=arrays.carriers.size
        )
        members = open_groups[arrays.member_group]
        owners = arrays.group_owner[arrays.member_group[members]]
        n_tokens = len(arrays.token_index)
        keys, counts = np.unique(
            owners * n_tokens + arrays.member_tokens[members],
            return_counts=True,
        )
        owners, tokens = np.divmod(keys, n_tokens)
        common = counts == unsatisfied[owners]
        fixers = arrays.token_items[tokens[common]]
        fixed = arrays.carriers[owners[common]]
        known = fixers >= 0
        return fixers[known], fixed[known]

    def coverage_gain(self, topics, cand_idx: np.ndarray) -> np.ndarray:
        """New ideal topics each candidate adds to the covered ``topics``."""
        covered = np.zeros(self.ideal_float.shape[1], dtype=np.float32)
        positions = self.ideal_positions
        for topic in topics:
            pos = positions.get(topic)
            if pos is not None:
                covered[pos] = 1.0
        hits = (self.ideal_float @ covered)[cand_idx]
        return self.ideal_counts[cand_idx] - hits.astype(np.int64)


class _CategoryPool(NamedTuple):
    """One category's share of the reachable pool: size, primaries and
    the two smallest distinct credit values (with the multiplicity of
    the smallest), so one member's exclusion is an O(1) adjustment."""

    count: int
    primaries: int
    min1: float
    min1_count: int
    min2: float


def _haversine_vec(
    lat1: float, lon1: float, lat2: np.ndarray, lon2: np.ndarray
) -> np.ndarray:
    """:func:`haversine_km` from one point to many, as one array pass."""
    radius_km = 6371.0088
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = np.radians(lat2 - lat1)
    dlmb = np.radians(lon2 - lon1)
    a = (
        np.sin(dphi / 2.0) ** 2
        + np.cos(phi1) * np.cos(phi2) * np.sin(dlmb / 2.0) ** 2
    )
    return 2.0 * radius_km * np.arcsin(np.minimum(1.0, np.sqrt(a)))


class _FeasibilityContext:
    """One step's feasibility pool, checked for many candidates at once.

    Produced by :meth:`RewardFunction._feasibility_context`;
    :meth:`check` decides for a whole candidate index array exactly what
    the definitional gate decides one candidate at a time by rebuilding
    the pool (primary split, reachability, joint category minima,
    distance budget), as array adjustments of the shared aggregates.
    """

    __slots__ = (
        "hard",
        "cols",
        "slots_after",
        "base_primaries",
        "reachable",
        "reachable_primaries",
        "fixer_primaries",
        "category_pools",
        "fixer_pools",
        "category_codes",
        "base_earned",
        "base_distance",
        "last_coords",
    )

    def __init__(self, **fields) -> None:
        for name, value in fields.items():
            setattr(self, name, value)

    def check(self, cand_idx: np.ndarray) -> np.ndarray:
        """Would the plan stay completable after taking each candidate?"""
        hard: HardConstraints = self.hard
        primary = self.cols.primary_mask[cand_idx]
        primaries_short = np.maximum(
            0, hard.num_primary - (self.base_primaries + primary)
        )
        cand_reachable = self.reachable[cand_idx]
        unused_primaries = (
            self.reachable_primaries
            - (primary & cand_reachable)
            + self.fixer_primaries[cand_idx]
        )
        ok = (primaries_short <= self.slots_after) & (
            primaries_short <= unused_primaries
        )
        if hard.category_credit_map:
            ok &= self._joint_feasible(
                cand_idx, primary, cand_reachable,
                primaries_short, unused_primaries,
            )
        if self.last_coords is not None:
            ok &= self._distance_feasible(cand_idx)
        return ok

    def _joint_feasible(
        self,
        cand_idx: np.ndarray,
        primary: np.ndarray,
        cand_reachable: np.ndarray,
        primaries_short: np.ndarray,
        unused_primaries: np.ndarray,
    ) -> np.ndarray:
        """Category minima and the primary quota, checked *jointly*.

        The two constraints interact: when the remaining slots are all
        forced to be primary, a category whose unused pool is all
        secondary can no longer be filled.  Categories partition items,
        so a greedy assignment that prefers primaries inside each
        category's demand is exact.  Against the pooled aggregates, each
        category's pool loses the candidate (when it is a reachable
        member) and gains the items the candidate fixes.
        """
        cols = self.cols
        credits = cols.credits[cand_idx]
        codes = cols.category_codes[cand_idx]
        n = cand_idx.size
        ok = np.ones(n, dtype=bool)
        slots_used = np.zeros(n, dtype=np.int64)
        primaries_covered = np.zeros(n, dtype=np.int64)
        for category, minimum in self.hard.category_credit_map.items():
            in_cat = codes == self.category_codes.get(category, -2)
            base = self.base_earned.get(category, 0.0)
            shortfall = minimum - np.where(in_cat, base + credits, base)
            short = shortfall > 1e-9
            if not short.any():
                continue
            pool = self.category_pools.get(category)
            if pool is None:
                count = np.zeros(n, dtype=np.int64)
                lowest = np.full(n, np.inf)
                pool_primaries = np.zeros(n, dtype=np.int64)
            else:
                leaving = cand_reachable & in_cat
                count = pool.count - leaving
                lowest = np.where(
                    leaving & (credits == pool.min1) & (pool.min1_count == 1),
                    pool.min2,
                    pool.min1,
                )
                pool_primaries = pool.primaries - (leaving & primary)
            fixed = self.fixer_pools.get(category)
            if fixed is not None:
                fixed_count, fixed_lowest, fixed_primaries = fixed
                count = count + fixed_count[cand_idx]
                lowest = np.minimum(lowest, fixed_lowest[cand_idx])
                pool_primaries = pool_primaries + fixed_primaries[cand_idx]
            ok &= ~(short & (count == 0))
            fits = short & (count > 0)
            needed = np.zeros(n, dtype=np.int64)
            needed[fits] = -np.floor_divide(-shortfall[fits], lowest[fits])
            ok &= needed <= count
            slots_used += needed
            primaries_covered += np.minimum(needed, pool_primaries)
        primaries_left = np.maximum(0, primaries_short - primaries_covered)
        return (
            ok
            & (slots_used <= self.slots_after)
            & (primaries_left <= self.slots_after - slots_used)
            & (primaries_left <= unused_primaries)
        )

    def _distance_feasible(self, cand_idx: np.ndarray) -> np.ndarray:
        """Trip distance budget not blown by the leg to each candidate."""
        cols = self.cols
        lat0, lon0 = self.last_coords
        limit = self.hard.max_distance + 1e-9
        has = cols.has_coords[cand_idx]
        total = self.base_distance + _haversine_vec(
            lat0, lon0, cols.lat[cand_idx], cols.lon[cand_idx]
        )
        over = has & (total > limit)
        # numpy's sin/cos kernels may round differently from libm's:
        # candidates near the limit are settled with the scalar formula.
        for j in np.flatnonzero(has & (np.abs(total - limit) <= 1e-6)):
            i = int(cand_idx[j])
            leg = haversine_km(
                lat0, lon0, float(cols.lat[i]), float(cols.lon[i])
            )
            over[j] = self.base_distance + leg > limit
        return ~over


class RewardFunction:
    """Equation 2 bound to a task specification and planner config.

    Parameters
    ----------
    task:
        The :class:`TaskSpec` with hard and soft constraints.
    config:
        The :class:`PlannerConfig` carrying epsilon, delta/beta, type
        weights, and the similarity aggregation mode.
    """

    def __init__(self, task: TaskSpec, config: PlannerConfig) -> None:
        self.task = task
        self.config = config
        self._coverage_needed = config.coverage_count_threshold(
            len(task.soft.ideal_topics)
        )
        self._category_weights = config.weights.category_weight_map
        # Per-catalog vectorized columns; weak keys so subset/transfer
        # catalogs do not pile up for the lifetime of the reward.
        self._views: "weakref.WeakKeyDictionary[Catalog, _CatalogView]" = (
            weakref.WeakKeyDictionary()
        )

    def _view(self, catalog: Catalog) -> _CatalogView:
        view = self._views.get(catalog)
        if view is None:
            view = _CatalogView(
                catalog, self.task, self.config, self._category_weights
            )
            self._views[catalog] = view
        return view

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------

    def coverage_gate(self, builder: PlanBuilder, item: Item) -> int:
        """``r1`` (Eq. 3): does the action add enough new ideal topics?"""
        gained = builder.new_topics(item) & self.task.soft.ideal_topics
        return 1 if len(gained) >= self._coverage_needed else 0

    def gap_gate(self, builder: PlanBuilder, item: Item) -> int:
        """``r2`` (Eq. 4): antecedent/prerequisite gap satisfaction.

        Items without antecedents trivially pass.  In trip mode
        (``theme_adjacency_gap``) the gate additionally rejects an item
        sharing a theme with the immediately preceding POI, which is how
        the paper instantiates the trip-domain ``gap``.
        """
        if self.task.hard.theme_adjacency_gap:
            last = builder.last_item
            if last is not None and last.topics & item.topics:
                return 0
        if item.prerequisites.is_empty:
            return 1
        position = len(builder)  # the item lands at this 0-based position
        satisfied = item.prerequisites.satisfied_by(
            builder.positions, position, self.task.hard.gap
        )
        return 1 if satisfied else 0

    def interleaving_similarity(
        self, builder: PlanBuilder, item: Item
    ) -> float:
        """Aggregated Eq. 6/7 similarity of the prefix including ``item``."""
        prefix = builder.type_sequence() + (item.item_type,)
        if len(prefix) > self.task.soft.template.length:
            # Beyond the template horizon (possible in trip mode before
            # the time budget bites) template adherence is moot.
            return 0.0
        return aggregate_similarity(
            prefix, self.task.soft.template, self.config.similarity
        )

    def type_weight(self, item: Item) -> float:
        """``weight_{type_m}``: category weight when configured, else w1/w2."""
        if self._category_weights and item.category is not None:
            weight = self._category_weights.get(item.category)
            if weight is not None:
                return weight
        if item.is_primary:
            return self.config.weights.w_primary
        return self.config.weights.w_secondary

    def feasibility_gate(self, builder: PlanBuilder, item: Item) -> bool:
        """Lookahead mask: can the plan still satisfy P_hard after ``item``?

        Not part of the Eq. 2 value — the paper handles these constraints
        through the weighted reward and Theorem 1's argument — but used
        as an *action mask* alongside r1/r2 so the greedy traversal never
        paints itself into a corner on the primary split, the Univ-2
        per-category credit minima, or the trip distance threshold.  One
        catalog item through :meth:`feasible_mask`.
        """
        return bool(self.feasible_mask(builder, (item,))[0])

    def mask_actions(self, builder: PlanBuilder, candidates):
        """Tiered action masking used by the environment and recommender.

        Hard-constraint feasibility dominates the (soft) topic-coverage
        gate: the tiers are, in preference order,

        1. r1 AND r2 AND feasible,
        2. r2 AND feasible          (sacrifice coverage, keep P_hard),
        3. r1 AND r2,
        4. r2,
        5. everything               (episodes never deadlock).

        The three gates are evaluated once, vectorized over all
        candidates (:meth:`_tiers`); candidate order is kept.  Given a
        catalog-index array it returns the step's :class:`GatedActions`
        — the tier plus its theta, which is uniform within a tier (1 in
        tiers 1 and 3, 0 elsewhere) — for :meth:`batch_components` to
        reuse.  Given items it returns the tier's items.
        """
        if isinstance(candidates, np.ndarray):
            keep, theta = self._tiers(builder, candidates)
            idx = candidates[keep]
            return GatedActions(idx, np.full(idx.size, theta))
        items = tuple(candidates)
        if not items:
            return items
        keep, _theta = self._tiers(
            builder, self._catalog_indices(builder.catalog, items)
        )
        return tuple(itertools.compress(items, keep.tolist()))

    def _tiers(
        self, builder: PlanBuilder, cand_idx: np.ndarray
    ) -> Tuple[np.ndarray, bool]:
        """The winning tier as a mask over ``cand_idx``, and its theta."""
        n = cand_idx.size
        if n == 0:
            return np.zeros(0, dtype=bool), False
        view = self._view(builder.catalog)
        covered = self._coverage_mask(builder, view, cand_idx)
        gap_ok = self._gap_mask_idx(builder, view, cand_idx)
        feasible = np.zeros(n, dtype=bool)
        feasible[gap_ok] = self.feasible_mask(builder, cand_idx[gap_ok])
        for tier in (feasible, gap_ok):
            both = tier & covered
            if both.any():
                return both, True
            if tier.any():
                return tier, False
        return np.ones(n, dtype=bool), False

    # ------------------------------------------------------------------
    # Batched evaluation (one step, all candidates)
    # ------------------------------------------------------------------

    @staticmethod
    def _candidate_indices(
        catalog: Catalog, candidates: Sequence[Item]
    ) -> Optional[np.ndarray]:
        """Catalog indices of the candidates, or None when any is foreign."""
        index_map = catalog.index_map
        out = np.empty(len(candidates), dtype=np.int64)
        for j, item in enumerate(candidates):
            idx = index_map.get(item.item_id)
            if idx is None:
                return None
            out[j] = idx
        return out

    def _catalog_indices(
        self, catalog: Catalog, candidates: Sequence[Item]
    ) -> np.ndarray:
        """Catalog indices of the candidates; a foreign one is an error."""
        cand_idx = self._candidate_indices(catalog, candidates)
        if cand_idx is None:
            foreign = next(
                item.item_id
                for item in candidates
                if item.item_id not in catalog.index_map
            )
            raise PlanningError(
                f"candidate {foreign!r} is not in catalog {catalog.name!r}"
            )
        return cand_idx

    def _coverage_mask(
        self,
        builder: PlanBuilder,
        view: _CatalogView,
        cand_idx: np.ndarray,
    ) -> np.ndarray:
        """Vectorized ``r1`` (Eq. 3) over candidate indices."""
        gained = view.coverage_gain(builder.covered_topics, cand_idx)
        return gained >= self._coverage_needed

    def _gap_mask_idx(
        self,
        builder: PlanBuilder,
        view: _CatalogView,
        cand_idx: np.ndarray,
    ) -> np.ndarray:
        """``r2`` (Eq. 4) over catalog indices, fully vectorized.

        The theme-adjacency check is one column slice of the topic
        matrix (the last item's topics, which may be a foreign prefix
        item's); the prerequisite CNF is evaluated in one
        :meth:`_CatalogView.prereq_satisfied` pass against the shared
        positions snapshot.
        """
        ok = np.ones(cand_idx.size, dtype=bool)
        cols = view.cols
        if self.task.hard.theme_adjacency_gap:
            last = builder.last_item
            if last is not None:
                last_cols = [
                    cols.topic_index[t]
                    for t in last.topics
                    if t in cols.topic_index
                ]
                ok &= ~cols.topic_matrix[np.ix_(cand_idx, last_cols)].any(
                    axis=1
                )
        if cols.has_prereqs[cand_idx].any():
            satisfied = view.prereq_satisfied(
                builder.positions, len(builder), self.task.hard.gap
            )
            ok &= satisfied[cand_idx]
        return ok

    def mask_actions_pruned_idx(
        self, builder: PlanBuilder, cand_idx: np.ndarray, top_k: int
    ) -> tuple:
        """Two-stage tiered masking over catalog indices with top-k pruning.

        Stage 1 runs the cheap vectorized gates (Eq. 3 coverage, Eq. 4
        gap) over every candidate index.  Stage 2 sorts the surviving
        pool by its *exact* reward — inside the covered-and-gap-ok tier
        ``theta == 1``, so ``delta*sim + beta*weight`` is the Eq. 2
        value itself, not merely an upper bound — feasibility-checks the
        sorted pool in one vectorized pass, and keeps the first
        ``top_k`` feasible candidates *plus every tie at the boundary
        value*.

        Soundness: the unpruned path's winning tier is exactly the
        feasible members of this pool (tier 1 of :meth:`mask_actions`),
        and its argmax winner set is the feasible candidates attaining
        the maximal reward — all of which this cut keeps (they sort
        first).  Returning the kept indices in ascending catalog order
        preserves the relative candidate order, so the downstream argmax
        — including the tie-break RNG draw — is bit-identical to the
        unpruned path.  Whenever tier 1 would be empty (no covered
        gap-ok candidate, or none of them feasible) the method falls
        back to the full :meth:`mask_actions` tier cascade.
        """
        catalog = builder.catalog
        view = self._view(catalog)
        covered = self._coverage_mask(builder, view, cand_idx)
        gap_ok = self._gap_mask_idx(builder, view, cand_idx)
        pool = cand_idx[covered & gap_ok]
        ctx = self._feasibility_context(builder) if pool.size else None
        if ctx is None:
            return self._mask_items(builder, cand_idx)

        template = self.task.soft.template
        if len(builder) + 1 > template.length:
            sims = np.zeros(pool.size, dtype=np.float64)
        else:
            state = builder.similarity_state(template, self.config.similarity)
            sim_primary, sim_secondary = state.peek_types()
            sims = np.where(
                view.cols.primary_mask[pool], sim_primary, sim_secondary
            )
        rewards = (
            self.config.weights.delta * sims
            + self.config.weights.beta * view.item_weights[pool]
        )
        order = np.argsort(-rewards, kind="stable")
        ranked = order[ctx.check(pool[order])]
        if ranked.size > top_k:
            boundary = rewards[ranked[top_k - 1]]
            ranked = ranked[rewards[ranked] >= boundary]
        if ranked.size == 0:
            return self._mask_items(builder, cand_idx)
        kept = np.sort(pool[ranked]).tolist()
        return tuple(catalog.item_at(i) for i in kept)

    def _mask_items(self, builder: PlanBuilder, cand_idx: np.ndarray) -> tuple:
        """The unpruned tier cascade over indices, as catalog items."""
        catalog = builder.catalog
        gated = self.mask_actions(builder, cand_idx)
        return tuple(catalog.item_at(i) for i in gated.idx.tolist())

    def _feasibility_context(
        self, builder: PlanBuilder
    ) -> Optional[_FeasibilityContext]:
        """Per-step feasibility pool shared by every candidate check.

        Builds, once, everything a per-candidate gate would recompute
        for every candidate: the reachability of the remaining pool and,
        from the same CNF group pass, the items each candidate would make
        reachable ("fixers", as per-index count vectors); the primary
        count; the per-category credit aggregates; and the travelled-
        distance base.  Returns None when no slot remains (every
        candidate infeasible).
        """
        hard = self.task.hard
        slots_after = hard.plan_length - (len(builder) + 1)
        if slots_after < 0:
            return None

        catalog = builder.catalog
        n = len(catalog)
        view = self._view(catalog)
        cols = view.cols
        last_slot = hard.plan_length - 1
        minima = hard.category_credit_map

        # Base reachability of the pool under the current positions; a
        # candidate can only *add* reachability when it is a member of
        # every unsatisfied group of a pooled item.
        remaining = builder.remaining_mask()
        group_sat = view.group_satisfied(
            builder.positions, last_slot, hard.gap
        )
        reachable = remaining & view.item_satisfied(group_sat)
        if last_slot - len(builder) >= hard.gap:
            fixers, fixed = view.fixer_pairs(group_sat, remaining)
        else:
            fixers = fixed = np.zeros(0, dtype=np.int64)

        category_pools: Dict[str, _CategoryPool] = {}
        fixer_pools: Dict[str, Tuple[np.ndarray, ...]] = {}
        base_earned: Dict[str, float] = {}
        for category in minima:
            code = view.category_codes.get(category)
            if code is None:
                continue
            in_cat = cols.category_codes == code
            sel = reachable & in_cat
            if sel.any():
                credits = cols.credits[sel]
                min1 = float(credits.min())
                above = credits[credits > min1]
                category_pools[category] = _CategoryPool(
                    count=int(np.count_nonzero(sel)),
                    primaries=int(np.count_nonzero(cols.primary_mask[sel])),
                    min1=min1,
                    min1_count=int(np.count_nonzero(credits == min1)),
                    min2=float(above.min()) if above.size else float("inf"),
                )
            fixed_in = in_cat[fixed]
            if fixed_in.any():
                by, items = fixers[fixed_in], fixed[fixed_in]
                lowest = np.full(n, np.inf)
                np.minimum.at(lowest, by, cols.credits[items])
                fixer_pools[category] = (
                    np.bincount(by, minlength=n),
                    lowest,
                    np.bincount(by[cols.primary_mask[items]], minlength=n),
                )
        if minima:
            for chosen in builder.items:
                if chosen.category is not None:
                    base_earned[chosen.category] = (
                        base_earned.get(chosen.category, 0.0) + chosen.credits
                    )

        base_distance = 0.0
        last_coords: Optional[Tuple[float, float]] = None
        if hard.max_distance is not None and len(builder) > 0:
            coords = []
            for chosen in builder.items:
                lat, lon = chosen.meta("lat"), chosen.meta("lon")
                if lat is None or lon is None:
                    break  # no geo data: nothing to enforce
                coords.append((float(lat), float(lon)))
            else:
                for a, b in zip(coords, coords[1:]):
                    base_distance += haversine_km(a[0], a[1], b[0], b[1])
                last_coords = coords[-1]

        return _FeasibilityContext(
            hard=hard,
            cols=cols,
            slots_after=slots_after,
            base_primaries=builder.num_primary,
            reachable=reachable,
            reachable_primaries=int(
                np.count_nonzero(cols.primary_mask & reachable)
            ),
            fixer_primaries=np.bincount(
                fixers[cols.primary_mask[fixed]], minlength=n
            ),
            category_pools=category_pools,
            fixer_pools=fixer_pools,
            category_codes=view.category_codes,
            base_earned=base_earned,
            base_distance=base_distance,
            last_coords=last_coords,
        )

    def feasible_mask(
        self, builder: PlanBuilder, candidates
    ) -> np.ndarray:
        """The lookahead feasibility mask (:meth:`feasibility_gate`) over
        many candidates.

        ``candidates`` is a catalog-index array or a sequence of catalog
        items.  The feasibility pool (remaining items, their
        reachability, the items each candidate would fix, the
        per-category credit aggregates, the travelled distance) is
        computed *once* per step (:meth:`_feasibility_context`), then
        every candidate is checked in one array pass.
        """
        if not isinstance(candidates, np.ndarray):
            candidates = self._catalog_indices(
                builder.catalog, tuple(candidates)
            )
        if candidates.size == 0:
            return np.zeros(0, dtype=bool)
        ctx = self._feasibility_context(builder)
        if ctx is None:
            return np.zeros(candidates.size, dtype=bool)
        return ctx.check(candidates)

    def batch_components(
        self, builder: PlanBuilder, candidates
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized Eq. 2 components for every candidate.

        ``candidates`` is a sequence of items, a catalog-index array, or
        this step's :class:`GatedActions` (whose theta is reused rather
        than recomputed).  Returns ``(theta, similarity, type_weight,
        total)`` arrays aligned with the candidates; values equal the
        per-item :meth:`breakdown` fields exactly (the equality is
        pinned by tests).  Similarity is evaluated through the plan
        builder's incremental state: since every candidate extends the
        same prefix at the same position, only two aggregated
        similarities exist — one per item type — and each costs
        O(|IT|).
        """
        theta: Optional[np.ndarray] = None
        if isinstance(candidates, GatedActions):
            cand_idx, theta = candidates
        elif isinstance(candidates, np.ndarray):
            cand_idx = candidates
        else:
            items = tuple(candidates)
            cand_idx = self._candidate_indices(builder.catalog, items)
            if cand_idx is None:
                return self._batch_components_scalar(builder, items)
        n = cand_idx.size
        if n == 0:
            empty = np.zeros(0, dtype=np.float64)
            return np.zeros(0, dtype=bool), empty, empty.copy(), empty.copy()
        view = self._view(builder.catalog)
        if theta is None:
            theta = self._coverage_mask(builder, view, cand_idx)
            theta &= self._gap_mask_idx(builder, view, cand_idx)

        template = self.task.soft.template
        if len(builder) + 1 > template.length or not theta.any():
            sims = np.zeros(n, dtype=np.float64)
        else:
            state = builder.similarity_state(template, self.config.similarity)
            sim_primary, sim_secondary = state.peek_types()
            sims = np.where(
                view.cols.primary_mask[cand_idx], sim_primary, sim_secondary
            )
            sims = np.where(theta, sims, 0.0)

        weights = view.item_weights[cand_idx]
        totals = np.where(
            theta,
            self.config.weights.delta * sims
            + self.config.weights.beta * weights,
            0.0,
        )
        return theta, sims, weights, totals

    def _batch_components_scalar(
        self, builder: PlanBuilder, candidates: Tuple[Item, ...]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fallback path when candidates are outside the catalog index."""
        n = len(candidates)
        theta = np.zeros(n, dtype=bool)
        sims = np.zeros(n, dtype=np.float64)
        weights = np.zeros(n, dtype=np.float64)
        totals = np.zeros(n, dtype=np.float64)
        for j, item in enumerate(candidates):
            b = self.breakdown(builder, item)
            theta[j] = b.theta != 0
            sims[j] = b.similarity
            weights[j] = b.type_weight
            totals[j] = b.total
        return theta, sims, weights, totals

    def reward_batch(self, builder: PlanBuilder, candidates) -> np.ndarray:
        """Equation-2 rewards for all candidates as one float64 vector.

        Takes what :meth:`batch_components` takes.  Semantically
        identical to ``[self(builder, c) for c in candidates]`` but
        O(|I|) per step instead of O(|I| * (|I| + k*|IT|)).
        """
        return self.batch_components(builder, candidates)[3]

    def reward_batch_multi(
        self,
        builders: Sequence[PlanBuilder],
        cand_idx_lists: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        """Eq. 2 rewards for many (builder, candidate-set) pairs at once.

        All builders must share one catalog; ``cand_idx_lists[e]`` holds
        catalog indices of episode ``e``'s candidates.  Each pair goes
        through the index path of :meth:`reward_batch`, so the result is
        bit-identical to calling it per episode.
        """
        return [
            self.reward_batch(builder, np.asarray(ci, dtype=np.int64).ravel())
            for builder, ci in zip(builders, cand_idx_lists)
        ]

    # ------------------------------------------------------------------
    # Equation 2
    # ------------------------------------------------------------------

    def breakdown(self, builder: PlanBuilder, item: Item) -> RewardBreakdown:
        """Full component breakdown for adding ``item`` to ``builder``."""
        r1 = self.coverage_gate(builder, item)
        r2 = self.gap_gate(builder, item)
        theta = r1 * r2
        if theta == 0:
            # Short-circuit: the gated total is zero regardless of the
            # soft terms; still compute them lazily only when gated in.
            return RewardBreakdown(
                r1_coverage=r1,
                r2_gap=r2,
                similarity=0.0,
                type_weight=self.type_weight(item),
                total=0.0,
            )
        sim = self.interleaving_similarity(builder, item)
        weight = self.type_weight(item)
        total = theta * (
            self.config.weights.delta * sim
            + self.config.weights.beta * weight
        )
        return RewardBreakdown(
            r1_coverage=r1,
            r2_gap=r2,
            similarity=sim,
            type_weight=weight,
            total=total,
        )

    def __call__(self, builder: PlanBuilder, item: Item) -> float:
        """Equation-2 reward for taking the action that adds ``item``."""
        return self.breakdown(builder, item).total

    def best_possible(self) -> float:
        """Upper bound of a single-step reward (for normalization).

        With theta = 1, similarity <= template length (zeta and the match
        count are each at most k, so Eq. 6 is bounded by k), and weight
        <= max type/category weight.
        """
        weights = [self.config.weights.w_primary, self.config.weights.w_secondary]
        weights.extend(self._category_weights.values())
        return (
            self.config.weights.delta * self.task.soft.template.length
            + self.config.weights.beta * max(weights)
        )


def batch_rewards(
    reward, builder: PlanBuilder, candidates: Sequence[Item]
) -> np.ndarray:
    """Score all candidates in one shot, whatever the reward object is.

    Uses ``reward.reward_batch`` when the callable provides it (the
    vectorized engine) and falls back to a per-item loop for plain
    RewardFunction-compatible callables (e.g. test doubles), so every
    hot-loop call site can switch to batch scoring unconditionally.
    """
    batch = getattr(reward, "reward_batch", None)
    if batch is not None:
        return batch(builder, candidates)
    return np.fromiter(
        (reward(builder, item) for item in candidates),
        dtype=np.float64,
        count=len(candidates),
    )
