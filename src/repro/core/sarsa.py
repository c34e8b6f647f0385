"""The SARSA learner of Algorithm 1 (learning phase).

The paper adapts on-policy SARSA: during an episode the behaviour policy
selects the next item by maximizing the *immediate Equation-2 reward*
(Algorithm 1 lines 4 and 9), while the Q-table is updated with the usual
on-policy temporal-difference rule (Eq. 9)

    Q(s, e) <- Q(s, e) + alpha * [ r + gamma * Q(s', e') - Q(s, e) ]

We additionally support epsilon-greedy exploration on top of the
reward-greedy choice (``PlannerConfig.exploration``), which breaks the
determinism of pure greedy rollouts and lets repeated episodes visit more
of the state space — with ``exploration=0`` the learner is exactly the
paper's algorithm.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_registry
from .config import PlannerConfig
from .env import TPPEnvironment
from .exceptions import PlanningError
from .items import Item
from .qtable import QTableBase, make_qtable
from .reward import batch_rewards


class ActionSelection(enum.Enum):
    """Behaviour-policy flavour used while learning.

    REWARD_GREEDY is the paper's Algorithm 1 (argmax of immediate Eq. 2
    reward); Q_GREEDY is classic epsilon-greedy on the current Q-values
    (provided for the exploration ablation bench).
    """

    REWARD_GREEDY = "reward_greedy"
    Q_GREEDY = "q_greedy"


@dataclass
class EpisodeStats:
    """Per-episode learning diagnostics."""

    episode: int
    start_item_id: str
    length: int
    total_reward: float
    zero_reward_steps: int


@dataclass
class LearningResult:
    """Output of a learning run: the Q-table plus diagnostics."""

    qtable: QTableBase
    episodes: int
    elapsed_seconds: float
    stats: List[EpisodeStats] = field(default_factory=list)

    @property
    def mean_episode_reward(self) -> float:
        """Average cumulative reward per episode."""
        if not self.stats:
            return 0.0
        return sum(s.total_reward for s in self.stats) / len(self.stats)

    def reward_trace(self) -> List[float]:
        """Cumulative reward per episode in order (convergence plots)."""
        return [s.total_reward for s in self.stats]


class SarsaLearner:
    """On-policy SARSA over a :class:`TPPEnvironment`.

    Parameters
    ----------
    env:
        The episodic environment (catalog + task + reward).
    config:
        Hyper-parameters: episodes N, alpha, gamma, exploration epsilon,
        seed.
    selection:
        Behaviour-policy flavour; defaults to the paper's reward-greedy.
    registry:
        Explicit metrics sink; ``None`` resolves the process-active
        registry (:func:`repro.obs.get_registry`) at each :meth:`learn`
        call, so enabling observability after construction still takes
        effect.
    """

    def __init__(
        self,
        env: TPPEnvironment,
        config: PlannerConfig,
        selection: ActionSelection = ActionSelection.REWARD_GREEDY,
        registry=None,
    ) -> None:
        self.env = env
        self.config = config
        self.selection = selection
        self.registry = registry
        self._obs = registry if registry is not None else get_registry()
        self._rng = np.random.default_rng(config.seed)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    @property
    def rng_state(self) -> dict:
        """The behaviour-policy bit-generator state (JSON-serializable).

        Snapshotting this together with the Q-table and the episode
        counter is all a checkpoint needs: restoring it makes a resumed
        run draw the exact random sequence an uninterrupted run would.
        """
        return self._rng.bit_generator.state

    @rng_state.setter
    def rng_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state

    # ------------------------------------------------------------------
    # Behaviour policy
    # ------------------------------------------------------------------

    def _choose_action(
        self, qtable: QTableBase, state: Item, actions: Sequence[Item]
    ) -> Item:
        """Pick the next item per the behaviour policy."""
        if not actions:
            raise PlanningError("no valid actions available")
        with self._obs.span("sarsa.action_selection"):
            if (
                self.config.exploration > 0.0
                and self._rng.random() < self.config.exploration
            ):
                return actions[int(self._rng.integers(len(actions)))]
            if self.selection is ActionSelection.REWARD_GREEDY:
                return self._argmax_reward(state, actions)
            return self._argmax_q(qtable, state, actions)

    def _argmax_reward(self, state: Item, actions: Sequence[Item]) -> Item:
        """Algorithm-1 selection: maximize the immediate Eq. 2 reward.

        All actions are scored in one vectorized pass; ties are the
        exact-equality argmax set (``np.flatnonzero(r == r.max())``),
        broken uniformly at random.
        """
        builder = self.env.builder
        with self._obs.span("sarsa.batch_rewards"):
            rewards = batch_rewards(self.env.reward, builder, actions)
        winners = np.flatnonzero(rewards == rewards.max())
        if winners.size == 1:
            return actions[int(winners[0])]
        return actions[int(winners[int(self._rng.integers(winners.size))])]

    def _argmax_q(
        self, qtable: QTableBase, state: Item, actions: Sequence[Item]
    ) -> Item:
        """Classic greedy-on-Q selection with random tie-breaking.

        Uses the index-based ``best_action_idx`` fast path (no per-call
        id re-resolution); falls back to the id-based lookup only when
        the state or an action is outside the catalog index.
        """
        index_map = self.env.catalog.index_map
        state_idx = index_map.get(state.item_id)
        if state_idx is not None:
            allowed_idx = np.empty(len(actions), dtype=np.int64)
            for j, action in enumerate(actions):
                idx = index_map.get(action.item_id)
                if idx is None:
                    break
                allowed_idx[j] = idx
            else:
                chosen_idx = qtable.best_action_idx(
                    state_idx, allowed_idx, rng=self._rng
                )
                return self.env.catalog.item_at(chosen_idx)
        ids = [a.item_id for a in actions]
        chosen = qtable.best_action(state.item_id, ids, rng=self._rng)
        return self.env.catalog[chosen]

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------

    def learn(
        self,
        start_item_ids: Optional[Sequence[str]] = None,
        episodes: Optional[int] = None,
        qtable: Optional[QTableBase] = None,
        on_episode: Optional[Callable[[EpisodeStats], None]] = None,
        start_episode: int = 0,
        episode_batch: int = 1,
    ) -> LearningResult:
        """Run ``episodes`` learning episodes and return the Q-table.

        Parameters
        ----------
        start_item_ids:
            Pool of episode starting items; a start is drawn uniformly
            per episode.  Defaults to every item in the catalog, which
            matches "learns Q values ... with different starting states".
        episodes:
            Override of ``config.episodes``.
        qtable:
            Warm-start table (transfer learning / incremental training).
        on_episode:
            Optional callback receiving :class:`EpisodeStats`.
        start_episode:
            Offset applied to the episode numbers in the emitted stats
            (checkpointed training runs ``learn`` in chunks and keep a
            global episode counter across them).
        episode_batch:
            Number of episodes rolled out concurrently, with each
            round's reward-greedy action selections funnelled through a
            single reward call (``reward_batch_multi``).  The
            default 1 runs the original per-episode loop byte-for-byte.
            With N > 1 episodes are processed in fixed groups of N and
            each group advances in *slot-major rounds*; training is
            deterministic under this documented interleaving (see
            :meth:`_run_episode_batch`), but draws the RNG in a
            different order than N=1, so the two settings produce
            different — individually reproducible — trajectories.
            Raises for learner subclasses that override the update rule.
        """
        catalog = self.env.catalog
        if episode_batch < 1:
            raise PlanningError("episode_batch must be >= 1")
        if (
            episode_batch > 1
            and type(self)._run_episode is not SarsaLearner._run_episode
        ):
            raise PlanningError(
                "episode_batch > 1 batches the SARSA update rule; "
                f"{type(self).__name__} overrides _run_episode and must "
                "train with episode_batch=1"
            )
        if start_item_ids is None:
            starts: Tuple[str, ...] = catalog.item_ids
        else:
            starts = tuple(start_item_ids)
            for item_id in starts:
                if item_id not in catalog:
                    raise PlanningError(
                        f"start item {item_id!r} not in catalog "
                        f"{catalog.name!r}"
                    )
        if not starts:
            raise PlanningError("empty start-item pool")

        n_episodes = episodes if episodes is not None else self.config.episodes
        table = (
            qtable
            if qtable is not None
            else make_qtable(catalog, backend=self.config.qtable_backend)
        )
        stats: List[EpisodeStats] = []
        obs = self._obs = (
            self.registry if self.registry is not None else get_registry()
        )
        t0 = time.perf_counter()

        def _emit(episode_stats: EpisodeStats) -> None:
            stats.append(episode_stats)
            obs.inc("sarsa_episodes_total")
            obs.set_gauge("sarsa_episode_reward", episode_stats.total_reward)
            obs.set_gauge("sarsa_episode_length", episode_stats.length)
            obs.set_gauge(
                "sarsa_episode_zero_reward_steps",
                episode_stats.zero_reward_steps,
            )
            if on_episode is not None:
                on_episode(episode_stats)

        with obs.span("sarsa.learn"):
            if episode_batch == 1:
                for episode in range(n_episodes):
                    start_id = starts[int(self._rng.integers(len(starts)))]
                    episode_stats = self._run_episode(
                        table, start_episode + episode, start_id
                    )
                    _emit(episode_stats)
            else:
                episode = 0
                while episode < n_episodes:
                    group = min(episode_batch, n_episodes - episode)
                    start_ids = [
                        starts[int(self._rng.integers(len(starts)))]
                        for _ in range(group)
                    ]
                    for episode_stats in self._run_episode_batch(
                        table, start_episode + episode, start_ids
                    ):
                        _emit(episode_stats)
                    episode += group

        elapsed = time.perf_counter() - t0
        return LearningResult(
            qtable=table,
            episodes=n_episodes,
            elapsed_seconds=elapsed,
            stats=stats,
        )

    def _run_episode(
        self, table: QTableBase, episode: int, start_id: str
    ) -> EpisodeStats:
        """One SARSA episode: roll out, updating Q along the way.

        Item ids are resolved to catalog indices once per chosen action
        and threaded through the loop — the TD update and bootstrap
        lookup never re-resolve an id.
        """
        env = self.env
        catalog = env.catalog
        state = env.reset(start_id)
        total_reward = 0.0
        zero_steps = 0

        actions = env.valid_actions()
        if not actions:
            # Dead start: no step is ever taken.  The episode length is
            # whatever reset() seeded (NOT a hardcoded 1 — an env may
            # seed more than the start item), and with zero steps taken
            # there are zero zero-reward steps, exactly as the normal
            # path would count them.
            self._obs.inc("sarsa_dead_start_episodes_total")
            return EpisodeStats(
                episode=episode,
                start_item_id=start_id,
                length=len(env.builder),
                total_reward=total_reward,
                zero_reward_steps=zero_steps,
            )
        action = self._choose_action(table, state, actions)
        s_idx = catalog.index_of(state.item_id)
        a_idx = catalog.index_of(action.item_id)

        while True:
            reward, done = env.step(action)
            self._obs.inc("sarsa_steps_total")
            total_reward += reward
            if reward == 0.0:
                zero_steps += 1

            next_state = action

            if done:
                table.td_update(
                    s_idx, a_idx, reward, self.config.learning_rate
                )
                break

            next_actions = env.valid_actions()
            if not next_actions:
                table.td_update(
                    s_idx, a_idx, reward, self.config.learning_rate
                )
                break
            next_action = self._choose_action(table, next_state, next_actions)
            next_a_idx = catalog.index_of(next_action.item_id)
            target = reward + self.config.discount * table.q_value(
                a_idx, next_a_idx
            )
            table.td_update(s_idx, a_idx, target, self.config.learning_rate)

            state, action = next_state, next_action
            s_idx, a_idx = a_idx, next_a_idx

        return EpisodeStats(
            episode=episode,
            start_item_id=start_id,
            length=len(env.builder),
            total_reward=total_reward,
            zero_reward_steps=zero_steps,
        )

    # ------------------------------------------------------------------
    # Episode-batched learning
    # ------------------------------------------------------------------

    def _run_episode_batch(
        self, table: QTableBase, first_episode: int, start_ids: Sequence[str]
    ) -> List[EpisodeStats]:
        """Roll out one group of episodes concurrently, slot-major.

        Episode ``first_episode + slot`` runs in slot ``slot`` on its
        own environment (same catalog/task/reward).  The group advances
        in rounds; each round runs three phases, every phase visiting
        the live slots in ascending order:

        1. **step** — apply each slot's pending action.
        2. **selection** — the surviving slots choose their next actions
           together: first the exploration coin (and, if it fires, the
           uniform pick) per slot in ascending order, then *one*
           ``reward_batch_multi`` call scoring every greedy slot's
           candidates, then the greedy tie-break draws in ascending slot
           order.  All draws come from ``self._rng``.
        3. **record** — each slot appends its transition
           ``(s, a, r, a')`` to a per-slot trace; no table write happens
           during the rollout.

        When every slot has retired, the recorded traces are **replayed
        in episode order**: slot 0's TD updates first, each target
        recomputed from the live table exactly as the sequential loop
        would.  Because the paper's reward-greedy behaviour policy never
        reads the Q-table, a group whose rollout consumes no RNG inside
        episodes (zero exploration, tie-free rewards) trains the
        *byte-identical* table the sequential path would — the replay
        applies the same updates in the same order against the same
        intermediate values.  With exploration, reward ties, or
        Q-greedy selection the batched path is still fully deterministic
        for a given seed, batch size, and start sequence, but consumes
        RNG in a different order than ``episode_batch=1`` (and Q-greedy
        selections read the table *without* the current group's pending
        updates), so the two paths then produce different —
        individually reproducible — trajectories that converge to
        equivalent policies.
        """
        env0 = self.env
        catalog = env0.catalog
        group = len(start_ids)
        envs = [
            TPPEnvironment(
                catalog, env0.task, env0.config, env0.mode, reward=env0.reward
            )
            for _ in range(group)
        ]
        stats: List[Optional[EpisodeStats]] = [None] * group
        totals = [0.0] * group
        zeros = [0] * group
        # slot -> (action to apply, s_idx, a_idx)
        pending: Dict[int, Tuple[Item, int, int]] = {}
        # Per-slot transition traces (s_idx, a_idx, reward, next_a_idx);
        # next_a_idx is None on the terminal transition.  Updates are
        # deferred to the episode-order replay below.
        traces: List[List[Tuple[int, int, float, Optional[int]]]] = [
            [] for _ in range(group)
        ]

        requests: List[Tuple[TPPEnvironment, int, np.ndarray]] = []
        slots_requesting: List[int] = []
        for slot in range(group):
            envs[slot].reset(start_ids[slot])
            cand_idx = self._candidate_idx(envs[slot])
            if cand_idx.size == 0:
                self._obs.inc("sarsa_dead_start_episodes_total")
                stats[slot] = EpisodeStats(
                    episode=first_episode + slot,
                    start_item_id=start_ids[slot],
                    length=len(envs[slot].builder),
                    total_reward=0.0,
                    zero_reward_steps=0,
                )
            else:
                slots_requesting.append(slot)
                requests.append(
                    (
                        envs[slot],
                        catalog.index_of(start_ids[slot]),
                        cand_idx,
                    )
                )
        chosen = self._select_actions_batch(table, requests)
        for slot, request, choice in zip(slots_requesting, requests, chosen):
            pending[slot] = (catalog.item_at(choice), request[1], choice)
        running = slots_requesting

        while running:
            results: Dict[int, Tuple[float, bool]] = {}
            for slot in running:
                action, s_idx, a_idx = pending[slot]
                reward, done = envs[slot].step(action)
                self._obs.inc("sarsa_steps_total")
                totals[slot] += reward
                if reward == 0.0:
                    zeros[slot] += 1
                results[slot] = (reward, done)

            continuing: List[int] = []
            requests = []
            for slot in running:
                reward, done = results[slot]
                action, s_idx, a_idx = pending[slot]
                next_cand = (
                    None if done else self._candidate_idx(envs[slot])
                )
                if next_cand is None or next_cand.size == 0:
                    traces[slot].append((s_idx, a_idx, reward, None))
                    stats[slot] = EpisodeStats(
                        episode=first_episode + slot,
                        start_item_id=start_ids[slot],
                        length=len(envs[slot].builder),
                        total_reward=totals[slot],
                        zero_reward_steps=zeros[slot],
                    )
                else:
                    continuing.append(slot)
                    requests.append((envs[slot], a_idx, next_cand))

            if continuing:
                chosen = self._select_actions_batch(table, requests)
                for slot, next_a_idx in zip(continuing, chosen):
                    action, s_idx, a_idx = pending[slot]
                    reward, _ = results[slot]
                    traces[slot].append((s_idx, a_idx, reward, next_a_idx))
                    pending[slot] = (
                        catalog.item_at(next_a_idx), a_idx, next_a_idx
                    )
            running = continuing

        # Episode-order replay: recompute each target against the live
        # table, exactly as the sequential loop interleaves bootstrap
        # reads and writes within and across episodes.
        for trace in traces:
            for s_idx, a_idx, reward, next_a_idx in trace:
                if next_a_idx is None:
                    target = reward
                else:
                    target = reward + self.config.discount * table.q_value(
                        a_idx, next_a_idx
                    )
                table.td_update(
                    s_idx, a_idx, target, self.config.learning_rate
                )

        return [s for s in stats if s is not None]

    def _candidate_idx(self, env: TPPEnvironment) -> np.ndarray:
        """Candidate catalog indices for ``env``'s current state.

        Index-space twin of ``env.valid_actions()``: same items, same
        (ascending catalog) order.  With masking off this is a pure
        index computation — no Item tuple is ever materialized, which
        is what lets the batched rollout stay O(1) Python objects per
        candidate at 10k+ items.  With masking on, the (already pruned
        or masked) Item tuple is resolved back to indices; those sets
        are small by construction.
        """
        if not env.config.mask_invalid_actions:
            return np.asarray(env.valid_action_indices(), dtype=np.int64)
        actions = env.valid_actions()
        index_map = env.catalog.index_map
        return np.fromiter(
            (index_map[action.item_id] for action in actions),
            dtype=np.int64,
            count=len(actions),
        )

    def _select_actions_batch(
        self,
        table: QTableBase,
        requests: Sequence[Tuple[TPPEnvironment, int, np.ndarray]],
    ) -> List[int]:
        """Behaviour-policy choices for many (env, s_idx, cand_idx) at once.

        Fully index-space: each request carries the state's catalog
        index and the candidate indices (ascending catalog order, the
        order ``valid_actions`` yields), and the chosen action comes
        back as a catalog index.  RNG order contract (all draws from
        ``self._rng``): exploration coins and uniform picks first, in
        request order; then — for reward-greedy slots — one
        ``reward_batch_multi`` call (no draws) followed by the tie-break
        draws in request order.  Q-greedy slots draw their tie-breaks in
        request order instead of the reward call.
        """
        catalog = self.env.catalog
        chosen: List[int] = [-1] * len(requests)
        greedy: List[int] = []
        eps = self.config.exploration
        for j, (env, s_idx, cand_idx) in enumerate(requests):
            if eps > 0.0 and self._rng.random() < eps:
                chosen[j] = int(
                    cand_idx[int(self._rng.integers(cand_idx.size))]
                )
            else:
                greedy.append(j)
        if not greedy:
            return chosen

        if self.selection is ActionSelection.Q_GREEDY:
            for j in greedy:
                env, s_idx, cand_idx = requests[j]
                chosen[j] = table.best_action_idx(
                    s_idx, cand_idx, rng=self._rng
                )
            return chosen

        multi = getattr(self.env.reward, "reward_batch_multi", None)
        rewards_by_slot: Dict[int, np.ndarray] = {}
        if multi is not None:
            builders = [requests[j][0].builder for j in greedy]
            idx_lists = [requests[j][2] for j in greedy]
            with self._obs.span("sarsa.batch_rewards"):
                rewards_list = multi(builders, idx_lists)
            for j, rewards in zip(greedy, rewards_list):
                rewards_by_slot[j] = rewards
        else:
            # Custom reward wrappers without the multi-episode entry point
            # fall back to one batched call per slot.
            for j in greedy:
                env, s_idx, cand_idx = requests[j]
                actions = tuple(
                    catalog.item_at(int(i)) for i in cand_idx
                )
                with self._obs.span("sarsa.batch_rewards"):
                    rewards_by_slot[j] = batch_rewards(
                        env.reward, env.builder, actions
                    )
        for j in greedy:
            cand_idx = requests[j][2]
            rewards = rewards_by_slot[j]
            winners = np.flatnonzero(rewards == rewards.max())
            if winners.size == 1:
                chosen[j] = int(cand_idx[int(winners[0])])
            else:
                chosen[j] = int(
                    cand_idx[int(winners[int(self._rng.integers(winners.size))])]
                )
        return chosen
