"""Correctness checks over one run's recorded operations."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from drivers import Event

#: (label, item ids that must all be open, lowest version, highest version)
PlanRecord = Tuple[str, Tuple[str, ...], int, int]


def version_bounds(history, sent: float, done: float) -> Tuple[int, int]:
    """Catalog versions an operation running over ``[sent, done]`` can
    have read: every delta acknowledged before it was sent had applied,
    and none sent after it completed can have."""
    low = max((v for _s, d, v, _c in history if d <= sent), default=0)
    high = max((v for s, _d, v, _c in history if s <= done), default=0)
    return low, high


def plan_records(serves: Sequence[Event], replans: Sequence[Event], history) -> List[PlanRecord]:
    """The plans to check against the closed sets of their versions.

    A replan keeps the committed prefix verbatim (history is never
    rewritten), so only its suffix must avoid closed items, from the
    version its triggering delta was acknowledged at on.
    """
    records: List[PlanRecord] = []
    for event in serves:
        result = event.result
        if result is not None and result.plan is not None:
            low, high = version_bounds(history, event.sent, event.done)
            records.append(("serve", result.plan.item_ids, low, high))
    for event in replans:
        result = event.result
        if result is not None and result.plan is not None:
            low, high = version_bounds(history, event.sent, event.done)
            suffix = result.plan.item_ids[result.suffix_start:]
            records.append(("replan", suffix, max(low, event.floor), high))
    return records


def closed_item_violations(records: Sequence[PlanRecord], history) -> List[str]:
    """Plans holding an item that was closed at every version they could
    have been planned against."""
    closed_at: Dict[int, frozenset] = {0: frozenset()}
    closed_at.update((v, closed) for _s, _d, v, closed in history)
    bad = []
    for label, items, low, high in records:
        wanted = set(items)
        if not any(
            v in closed_at and not (wanted & closed_at[v])
            for v in range(low, high + 1)
        ):
            bad.append(f"{label} v{low}..v{high}: {sorted(wanted & closed_at.get(high, frozenset()))}")
    return bad


def invalid_ok_plans(results: Sequence, validator) -> List[str]:
    """Plans whose envelope claims validity but fail validation."""
    bad = []
    for result in results:
        if result is not None and result.ok and result.plan is not None:
            report = validator.validate(result.plan)
            if not report.is_valid:
                bad.append(f"{result.plan.item_ids}: {report.describe()}")
    return bad
