"""Catalog/constraint delta events: the changing-world data model.

The paper plans once against a frozen catalog; real traffic closes items
mid-plan (full course sections, shuttered POIs) and tightens constraints
after the first ``k`` slots are committed.  This module defines the
event vocabulary for that churn and a :class:`CatalogView` that folds a
stream of events over an immutable base :class:`~repro.core.catalog.Catalog`
into availability masks over the base's item indices.  A fold touches
only the changed item plus one vectorized orphan-cascade pass over the
base's flattened prerequisite CNF; the *live* catalog is materialized
lazily, at most once per version, for the readers that need ``Item``
objects, so a later ``reopen`` restores exactly the prerequisite edges a
``close`` pruned.

Event kinds
-----------
``CatalogDelta``:

* ``close`` — the item becomes unavailable for new placements.
* ``reopen`` — a previously closed item becomes available again.
* ``credit_change`` — the item's credit/cost value changes.

``ConstraintDelta``:

* ``min_credits`` — the task's credit floor (courses) or budget ceiling
  (trips) moves.  Constraint deltas are session-scoped: they retarget a
  :class:`~repro.serving.replan.ReplanSession`'s task, not the shared
  service catalog.

All dataclasses are frozen and carry a caller-assigned ``seq`` so replay
logs order identically across runs.
"""

from __future__ import annotations

import dataclasses
import threading
import types
from typing import Callable, Dict, FrozenSet, Mapping, Optional, Tuple, Union

import numpy as np

from .catalog import Catalog, SubsetFinding
from .exceptions import DeltaError
from .items import Item

#: Catalog-delta kinds.
DELTA_CLOSE = "close"
DELTA_REOPEN = "reopen"
DELTA_CREDIT_CHANGE = "credit_change"
CATALOG_DELTA_KINDS = (DELTA_CLOSE, DELTA_REOPEN, DELTA_CREDIT_CHANGE)

#: Constraint-delta kinds.
DELTA_MIN_CREDITS = "min_credits"
CONSTRAINT_DELTA_KINDS = (DELTA_MIN_CREDITS,)


@dataclasses.dataclass(frozen=True)
class CatalogDelta:
    """One availability/attribute change to a single catalog item."""

    kind: str
    item_id: str
    credits: Optional[float] = None
    seq: int = 0

    def __post_init__(self) -> None:
        if self.kind not in CATALOG_DELTA_KINDS:
            raise DeltaError(
                f"unknown catalog delta kind {self.kind!r} "
                f"(expected one of {CATALOG_DELTA_KINDS})"
            )
        if not self.item_id:
            raise DeltaError("catalog delta requires an item_id")
        if self.kind == DELTA_CREDIT_CHANGE:
            if self.credits is None or self.credits <= 0:
                raise DeltaError(
                    f"credit_change delta for {self.item_id!r} requires a "
                    f"positive credits value, got {self.credits!r}"
                )
        elif self.credits is not None:
            raise DeltaError(
                f"{self.kind} delta for {self.item_id!r} must not carry "
                f"a credits value"
            )

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "item": self.item_id,
            "seq": self.seq,
        }
        if self.credits is not None:
            out["credits"] = self.credits
        return out


@dataclasses.dataclass(frozen=True)
class ConstraintDelta:
    """One change to the task's hard constraints (session-scoped)."""

    kind: str
    value: float
    seq: int = 0

    def __post_init__(self) -> None:
        if self.kind not in CONSTRAINT_DELTA_KINDS:
            raise DeltaError(
                f"unknown constraint delta kind {self.kind!r} "
                f"(expected one of {CONSTRAINT_DELTA_KINDS})"
            )
        if self.value <= 0:
            raise DeltaError(
                f"constraint delta {self.kind!r} requires a positive "
                f"value, got {self.value!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "value": self.value, "seq": self.seq}


Delta = Union[CatalogDelta, ConstraintDelta]


def delta_from_payload(payload: object) -> Delta:
    """Decode a wire payload (one JSON object) into a typed delta.

    Accepts the shape produced by ``to_dict``.  Unknown fields are
    rejected so protocol typos fail loudly rather than silently no-op.
    """
    if not isinstance(payload, dict):
        raise DeltaError(f"delta payload must be an object, got {payload!r}")
    known = {"kind", "item", "credits", "value", "seq"}
    unknown = set(payload) - known
    if unknown:
        raise DeltaError(f"unknown delta field(s): {sorted(unknown)}")
    kind = payload.get("kind")
    if not isinstance(kind, str):
        raise DeltaError(f"delta payload requires a string 'kind', got {kind!r}")
    seq_raw = payload.get("seq", 0)
    if not isinstance(seq_raw, int) or isinstance(seq_raw, bool):
        raise DeltaError(f"delta 'seq' must be an integer, got {seq_raw!r}")
    if kind in CONSTRAINT_DELTA_KINDS:
        value = payload.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise DeltaError(
                f"constraint delta {kind!r} requires a numeric 'value'"
            )
        return ConstraintDelta(kind=kind, value=float(value), seq=seq_raw)
    item = payload.get("item")
    if not isinstance(item, str):
        raise DeltaError(f"catalog delta {kind!r} requires a string 'item'")
    credits = payload.get("credits")
    if credits is not None:
        if not isinstance(credits, (int, float)) or isinstance(credits, bool):
            raise DeltaError("delta 'credits' must be numeric")
        credits = float(credits)
    return CatalogDelta(kind=kind, item_id=item, credits=credits, seq=seq_raw)



#: What ``Catalog`` says when asked to hold no items; quoted when a fold
#: would prune the live catalog empty.
_EMPTY_CATALOG = "catalog must contain at least one item"


def _frozen(mask: np.ndarray) -> np.ndarray:
    mask.flags.writeable = False
    return mask


class LiveState:
    """One immutable version of a :class:`CatalogView`'s fold state.

    Everything is indexed by the base catalog's item indices, so a fold
    costs the changed item plus one vectorized cascade, not a catalog
    rebuild.  Per-version derived values (the materialized catalog,
    masks over other catalogs, admission figures) are computed on first
    use and cached here, so they live exactly as long as the version.

    Attributes
    ----------
    base:
        The immutable base catalog.
    version:
        Number of deltas folded so far.
    closed_mask:
        True where an item is closed (read-only).
    live_mask:
        True where an item is open and not orphaned by the prerequisite
        cascade (read-only): the items a fresh plan may place.
    pruned_mask:
        True where a live item lost a known prerequisite alternative.
    overrides:
        Read-only credit-override map (item id -> credits).
    findings:
        One ``orphaned_item`` finding per open item the cascade dropped
        and one ``pruned_prereq`` finding per live item that lost a known
        alternative, in base order.
    """

    __slots__ = (
        "base",
        "version",
        "closed_mask",
        "live_mask",
        "pruned_mask",
        "overrides",
        "findings",
        "live_count",
        "_memo",
        "_lock",
    )

    def __init__(
        self,
        base: Catalog,
        version: int,
        closed_mask: np.ndarray,
        live_mask: np.ndarray,
        pruned_mask: np.ndarray,
        overrides: Dict[str, float],
        findings: Tuple[SubsetFinding, ...],
    ) -> None:
        self.base = base
        self.version = version
        self.closed_mask = _frozen(closed_mask)
        self.live_mask = _frozen(live_mask)
        self.pruned_mask = _frozen(pruned_mask)
        self.overrides: Mapping[str, float] = types.MappingProxyType(
            overrides
        )
        self.findings = findings
        self.live_count = int(np.count_nonzero(live_mask))
        self._memo: Dict[object, object] = {}
        self._lock = threading.RLock()

    @classmethod
    def pristine(cls, base: Catalog) -> "LiveState":
        """Version 0 with nothing closed: the base catalog itself."""
        n = len(base)
        return cls(
            base, 0, np.zeros(n, dtype=bool), np.ones(n, dtype=bool),
            np.zeros(n, dtype=bool), {}, (),
        )

    @property
    def is_pristine(self) -> bool:
        return (
            self.version == 0
            and not self.overrides
            and not self.closed_mask.any()
        )

    @property
    def name(self) -> str:
        """The live catalog's name, without materializing it."""
        if self.is_pristine:
            return self.base.name
        return f"{self.base.name}@v{self.version}"

    @property
    def closed_ids(self) -> FrozenSet[str]:
        items = self.base.items
        return frozenset(
            items[idx].item_id
            for idx in np.flatnonzero(self.closed_mask).tolist()
        )

    def is_live(self, item_id: str) -> bool:
        """May a fresh plan place ``item_id`` in this version?"""
        idx = self.base.index_map.get(item_id)
        return idx is not None and bool(self.live_mask[idx])

    def is_closed(self, item_id: str) -> bool:
        idx = self.base.index_map.get(item_id)
        return idx is not None and bool(self.closed_mask[idx])

    def resolve(self, item: Item) -> Item:
        """``item`` with its credit override, if any, applied."""
        override = self.overrides.get(item.item_id)
        if override is None or override == item.credits:
            return item
        return dataclasses.replace(item, credits=override)

    def memo(self, key: object, build: Callable[[], object]) -> object:
        """``build()``, computed once per version under ``key``."""
        try:
            return self._memo[key]
        except KeyError:
            pass
        with self._lock:
            if key not in self._memo:
                self._memo[key] = build()
            return self._memo[key]

    @property
    def catalog(self) -> Catalog:
        """The materialized live catalog (built once, on first use)."""
        return self.memo("catalog", lambda: _materialize(self))

    def credits(self) -> np.ndarray:
        """Credits over base indices with the overrides applied."""

        def build() -> np.ndarray:
            credits = self.base.columns.credits
            if self.overrides:
                credits = credits.copy()
                index = self.base.index_map
                for item_id, value in self.overrides.items():
                    credits[index[item_id]] = value
            return credits

        return self.memo("credits", build)

    def mask_over(self, catalog: Catalog) -> Optional[np.ndarray]:
        """The live items as a read-only mask over ``catalog``.

        ``None`` when ``catalog`` holds exactly the live items (nothing to
        filter).  Ids the base does not know count as not live.  Built
        once per (version, catalog).
        """
        if catalog is self.base:
            if self.live_count == len(catalog):
                return None
            return self.live_mask

        def build() -> Tuple[Catalog, Optional[np.ndarray]]:
            index = self.base.index_map
            mask = np.fromiter(
                (
                    item_id in index and bool(self.live_mask[index[item_id]])
                    for item_id in catalog.item_ids
                ),
                dtype=bool,
                count=len(catalog),
            )
            if mask.all() and len(catalog) == self.live_count:
                return catalog, None
            return catalog, _frozen(mask)

        # The memo keeps ``catalog`` alive, so its id stays unique for
        # as long as the entry does.
        return self.memo(("mask", id(catalog)), build)[1]


def _fold(
    base: Catalog,
    version: int,
    closed_mask: np.ndarray,
    overrides: Dict[str, float],
) -> Optional[LiveState]:
    """The state for a closed set and overrides; ``None`` when the
    prerequisite cascade leaves no live item."""
    live, pruned, findings = base.prune_subset(~closed_mask)
    if not live.any():
        return None
    return LiveState(
        base, version, closed_mask, live, pruned, overrides, findings
    )


def _materialize(state: LiveState) -> Catalog:
    """The live catalog of ``state``: live items in base order with
    references to known-but-dead items pruned and credit overrides
    applied."""
    if state.is_pristine:
        return state.base
    return Catalog(
        [
            state.resolve(item)
            for item in state.base.pruned_items(
                state.live_mask, state.pruned_mask
            )
        ],
        name=state.name,
        validate_prerequisites=False,
    )


class CatalogView:
    """A live view over an immutable base catalog.

    Folds :class:`CatalogDelta` events into a :class:`LiveState`: a
    closed mask and a credit-override map over the base, plus the live
    mask the orphan cascade derives from them.  Items whose every
    alternative in some OR-group is closed (or itself orphaned) are not
    live — they cannot be legally placed in a fresh plan; prerequisite
    references the *base* catalog never resolved remain tolerated,
    preserving the out-of-program-prereq contract.  A ``reopen``
    restores exactly what the ``close`` cut.

    Hot readers (admission screens, the policy rung's availability
    filter, prefix checks) read the masks of :attr:`state`; :attr:`live`
    materializes the :class:`Catalog` only for the readers that need
    ``Item`` objects, once per version.

    Thread-safe: ``apply`` and ``restore`` serialize under an internal
    lock and swap the state atomically; readers never see a
    half-applied event.
    """

    def __init__(self, base: Catalog) -> None:
        self.base = base
        self._state = LiveState.pristine(base)
        self._lock = threading.Lock()

    @property
    def state(self) -> LiveState:
        """The current immutable fold state."""
        return self._state

    @property
    def live(self) -> Catalog:
        """The current live catalog (the base until the first delta),
        materialized on first access per version."""
        return self._state.catalog

    @property
    def version(self) -> int:
        """Number of deltas applied so far."""
        return self._state.version

    @property
    def closed_ids(self) -> FrozenSet[str]:
        return self._state.closed_ids

    @property
    def credit_overrides(self) -> Dict[str, float]:
        """Copy of the live credit-override map (item_id → credits)."""
        return dict(self._state.overrides)

    @property
    def last_findings(self) -> Tuple[SubsetFinding, ...]:
        """Integrity findings of the current state."""
        return self._state.findings

    def state_payload(self) -> Dict[str, object]:
        """Canonical JSON-ready snapshot of the fold state.

        Everything :meth:`restore` needs to rebuild this view over the
        same base catalog — the write-ahead journal's snapshot format.
        Sorted/plain types only, so two views holding the same state
        serialize byte-identically.
        """
        state = self._state
        overrides = state.overrides
        return {
            "closed": sorted(state.closed_ids),
            "credit_overrides": {
                item_id: overrides[item_id] for item_id in sorted(overrides)
            },
            "version": state.version,
        }

    def fork(self) -> "CatalogView":
        """An independent view over the same *base* seeded with the
        current state.

        A session-scoped fork can keep folding deltas without mutating
        the view it was forked from, and — because it shares the
        pristine base — it resolves a later ``reopen`` of an item the
        parent view no longer holds live.  The two share the immutable
        state (and its cached live catalog) until either folds a delta.
        """
        clone = CatalogView(self.base)
        clone._state = self._state
        return clone

    def resolve(self, item: Item) -> Item:
        """``item`` with any live credit override applied.

        Works for closed items too — used to re-cost a committed plan
        prefix whose items may no longer exist in the live catalog.
        """
        return self._state.resolve(item)

    def apply(self, delta: CatalogDelta) -> Tuple[SubsetFinding, ...]:
        """Fold one delta into the view; returns the new findings.

        A delta that would close the last open item, or leave nothing
        live after the prerequisite cascade, raises :class:`DeltaError`
        and leaves the state untouched — deterministically, so journal
        replay skips it instead of crash-looping.
        """
        if not isinstance(delta, CatalogDelta):
            raise DeltaError(
                f"CatalogView can only apply CatalogDelta events, "
                f"got {type(delta).__name__}"
            )
        idx = self.base.index_map.get(delta.item_id)
        if idx is None:
            raise DeltaError(
                f"delta {delta.kind!r} references item {delta.item_id!r} "
                f"unknown to base catalog {self.base.name!r}"
            )
        with self._lock:
            state = self._state
            if delta.kind == DELTA_CREDIT_CHANGE:
                # Availability is untouched: only the overrides move.
                assert delta.credits is not None
                self._state = LiveState(
                    self.base,
                    state.version + 1,
                    state.closed_mask,
                    state.live_mask,
                    state.pruned_mask,
                    {**state.overrides, delta.item_id: delta.credits},
                    state.findings,
                )
                return state.findings
            closed = state.closed_mask.copy()
            closed[idx] = delta.kind == DELTA_CLOSE
            if closed.all():
                raise DeltaError(
                    f"delta {delta.kind!r} on {delta.item_id!r} would "
                    f"close the last open item"
                )
            new = _fold(
                self.base, state.version + 1, closed, dict(state.overrides)
            )
            if new is None:
                raise DeltaError(
                    f"delta {delta.kind!r} on {delta.item_id!r} would "
                    f"leave the live catalog empty after prerequisite "
                    f"pruning: {_EMPTY_CATALOG}"
                )
            self._state = new
            return new.findings

    def restore(
        self,
        closed_ids,
        credit_overrides: Dict[str, float],
        version: int,
    ) -> Tuple[SubsetFinding, ...]:
        """Install recovered fold state without materializing anything.

        The journal-replay path: instead of re-folding every delta since
        the beginning of time, a snapshot's ``(closed, overrides,
        version)`` triple is installed directly — the same state as the
        view that wrote the snapshot, because the fold is a pure
        function of that triple over the immutable base.
        """
        closed = set(closed_ids)
        overrides = dict(credit_overrides)
        if version < 0:
            raise DeltaError(f"snapshot version must be >= 0, got {version}")
        index = self.base.index_map
        unknown = (closed | set(overrides)) - set(index)
        if unknown:
            raise DeltaError(
                f"snapshot references item(s) unknown to base catalog "
                f"{self.base.name!r}: {sorted(unknown)}"
            )
        for item_id, credits in overrides.items():
            if not isinstance(credits, (int, float)) or credits <= 0:
                raise DeltaError(
                    f"snapshot credit override for {item_id!r} must be a "
                    f"positive number, got {credits!r}"
                )
        closed_mask = np.zeros(len(self.base), dtype=bool)
        closed_mask[[index[item_id] for item_id in closed]] = True
        if closed_mask.all():
            raise DeltaError("snapshot closes every item in the base catalog")
        state = _fold(
            self.base,
            version,
            closed_mask,
            {item_id: float(credits) for item_id, credits in overrides.items()},
        )
        if state is None:
            raise DeltaError(
                f"snapshot state leaves the live catalog empty after "
                f"prerequisite pruning: {_EMPTY_CATALOG}"
            )
        with self._lock:
            self._state = state
        return state.findings
