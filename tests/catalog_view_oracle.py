"""Reference fold for :class:`repro.core.deltas.CatalogView`.

The materializing fold: every delta rebuilds the whole live catalog from
the base through a multi-pass orphan scan (the one
``Catalog.subset_with_findings(on_dangling="prune")`` ran before it
moved onto the vectorized cascade) and, with credit overrides, a second
full ``Catalog``.  Too slow to serve from, it is kept as the definition
the mask-based view is checked against in
``test_catalog_view_oracle.py``.

Its findings are those of the multi-pass scan, which can report
``pruned_prereq`` for an item a later pass then orphans;
:func:`normalized_findings` reduces them to the final-state definition
(one finding per affected item, in base order).

:func:`oracle_screen_request` is the admission screen as it read the
materialized catalog, for the per-version screen facts to match.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.catalog import (
    SUBSET_ORPHANED_ITEM,
    SUBSET_PRUNED_PREREQ,
    Catalog,
    SubsetFinding,
)
from repro.core.deltas import (
    DELTA_CLOSE,
    DELTA_REOPEN,
    CatalogDelta,
)
from repro.core.constraints import TaskSpec
from repro.core.env import DomainMode
from repro.core.exceptions import DataModelError, DeltaError
from repro.core.items import Item, Prerequisites
from repro.serving.admission import AdmissionReport, _AuditPass


def _prune_excluded_prerequisites(
    items: Sequence[Item],
    known_ids: FrozenSet[str],
) -> Tuple[Tuple[Item, ...], Tuple[SubsetFinding, ...]]:
    """Drop prerequisite references to *known-but-excluded* items.

    References to ids that were never in ``known_ids`` (out-of-program
    prerequisites tolerated by the legacy ``subset`` contract) are kept
    untouched.  If pruning empties an OR-group, that item becomes
    unsatisfiable in the subset and is dropped entirely ("orphaned");
    orphan drops cascade until a fixpoint.
    """
    pool: Dict[str, Item] = {item.item_id: item for item in items}
    findings: List[SubsetFinding] = []
    changed = True
    while changed:
        changed = False
        for item in list(pool.values()):
            groups = item.prerequisites.groups
            if not groups:
                continue
            new_groups: List[FrozenSet[str]] = []
            slimmed = False
            dead = False
            for group in groups:
                kept = frozenset(
                    ref
                    for ref in group
                    if ref in pool or ref not in known_ids
                )
                if kept != group:
                    slimmed = True
                if not kept:
                    dead = True
                    break
                new_groups.append(kept)
            if dead:
                findings.append(
                    SubsetFinding(
                        SUBSET_ORPHANED_ITEM,
                        f"item {item.item_id!r} lost every alternative in a "
                        f"prerequisite group; dropped from the subset",
                        (item.item_id,),
                    )
                )
                del pool[item.item_id]
                changed = True
            elif slimmed:
                findings.append(
                    SubsetFinding(
                        SUBSET_PRUNED_PREREQ,
                        f"item {item.item_id!r}: pruned prerequisite "
                        f"references to excluded items",
                        (item.item_id,),
                    )
                )
                pool[item.item_id] = dataclasses.replace(
                    item, prerequisites=Prerequisites(tuple(new_groups))
                )
    return tuple(pool.values()), tuple(findings)


def normalized_findings(
    base: Catalog, findings: Tuple[SubsetFinding, ...]
) -> Tuple[Tuple[str, str], ...]:
    """``(code, item_id)`` per affected item, in base order.

    An item orphaned in any pass counts as orphaned; otherwise a
    ``pruned_prereq`` report stands.
    """
    orphaned = {
        f.item_ids[0] for f in findings if f.code == SUBSET_ORPHANED_ITEM
    }
    pruned = {
        f.item_ids[0] for f in findings if f.code == SUBSET_PRUNED_PREREQ
    } - orphaned
    out = []
    for item_id in base.item_ids:
        if item_id in orphaned:
            out.append((SUBSET_ORPHANED_ITEM, item_id))
        elif item_id in pruned:
            out.append((SUBSET_PRUNED_PREREQ, item_id))
    return tuple(out)


class OracleCatalogView:
    """A mutable live view over an immutable base catalog.

    Folds :class:`CatalogDelta` events into a closed-item set plus a
    credit-override map and re-materializes the live catalog from the
    base each time, so closures prune prerequisite edges (through
    :func:`_prune_excluded_prerequisites`) and reopens restore them.
    Items whose every OR-group alternative is closed are dropped from
    the live catalog (they cannot be legally placed in a fresh plan);
    prerequisite references the *base* catalog never resolved remain
    tolerated, preserving the out-of-program-prereq contract.

    Thread-safe: ``apply`` serializes under an internal lock and swaps
    :attr:`live` atomically; readers never see a half-applied event.
    """

    def __init__(self, base: Catalog) -> None:
        self.base = base
        self._closed: set = set()
        self._credit_overrides: Dict[str, float] = {}
        self._version = 0
        self._live = base
        self._findings: Tuple[SubsetFinding, ...] = ()
        self._lock = threading.Lock()

    @property
    def live(self) -> Catalog:
        """The current materialized catalog (base until the first delta)."""
        return self._live

    @property
    def version(self) -> int:
        """Number of deltas applied so far."""
        return self._version

    @property
    def closed_ids(self) -> FrozenSet[str]:
        return frozenset(self._closed)

    @property
    def credit_overrides(self) -> Dict[str, float]:
        """Copy of the live credit-override map (item_id → credits)."""
        with self._lock:
            return dict(self._credit_overrides)

    @property
    def last_findings(self) -> Tuple[SubsetFinding, ...]:
        """Integrity findings from the most recent materialization."""
        return self._findings

    def state_payload(self) -> Dict[str, object]:
        """Canonical JSON-ready snapshot of the fold state.

        Everything :meth:`restore` needs to rebuild this view over the
        same base catalog — the write-ahead journal's snapshot format.
        Sorted/plain types only, so two views holding the same state
        serialize byte-identically.
        """
        with self._lock:
            return {
                "closed": sorted(self._closed),
                "credit_overrides": {
                    item_id: self._credit_overrides[item_id]
                    for item_id in sorted(self._credit_overrides)
                },
                "version": self._version,
            }

    def fork(self) -> "OracleCatalogView":
        """An independent view over the same *base* seeded with the
        current closed-set/credit state.

        A session-scoped fork can keep folding deltas without mutating
        the view it was forked from, and — because it shares the
        pristine base — it resolves a later ``reopen`` of an item the
        parent view has already pruned from :attr:`live`.
        """
        clone = OracleCatalogView(self.base)
        with self._lock:
            clone._closed = set(self._closed)
            clone._credit_overrides = dict(self._credit_overrides)
            clone._version = self._version
            clone._live = self._live
            clone._findings = self._findings
        return clone

    def resolve(self, item: Item) -> Item:
        """``item`` with any live credit override applied.

        Works for closed items too — used to re-cost a committed plan
        prefix whose items may no longer exist in the live catalog.
        """
        override = self._credit_overrides.get(item.item_id)
        if override is None or override == item.credits:
            return item
        return dataclasses.replace(item, credits=override)

    def apply(self, delta: CatalogDelta) -> Tuple[SubsetFinding, ...]:
        """Fold one delta into the view; returns the new findings."""
        if not isinstance(delta, CatalogDelta):
            raise DeltaError(
                f"CatalogView can only apply CatalogDelta events, "
                f"got {type(delta).__name__}"
            )
        if delta.item_id not in self.base:
            raise DeltaError(
                f"delta {delta.kind!r} references item {delta.item_id!r} "
                f"unknown to base catalog {self.base.name!r}"
            )
        with self._lock:
            prev_closed = set(self._closed)
            prev_overrides = dict(self._credit_overrides)
            prev_version = self._version
            if delta.kind == DELTA_CLOSE:
                self._closed.add(delta.item_id)
            elif delta.kind == DELTA_REOPEN:
                self._closed.discard(delta.item_id)
            else:  # credit_change
                assert delta.credits is not None
                self._credit_overrides[delta.item_id] = delta.credits
            open_ids = [
                item_id
                for item_id in self.base.item_ids
                if item_id not in self._closed
            ]
            if not open_ids:
                # Roll back: a catalog must keep at least one item.
                self._closed.discard(delta.item_id)
                raise DeltaError(
                    f"delta {delta.kind!r} on {delta.item_id!r} would "
                    f"close the last open item"
                )
            self._version += 1
            try:
                return self._materialize_locked(open_ids)
            except DataModelError as exc:
                # Pruning dangling prerequisites can empty the live
                # catalog even with open items left.  Roll the fold
                # back and reject as a DeltaError, so the refusal is
                # deterministic and journal replay skips it instead of
                # crash-looping on an unexpected exception type.
                # _live/_findings are untouched (assigned only on
                # success), so restoring the fold state suffices.
                self._closed = prev_closed
                self._credit_overrides = prev_overrides
                self._version = prev_version
                raise DeltaError(
                    f"delta {delta.kind!r} on {delta.item_id!r} would "
                    f"leave the live catalog empty after prerequisite "
                    f"pruning: {exc}"
                ) from exc

    def _materialize_locked(self, open_ids) -> Tuple[SubsetFinding, ...]:
        """Rebuild :attr:`live` from the base + fold state (lock held)."""
        source = self.base
        if self._credit_overrides:
            source = Catalog(
                tuple(self.resolve(item) for item in self.base.items),
                name=self.base.name,
                topic_vocabulary=self.base.topic_vocabulary,
                validate_prerequisites=False,
            )
        wanted = set(open_ids)
        items, findings = _prune_excluded_prerequisites(
            [i for i in source.items if i.item_id in wanted],
            frozenset(source.item_ids),
        )
        live = Catalog(
            items,
            name=f"{self.base.name}@v{self._version}",
            validate_prerequisites=False,
        )
        self._live = live
        self._findings = findings
        return findings

    def restore(
        self,
        closed_ids,
        credit_overrides: Dict[str, float],
        version: int,
    ) -> Tuple[SubsetFinding, ...]:
        """Seed the view with recovered fold state, materializing once.

        The journal-replay path: instead of re-folding every delta since
        the beginning of time, a snapshot's ``(closed, overrides,
        version)`` triple is installed directly and the live catalog is
        rebuilt in a single materialization — byte-identical to the view
        that wrote the snapshot, because materialization is a pure
        function of that triple over the immutable base.
        """
        closed = set(closed_ids)
        overrides = dict(credit_overrides)
        if version < 0:
            raise DeltaError(f"snapshot version must be >= 0, got {version}")
        unknown = (closed | set(overrides)) - set(self.base.item_ids)
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
        with self._lock:
            open_ids = [
                item_id
                for item_id in self.base.item_ids
                if item_id not in closed
            ]
            if not open_ids:
                raise DeltaError(
                    "snapshot closes every item in the base catalog"
                )
            self._closed = closed
            self._credit_overrides = {
                item_id: float(credits)
                for item_id, credits in overrides.items()
            }
            self._version = version
            if version == 0 and not closed and not overrides:
                self._live = self.base
                self._findings = ()
                return ()
            try:
                return self._materialize_locked(open_ids)
            except DataModelError as exc:
                raise DeltaError(
                    f"snapshot state leaves the live catalog empty "
                    f"after prerequisite pruning: {exc}"
                ) from exc


def _check_feasibility(
    items: Sequence[Item],
    task: TaskSpec,
    mode: DomainMode,
    audit: _AuditPass,
) -> None:
    """Structural infeasibility screens over the surviving pool."""
    alive = [i for i in items if i.item_id not in audit.dropped]
    hard = task.hard
    if len(alive) < hard.plan_length:
        audit.flag(
            "infeasible_length",
            f"plan needs {hard.plan_length} items but only {len(alive)} "
            f"are admissible",
        )
    primaries = sum(1 for i in alive if i.is_primary)
    if primaries < hard.num_primary:
        audit.flag(
            "infeasible_primary",
            f"hard constraints require {hard.num_primary} primary items "
            f"but the admissible pool has {primaries}",
        )
    if mode is not DomainMode.TRIP:
        # Courses: the best attainable total is the plan_length largest
        # credit values; if even that misses #cr, every plan fails.
        credits = sorted(
            (i.credits for i in alive if not math.isnan(i.credits)),
            reverse=True,
        )
        attainable = sum(credits[: hard.plan_length])
        if attainable < hard.min_credits - 1e-9:
            audit.flag(
                "infeasible_credits",
                f"the {hard.plan_length} largest admissible items total "
                f"{attainable:g} credits, below the required "
                f"{hard.min_credits:g}",
            )


def oracle_screen_request(
    catalog: Catalog,
    task: TaskSpec,
    mode: DomainMode,
    start_item_id: Optional[str] = None,
) -> AdmissionReport:
    """The request screen as it was: one pass over the materialized
    catalog's items per request."""
    audit = _AuditPass()
    if start_item_id is not None and start_item_id not in catalog:
        audit.flag(
            "unknown_start",
            f"start item {start_item_id!r} is not in catalog "
            f"{catalog.name!r}",
        )
    _check_feasibility(catalog.items, task, mode, audit)
    return AdmissionReport(
        findings=tuple(audit.findings),
        mode="strict",
        admitted=len(catalog),
    )
