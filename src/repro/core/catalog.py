"""Item catalog: the interaction graph ``G = <I, E>`` of Section III-A.

The paper abstracts the item universe as a *complete* graph whose nodes
are items; an RL action is a transition along an edge (adding one more
item).  Because the graph is complete, we do not materialize edges — the
catalog is an indexed collection of items with the derived structures the
planner and validators need:

* a topic vocabulary (the ordered set ``T``),
* primary/secondary partitions,
* the prerequisite relation (with referential-integrity checking),
* stable integer indices for Q-table rows/columns.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .exceptions import (
    DanglingPrerequisiteError,
    DataModelError,
    UnknownItemError,
)
from .items import Item, ItemType, Prerequisites

#: Subset-finding codes (:class:`SubsetFinding.code`).
SUBSET_PRUNED_PREREQ = "pruned_prereq"
SUBSET_ORPHANED_ITEM = "orphaned_item"


@dataclasses.dataclass(frozen=True)
class SubsetFinding:
    """One typed integrity finding from :meth:`Catalog.subset_with_findings`.

    Attributes
    ----------
    code:
        ``"pruned_prereq"`` — a kept item's prerequisite group referenced
        excluded items and the dead references were dropped; or
        ``"orphaned_item"`` — an entire OR-group of a kept item died
        (every alternative excluded), so the item itself was dropped.
    message:
        Human-readable description.
    item_ids:
        The affected item ids (the kept-but-pruned item, or the dropped
        orphan), sorted.
    """

    code: str
    message: str
    item_ids: Tuple[str, ...] = ()


class _PrerequisiteCNF:
    """A catalog's prerequisite CNF, flattened over item indices.

    One entry per (OR-group, member the catalog holds).  A group that
    also names an id the catalog never held stays satisfiable whatever
    is excluded — the out-of-program prerequisite contract of
    :meth:`Catalog.subset` — so it never enters the cascade.
    """

    def __init__(self, catalog: "Catalog") -> None:
        index = catalog.index_map
        owners: List[int] = []
        foreign: List[bool] = []
        member_items: List[int] = []
        member_groups: List[int] = []
        for idx, item in enumerate(catalog.items):
            for group in item.prerequisites.groups:
                known = [index[ref] for ref in group if ref in index]
                foreign.append(len(known) < len(group))
                member_items.extend(known)
                member_groups.extend([len(owners)] * len(known))
                owners.append(idx)
        self.group_owner = np.asarray(owners, dtype=np.int64)
        self.member_item = np.asarray(member_items, dtype=np.int64)
        self.member_group = np.asarray(member_groups, dtype=np.int64)
        self.closable = ~np.asarray(foreign, dtype=bool)

    def cascade(self, wanted: np.ndarray) -> np.ndarray:
        """The wanted items that stay placeable: the largest subset whose
        every item keeps a kept (or foreign) member in each OR-group."""
        kept = wanted.copy()
        groups = self.group_owner.size
        while True:
            support = np.bincount(
                self.member_group[kept[self.member_item]], minlength=groups
            )
            dead = self.group_owner[(support == 0) & self.closable]
            dead = dead[kept[dead]]
            if dead.size == 0:
                return kept
            kept[dead] = False

    def lost_alternative(self, kept: np.ndarray) -> np.ndarray:
        """Items with a prerequisite alternative the catalog holds but
        ``kept`` excludes."""
        lost = np.zeros(kept.size, dtype=bool)
        excluded = ~kept[self.member_item]
        lost[self.group_owner[self.member_group[excluded]]] = True
        return lost


class CatalogColumns:
    """Precomputed NumPy columns over a catalog (the batch-reward SoA).

    Built once, lazily, on first access of :attr:`Catalog.columns` and
    shared by every consumer of the vectorized reward path.  All arrays
    are indexed by the catalog's stable item index (:meth:`Catalog.index_of`).

    Attributes
    ----------
    primary_mask / type_codes:
        Boolean primary flag and its ``int8`` form (1 primary, 0 secondary).
    credits:
        ``cr_m`` per item (float64).
    category_codes / categories:
        Integer code of each item's category into ``categories`` (the
        catalog's sorted distinct categories); ``-1`` for uncategorized.
    topic_matrix / topic_index:
        ``|I| x |T|`` boolean incidence matrix over the topic vocabulary
        and the topic -> column lookup.
    has_prereqs:
        True where the item has at least one antecedent group.
    lat / lon / has_coords:
        Geo coordinates from item metadata (NaN when absent) and the
        joint availability mask.
    """

    def __init__(self, catalog: "Catalog") -> None:
        items = catalog.items
        n = len(items)
        self.primary_mask = np.fromiter(
            (item.is_primary for item in items), dtype=bool, count=n
        )
        self.type_codes = self.primary_mask.astype(np.int8)
        self.credits = np.fromiter(
            (item.credits for item in items), dtype=np.float64, count=n
        )

        self.categories: Tuple[str, ...] = catalog.categories()
        category_index = {c: i for i, c in enumerate(self.categories)}
        self.category_codes = np.fromiter(
            (
                category_index.get(item.category, -1)
                for item in items
            ),
            dtype=np.int64,
            count=n,
        )

        vocabulary = catalog.topic_vocabulary
        self.topic_index: Dict[str, int] = {
            topic: j for j, topic in enumerate(vocabulary)
        }
        matrix = np.zeros((n, len(vocabulary)), dtype=bool)
        for row, item in enumerate(items):
            for topic in item.topics:
                matrix[row, self.topic_index[topic]] = True
        self.topic_matrix = matrix

        self.has_prereqs = np.fromiter(
            (not item.prerequisites.is_empty for item in items),
            dtype=bool,
            count=n,
        )

        lat = np.full(n, np.nan, dtype=np.float64)
        lon = np.full(n, np.nan, dtype=np.float64)
        for row, item in enumerate(items):
            item_lat, item_lon = item.meta("lat"), item.meta("lon")
            if item_lat is not None and item_lon is not None:
                lat[row] = float(item_lat)  # type: ignore[arg-type]
                lon[row] = float(item_lon)  # type: ignore[arg-type]
        self.lat = lat
        self.lon = lon
        self.has_coords = ~(np.isnan(lat) | np.isnan(lon))


class Catalog:
    """An immutable, indexed collection of :class:`Item` objects.

    Parameters
    ----------
    items:
        The items in the catalog.  Ids must be unique and prerequisite
        references must resolve within the catalog (checked unless
        ``validate_prerequisites=False``).
    name:
        Display name, e.g. ``"Univ-1 M.S. DS-CT"``.
    topic_vocabulary:
        Optional explicit topic ordering.  When omitted the vocabulary is
        the sorted union of item topics.
    """

    def __init__(
        self,
        items: Iterable[Item],
        name: str = "catalog",
        topic_vocabulary: Optional[Sequence[str]] = None,
        validate_prerequisites: bool = True,
    ) -> None:
        self._items: Tuple[Item, ...] = tuple(items)
        self.name = name
        if not self._items:
            raise DataModelError("catalog must contain at least one item")

        self._by_id: Dict[str, Item] = {}
        for item in self._items:
            if item.item_id in self._by_id:
                raise DataModelError(f"duplicate item id: {item.item_id!r}")
            self._by_id[item.item_id] = item

        if validate_prerequisites:
            self._check_prerequisite_integrity()

        if topic_vocabulary is None:
            vocab: set = set()
            for item in self._items:
                vocab |= item.topics
            self._vocabulary: Tuple[str, ...] = tuple(sorted(vocab))
        else:
            self._vocabulary = tuple(topic_vocabulary)
            known = set(self._vocabulary)
            for item in self._items:
                extra = item.topics - known
                if extra:
                    raise DataModelError(
                        f"item {item.item_id!r} has topics outside the "
                        f"vocabulary: {sorted(extra)}"
                    )

        self._index: Dict[str, int] = {
            item.item_id: i for i, item in enumerate(self._items)
        }
        self._columns: Optional[CatalogColumns] = None
        self._cnf: Optional[_PrerequisiteCNF] = None

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self._items)

    def __contains__(self, item_id: object) -> bool:
        return item_id in self._by_id

    def __getitem__(self, item_id: str) -> Item:
        try:
            return self._by_id[item_id]
        except KeyError:
            raise UnknownItemError(item_id) from None

    def get(self, item_id: str, default: Optional[Item] = None) -> Optional[Item]:
        """Item by id, or ``default`` when absent."""
        return self._by_id.get(item_id, default)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def items(self) -> Tuple[Item, ...]:
        """All items in insertion order."""
        return self._items

    @property
    def item_ids(self) -> Tuple[str, ...]:
        """All item ids in insertion order."""
        return tuple(item.item_id for item in self._items)

    @property
    def topic_vocabulary(self) -> Tuple[str, ...]:
        """The ordered topic/theme set ``T``."""
        return self._vocabulary

    @property
    def num_topics(self) -> int:
        """``|T|``."""
        return len(self._vocabulary)

    @property
    def columns(self) -> CatalogColumns:
        """Precomputed NumPy columns (built lazily, then cached)."""
        if self._columns is None:
            self._columns = CatalogColumns(self)
        return self._columns

    @property
    def index_map(self) -> Dict[str, int]:
        """The item id -> index mapping (treat as read-only)."""
        return self._index

    def index_of(self, item_id: str) -> int:
        """Stable integer index of an item (Q-table row/column)."""
        try:
            return self._index[item_id]
        except KeyError:
            raise UnknownItemError(item_id) from None

    def item_at(self, index: int) -> Item:
        """Inverse of :meth:`index_of`."""
        return self._items[index]

    def primaries(self) -> Tuple[Item, ...]:
        """All primary (core / must-visit) items."""
        return tuple(i for i in self._items if i.is_primary)

    def secondaries(self) -> Tuple[Item, ...]:
        """All secondary (elective / optional) items."""
        return tuple(i for i in self._items if i.is_secondary)

    def of_type(self, item_type: ItemType) -> Tuple[Item, ...]:
        """Items of the given type."""
        return tuple(i for i in self._items if i.item_type is item_type)

    def categories(self) -> Tuple[str, ...]:
        """Sorted distinct non-None categories present in the catalog."""
        return tuple(
            sorted({i.category for i in self._items if i.category is not None})
        )

    def in_category(self, category: str) -> Tuple[Item, ...]:
        """Items whose :attr:`Item.category` equals ``category``."""
        return tuple(i for i in self._items if i.category == category)

    def with_topic(self, topic: str) -> Tuple[Item, ...]:
        """Items covering a given topic/theme."""
        return tuple(i for i in self._items if topic in i.topics)

    def antecedent_ids(self) -> FrozenSet[str]:
        """Ids of items referenced as a prerequisite by some other item.

        This is the set ``P`` of the paper's notation table.
        """
        out: set = set()
        for item in self._items:
            out |= item.prerequisites.referenced_ids()
        return frozenset(out)

    def dependents_of(self, item_id: str) -> Tuple[Item, ...]:
        """Items that list ``item_id`` among their antecedents."""
        if item_id not in self._by_id:
            raise UnknownItemError(item_id)
        return tuple(
            item
            for item in self._items
            if item_id in item.prerequisites.referenced_ids()
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def subset(
        self,
        item_ids: Iterable[str],
        name: Optional[str] = None,
        on_dangling: str = "keep",
    ) -> "Catalog":
        """Sub-catalog restricted to ``item_ids`` (base-catalog order).

        The subset keeps *this catalog's* item order, regardless of the
        order ``item_ids`` is supplied in: the same id set always yields
        the same catalog, with the same stable item indexing — the
        property shard-and-merge planners (DPPM-style) rely on when they
        key Q-tables by subset indices.

        ``on_dangling`` controls prerequisite edges that point at items
        of *this* catalog excluded from the subset (e.g. removed by an
        availability-churn delta):

        * ``"keep"`` (default, legacy) — leave the edges in place; they
          simply can never be satisfied inside the subset.
        * ``"prune"`` — drop the dead references; items whose OR-group
          loses every alternative are dropped (cascading).
        * ``"reject"`` — raise :class:`DanglingPrerequisiteError`.

        References to ids this catalog never contained (out-of-program
        prerequisites, matching real degree programs) are tolerated under
        every mode.  Use :meth:`subset_with_findings` to also receive the
        typed findings describing what was pruned or orphaned.
        """
        catalog, _ = self.subset_with_findings(
            item_ids, name=name, on_dangling=on_dangling
        )
        return catalog

    def subset_with_findings(
        self,
        item_ids: Iterable[str],
        name: Optional[str] = None,
        on_dangling: str = "keep",
    ) -> Tuple["Catalog", Tuple[SubsetFinding, ...]]:
        """Like :meth:`subset` but also returns the integrity findings.

        Item order follows the base catalog, not ``item_ids`` (see
        :meth:`subset` for why that contract matters).

        With ``on_dangling="keep"`` the findings tuple is always empty;
        with ``"prune"`` it lists every pruned edge / orphaned item; with
        ``"reject"`` a non-empty finding set raises instead.
        """
        if on_dangling not in ("keep", "prune", "reject"):
            raise ValueError(
                f"on_dangling must be 'keep', 'prune', or 'reject', "
                f"got {on_dangling!r}"
            )
        wanted = set(item_ids)
        missing = wanted - set(self._by_id)
        if missing:
            raise UnknownItemError(sorted(missing)[0])
        findings: Tuple[SubsetFinding, ...] = ()
        if on_dangling == "keep":
            items: Sequence[Item] = [
                i for i in self._items if i.item_id in wanted
            ]
        else:
            kept, pruned, findings = self.prune_subset(
                np.fromiter(
                    (i.item_id in wanted for i in self._items),
                    dtype=bool,
                    count=len(self._items),
                )
            )
            if findings and on_dangling == "reject":
                raise DanglingPrerequisiteError(
                    f"subset of {self.name!r} would leave "
                    f"{len(findings)} dangling-prerequisite finding(s): "
                    + "; ".join(f.message for f in findings),
                    findings,
                )
            items = self.pruned_items(kept, pruned)
        catalog = Catalog(
            items,
            name=name or f"{self.name} (subset)",
            validate_prerequisites=False,
        )
        return catalog, findings

    def prune_subset(
        self, wanted: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, Tuple[SubsetFinding, ...]]:
        """Restrict to the ``wanted`` mask, cascading dangling edges.

        Returns ``(kept, pruned, findings)``: the wanted items that keep
        a kept (or foreign) member in every OR-group, the kept items
        that lost an alternative this catalog holds, and the findings —
        one ``orphaned_item`` per wanted item the cascade dropped and one
        ``pruned_prereq`` per pruned item, in catalog order.
        """
        cnf = self._cnf
        if cnf is None:  # built once per catalog, on first use
            cnf = self._cnf = _PrerequisiteCNF(self)
        kept = cnf.cascade(wanted)
        pruned = cnf.lost_alternative(kept) & kept
        orphaned = wanted & ~kept
        findings = []
        for idx in np.flatnonzero(orphaned | pruned).tolist():
            item_id = self._items[idx].item_id
            if orphaned[idx]:
                findings.append(
                    SubsetFinding(
                        SUBSET_ORPHANED_ITEM,
                        f"item {item_id!r} lost every alternative in a "
                        f"prerequisite group; dropped from the subset",
                        (item_id,),
                    )
                )
            else:
                findings.append(
                    SubsetFinding(
                        SUBSET_PRUNED_PREREQ,
                        f"item {item_id!r}: pruned prerequisite "
                        f"references to excluded items",
                        (item_id,),
                    )
                )
        return kept, pruned, tuple(findings)

    def pruned_items(
        self, kept: np.ndarray, pruned: np.ndarray
    ) -> List[Item]:
        """The ``kept`` items in catalog order, with references to held
        but excluded items dropped from each group of the ``pruned``
        ones (see :meth:`prune_subset`)."""
        index = self._index
        out = []
        for idx in np.flatnonzero(kept).tolist():
            item = self._items[idx]
            if pruned[idx]:
                groups = tuple(
                    frozenset(
                        ref
                        for ref in group
                        if ref not in index or kept[index[ref]]
                    )
                    for group in item.prerequisites.groups
                )
                item = dataclasses.replace(
                    item, prerequisites=Prerequisites(groups)
                )
            out.append(item)
        return out

    def shared_item_ids(self, other: "Catalog") -> Tuple[str, ...]:
        """Ids present in both catalogs (used by transfer learning)."""
        return tuple(i for i in self.item_ids if i in other)

    def _check_prerequisite_integrity(self) -> None:
        for item in self._items:
            for ref in item.prerequisites.referenced_ids():
                if ref not in self._by_id:
                    raise DataModelError(
                        f"item {item.item_id!r} requires unknown "
                        f"prerequisite {ref!r}"
                    )

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Summary statistics used in logs, docs, and tests."""
        return {
            "name": self.name,
            "num_items": len(self),
            "num_primary": len(self.primaries()),
            "num_secondary": len(self.secondaries()),
            "num_topics": self.num_topics,
            "num_with_prerequisites": sum(
                1 for i in self._items if not i.prerequisites.is_empty
            ),
            "total_credits": sum(i.credits for i in self._items),
        }

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return (
            f"Catalog({self.name!r}, items={len(self)}, "
            f"topics={self.num_topics})"
        )
