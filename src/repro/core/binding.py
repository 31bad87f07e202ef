"""Keyword-based lattice pruning (Phase 1, §2.3 of the paper).

For one *interpretation* (a relation choice per keyword, from
:class:`repro.index.mapper.KeywordMapper`):

1. bind the ``i``-th keyword to copy (keyword slot) ``i`` of its relation --
   the assignment is deterministic and shared sub-queries therefore coincide
   across interpretations and across the MTNs of one interpretation;
2. bind the empty keyword to ``R0`` of every relation (free tuple sets);
3. prune the lattice: keep exactly the trees whose every instance is a bound
   or free copy.  The paper prunes the base nodes, then walks up to their
   ancestors; as every connected subtree of a lattice tree is a lattice
   tree, that walk keeps exactly these trees, and the lattice's
   slot-signature index (:meth:`Lattice.trees_within`) names them without
   a walk.

Step 3 reads only the interpretation's *slot signature* -- the bound copies,
``binding.instances`` -- and never the keyword text, and so does Phase 2's
search for MTNs among the retained trees.  The paper computes the
schema-only Phase 0 "offline ... a one-time cost" (§3.1); each binder
extends that to Phases 1-2 with one :class:`SignatureMemo`, filled the first
time a signature is pruned: from the lattice when there is one, and by
MTN-targeted generation (:meth:`KeywordBinder.prune_for_mtns`) otherwise.
Phase 2 keeps its signature-only work in the same entry
(:func:`repro.core.mtn.mtn_plans`).

The retained trees form a plain set: Phase 2 orders the MTNs it takes from
them by a total key (:func:`repro.core.mtn.find_mtns`), so the order in
which Phase 1 found them never shows downstream.  The complete retained set
can also be generated *directly* from the binding's alphabet, uncached
(:meth:`KeywordBinder.prune_direct`); the tests hold both memo fills to it.
:func:`bind_tree` attaches the keywords to a retained tree, giving the
run-time :class:`~repro.relational.jointree.BoundQuery`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable

from repro.core.freecopies import free_instance, next_free_instance
from repro.core.lattice import Lattice
from repro.index.mapper import Interpretation
from repro.relational.jointree import BoundQuery, JoinEdge, JoinTree, RelationInstance
from repro.relational.predicates import MatchMode
from repro.relational.schema import SchemaGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.mtn import MtnPlan

#: The bound of one binder's :class:`SignatureMemo`: the join trees its
#: entries hold, summed (an entry holds a signature's retained trees and
#: the subtrees of its MTNs).  A tree the memo built costs it ~1 KB, so it
#: holds at most ~20 MiB.  An entry count would not bound memory: one
#: direct-mode level-4 entry holds up to 119 trees, a level-5 one up to 890.
MEMO_MAX_TREES = 20_000

#: Retained trees read off a lattice belong to the lattice; the memo pays
#: only their set slots (~64 B against ~1 KB), so this many count as one.
LATTICE_TREES_PER_TREE = 16


class BindingError(ValueError):
    """Raised when an interpretation cannot be bound to the lattice."""


@dataclass(frozen=True)
class KeywordBinding:
    """The copy assignment of one interpretation: keyword -> instance."""

    interpretation: Interpretation
    by_keyword: tuple[tuple[str, RelationInstance], ...]

    @cached_property
    def instances(self) -> frozenset[RelationInstance]:
        """The keyword-bound copies: the slot signature, and what totality
        is measured against."""
        return frozenset(instance for _, instance in self.by_keyword)

    @cached_property
    def keyword_map(self) -> MappingProxyType[RelationInstance, str]:
        return MappingProxyType({inst: kw for kw, inst in self.by_keyword})

    def describe(self) -> str:
        return ", ".join(f"{kw}->{inst}" for kw, inst in self.by_keyword)


@dataclass(frozen=True, slots=True)
class _MemoEntry:
    """What the memo keeps for one slot signature."""

    retained: frozenset[JoinTree]
    #: Phase 2's signature-only work, attached when Phase 2 first asks.
    plans: tuple[MtnPlan, ...] | None
    #: Trees held: the retained ones (lattice-owned ones at their
    #: :data:`LATTICE_TREES_PER_TREE` rate) plus the MTN plans' subtrees.
    trees: int


class SignatureMemo:
    """Phases 1-2 work per slot signature: an LRU bounded by trees held.

    Keys are slot signatures (``binding.instances``).  An entry holds the
    signature's retained trees and, once Phase 2 has asked, its MTN plans;
    nothing about keywords, constraints or data.  Session threads share
    one memo through their debugger.  Fills run outside the lock, so two
    threads that miss one signature at once both compute it, and the
    entry stored first stays; both are equal.  An entry holding more than
    ``max_trees`` trees is computed but never kept.  ``lattice_backed``
    says the retained trees belong to a lattice
    (:data:`LATTICE_TREES_PER_TREE`).
    """

    def __init__(self, max_trees: int = MEMO_MAX_TREES, lattice_backed: bool = False):
        self.max_trees = max_trees
        self.lattice_backed = lattice_backed
        self._lock = threading.Lock()
        # guarded-by: _lock
        self._entries: OrderedDict[frozenset[RelationInstance], _MemoEntry] = OrderedDict()
        self._trees = 0  # guarded-by: _lock

    @property
    def trees(self) -> int:
        """Join trees held, summed over the entries."""
        with self._lock:
            return self._trees

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def retained(
        self,
        signature: frozenset[RelationInstance],
        fill: Callable[[], frozenset[JoinTree]],
    ) -> frozenset[JoinTree]:
        """The retained trees of ``signature``, from ``fill()`` on a miss."""
        with self._lock:
            entry = self._entries.get(signature)
            if entry is not None:
                self._entries.move_to_end(signature)
                return entry.retained
        retained = fill()
        trees = len(retained)
        if self.lattice_backed:
            trees = -(-trees // LATTICE_TREES_PER_TREE)
        with self._lock:
            if signature not in self._entries:
                self._store_locked(signature, _MemoEntry(retained, None, trees))
        return retained

    def mtn_plans(
        self,
        signature: frozenset[RelationInstance],
        build: Callable[[], tuple[MtnPlan, ...]],
    ) -> tuple[MtnPlan, ...]:
        """The MTN plans of ``signature``, attached from ``build()`` once.

        Plans are attached only to an entry still held; after an eviction
        they are built for the caller alone.
        """
        with self._lock:
            entry = self._entries.get(signature)
        if entry is not None and entry.plans is not None:
            return entry.plans
        plans = build()
        with self._lock:
            entry = self._entries.pop(signature, None)
            if entry is not None:
                self._trees -= entry.trees
                if entry.plans is None:
                    subtrees = {tree for plan in plans for tree in plan.subtrees}
                    entry = _MemoEntry(
                        entry.retained, plans, entry.trees + len(subtrees)
                    )
                self._store_locked(signature, entry)
        return plans

    def _store_locked(
        self, signature: frozenset[RelationInstance], entry: _MemoEntry
    ) -> None:
        """Insert as most recent, then evict the least recent over the bound."""
        if entry.trees > self.max_trees:
            return
        self._entries[signature] = entry
        self._trees += entry.trees
        while self._trees > self.max_trees:
            _, evicted = self._entries.popitem(last=False)
            self._trees -= evicted.trees


@dataclass(frozen=True)
class PrunedLattice:
    """The retained sub-lattice for one interpretation.

    ``retained`` holds every tree the paper's upward walk from the base
    nodes keeps when it comes from a lattice binder's
    :meth:`KeywordBinder.prune` or from :meth:`KeywordBinder.prune_direct`.
    A direct-mode binder's memo holds only the subtrees of potential MTNs
    (:meth:`KeywordBinder.prune_for_mtns`): every MTN, but not every
    retained tree, so only MTN extraction may rely on it.
    """

    schema: SchemaGraph
    binding: KeywordBinding
    retained: frozenset[JoinTree]
    pruning_time: float = 0.0
    #: The memo ``retained`` came from, which also keeps Phase 2's
    #: signature-only work; ``None`` from :meth:`KeywordBinder.prune_direct`.
    memo: SignatureMemo | None = field(default=None, compare=False, repr=False)

    @property
    def retained_count(self) -> int:
        return len(self.retained)


def bind_tree(
    tree: JoinTree, binding: KeywordBinding, mode: MatchMode = MatchMode.TOKEN
) -> BoundQuery:
    """Attach the binding's keywords to the matching instances of ``tree``."""
    bindings = {
        instance: keyword
        for instance, keyword in binding.keyword_map.items()
        if instance in tree.instances
    }
    return BoundQuery.from_mapping(tree, bindings, mode)


# ------------------------------------------------------------ MTN budget
def mtn_budget(
    tree: JoinTree, bound: frozenset[RelationInstance]
) -> tuple[int, int]:
    """``(missing bound copies, free leaves)`` of ``tree``.

    An MTN containing ``tree`` needs a node of its own for each of either
    (see :meth:`KeywordBinder.prune_for_mtns`).
    """
    free_leaves = sum(1 for leaf in tree.leaves() if leaf.is_free)
    return len(bound - tree.instances), free_leaves


def over_budget(
    tree: JoinTree, bound: frozenset[RelationInstance], max_size: int
) -> bool:
    """True when no MTN of at most ``max_size`` instances contains ``tree``."""
    missing, free_leaves = mtn_budget(tree, bound)
    return tree.size + max(missing, free_leaves) > max_size


def extension_over_budget(
    tree: JoinTree,
    budget: tuple[int, int],
    anchor: RelationInstance,
    candidate: RelationInstance,
    max_size: int,
) -> bool:
    """:func:`over_budget` of ``tree`` plus leaf ``candidate`` at ``anchor``,
    decided without building that tree.

    ``budget`` is ``mtn_budget(tree, bound)``, and ``candidate`` is a free
    copy or a bound one absent from ``tree``.  A bound candidate is one
    missing copy fewer, a free one is one free leaf more, and the anchor
    stops being a (free) leaf if it was one -- the node of a one-node tree
    has no edge and stays a leaf.
    """
    missing, free_leaves = budget
    if candidate.is_free:
        free_leaves += 1
    else:
        missing -= 1
    if anchor.is_free and tree.degree(anchor) == 1:
        free_leaves -= 1
    return tree.size + 1 + max(missing, free_leaves) > max_size


class KeywordBinder:
    """Binds interpretations to keyword slots and prunes the lattice.

    Construct it either from a materialized :class:`Lattice` (Phase-0 path)
    or from a bare schema plus ``max_joins`` (direct path).  Either way
    :meth:`prune` reads one :class:`SignatureMemo` (``memo``), which fills
    an entry the first time its slot signature is pruned: off the
    lattice's slot-signature index, or by MTN-targeted generation.  Both
    fills give the same MTNs.  Phases 1-2 read only the schema and the
    binder's fixed settings, so threads sharing the binder share its memo,
    a database write never invalidates it, and nothing fills it before
    the first query.
    """

    def __init__(
        self,
        lattice: Lattice | None = None,
        schema: SchemaGraph | None = None,
        max_joins: int | None = None,
        max_keywords: int | None = None,
        free_copies: int = 1,
    ):
        if free_copies < 1:
            raise BindingError("free_copies must be at least 1")
        if lattice is not None:
            if free_copies > 1:
                raise BindingError(
                    "multiple free copies are only supported in direct mode "
                    "(the paper's lattice maintains a single R0; build the "
                    "binder from schema/max_joins instead)"
                )
            self.schema = lattice.schema
            self.max_joins = lattice.max_joins
            self.max_keywords = lattice.max_keywords
        else:
            if schema is None or max_joins is None:
                raise BindingError(
                    "KeywordBinder needs a lattice, or a schema and max_joins"
                )
            self.schema = schema
            self.max_joins = max_joins
            self.max_keywords = (
                max_keywords if max_keywords is not None else max_joins + 1
            )
        self.lattice = lattice
        self.free_copies = free_copies
        self.memo = SignatureMemo(lattice_backed=lattice is not None)

    def bind(self, interpretation: Interpretation) -> KeywordBinding:
        """Assign the ``i``-th keyword to slot ``i`` of its relation.

        Raises :class:`BindingError` when the query has more keywords than
        a tree of ``max_joins`` joins can bind, or than the binder has
        keyword slots; the message says which limit to raise.
        """
        count = len(interpretation.assignments)
        if count > self.max_joins + 1:
            raise BindingError(
                f"query has {count} keywords, but a join tree of at most "
                f"{self.max_joins} joins binds at most {self.max_joins + 1}; "
                f"raise --level (max_joins + 1) to at least {count}"
            )
        if count > self.max_keywords:
            raise BindingError(
                f"query has {count} keywords, but only {self.max_keywords} "
                f"keyword slots exist; "
                + (
                    "regenerate the lattice with a larger max_keywords"
                    if self.lattice is not None
                    else "raise max_keywords"
                )
            )
        assignments: list[tuple[str, RelationInstance]] = []
        for position, (keyword, relation) in enumerate(
            interpretation.assignments, start=1
        ):
            if relation not in self.schema.relations:
                raise BindingError(f"unknown relation {relation!r}")
            assignments.append((keyword, RelationInstance(relation, position)))
        return KeywordBinding(interpretation, tuple(assignments))

    def prune(self, interpretation: Interpretation) -> PrunedLattice:
        """Phase 1: the retained trees of ``interpretation``'s slot signature.

        Read off the memo.  A miss fills it from the lattice's
        slot-signature index (:meth:`Lattice.trees_within`) or, without a
        lattice, by the generation :meth:`prune_for_mtns` describes.
        """
        return self._memoized(interpretation)

    def prune_for_mtns(self, interpretation: Interpretation) -> PrunedLattice:
        """:meth:`prune`, named for what a direct-mode memo holds.

        Without a lattice, a miss grows only the subtrees of potential
        MTNs.  Every subtree ``T`` of an MTN ``M`` satisfies ``|M| >= |T| +
        max(missing bound copies, free leaves of T)``: each free leaf of
        ``T`` must gain a distinct neighbour to become interior in ``M``
        (two free leaves sharing one new neighbour would close a cycle), and
        every missing bound copy still needs its own node.  Growth tests
        that budget on each one-leaf extension before building it
        (:func:`extension_over_budget`), so it reaches every MTN while
        skipping the retained trees no candidate network contains.  MTN
        extraction is unaffected (verified by a property test against
        :meth:`prune_direct` and a lattice binder's :meth:`prune`).
        """
        return self._memoized(interpretation)

    def prune_direct(self, interpretation: Interpretation) -> PrunedLattice:
        """Phase 1 without Phase 0 or the memo: generate the retained set.

        Enumerates all join trees over the binding's alphabet (bound copies
        plus one free copy per relation) up to ``max_joins + 1`` instances.
        This produces exactly the trees a lattice binder's :meth:`prune`
        retains -- the offline lattice's value is amortizing this work
        across queries, not changing its outcome.  It never reads or fills
        the memo: it is the reference the tests hold both memo fills to.
        """
        started = time.perf_counter()
        binding = self.bind(interpretation)
        return PrunedLattice(
            schema=self.schema,
            binding=binding,
            retained=self._generate(binding.instances, mtn_targeted=False),
            pruning_time=time.perf_counter() - started,
        )

    def _memoized(self, interpretation: Interpretation) -> PrunedLattice:
        started = time.perf_counter()
        binding = self.bind(interpretation)
        signature = binding.instances
        return PrunedLattice(
            schema=self.schema,
            binding=binding,
            retained=self.memo.retained(signature, lambda: self._fill(signature)),
            pruning_time=time.perf_counter() - started,
            memo=self.memo,
        )

    def _fill(self, signature: frozenset[RelationInstance]) -> frozenset[JoinTree]:
        if self.lattice is not None:
            return self.lattice.trees_within(signature)
        return self._generate(signature, mtn_targeted=True)

    def _generate(
        self, bound: frozenset[RelationInstance], mtn_targeted: bool
    ) -> frozenset[JoinTree]:
        max_size = self.max_joins + 1
        bound_by_relation: dict[str, list[RelationInstance]] = {}
        for instance in sorted(bound):
            bound_by_relation.setdefault(instance.relation, []).append(instance)

        def candidates(tree: JoinTree, relation: str) -> list[RelationInstance]:
            """Attachable instances of ``relation``: bound ones not yet in
            the tree, plus the lowest absent free rank (rank-permutation
            twins are never generated)."""
            found = [
                instance
                for instance in bound_by_relation.get(relation, ())
                if instance not in tree.instances
            ]
            next_free = next_free_instance(tree, relation, self.free_copies)
            if next_free is not None:
                found.append(next_free)
            return found

        retained: set[JoinTree] = set()
        stack: list[JoinTree] = []
        seeds = sorted(bound) + [
            free_instance(name, 0) for name in sorted(self.schema.relations)
        ]
        for instance in seeds:
            if mtn_targeted and instance.is_free and max_size > 1:
                # A lone free node is over budget unless it can still grow
                # into an MTN; seed from bound instances only (every MTN
                # contains one) and let free nodes join as connectors.
                continue
            tree = JoinTree.single(instance)
            if mtn_targeted and over_budget(tree, bound, max_size):
                continue
            retained.add(tree)
            stack.append(tree)
        while stack:
            tree = stack.pop()
            if tree.size >= max_size:
                continue
            budget = mtn_budget(tree, bound) if mtn_targeted else None
            for instance in tree.sorted_instances():
                for fk in self.schema.edges_of(instance.relation):
                    other_relation = fk.other(instance.relation)
                    for candidate in candidates(tree, other_relation):
                        if budget is not None and extension_over_budget(
                            tree, budget, instance, candidate, max_size
                        ):
                            continue
                        if fk.child == instance.relation:
                            edge = JoinEdge.from_fk(fk, instance, candidate)
                        else:
                            edge = JoinEdge.from_fk(fk, candidate, instance)
                        extended = tree.extend(edge, candidate)
                        if extended in retained or (
                            mtn_targeted and over_budget(extended, bound, max_size)
                        ):
                            continue
                        retained.add(extended)
                        stack.append(extended)
        return frozenset(retained)
