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

The retained trees form a plain set: Phase 2 orders the MTNs it takes from
them by a total key (:func:`repro.core.mtn.find_mtns`), so the order in
which Phase 1 found them never shows downstream.  For lattice levels where
materializing Phase 0 is not worthwhile, the same retained set can be
generated *directly* from the binding's alphabet
(:meth:`KeywordBinder.prune_direct`); a property test checks both paths
produce identical retained trees and identical MTN lists.
:func:`bind_tree` attaches the keywords to a retained tree, giving the
run-time :class:`~repro.relational.jointree.BoundQuery`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from repro.core.freecopies import free_instance, next_free_instance
from repro.core.lattice import Lattice
from repro.index.mapper import Interpretation
from repro.relational.jointree import BoundQuery, JoinEdge, JoinTree, RelationInstance
from repro.relational.predicates import MatchMode
from repro.relational.schema import SchemaGraph


class BindingError(ValueError):
    """Raised when an interpretation cannot be bound to the lattice."""


@dataclass(frozen=True)
class KeywordBinding:
    """The copy assignment of one interpretation: keyword -> instance."""

    interpretation: Interpretation
    by_keyword: tuple[tuple[str, RelationInstance], ...]

    @cached_property
    def instances(self) -> frozenset[RelationInstance]:
        """The keyword-bound copies (what totality is measured against)."""
        return frozenset(instance for _, instance in self.by_keyword)

    @cached_property
    def keyword_map(self) -> MappingProxyType[RelationInstance, str]:
        return MappingProxyType({inst: kw for kw, inst in self.by_keyword})

    def describe(self) -> str:
        return ", ".join(f"{kw}->{inst}" for kw, inst in self.by_keyword)


@dataclass(frozen=True)
class PrunedLattice:
    """The retained sub-lattice for one interpretation.

    ``retained`` holds every tree the paper's upward walk from the base
    nodes keeps when it comes from :meth:`KeywordBinder.prune` or
    :meth:`KeywordBinder.prune_direct`.  From the MTN-targeted
    :meth:`KeywordBinder.prune_for_mtns` it holds only the subtrees of
    potential MTNs: every MTN, but not every retained tree, so only MTN
    extraction may rely on it.
    """

    schema: SchemaGraph
    binding: KeywordBinding
    retained: frozenset[JoinTree]
    pruning_time: float = 0.0

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


class KeywordBinder:
    """Binds interpretations to keyword slots and prunes the lattice.

    Construct it either from a materialized :class:`Lattice` (Phase-0 path)
    or from a bare schema plus ``max_joins`` (direct path); both paths
    produce identical :class:`PrunedLattice` contents.
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
        """Phase 1 over the materialized lattice (slot-signature lookup).

        Falls back to :meth:`prune_direct` when no lattice was materialized.
        """
        if self.lattice is None:
            return self.prune_direct(interpretation)
        started = time.perf_counter()
        binding = self.bind(interpretation)
        return PrunedLattice(
            schema=self.schema,
            binding=binding,
            retained=self.lattice.trees_within(binding.instances),
            pruning_time=time.perf_counter() - started,
        )

    def prune_direct(self, interpretation: Interpretation) -> PrunedLattice:
        """Phase 1 without Phase 0: generate the retained set directly.

        Enumerates all join trees over the binding's alphabet (bound copies
        plus one free copy per relation) up to ``max_joins + 1`` instances.
        This produces exactly the trees :meth:`prune` retains -- the
        offline lattice's value is amortizing this work across queries, not
        changing its outcome -- and is the reference the tests hold both
        other paths to.  The debugger's direct mode runs
        :meth:`prune_for_mtns` instead.
        """
        return self._generate(interpretation, mtn_targeted=False)

    def prune_for_mtns(self, interpretation: Interpretation) -> PrunedLattice:
        """Direct generation restricted to subtrees of potential MTNs.

        Every subtree ``T`` of an MTN ``M`` satisfies ``|M| >= |T| +
        max(missing bound copies, free leaves of T)``: each free leaf of
        ``T`` must gain a distinct neighbour to become interior in ``M``
        (two free leaves sharing one new neighbour would close a cycle), and
        every missing bound copy still needs its own node.  Growing only
        trees within that budget therefore reaches every MTN while skipping
        retained trees that no candidate network contains.  MTN extraction
        is unaffected (verified by a property test against
        :meth:`prune_direct` and :meth:`prune`).
        """
        return self._generate(interpretation, mtn_targeted=True)

    def _generate(
        self, interpretation: Interpretation, mtn_targeted: bool
    ) -> PrunedLattice:
        started = time.perf_counter()
        binding = self.bind(interpretation)
        bound = binding.instances
        max_size = self.max_joins + 1
        bound_by_relation: dict[str, list[RelationInstance]] = {}
        for instance in sorted(bound):
            bound_by_relation.setdefault(instance.relation, []).append(instance)

        def over_budget(tree: JoinTree) -> bool:
            if not mtn_targeted:
                return False
            missing = len(bound - tree.instances)
            free_leaves = sum(1 for leaf in tree.leaves() if leaf.is_free)
            return tree.size + max(missing, free_leaves) > max_size

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
            if over_budget(tree):
                continue
            retained.add(tree)
            stack.append(tree)
        while stack:
            tree = stack.pop()
            if tree.size >= max_size:
                continue
            for instance in tree.sorted_instances():
                for fk in self.schema.edges_of(instance.relation):
                    other_relation = fk.other(instance.relation)
                    for candidate in candidates(tree, other_relation):
                        if fk.child == instance.relation:
                            edge = JoinEdge.from_fk(fk, instance, candidate)
                        else:
                            edge = JoinEdge.from_fk(fk, candidate, instance)
                        extended = tree.extend(edge, candidate)
                        if extended in retained or over_budget(extended):
                            continue
                        retained.add(extended)
                        stack.append(extended)
        return PrunedLattice(
            schema=self.schema,
            binding=binding,
            retained=frozenset(retained),
            pruning_time=time.perf_counter() - started,
        )
