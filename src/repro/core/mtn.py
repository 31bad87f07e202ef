"""Minimal-total nodes and the exploration graph (Phase 2, §2.4).

A retained node is **total** if it contains the copy bound to every keyword
and **minimal-total** (MTN) if no descendant is total -- equivalently, every
leaf of its join tree is a keyword-bound copy (removing a free leaf would
preserve totality).  MTNs correspond exactly to DISCOVER's candidate
networks; a property test checks that correspondence against the independent
generator in :mod:`repro.kws`.

The **exploration graph** is the union of every MTN's descendant
sub-lattice: all connected subtrees of all MTN trees, deduplicated, with

* transitive descendant/ancestor sets as Python-int bitsets (cheap
  ``&``/``|``/popcount at the sizes the paper reports), built from the
  immediate parent/child edges (one leaf removed), and
* the instantiated :class:`~repro.relational.jointree.BoundQuery` per node.

Which trees are MTNs, their order, and each MTN's sub-lattice depend on the
slot signature alone (:mod:`repro.core.binding`), so :func:`mtn_plans` keeps
them in the binder's memo entry; :func:`build_exploration_graph` binds the
keywords, applies the call's constraints, interns the bound queries and
builds the masks.  Every Phase-3 traversal strategy and both baselines run
over this structure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.binding import KeywordBinding, PrunedLattice, bind_tree
from repro.core.canonical import canonical_code
from repro.core.constraints import UNCONSTRAINED, SearchConstraints
from repro.core.freecopies import normalize_free_ranks
from repro.relational.jointree import BoundQuery, JoinTree, RelationInstance
from repro.relational.predicates import MatchMode


def is_minimal_total(tree: JoinTree, binding: KeywordBinding) -> bool:
    """True iff ``tree`` is total and all of its leaves are keyword-bound."""
    bound = binding.instances
    return bound <= tree.instances and all(leaf in bound for leaf in tree.leaves())


@dataclass(frozen=True, slots=True)
class MtnPlan:
    """One MTN of a slot signature and its sub-lattice, without keywords.

    ``subtrees`` are the MTN tree's proper connected subtrees, in the order
    :meth:`JoinTree.connected_subtrees` yields them; ``children[p]`` holds
    the positions, in ``(tree,) + subtrees``, of the one-leaf children of
    the tree at position ``p`` of that sequence.
    """

    tree: JoinTree
    subtrees: tuple[JoinTree, ...]
    children: tuple[tuple[int, ...], ...]


def plan_mtns(pruned: PrunedLattice) -> tuple[MtnPlan, ...]:
    """The plans of :func:`find_mtns`' MTNs, computed afresh.

    Reads ``pruned``'s retained trees and its slot signature only.
    Subtrees that several MTNs share are one object.
    """
    mtns = [tree for tree in pruned.retained if is_minimal_total(tree, pruned.binding)]
    mtns.sort(
        key=lambda tree: (
            tree.size,
            tree.describe(),
            canonical_code(tree, pruned.schema),
        )
    )
    # Each distinct tree once, with the instance sets of its children.
    shared: dict[JoinTree, tuple[JoinTree, list[frozenset[RelationInstance]]]] = {}
    plans = []
    for mtn in mtns:
        # connected_subtrees() yields the MTN itself first.
        trees = []
        for tree in mtn.connected_subtrees():
            if tree not in shared:
                shared[tree] = (tree, [child.instances for child in tree.child_subtrees()])
            trees.append(shared[tree])
        position = {tree.instances: index for index, (tree, _) in enumerate(trees)}
        children = tuple(tuple(position[child] for child in kids) for _, kids in trees)
        plans.append(MtnPlan(mtn, tuple(tree for tree, _ in trees[1:]), children))
    return tuple(plans)


def mtn_plans(pruned: PrunedLattice) -> tuple[MtnPlan, ...]:
    """:func:`plan_mtns`, kept in the memo entry ``pruned`` was read from.

    The first call for a slot signature builds the plans; later calls,
    from any interpretation or thread with that signature, read them.
    """
    if pruned.memo is None:
        return plan_mtns(pruned)
    return pruned.memo.mtn_plans(pruned.binding.instances, lambda: plan_mtns(pruned))


def find_mtns(pruned: PrunedLattice) -> list[JoinTree]:
    """The minimal-total trees of a pruned lattice, in one total order.

    Sorted by size, then description, then Algorithm 2's canonical label,
    which tells apart trees with one description (Coauthor joined on
    ``person1_id`` or on ``person2_id``): canonical labels of copy-labeled
    trees are equal iff the trees are.  The order, and with it the
    exploration graph's numbering that steers SBH's tie-breaks, is thus a
    function of the retained set alone, however Phase 1 produced it.
    """
    return [plan.tree for plan in mtn_plans(pruned)]


@dataclass
class ExplorationNode:
    """One node of the exploration graph."""

    index: int
    tree: JoinTree
    query: BoundQuery
    level: int
    is_mtn: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " MTN" if self.is_mtn else ""
        return f"ExplorationNode({self.index}, {self.query.describe()}{flag})"


class ExplorationGraph:
    """MTNs plus all their sub-networks, with fast ancestry bitsets."""

    def __init__(
        self,
        mode: MatchMode = MatchMode.TOKEN,
        constraints: SearchConstraints = UNCONSTRAINED,
    ):
        self.mode = mode
        self.constraints = constraints
        self.nodes: list[ExplorationNode] = []
        self.mtn_indexes: list[int] = []
        self._by_query: dict[BoundQuery, int] = {}
        # Bitsets (Python ints); bit i refers to self.nodes[i].
        self.desc_mask: list[int] = []  # strict descendants
        self.asc_mask: list[int] = []  # strict ancestors
        # Per node, the indexes of its one-leaf children (None until an MTN
        # holding the node records them).
        self._children: list[list[int] | None] = []
        # Exact descendant sets recorded per MTN during enumeration; they
        # bridge the gap a max_explanation_level constraint opens between an
        # over-cap MTN and its retained sub-queries.
        self._mtn_desc: dict[int, int] = {}
        self.build_time: float = 0.0

    # ------------------------------------------------------------ building
    def _intern(self, query: BoundQuery) -> int:
        # Keyed by the *bound query*, not the bare tree: the same tree can
        # carry different keywords in different interpretations (e.g. two
        # keywords that both occur in Person), and those are distinct SQL
        # queries with distinct aliveness.  Free ranks are normalized first
        # so rank-permuted twins (multi-free-copy extension) collapse into
        # one node; with a single free copy this is the identity.
        query = normalize_free_ranks(query)
        index = self._by_query.get(query)
        if index is not None:
            return index
        index = len(self.nodes)
        node = ExplorationNode(index, query.tree, query, query.tree.size)
        self.nodes.append(node)
        self._children.append(None)
        self._by_query[query] = index
        return index

    def add_mtn(self, query: BoundQuery, plan: MtnPlan) -> int | None:
        """Add one MTN and every admitted connected subtree of its join tree.

        ``query`` binds ``plan.tree``, whose sub-lattice ``plan`` lists.
        Returns ``None`` when the search constraints rule the candidate
        network out entirely.
        """
        if not self.constraints.admits_mtn(query.tree):
            return None
        mtn_index = self._intern(query)
        if not self.nodes[mtn_index].is_mtn:
            self.nodes[mtn_index].is_mtn = True
            self.mtn_indexes.append(mtn_index)
        indexes: list[int | None] = [mtn_index]
        desc_bits = self._mtn_desc.get(mtn_index, 0)
        for subtree in plan.subtrees:
            index = None
            if self.constraints.admits_subquery(subtree):
                self.constraints.validate_closure(subtree)
                index = self._intern(query.subquery(subtree))
                desc_bits |= 1 << index
            indexes.append(index)
        self._mtn_desc[mtn_index] = desc_bits
        # A node has the same children in every MTN that holds it (the
        # constraints judge trees alone), so its first MTN records them.
        # Only an MTN can lack some, when the constraints drop its immediate
        # subtrees; its descendant set above bridges the gap.
        for index, positions in zip(indexes, plan.children):
            if index is not None and self._children[index] is None:
                children = [indexes[position] for position in positions]
                self._children[index] = [child for child in children if child is not None]
        return mtn_index

    def finalize(self) -> "ExplorationGraph":
        """Compute the ancestry bitsets from the parent/child edges."""
        started = time.perf_counter()
        children = [recorded or [] for recorded in self._children]
        parents: list[list[int]] = [[] for _ in self.nodes]
        for index, recorded in enumerate(children):
            for child in recorded:
                parents[child].append(index)
        order = sorted(range(len(self.nodes)), key=lambda i: self.nodes[i].level)
        self.desc_mask = [0] * len(self.nodes)
        for index in order:  # ascending level: children first
            mask = 0
            for child in children[index]:
                mask |= (1 << child) | self.desc_mask[child]
            self.desc_mask[index] = mask
        for mtn_index, recorded in self._mtn_desc.items():
            self.desc_mask[mtn_index] |= recorded
        self.asc_mask = [0] * len(self.nodes)
        for index in reversed(order):  # descending level: parents first
            mask = 0
            for parent in parents[index]:
                mask |= (1 << parent) | self.asc_mask[parent]
            self.asc_mask[index] = mask
        for mtn_index in self.mtn_indexes:
            bit = 1 << mtn_index
            for member in self.bits(self.desc_mask[mtn_index]):
                self.asc_mask[member] |= bit
        self.mtn_indexes.sort()
        self.build_time += time.perf_counter() - started
        return self

    # --------------------------------------------------------------- access
    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def max_level(self) -> int:
        return max((node.level for node in self.nodes), default=0)

    def node(self, index: int) -> ExplorationNode:
        return self.nodes[index]

    def mtns(self) -> list[ExplorationNode]:
        return [self.nodes[index] for index in self.mtn_indexes]

    def level_indexes(self, level: int) -> list[int]:
        return [node.index for node in self.nodes if node.level == level]

    def desc_plus(self, index: int) -> int:
        """Bitset of ``Desc+(n) = {n} | Desc(n)``."""
        return self.desc_mask[index] | (1 << index)

    def asc_plus(self, index: int) -> int:
        return self.asc_mask[index] | (1 << index)

    def bits(self, mask: int) -> list[int]:
        """Indexes of the set bits of ``mask`` (ascending)."""
        result = []
        while mask:
            low = mask & -mask
            result.append(low.bit_length() - 1)
            mask ^= low
        return result

    # ----------------------------------------------------------- statistics
    def descendant_counts(self) -> tuple[int, int]:
        """``(total, unique)`` descendant counts over all MTNs (Fig. 10/13).

        *total* counts each MTN's strict descendants with multiplicity across
        MTNs; *unique* counts distinct nodes.  The paper's reuse percentage
        is ``100 * (1 - unique / total)``.
        """
        total = 0
        union = 0
        for mtn_index in self.mtn_indexes:
            mask = self.desc_mask[mtn_index]
            total += mask.bit_count()
            union |= mask
        return total, union.bit_count()

    def reuse_percentage(self) -> float:
        total, unique = self.descendant_counts()
        return 100.0 * (1.0 - unique / total) if total else 0.0


def build_exploration_graph(
    pruned_lattices: list[PrunedLattice],
    mode: MatchMode = MatchMode.TOKEN,
    constraints: SearchConstraints = UNCONSTRAINED,
) -> ExplorationGraph:
    """Phase 2 for a whole keyword query: MTNs of every interpretation.

    Sub-queries shared between interpretations (or between MTNs of one
    interpretation) become a single node, which is exactly the overlap the
    reuse-based traversals exploit.  ``constraints`` push user-defined
    restrictions into the search (§5 future work).
    """
    graph = ExplorationGraph(mode, constraints)
    for pruned in pruned_lattices:
        for plan in mtn_plans(pruned):
            graph.add_mtn(bind_tree(plan.tree, pruned.binding, mode), plan)
    return graph.finalize()
