"""Multiple free copies per relation -- an extension beyond the paper.

The paper maintains exactly one free copy ``R0`` per relation (§2.2-2.3).
That makes some relationships inexpressible until many joins are allowed:
connecting two people through a *shared publication* needs **two** instances
of ``Writes`` (``P1 - Writes - Pub - Writes - P2``), so with a single free
``Writes`` the query only becomes answerable through longer detours -- this
is visible in the paper's own Q3 numbers and reproduced in ours.

This module generalizes the direct (lattice-free) pipeline to ``f >= 1``
free copies per relation.  Free copies are interchangeable placeholders, so
two new concerns appear, both handled here:

* **generation symmetry** -- growing trees over ranks ``f0..f(k)`` would
  produce rank-permuted twins; generation therefore only ever attaches the
  lowest absent rank (callers use :func:`next_free_instance`);
* **sub-query symmetry** -- a subtree of a candidate network can still
  carry a non-canonical rank pattern (e.g. ``Writes[f1]`` alone after its
  sibling was cut away), and two such subtrees are the *same SQL query*.
  :func:`normalize_free_ranks` relabels every query to a canonical rank
  assignment (AHU codes with ranks masked decide the order; automorphic
  instances are interchangeable by definition), so the exploration graph
  interns each semantic sub-query exactly once.

With ``free_copies=1`` every function here is the identity and the system
behaves exactly as the paper describes; the extension is validated by
``tests/test_freecopies.py`` and the ``ablation-free-count`` experiment.
"""

from __future__ import annotations

from repro.relational.jointree import (
    BoundQuery,
    JoinEdge,
    JoinTree,
    RelationInstance,
)


def free_instance(relation: str, rank: int) -> RelationInstance:
    """The free instance of ``relation`` with the given rank (0-based)."""
    return RelationInstance(relation, rank, free=True)


def next_free_instance(
    tree: JoinTree, relation: str, max_free: int
) -> RelationInstance | None:
    """The lowest-rank free instance of ``relation`` absent from ``tree``.

    Attaching only this rank (never a higher one) makes tree generation
    blind to rank permutations; ``None`` when the budget is exhausted.
    """
    used = {
        instance.copy
        for instance in tree.instances
        if instance.free and instance.relation == relation
    }
    for rank in range(max_free):
        if rank not in used:
            return free_instance(relation, rank)
    return None


def _masked_code(
    tree: JoinTree, node: RelationInstance, parent: RelationInstance | None
) -> tuple:
    """AHU code of the tree rooted at ``node`` with free ranks masked."""
    label = (node.relation, node.free, -1 if node.free else node.copy)
    children = []
    for edge in tree.edges_of(node):
        neighbour = edge.other(node)
        if neighbour == parent:
            continue
        children.append((edge.fk, _masked_code(tree, neighbour, node)))
    children.sort()
    return (label, tuple(children))


def normalize_free_ranks(query: BoundQuery) -> BoundQuery:
    """Canonical free-rank relabeling of a bound query.

    Free instances of each relation receive ranks ``0..j-1`` following the
    lexicographic order of their masked rooted AHU codes (ties are true
    automorphisms, for which any order yields the same query).  Identity
    whenever every relation has at most one free instance.
    """
    tree = query.tree
    by_relation: dict[str, list[RelationInstance]] = {}
    for instance in tree.instances:
        if instance.free:
            by_relation.setdefault(instance.relation, []).append(instance)
    if all(len(instances) <= 1 for instances in by_relation.values()):
        needs_rank_fix = any(
            instances[0].copy != 0
            for instances in by_relation.values()
            if instances
        )
        if not needs_rank_fix:
            return query

    renaming: dict[RelationInstance, RelationInstance] = {}
    for relation, instances in by_relation.items():
        ordered = sorted(
            instances,
            key=lambda instance: (
                _masked_code(tree, instance, None),
                instance.copy,
            ),
        )
        for rank, instance in enumerate(ordered):
            if instance.copy != rank:
                renaming[instance] = free_instance(relation, rank)
    if not renaming:
        return query

    def rename(instance: RelationInstance) -> RelationInstance:
        return renaming.get(instance, instance)

    new_instances = frozenset(rename(instance) for instance in tree.instances)
    new_edges = frozenset(
        JoinEdge(edge.fk, rename(edge.a), edge.a_column, rename(edge.b), edge.b_column)
        for edge in tree.edges
    )
    new_tree = JoinTree(new_instances, new_edges)
    new_bindings = frozenset(
        (rename(instance), keyword) for instance, keyword in query.bindings
    )
    return BoundQuery(new_tree, new_bindings, query.mode)
