"""Static plan checks: join trees, the lattice, and candidate networks.

Every invariant the pipeline documents in docstrings is verified here
*statically* -- no data is loaded and no query runs.  The linter
deliberately avoids trusting :class:`~repro.relational.jointree.JoinTree`'s
constructor validation: hot paths build trees through the ``_unchecked``
fast path, so connectivity and edge membership are recomputed from the raw
instance/edge sets.

Codes emitted here: ``PLAN001`` dangling-join-edge, ``PLAN002``
disconnected-tree, ``PLAN003`` type-mismatched-join, ``PLAN004``
duplicate-slot, ``PLAN005`` unbound-keyword-slot, ``PLAN006``
non-minimal-network.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.core.binding import KeywordBinding
from repro.core.lattice import Lattice
from repro.kws.candidate_networks import network_violations
from repro.relational.jointree import JoinEdge, JoinTree, RelationInstance
from repro.relational.schema import AttributeType, SchemaError, SchemaGraph


def _tree_location(tree: JoinTree, context: str | None = None) -> str:
    described = " ⋈ ".join(str(instance) for instance in sorted(tree.instances))
    return f"{context} ({described})" if context else described


def _edge_diagnostics(
    tree: JoinTree, schema: SchemaGraph, location: str
) -> list[Diagnostic]:
    """PLAN001 + PLAN003 for every edge of ``tree``."""
    found: list[Diagnostic] = []
    for edge in sorted(tree.edges, key=lambda e: (e.a, e.a_column, e.b, e.b_column)):
        for endpoint in (edge.a, edge.b):
            if endpoint not in tree.instances:
                found.append(
                    Diagnostic(
                        "PLAN001",
                        f"edge {edge} touches {endpoint}, which is not an "
                        f"instance of the tree",
                        location,
                        hint="rebuild the tree so every edge endpoint is a member instance",
                    )
                )
        try:
            fk = schema.foreign_key(edge.fk)
        except SchemaError:
            found.append(
                Diagnostic(
                    "PLAN001",
                    f"edge {edge} references foreign key {edge.fk!r}, which "
                    f"the schema does not declare",
                    location,
                    hint="declare the foreign key on the SchemaGraph or drop the edge",
                )
            )
            continue
        forward = (edge.a.relation, edge.a_column, edge.b.relation, edge.b_column)
        backward = (edge.b.relation, edge.b_column, edge.a.relation, edge.a_column)
        declared = (fk.child, fk.child_column, fk.parent, fk.parent_column)
        if declared not in (forward, backward):
            found.append(
                Diagnostic(
                    "PLAN001",
                    f"edge {edge} instantiates {edge.fk!r} as "
                    f"{forward[0]}.{forward[1]} = {forward[2]}.{forward[3]}, "
                    f"but the schema declares "
                    f"{declared[0]}.{declared[1]} -> {declared[2]}.{declared[3]}",
                    location,
                    hint="regenerate the edge with JoinEdge.from_fk",
                )
            )
            continue
        found.extend(_join_type_diagnostics(edge, schema, location))
    return found


def _join_type_diagnostics(
    edge: JoinEdge, schema: SchemaGraph, location: str
) -> list[Diagnostic]:
    try:
        a_attr = schema.relation(edge.a.relation).attribute(edge.a_column)
        b_attr = schema.relation(edge.b.relation).attribute(edge.b_column)
    except SchemaError as exc:
        return [
            Diagnostic(
                "PLAN001",
                f"edge {edge} joins a column the schema does not declare: {exc}",
                location,
                hint="fix the join columns to match the schema",
            )
        ]
    found = []
    if a_attr.type is not b_attr.type:
        found.append(
            Diagnostic(
                "PLAN003",
                f"edge {edge} equates {edge.a.relation}.{edge.a_column} "
                f"({a_attr.type.value}) with {edge.b.relation}.{edge.b_column} "
                f"({b_attr.type.value})",
                location,
                hint="join on key columns of identical declared type",
            )
        )
    for relation, attribute in ((edge.a.relation, a_attr), (edge.b.relation, b_attr)):
        if attribute.type is AttributeType.TEXT and attribute.searchable:
            found.append(
                Diagnostic(
                    "PLAN003",
                    f"edge {edge} joins on searchable text column "
                    f"{relation}.{attribute.name}",
                    location,
                    hint="searchable columns carry keywords, not join keys",
                )
            )
    return found


def _shape_diagnostics(tree: JoinTree, location: str) -> list[Diagnostic]:
    """PLAN002: connectivity/acyclicity recomputed from the raw sets."""
    instances = tree.instances
    if not instances:
        return [
            Diagnostic(
                "PLAN002",
                "tree has no instances",
                location,
                hint="a join tree needs at least one relation instance",
            )
        ]
    usable_edges = [
        edge
        for edge in tree.edges
        if edge.a in instances and edge.b in instances
    ]
    found: list[Diagnostic] = []
    if len(tree.edges) != len(instances) - 1:
        found.append(
            Diagnostic(
                "PLAN002",
                f"{len(instances)} instances but {len(tree.edges)} edges; a "
                f"tree needs exactly {len(instances) - 1}",
                location,
                hint="a lattice node must be a spanning tree of its instances",
            )
        )
    adjacency: dict[RelationInstance, list[RelationInstance]] = {
        instance: [] for instance in instances
    }
    for edge in usable_edges:
        adjacency[edge.a].append(edge.b)
        adjacency[edge.b].append(edge.a)
    start = next(iter(sorted(instances)))
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for neighbour in adjacency[current]:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    if len(seen) != len(instances):
        unreachable = ", ".join(str(i) for i in sorted(instances - seen))
        found.append(
            Diagnostic(
                "PLAN002",
                f"instances not reachable from {start}: {unreachable}",
                location,
                hint="every instance must be connected through join edges",
            )
        )
    return found


def _slot_diagnostics(
    tree: JoinTree,
    location: str,
    max_keywords: int | None,
    distinct_slots: bool,
) -> list[Diagnostic]:
    """PLAN004 (duplicate slots) and PLAN005 (slots beyond the keyword budget)."""
    found: list[Diagnostic] = []
    by_slot: dict[int, list[RelationInstance]] = {}
    for instance in sorted(tree.instances):
        if instance.is_free:
            continue
        by_slot.setdefault(instance.copy, []).append(instance)
        if max_keywords is not None and instance.copy > max_keywords:
            found.append(
                Diagnostic(
                    "PLAN005",
                    f"{instance} occupies keyword slot {instance.copy}, but "
                    f"only {max_keywords} keyword(s) can ever bind",
                    location,
                    hint="regenerate with a larger max_keywords or drop the node",
                )
            )
    if distinct_slots:
        for slot, holders in sorted(by_slot.items()):
            if len(holders) > 1:
                described = ", ".join(str(instance) for instance in holders)
                found.append(
                    Diagnostic(
                        "PLAN004",
                        f"keyword slot {slot} is occupied by {len(holders)} "
                        f"instances: {described}",
                        location,
                        hint="with distinct_slots each keyword binds exactly one instance",
                    )
                )
    return found


def lint_tree(
    tree: JoinTree,
    schema: SchemaGraph,
    max_keywords: int | None = None,
    distinct_slots: bool = False,
    location: str | None = None,
) -> list[Diagnostic]:
    """All structural diagnostics for one join tree."""
    where = _tree_location(tree, location)
    found = _shape_diagnostics(tree, where)
    found.extend(_edge_diagnostics(tree, schema, where))
    found.extend(_slot_diagnostics(tree, where, max_keywords, distinct_slots))
    return found


def lint_lattice(lattice: Lattice) -> DiagnosticReport:
    """Verify every lattice tree."""
    report = DiagnosticReport()
    for position, tree in enumerate(lattice):
        report.extend(
            lint_tree(
                tree,
                lattice.schema,
                max_keywords=lattice.max_keywords,
                distinct_slots=lattice.distinct_slots,
                location=f"lattice tree {position}",
            )
        )
    return report


def lint_candidate_networks(
    networks: Iterable[JoinTree],
    binding: KeywordBinding,
    schema: SchemaGraph,
) -> DiagnosticReport:
    """Verify CN output from ``repro.kws`` against one interpretation."""
    report = DiagnosticReport()
    bound = binding.instances
    for index, tree in enumerate(networks):
        location = f"candidate network {index}"
        report.extend(
            lint_tree(tree, schema, distinct_slots=True, location=location)
        )
        where = _tree_location(tree, location)
        for problem in network_violations(tree, bound):
            if problem.startswith("free leaves"):
                report.add(
                    Diagnostic(
                        "PLAN006",
                        problem,
                        where,
                        hint="drop free leaves; they never contribute a keyword",
                    )
                )
            else:
                report.add(
                    Diagnostic(
                        "PLAN005",
                        problem,
                        where,
                        hint="every keyword binds exactly one slot of its relation",
                    )
                )
    return report
