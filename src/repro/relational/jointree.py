"""Join trees: the query representation shared by the lattice and executors.

A *join tree* is an unordered tree whose vertices are **relation instances**
(a relation name plus a copy index, the paper's conceptual copies
``R0 .. R(m+1)``) and whose edges are key-foreign-key joins from the schema
graph.  Candidate networks, their sub-networks, and every lattice node are
join trees.  A join tree plus a keyword binding is a :class:`BoundQuery`,
i.e. an executable SQL query of the form::

    SELECT * FROM R1, S2, ...
    WHERE R1.b = S2.c AND ...           -- join edges
      AND (R1.a LIKE '%k1%' OR ...)     -- keyword predicates on bound copies
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import total_ordering
from typing import Iterator, Mapping

from repro.relational.predicates import MatchMode
from repro.relational.schema import ForeignKey, SchemaGraph


class JoinTreeError(ValueError):
    """Raised when a join tree is malformed (disconnected, cyclic, ...)."""


@total_ordering
@dataclass(frozen=True, slots=True)
class RelationInstance:
    """One occurrence of a relation in a query: ``Person[2]``.

    Copy index 0 is the *free* copy (the empty keyword binds to it); copies
    ``1 .. m+1`` can carry keyword bindings.  Copies are conceptual symbols,
    not physical replicas -- every instance reads the same underlying table.

    The multi-free-copy extension (``repro.core.freecopies``, beyond the
    paper) adds further free instances: ``free=True`` with ``copy`` serving
    as the free *rank*.  ``RelationInstance(r, 0)`` is free by default, so
    the paper's single-``R0`` configuration needs no flag anywhere.
    """

    relation: str
    copy: int
    free: bool = None  # type: ignore[assignment]  # derived in __post_init__

    def __post_init__(self) -> None:
        if self.copy < 0:
            raise JoinTreeError(f"negative copy index: {self.copy}")
        if self.free is None:
            object.__setattr__(self, "free", self.copy == 0)
        if self.copy == 0 and not self.free:
            raise JoinTreeError("copy 0 is reserved for the free instance")

    @property
    def is_free(self) -> bool:
        return self.free

    @property
    def alias(self) -> str:
        """SQL alias for this instance (``person_2``, free: ``person_f1``)."""
        marker = "f" if self.free and self.copy else ""
        return f"{self.relation.lower()}_{marker}{self.copy}"

    def _key(self) -> tuple[str, int, bool]:
        return (self.relation, self.copy, self.free)

    def __lt__(self, other: "RelationInstance") -> bool:
        return self._key() < other._key()

    def __str__(self) -> str:
        marker = "f" if self.free and self.copy else ""
        return f"{self.relation}[{marker}{self.copy}]"


@dataclass(frozen=True, slots=True)
class JoinEdge:
    """An equi-join between two relation instances along a schema edge.

    Endpoints are stored in normalized (sorted) order so that structurally
    identical edges hash identically regardless of construction order.
    """

    fk: str
    a: RelationInstance
    a_column: str
    b: RelationInstance
    b_column: str

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise JoinTreeError(f"self-loop on {self.a}")
        if (self.b, self.b_column) < (self.a, self.a_column):
            # Normalize endpoint order for stable hashing/equality.
            a, a_column, b, b_column = self.b, self.b_column, self.a, self.a_column
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "a_column", a_column)
            object.__setattr__(self, "b", b)
            object.__setattr__(self, "b_column", b_column)

    @staticmethod
    def from_fk(
        fk: ForeignKey,
        child_instance: RelationInstance,
        parent_instance: RelationInstance,
    ) -> "JoinEdge":
        if child_instance.relation != fk.child or parent_instance.relation != fk.parent:
            raise JoinTreeError(
                f"edge {fk.name!r} joins {fk.child}->{fk.parent}, got "
                f"{child_instance.relation}->{parent_instance.relation}"
            )
        return JoinEdge(
            fk.name,
            child_instance,
            fk.child_column,
            parent_instance,
            fk.parent_column,
        )

    def touches(self, instance: RelationInstance) -> bool:
        return instance in (self.a, self.b)

    def other(self, instance: RelationInstance) -> RelationInstance:
        if instance == self.a:
            return self.b
        if instance == self.b:
            return self.a
        raise JoinTreeError(f"{instance} is not an endpoint of this edge")

    def column_of(self, instance: RelationInstance) -> str:
        if instance == self.a:
            return self.a_column
        if instance == self.b:
            return self.b_column
        raise JoinTreeError(f"{instance} is not an endpoint of this edge")

    def __str__(self) -> str:
        return f"{self.a}.{self.a_column} = {self.b}.{self.b_column}"


@dataclass(frozen=True, slots=True)
class JoinTree:
    """An unordered tree of relation instances connected by join edges.

    The class enforces the tree invariant on construction: edges only touch
    member instances, the graph is connected, and ``|E| == |V| - 1``.
    """

    instances: frozenset[RelationInstance]
    edges: frozenset[JoinEdge]
    _adjacency: Mapping[RelationInstance, tuple[JoinEdge, ...]] = field(
        default=None, repr=False, compare=False, hash=False  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        if not self.instances:
            raise JoinTreeError("a join tree needs at least one instance")
        if len(self.edges) != len(self.instances) - 1:
            raise JoinTreeError(
                f"not a tree: {len(self.instances)} instances, "
                f"{len(self.edges)} edges"
            )
        adjacency: dict[RelationInstance, list[JoinEdge]] = {
            instance: [] for instance in self.instances
        }
        for edge in self.edges:
            for endpoint in (edge.a, edge.b):
                if endpoint not in adjacency:
                    raise JoinTreeError(f"edge endpoint {endpoint} not in tree")
                adjacency[endpoint].append(edge)
        object.__setattr__(
            self,
            "_adjacency",
            {
                instance: tuple(edges)
                for instance, edges in adjacency.items()
            },
        )
        if not self._is_connected():
            raise JoinTreeError("join tree is disconnected")

    # --------------------------------------------------------- construction
    @staticmethod
    def single(instance: RelationInstance) -> "JoinTree":
        return JoinTree(frozenset([instance]), frozenset())

    @staticmethod
    def _unchecked(
        instances: frozenset[RelationInstance],
        edges: frozenset[JoinEdge],
        adjacency: dict[RelationInstance, tuple[JoinEdge, ...]],
    ) -> "JoinTree":
        """Internal fast path: build without re-validating the invariant.

        Only called from :meth:`extend`/:meth:`remove_leaf`, whose operations
        provably preserve tree-ness; hot loops (lattice generation, subtree
        enumeration) spend most of their time constructing trees, so skipping
        the re-validation matters.
        """
        tree = object.__new__(JoinTree)
        object.__setattr__(tree, "instances", instances)
        object.__setattr__(tree, "edges", edges)
        object.__setattr__(tree, "_adjacency", adjacency)
        return tree

    def extend(self, edge: JoinEdge, new_instance: RelationInstance) -> "JoinTree":
        """A new tree with ``new_instance`` attached via ``edge``."""
        if new_instance in self.instances:
            raise JoinTreeError(f"{new_instance} already in tree")
        if not edge.touches(new_instance):
            raise JoinTreeError("edge does not touch the new instance")
        anchor = edge.other(new_instance)
        if anchor not in self.instances:
            raise JoinTreeError(f"anchor {anchor} not in tree")
        adjacency = dict(self._adjacency)
        adjacency[anchor] = adjacency[anchor] + (edge,)
        adjacency[new_instance] = (edge,)
        return JoinTree._unchecked(
            self.instances | {new_instance}, self.edges | {edge}, adjacency
        )

    def remove_leaf(self, leaf: RelationInstance) -> "JoinTree":
        """A new tree with leaf instance ``leaf`` (and its edge) removed."""
        incident = self._adjacency[leaf]
        if len(self.instances) == 1:
            raise JoinTreeError("cannot remove the only instance")
        if len(incident) != 1:
            raise JoinTreeError(f"{leaf} is not a leaf")
        edge = incident[0]
        anchor = edge.other(leaf)
        adjacency = dict(self._adjacency)
        del adjacency[leaf]
        adjacency[anchor] = tuple(e for e in adjacency[anchor] if e != edge)
        return JoinTree._unchecked(
            self.instances - {leaf}, self.edges - {edge}, adjacency
        )

    # --------------------------------------------------------------- shape
    @property
    def size(self) -> int:
        """Number of relation instances (the lattice *level* of this tree)."""
        return len(self.instances)

    @property
    def join_count(self) -> int:
        return len(self.edges)

    def sorted_instances(self) -> list[RelationInstance]:
        return sorted(self.instances)

    def edges_of(self, instance: RelationInstance) -> tuple[JoinEdge, ...]:
        return self._adjacency[instance]

    def degree(self, instance: RelationInstance) -> int:
        return len(self._adjacency[instance])

    def leaves(self) -> list[RelationInstance]:
        if len(self.instances) == 1:
            return list(self.instances)
        return sorted(i for i in self.instances if self.degree(i) == 1)

    def relations(self) -> set[str]:
        return {instance.relation for instance in self.instances}

    def is_subtree_of(self, other: "JoinTree") -> bool:
        """Structural containment (same instances/edges, not isomorphism)."""
        return self.instances <= other.instances and self.edges <= other.edges

    # ------------------------------------------------------------ traversal
    def rooted_children(
        self, root: RelationInstance
    ) -> dict[RelationInstance, list[tuple[JoinEdge, RelationInstance]]]:
        """Parent -> [(edge, child)] map for the tree rooted at ``root``."""
        children: dict[RelationInstance, list[tuple[JoinEdge, RelationInstance]]] = {
            instance: [] for instance in self.instances
        }
        seen = {root}
        frontier = [root]
        while frontier:
            current = frontier.pop()
            for edge in self._adjacency[current]:
                neighbour = edge.other(current)
                if neighbour not in seen:
                    seen.add(neighbour)
                    children[current].append((edge, neighbour))
                    frontier.append(neighbour)
        return children

    def postorder(
        self, root: RelationInstance
    ) -> list[tuple[RelationInstance, JoinEdge | None, RelationInstance | None]]:
        """Post-order ``(node, edge_to_parent, parent)`` triples from ``root``."""
        children = self.rooted_children(root)
        order: list[tuple[RelationInstance, JoinEdge | None, RelationInstance | None]] = []

        def visit(
            node: RelationInstance,
            edge: JoinEdge | None,
            parent: RelationInstance | None,
        ) -> None:
            for child_edge, child in children[node]:
                visit(child, child_edge, node)
            order.append((node, edge, parent))

        visit(root, None, None)
        return order

    def connected_subtrees(self, min_size: int = 1) -> Iterator["JoinTree"]:
        """All connected subtrees (the paper's *sub-networks*), ``self`` included.

        A tree with ``n`` vertices has at most ``2^n - 1`` connected subtrees;
        lattice levels are small (``n <= maxJoins + 1``), so direct
        enumeration is cheap.  Subtrees are generated by recursively removing
        leaves, deduplicated on instance sets (a connected subgraph of a tree
        is determined by its vertex set).
        """
        seen: set[frozenset[RelationInstance]] = set()
        stack = [self]
        while stack:
            tree = stack.pop()
            if tree.instances in seen:
                continue
            seen.add(tree.instances)
            if tree.size >= min_size:
                yield tree
            if tree.size > 1:
                for leaf in tree.leaves():
                    smaller = tree.remove_leaf(leaf)
                    if smaller.instances not in seen:
                        stack.append(smaller)

    def child_subtrees(self) -> list["JoinTree"]:
        """Immediate sub-lattice children: one leaf removed, deduplicated."""
        if self.size == 1:
            return []
        children: dict[frozenset[RelationInstance], JoinTree] = {}
        for leaf in self.leaves():
            child = self.remove_leaf(leaf)
            children[child.instances] = child
        return list(children.values())

    # -------------------------------------------------------------- display
    def describe(self) -> str:
        """Compact human-readable form: ``Person[1] ⋈ Writes[0] ⋈ ...``."""
        return " ⋈ ".join(str(instance) for instance in self.sorted_instances())

    def __str__(self) -> str:
        return self.describe()

    def _is_connected(self) -> bool:
        start = next(iter(self.instances))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for edge in self._adjacency[current]:
                neighbour = edge.other(current)
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == len(self.instances)


@dataclass(frozen=True, slots=True)
class BoundQuery:
    """A join tree with keywords bound to (some of) its instances.

    This is the executable unit: answer/non-answer classification, MPANs, and
    all SQL-count metrics are defined over bound queries.  Instances absent
    from ``bindings`` are free tuple sets.
    """

    tree: JoinTree
    bindings: frozenset[tuple[RelationInstance, str]]
    mode: MatchMode = MatchMode.TOKEN

    def __post_init__(self) -> None:
        instances = self.tree.instances
        seen: set[RelationInstance] = set()
        for instance, keyword in self.bindings:
            if instance not in instances:
                raise JoinTreeError(f"binding on {instance} not in tree")
            if instance.is_free:
                raise JoinTreeError(f"cannot bind keyword {keyword!r} to free copy")
            if instance in seen:
                raise JoinTreeError(f"two keywords bound to {instance}")
            seen.add(instance)

    @staticmethod
    def from_mapping(
        tree: JoinTree,
        bindings: Mapping[RelationInstance, str],
        mode: MatchMode = MatchMode.TOKEN,
    ) -> "BoundQuery":
        return BoundQuery(tree, frozenset(bindings.items()), mode)

    @property
    def binding_map(self) -> dict[RelationInstance, str]:
        return dict(self.bindings)

    @property
    def keywords(self) -> frozenset[str]:
        return frozenset(keyword for _, keyword in self.bindings)

    def keyword_of(self, instance: RelationInstance) -> str | None:
        for bound_instance, keyword in self.bindings:
            if bound_instance == instance:
                return keyword
        return None

    def subquery(self, subtree: JoinTree) -> "BoundQuery":
        """Restrict this query to a connected subtree of its join tree."""
        if not subtree.is_subtree_of(self.tree):
            raise JoinTreeError("not a subtree of this query's join tree")
        kept = frozenset(
            (instance, keyword)
            for instance, keyword in self.bindings
            if instance in subtree.instances
        )
        return BoundQuery(subtree, kept, self.mode)

    def describe(self) -> str:
        """``Person[1]{widom} ⋈ Writes[0] ⋈ Publication[2]{trio}``."""
        bindings = self.binding_map
        parts = []
        for instance in self.tree.sorted_instances():
            keyword = bindings.get(instance)
            suffix = f"{{{keyword}}}" if keyword else ""
            parts.append(f"{instance}{suffix}")
        return " ⋈ ".join(parts)

    def describe_full(self) -> str:
        """:meth:`describe` plus the join conditions.

        Two queries over the same instances can differ only in how the
        instances are wired (e.g. which ``Coauthor`` row links which pair of
        people); this form disambiguates them.
        """
        joins = "; ".join(
            str(edge)
            for edge in sorted(
                self.tree.edges,
                key=lambda e: (e.a, e.a_column, e.b, e.b_column),
            )
        )
        return f"{self.describe()} [{joins}]" if joins else self.describe()

    def __str__(self) -> str:
        return self.describe()


def validate_against_schema(tree: JoinTree, schema: SchemaGraph) -> None:
    """Check that every edge of ``tree`` instantiates a declared foreign key."""
    for edge in tree.edges:
        fk = schema.foreign_key(edge.fk)
        forward = (edge.a.relation, edge.a_column, edge.b.relation, edge.b_column)
        backward = (edge.b.relation, edge.b_column, edge.a.relation, edge.a_column)
        declared = (fk.child, fk.child_column, fk.parent, fk.parent_column)
        if declared not in (forward, backward):
            raise JoinTreeError(
                f"edge {edge.fk!r}: tree joins {forward}, schema declares "
                f"{declared}"
            )
