"""In-memory execution of bound join-tree queries.

Two operations matter to the paper's system:

* :meth:`InMemoryEngine.is_alive` -- does the query return at least one
  tuple?  This is the operation every lattice traversal issues ("execute the
  SQL query and check if it is empty") and the one we count.  It runs a
  Yannakakis-style bottom-up semi-join pass: because candidate networks are
  trees, the join is nonempty iff the semi-join-reduced root is nonempty.

* :meth:`InMemoryEngine.evaluate` -- enumerate (a bounded number of) result
  tuples, used to display answer queries and MPAN witnesses.

Keyword predicates are resolved to row-id sets through a pluggable
``tuple_set_provider`` -- the inverted index's ``tuple_set`` -- so the index
can serve them; without one the engine falls back to a table scan (what
``LIKE '%kw%'`` would do without an index).

At million-tuple scale the materialized tuple sets themselves become the
memory ceiling, so the engine optionally takes a ``streaming_source`` (an
index exposing ``tuple_set_size``/``iter_tuple_set``, e.g. the sqlite
index backend) plus a ``materialization_cap``: a probe whose tuple sets
all fit under the cap runs the classic materializing semi-join, anything
larger switches to :meth:`InMemoryEngine._is_alive_streaming` -- a
root-driven recursive existence check that streams the root's tuple set
and walks each candidate row down the join tree through the tables' hash
indexes, holding only O(depth) state (plus a bounded memo).  Both paths
compute the same boolean, so classifications are byte-identical.
"""

from __future__ import annotations

from typing import AbstractSet, Any, Callable, Iterable, Iterator, Mapping, Protocol

from repro.relational.database import Database
from repro.relational.jointree import BoundQuery, JoinEdge, JoinTree, RelationInstance
from repro.relational.predicates import MatchMode, cell_matches
from repro.relational.table import Table

TupleSetProvider = Callable[[str, str, MatchMode], "AbstractSet[int] | None"]
ResultRow = dict[RelationInstance, dict[str, Any]]

#: Tuple sets larger than this many rows are streamed, not materialized,
#: when a ``streaming_source`` is attached.  Below the cap the classic
#: path wins (its per-keyword sets are built once and cached); above it
#: the sets would dominate the heap.  The cap doubles as the out-of-core
#: memory plateau -- a streamed run retains at most a handful of
#: cap-sized sets -- so it is kept small enough that the plateau fits
#: inside the scale bench's "2x the 10^4-tuple footprint" ceiling.
DEFAULT_MATERIALIZATION_CAP = 1024

#: The streaming existence check memoizes (instance, row) -> survives
#: verdicts; the memo is dropped once it reaches this many entries so a
#: dead probe over a huge tuple set cannot re-grow a linear structure.
_MEMO_CAP = 65_536


class StreamingTupleSource(Protocol):
    """What the engine needs from an index to stream tuple sets."""

    def tuple_set_size(
        self, relation: str, keyword: str, mode: MatchMode = MatchMode.TOKEN
    ) -> int: ...

    def iter_tuple_set(
        self, relation: str, keyword: str, mode: MatchMode = MatchMode.TOKEN
    ) -> Iterator[int]: ...


class InMemoryEngine:
    """Evaluates :class:`BoundQuery` objects against a :class:`Database`."""

    def __init__(
        self,
        database: Database,
        tuple_set_provider: TupleSetProvider | None = None,
        streaming_source: StreamingTupleSource | None = None,
        materialization_cap: int | None = None,
    ):
        self.database = database
        self._tuple_set_provider = tuple_set_provider
        self._streaming_source = streaming_source
        self._materialization_cap = (
            materialization_cap
            if materialization_cap is not None or streaming_source is None
            else DEFAULT_MATERIALIZATION_CAP
        )
        self._scan_cache: dict[tuple[str, str, MatchMode], frozenset[int]] = {}

    # ------------------------------------------------------------ tuple sets
    def tuple_set(
        self, relation: str, keyword: str, mode: MatchMode
    ) -> frozenset[int]:
        """Row ids of ``relation`` whose text attributes match ``keyword``.

        Matching is case-insensitive, so the keyword is normalized *before*
        the provider call: the cache is keyed by the casefolded keyword, and
        forwarding the original case would make a case-sensitive provider's
        answers first-caller-wins inconsistent across mixed-case lookups.
        """
        needle = keyword.casefold()
        key = (relation, needle, mode)
        cached = self._scan_cache.get(key)
        if cached is not None:
            return cached
        ids: AbstractSet[int] | None = None
        if self._tuple_set_provider is not None:
            ids = self._tuple_set_provider(relation, needle, mode)
        if ids is None:
            table = self.database.table(relation)
            ids = {
                row_id
                for row_id in range(len(table))
                if any(
                    cell_matches(needle, text, mode)
                    for _, text in table.text_cells(row_id)
                )
            }
        result = frozenset(ids)
        self._scan_cache[key] = result
        return result

    def _candidate_ids(
        self, query: BoundQuery, instance: RelationInstance
    ) -> frozenset[int] | None:
        """Candidate row ids for one instance; ``None`` means "all rows"."""
        keyword = query.keyword_of(instance)
        if keyword is None:
            return None
        return self.tuple_set(instance.relation, keyword, query.mode)

    # ------------------------------------------------------------- liveness
    def is_alive(self, query: BoundQuery) -> bool:
        """True iff the query returns at least one tuple.

        Bottom-up semi-join pass over the join tree: for each node we compute
        the set of *join values* it can offer to its parent, restricted to
        rows that (a) satisfy the node's keyword predicate and (b) join with
        every child's offered value set.  The query is alive iff the root
        retains at least one viable row.

        When a ``streaming_source`` is attached and any of the query's
        tuple sets (or free relations) exceeds the materialization cap,
        the probe runs as a streamed existence check instead -- same
        answer, flat memory.
        """
        if self._should_stream(query):
            return self._is_alive_streaming(query)
        tree = query.tree
        root = self._pick_root(query)
        out_values: dict[RelationInstance, set[Any]] = {}
        for node, parent_edge, _parent in tree.postorder(root):
            viable = self._viable_rows(query, tree, node, root, out_values)
            if parent_edge is None:
                # Root: alive iff any viable row exists.
                for _ in viable:
                    return True
                return False
            column = parent_edge.column_of(node)
            table = self.database.table(node.relation)
            position = table.relation.index_of(column)
            values = {table.row(row_id)[position] for row_id in viable}
            values.discard(None)
            if not values:
                return False
            out_values[node] = values
        raise AssertionError("postorder always ends at the root")

    def _viable_rows(
        self,
        query: BoundQuery,
        tree: JoinTree,
        node: RelationInstance,
        root: RelationInstance,
        out_values: dict[RelationInstance, set[Any]],
    ) -> Iterable[int]:
        """Row ids of ``node`` passing its predicate and all child semi-joins."""
        table = self.database.table(node.relation)
        children = [
            (edge, edge.other(node))
            for edge in tree.edges_of(node)
            if edge.other(node) in out_values
        ]
        candidates = self._candidate_ids(query, node)

        if candidates is None and children:
            # Free node: drive the scan from the smallest child value set via
            # the hash index instead of scanning the whole table.
            edge, child = min(children, key=lambda pair: len(out_values[pair[1]]))
            column = edge.column_of(node)
            index = table.index_on(column)
            candidates = frozenset(
                row_id
                for value in out_values[child]
                for row_id in index.get(value, ())
            )
            children = [(e, c) for e, c in children if c is not child]
        elif candidates is None:
            candidates = frozenset(range(len(table)))

        if not children:
            return candidates

        def passes(row_id: int) -> bool:
            row = table.row(row_id)
            for edge, child in children:
                position = table.relation.index_of(edge.column_of(node))
                if row[position] not in out_values[child]:
                    return False
            return True

        return (row_id for row_id in candidates if passes(row_id))

    # ---------------------------------------------------- streamed liveness
    def _should_stream(self, query: BoundQuery) -> bool:
        """True when some tuple set of ``query`` is too big to materialize."""
        cap = self._materialization_cap
        if self._streaming_source is None or cap is None:
            return False
        for instance in query.tree.sorted_instances():
            keyword = query.keyword_of(instance)
            if keyword is None:
                if len(self.database.table(instance.relation)) > cap:
                    return True
                continue
            needle = keyword.casefold()
            if (instance.relation, needle, query.mode) in self._scan_cache:
                continue
            size = self._streaming_source.tuple_set_size(
                instance.relation, needle, query.mode
            )
            if size > cap:
                return True
        return False

    def _iter_candidates(
        self, relation: str, keyword: str, mode: MatchMode
    ) -> Iterable[int]:
        """Candidate row ids for one bound instance, streamed when large."""
        needle = keyword.casefold()
        cached = self._scan_cache.get((relation, needle, mode))
        if cached is not None:
            return cached
        source = self._streaming_source
        cap = self._materialization_cap
        if source is not None and cap is not None:
            if source.tuple_set_size(relation, needle, mode) > cap:
                return source.iter_tuple_set(relation, needle, mode)
        return self.tuple_set(relation, needle, mode)

    def _is_alive_streaming(self, query: BoundQuery) -> bool:
        """Root-driven existence check holding O(tree depth) state.

        The root's candidates are streamed; each one is verified by
        recursing down the rooted tree through the tables' join-column
        hash indexes, re-checking keyword predicates per row with
        :func:`cell_matches` (the same ground truth the scan fallback
        uses) instead of materialized tuple sets.  The first surviving
        root row proves liveness; exhausting the stream proves death.
        A bounded memo of (instance, row) verdicts keeps repeated join
        targets (conferences, topics, ...) from being re-derived per
        root candidate.
        """
        tree = query.tree
        root = self._pick_streaming_root(query)
        children = tree.rooted_children(root)
        keyword = query.keyword_of(root)
        candidates: Iterable[int]
        if keyword is None:
            candidates = range(len(self.database.table(root.relation)))
        else:
            candidates = self._iter_candidates(root.relation, keyword, query.mode)
        memo: dict[tuple[RelationInstance, int], bool] = {}
        for row_id in candidates:
            if self._row_survives(query, children, root, row_id, memo):
                return True
        return False

    def _row_survives(
        self,
        query: BoundQuery,
        children: Mapping[RelationInstance, list[tuple[JoinEdge, RelationInstance]]],
        node: RelationInstance,
        row_id: int,
        memo: dict[tuple[RelationInstance, int], bool],
    ) -> bool:
        """Does ``row_id`` of ``node`` join down every child subtree?"""
        key = (node, row_id)
        cached = memo.get(key)
        if cached is not None:
            return cached
        table = self.database.table(node.relation)
        row = table.row(row_id)
        survives = True
        for edge, child in children[node]:
            value = row[table.relation.index_of(edge.column_of(node))]
            if value is None:
                survives = False
                break
            child_table = self.database.table(child.relation)
            child_keyword = query.keyword_of(child)
            found = False
            for child_row in child_table.matching_ids(edge.column_of(child), value):
                if child_keyword is not None and not self._row_matches(
                    child_table, child_row, child_keyword, query.mode
                ):
                    continue
                if self._row_survives(query, children, child, child_row, memo):
                    found = True
                    break
            if not found:
                survives = False
                break
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        memo[key] = survives
        return survives

    def _pick_streaming_root(self, query: BoundQuery) -> RelationInstance:
        """Root at the *smallest* bound tuple set: the root is streamed in
        full on a dead probe, so its cardinality dominates the cost."""
        bound = sorted(instance for instance, _ in query.bindings)
        if not bound:
            return query.tree.sorted_instances()[0]
        source = self._streaming_source
        if source is None or len(bound) == 1:
            return bound[0]

        def size_of(instance: RelationInstance) -> int:
            keyword = query.keyword_of(instance)
            assert keyword is not None
            return source.tuple_set_size(
                instance.relation, keyword.casefold(), query.mode
            )

        return min(bound, key=lambda instance: (size_of(instance), instance))

    def _row_matches(
        self, table: Table, row_id: int, keyword: str, mode: MatchMode
    ) -> bool:
        """Keyword predicate on one row, via cached sets or the cells."""
        needle = keyword.casefold()
        cached = self._scan_cache.get((table.relation.name, needle, mode))
        if cached is not None:
            return row_id in cached
        return any(
            cell_matches(needle, text, mode)
            for _, text in table.text_cells(row_id)
        )

    def _pick_root(self, query: BoundQuery) -> RelationInstance:
        """Root the tree at a bound instance when possible.

        Starting from a keyword-bound (hence usually small) tuple set makes
        the final root check cheap; ties break deterministically.
        """
        bound = sorted(instance for instance, _ in query.bindings)
        if bound:
            return bound[0]
        return query.tree.sorted_instances()[0]

    # ------------------------------------------------------------ evaluation
    def count(self, query: BoundQuery, limit: int | None = None) -> int:
        """Number of result tuples (optionally stopping at ``limit``)."""
        total = 0
        for _ in self.evaluate(query, limit=limit):
            total += 1
        return total

    def evaluate(
        self, query: BoundQuery, limit: int | None = 100
    ) -> list[ResultRow]:
        """Enumerate result tuples as ``{instance: {column: value}}`` dicts.

        Backtracking join in tree order, using hash indexes for each edge.
        ``limit=None`` enumerates everything -- use with care on large joins.
        """
        tree = query.tree
        root = self._pick_root(query)
        children = tree.rooted_children(root)
        order: list[tuple[RelationInstance, JoinEdge | None, RelationInstance]] = []

        def flatten(node: RelationInstance) -> None:
            for edge, child in children[node]:
                order.append((child, edge, node))
                flatten(child)

        flatten(root)

        results: list[ResultRow] = []
        assignment: dict[RelationInstance, int] = {}

        root_candidates = self._candidate_ids(query, root)
        if root_candidates is None:
            root_candidates = frozenset(range(len(self.database.table(root.relation))))

        def recurse(depth: int) -> bool:
            """Returns True when the limit has been reached."""
            if depth == len(order):
                results.append(self._materialize(assignment))
                return limit is not None and len(results) >= limit
            node, edge, parent = order[depth]
            table = self.database.table(node.relation)
            parent_table = self.database.table(parent.relation)
            parent_row = parent_table.row(assignment[parent])
            join_value = parent_row[
                parent_table.relation.index_of(edge.column_of(parent))
            ]
            node_candidates = self._candidate_ids(query, node)
            for row_id in table.matching_ids(edge.column_of(node), join_value):
                if node_candidates is not None and row_id not in node_candidates:
                    continue
                assignment[node] = row_id
                if recurse(depth + 1):
                    return True
            assignment.pop(node, None)
            return False

        for root_row in sorted(root_candidates):
            assignment[root] = root_row
            if recurse(0):
                break
        return results

    def _materialize(self, assignment: Mapping[RelationInstance, int]) -> ResultRow:
        result: ResultRow = {}
        for instance, row_id in assignment.items():
            table = self.database.table(instance.relation)
            result[instance] = dict(
                zip(table.relation.attribute_names, table.row(row_id))
            )
        return result
