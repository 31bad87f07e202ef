"""SQL text generation for join trees and bound queries.

Each lattice node carries an *uninstantiated* SQL template (join conditions
only); binding keywords at run time instantiates the WHERE clause.  The
generated SQL is real SQL: :mod:`repro.relational.sqlite_backend` executes it
verbatim against a stdlib ``sqlite3`` database to cross-check the in-memory
engine.

Token-mode keyword predicates run on the mirror's own access paths: every
relation with searchable text gets a postings table (one row per token,
holding the ascending mirror row ids of the rows containing it), and both
ends of every foreign key get an index.  :func:`render_access_path_ddl`
creates those structures for the engine and for the SQL linter's dry run
alike.

The aliveness probe (:func:`render_exists_probe`) takes one of two forms,
chosen from the tree's shape.  Most trees keep the paper's flat join.  A
tree with a *same-row fan-in* (:func:`has_same_row_fan_in`) is rendered as
nested ``IN`` semi-joins instead, the SQL form of the memory engine's
Yannakakis pass.  ``count``, ``fetch`` (:func:`render_sql`) and the
Phase-0 templates (:func:`render_template`) always use the join form.
"""

from __future__ import annotations

from repro.relational.identifiers import quote_identifier
from repro.relational.jointree import (
    BoundQuery,
    JoinEdge,
    JoinTree,
    RelationInstance,
)
from repro.relational.predicates import KeywordPredicate, MatchMode, tokenize
from repro.relational.schema import Relation, SchemaError, SchemaGraph

KEYWORD_PLACEHOLDER = "?kw"

#: The names sqlite answers with a table's row id, in order of preference.
#: A declared column of the same name (compared case-insensitively, as
#: sqlite does) shadows the row id, so the mirror uses the first one the
#: relation leaves free.
ROWID_NAMES = ("rowid", "_rowid_", "oid")


def rowid_name(relation: Relation) -> str:
    """The name addressing the mirror row id of ``relation``.

    Raises :class:`SchemaError` when the relation declares a column under
    every name in :data:`ROWID_NAMES`: its row ids cannot be addressed.
    """
    declared = {name.lower() for name in relation.attribute_names}
    for name in ROWID_NAMES:
        if name not in declared:
            return name
    raise SchemaError(
        f"relation {relation.name!r} declares columns named "
        f"{', '.join(ROWID_NAMES)}; the sqlite mirror cannot address its rows"
    )


def postings_table(relation: str) -> str:
    """Name of the mirror's postings table for ``relation``.

    Relation names are alphanumeric, so the ``:`` keeps it from colliding
    with any mirrored relation (the name is always rendered quoted).
    """
    return f"postings:{relation}"


def _from_clause(tree: JoinTree) -> str:
    parts = [
        f"{quote_identifier(instance.relation)} AS {quote_identifier(instance.alias)}"
        for instance in tree.sorted_instances()
    ]
    return ", ".join(parts)


def _join_conditions(tree: JoinTree) -> list[str]:
    conditions = []
    for edge in sorted(tree.edges, key=lambda e: (e.a, e.a_column, e.b, e.b_column)):
        conditions.append(
            f"{quote_identifier(edge.a.alias)}.{quote_identifier(edge.a_column)}"
            f" = "
            f"{quote_identifier(edge.b.alias)}.{quote_identifier(edge.b_column)}"
        )
    return conditions


def render_template(tree: JoinTree, schema: SchemaGraph) -> str:
    """The offline (Phase 0) SQL template of a lattice node.

    Keyword predicates are represented by a ``?kw`` placeholder per non-free
    instance; Phase 1 replaces them with concrete predicates.
    """
    conditions = _join_conditions(tree)
    for instance in tree.sorted_instances():
        if instance.is_free:
            continue
        relation = schema.relation(instance.relation)
        columns = tuple(a.name for a in relation.text_attributes)
        if not columns:
            continue
        alias = quote_identifier(instance.alias)
        likes = " OR ".join(
            f"LOWER({alias}.{quote_identifier(column)}) "
            f"LIKE '%{KEYWORD_PLACEHOLDER}%'"
            for column in columns
        )
        conditions.append(f"({likes})")
    where = " AND ".join(conditions) if conditions else "1 = 1"
    return f"SELECT * FROM {_from_clause(tree)} WHERE {where}"


def render_keyword_condition(
    relation: Relation, alias: str, keyword: str, mode: MatchMode
) -> str:
    """The condition binding ``keyword`` to ``alias``, an instance of ``relation``.

    SUBSTRING mode is :meth:`KeywordPredicate.sql_condition`'s
    ``SUBSTRING_MATCH`` disjunction over the text attributes.  TOKEN mode
    keeps the rows whose mirror row id the relation's postings table lists
    under the casefolded keyword -- exactly the rows whose text attributes
    :func:`tokenize` to a list containing it.  A keyword that is not a
    single token matches no row, so it renders ``0 = 1`` and its text
    (quotes, NUL characters) never reaches the statement.
    """
    predicate = KeywordPredicate(keyword, mode)
    columns = tuple(attribute.name for attribute in relation.text_attributes)
    if not columns:
        return "0 = 1"
    if mode is MatchMode.SUBSTRING:
        return predicate.sql_condition(alias, columns)
    needle = keyword.casefold()
    if tokenize(needle) != [needle]:
        return "0 = 1"
    # needle is [a-z0-9]+ here, so the literal needs no escaping.
    return (
        f"{quote_identifier(alias)}.{rowid_name(relation)} IN "
        f"(SELECT value FROM json_each((SELECT rids FROM "
        f"{quote_identifier(postings_table(relation.name))} "
        f"WHERE token = '{needle}')))"
    )


def render_sql(
    query: BoundQuery,
    schema: SchemaGraph,
    select: str = "*",
    limit: int | None = None,
) -> str:
    """Executable SQL for a bound query, in the paper's flat join form.

    ``select`` and ``limit`` let callers render other forms, such as the
    ``SELECT 1`` inner statement of the flat aliveness probe
    (:func:`render_exists_probe`) or the sqlite backend's ``count``.
    """
    conditions = _join_conditions(query.tree)
    for instance in query.tree.sorted_instances():
        keyword = query.keyword_of(instance)
        if keyword is None:
            continue
        conditions.append(
            render_keyword_condition(
                schema.relation(instance.relation),
                instance.alias,
                keyword,
                query.mode,
            )
        )
    where = " AND ".join(conditions) if conditions else "1 = 1"
    sql = f"SELECT {select} FROM {_from_clause(query.tree)} WHERE {where}"
    if limit is not None:
        sql += f" LIMIT {limit}"
    return sql


def has_same_row_fan_in(tree: JoinTree, schema: SchemaGraph) -> bool:
    """True when one instance holds a foreign key's child column on two edges.

    Both edges then join the *same* child row to two copies of the parent,
    as ``Publication[1] ← PublishedIn[0] → Publication[2]`` on
    ``PublishedIn.pub_id``, so the two copies are one parent row and a flat
    join loops over one copy's candidates once per row of the other.
    """
    for instance in tree.instances:
        child_columns: set[str] = set()
        for edge in tree.edges_of(instance):
            foreign_key = schema.foreign_key(edge.fk)
            column = edge.column_of(instance)
            if (
                instance.relation != foreign_key.child
                or column != foreign_key.child_column
            ):
                continue
            if column in child_columns:
                return True
            child_columns.add(column)
    return False


def _semi_join_conditions(
    query: BoundQuery,
    schema: SchemaGraph,
    node: RelationInstance,
    children: dict[RelationInstance, list[tuple[JoinEdge, RelationInstance]]],
) -> list[str]:
    """``node``'s keyword plus one uncorrelated ``IN`` per child subtree."""
    conditions = []
    keyword = query.keyword_of(node)
    if keyword is not None:
        conditions.append(
            render_keyword_condition(
                schema.relation(node.relation), node.alias, keyword, query.mode
            )
        )
    for edge, child in sorted(children[node], key=lambda pair: pair[1]):
        alias = quote_identifier(child.alias)
        subquery = (
            f"SELECT {alias}.{quote_identifier(edge.column_of(child))} "
            f"FROM {quote_identifier(child.relation)} AS {alias}"
        )
        child_conditions = _semi_join_conditions(query, schema, child, children)
        if child_conditions:
            subquery += f" WHERE {' AND '.join(child_conditions)}"
        conditions.append(
            f"{quote_identifier(node.alias)}."
            f"{quote_identifier(edge.column_of(node))} IN ({subquery})"
        )
    return conditions


def _render_semi_join(query: BoundQuery, schema: SchemaGraph) -> str:
    """``SELECT 1`` from the query's first instance, its subtrees as semi-joins.

    Each child subtree becomes ``parent.col IN (SELECT child.col FROM Child
    AS child WHERE <its keyword> AND <its children>)``.  For a join tree
    this is exact: a root row survives iff every subtree offers its join
    value, and a NULL join value matches nothing, as in the join.  No
    subquery names an outer alias, so sqlite builds each ``IN`` list once.
    The tree must have an edge, so the root has a condition.
    """
    root = query.tree.sorted_instances()[0]
    children = query.tree.rooted_children(root)
    where = " AND ".join(_semi_join_conditions(query, schema, root, children))
    return (
        f"SELECT 1 FROM {quote_identifier(root.relation)} AS "
        f"{quote_identifier(root.alias)} WHERE {where}"
    )


def render_exists_probe(query: BoundQuery, schema: SchemaGraph) -> str:
    """The aliveness probe as a single boolean: ``SELECT EXISTS (...)``.

    ``EXISTS`` short-circuits on the first row inside the engine, so one
    scalar crosses the connection instead of a fetched row -- the form the
    sqlite backend executes.  A tree with a same-row fan-in
    (:func:`has_same_row_fan_in`) is probed as nested semi-joins
    (:func:`_render_semi_join`); every other tree as the flat join of
    :func:`render_sql`, which ends at its first joined row.
    """
    if has_same_row_fan_in(query.tree, schema):
        inner = _render_semi_join(query, schema)
    else:
        inner = render_sql(query, schema, select="1")
    return f"SELECT EXISTS ({inner})"


def render_ddl(schema: SchemaGraph) -> list[str]:
    """CREATE TABLE statements for the schema (used by the sqlite backend)."""
    statements = []
    for relation in schema.iter_relations():
        columns = ", ".join(
            f"{quote_identifier(attribute.name)} {attribute.type.sql_name}"
            for attribute in relation.attributes
        )
        statements.append(
            f"CREATE TABLE {quote_identifier(relation.name)} ({columns})"
        )
    return statements


def render_access_path_ddl(schema: SchemaGraph) -> list[str]:
    """The postings tables and foreign-key indexes of the sqlite mirror.

    One ``(token PRIMARY KEY, rids)`` table per relation with searchable
    text, where ``rids`` is a JSON array of ascending mirror row ids, and
    one index per column at either end of a foreign key.  Run after
    :func:`render_ddl` (and, when loading data, after the rows are in, so
    each index is built in one pass).
    """
    statements = [
        f"CREATE TABLE {quote_identifier(postings_table(relation.name))} "
        f"(token TEXT PRIMARY KEY, rids TEXT) WITHOUT ROWID"
        for relation in schema.iter_relations()
        if relation.text_attributes
    ]
    ends: set[tuple[str, str]] = set()
    for foreign_key in schema.foreign_keys.values():
        ends.add((foreign_key.child, foreign_key.child_column))
        ends.add((foreign_key.parent, foreign_key.parent_column))
    for relation, column in sorted(ends):
        # Relation names cannot hold "." or ":", so index names cannot
        # collide with each other or with any table.
        index = quote_identifier(f"index:{relation}.{column}")
        statements.append(
            f"CREATE INDEX {index} "
            f"ON {quote_identifier(relation)} ({quote_identifier(column)})"
        )
    return statements
