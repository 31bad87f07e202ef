"""End-to-end tests for the NonAnswerDebugger facade (Example 1 included)."""

import gc
import tempfile

import pytest

from repro.core.debugger import NonAnswerDebugger
from repro.core.traversal import STRATEGY_NAMES, get_strategy
from repro.relational.predicates import MatchMode
from repro.workloads.queries import TABLE2_QUERIES

QUERY = "saffron scented candle"


@pytest.fixture(scope="module")
def report(products_debugger):
    return products_debugger.debug(QUERY)


def queries_by_relations(report, relations):
    """The MTN whose bound instances live in exactly ``relations``."""
    found = []
    for query in report.non_answers() + report.answers():
        bound = sorted(i.relation for i, _ in query.bindings)
        if bound == sorted(relations):
            found.append(query)
    return found


class TestExample1:
    """Pins down Example 1 of the paper on the Figure-2 database."""

    def test_q1_is_a_non_answer(self, report):
        (q1,) = queries_by_relations(report, ["Color", "Item", "ProductType"])
        assert q1 in report.non_answers()

    def test_q2_is_a_non_answer(self, report):
        q2_candidates = [
            q
            for q in queries_by_relations(
                report, ["Attribute", "Item", "ProductType"]
            )
            if q.tree.size == 3
        ]
        assert q2_candidates
        for q2 in q2_candidates:
            assert q2 in report.non_answers()

    def test_q1_mpans_match_paper(self, report):
        """MPANs of q1: P^candle ⋈ I^scented, and C^saffron."""
        (q1,) = queries_by_relations(report, ["Color", "Item", "ProductType"])
        explanations = dict(
            (query.describe(), [m.describe() for m in mpans])
            for query, mpans in report.explanations()
        )
        mpans = sorted(explanations[q1.describe()])
        assert mpans == [
            "Color[1]{saffron}",
            "Item[2]{scented} ⋈ ProductType[3]{candle}",
        ]

    def test_q2_mpans_match_paper(self, report):
        """MPANs of q2: P^candle ⋈ I^scented, and I^scented ⋈ A^saffron."""
        q2 = next(
            q
            for q in queries_by_relations(
                report, ["Attribute", "Item", "ProductType"]
            )
            if q.tree.size == 3
        )
        explanations = dict(
            (query.describe(), sorted(m.describe() for m in mpans))
            for query, mpans in report.explanations()
        )
        assert explanations[q2.describe()] == [
            "Attribute[1]{saffron} ⋈ Item[2]{scented}",
            "Item[2]{scented} ⋈ ProductType[3]{candle}",
        ]

    def test_render_mentions_non_answers(self, report):
        text = report.render()
        assert "non-answer queries" in text
        assert "maximal alive sub-query" in text


class TestPipeline:
    def test_timings_populated(self, report):
        timings = report.timings
        assert timings.keyword_mapping >= 0
        assert timings.total >= timings.traversal

    def test_missing_keyword_aborts(self, products_debugger):
        report = products_debugger.debug("saffron sofa")
        assert report.aborted
        assert report.graph is None
        assert report.answers() == []
        assert "sofa" in report.render()

    def test_empty_query(self, products_debugger):
        report = products_debugger.debug("")
        assert report.answers() == []

    def test_all_strategies_same_explanations(self, products_debugger):
        rendered = set()
        for name in ("bu", "td", "buwr", "tdwr", "sbh"):
            report = products_debugger.debug(QUERY, strategy=name)
            rendered.add(
                tuple(
                    (q.describe(), tuple(sorted(m.describe() for m in mpans)))
                    for q, mpans in sorted(
                        report.explanations(), key=lambda pair: pair[0].describe()
                    )
                )
            )
        assert len(rendered) == 1

    def test_retained_nodes_counts_union(self, report):
        assert report.retained_nodes > 0

    def test_witnesses_for_answers(self, products_debugger, report):
        answers = report.answers()
        assert answers
        witnesses = products_debugger.witnesses(answers[0], limit=2)
        assert witnesses
        assert isinstance(witnesses[0], dict)

    def test_sqlite_backend_end_to_end(self, products_db):
        debugger = NonAnswerDebugger(products_db, max_joins=2, backend="sqlite")
        report = debugger.debug(QUERY)
        assert len(report.non_answers()) >= 2
        witnesses = debugger.witnesses(report.answers()[0], limit=1)
        assert witnesses

    def test_unknown_backend_rejected(self, products_db):
        with pytest.raises(ValueError):
            NonAnswerDebugger(products_db, backend="oracle")

    def test_failed_construction_releases_the_index(
        self, products_db, tmp_path, monkeypatch
    ):
        # The sqlite index (a temp file here) is built before the strategy
        # and the backend are resolved; a failure there must release it.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        for bad in ({"strategy": "nope"}, {"backend": "oracle"}):
            with pytest.raises(ValueError):
                NonAnswerDebugger(products_db, index_backend="sqlite", **bad)
        gc.collect()
        assert list(tmp_path.iterdir()) == []

    def test_substring_mode_end_to_end(self, products_db):
        debugger = NonAnswerDebugger(products_db, max_joins=2,
                                     mode=MatchMode.SUBSTRING)
        report = debugger.debug("scent candle")
        # 'scent' token-matches nothing but substring-matches 'scented'.
        assert not report.aborted
        assert report.answers()

    def test_token_mode_missing_keyword_aborts(self, products_debugger):
        report = products_debugger.debug("aroma candle")
        assert report.aborted

    def test_mismatched_lattice_rejected(self, products_db, dblife_db):
        from repro.core.lattice import generate_lattice

        foreign = generate_lattice(dblife_db.schema, 1)
        with pytest.raises(ValueError):
            NonAnswerDebugger(products_db, lattice=foreign)


class TestLatticeAndDirectAgree:
    """Both Phase-1 paths number the exploration graph alike, so every
    strategy, SBH's tie-breaks included, probes alike (DBLife, level 4)."""

    @pytest.fixture(scope="class")
    def debuggers(self, dblife_db):
        pair = [
            NonAnswerDebugger(
                dblife_db, max_joins=3, max_keywords=3, use_lattice=use_lattice
            )
            for use_lattice in (True, False)
        ]
        yield pair
        for debugger in pair:
            debugger.close()

    @pytest.mark.parametrize("query", TABLE2_QUERIES, ids=lambda query: query.qid)
    def test_same_graph_and_probe_counts(self, debuggers, dblife_db, query):
        seen = []
        for debugger in debuggers:
            mapping = debugger.map_keywords(query.text)
            graph = debugger.build_graph(debugger.prune(mapping))
            probes = []
            for name in STRATEGY_NAMES:
                strategy = get_strategy(name)
                evaluator = debugger.make_evaluator(use_cache=strategy.uses_reuse)
                result = strategy.run(graph, evaluator, dblife_db)
                probes.append(result.stats.queries_executed)
            seen.append(([node.query for node in graph.nodes], probes))
        assert seen[0] == seen[1]
