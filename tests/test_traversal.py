"""Unit tests for the five Phase-3 traversal strategies."""

import functools
import operator
from fractions import Fraction

import pytest

from repro.core.mtn import build_exploration_graph
from repro.core.status import StatusStore
from repro.core.traversal import (
    STRATEGY_NAMES,
    get_strategy,
    seed_base_levels,
)
from repro.index.mapper import Interpretation
from repro.workloads.queries import TABLE2_QUERIES


def interp(*pairs):
    return Interpretation(tuple(pairs))


QUERIES = {
    "red candle": interp(("red", "Color"), ("candle", "ProductType")),
    "q1": interp(("saffron", "Color"), ("scented", "Item"),
                 ("candle", "ProductType")),
    "q2": interp(("saffron", "Attribute"), ("scented", "Item"),
                 ("candle", "ProductType")),
}


@pytest.fixture(scope="module")
def graphs(products_debugger):
    binder = products_debugger.binder
    return {
        name: build_exploration_graph([binder.prune(interpretation)])
        for name, interpretation in QUERIES.items()
    }


def run(products_debugger, graph, name, **kwargs):
    strategy = get_strategy(name, **kwargs)
    evaluator = products_debugger.make_evaluator(use_cache=strategy.uses_reuse)
    return strategy.run(graph, evaluator, products_debugger.database), evaluator


class TestStrategyRegistry:
    def test_all_names_resolve(self):
        for name in STRATEGY_NAMES:
            assert get_strategy(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_strategy("dfs")

    def test_reuse_flags(self):
        assert not get_strategy("bu").uses_reuse
        assert not get_strategy("td").uses_reuse
        assert get_strategy("buwr").uses_reuse
        assert get_strategy("tdwr").uses_reuse
        assert get_strategy("sbh").uses_reuse

    def test_sbh_validates_probability(self):
        with pytest.raises(ValueError):
            get_strategy("sbh", probability_alive=1.5)


class TestAgreement:
    @pytest.mark.parametrize("query_name", sorted(QUERIES))
    def test_all_strategies_agree(self, products_debugger, graphs, query_name):
        """Identical classifications and MPANs, whatever the ordering."""
        graph = graphs[query_name]
        signatures = {}
        for name in STRATEGY_NAMES:
            result, _ = run(products_debugger, graph, name)
            signatures[name] = result.classification_signature()
        assert len(set(signatures.values())) == 1, signatures

    @pytest.mark.parametrize("query_name", sorted(QUERIES))
    def test_every_mtn_classified(self, products_debugger, graphs, query_name):
        graph = graphs[query_name]
        result, _ = run(products_debugger, graph, "sbh")
        assert sorted(result.alive_mtns + result.dead_mtns) == graph.mtn_indexes

    def test_mpans_only_for_dead_mtns(self, products_debugger, graphs):
        result, _ = run(products_debugger, graphs["q1"], "tdwr")
        assert set(result.mpans) == set(result.dead_mtns)


class TestCosts:
    def test_reuse_never_worse(self, products_debugger, graphs):
        for graph in graphs.values():
            bu, _ = run(products_debugger, graph, "bu")
            buwr, _ = run(products_debugger, graph, "buwr")
            td, _ = run(products_debugger, graph, "td")
            tdwr, _ = run(products_debugger, graph, "tdwr")
            assert buwr.stats.queries_executed <= bu.stats.queries_executed
            assert tdwr.stats.queries_executed <= td.stats.queries_executed

    def test_base_level_needs_no_sql(self, products_debugger, graphs):
        """Keyword-bound and free base nodes are classified without SQL."""
        for graph in graphs.values():
            result, evaluator = run(products_debugger, graph, "buwr")
            assert result.stats.executed_by_level.get(1, 0) == 0

    def test_alive_mtn_costs_td_one_query(self, products_debugger):
        """TD on a graph whose single MTN is alive evaluates only the MTN."""
        binder = products_debugger.binder
        graph = build_exploration_graph(
            [binder.prune(interp(("vanilla", "Item"), ("candle", "ProductType")))]
        )
        alive_mtns = [
            m for m in graph.mtn_indexes
        ]
        result, _ = run(products_debugger, graph, "td")
        # every alive MTN costs exactly one query in TD; dead ones cost more
        assert result.stats.queries_executed >= len(result.alive_mtns)

    def test_elapsed_recorded(self, products_debugger, graphs):
        result, _ = run(products_debugger, graphs["q1"], "sbh")
        assert result.elapsed > 0


def equation_1_order(graph, database, alive, probability_alive):
    """SBH's probe order read straight off Equation (1), in exact arithmetic.

    Each step evaluates the unknown node of least
    ``Score(n) = sum_i [p_a |S_a(m_i)| + (1 - p_a) |S_d(m_i)|]``, the lowest
    index among ties, where ``S(m_i)`` is the unknown part of ``Desc+(m_i)``
    and ``S_a``/``S_d`` drop what R1/R2 would classify.
    """
    p_alive = Fraction(probability_alive)
    store = StatusStore(graph)
    seed_base_levels(graph, store, database)
    order = []
    while True:
        spaces = [graph.desc_plus(mtn) & store.unknown_mask for mtn in graph.mtn_indexes]
        candidates = graph.bits(functools.reduce(operator.or_, spaces, 0))
        if not candidates:
            return order

        def score(node):
            return sum(
                p_alive * (space & ~graph.desc_plus(node)).bit_count()
                + (1 - p_alive) * (space & ~graph.asc_plus(node)).bit_count()
                for space in spaces
            )

        best = min(candidates, key=lambda node: (score(node), node))
        order.append(best)
        store.record(best, alive[graph.node(best).query])


class TestScoreOrder:
    """SBH evaluates nodes in Equation (1)'s order.  With a dyadic ``p_a``
    its floating-point gains are exact, so ties must break alike too."""

    @pytest.fixture(scope="class")
    def dblife_graphs(self, dblife_debugger):
        return [
            dblife_debugger.build_graph(
                dblife_debugger.prune(dblife_debugger.map_keywords(query.text))
            )
            for query in TABLE2_QUERIES
        ]

    @pytest.mark.parametrize("probability_alive", [0.5, 0.25, 0.75, 0.0, 1.0])
    def test_probes_follow_equation_1(
        self, products_debugger, graphs, dblife_debugger, dblife_graphs, probability_alive
    ):
        cases = [(products_debugger, graph) for graph in graphs.values()]
        cases += [(dblife_debugger, graph) for graph in dblife_graphs]
        for debugger, graph in cases:
            evaluator = debugger.make_evaluator(use_cache=True)
            probed = []
            probe = evaluator.is_alive

            def recording_probe(query, probe=probe, probed=probed):
                probed.append(query)
                return probe(query)

            evaluator.is_alive = recording_probe
            get_strategy("sbh", probability_alive=probability_alive).run(
                graph, evaluator, debugger.database
            )
            alive = {
                node.query: debugger.make_evaluator().is_alive(node.query)
                for node in graph.nodes
            }
            expected = equation_1_order(
                graph, debugger.database, alive, probability_alive
            )
            assert probed == [graph.node(index).query for index in expected]


class TestSeeding:
    def test_seed_base_levels(self, products_debugger, graphs):
        graph = graphs["q1"]
        store = StatusStore(graph)
        seed_base_levels(graph, store, products_debugger.database)
        for index in graph.level_indexes(1):
            assert store.is_known(index)
        assert store.evaluated_count == 0  # seeds are free

    def test_seed_respects_empty_tables(self, products_db):
        """A free copy of an empty table seeds as dead."""
        from repro.core.debugger import NonAnswerDebugger
        from repro.datasets.products import product_schema
        from repro.relational.database import Database

        database = Database(product_schema())
        database.load(
            {
                "ProductType": [(1, "candle")],
                "Color": [(1, "red", "crimson")],
                # Item left empty on purpose.
            }
        )
        debugger = NonAnswerDebugger(database, max_joins=2)
        report = debugger.debug("red candle")
        # The only connecting path goes through the empty Item table.
        assert report.mtn_count > 0
        assert not report.answers()
        assert report.traversal.stats.queries_executed == 0  # all inferred


class TestResultApi:
    def test_result_queries(self, products_debugger, graphs):
        result, _ = run(products_debugger, graphs["q1"], "sbh")
        answers = result.answer_queries()
        non_answers = result.non_answer_queries()
        assert len(answers) == len(result.alive_mtns)
        assert len(non_answers) == len(result.dead_mtns)
        for mtn_index in result.dead_mtns:
            for mpan in result.mpan_queries(mtn_index):
                assert mpan.tree.is_subtree_of(
                    result.graph.node(mtn_index).tree
                )

    def test_mpan_counts(self, products_debugger, graphs):
        result, _ = run(products_debugger, graphs["q1"], "sbh")
        assert result.mpan_pair_count >= result.unique_mpan_count
