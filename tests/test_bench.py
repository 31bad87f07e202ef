"""Tests for the benchmark harness: cost model, tables, context, runners."""

import pytest

from repro.bench import context as bench_context
from repro.bench.context import BenchContext
from repro.bench.cost_model import SimpleCostModel
from repro.bench.experiments import (
    ablation_free_copies,
    ablation_pa,
    fig9,
    fig10,
    fig11,
    fig13,
    run_experiment,
)
from repro.bench.tables import TextTable
from repro.index.inverted import InvertedIndex
from repro.relational.jointree import BoundQuery, JoinTree, RelationInstance


@pytest.fixture(scope="module")
def context():
    """A tiny, fast bench context (level 3 only is exercised here)."""
    return BenchContext.create(scale=1)


class TestTextTable:
    def test_render_aligns_columns(self):
        table = TextTable("T", ["a", "long_header"])
        table.add_row(1, 2.5)
        table.add_row(100, 0.001)
        text = table.render()
        assert "long_header" in text
        assert "0.0010" in text

    def test_row_arity_checked(self):
        table = TextTable("T", ["a"])
        with pytest.raises(ValueError):
            table.add_row(1, 2)

    def test_column_access(self):
        table = TextTable("T", ["a", "b"])
        table.add_row(1, 2)
        table.add_row(3, 4)
        assert table.column("b") == [2, 4]

    def test_notes_rendered(self):
        table = TextTable("T", ["a"])
        table.add_note("hello")
        assert "note: hello" in table.render()


class TestCostModel:
    @pytest.fixture(scope="class")
    def model(self, products_db):
        return SimpleCostModel(products_db, InvertedIndex(products_db))

    def test_cost_positive_and_deterministic(self, model):
        tree = JoinTree.single(RelationInstance("Item", 1))
        query = BoundQuery.from_mapping(tree, {RelationInstance("Item", 1): "scented"})
        assert model.cost(query) == model.cost(query) > 0

    def test_bound_cheaper_than_free(self, model):
        free = BoundQuery.from_mapping(JoinTree.single(RelationInstance("Item", 0)), {})
        bound = BoundQuery.from_mapping(
            JoinTree.single(RelationInstance("Item", 1)),
            {RelationInstance("Item", 1): "saffron"},
        )
        assert model.cost(bound) < model.cost(free)
        assert model.estimated_output(bound) <= model.estimated_output(free)

    def test_dead_tuple_set_zero_output(self, model):
        bound = BoundQuery.from_mapping(
            JoinTree.single(RelationInstance("Color", 1)),
            {RelationInstance("Color", 1): "turquoise"},
        )
        assert model.estimated_output(bound) == 0.0


class TestContext:
    def test_prepare_cached(self, context):
        query = context.workload[0]
        assert context.prepare(3, query) is context.prepare(3, query)

    def test_run_strategy_cached(self, context):
        query = context.workload[0]
        one = context.run_strategy(3, query, "sbh")
        assert context.run_strategy(3, query, "sbh") is one

    def test_kwargs_distinguish_results(self, context):
        query = context.workload[0]
        a = context.run_strategy(3, query, "sbh", probability_alive=0.1)
        b = context.run_strategy(3, query, "sbh", probability_alive=0.9)
        assert a is not b


class TestRunners:
    def test_fig9_small(self, context):
        nodes, times = fig9(context, max_level=3)
        assert len(nodes.rows) == 3
        assert nodes.column("nodes")[0] > 0
        assert len(times.rows) == 3

    def test_fig10_rows(self, context):
        table = fig10(context, level=3)
        assert len(table.rows) == 10
        assert all(retained > 0 for retained in table.column("retained"))

    def test_fig10_without_a_lattice_has_no_pruned_share(self, monkeypatch):
        """Direct mode retains only MTN subtrees: nothing to take a share of."""
        monkeypatch.setattr(bench_context, "MAX_MATERIALIZED_LEVEL", 2)
        table = fig10(BenchContext.create(scale=1), level=3)
        assert set(table.column("pruned %")) == {"n/a"}
        assert any("pruned % is n/a" in note for note in table.notes)

    def test_fig11_reuse_never_worse(self, context):
        table = fig11(context, level=3)
        for row in table.rows:
            _, bu, td, buwr, tdwr, sbh = row
            assert buwr <= bu
            assert tdwr <= td

    def test_fig13_percentages(self, context):
        table = fig13(context, levels=(3,))
        for row in table.rows:
            assert 0.0 <= row[1] <= 100.0

    def test_ablation_pa_shape(self, context):
        table = ablation_pa(context, level=3, values=(0.3, 0.7))
        assert len(table.headers) == 3

    def test_ablation_free_copies(self, context):
        table = ablation_free_copies(context, level=3)
        for _, with_free, without_free in table.rows:
            assert without_free <= with_free

    def test_fig12_times_follow_counts(self, context):
        from repro.bench.experiments import fig12

        counts = fig11(context, level=3)
        times = fig12(context, level=3)
        for header in ("BU", "TDWR"):
            for count, seconds in zip(counts.column(header), times.column(header)):
                assert (count == 0) == (seconds == 0)

    def test_fig14_small(self, context):
        from repro.bench.experiments import fig14

        table = fig14(context, level=3)
        assert len(table.rows) == 10
        for row in table.rows:
            assert row[4] >= 0  # ours #sql

    def test_table4_level3_all_zero_for_q3(self, context):
        from repro.bench.experiments import table4

        table = table4(context, qid="Q3", levels=(3,))
        assert table.rows[0][1:] == [0, 0, 0, 0, 0]

    def test_table3_small(self, context):
        from repro.bench.experiments import table3

        table = table3(context, levels=(3,))
        by_qid = {row[0]: row for row in table.rows}
        assert by_qid["Q3"][1] == 0  # three keywords, no L3 MTNs

    def test_run_experiment_by_name(self, context):
        table = run_experiment("fig11", context, level=3)
        assert "Figure 11" in table.title

    def test_run_experiment_scaling(self):
        table = run_experiment("scaling", scales=(1,), level=3)
        assert len(table.rows) == 1

    def test_unknown_experiment(self, context):
        with pytest.raises(ValueError):
            run_experiment("fig99", context)
