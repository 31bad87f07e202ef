"""The benchmark's own tests, at tiny sizes.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from perfbench import bench
from perfbench.oracle import Oracle, report_outputs
from perfbench.tracing import SELF_TIME_METRICS
from perfbench.workloads import (
    WORKLOADS,
    NonceRows,
    Stratifier,
    query_stream,
    repeat_share,
    writes,
    zipf_sessions,
)

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: ``plan-lattice`` with a 3-level lattice: same code paths, seconds
#: instead of tens of seconds.
TINY = dataclasses.replace(WORKLOADS["plan-lattice"], name="tiny-lattice", level=3)
TINY_QUERIES = 14
COUNTS = (
    "lattice.nodes",
    "index.interpretations",
    "binding.retained_trees",
    "mtn.nodes",
    "mtn.mtns",
    "traversal.inferred_ratio",
    "evaluator.l1_hit_ratio",
    "backends.probes",
    "backends.alive_ratio",
    "backends.pool_waits",
    "cache.l2_puts",
    "cache.phase3_skip_ratio",
    "service.requests_per_session",
    "workload.repeat_share",
)


@pytest.fixture(scope="module")
def tiny_runs():
    """Untraced run, then two traced runs with one seed."""
    WORKLOADS[TINY.name] = TINY
    try:
        return [
            bench.run(TINY.name, seed=3, seconds=1, trace=trace, count=TINY_QUERIES)
            for trace in (False, True, True)
        ]
    finally:
        del WORKLOADS[TINY.name]


def test_every_metric_is_reported_by_name_with_its_unit(tiny_runs):
    untraced, traced, _ = tiny_runs
    for result, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= TINY_QUERIES
        expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
        assert {name: value["unit"] for name, value in result["metrics"].items()} == expected
        assert all(isinstance(value["value"], (int, float)) for value in result["metrics"].values())
    assert set(SPEC["end_to_end"][0]) == {"name", "unit", "better", "bound"}
    assert [workload["name"] for workload in SPEC["workloads"]] == list(
        name for name in WORKLOADS if name != TINY.name
    )


def test_same_seed_gives_identical_counts(tiny_runs):
    _, first, second = tiny_runs
    assert first["attempted"] == second["attempted"]
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_traced_run_partitions_latency_and_keeps_service_layers_idle(tiny_runs):
    metrics = {name: value["value"] for name, value in tiny_runs[1]["metrics"].items()}
    parts = [metrics[name] for name in SELF_TIME_METRICS]
    parts += [metrics["service.transport_ms"], metrics["unattributed_ms"]]
    assert sum(parts) == pytest.approx(metrics["obs.traced_latency_ms"], rel=1e-6)
    for name, value in metrics.items():
        if name.startswith(("cache.", "service.")):
            assert value == 0, name
    assert metrics["binding.prune_ms"] + metrics["mtn.graph_ms"] > 0.5 * metrics["obs.traced_latency_ms"]


def test_output_check_rejects_a_corrupted_mpan_list():
    oracle = Oracle(scale=1, level=3)
    try:
        query = "DeRose VLDB"
        held = report_outputs(oracle.debugger.debug(query))
        assert oracle.mismatches([(query, held)]) == 0
        answers, non_answers = held
        position = next(n for n, (_, mpans) in enumerate(non_answers) if mpans)
        victim, mpans = non_answers[position]
        corrupted = list(non_answers)
        corrupted[position] = (victim, mpans[1:])
        assert oracle.mismatches([(query, (answers, tuple(corrupted)))]) == 1
    finally:
        oracle.close()


def test_generators_are_seeded_and_shaped():
    oracle = Oracle(scale=1, level=3)
    try:
        index = oracle.debugger.index
        stream = query_stream(index, seed=5, count=60)
        assert stream == query_stream(index, seed=5, count=60)
        other = query_stream(index, seed=6, count=60)
        assert stream != other
        # the seed picks keywords, not the pattern at each position
        stratifier = Stratifier(index)
        assert [stratifier.signature(query) for query in stream] == [
            stratifier.signature(query) for query in other
        ]
        assert repeat_share(stream) == 0.0
        sessions = zipf_sessions(stream[:20], 120)
        assert len(sessions) == 120 and repeat_share(sessions) == pytest.approx(1 - 20 / 120)
        ranks = {query: rank for rank, query in enumerate(stream[:20])}
        assert [ranks[query] for query in sessions] == [
            {query: rank for rank, query in enumerate(other[:20])}[query]
            for query in zipf_sessions(other[:20], 120)
        ]
    finally:
        oracle.close()
    rows = NonceRows(base_rows=10)
    mutations = [rows.mutation(write) for write in writes(seed=5, count=8)]
    # insert a, insert b, delete a (position 10), delete b (shifted back to 10)
    assert [mutation.get("deletes") for mutation in mutations[:4]] == [None, None, [10], [10]]


def test_quantile_is_harrell_davis():
    assert bench.quantile([3.0, 1.0, 2.0, 5.0, 4.0], 0.5) == pytest.approx(3.0)
    # two cost clusters with the quantile at the edge of the upper one
    values = [10.0] * 94 + [100.0] * 6
    nearest = sorted(values)[95]
    assert nearest == 100.0 and 10.0 < bench.quantile(values, 0.95) < nearest
