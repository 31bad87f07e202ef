"""Cold-vs-warm benchmark for the persistent two-tier probe cache.

Runs the reuse strategies over the DBLife workload twice against a
:class:`~repro.backends.latency.SimulatedLatencyBackend` sharing one
:class:`~repro.cache.ProbeCache` per strategy:

* **cold** -- empty cache file; every first-seen probe pays the backend
  round-trip and is written through to the L2 store;
* **warm** -- a *fresh evaluator* (empty L1) against the now-populated
  store, the exact situation a second debugging session over an
  unchanged database is in.

Two invariants are checked before any timing is reported and carried
into CI via ``BENCH_cache.json``:

* cold and warm classification signatures are byte-identical, and
* warm runs execute **zero** backend queries (everything the traversal
  asks was written through in the cold pass), so the executed-query
  speedup is unbounded -- the CI gate asserts >= 5x.

Each strategy gets its own cache subdirectory so one strategy's cold
pass cannot pre-warm another's.  ``repro bench cache`` renders the
table; ``--json`` dumps the payload.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.bench.context import BenchContext
from repro.bench.tables import TextTable
from repro.cache import ProbeCache
from repro.core.traversal import TraversalResult, get_strategy
from repro.backends.latency import SimulatedLatencyBackend
from repro.relational.evaluator import InstrumentedEvaluator

DEFAULT_BENCH_LEVEL = 4
#: Per-probe sleep of the latency backend: large enough that the warm
#: pass's wall-clock win is visible over fixed Phase-3 bookkeeping.
DEFAULT_BENCH_LATENCY = 0.002
#: CI gate on executed-query speedup (cold / max(1, warm)).  Warm runs
#: execute 0 queries, so any cold run with >= 5 probes clears this.
SPEEDUP_GATE = 5.0
#: Only reuse strategies participate: the persistent tier is (by design)
#: inert under ``use_cache=False``, so BU/TD would measure nothing.
DEFAULT_STRATEGIES = ("buwr", "tdwr", "sbh")


def _timed_pass(
    context: BenchContext,
    level: int,
    strategy_name: str,
    latency: float,
    probe_cache: ProbeCache,
) -> tuple[float, int, int, list[TraversalResult]]:
    """One full-workload pass with fresh evaluators sharing ``probe_cache``.

    Returns ``(wall seconds, executed queries, L2 hits, results)``.
    """
    strategy = get_strategy(strategy_name)
    debugger = context.debugger(level)
    backend = SimulatedLatencyBackend(debugger.backend, latency=latency)
    wall = 0.0
    executed = 0
    l2_hits = 0
    results = []
    for query in context.workload:
        prepared = context.prepare(level, query)
        evaluator = InstrumentedEvaluator(
            backend,
            cost_model=context.cost_model,
            use_cache=True,
            tracer=context.tracer,
            probe_cache=probe_cache,
        )
        started = time.perf_counter()
        result = strategy.run(prepared.graph, evaluator, context.database)
        wall += time.perf_counter() - started
        executed += result.stats.queries_executed
        l2_hits += result.stats.l2_hits
        results.append(result)
    return wall, executed, l2_hits, results


def run_cache_bench(
    context: BenchContext | None = None,
    level: int = DEFAULT_BENCH_LEVEL,
    cache_dir: str | Path | None = None,
    latency: float = DEFAULT_BENCH_LATENCY,
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES,
) -> tuple[TextTable, dict]:
    """Cold vs warm probing through a persistent cache, per strategy.

    Returns the rendered table and a JSON-able payload with per-strategy
    cold/warm walls, executed-query counts, the signature comparison, and
    the overall executed-query speedup CI gates on.
    """
    context = context or BenchContext()
    root = Path(cache_dir) if cache_dir is not None else Path(tempfile.mkdtemp())
    fingerprint = context.database.fingerprint()
    table = TextTable(
        f"Persistent probe cache: cold vs warm (level {level}, "
        f"{latency * 1000:.1f}ms/probe)",
        ["strategy", "cold s", "warm s", "cold qrys", "warm qrys", "identical"],
    )
    payload: dict = {
        "level": level,
        "latency_s": latency,
        "cache_dir": str(root),
        "fingerprint": fingerprint,
        "strategies": {},
    }
    cold_wall_total = 0.0
    warm_wall_total = 0.0
    cold_queries_total = 0
    warm_queries_total = 0
    all_identical = True
    for name in strategies:
        with ProbeCache.open_dir(root / name, context.database) as cache:
            cache.clear()  # a reused --cache-dir must still start cold
            cold_wall, cold_queries, _, cold_results = _timed_pass(
                context, level, name, latency, cache
            )
            warm_wall, warm_queries, warm_l2, warm_results = _timed_pass(
                context, level, name, latency, cache
            )
            entries = len(cache)
        identical = all(
            one.classification_signature() == two.classification_signature()
            for one, two in zip(cold_results, warm_results)
        )
        cold_wall_total += cold_wall
        warm_wall_total += warm_wall
        cold_queries_total += cold_queries
        warm_queries_total += warm_queries
        all_identical = all_identical and identical
        table.add_row(
            name,
            cold_wall,
            warm_wall,
            cold_queries,
            warm_queries,
            "yes" if identical else "NO",
        )
        payload["strategies"][name] = {
            "cold_wall_s": cold_wall,
            "warm_wall_s": warm_wall,
            "cold_queries": cold_queries,
            "warm_queries": warm_queries,
            "warm_l2_hits": warm_l2,
            "cache_entries": entries,
            "signatures_match": identical,
        }
    query_speedup = cold_queries_total / max(1, warm_queries_total)
    wall_speedup = cold_wall_total / warm_wall_total if warm_wall_total else 0.0
    payload.update(
        cold_wall_s=cold_wall_total,
        warm_wall_s=warm_wall_total,
        wall_speedup=wall_speedup,
        cold_queries_total=cold_queries_total,
        warm_queries_total=warm_queries_total,
        query_speedup=query_speedup,
        speedup_gate=SPEEDUP_GATE,
        signatures_match=all_identical,
        passed=all_identical and query_speedup >= SPEEDUP_GATE,
    )
    table.add_note(
        f"executed-query speedup {query_speedup:.1f}x "
        f"({cold_queries_total} cold -> {warm_queries_total} warm), "
        f"wall speedup {wall_speedup:.2f}x"
    )
    table.add_note(
        "warm passes use fresh evaluators (empty L1): every answer comes "
        "from the persistent store, exactly like a second session"
    )
    if not all_identical:
        table.add_note("cold/warm classifications DIVERGED (bug!)")
    return table, payload
