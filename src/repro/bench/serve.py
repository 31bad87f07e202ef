"""Concurrent-session throughput benchmark for the debugging service.

Drives the Table-2 workload through a :class:`~repro.service.manager.
SessionManager` twice against a :class:`~repro.backends.latency.
SimulatedLatencyBackend` (real per-probe sleeps standing in for DBMS
round-trips):

* **serialized** -- one worker, one closed-loop client: every session
  finishes before the next is submitted, the baseline a single-tenant
  deployment pays;
* **concurrent** -- four workers and four closed-loop clients, each
  replaying the full workload, so four sessions are in flight at every
  moment sharing the one backend.

Aggregate QPS is sessions finished per wall second.  Two gates are
checked before any timing is trusted; ``repro bench serve`` exits 1
when either fails (``--json`` writes the payload):

* every concurrent lane's per-query outcomes (state, classification
  signature, executed-query count) are byte-identical to the serialized
  lane's -- multi-tenancy must not change a single classification;
* concurrent aggregate QPS >= 3x serialized (ceiling 4x: probe sleeps
  overlap across sessions, only the GIL-bound phase-1/2 work and the
  shared tracer serialize).

``repro bench serve`` renders the table; ``--json`` dumps the payload.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.bench.context import BenchContext
from repro.bench.tables import TextTable
from repro.core.debugger import NonAnswerDebugger
from repro.backends.latency import SimulatedLatencyBackend
from repro.relational.database import Database
from repro.service.manager import SessionHandle, SessionManager
from repro.workloads.queries import TABLE2_QUERIES

DEFAULT_BENCH_LEVEL = 4
#: Per-probe sleep: large enough that overlapped round-trips dominate
#: the GIL-serialized phase-1/2 bookkeeping, small enough for CI.
DEFAULT_BENCH_LATENCY = 0.012
#: Concurrent closed-loop clients (= manager workers in that pass).
DEFAULT_CONCURRENT_CLIENTS = 4
#: CI gate on the aggregate-QPS speedup of the concurrent pass.
QPS_GATE = 3.0
#: BU probes every candidate network (no reuse cache, no status cache),
#: so both passes pay the same, maximal backend bill per session.
BENCH_STRATEGY = "bu"


def _client_loop(
    manager: SessionManager, queries: list[str]
) -> list[SessionHandle]:
    """One closed-loop client: submit, wait terminal, next query."""
    handles = []
    for text in queries:
        handle = manager.submit(text, strategy=BENCH_STRATEGY)
        handle.wait()
        handles.append(handle)
    return handles


def _lane_outcomes(handles: list[SessionHandle]) -> list[dict[str, Any]]:
    """Per-query outcome documents with session identity stripped."""
    outcomes = []
    for handle in handles:
        payload = handle.result_payload()
        payload.pop("session_id", None)
        outcomes.append(payload)
    return outcomes


def _service_pass(
    database: Database, level: int, clients: int, latency: float
) -> dict[str, Any]:
    """Run ``clients`` closed-loop replays of the workload concurrently.

    Returns wall seconds, sessions finished, executed-query total, and
    every lane's outcome list (for the byte-identity gate).
    """
    debugger = NonAnswerDebugger(
        database,
        max_joins=level - 1,
        use_lattice=False,
        strategy=BENCH_STRATEGY,
    )
    debugger.backend = SimulatedLatencyBackend(
        debugger.backend, latency=latency
    )
    manager = SessionManager(debugger, workers=clients)
    queries = [query.text for query in TABLE2_QUERIES]
    try:
        started = time.perf_counter()
        if clients == 1:
            lanes = [_client_loop(manager, queries)]
        else:
            with ThreadPoolExecutor(
                max_workers=clients, thread_name_prefix="repro-bench-client"
            ) as pool:
                futures = [
                    pool.submit(_client_loop, manager, queries)
                    for _ in range(clients)
                ]
                lanes = [future.result() for future in futures]
        wall = time.perf_counter() - started
    finally:
        manager.shutdown(drain=True)
    outcomes = [_lane_outcomes(handles) for handles in lanes]
    executed = sum(
        int(outcome.get("queries_executed", 0))
        for lane in outcomes
        for outcome in lane
    )
    sessions = clients * len(queries)
    return {
        "clients": clients,
        "sessions": sessions,
        "wall_s": wall,
        "qps": sessions / wall if wall else 0.0,
        "queries_executed": executed,
        "outcomes": outcomes,
    }


def run_serve_bench(
    context: BenchContext | None = None,
    level: int = DEFAULT_BENCH_LEVEL,
    clients: int = DEFAULT_CONCURRENT_CLIENTS,
    latency: float = DEFAULT_BENCH_LATENCY,
) -> tuple[TextTable, dict]:
    """Serialized vs concurrent session throughput through the service.

    Returns the rendered table and a JSON-able payload with both
    passes' walls/QPS, the byte-identity verdict, and the aggregate-QPS
    speedup the CI gate asserts >= ``QPS_GATE``.
    """
    context = context or BenchContext()
    database = context.database
    serial = _service_pass(database, level, 1, latency)
    concurrent = _service_pass(database, level, clients, latency)

    reference = json.dumps(serial["outcomes"][0], sort_keys=True)
    identical = all(
        json.dumps(lane, sort_keys=True) == reference
        for lane in concurrent["outcomes"]
    )
    speedup = (
        concurrent["qps"] / serial["qps"] if serial["qps"] else 0.0
    )

    table = TextTable(
        f"Service throughput: serialized vs {clients} concurrent sessions "
        f"(level {level}, {latency * 1000:.1f}ms/probe, {BENCH_STRATEGY})",
        ["pass", "clients", "sessions", "wall s", "qps", "executed"],
    )
    for label, row in (("serialized", serial), ("concurrent", concurrent)):
        table.add_row(
            label,
            row["clients"],
            row["sessions"],
            row["wall_s"],
            row["qps"],
            row["queries_executed"],
        )
    table.add_note(
        f"aggregate QPS speedup {speedup:.2f}x (gate >= {QPS_GATE:.1f}x, "
        f"ceiling {clients}x)"
    )
    table.add_note(
        "every concurrent lane replays the full workload closed-loop; "
        "probe sleeps overlap across sessions, classifications must not "
        "change"
    )
    if not identical:
        table.add_note("concurrent outcomes DIVERGED from serialized (bug!)")

    def _summary(row: dict[str, Any]) -> dict[str, Any]:
        return {key: row[key] for key in row if key != "outcomes"}

    payload: dict = {
        "level": level,
        "latency_s": latency,
        "strategy": BENCH_STRATEGY,
        "queries": len(TABLE2_QUERIES),
        "serialized": _summary(serial),
        "concurrent": _summary(concurrent),
        "qps_speedup": speedup,
        "qps_gate": QPS_GATE,
        "signatures_match": identical,
        "passed": identical and speedup >= QPS_GATE,
    }
    return table, payload
