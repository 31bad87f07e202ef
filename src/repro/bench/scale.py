"""``repro bench scale``: the million-tuple sweep over index backends.

Generates synthetic DBLife snapshots at a ladder of tuple targets
(10^4 -> 10^6 by default), runs the same debugging workload through each
registered index backend, and records three things per ``(target,
backend)`` cell:

* **index build** -- wall seconds plus the Python-heap allocation
  high-water of building the inverted index (phase-scoped via
  :class:`repro.obs.MemoryTracker`);
* **probe phase** -- wall seconds, executed probe count, and the same
  allocation high-water for running the workload end to end
  (keyword mapping, tuple sets, traversal, MPANs);
* **classification signature** -- a sha256 over the canonical
  answers/non-answers/MPANs of every workload query, proving the
  backends agree byte-for-byte before any number is compared.

Three gates ride on the payload; ``repro bench scale`` exits 1 when
one fails (``--json`` writes it):

* ``signatures_match`` -- every backend classifies identically at every
  target (the sqlite index is an *index*, not an approximation);
* ``memory_ceiling`` -- the sqlite backend's combined (build + probe)
  high-water at the largest target stays within
  :data:`MEMORY_CEILING_FACTOR` x its smallest-target high-water: the
  out-of-core promise.  The dict-backed ``memory`` index has no such
  bound -- its postings scale with the data and the gate ignores it;
* ``throughput_parity`` -- at the smallest target the sqlite backend
  sustains at least :data:`THROUGHPUT_PARITY_FLOOR` of the memory
  backend's probe throughput (disk must cost, not cripple).

Join-column hash indexes are pre-warmed once per snapshot *before* any
tracked phase, so dataset residency is excluded from every high-water
number and both backends measure the same per-probe work.
"""

from __future__ import annotations

import hashlib
import time

from repro.bench.tables import TextTable
from repro.core.debugger import DebugReport, NonAnswerDebugger
from repro.datasets.dblife import DBLifeConfig, dblife_database, scale_for_tuples
from repro.index import INDEX_NAMES, create_index
from repro.obs import MemoryTracker
from repro.relational.database import Database

#: The sweep ladder: two orders of magnitude up from the small snapshot.
DEFAULT_TUPLE_TARGETS: tuple[int, ...] = (10_000, 100_000, 1_000_000)

#: Index backends compared by the sweep: both of them.
DEFAULT_BACKENDS: tuple[str, ...] = INDEX_NAMES

#: Workload slice: one alive-low, one dead-low, one person+conference
#: query (Q1/Q4/Q5 of Table 2) -- enough to exercise both classification
#: outcomes without making the 10^6 rung take minutes.
DEFAULT_QUERIES: tuple[str, ...] = ("Widom Trio", "DeRose VLDB", "Gray SIGMOD")

DEFAULT_MAX_JOINS = 2

#: The sqlite backend's combined high-water at the largest target must
#: stay within this factor of its smallest-target high-water.
MEMORY_CEILING_FACTOR = 2.0

#: Minimum sqlite/memory probe-throughput ratio at the smallest target.
THROUGHPUT_PARITY_FLOOR = 0.05


def _prewarm_join_indexes(database: Database) -> None:
    """Build every FK-column hash index before any tracked phase."""
    for foreign_key in database.schema.foreign_keys.values():
        database.table(foreign_key.child).index_on(foreign_key.child_column)
        database.table(foreign_key.parent).index_on(foreign_key.parent_column)


def _report_signature(report: DebugReport) -> str:
    """Canonical digest of one query's answers, non-answers, and MPANs."""
    digest = hashlib.sha256()
    digest.update(report.query.encode())
    for query in sorted(answer.describe_full() for answer in report.answers()):
        digest.update(b"A" + query.encode())
    for non_answer, mpans in sorted(
        (non_answer.describe_full(), sorted(m.describe_full() for m in mpans))
        for non_answer, mpans in report.explanations()
    ):
        digest.update(b"N" + non_answer.encode())
        for mpan in mpans:
            digest.update(b"M" + mpan.encode())
    return digest.hexdigest()


def _run_cell(
    database: Database,
    backend_name: str,
    queries: tuple[str, ...],
    max_joins: int,
) -> dict:
    """Build the index and run the workload for one (target, backend)."""
    build_tracker = MemoryTracker()
    with build_tracker:
        index = create_index(backend_name, database)
    assert build_tracker.sample is not None
    signatures = []
    probes = 0
    probe_tracker = MemoryTracker()
    try:
        debugger = NonAnswerDebugger(
            database,
            max_joins=max_joins,
            use_lattice=False,
            strategy="sbh",
            index_backend=backend_name,
            index=index,
        )
        try:
            with probe_tracker:
                for text in queries:
                    report = debugger.debug(text)
                    signatures.append(_report_signature(report))
                    if report.traversal is not None:
                        probes += report.traversal.stats.queries_executed
        finally:
            debugger.close()
    finally:
        index.close()
    assert probe_tracker.sample is not None
    build = build_tracker.sample
    probe = probe_tracker.sample
    return {
        "build_s": build.seconds,
        "build_high_water_bytes": build.high_water_bytes,
        "probe_s": probe.seconds,
        "probe_high_water_bytes": probe.high_water_bytes,
        "high_water_bytes": max(build.high_water_bytes, probe.high_water_bytes),
        "rss_peak_bytes": probe.rss_peak_bytes,
        "probes": probes,
        "probes_per_s": probes / probe.seconds if probe.seconds else 0.0,
        "signature": hashlib.sha256(
            "\n".join(signatures).encode()
        ).hexdigest(),
    }


def run_scale_bench(
    targets: tuple[int, ...] = DEFAULT_TUPLE_TARGETS,
    seed: int = 42,
    backends: tuple[str, ...] = DEFAULT_BACKENDS,
    queries: tuple[str, ...] = DEFAULT_QUERIES,
    max_joins: int = DEFAULT_MAX_JOINS,
) -> tuple[TextTable, dict]:
    """The sweep; returns the rendered table and the gated JSON payload."""
    table = TextTable(
        f"Index-backend scale sweep (level {max_joins + 1}, "
        f"{len(queries)} queries)",
        [
            "tuples",
            "backend",
            "build s",
            "build MiB",
            "probe s",
            "probes",
            "probe MiB",
            "probes/s",
            "identical",
        ],
    )
    payload: dict = {
        "targets": list(targets),
        "seed": seed,
        "backends": list(backends),
        "queries": list(queries),
        "max_joins": max_joins,
        "scales": {},
    }
    signatures_match = True
    for target in sorted(targets):
        scale = scale_for_tuples(target, seed)
        database = dblife_database(DBLifeConfig(seed=seed, scale=scale))
        _prewarm_join_indexes(database)
        tuples = len(database)
        cells = {
            name: _run_cell(database, name, queries, max_joins)
            for name in backends
        }
        reference = next(iter(cells.values()))["signature"]
        identical = all(cell["signature"] == reference for cell in cells.values())
        signatures_match = signatures_match and identical
        for name, cell in cells.items():
            table.add_row(
                tuples,
                name,
                cell["build_s"],
                cell["build_high_water_bytes"] / 2**20,
                cell["probe_s"],
                cell["probes"],
                cell["probe_high_water_bytes"] / 2**20,
                cell["probes_per_s"],
                "yes" if identical else "NO",
            )
        payload["scales"][str(target)] = {
            "scale": scale,
            "tuples": tuples,
            "signatures_match": identical,
            "backends": cells,
        }
    ordered = [str(target) for target in sorted(targets)]
    smallest, largest = ordered[0], ordered[-1]

    def _cell(target_key: str, backend: str) -> dict:
        return payload["scales"][target_key]["backends"][backend]

    memory_ceiling = True
    memory_ratio = 1.0
    if "sqlite" in backends and len(ordered) > 1:
        floor_bytes = max(1, _cell(smallest, "sqlite")["high_water_bytes"])
        memory_ratio = _cell(largest, "sqlite")["high_water_bytes"] / floor_bytes
        memory_ceiling = memory_ratio <= MEMORY_CEILING_FACTOR
    throughput_parity = True
    throughput_ratio = 1.0
    if "sqlite" in backends and "memory" in backends:
        memory_rate = _cell(smallest, "memory")["probes_per_s"]
        sqlite_rate = _cell(smallest, "sqlite")["probes_per_s"]
        if memory_rate > 0:
            throughput_ratio = sqlite_rate / memory_rate
            throughput_parity = throughput_ratio >= THROUGHPUT_PARITY_FLOOR
    payload["gates"] = {
        "signatures_match": signatures_match,
        "memory_ceiling": memory_ceiling,
        "memory_ceiling_ratio": memory_ratio,
        "memory_ceiling_factor": MEMORY_CEILING_FACTOR,
        "throughput_parity": throughput_parity,
        "throughput_parity_ratio": throughput_ratio,
        "throughput_parity_floor": THROUGHPUT_PARITY_FLOOR,
    }
    payload["passed"] = signatures_match and memory_ceiling and throughput_parity
    table.add_note(
        f"sqlite high-water {largest}-vs-{smallest} ratio "
        f"{memory_ratio:.2f} (gate <= {MEMORY_CEILING_FACTOR})"
    )
    table.add_note(
        f"sqlite/memory throughput at {smallest} tuples "
        f"{throughput_ratio:.3f} (gate >= {THROUGHPUT_PARITY_FLOOR})"
    )
    return table, payload
