"""One slice of an in-process workload (``plan-lattice``, ``probe-sqlite``).

Usage: ``python3 perfbench/worker.py OUT WORKLOAD SEED COUNT PART PARTS
[SPANS]``, where ``WORKLOAD`` is the workload's fields as JSON.  The worker
builds the debugger (timed), then one closed-loop client calls
:meth:`NonAnswerDebugger.debug` on queries ``PART, PART + PARTS, ...`` of
the seeded ``COUNT``-query stream and takes the answers, non-answers and
MPANs off each report.  After the timed pass (and after reading the peak
RSS) the worker checks those outputs against the oracle
(``perfbench/oracle.py``).  What it measured goes to ``OUT`` as JSON.  With
``SPANS`` the layer wrappers are installed first and the spans are written
there.

A run spreads its queries over several fresh processes because the memory
layout a process happens to get moves this memory-bound pipeline's speed
by 20-30% from one process to the next.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro.core.lattice as lattice_module  # noqa: E402
import repro.datasets.dblife as dblife  # noqa: E402
from repro.core.debugger import NonAnswerDebugger  # noqa: E402
from repro.datasets.dblife import DBLifeConfig  # noqa: E402

from perfbench.oracle import Oracle, Outputs, report_outputs  # noqa: E402
from perfbench.tracing import SpanRecorder, install  # noqa: E402
from perfbench.workloads import Workload, query_stream, repeat_share  # noqa: E402

#: Keyword slots of the lattice: the streams have at most 3 keywords, so 3
#: slots make the lattice lossless for them (as in ``BenchContext``).
MAX_KEYWORDS = 3


@dataclass
class Measured:
    """What one pass over a stream of queries produced."""

    latencies: list[float] = field(default_factory=list)
    window: float = 0.0
    completed: list[tuple[str, Outputs]] = field(default_factory=list)
    failed: int = 0
    #: Blocking connection checkouts during the queries (0 without a pool).
    pool_waits: int = 0


def timed_build(workload: Workload) -> tuple[NonAnswerDebugger, float]:
    """Dataset, index, lattice and backend, ready for the first query."""
    started = time.perf_counter()
    # module attributes, so the traced run's wrappers see these calls
    database = dblife.dblife_database(DBLifeConfig(scale=workload.scale))
    lattice = None
    if workload.use_lattice:
        lattice = lattice_module.generate_lattice(
            database.schema, workload.level - 1, max_keywords=MAX_KEYWORDS
        )
    debugger = NonAnswerDebugger(
        database,
        max_joins=workload.level - 1,
        lattice=lattice,
        use_lattice=workload.use_lattice,
        max_keywords=MAX_KEYWORDS,
        backend=workload.backend,
    )
    return debugger, time.perf_counter() - started


def run_pass(
    debugger: NonAnswerDebugger, stream: list[str], recorder: SpanRecorder | None = None
) -> Measured:
    """Time each query of ``stream``, one after another."""
    measured = Measured()
    window_start = time.perf_counter()
    for number, query in enumerate(stream):
        root = recorder.open("workload.query", f"q{number}") if recorder is not None else None
        started = time.perf_counter()
        try:
            report = debugger.debug(query)
            outputs = report_outputs(report)
        except Exception:  # counted and reported; the run goes on
            traceback.print_exc(file=sys.stderr)
            measured.failed += 1
            continue
        finally:
            if root is not None:
                recorder.close(root)
        measured.latencies.append(time.perf_counter() - started)
        measured.completed.append((query, outputs))
        if root is not None:
            traversal = report.traversal
            recorder.spans[root].attrs["probes"] = (
                traversal.stats.queries_executed if traversal else 0
            )
    measured.window = time.perf_counter() - window_start
    pool_stats = getattr(debugger.backend, "pool_stats", None)
    measured.pool_waits = pool_stats().waits if callable(pool_stats) else 0
    return measured


def peak_rss_mb() -> float:
    """This process's high-water RSS (``VmHWM``), in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def main(argv: list[str]) -> int:
    out, fields, seed, count, part, parts = argv[:6]
    spans_path = argv[6] if len(argv) > 6 else None
    workload = Workload(**json.loads(fields))
    recorder = SpanRecorder() if spans_path else None
    restore = install(recorder) if recorder is not None else None
    try:
        debugger, setup_s = timed_build(workload)
        try:
            stream = query_stream(debugger.index, int(seed), int(count))[int(part) :: int(parts)]
            measured = run_pass(debugger, stream, recorder)
        finally:
            debugger.close()
    finally:
        if restore is not None:
            restore()
    if recorder is not None and spans_path is not None:
        recorder.dump(spans_path)
    result = asdict(measured)
    result.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb(), repeat_share=repeat_share(stream))
    oracle = Oracle(workload.scale, workload.level)
    try:
        result.update(
            completed=len(measured.completed), mismatches=oracle.mismatches(measured.completed)
        )
    finally:
        oracle.close()
    Path(out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
