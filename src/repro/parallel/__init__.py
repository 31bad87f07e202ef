"""Parallel probe execution: batched frontier evaluation over a worker pool.

The paper's cost model counts DBMS round-trips, and every traversal
strategy's frontier contains probes whose R1/R2 implication cones are
disjoint (same lattice level), so those round-trips can overlap in time
without changing a single classification.  This package provides:

* :class:`ParallelProbeExecutor` -- a ``ThreadPoolExecutor``-backed batch
  evaluator that admits probes against the shared
  :class:`~repro.obs.budget.ProbeBudget` in deterministic submission
  order (a budget of ``max_queries=K`` never executes more than K probes
  across all workers) and applies results at a barrier, so parallel runs
  are byte-identical to serial ones in executed-query count and
  classification signature;
* :class:`SimulatedLatencyBackend` -- a wall-clock analogue of the
  deterministic cost model (it sleeps per probe), so the speedup is
  measurable without a real networked DBMS.

Threads overlap backend *latency* (sleeps, socket waits, native code that
releases the GIL); they do not parallelize probe evaluation that runs in
Python.  See DESIGN.md ("Concurrency model") for why frontier
independence makes this safe and README.md ("Parallel probing") for
usage.
"""

from repro.parallel.executor import ParallelProbeExecutor
from repro.parallel.latency import SimulatedLatencyBackend

__all__ = [
    "ParallelProbeExecutor",
    "SimulatedLatencyBackend",
]
