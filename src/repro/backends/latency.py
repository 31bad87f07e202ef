"""A wall-clock analogue of the simulated cost model.

The in-memory engine answers probes in microseconds, so neither a warm
cache nor concurrent sessions can show up in wall time against it -- a
real DBMS charges milliseconds per round-trip.
:class:`SimulatedLatencyBackend` reintroduces that cost
deterministically: every probe sleeps a fixed floor plus (optionally) a
multiple of the cost model's per-query estimate, then delegates to the
wrapped backend.  Sleeping releases the GIL, so N concurrent sessions
overlap N sleeps -- the same concurrency profile as N in-flight network
queries -- while answers, counts, and classifications stay exactly those
of the wrapped backend.  The ``simulated`` registry backend and the
``cache``/``serve`` benches are built on it.
"""

from __future__ import annotations

import time

from repro.relational.evaluator import AlivenessBackend, QueryCostModel
from repro.relational.jointree import BoundQuery

#: Default per-probe latency floor, seconds.  Chosen so a full DBLife
#: bench workload stays CI-friendly while still dwarfing the in-memory
#: engine's own evaluation time.
DEFAULT_LATENCY = 0.002


class SimulatedLatencyBackend:
    """Delegating aliveness backend that charges wall time per probe."""

    def __init__(
        self,
        inner: AlivenessBackend,
        latency: float = DEFAULT_LATENCY,
        cost_model: QueryCostModel | None = None,
        cost_scale: float = 0.0,
    ):
        if latency < 0:
            raise ValueError("latency must be >= 0")
        if cost_scale < 0:
            raise ValueError("cost_scale must be >= 0")
        if cost_scale and cost_model is None:
            raise ValueError("cost_scale needs a cost_model")
        self.inner = inner
        self.latency = latency
        self.cost_model = cost_model
        self.cost_scale = cost_scale

    def delay_for(self, query: BoundQuery) -> float:
        """Deterministic sleep the probe will pay, in seconds."""
        delay = self.latency
        if self.cost_scale and self.cost_model is not None:
            delay += self.cost_scale * self.cost_model.cost(query)
        return delay

    def is_alive(self, query: BoundQuery) -> bool:
        delay = self.delay_for(query)
        if delay > 0:
            time.sleep(delay)
        return self.inner.is_alive(query)
