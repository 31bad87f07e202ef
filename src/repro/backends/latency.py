"""A fixed per-probe wall-clock cost in front of a real engine.

The in-memory engine answers probes in microseconds, so concurrent
sessions cannot show up in wall time against it -- a real DBMS charges
milliseconds per round-trip.  :class:`SimulatedLatencyBackend`
reintroduces that cost deterministically: every probe sleeps a fixed
floor, then delegates to the wrapped backend.  Sleeping releases the
GIL, so N concurrent sessions overlap N sleeps -- the same concurrency
profile as N in-flight network queries -- while answers, counts, and
classifications stay exactly those of the wrapped backend.
``repro bench serve`` and the session-manager tests wrap the memory
engine in it.
"""

from __future__ import annotations

import time

from repro.relational.evaluator import AlivenessBackend
from repro.relational.jointree import BoundQuery

#: Default per-probe latency floor, seconds.  Chosen so a full DBLife
#: bench workload stays CI-friendly while still dwarfing the in-memory
#: engine's own evaluation time.
DEFAULT_LATENCY = 0.002


class SimulatedLatencyBackend:
    """Delegating aliveness backend that charges wall time per probe."""

    def __init__(self, inner: AlivenessBackend, latency: float = DEFAULT_LATENCY):
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.inner = inner
        self.latency = latency

    def is_alive(self, query: BoundQuery) -> bool:
        if self.latency > 0:
            time.sleep(self.latency)
        return self.inner.is_alive(query)
