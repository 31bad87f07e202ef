"""Instrumented evaluation facade used by every traversal strategy.

All of the paper's run-time metrics are defined here:

* **number of SQL queries executed** (Figures 11, Table 4) -- each call that
  reaches the backend counts as one; cache hits (the *reuse* in BUWR/TDWR) do
  not re-execute and are counted separately;
* **response time** (Figures 12, 14, 15) -- both measured wall time and a
  deterministic *simulated* time from a pluggable cost model, so figure
  shapes are reproducible across machines.

One traversal probes serially through one evaluator.  The aliveness
cache (a bounded LRU) and the stats counters are still guarded by one
internal lock, so they stay consistent when another thread reads them
or shares the evaluator.

Caching is **two-tier**: the in-process LRU above is the L1 and an
optional persistent :class:`~repro.backends.base.ProbeStore` (see
:mod:`repro.cache`) is the L2, consulted only on an L1 miss and written
through on every executed probe.  L2 hits are promoted into L1, cost no
backend query and no budget, and are counted separately
(``stats.l2_hits``, ``cache_tier="l2"`` on the trace span), so a warm
session over an unchanged dataset is observably distinguishable from
in-process reuse.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Protocol

# The backend protocol lives in repro.backends.base (the backend layer);
# it is re-exported here because this module is where every existing
# caller imports it from.
from repro.backends.base import AlivenessBackend, ProbeStore
from repro.obs.budget import ProbeBudget, ProbeBudgetExhausted
from repro.obs.trace import ProbeTracer
from repro.relational.jointree import BoundQuery

__all__ = [
    "AlivenessBackend",
    "ProbeStore",
    "QueryCostModel",
    "EvaluationStats",
    "ProbeOutcome",
    "InstrumentedEvaluator",
    "DEFAULT_CACHE_CAPACITY",
]

#: Default LRU capacity of the aliveness cache -- generous (a level-7
#: DBLife exploration graph has a few thousand nodes) but bounded, so a
#: long-lived evaluator serving many sessions cannot grow without limit.
DEFAULT_CACHE_CAPACITY = 65_536


class QueryCostModel(Protocol):
    """Deterministic per-query cost estimate, in simulated seconds."""

    def cost(self, query: BoundQuery) -> float:  # pragma: no cover - protocol
        ...


@dataclass
class EvaluationStats:
    """Counters accumulated by an :class:`InstrumentedEvaluator`."""

    queries_executed: int = 0
    cache_hits: int = 0
    wall_time: float = 0.0
    simulated_time: float = 0.0
    executed_by_level: dict[int, int] = field(default_factory=dict)
    cache_misses: int = 0
    cache_evictions: int = 0
    #: Tier breakdown of ``cache_hits`` (``cache_hits == l1_hits + l2_hits``):
    #: L1 is the in-process LRU, L2 the persistent cross-session store.
    l1_hits: int = 0
    l2_hits: int = 0

    def snapshot(self) -> "EvaluationStats":
        return EvaluationStats(
            queries_executed=self.queries_executed,
            cache_hits=self.cache_hits,
            wall_time=self.wall_time,
            simulated_time=self.simulated_time,
            executed_by_level=dict(self.executed_by_level),
            cache_misses=self.cache_misses,
            cache_evictions=self.cache_evictions,
            l1_hits=self.l1_hits,
            l2_hits=self.l2_hits,
        )

    def diff(self, earlier: "EvaluationStats") -> "EvaluationStats":
        """Counters accumulated since ``earlier`` was snapshotted.

        Levels present only in ``earlier`` (possible after ``reset_stats``)
        yield negative deltas rather than silently disappearing.
        """
        levels = set(self.executed_by_level) | set(earlier.executed_by_level)
        by_level = {
            level: self.executed_by_level.get(level, 0)
            - earlier.executed_by_level.get(level, 0)
            for level in levels
        }
        return EvaluationStats(
            queries_executed=self.queries_executed - earlier.queries_executed,
            cache_hits=self.cache_hits - earlier.cache_hits,
            wall_time=self.wall_time - earlier.wall_time,
            simulated_time=self.simulated_time - earlier.simulated_time,
            executed_by_level={
                level: count for level, count in by_level.items() if count
            },
            cache_misses=self.cache_misses - earlier.cache_misses,
            cache_evictions=self.cache_evictions - earlier.cache_evictions,
            l1_hits=self.l1_hits - earlier.l1_hits,
            l2_hits=self.l2_hits - earlier.l2_hits,
        )

    def __str__(self) -> str:
        cache = f"{self.cache_hits} cache hits / {self.cache_misses} misses"
        if self.l2_hits:
            cache = (
                f"{self.cache_hits} cache hits (L1 {self.l1_hits}, "
                f"L2 {self.l2_hits}) / {self.cache_misses} misses"
            )
        if self.cache_evictions:
            cache += f", {self.cache_evictions} evicted"
        return (
            f"{self.queries_executed} queries "
            f"({cache}), "
            f"{self.wall_time * 1000:.1f} ms wall, "
            f"{self.simulated_time:.3f} s simulated"
        )


@dataclass(frozen=True)
class ProbeOutcome:
    """The measured result of one backend execution (charge already paid)."""

    alive: bool
    wall_seconds: float
    simulated_seconds: float


class InstrumentedEvaluator:
    """Counts, times, and optionally caches aliveness probes.

    ``use_cache=True`` is what the paper calls *reuse*: a query already
    evaluated (by any MTN's traversal, in any interpretation) is answered
    from the cache without touching the backend.  Non-reuse strategies (BU,
    TD) construct their evaluator with ``use_cache=False`` so that shared
    sub-queries are re-executed per MTN, exactly as the paper measures them.
    The cache is a bounded LRU (``cache_capacity`` entries, ``None`` =
    unbounded); hits, misses, and evictions are all counted in ``stats``.

    A ``budget`` caps the work spent here: cache hits are always free,
    but each backend execution must be admitted first and is charged
    afterwards, so a :class:`~repro.obs.budget.ProbeBudgetExhausted` from
    :meth:`is_alive` guarantees the backend was *not* touched.  A
    ``tracer`` records one span per probe (executed or cache-answered).

    ``probe_cache`` attaches a persistent L2 tier (any
    :class:`~repro.backends.base.ProbeStore`, normally a
    :class:`repro.cache.ProbeCache`): consulted after an L1 miss, written
    through on every executed probe, ignored entirely when
    ``use_cache=False`` (the paper's non-reuse strategies re-execute by
    definition, and a persistent tier would change their counted costs).
    """

    def __init__(
        self,
        backend: AlivenessBackend,
        cost_model: QueryCostModel | None = None,
        use_cache: bool = True,
        budget: ProbeBudget | None = None,
        tracer: ProbeTracer | None = None,
        cache_capacity: int | None = DEFAULT_CACHE_CAPACITY,
        probe_cache: ProbeStore | None = None,
    ):
        if cache_capacity is not None and cache_capacity <= 0:
            raise ValueError("cache_capacity must be positive (or None)")
        self.backend = backend
        self.cost_model = cost_model
        self.use_cache = use_cache
        self.budget = budget
        self.tracer = tracer
        self.cache_capacity = cache_capacity
        self.probe_cache = probe_cache
        self.stats = EvaluationStats()
        self._cache: OrderedDict[BoundQuery, bool] = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()

    def _trace(
        self,
        query: BoundQuery,
        alive: bool,
        cache_hit: bool,
        wall: float,
        simulated: float,
        cache_tier: str | None = None,
    ) -> None:
        assert self.tracer is not None
        self.tracer.record_probe(
            level=query.tree.size,
            keywords=query.keywords,
            backend=type(self.backend).__name__,
            alive=alive,
            cache_hit=cache_hit,
            wall_seconds=wall,
            simulated_seconds=simulated,
            budget_remaining=(
                self.budget.remaining_queries() if self.budget is not None else None
            ),
            cache_tier=cache_tier,
        )

    def _cache_insert_locked(self, query: BoundQuery, alive: bool) -> None:
        """Insert into the L1 LRU (caller holds the lock), evicting at cap."""
        self._cache[query] = alive
        self._cache.move_to_end(query)
        if (
            self.cache_capacity is not None
            and len(self._cache) > self.cache_capacity
        ):
            self._cache.popitem(last=False)
            self.stats.cache_evictions += 1

    # --------------------------------------------------- probe lifecycle
    def lookup_cached(self, query: BoundQuery) -> bool | None:
        """Serve ``query`` from L1 then L2, counting a tiered hit + span.

        Returns ``None`` on a miss in both tiers (or when caching is
        off); the miss is *not* counted here -- :meth:`is_alive` counts
        it once the probe executed, so refused probes never inflate the
        miss counter.  L2 hits are promoted into L1 so repeated probes stay
        in-process.
        """
        if not self.use_cache:
            return None
        with self._lock:
            cached = self._cache.get(query)
            if cached is not None:
                self._cache.move_to_end(query)
                self.stats.cache_hits += 1
                self.stats.l1_hits += 1
        if cached is not None:
            if self.tracer is not None:
                self._trace(
                    query,
                    cached,
                    cache_hit=True,
                    wall=0.0,
                    simulated=0.0,
                    cache_tier="l1",
                )
            return cached
        if self.probe_cache is None:
            return None
        # L2 lookup outside the evaluator lock: the store has its own
        # lock and may touch disk.
        persisted = self.probe_cache.get(query)
        if persisted is None:
            return None
        with self._lock:
            self.stats.cache_hits += 1
            self.stats.l2_hits += 1
            self._cache_insert_locked(query, persisted)
        if self.tracer is not None:
            self._trace(
                query,
                persisted,
                cache_hit=True,
                wall=0.0,
                simulated=0.0,
                cache_tier="l2",
            )
        return persisted

    def execute_probe(self, query: BoundQuery) -> ProbeOutcome:
        """Run one admitted probe against the backend and charge the budget.

        Side-effect-free on the evaluator itself: :meth:`is_alive` folds
        the outcome into stats, caches, and trace.  A backend error
        propagates before any charge.
        """
        started = time.perf_counter()
        alive = self.backend.is_alive(query)
        wall = time.perf_counter() - started
        simulated = 0.0
        if self.cost_model is not None:
            simulated = self.cost_model.cost(query)
        if self.budget is not None:
            self.budget.charge(wall_seconds=wall, simulated_seconds=simulated)
        return ProbeOutcome(
            alive=alive, wall_seconds=wall, simulated_seconds=simulated
        )

    # ----------------------------------------------------------- probing
    def is_alive(self, query: BoundQuery) -> bool:
        """Answer an aliveness probe, counting one executed query on a miss.

        Raises :class:`~repro.obs.budget.ProbeBudgetExhausted` *before*
        touching the backend when the budget is spent; cached answers are
        served regardless (they cost nothing).  An executed probe is
        folded into stats, both cache tiers (L1 + L2 write-through), and
        the trace.
        """
        cached = self.lookup_cached(query)
        if cached is not None:
            return cached
        if self.budget is not None:
            try:
                self.budget.admit()
            except ProbeBudgetExhausted:
                if self.tracer is not None:
                    self.tracer.record_event(
                        "budget_exhausted", budget=self.budget.describe()
                    )
                raise
        outcome = self.execute_probe(query)
        level = query.tree.size
        with self._lock:
            self.stats.queries_executed += 1
            if self.use_cache:
                self.stats.cache_misses += 1
            self.stats.wall_time += outcome.wall_seconds
            self.stats.simulated_time += outcome.simulated_seconds
            self.stats.executed_by_level[level] = (
                self.stats.executed_by_level.get(level, 0) + 1
            )
            if self.use_cache:
                self._cache_insert_locked(query, outcome.alive)
        if self.use_cache and self.probe_cache is not None:
            # Write-through outside the evaluator lock (the store locks
            # itself): every executed probe lands in the persistent tier,
            # so a second session over the same dataset starts fully warm.
            self.probe_cache.put(query, outcome.alive)
        if self.tracer is not None:
            self._trace(
                query,
                outcome.alive,
                cache_hit=False,
                wall=outcome.wall_seconds,
                simulated=outcome.simulated_seconds,
                cache_tier="backend",
            )
        return outcome.alive

    # --------------------------------------------------------- housekeeping
    def reset_cache(self) -> None:
        with self._lock:
            self._cache.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self.stats = EvaluationStats()

    @property
    def cache_size(self) -> int:
        with self._lock:
            return len(self._cache)
