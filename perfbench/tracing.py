"""The traced run: spans around each layer's public entry points.

:func:`install` replaces the entry points listed in :func:`targets` with
wrappers that record one :class:`Span` each (name, start, end, parent,
query or session id, and a few counts read off the return value) in a
:class:`SpanRecorder`.  Spans stay in memory and are written out when the
run ends.  :func:`layer_metrics` turns them into the per-layer metrics:
self times (a span's duration minus its children's) summed per layer and
averaged per query, plus counts and ratios.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

#: Layer self-time metrics (ms per query) and the spans whose self time
#: each one sums.  Together with ``service.transport_ms`` and
#: ``unattributed_ms`` they partition every query's traced latency.
SELF_TIME_METRICS: dict[str, tuple[str, ...]] = {
    "index.map_ms": ("index.map",),
    "binding.prune_ms": ("binding.prune",),
    "mtn.graph_ms": ("mtn.graph",),
    "traversal.self_ms": ("traversal.run",),
    "evaluator.self_ms": ("evaluator.lookup", "evaluator.execute"),
    "backends.self_ms": ("backends.probe",),
    "cache.l2_get_ms": ("cache.l2_get",),
    "cache.l2_put_ms": ("cache.l2_put",),
    "cache.status_load_ms": ("cache.status_load",),
    "cache.status_save_ms": ("cache.status_save",),
    "debugger.self_ms": ("debugger.debug",),
}

#: Root spans the benchmark itself records around each query and write.
QUERY_ROOTS = ("workload.query", "workload.session")
WRITE_ROOT = "workload.write"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    qid: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    #: Summed duration of the spans opened directly under this one.
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class SpanRecorder:
    """Thread-safe in-memory span store; parents are per-thread stacks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, qid: str | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if qid is None and parent is not None:
            qid = self.spans[parent].qid
        span = Span(name, time.perf_counter(), parent=parent, qid=qid)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration
        return span

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)

    @staticmethod
    def load(path: str) -> list[Span]:
        with open(path, encoding="utf-8") as handle:
            return [Span(**record) for record in json.load(handle)]


# ------------------------------------------------------------------ targets
@dataclass(frozen=True)
class Target:
    """One entry point: ``owner.attr`` (a class or a module attribute)."""

    owner: Any
    attr: str
    name: str
    #: Reads the query/session id from the call's arguments.
    qid: Callable[[tuple, dict], str | None] | None = None
    #: Reads counts (and possibly the id) off the return value.
    after: Callable[[Span, tuple, dict, Any], None] | None = None


def _count(key: str, read: Callable[[Any], Any]) -> Callable[[Span, tuple, dict, Any], None]:
    def after(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        span.attrs[key] = read(result)

    return after


def _graph_counts(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["nodes"] = len(result)
    span.attrs["mtns"] = len(result.mtn_indexes)


def _traversal_counts(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    known = evaluated = 0
    for store in {id(store): store for store in result.stores.values()}.values():
        known |= (store.alive_mask | store.dead_mask) & store.domain
        evaluated |= store.evaluated_mask
    stats = result.stats
    span.attrs.update(
        classified=bin(known).count("1"),
        inferred=bin(known & ~evaluated).count("1"),
        l1_hits=stats.l1_hits,
        lookups=stats.cache_hits + stats.cache_misses,
    )


def _debug_session(args: tuple, kwargs: dict) -> str | None:
    tracer = kwargs.get("tracer")
    return None if tracer is None else tracer.context.get("session_id")


def _handle_session(args: tuple, kwargs: dict) -> str | None:
    parts = [part for part in args[2].split("/") if part]
    return parts[1] if len(parts) >= 2 and parts[0] == "sessions" else None


def _submitted_session(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    if span.qid is None and args[1] == "POST" and result.status == 202:
        span.qid = json.loads(result.body)["session_id"]


def targets() -> list[Target]:
    """The wrapped entry points, grouped by layer."""
    import repro.cli
    import repro.core.debugger
    import repro.core.lattice
    import repro.datasets.dblife
    from repro.cache import ProbeCache, StatusCache
    from repro.core.binding import KeywordBinder
    from repro.core.debugger import NonAnswerDebugger
    from repro.core.traversal import TraversalStrategy
    from repro.index.mapper import KeywordMapper
    from repro.relational.engine import InMemoryEngine
    from repro.relational.evaluator import InstrumentedEvaluator
    from repro.relational.sqlite_backend import SqliteEngine
    from repro.service.app import ServiceApp
    from repro.service.manager import SessionManager

    interpretations = _count("interpretations", lambda result: len(result.interpretations))
    retained = _count("retained", lambda result: result.retained_count)
    hit = _count("hit", lambda result: result is not None)
    alive = _count("alive", bool)
    return [
        # mapping, planning and traversal
        Target(KeywordMapper, "map_query", "index.map", after=interpretations),
        Target(KeywordBinder, "prune", "binding.prune", after=retained),
        Target(KeywordBinder, "prune_for_mtns", "binding.prune", after=retained),
        Target(NonAnswerDebugger, "build_graph", "mtn.graph", after=_graph_counts),
        Target(TraversalStrategy, "run", "traversal.run", after=_traversal_counts),
        # evaluator and engines
        Target(InstrumentedEvaluator, "lookup_cached", "evaluator.lookup", after=hit),
        Target(InstrumentedEvaluator, "execute_probe", "evaluator.execute"),
        Target(InMemoryEngine, "is_alive", "backends.probe", after=alive),
        Target(SqliteEngine, "is_alive", "backends.probe", after=alive),
        # caches
        Target(ProbeCache, "get", "cache.l2_get", after=hit),
        Target(ProbeCache, "put", "cache.l2_put"),
        Target(ProbeCache, "refresh", "cache.refresh"),
        Target(StatusCache, "load", "cache.status_load"),
        Target(StatusCache, "save", "cache.status_save"),
        # debugger facade
        Target(NonAnswerDebugger, "debug", "debugger.debug", qid=_debug_session),
        Target(NonAnswerDebugger, "refresh_after_mutation", "debugger.refresh"),
        # service
        Target(SessionManager, "submit", "service.submit",
               after=_count("session", lambda handle: handle.session_id)),
        Target(SessionManager, "mutate", "service.mutate"),
        Target(ServiceApp, "handle", "service.handle", qid=_handle_session,
               after=_submitted_session),
        # setup, patched where the callers look them up
        Target(repro.datasets.dblife, "dblife_database", "datasets.build"),
        Target(repro.cli, "dblife_database", "datasets.build"),
        Target(repro.core.debugger, "create_index", "index.build"),
        Target(repro.core.lattice, "generate_lattice", "lattice.build",
               after=_count("nodes", len)),
        Target(repro.core.debugger, "generate_lattice", "lattice.build",
               after=_count("nodes", len)),
        Target(repro.core.debugger, "create_backend", "backends.load"),
    ]


def _wrap(recorder: SpanRecorder, target: Target, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        qid = target.qid(args, kwargs) if target.qid is not None else None
        index = recorder.open(target.name, qid)
        try:
            result = original(*args, **kwargs)
        finally:
            span = recorder.close(index)
        if target.after is not None:
            target.after(span, args, kwargs, result)
        return result

    return wrapper


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every target; returns the function that restores them."""
    saved = []
    for target in targets():
        original = getattr(target.owner, target.attr)
        saved.append((target.owner, target.attr, original))
        setattr(target.owner, target.attr, _wrap(recorder, target, original))

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# ----------------------------------------------------------------- analysis
def _ms(seconds: float) -> float:
    return seconds * 1000.0


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank ``share`` quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def layer_metrics(
    spans: list[Span],
    untraced_p50_ms: float,
    repeat_share: float,
    pool_waits: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced run (see ``perfbench/README.md``).

    ``spans`` holds the benchmark's own ``workload.*`` roots and every
    wrapped call, from one process or, for the service, from the client
    and the server merged (both clocks are the system monotonic clock).
    """
    roots = [span for span in spans if span.name in QUERY_ROOTS]
    writes = [span for span in spans if span.name == WRITE_ROOT]
    queries = {span.qid for span in roots}
    count = max(1, len(roots))
    per_query = [span for span in spans if span.qid in queries and span.name not in QUERY_ROOTS]

    def named(*names: str) -> list[Span]:
        return [span for span in per_query if span.name in names]

    def total(name: str, key: str) -> float:
        return sum(span.attrs.get(key, 0) for span in named(name))

    metrics: dict[str, float] = {}
    # setup: top-level setup spans only (refreshes rebuild index and backend)
    setups = [span for span in spans if span.name == "datasets.build" and span.parent is None]
    for metric, name in (
        ("datasets.build_s", "datasets.build"),
        ("index.build_s", "index.build"),
        ("lattice.build_s", "lattice.build"),
        ("backends.load_s", "backends.load"),
    ):
        top = [span.duration for span in spans if span.name == name and span.parent is None]
        metrics[metric] = sum(top) / max(1, len(setups))
    lattices = [span for span in spans if span.name == "lattice.build" and span.parent is None]
    metrics["lattice.nodes"] = lattices[-1].attrs["nodes"] if lattices else 0

    for metric, names in SELF_TIME_METRICS.items():
        selected = named(*names)
        metrics[metric] = _ms(sum(span.self_time for span in selected)) / count

    metrics["index.interpretations"] = total("index.map", "interpretations") / count
    metrics["binding.retained_trees"] = total("binding.prune", "retained") / count
    metrics["mtn.nodes"] = total("mtn.graph", "nodes") / count
    metrics["mtn.mtns"] = total("mtn.graph", "mtns") / count
    classified = total("traversal.run", "classified")
    metrics["traversal.inferred_ratio"] = (
        total("traversal.run", "inferred") / classified if classified else 0.0
    )
    lookups = total("traversal.run", "lookups")
    metrics["evaluator.l1_hit_ratio"] = (
        total("traversal.run", "l1_hits") / lookups if lookups else 0.0
    )

    probes = named("backends.probe")
    metrics["backends.probes"] = sum(span.attrs.get("probes", 0) for span in roots) / count
    metrics["backends.probe_p50_ms"] = _ms(percentile([span.duration for span in probes], 0.5))
    metrics["backends.probe_p95_ms"] = _ms(percentile([span.duration for span in probes], 0.95))
    metrics["backends.alive_ratio"] = (
        sum(span.attrs["alive"] for span in probes) / len(probes) if probes else 0.0
    )
    metrics["backends.pool_waits"] = pool_waits

    gets = named("cache.l2_get")
    metrics["cache.l2_hit_ratio"] = (
        sum(span.attrs["hit"] for span in gets) / len(gets) if gets else 0.0
    )
    metrics["cache.l2_puts"] = len(named("cache.l2_put")) / count
    metrics["cache.phase3_skip_ratio"] = (
        sum(bool(span.attrs.get("phase3_skipped")) for span in roots) / count
    )

    # writes: per client-side write root
    server_writes = [index for index, span in enumerate(spans) if span.name == "service.mutate"]
    refreshes = [span for span in spans if span.name == "debugger.refresh"]
    write_count = max(1, len(writes))
    metrics["cache.refresh_ms"] = _ms(
        sum(span.duration for span in spans if span.name == "cache.refresh")
    ) / write_count
    metrics["debugger.refresh_ms"] = _ms(sum(span.duration for span in refreshes)) / write_count
    metrics["service.mutate_p50_ms"] = _ms(percentile([span.duration for span in writes], 0.5))
    refresh_of = {
        span.parent: span.duration for span in refreshes if span.parent is not None
    }
    metrics["service.gate_wait_ms"] = (
        _ms(sum(spans[index].duration - refresh_of.get(index, 0.0) for index in server_writes))
        / len(server_writes)
        if server_writes
        else 0.0
    )

    # service: per session, around the server-side debug() call
    debug_of = {span.qid: span for span in named("debugger.debug")}
    submitted = {span.attrs.get("session"): span for span in spans if span.name == "service.submit"}
    transport = queue_wait = unattributed = 0.0
    for root in roots:
        if root.name == "workload.query":
            # in-process: the root's own time outside debug()
            unattributed += root.self_time
            continue
        # over HTTP the root is the client's and debug() ran in the server:
        # everything outside debug() is the service layer's transport time
        debug = debug_of[root.qid]
        transport += root.duration - debug.duration
        queue_wait += debug.start - submitted[root.qid].end
    metrics["service.queue_wait_ms"] = _ms(queue_wait) / count
    metrics["service.transport_ms"] = _ms(transport) / count
    metrics["service.requests_per_session"] = (
        len([span for span in spans if span.name == "service.handle" and span.qid in queries])
        / count
    )

    latencies = [root.duration for root in roots]
    metrics["obs.traced_latency_ms"] = _ms(sum(latencies)) / count
    metrics["unattributed_ms"] = _ms(unattributed) / count
    metrics["obs.trace_overhead"] = (
        _ms(statistics.median(latencies)) / untraced_p50_ms if untraced_p50_ms else 0.0
    )
    metrics["workload.repeat_share"] = repeat_share
    return metrics


def check_partition(metrics: dict[str, float]) -> bool:
    """Layer self times plus unattributed time add up to the traced latency,
    and no part is negative (a negative part means double counting)."""
    parts = [metrics[name] for name in SELF_TIME_METRICS]
    parts += [metrics["service.transport_ms"], metrics["unattributed_ms"]]
    latency = metrics["obs.traced_latency_ms"]
    tolerance = 1e-6 * max(1.0, latency)
    return all(part >= -tolerance for part in parts) and abs(sum(parts) - latency) <= tolerance

