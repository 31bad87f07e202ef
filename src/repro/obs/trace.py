"""Structured probe tracing: spans, events, JSON-lines, aggregation.

One :class:`ProbeSpan` is recorded per aliveness probe that reaches the
evaluator -- executed probes and cache hits alike, distinguished by the
``cache_hit`` field, so ``sum(not s.cache_hit) == queries_executed``
always holds.  :class:`TraceEvent` records punctual facts (sweep start /
end, budget exhaustion).  Both live in one bounded ring buffer
(:class:`ProbeTracer`): under heavy traffic the newest records win and
``dropped`` counts what fell out, so tracing never grows without bound.

Export is JSON-lines (one record per line, ``kind`` discriminates spans
from events); :func:`validate_trace_record` / :func:`validate_trace_file`
check the schema, and :meth:`ProbeTracer.aggregate` folds spans into
per-level or per-strategy summary rows for reporting.

Wall durations use ``time.perf_counter`` deltas measured by the caller;
no absolute wall-clock timestamps are recorded (the repo-wide
determinism lint bans them outside ``repro.bench``).
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Union

DEFAULT_CAPACITY = 65_536

#: JSON-lines schema, by ``kind``: required field -> accepted types.
SPAN_SCHEMA: dict[str, tuple[type, ...]] = {
    "kind": (str,),
    "seq": (int,),
    "level": (int,),
    "keywords": (list,),
    "backend": (str,),
    "alive": (bool,),
    "cache_hit": (bool,),
    "wall_seconds": (int, float),
    "simulated_seconds": (int, float),
}
#: Optional span fields, stamped from the tracer context, the budget, or
#: the answering cache tier.  When present they must still type-check.
SPAN_OPTIONAL_SCHEMA: dict[str, tuple[type, ...]] = {
    "strategy": (str,),
    "budget_remaining": (int,),
    "cache_tier": (str,),
    "session_id": (str,),
}
EVENT_SCHEMA: dict[str, tuple[type, ...]] = {
    "kind": (str,),
    "seq": (int,),
    "name": (str,),
}


class TraceValidationError(ValueError):
    """A JSON-lines trace record does not match the schema."""


@dataclass(frozen=True)
class ProbeSpan:
    """One aliveness probe as seen by the evaluator."""

    seq: int
    level: int
    keywords: tuple[str, ...]
    backend: str
    alive: bool
    cache_hit: bool
    wall_seconds: float
    simulated_seconds: float
    strategy: str | None = None
    budget_remaining: int | None = None
    #: Which tier answered: ``"l1"`` (the evaluator's in-process LRU) or
    #: ``"backend"`` (executed).  None on spans recorded before tiers
    #: were traced.
    cache_tier: str | None = None
    #: Service session that issued the probe (None = library/CLI use).
    #: Stamped from the tracer context set by :mod:`repro.service`.
    session_id: str | None = None

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "kind": "span",
            "seq": self.seq,
            "level": self.level,
            "keywords": list(self.keywords),
            "backend": self.backend,
            "alive": self.alive,
            "cache_hit": self.cache_hit,
            "wall_seconds": self.wall_seconds,
            "simulated_seconds": self.simulated_seconds,
        }
        if self.strategy is not None:
            record["strategy"] = self.strategy
        if self.budget_remaining is not None:
            record["budget_remaining"] = self.budget_remaining
        if self.cache_tier is not None:
            record["cache_tier"] = self.cache_tier
        if self.session_id is not None:
            record["session_id"] = self.session_id
        return record


@dataclass(frozen=True)
class TraceEvent:
    """A punctual fact (sweep start/end, budget exhaustion, ...)."""

    seq: int
    name: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": "event", "seq": self.seq, "name": self.name, **self.attrs}


TraceRecord = Union[ProbeSpan, TraceEvent]


class ProbeTracer:
    """Bounded recorder of probe spans and events.

    ``context`` attributes (e.g. the running strategy's name, set by
    :meth:`~repro.core.traversal.base.TraversalStrategy.run`) are stamped
    onto every span recorded while they are set, so one tracer can span
    many runs and still aggregate per strategy.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        listener: Callable[[TraceRecord], None] | None = None,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._records: deque[TraceRecord] = deque(maxlen=capacity)
        self._seq = 0
        self.dropped = 0
        self._context: dict[str, Any] = {}  # guarded-by: _lock
        # Invoked under the record lock so delivery order matches the
        # assigned seq even when several threads record concurrently; the
        # callback must not call back into this tracer.
        self._listener = listener  # guarded-by: _lock
        # Sequence assignment + append must be atomic: one tracer may be
        # shared by concurrent service sessions.
        self._lock = threading.Lock()

    # ------------------------------------------------------------- context
    def set_context(self, **attrs: Any) -> None:
        """Set (value) or clear (``None``) attributes stamped on new spans."""
        with self._lock:
            for key, value in attrs.items():
                if value is None:
                    self._context.pop(key, None)
                else:
                    self._context[key] = value

    @property
    def context(self) -> dict[str, Any]:
        with self._lock:
            return dict(self._context)

    # ----------------------------------------------------------- recording
    def _next_seq_locked(self) -> int:
        seq = self._seq
        self._seq += 1
        if len(self._records) == self.capacity:
            self.dropped += 1
        return seq

    def record_probe(
        self,
        *,
        level: int,
        keywords: Iterable[str],
        backend: str,
        alive: bool,
        cache_hit: bool,
        wall_seconds: float,
        simulated_seconds: float,
        budget_remaining: int | None = None,
        cache_tier: str | None = None,
    ) -> ProbeSpan:
        with self._lock:
            span = ProbeSpan(
                seq=self._next_seq_locked(),
                level=level,
                keywords=tuple(sorted(keywords)),
                backend=backend,
                alive=alive,
                cache_hit=cache_hit,
                wall_seconds=wall_seconds,
                simulated_seconds=simulated_seconds,
                strategy=self._context.get("strategy"),
                budget_remaining=budget_remaining,
                cache_tier=cache_tier,
                session_id=self._context.get("session_id"),
            )
            self._records.append(span)
            if self._listener is not None:
                self._listener(span)
        return span

    def record_event(self, name: str, **attrs: Any) -> TraceEvent:
        with self._lock:
            # Events inherit the session context the same way spans do,
            # so a per-session trace attributes every record without the
            # emitters having to thread the id through.
            if "session_id" in self._context and "session_id" not in attrs:
                attrs["session_id"] = self._context["session_id"]
            event = TraceEvent(seq=self._next_seq_locked(), name=name, attrs=attrs)
            self._records.append(event)
            if self._listener is not None:
                self._listener(event)
        return event

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._seq = 0
            self.dropped = 0

    # ------------------------------------------------------------- reading
    @property
    def records(self) -> list[TraceRecord]:
        with self._lock:
            return list(self._records)

    @property
    def spans(self) -> list[ProbeSpan]:
        return [r for r in self.records if isinstance(r, ProbeSpan)]

    @property
    def events(self) -> list[TraceEvent]:
        return [r for r in self.records if isinstance(r, TraceEvent)]

    @property
    def span_count(self) -> int:
        return sum(1 for r in self.records if isinstance(r, ProbeSpan))

    @property
    def executed_span_count(self) -> int:
        """Spans that reached the backend (``== queries_executed``)."""
        return sum(
            1
            for r in self.records
            if isinstance(r, ProbeSpan) and not r.cache_hit
        )

    # -------------------------------------------------------------- export
    def iter_jsonl(self) -> Iterator[str]:
        for record in self.records:
            yield json.dumps(record.to_dict(), sort_keys=True)

    def to_jsonl(self) -> str:
        return "\n".join(self.iter_jsonl())

    def write_jsonl(self, path: str) -> int:
        """Write all records to ``path`` atomically; returns the count.

        The write goes through :func:`repro.ioutil.atomic_write_text` so a
        crash mid-export never leaves a half-written trace for ``repro
        trace check`` to stumble over.
        """
        from repro.ioutil import atomic_write_text

        lines = list(self.iter_jsonl())
        atomic_write_text(path, "".join(line + "\n" for line in lines))
        return len(lines)

    # --------------------------------------------------------- aggregation
    def aggregate(self, key: str = "level") -> list[dict[str, Any]]:
        """Fold spans into summary rows grouped by ``level``, ``strategy``,
        or ``session_id``.

        Each row carries probe/executed/cache-hit counts and total wall +
        simulated seconds; rows sort by group key.
        """
        if key not in ("level", "strategy", "session_id"):
            raise ValueError(f"unsupported aggregation key {key!r}")
        groups: dict[Any, dict[str, Any]] = {}
        for span in self.spans:
            group = getattr(span, key)
            if group is None:
                group = "(none)"
            row = groups.setdefault(
                group,
                {
                    key: group,
                    "probes": 0,
                    "executed": 0,
                    "cache_hits": 0,
                    "wall_seconds": 0.0,
                    "simulated_seconds": 0.0,
                },
            )
            row["probes"] += 1
            if span.cache_hit:
                row["cache_hits"] += 1
            else:
                row["executed"] += 1
            row["wall_seconds"] += span.wall_seconds
            row["simulated_seconds"] += span.simulated_seconds
        return [groups[group] for group in sorted(groups, key=str)]


# ------------------------------------------------------------- validation
def validate_trace_record(record: Any) -> str:
    """Check one decoded JSON-lines record; returns its ``kind``."""
    if not isinstance(record, dict):
        raise TraceValidationError(f"record is not an object: {record!r}")
    kind = record.get("kind")
    if kind == "span":
        schema = SPAN_SCHEMA
    elif kind == "event":
        schema = EVENT_SCHEMA
    else:
        raise TraceValidationError(f"unknown record kind {kind!r}")
    for name, types in schema.items():
        if name not in record:
            raise TraceValidationError(f"{kind} record missing field {name!r}")
        value = record[name]
        # bool is an int subclass; reject it where an int/float is expected.
        if isinstance(value, bool) and bool not in types:
            raise TraceValidationError(
                f"{kind} field {name!r} has wrong type bool"
            )
        if not isinstance(value, types):
            raise TraceValidationError(
                f"{kind} field {name!r} has wrong type {type(value).__name__}"
            )
    if kind == "span":
        if not all(isinstance(keyword, str) for keyword in record["keywords"]):
            raise TraceValidationError("span field 'keywords' must be strings")
        for name, types in SPAN_OPTIONAL_SCHEMA.items():
            if name not in record:
                continue
            value = record[name]
            if isinstance(value, bool) or not isinstance(value, types):
                raise TraceValidationError(
                    f"span field {name!r} has wrong type {type(value).__name__}"
                )
    return str(kind)


def validate_trace_lines(lines: Iterable[str]) -> dict[str, int]:
    """Validate JSON-lines content; returns ``{"span": n, "event": m}``."""
    counts = {"span": 0, "event": 0}
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise TraceValidationError(f"line {number}: invalid JSON: {error}")
        try:
            counts[validate_trace_record(record)] += 1
        except TraceValidationError as error:
            raise TraceValidationError(f"line {number}: {error}") from None
    return counts


def validate_trace_file(path: str) -> dict[str, int]:
    """Validate a JSON-lines trace file; returns per-kind record counts."""
    with open(path, "r", encoding="utf-8") as handle:
        return validate_trace_lines(handle)
