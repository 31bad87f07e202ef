"""Runtime-invariant checking over exported JSONL traces.

``repro trace check <file>`` replays an exported trace against the
contracts the probe path promises at runtime -- the dynamic complement
to the schema check (:func:`repro.obs.trace.validate_trace_file`), which
only looks at field shapes.  A trace is segmented at
``traversal_start``/``traversal_end`` events (one segment per strategy
run; records outside any segment are legal) and each segment is checked
for:

* **cache hits are free** -- a ``cache_hit`` span records zero wall and
  zero simulated seconds, and its tier is ``l1`` (the evaluator's LRU,
  its only cache) or absent; an executed span's tier is ``backend``.
* **budget monotonicity** -- ``budget_remaining`` never increases within
  a segment: admissions and charges only spend.  (Sound because every
  span is recorded by the coordinating thread in submission order; the
  budget may reset *between* segments.)
* **budget cap** -- with an expected ``max_queries``, no segment
  executes more than that many backend probes, and a segment containing
  a ``budget_exhausted`` event must end exhausted.
* **segment accounting** -- ``traversal_end.queries_executed`` and
  ``.cache_hits`` equal the executed / cache-hit span counts of the
  segment.
* **reuse bound** -- a reuse strategy (``buwr``/``tdwr``/``sbh``) caches
  every answer, so it can execute at most ``traversal_start.nodes``
  distinct probes.  (The non-reuse strategies re-execute per MTN by
  design and carry no such bound.)
* **pool release** -- a ``pool_stats`` event (emitted by
  :meth:`repro.core.debugger.NonAnswerDebugger.close`) must show every
  pooled connection checked back in and a peak within the cap.

Service traces (:mod:`repro.service` exports) add three more contracts,
checked whenever the relevant records appear:

* **session-terminal** -- every session that emitted ``session_submitted``
  ends in exactly one terminal event (``session_completed`` /
  ``session_failed`` / ``session_cancelled``), and it is the session's
  last record.
* **session-seq** -- each session's records (keyed by the stamped
  ``session_id``) carry gap-free sequence numbers from 0: the per-session
  tracer starts fresh and its listener-fed log never drops, so a missing
  seq means lost telemetry.
* **service-shutdown** -- a ``service_shutdown`` event must report
  ``active_sessions == 0`` (the drain finished before resources were
  released) and must come after every session's terminal event.

Deliberately *not* checked: duplicate-probe detection by ``(level,
keywords)`` -- two different join trees can share both, so flagging the
pair would be unsound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable

from repro.obs.trace import validate_trace_lines

#: Strategies whose evaluator caches (the paper's *with reuse* family).
REUSE_STRATEGIES = frozenset({"buwr", "tdwr", "sbh"})


@dataclass(frozen=True)
class InvariantViolation:
    """One broken runtime contract found in a trace."""

    invariant: str
    seq: int | None
    message: str

    def render(self) -> str:
        where = f"seq {self.seq}" if self.seq is not None else "trace"
        return f"{self.invariant} [{where}]: {self.message}"


def _check_span_tiers(
    spans: list[dict[str, Any]], violations: list[InvariantViolation]
) -> None:
    for span in spans:
        tier = span.get("cache_tier")
        if span["cache_hit"]:
            if span["wall_seconds"] != 0 or span["simulated_seconds"] != 0:
                violations.append(
                    InvariantViolation(
                        "cache-hit-free",
                        span["seq"],
                        "cache hit recorded nonzero cost "
                        f"(wall={span['wall_seconds']}, "
                        f"simulated={span['simulated_seconds']})",
                    )
                )
            if tier not in (None, "l1"):
                violations.append(
                    InvariantViolation(
                        "tier-consistency",
                        span["seq"],
                        f"cache hit carries tier {tier!r}",
                    )
                )
        elif tier not in (None, "backend"):
            violations.append(
                InvariantViolation(
                    "tier-consistency",
                    span["seq"],
                    f"executed span carries cache tier {tier!r}",
                )
            )


def _check_segment(
    start: dict[str, Any],
    end: dict[str, Any] | None,
    spans: list[dict[str, Any]],
    events: list[dict[str, Any]],
    max_queries: int | None,
    violations: list[InvariantViolation],
) -> None:
    executed = sum(1 for span in spans if not span["cache_hit"])
    hits = sum(1 for span in spans if span["cache_hit"])
    strategy = start.get("strategy")

    remaining_seen: int | None = None
    for span in spans:
        remaining = span.get("budget_remaining")
        if remaining is None:
            continue
        if remaining_seen is not None and remaining > remaining_seen:
            violations.append(
                InvariantViolation(
                    "budget-monotone",
                    span["seq"],
                    f"budget_remaining rose {remaining_seen} -> {remaining} "
                    f"within one traversal",
                )
            )
        remaining_seen = remaining

    if max_queries is not None and executed > max_queries:
        violations.append(
            InvariantViolation(
                "budget-cap",
                start["seq"],
                f"{executed} probes executed under max_queries={max_queries}",
            )
        )

    if strategy in REUSE_STRATEGIES and isinstance(start.get("nodes"), int):
        if executed > start["nodes"]:
            violations.append(
                InvariantViolation(
                    "reuse-bound",
                    start["seq"],
                    f"reuse strategy {strategy!r} executed {executed} probes "
                    f"over {start['nodes']} nodes",
                )
            )

    exhausted_events = [e for e in events if e["name"] == "budget_exhausted"]
    if end is not None:
        for label, counted in (
            ("queries_executed", executed),
            ("cache_hits", hits),
        ):
            reported = end.get(label)
            if isinstance(reported, int) and reported != counted:
                violations.append(
                    InvariantViolation(
                        "segment-accounting",
                        end["seq"],
                        f"traversal_end reports {label}={reported} but the "
                        f"segment holds {counted} matching spans",
                    )
                )
        if exhausted_events and end.get("exhausted") is False:
            violations.append(
                InvariantViolation(
                    "budget-cap",
                    end["seq"],
                    "budget_exhausted fired but traversal_end is not "
                    "marked exhausted",
                )
            )


def _check_pool_events(
    records: list[dict[str, Any]], violations: list[InvariantViolation]
) -> None:
    for record in records:
        if record.get("kind") != "event" or record.get("name") != "pool_stats":
            continue
        in_use = record.get("in_use")
        max_in_use = record.get("max_in_use")
        max_size = record.get("max_size")
        if isinstance(in_use, int) and in_use != 0:
            violations.append(
                InvariantViolation(
                    "pool-release",
                    record["seq"],
                    f"{in_use} pooled connection(s) still checked out at "
                    f"close",
                )
            )
        if (
            isinstance(max_in_use, int)
            and isinstance(max_size, int)
            and max_in_use > max_size
        ):
            violations.append(
                InvariantViolation(
                    "pool-release",
                    record["seq"],
                    f"pool peak {max_in_use} exceeded max_size {max_size}",
                )
            )


#: Event names that legally end a session's stream (mirrors
#: :data:`repro.service.events.TERMINAL_EVENTS`; duplicated so the trace
#: checker stays importable without the service package).
_SESSION_TERMINAL = frozenset(
    {"session_completed", "session_failed", "session_cancelled"}
)


def _check_sessions(
    records: list[dict[str, Any]], violations: list[InvariantViolation]
) -> None:
    """Session lifecycle: terminal events, gap-free per-session seqs."""
    #: session_id -> (seqs, terminal count, seq of last record, seq of
    #: the terminal event, whether session_submitted was seen).
    seqs: dict[str, list[int]] = {}
    terminals: dict[str, int] = {}
    last_seq: dict[str, int] = {}
    terminal_seq: dict[str, int] = {}
    submitted: dict[str, int] = {}
    for record in records:
        session_id = record.get("session_id")
        if not isinstance(session_id, str):
            continue
        seq = record.get("seq")
        if not isinstance(seq, int):
            continue
        seqs.setdefault(session_id, []).append(seq)
        last_seq[session_id] = seq
        if record.get("kind") != "event":
            continue
        name = record.get("name")
        if name == "session_submitted":
            submitted[session_id] = seq
        if name in _SESSION_TERMINAL:
            terminals[session_id] = terminals.get(session_id, 0) + 1
            terminal_seq[session_id] = seq

    for session_id, start_seq in sorted(submitted.items()):
        count = terminals.get(session_id, 0)
        if count == 0:
            violations.append(
                InvariantViolation(
                    "session-terminal",
                    start_seq,
                    f"session {session_id!r} was submitted but never "
                    f"reached a terminal event",
                )
            )
        elif count > 1:
            violations.append(
                InvariantViolation(
                    "session-terminal",
                    terminal_seq[session_id],
                    f"session {session_id!r} carries {count} terminal "
                    f"events (exactly one expected)",
                )
            )
        elif terminal_seq[session_id] != last_seq[session_id]:
            violations.append(
                InvariantViolation(
                    "session-terminal",
                    last_seq[session_id],
                    f"session {session_id!r} has records after its "
                    f"terminal event",
                )
            )

    for session_id, session_seqs in sorted(seqs.items()):
        ordered = sorted(session_seqs)
        if ordered != list(range(ordered[0], ordered[0] + len(ordered))):
            violations.append(
                InvariantViolation(
                    "session-seq",
                    ordered[0],
                    f"session {session_id!r} has gaps or duplicates in "
                    f"its sequence numbers",
                )
            )
        elif session_id in submitted and ordered[0] != 0:
            violations.append(
                InvariantViolation(
                    "session-seq",
                    ordered[0],
                    f"session {session_id!r} starts at seq {ordered[0]}, "
                    f"not 0: the head of the stream is missing",
                )
            )


def _check_service_shutdown(
    records: list[dict[str, Any]], violations: list[InvariantViolation]
) -> None:
    """``service_shutdown`` means drained: no session may still be open."""
    shutdown_index: int | None = None
    for index, record in enumerate(records):
        if (
            record.get("kind") == "event"
            and record.get("name") == "service_shutdown"
        ):
            shutdown_index = index
            active = record.get("active_sessions")
            if isinstance(active, int) and active != 0:
                violations.append(
                    InvariantViolation(
                        "service-shutdown",
                        record["seq"],
                        f"{active} session(s) still active at shutdown",
                    )
                )
    if shutdown_index is None:
        return
    shutdown_record = records[shutdown_index]
    for record in records[shutdown_index + 1 :]:
        if (
            record.get("kind") == "event"
            and isinstance(record.get("session_id"), str)
            and record.get("name") in _SESSION_TERMINAL
        ):
            violations.append(
                InvariantViolation(
                    "service-shutdown",
                    shutdown_record["seq"],
                    f"session {record['session_id']!r} turned terminal "
                    f"after service_shutdown",
                )
            )


def check_trace_records(
    records: list[dict[str, Any]], max_queries: int | None = None
) -> list[InvariantViolation]:
    """All invariant violations in decoded trace records (empty = clean)."""
    violations: list[InvariantViolation] = []
    spans = [r for r in records if r.get("kind") == "span"]
    _check_span_tiers(spans, violations)
    _check_pool_events(records, violations)
    _check_sessions(records, violations)
    _check_service_shutdown(records, violations)

    start: dict[str, Any] | None = None
    segment_spans: list[dict[str, Any]] = []
    segment_events: list[dict[str, Any]] = []
    for record in records:
        if record.get("kind") == "event" and record.get("name") == "traversal_start":
            if start is not None:
                # Unterminated segment (ring-buffer drop or crash): check
                # what we have, without end-side accounting.
                _check_segment(
                    start, None, segment_spans, segment_events,
                    max_queries, violations,
                )
            start = record
            segment_spans = []
            segment_events = []
        elif record.get("kind") == "event" and record.get("name") == "traversal_end":
            if start is not None:
                _check_segment(
                    start, record, segment_spans, segment_events,
                    max_queries, violations,
                )
            start = None
        elif start is not None:
            if record.get("kind") == "span":
                segment_spans.append(record)
            else:
                segment_events.append(record)
    if start is not None:
        _check_segment(
            start, None, segment_spans, segment_events, max_queries, violations
        )
    return violations


def check_trace_lines(
    lines: Iterable[str], max_queries: int | None = None
) -> list[InvariantViolation]:
    """Schema-validate then invariant-check JSONL content."""
    materialized = [line for line in lines if line.strip()]
    validate_trace_lines(materialized)  # raises TraceValidationError
    records = [json.loads(line) for line in materialized]
    return check_trace_records(records, max_queries=max_queries)


def check_trace_file(
    path: str, max_queries: int | None = None
) -> list[InvariantViolation]:
    """Schema-validate then invariant-check one exported trace file."""
    with open(path, "r", encoding="utf-8") as handle:
        return check_trace_lines(handle, max_queries=max_queries)
