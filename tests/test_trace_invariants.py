"""Runtime-invariant checking over traces (`repro trace check` core)."""

import json

import pytest

from repro.obs import check_trace_lines, check_trace_records
from repro.obs.invariants import InvariantViolation
from repro.obs.trace import TraceValidationError


def span(seq, *, hit=False, wall=0.0, sim=0.0, tier=None, remaining=None):
    record = {
        "kind": "span",
        "seq": seq,
        "level": 2,
        "keywords": ["a", "b"],
        "backend": "InMemoryEngine",
        "alive": True,
        "cache_hit": hit,
        "wall_seconds": wall,
        "simulated_seconds": sim,
        "cache_tier": tier,
    }
    if remaining is not None:
        record["budget_remaining"] = remaining
    return record


def start(seq, strategy="bu", nodes=10):
    return {
        "kind": "event",
        "seq": seq,
        "name": "traversal_start",
        "strategy": strategy,
        "nodes": nodes,
    }


def end(seq, *, executed, hits=0, exhausted=False):
    return {
        "kind": "event",
        "seq": seq,
        "name": "traversal_end",
        "queries_executed": executed,
        "cache_hits": hits,
        "exhausted": exhausted,
    }


def names(records, **kwargs):
    return [v.invariant for v in check_trace_records(records, **kwargs)]


class TestSpanInvariants:
    def test_clean_segment(self):
        records = [
            start(0),
            span(1, tier="backend", remaining=5),
            span(2, hit=True, tier="l1", remaining=4),
            end(3, executed=1, hits=1),
        ]
        assert names(records) == []

    def test_cache_hit_with_cost_flagged(self):
        records = [span(0, hit=True, wall=0.5, tier="l1")]
        assert names(records) == ["cache-hit-free"]

    def test_cache_hit_with_backend_tier_flagged(self):
        records = [span(0, hit=True, tier="backend")]
        assert names(records) == ["tier-consistency"]

    def test_executed_span_with_cache_tier_flagged(self):
        records = [span(0, hit=False, tier="l1")]
        assert names(records) == ["tier-consistency"]

    def test_cache_hit_from_a_persistent_tier_flagged(self):
        """The evaluator's LRU is its only cache: no span reads sqlite."""
        records = [span(0, hit=True, tier="l2")]
        assert names(records) == ["tier-consistency"]

    def test_cache_hit_without_tier_allowed(self):
        records = [span(0, hit=True)]
        assert names(records) == []


class TestSegmentInvariants:
    def test_budget_rise_within_segment_flagged(self):
        records = [
            start(0),
            span(1, tier="backend", remaining=5),
            span(2, tier="backend", remaining=7),
            end(3, executed=2),
        ]
        assert names(records) == ["budget-monotone"]

    def test_budget_reset_between_segments_allowed(self):
        records = [
            start(0),
            span(1, tier="backend", remaining=1),
            end(2, executed=1),
            start(3),
            span(4, tier="backend", remaining=9),
            end(5, executed=1),
        ]
        assert names(records) == []

    def test_budget_cap_exceeded_flagged(self):
        records = [
            start(0),
            span(1, tier="backend"),
            span(2, tier="backend"),
            end(3, executed=2),
        ]
        assert names(records, max_queries=1) == ["budget-cap"]
        assert names(records, max_queries=2) == []

    def test_exhausted_event_requires_exhausted_end(self):
        records = [
            start(0),
            span(1, tier="backend"),
            {"kind": "event", "seq": 2, "name": "budget_exhausted"},
            end(3, executed=1, exhausted=False),
        ]
        assert names(records) == ["budget-cap"]

    def test_reuse_strategy_bounded_by_nodes(self):
        records = [
            start(0, strategy="buwr", nodes=2),
            span(1, tier="backend"),
            span(2, tier="backend"),
            span(3, tier="backend"),
            end(4, executed=3),
        ]
        assert names(records) == ["reuse-bound"]

    def test_non_reuse_strategy_may_re_execute(self):
        records = [
            start(0, strategy="bu", nodes=2),
            span(1, tier="backend"),
            span(2, tier="backend"),
            span(3, tier="backend"),
            end(4, executed=3),
        ]
        assert names(records) == []

    def test_end_accounting_mismatch_flagged(self):
        records = [
            start(0),
            span(1, tier="backend"),
            span(2, hit=True, tier="l1"),
            end(3, executed=2, hits=0),
        ]
        assert sorted(names(records)) == [
            "segment-accounting",
            "segment-accounting",
        ]

    def test_unterminated_segment_still_checked(self):
        records = [
            start(0),
            span(1, tier="backend", remaining=3),
            span(2, tier="backend", remaining=4),
        ]
        assert names(records) == ["budget-monotone"]


class TestPoolInvariants:
    def test_unreleased_connections_flagged(self):
        records = [
            {
                "kind": "event",
                "seq": 0,
                "name": "pool_stats",
                "in_use": 2,
                "max_in_use": 3,
                "max_size": 4,
            }
        ]
        assert names(records) == ["pool-release"]

    def test_peak_over_cap_flagged(self):
        records = [
            {
                "kind": "event",
                "seq": 0,
                "name": "pool_stats",
                "in_use": 0,
                "max_in_use": 5,
                "max_size": 4,
            }
        ]
        assert names(records) == ["pool-release"]

    def test_released_pool_clean(self):
        records = [
            {
                "kind": "event",
                "seq": 0,
                "name": "pool_stats",
                "in_use": 0,
                "max_in_use": 4,
                "max_size": 4,
            }
        ]
        assert names(records) == []


def session_event(seq, name, session_id="s1", **attrs):
    record = {
        "kind": "event",
        "seq": seq,
        "name": name,
        "session_id": session_id,
    }
    record.update(attrs)
    return record


class TestSessionInvariants:
    def test_complete_session_clean(self):
        records = [
            session_event(0, "session_submitted", query="q"),
            session_event(1, "session_started"),
            session_event(2, "session_completed"),
        ]
        assert names(records) == []

    def test_submitted_without_terminal_flagged(self):
        records = [
            session_event(0, "session_submitted", query="q"),
            session_event(1, "session_started"),
        ]
        assert names(records) == ["session-terminal"]

    def test_double_terminal_flagged(self):
        records = [
            session_event(0, "session_submitted", query="q"),
            session_event(1, "session_completed"),
            session_event(2, "session_cancelled"),
        ]
        assert names(records) == ["session-terminal"]

    def test_records_after_terminal_flagged(self):
        records = [
            session_event(0, "session_submitted", query="q"),
            session_event(1, "session_completed"),
            session_event(2, "session_started"),
        ]
        assert names(records) == ["session-terminal"]

    def test_every_terminal_name_accepted(self):
        for terminal in (
            "session_completed",
            "session_failed",
            "session_cancelled",
        ):
            records = [
                session_event(0, "session_submitted", query="q"),
                session_event(1, terminal),
            ]
            assert names(records) == [], terminal

    def test_seq_gap_flagged(self):
        records = [
            session_event(0, "session_submitted", query="q"),
            session_event(2, "session_completed"),
        ]
        assert names(records) == ["session-seq"]

    def test_duplicate_seq_flagged(self):
        records = [
            session_event(0, "session_submitted", query="q"),
            session_event(0, "session_started"),
            session_event(1, "session_completed"),
        ]
        assert names(records) == ["session-seq"]

    def test_submitted_stream_must_start_at_zero(self):
        records = [
            session_event(3, "session_submitted", query="q"),
            session_event(4, "session_completed"),
        ]
        assert names(records) == ["session-seq"]

    def test_sessions_checked_independently(self):
        records = [
            session_event(0, "session_submitted", session_id="s1", query="q"),
            session_event(0, "session_submitted", session_id="s2", query="q"),
            session_event(1, "session_completed", session_id="s1"),
            session_event(1, "session_completed", session_id="s2"),
        ]
        assert names(records) == []

    def test_unsessioned_records_exempt(self):
        # Plain pipeline traces carry no session ids and no lifecycle.
        records = [start(0), span(1, tier="backend"), end(2, executed=1)]
        assert names(records) == []


class TestServiceShutdownInvariants:
    def shutdown_event(self, seq, active=0, served=1):
        return {
            "kind": "event",
            "seq": seq,
            "name": "service_shutdown",
            "active_sessions": active,
            "sessions_served": served,
            "drained": True,
        }

    def test_drained_shutdown_clean(self):
        records = [
            session_event(0, "session_submitted", query="q"),
            session_event(1, "session_completed"),
            self.shutdown_event(0),
        ]
        assert names(records) == []

    def test_active_sessions_at_shutdown_flagged(self):
        assert names([self.shutdown_event(0, active=2)]) == [
            "service-shutdown"
        ]

    def test_terminal_after_shutdown_flagged(self):
        records = [
            session_event(0, "session_submitted", query="q"),
            self.shutdown_event(0),
            session_event(1, "session_completed"),
        ]
        assert "service-shutdown" in names(records)


class TestLineInterface:
    def test_lines_are_schema_validated_first(self):
        bad = json.dumps({"kind": "span", "seq": 0})  # missing fields
        with pytest.raises(TraceValidationError):
            check_trace_lines([bad])

    def test_lines_roundtrip(self):
        lines = [
            json.dumps(record)
            for record in [start(0), span(1, tier="backend"), end(2, executed=1)]
        ]
        assert check_trace_lines(lines) == []

    def test_violation_render_carries_seq(self):
        violation = InvariantViolation("budget-cap", 7, "too many probes")
        assert violation.render() == "budget-cap [seq 7]: too many probes"
