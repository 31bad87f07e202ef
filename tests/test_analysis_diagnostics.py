"""Unit tests for the diagnostic framework (codes, report, JSON)."""

import json

import pytest

from repro.analysis.diagnostics import (
    CODE_REGISTRY,
    Diagnostic,
    DiagnosticReport,
    Severity,
    describe_codes,
)


def test_registry_covers_documented_codes():
    expected = {
        "PLAN001", "PLAN002", "PLAN003", "PLAN004", "PLAN005",
        "PLAN006", "SQL001", "SQL002",
        "LINT001", "LINT002", "LINT003",
    }
    assert expected <= set(CODE_REGISTRY)
    assert "PLAN007" not in CODE_REGISTRY  # the lattice stores no links
    for code, slug, summary in describe_codes():
        assert code in CODE_REGISTRY
        assert slug and summary


def test_unregistered_code_rejected():
    with pytest.raises(ValueError, match="unregistered"):
        Diagnostic("PLAN999", "nope", "nowhere")


def test_diagnostic_render_and_slug():
    diagnostic = Diagnostic(
        "PLAN002", "not a tree", "lattice tree 3", hint="rebuild it"
    )
    assert diagnostic.slug == "disconnected-tree"
    rendered = diagnostic.render()
    assert "PLAN002" in rendered
    assert "disconnected-tree" in rendered
    assert "lattice tree 3" in rendered
    assert "rebuild it" in rendered


def test_report_severity_partitions():
    report = DiagnosticReport()
    report.add(Diagnostic("PLAN001", "bad edge", "n1"))
    report.add(
        Diagnostic("PLAN006", "free leaf", "cn0", severity=Severity.WARNING)
    )
    assert len(report) == 2
    assert len(report.errors()) == 1
    assert len(report.warnings()) == 1
    assert not report.ok
    assert report.codes == {"PLAN001", "PLAN006"}
    assert [d.code for d in report.by_code("PLAN001")] == ["PLAN001"]


def test_warnings_only_report_is_ok():
    report = DiagnosticReport()
    report.add(Diagnostic("PLAN006", "free leaf", "cn0", severity=Severity.WARNING))
    assert report.ok


def test_report_merge_and_json_roundtrip():
    first = DiagnosticReport()
    first.add(Diagnostic("SQL002", "does not prepare", "template 7"))
    second = DiagnosticReport()
    second.merge(first)
    payload = json.loads(second.to_json())
    assert payload["ok"] is False
    assert payload["errors"] == 1
    assert payload["diagnostics"][0]["code"] == "SQL002"
    assert payload["diagnostics"][0]["slug"] == "template-fails-sqlite-prepare"


def test_report_render_truncates():
    report = DiagnosticReport()
    for index in range(5):
        report.add(Diagnostic("PLAN002", "broken", f"node {index}"))
    rendered = report.render(max_items=2)
    assert "and 3 more" in rendered
    assert "5 error(s)" in rendered
