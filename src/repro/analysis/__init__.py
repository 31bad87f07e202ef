"""Static analysis for plans, SQL templates, and the codebase itself.

Three layers, one diagnostic vocabulary (see
:mod:`repro.analysis.diagnostics` for the full code registry, rendered
into ``docs/DIAGNOSTICS.md`` by :mod:`repro.analysis.docgen`):

* **Plan linter** (``PLAN*``/``SQL*``) -- verifies every documented
  structural invariant of join trees, the lattice, candidate-network
  output, and rendered SQL templates *statically*, including a sqlite
  prepare-only dry run of every template with no data loaded.
* **Repo linter** (``LINT*``) -- stdlib-``ast`` rules enforcing the
  determinism and typing invariants benchmarks rely on.
* **Concurrency & resource linters** (``CONC*``/``RES*``) -- lock
  discipline of the thread-shared probe-path classes and the owned
  lifecycle of pooled connections, sqlite handles, and artifact writes.
  The static rules are complemented by the *dynamic* lock-order
  detector (:mod:`repro.analysis.lockorder`, ``CONC005``) driven from
  the threaded test suites.

Findings can be silenced per line with ``# repro: noqa CODE``
(:mod:`repro.analysis.suppressions`); stale suppressions surface as
``LINT004`` warnings.  Entry points: ``repro lint [--json] [--select
FAMILIES]`` on the command line, :func:`repro.analysis.run_lint` from
code, and a pytest-collected check in ``tests/test_repo_lint.py`` that
keeps the tree clean in CI.
"""

from repro.analysis.concurrency import lint_concurrency_source
from repro.analysis.diagnostics import (
    CODE_FAMILIES,
    CODE_REGISTRY,
    LINT_REPORT_VERSION,
    Diagnostic,
    DiagnosticReport,
    LintReportValidationError,
    Severity,
    code_family,
    describe_codes,
    validate_lint_report,
)
from repro.analysis.lockorder import LockOrderMonitor
from repro.analysis.plan_linter import (
    lint_candidate_networks,
    lint_lattice,
    lint_tree,
)
from repro.analysis.repo_linter import lint_repo, lint_source
from repro.analysis.resources import lint_resources_source
from repro.analysis.runner import (
    LintOptions,
    dataset_schema,
    lint_built_lattice,
    lint_files,
    lint_schema_lattice,
    normalize_select,
    run_lint,
)
from repro.analysis.sql_linter import (
    SqlDryRunner,
    find_unquoted_reserved,
    lint_ddl,
    lint_lattice_probes,
    lint_lattice_templates,
    lint_statements,
)
from repro.analysis.suppressions import apply_suppressions, parse_suppressions

__all__ = [
    "CODE_FAMILIES",
    "CODE_REGISTRY",
    "LINT_REPORT_VERSION",
    "Diagnostic",
    "DiagnosticReport",
    "LintReportValidationError",
    "LockOrderMonitor",
    "Severity",
    "code_family",
    "describe_codes",
    "validate_lint_report",
    "lint_candidate_networks",
    "lint_concurrency_source",
    "lint_lattice",
    "lint_tree",
    "lint_repo",
    "lint_resources_source",
    "lint_source",
    "LintOptions",
    "dataset_schema",
    "lint_built_lattice",
    "lint_files",
    "lint_schema_lattice",
    "normalize_select",
    "run_lint",
    "SqlDryRunner",
    "find_unquoted_reserved",
    "lint_ddl",
    "lint_lattice_probes",
    "lint_lattice_templates",
    "lint_statements",
    "apply_suppressions",
    "parse_suppressions",
]
