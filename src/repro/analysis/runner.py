"""Orchestration for ``repro lint``: run every analysis layer in one call.

The runner is what the CLI and the pytest-collected check share.  A *plan*
run builds the configured dataset's lattice and verifies: lattice structure
(``PLAN*``), the mirror DDL, and a sqlite prepare dry-run of **every**
rendered node template and of every node's executed probe in both match
modes (``SQL*``).  A *repo* run applies the AST rules (``LINT*``) to the
source tree.  Results merge into one
:class:`~repro.analysis.diagnostics.DiagnosticReport`; a nonzero exit means
at least one error-severity finding.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.analysis.concurrency import lint_concurrency_source
from repro.analysis.diagnostics import (
    CODE_FAMILIES,
    DiagnosticReport,
    code_family,
)
from repro.analysis.plan_linter import lint_lattice
from repro.analysis.repo_linter import lint_source
from repro.analysis.resources import lint_resources_source
from repro.analysis.sql_linter import (
    lint_ddl,
    lint_lattice_probes,
    lint_lattice_templates,
)
from repro.analysis.suppressions import apply_suppressions
from repro.core.lattice import Lattice, generate_lattice
from repro.relational.schema import SchemaGraph

#: Families applied per source file by :func:`lint_files`.
FILE_FAMILIES: tuple[str, ...] = ("LINT", "CONC", "RES")
#: Families produced by the plan/SQL layer of :func:`run_lint`.
PLAN_FAMILIES: tuple[str, ...] = ("PLAN", "SQL")


def normalize_select(select: str | tuple[str, ...] | None) -> tuple[str, ...]:
    """Validate a ``--select`` value into a family tuple (None = all)."""
    if select is None:
        return CODE_FAMILIES
    if isinstance(select, str):
        parts = tuple(part.strip().upper() for part in select.split(",") if part.strip())
    else:
        parts = tuple(part.upper() for part in select)
    if not parts:
        return CODE_FAMILIES
    unknown = [part for part in parts if part not in CODE_FAMILIES]
    if unknown:
        raise ValueError(
            f"unknown code families {unknown!r}; "
            f"choose from {', '.join(CODE_FAMILIES)}"
        )
    return parts


@dataclass(frozen=True)
class LintOptions:
    """What ``repro lint`` should cover."""

    dataset: str = "products"
    level: int = 3
    check_plan: bool = True
    check_repo: bool = True
    src_root: str | None = None
    #: Code families to run/report (``None`` = all registered families).
    select: tuple[str, ...] | None = None


def dataset_schema(name: str) -> SchemaGraph:
    """The schema graph of a built-in dataset (no data generated)."""
    if name == "products":
        from repro.datasets.products import product_schema

        return product_schema()
    if name == "dblife":
        from repro.datasets.dblife import dblife_schema

        return dblife_schema()
    raise ValueError(f"unknown dataset {name!r}")


def lint_schema_lattice(
    schema: SchemaGraph, max_joins: int, distinct_slots: bool = True
) -> DiagnosticReport:
    """Plan + SQL lint for a freshly generated lattice over ``schema``."""
    lattice = generate_lattice(schema, max_joins, distinct_slots=distinct_slots)
    return lint_built_lattice(lattice)


def lint_built_lattice(lattice: Lattice) -> DiagnosticReport:
    """Plan + SQL lint for an already-built lattice."""
    report = lint_lattice(lattice)
    report.merge(lint_ddl(lattice.schema))
    report.merge(lint_lattice_templates(lattice))
    report.merge(lint_lattice_probes(lattice))
    return report


def lint_files(
    src_root: str | Path | None = None,
    select: str | tuple[str, ...] | None = None,
) -> DiagnosticReport:
    """Run the per-file passes (LINT/CONC/RES) over every module.

    One source read feeds every selected pass, then the file's
    ``# repro: noqa`` suppressions are applied (stale ones surface as
    ``LINT004`` warnings, scoped to the families that actually ran).
    """
    families = normalize_select(select)
    if src_root is None:
        # src/repro/analysis/runner.py -> src
        src_root = Path(__file__).resolve().parent.parent.parent
    root = Path(src_root)
    report = DiagnosticReport()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if "egg-info" in relative or "__pycache__" in relative:
            continue
        source = path.read_text(encoding="utf-8")
        found = []
        if "LINT" in families:
            found.extend(lint_source(source, relative))
        if "CONC" in families:
            found.extend(lint_concurrency_source(source, relative))
        if "RES" in families:
            found.extend(lint_resources_source(source, relative))
        report.extend(apply_suppressions(found, source, relative, families))
    return report


def run_lint(options: LintOptions | None = None) -> DiagnosticReport:
    """Execute the configured lint layers and merge their findings."""
    options = options or LintOptions()
    families = normalize_select(options.select)
    report = DiagnosticReport()
    if options.check_repo and any(f in families for f in FILE_FAMILIES):
        report.merge(lint_files(options.src_root, families))
    if options.check_plan and any(f in families for f in PLAN_FAMILIES):
        schema = dataset_schema(options.dataset)
        plan_report = lint_schema_lattice(schema, max_joins=options.level - 1)
        # The plan layer emits PLAN and SQL together; honor the selection.
        report.extend(
            diagnostic
            for diagnostic in plan_report
            if code_family(diagnostic.code) in families
        )
    return report
