"""The diagnostic framework shared by every linter layer.

A :class:`Diagnostic` is one finding: a stable machine-readable *code*
(``PLAN001``, ``SQL002``, ``LINT003``, ...), a :class:`Severity`, a
human-readable message, the *location* the finding anchors to (a lattice
node, a SQL template, a ``file:line``), and an optional fix hint.
:class:`DiagnosticReport` aggregates findings across passes and renders
them for terminals (``repro lint``) or machines (``repro lint --json``).

The code registry below is the single source of truth for which codes
exist; :func:`describe_codes` backs the README table and ``--explain``
style tooling, and the tests assert every emitted code is registered.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, NamedTuple


class Severity(enum.Enum):
    """How bad a finding is.  ``ERROR`` findings fail the build."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


class CodeInfo(NamedTuple):
    """Registry entry: kebab-case slug, one-line summary, remediation note.

    A ``NamedTuple`` so positional access (``CODE_REGISTRY[code][0]``)
    keeps working for callers that predate the remediation field.
    """

    slug: str
    summary: str
    remediation: str


#: Code families, in registry (and documentation) order.  The family of a
#: code is its alphabetic prefix; ``repro lint --select`` filters on it.
CODE_FAMILIES: tuple[str, ...] = ("PLAN", "SQL", "LINT", "CONC", "RES")


def code_family(code: str) -> str:
    """The alphabetic family prefix of ``code`` (``CONC003`` -> ``CONC``)."""
    return code.rstrip("0123456789")


#: Registry of every diagnostic code.  Single source of truth: the docs
#: generator renders it into ``docs/DIAGNOSTICS.md`` and the tests assert
#: every emitted code is registered.
CODE_REGISTRY: dict[str, CodeInfo] = {
    "PLAN001": CodeInfo(
        "dangling-join-edge",
        "a join edge references a foreign key the schema does not declare "
        "(unknown name, wrong relations/columns, or an endpoint outside the "
        "tree)",
        "only build edges from SchemaGraph.foreign_keys; regenerate the "
        "lattice instead of hand-editing plans",
    ),
    "PLAN002": CodeInfo(
        "disconnected-tree",
        "a plan's instances and edges do not form one connected acyclic tree",
        "grow plans one FK edge at a time from a single seed instance so "
        "connectivity holds by construction",
    ),
    "PLAN003": CodeInfo(
        "type-mismatched-join",
        "a join equates columns of different declared types, or joins on a "
        "searchable text column",
        "join only on declared key/foreign-key column pairs of matching type",
    ),
    "PLAN004": CodeInfo(
        "duplicate-slot",
        "two relation instances occupy the same keyword slot, so at most one "
        "can ever be bound",
        "assign distinct copy indexes when instantiating the same relation "
        "twice (distinct_slots=True)",
    ),
    "PLAN005": CodeInfo(
        "unbound-keyword-slot",
        "a keyword slot that no keyword can bind: its copy index exceeds the "
        "lattice's max_keywords, or the instance is outside the "
        "interpretation's bound set",
        "cap copy indexes at max_keywords and only bind instances retained "
        "by the interpretation",
    ),
    "PLAN006": CodeInfo(
        "non-minimal-network",
        "a candidate network has a free leaf, which could be dropped without "
        "losing any keyword",
        "prune free leaves before emitting candidate networks (minimality "
        "rule of DISCOVER-style enumeration)",
    ),
    "SQL001": CodeInfo(
        "unquoted-reserved-identifier",
        "a rendered SQL statement uses a reserved word as a bare identifier",
        "route every schema identifier through quote_identifier()",
    ),
    "SQL002": CodeInfo(
        "template-fails-sqlite-prepare",
        "a rendered SQL statement (mirror DDL, node template or executed "
        "probe) does not compile under sqlite's prepare step (dry run "
        "with no data loaded)",
        "fix the rendering site; the hint carries the generated SQL and "
        "sqlite's compile error",
    ),
    "LINT001": CodeInfo(
        "nondeterministic-call",
        "wall-clock or global-RNG call (time.time, datetime.now, random.*) "
        "outside repro.bench; breaks benchmark determinism and resumability",
        "use time.perf_counter() for timing and a seeded random.Random "
        "instance for data generation",
    ),
    "LINT002": CodeInfo(
        "mutable-default-arg",
        "a function declares a mutable default argument (list/dict/set "
        "literal or constructor)",
        "default to None and create the value inside the function, or use "
        "dataclasses.field(default_factory=...)",
    ),
    "LINT003": CodeInfo(
        "missing-annotation",
        "a public function in an annotation-required package lacks "
        "parameter or return type annotations",
        "annotate every parameter and the return type; the mypy-strict "
        "gate depends on it",
    ),
    "LINT004": CodeInfo(
        "unused-suppression",
        "a '# repro: noqa CODE' comment suppresses nothing on its line",
        "delete the stale suppression (or fix the code it names if the "
        "finding was expected)",
    ),
    "CONC001": CodeInfo(
        "unguarded-shared-access",
        "an attribute guarded by a lock (inferred from 'with self._lock:' "
        "writes or declared via '# guarded-by: _lock') is read or written "
        "outside the lock in a thread-shared class",
        "wrap the access in 'with self._lock:', move it into a "
        "'*_locked' helper called under the lock, or add a justified "
        "inline 'repro: noqa' suppression",
    ),
    "CONC002": CodeInfo(
        "acquire-without-release",
        "a bare lock.acquire() has no try/finally that calls release(), so "
        "an exception leaves the lock held forever",
        "prefer 'with lock:'; if acquire() is unavoidable, follow it "
        "immediately with try/finally release()",
    ),
    "CONC003": CodeInfo(
        "wait-outside-loop",
        "Condition.wait() is called outside a predicate re-check loop; "
        "spurious wakeups and stolen notifications then corrupt state",
        "call wait() inside 'while not predicate:' (or use wait_for)",
    ),
    "CONC004": CodeInfo(
        "locked-method-unlocked-call",
        "a '*_locked'-suffixed method is called without the lock held "
        "(outside any 'with self._lock:' block or '*_locked' caller)",
        "take the lock at the call site; the suffix is a contract that the "
        "caller already holds it",
    ),
    "CONC005": CodeInfo(
        "lock-order-inversion",
        "the dynamic lock-order detector observed two locks acquired in "
        "both orders on different threads (a potential deadlock cycle)",
        "impose one global acquisition order, or release the first lock "
        "before taking the second",
    ),
    "RES001": CodeInfo(
        "pool-checkout-leak",
        "a pool checkout() has no try/finally that checks the connection "
        "back in, so an exception path leaks a pooled connection",
        "use 'with pool.connection():'; if checkout() is unavoidable, pair "
        "it with checkin() in a finally block",
    ),
    "RES002": CodeInfo(
        "sqlite-handle-leak",
        "a sqlite3 connection or cursor is created without a managed "
        "lifecycle (no close() on all paths, no owning class close())",
        "close the handle in a finally block, store it on a class that "
        "closes it, or return it to a caller that owns its lifecycle",
    ),
    "RES003": CodeInfo(
        "non-atomic-artifact-write",
        "a file is opened for writing outside the atomic-write helpers; a "
        "crash mid-write leaves a truncated artifact",
        "write through repro.ioutil.atomic_write_text (same-directory "
        "temp file + os.replace)",
    ),
}


def describe_codes() -> list[tuple[str, str, str]]:
    """``(code, slug, summary)`` rows for every registered diagnostic."""
    return [
        (code, info.slug, info.summary) for code, info in CODE_REGISTRY.items()
    ]


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a linter pass."""

    code: str
    message: str
    location: str
    severity: Severity = Severity.ERROR
    hint: str | None = None

    def __post_init__(self) -> None:
        if self.code not in CODE_REGISTRY:
            raise ValueError(f"unregistered diagnostic code: {self.code!r}")

    @property
    def slug(self) -> str:
        """The kebab-case name of this diagnostic's code."""
        return CODE_REGISTRY[self.code][0]

    def render(self) -> str:
        line = f"{self.severity}: {self.code} [{self.slug}] {self.location}: {self.message}"
        if self.hint:
            line += f"\n    hint: {self.hint}"
        return line

    def to_dict(self) -> dict[str, str | None]:
        return {
            "code": self.code,
            "slug": self.slug,
            "severity": str(self.severity),
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics from one or more passes."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def merge(self, other: "DiagnosticReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    # ---------------------------------------------------------------- query
    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    @property
    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    @property
    def ok(self) -> bool:
        """True when nothing error-severity was found."""
        return not self.errors()

    # --------------------------------------------------------------- output
    def render(self, max_items: int | None = None) -> str:
        if not self.diagnostics:
            return "no diagnostics"
        shown = self.diagnostics[:max_items] if max_items else self.diagnostics
        lines = [d.render() for d in shown]
        hidden = len(self.diagnostics) - len(shown)
        if hidden > 0:
            lines.append(f"... and {hidden} more")
        lines.append(
            f"{len(self.errors())} error(s), {len(self.warnings())} warning(s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        return {
            "version": LINT_REPORT_VERSION,
            "ok": self.ok,
            "errors": len(self.errors()),
            "warnings": len(self.warnings()),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# ------------------------------------------------- lint-report JSON schema
#: Version stamped on every ``repro lint --json`` payload.
LINT_REPORT_VERSION = 1

#: Required top-level fields of a ``--json`` report: name -> accepted types.
LINT_REPORT_SCHEMA: dict[str, tuple[type, ...]] = {
    "version": (int,),
    "ok": (bool,),
    "errors": (int,),
    "warnings": (int,),
    "diagnostics": (list,),
}

#: Required fields of each entry in ``diagnostics`` (``hint`` may be None).
LINT_DIAGNOSTIC_SCHEMA: dict[str, tuple[type, ...]] = {
    "code": (str,),
    "slug": (str,),
    "severity": (str,),
    "location": (str,),
    "message": (str,),
}


class LintReportValidationError(ValueError):
    """A ``repro lint --json`` payload does not match the schema."""


def validate_lint_report(payload: Any) -> dict[str, int]:
    """Validate a decoded ``repro lint --json`` payload.

    Mirrors :func:`repro.obs.trace.validate_trace_record`: field presence
    and types are checked structurally, then the cross-field invariants
    (severity partition counts, registered codes, matching slugs, the
    ``ok`` flag) are enforced.  Returns ``{"errors": n, "warnings": m}``.
    """
    if not isinstance(payload, dict):
        raise LintReportValidationError(f"report is not an object: {payload!r}")
    for name, types in LINT_REPORT_SCHEMA.items():
        if name not in payload:
            raise LintReportValidationError(f"report missing field {name!r}")
        value = payload[name]
        if isinstance(value, bool) and bool not in types:
            raise LintReportValidationError(
                f"report field {name!r} has wrong type bool"
            )
        if not isinstance(value, types):
            raise LintReportValidationError(
                f"report field {name!r} has wrong type {type(value).__name__}"
            )
    if payload["version"] != LINT_REPORT_VERSION:
        raise LintReportValidationError(
            f"unsupported report version {payload['version']!r}"
        )
    severities = {"error": 0, "warning": 0}
    for index, entry in enumerate(payload["diagnostics"]):
        where = f"diagnostics[{index}]"
        if not isinstance(entry, dict):
            raise LintReportValidationError(f"{where} is not an object")
        for name, types in LINT_DIAGNOSTIC_SCHEMA.items():
            if name not in entry:
                raise LintReportValidationError(
                    f"{where} missing field {name!r}"
                )
            if not isinstance(entry[name], types) or isinstance(
                entry[name], bool
            ):
                raise LintReportValidationError(
                    f"{where} field {name!r} has wrong type "
                    f"{type(entry[name]).__name__}"
                )
        if "hint" in entry and entry["hint"] is not None:
            if not isinstance(entry["hint"], str):
                raise LintReportValidationError(
                    f"{where} field 'hint' has wrong type"
                )
        code = entry["code"]
        if code not in CODE_REGISTRY:
            raise LintReportValidationError(f"{where}: unregistered code {code!r}")
        if entry["slug"] != CODE_REGISTRY[code].slug:
            raise LintReportValidationError(
                f"{where}: slug {entry['slug']!r} does not match code {code}"
            )
        if entry["severity"] not in severities:
            raise LintReportValidationError(
                f"{where}: unknown severity {entry['severity']!r}"
            )
        severities[entry["severity"]] += 1
    if payload["errors"] != severities["error"]:
        raise LintReportValidationError(
            f"errors={payload['errors']} but {severities['error']} "
            f"error-severity diagnostics listed"
        )
    if payload["warnings"] != severities["warning"]:
        raise LintReportValidationError(
            f"warnings={payload['warnings']} but {severities['warning']} "
            f"warning-severity diagnostics listed"
        )
    if payload["ok"] != (severities["error"] == 0):
        raise LintReportValidationError(
            "ok flag contradicts the error count"
        )
    return {"errors": severities["error"], "warnings": severities["warning"]}
