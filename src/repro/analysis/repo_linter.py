"""Repo-wide AST lint: codebase invariants behind determinism and typing.

Three rules, all enforced with the stdlib ``ast`` module (no third-party
linter dependency):

``LINT001`` *nondeterministic-call* -- benchmarks must be deterministic and
resumable, so wall-clock reads (``time.time``, ``datetime.now``/``utcnow``)
and the process-global RNG (``random.random()``, ``random.choice()``, ...)
are banned outside ``repro.bench``.  Monotonic timers
(``time.perf_counter``) and explicitly seeded ``random.Random(seed)``
instances are always allowed -- they are how the rest of the codebase
measures time and generates data.

``LINT002`` *mutable-default-arg* -- a list/dict/set (literal or
constructor call) default is shared across calls; use ``None`` or a
dataclass ``field(default_factory=...)``.

``LINT003`` *missing-annotation* -- every public function or method in
the packages listed in :data:`ANNOTATION_REQUIRED` (core, relational,
backends, cache, obs, service) must annotate all parameters and its
return type, so the mypy-strict gate stays meaningful.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport

#: Path prefixes (relative to the package root, ``/``-separated) exempt
#: from the determinism rule: the bench harness stamps wall-clock metadata.
NONDETERMINISM_EXEMPT: tuple[str, ...] = ("repro/bench/",)

#: Packages whose public functions must be fully type-annotated.
ANNOTATION_REQUIRED: tuple[str, ...] = (
    "repro/core/",
    "repro/relational/",
    "repro/backends/",
    "repro/cache/",
    "repro/obs/",
    "repro/service/",
)

#: ``random`` module attributes that do NOT touch the global RNG.
_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})

_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set"})


def _is_exempt(relative: str, prefixes: tuple[str, ...]) -> bool:
    return any(relative.startswith(prefix) for prefix in prefixes)


def _call_target(node: ast.Call) -> tuple[str, str] | None:
    """``(module, attribute)`` for ``module.attribute(...)`` calls."""
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id, func.attr
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
        inner = func.value
        if isinstance(inner.value, ast.Name):
            # datetime.datetime.now(...) -> ("datetime.datetime", "now")
            return f"{inner.value.id}.{inner.attr}", func.attr
    return None


def _nondeterministic_calls(
    module: ast.Module, relative: str
) -> list[Diagnostic]:
    found: list[Diagnostic] = []

    def flag(node: ast.AST, what: str, hint: str) -> None:
        found.append(
            Diagnostic(
                "LINT001",
                f"{what} is nondeterministic",
                f"{relative}:{getattr(node, 'lineno', 0)}",
                hint=hint,
            )
        )

    for node in ast.walk(module):
        if isinstance(node, ast.Call):
            target = _call_target(node)
            if target is None:
                continue
            value, attribute = target
            if value == "time" and attribute == "time":
                flag(node, "time.time()", "use time.perf_counter() for timing")
            elif value == "random" and attribute not in _RANDOM_ALLOWED:
                flag(
                    node,
                    f"random.{attribute}()",
                    "use a seeded random.Random(seed) instance",
                )
            elif value in ("datetime", "datetime.datetime") and attribute in (
                "now",
                "utcnow",
                "today",
            ):
                flag(
                    node,
                    f"{value}.{attribute}()",
                    "pass timestamps in explicitly",
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time" and any(
                alias.name == "time" for alias in node.names
            ):
                flag(node, "from time import time", "import the module instead")
            elif node.module == "random" and any(
                alias.name not in _RANDOM_ALLOWED for alias in node.names
            ):
                flag(
                    node,
                    "from random import ...",
                    "import random and use random.Random(seed)",
                )
    return found


def _is_mutable_default(default: ast.expr) -> str | None:
    if isinstance(default, (ast.List, ast.Dict, ast.Set)):
        return {"List": "list", "Dict": "dict", "Set": "set"}[
            type(default).__name__
        ]
    if (
        isinstance(default, ast.Call)
        and isinstance(default.func, ast.Name)
        and default.func.id in _MUTABLE_CONSTRUCTORS
    ):
        return default.func.id
    return None


def _mutable_defaults(module: ast.Module, relative: str) -> list[Diagnostic]:
    found: list[Diagnostic] = []
    for node in ast.walk(module):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            kind = _is_mutable_default(default)
            if kind is not None:
                found.append(
                    Diagnostic(
                        "LINT002",
                        f"function {node.name!r} has a mutable {kind} default",
                        f"{relative}:{node.lineno}",
                        hint="default to None and create the value inside the function",
                    )
                )
    return found


def _missing_annotations(module: ast.Module, relative: str) -> list[Diagnostic]:
    """LINT003 over top-level functions and methods of top-level classes."""
    found: list[Diagnostic] = []

    def check(function: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if function.name.startswith("_"):
            return
        missing: list[str] = []
        arguments = function.args
        positional = arguments.posonlyargs + arguments.args
        for index, argument in enumerate(positional):
            if index == 0 and argument.arg in ("self", "cls"):
                continue
            if argument.annotation is None:
                missing.append(argument.arg)
        for argument in arguments.kwonlyargs:
            if argument.annotation is None:
                missing.append(argument.arg)
        if arguments.vararg is not None and arguments.vararg.annotation is None:
            missing.append(f"*{arguments.vararg.arg}")
        if arguments.kwarg is not None and arguments.kwarg.annotation is None:
            missing.append(f"**{arguments.kwarg.arg}")
        if function.returns is None:
            missing.append("return")
        if missing:
            found.append(
                Diagnostic(
                    "LINT003",
                    f"public function {function.name!r} is missing "
                    f"annotations for: {', '.join(missing)}",
                    f"{relative}:{function.lineno}",
                    hint="annotate every parameter and the return type",
                )
            )

    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            check(node)
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    check(member)
    return found


def lint_source(source: str, relative: str) -> list[Diagnostic]:
    """All repo-lint diagnostics for one module's source text.

    ``relative`` is the ``/``-separated path of the module below ``src``
    (e.g. ``repro/core/lattice.py``); it selects which rules apply.
    """
    module = ast.parse(source, filename=relative)
    found: list[Diagnostic] = []
    if not _is_exempt(relative, NONDETERMINISM_EXEMPT):
        found.extend(_nondeterministic_calls(module, relative))
    found.extend(_mutable_defaults(module, relative))
    if _is_exempt(relative, ANNOTATION_REQUIRED):
        found.extend(_missing_annotations(module, relative))
    return found


def lint_repo(src_root: str | Path | None = None) -> DiagnosticReport:
    """Lint every Python module under ``src_root`` (default: this install)."""
    if src_root is None:
        # src/repro/analysis/repo_linter.py -> src
        src_root = Path(__file__).resolve().parent.parent.parent
    root = Path(src_root)
    report = DiagnosticReport()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if "egg-info" in relative or "__pycache__" in relative:
            continue
        report.extend(lint_source(path.read_text(encoding="utf-8"), relative))
    return report
