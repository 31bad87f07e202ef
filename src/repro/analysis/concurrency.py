"""Static lock-discipline lint (``CONC001``-``CONC004``).

One run probes serially, but the service runs sessions concurrently --
session threads share the :class:`~repro.backends.pool.ConnectionPool`,
the persistent :class:`~repro.cache.ProbeCache`, and the status store,
a session's :class:`~repro.obs.budget.ProbeBudget` is aborted from
another thread, and its :class:`~repro.obs.trace.ProbeTracer` is read
while it records -- so the lock discipline those classes document must
hold *everywhere*, not just on the paths the threaded
tests happen to exercise.  This pass enforces it with the stdlib ``ast``
module (same zero-dependency footing as :mod:`repro.analysis.repo_linter`):

**Thread-shared classes.**  A class counts as thread-shared when its body
constructs a ``threading`` synchronisation primitive (``Lock``, ``RLock``,
``Condition``, ``Semaphore``, ...), ``threading.local``, or a
``ThreadPoolExecutor`` -- including dataclass fields declared with
``field(default_factory=threading.Lock)``.  ``threading.Condition(self._x)``
marks both the condition attribute and the wrapped lock.

**Guarded attributes** of such a class are inferred: every attribute
*stored* inside a ``with self.<lock>:`` block or inside a ``*_locked``
method (outside ``__init__``/``__post_init__``) is guarded, plus any
attribute explicitly annotated ``# guarded-by: <lock>`` on (or directly
above) its initialisation line -- the escape hatch for attributes that
are only ever *mutated in place* (``self._in_use[k] = v``), which a
store-based inference cannot see.

Rules:

* ``CONC001`` -- a guarded attribute is read or written outside the lock
  (contexts that run before the object is shared -- ``__init__``,
  ``__post_init__`` -- or that are documentation-only -- ``__repr__``,
  ``__del__`` -- are exempt, as are ``*_locked`` methods, whose suffix is
  the contract that the caller holds the lock).
* ``CONC002`` -- a bare ``lock.acquire()`` not immediately followed by a
  ``try/finally`` that releases: an exception leaves the lock held.
* ``CONC003`` -- ``Condition.wait()`` outside a ``while`` predicate loop:
  spurious wakeups and stolen notifications then corrupt state.
* ``CONC004`` -- a ``*_locked`` method called without the lock held.

The held-lock tracking is intentionally coarse -- *some* lock of the
class is held, not *which* -- because every thread-shared class in this
codebase has exactly one lock (possibly wrapped in one condition).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic

#: ``threading`` constructors that are acquirable locks.
_LOCK_CONSTRUCTORS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)
#: Methods that run before the object escapes to other threads, or that
#: are debugging aids; CONC001/CONC004 do not apply inside them.
_EXEMPT_METHODS = frozenset({"__init__", "__post_init__", "__del__", "__repr__"})

_GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*(\w+)")
_SELF_ATTR_RE = re.compile(r"self\.(\w+)\s*[:=\[]")


@dataclass
class _ClassModel:
    """What the first pass learns about one class."""

    name: str
    node: ast.ClassDef
    thread_shared: bool = False
    #: Acquirable lock attributes (``with self.<attr>:`` counts as held).
    lock_attrs: set[str] = field(default_factory=set)
    #: The subset of ``lock_attrs`` that are ``threading.Condition``s.
    condition_attrs: set[str] = field(default_factory=set)
    guarded_attrs: set[str] = field(default_factory=set)


def _threading_attr(call: ast.Call) -> str | None:
    """``X`` for ``threading.X(...)`` calls, else None."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "threading"
    ):
        return func.attr
    return None


def _is_self_attr(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _field_default_factory(call: ast.Call) -> str | None:
    """``X`` for ``field(default_factory=threading.X)`` calls, else None."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "field"):
        return None
    for keyword in call.keywords:
        if keyword.arg != "default_factory":
            continue
        value = keyword.value
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "threading"
        ):
            return value.attr
    return None


def _classify_primitives(model: _ClassModel) -> None:
    """Find lock/condition attributes and decide thread-sharedness."""
    for node in ast.walk(model.node):
        if not isinstance(node, ast.Call):
            continue
        ctor = _threading_attr(node)
        factory = _field_default_factory(node)
        if ctor in _LOCK_CONSTRUCTORS or ctor == "local" or factory:
            model.thread_shared = True
        if isinstance(node.func, ast.Name) and node.func.id == "ThreadPoolExecutor":
            model.thread_shared = True
    # Attribute-level classification needs the assignment targets.
    for item in model.node.body:
        # Dataclass field: ``_lock: ... = field(default_factory=threading.Lock)``
        if (
            isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and isinstance(item.value, ast.Call)
        ):
            factory = _field_default_factory(item.value)
            if factory in _LOCK_CONSTRUCTORS:
                model.lock_attrs.add(item.target.id)
                if factory == "Condition":
                    model.condition_attrs.add(item.target.id)
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(item):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            ctor = _threading_attr(value)
            if ctor not in _LOCK_CONSTRUCTORS:
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                attr = _is_self_attr(target)
                if attr is None:
                    continue
                model.lock_attrs.add(attr)
                if ctor == "Condition":
                    model.condition_attrs.add(attr)
                    # Condition(self._x) wraps (and acquires) that lock.
                    for argument in value.args:
                        wrapped = _is_self_attr(argument)
                        if wrapped is not None:
                            model.lock_attrs.add(wrapped)


def _with_takes_lock(stmt: ast.With, lockish: set[str]) -> bool:
    for item in stmt.items:
        attr = _is_self_attr(item.context_expr)
        if attr is not None and attr in lockish:
            return True
    return False


def _walk_held(
    node: ast.AST, held: bool, lockish: set[str], visit: "_Visitor"
) -> None:
    """Generic traversal threading a *lock currently held* flag."""
    if isinstance(node, ast.With) and _with_takes_lock(node, lockish):
        for item in node.items:
            _walk_held(item, held, lockish, visit)
        for stmt in node.body:
            _walk_held(stmt, True, lockish, visit)
        return
    visit(node, held)
    for child in ast.iter_child_nodes(node):
        _walk_held(child, held, lockish, visit)


class _Visitor:
    def __call__(self, node: ast.AST, held: bool) -> None:  # pragma: no cover
        raise NotImplementedError


def _infer_guarded(model: _ClassModel) -> None:
    """Stores under the lock (or in ``*_locked`` methods) are guarded."""
    lockish = model.lock_attrs

    class Collect(_Visitor):
        def __call__(self, node: ast.AST, held: bool) -> None:
            if not held:
                return
            attr = _is_self_attr(node)
            if (
                attr is not None
                and isinstance(node, ast.Attribute)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and attr not in lockish
            ):
                model.guarded_attrs.add(attr)

    collect = Collect()
    for item in model.node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if item.name in ("__init__", "__post_init__"):
            continue
        initially_held = item.name.endswith("_locked")
        for stmt in item.body:
            _walk_held(stmt, initially_held, lockish, collect)


def _annotated_guarded(model: _ClassModel, lines: list[str]) -> None:
    """Collect ``# guarded-by: <lock>`` annotations in the class range.

    The annotated attribute is taken from the same line (inline comment)
    or, failing that, from the line directly below (comment-above idiom).
    """
    end = model.node.end_lineno or model.node.lineno
    for lineno in range(model.node.lineno, end + 1):
        line = lines[lineno - 1]
        if not _GUARDED_BY_RE.search(line):
            continue
        for candidate in (line, lines[lineno] if lineno < len(lines) else ""):
            match = _SELF_ATTR_RE.search(candidate)
            if match is None:
                # Dataclass field annotated at class level: ``x: T = ...``.
                match = re.match(r"\s*(\w+)\s*:", candidate)
            if match is not None:
                attr = match.group(1)
                if attr not in model.lock_attrs:
                    model.guarded_attrs.add(attr)
                break


def _check_class(
    model: _ClassModel, relative: str, found: list[Diagnostic]
) -> None:
    lockish = model.lock_attrs

    def check_method(method: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        exempt = method.name in _EXEMPT_METHODS
        initially_held = method.name.endswith("_locked")

        class Check(_Visitor):
            def __call__(self, node: ast.AST, held: bool) -> None:
                if held or exempt:
                    return
                if isinstance(node, ast.Attribute):
                    attr = _is_self_attr(node)
                    if attr in model.guarded_attrs:
                        found.append(
                            Diagnostic(
                                "CONC001",
                                f"attribute {attr!r} of thread-shared class "
                                f"{model.name!r} is accessed outside its lock "
                                f"(in {method.name!r})",
                                f"{relative}:{node.lineno}",
                                hint="wrap the access in 'with self."
                                + (sorted(lockish)[0] if lockish else "_lock")
                                + ":' or move it into a *_locked helper",
                            )
                        )
                if isinstance(node, ast.Call):
                    callee = node.func
                    attr = _is_self_attr(callee)
                    if attr is not None and attr.endswith("_locked"):
                        found.append(
                            Diagnostic(
                                "CONC004",
                                f"method {attr!r} called without the lock "
                                f"held (in {method.name!r} of {model.name!r})",
                                f"{relative}:{node.lineno}",
                                hint="the *_locked suffix is a contract that "
                                "the caller already holds the lock",
                            )
                        )

        for stmt in method.body:
            _walk_held(stmt, initially_held, lockish, Check())

    for item in model.node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            check_method(item)


def _check_wait_in_loop(
    cls: ast.ClassDef,
    condition_attrs: set[str],
    relative: str,
    found: list[Diagnostic],
) -> None:
    """CONC003: ``self.<condition>.wait()`` needs an enclosing ``while``."""
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(cls):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    for node in ast.walk(cls):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr != "wait":
            continue
        receiver = _is_self_attr(node.func.value)
        if receiver is None or receiver not in condition_attrs:
            continue
        ancestor = parents.get(node)
        in_while = False
        while ancestor is not None:
            if isinstance(ancestor, ast.While):
                in_while = True
                break
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
            ancestor = parents.get(ancestor)
        if not in_while:
            found.append(
                Diagnostic(
                    "CONC003",
                    f"Condition {receiver!r}.wait() is not inside a "
                    f"predicate re-check loop",
                    f"{relative}:{node.lineno}",
                    hint="call wait() inside 'while not predicate:' "
                    "(or use wait_for)",
                )
            )


def _check_bare_acquires(
    module: ast.Module, relative: str, found: list[Diagnostic]
) -> None:
    """CONC002: ``x.acquire()`` must be followed by try/finally release."""

    def releases(statements: list[ast.stmt]) -> bool:
        for stmt in statements:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "release"
                ):
                    return True
        return False

    def is_acquire(stmt: ast.stmt) -> ast.Call | None:
        value = None
        if isinstance(stmt, ast.Expr):
            value = stmt.value
        elif isinstance(stmt, ast.Assign):
            value = stmt.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "acquire"
        ):
            return value
        return None

    for node in ast.walk(module):
        for fieldname in ("body", "orelse", "finalbody"):
            body = getattr(node, fieldname, None)
            if not isinstance(body, list):
                continue
            for index, stmt in enumerate(body):
                call = is_acquire(stmt)
                if call is None:
                    continue
                following = body[index + 1] if index + 1 < len(body) else None
                if isinstance(following, ast.Try) and releases(
                    following.finalbody
                ):
                    continue
                found.append(
                    Diagnostic(
                        "CONC002",
                        "bare acquire() without a try/finally release",
                        f"{relative}:{call.lineno}",
                        hint="prefer 'with lock:'; else follow acquire() "
                        "immediately with try/finally release()",
                    )
                )


def lint_concurrency_source(source: str, relative: str) -> list[Diagnostic]:
    """All ``CONC00x`` (static) diagnostics for one module's source text."""
    module = ast.parse(source, filename=relative)
    lines = source.splitlines()
    found: list[Diagnostic] = []
    _check_bare_acquires(module, relative, found)
    for item in module.body:
        if not isinstance(item, ast.ClassDef):
            continue
        model = _ClassModel(item.name, item)
        _classify_primitives(model)
        if not model.thread_shared:
            continue
        _infer_guarded(model)
        _annotated_guarded(model, lines)
        _check_class(model, relative, found)
        _check_wait_in_loop(item, model.condition_attrs, relative, found)
    found.sort(key=lambda diagnostic: diagnostic.location)
    return found
