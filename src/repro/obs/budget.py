"""Probe budgets: bounded-latency guarantees for the probe path.

A :class:`ProbeBudget` caps how much probing work one sweep may spend,
along any combination of three axes:

* ``max_queries`` -- number of probes that reach the backend (cache hits
  are free: answering from the reuse cache costs no SQL);
* ``max_simulated_seconds`` -- cumulative deterministic cost-model time,
  so budgeted figure runs are reproducible across machines;
* ``max_wall_seconds`` -- cumulative measured backend time.

The evaluator calls :meth:`admit` before each backend execution and
:meth:`charge` after it.  ``admit`` raises :class:`ProbeBudgetExhausted`
once a limit is reached; because the check happens *before* execution, a
budget of ``max_queries=N`` can never execute more than ``N`` queries.

A traversal probes serially, so the check-then-charge pair needs no
reservation.  Accounting still happens under an internal lock because
:meth:`abort` arrives from another thread: the service cancels a
running session through it.

Exhaustion is graceful by design: the traversal strategies catch the
exception, keep every classification already derived (those are exactly
what an unbudgeted run would report -- R1/R2 closure only ever records
implications of executed probes), and flag the result ``exhausted``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


class ProbeBudgetExhausted(RuntimeError):
    """A probe was refused because its :class:`ProbeBudget` is spent."""

    def __init__(self, budget: "ProbeBudget") -> None:
        super().__init__(f"probe budget exhausted: {budget.describe()}")
        self.budget = budget


@dataclass
class ProbeBudget:
    """Mutable accounting of probing work against fixed limits.

    A limit of ``None`` means "unlimited" along that axis; a budget with
    all limits ``None`` never refuses anything.  One budget instance is
    meant to cover one logical unit of work (a traversal run, a debug
    session); share it across evaluators to bound their combined effort.
    """

    max_queries: int | None = None
    max_simulated_seconds: float | None = None
    max_wall_seconds: float | None = None

    queries_used: int = field(default=0, init=False)
    simulated_used: float = field(default=0.0, init=False)
    wall_used: float = field(default=0.0, init=False)
    #: Number of probes refused by :meth:`admit` -- nonzero iff the
    #: budget actually bound some sweep.
    denied: int = field(default=0, init=False)
    #: Flipped by :meth:`abort`: every later admission is refused, so
    #: the sweep in progress stops at its next backend probe with the
    #: same graceful partial-result semantics as real exhaustion.  This
    #: is how the service layer cancels a running session without
    #: touching strategy control flow.
    aborted: bool = field(default=False, init=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.max_queries is not None and self.max_queries < 0:
            raise ValueError("max_queries must be >= 0")
        if self.max_simulated_seconds is not None and self.max_simulated_seconds < 0:
            raise ValueError("max_simulated_seconds must be >= 0")
        if self.max_wall_seconds is not None and self.max_wall_seconds < 0:
            raise ValueError("max_wall_seconds must be >= 0")

    # -------------------------------------------------------------- queries
    @property
    def unlimited(self) -> bool:
        return (
            self.max_queries is None
            and self.max_simulated_seconds is None
            and self.max_wall_seconds is None
        )

    def _exhausted_locked(self) -> bool:
        if self.aborted:
            return True
        if self.max_queries is not None and self.queries_used >= self.max_queries:
            return True
        if (
            self.max_simulated_seconds is not None
            and self.simulated_used >= self.max_simulated_seconds
        ):
            return True
        if (
            self.max_wall_seconds is not None
            and self.wall_used >= self.max_wall_seconds
        ):
            return True
        return False

    @property
    def exhausted(self) -> bool:
        """True when the *next* probe may not execute."""
        with self._lock:
            return self._exhausted_locked()

    @property
    def bound(self) -> bool:
        """True once a probe has actually been refused."""
        with self._lock:
            return self.denied > 0

    def remaining_queries(self) -> int | None:
        """Probes left before the query cap bites (``None`` = unlimited)."""
        if self.max_queries is None:
            return None
        with self._lock:
            return max(0, self.max_queries - self.queries_used)

    def _describe_locked(self) -> str:
        parts = []
        if self.aborted:
            parts.append("aborted")
        if self.max_queries is not None:
            parts.append(f"{self.queries_used}/{self.max_queries} queries")
        if self.max_simulated_seconds is not None:
            parts.append(
                f"{self.simulated_used:.3f}/{self.max_simulated_seconds:.3f} s simulated"
            )
        if self.max_wall_seconds is not None:
            parts.append(
                f"{self.wall_used:.3f}/{self.max_wall_seconds:.3f} s wall"
            )
        return ", ".join(parts) if parts else "unlimited"

    def describe(self) -> str:
        with self._lock:
            return self._describe_locked()

    # -------------------------------------------------------------- updates
    def admit(self) -> None:
        """Refuse (raise) if the next backend execution would bust a limit.

        An admitted probe that executes is followed by one :meth:`charge`;
        one that fails in the backend is never charged.

        The refusal decision (and the ``denied`` bump) happens atomically
        under the lock; the exception is raised after release because its
        constructor re-reads the budget through :meth:`describe`.
        """
        with self._lock:
            refused = self._exhausted_locked()
            if refused:
                self.denied += 1
        if refused:
            raise ProbeBudgetExhausted(self)

    def charge(
        self,
        queries: int = 1,
        wall_seconds: float = 0.0,
        simulated_seconds: float = 0.0,
    ) -> None:
        """Account one executed probe's cost."""
        with self._lock:
            self.queries_used += queries
            self.wall_used += wall_seconds
            self.simulated_used += simulated_seconds

    def abort(self) -> None:
        """Refuse every future admission (cooperative cancellation).

        A probe already executing finishes and is charged normally; the
        next :meth:`admit` raises :class:`ProbeBudgetExhausted`, which
        the traversal strategies already turn into a clean partial
        result.  Irreversible for this budget instance (by design: a
        cancelled unit of work must not resume spending).
        """
        with self._lock:
            self.aborted = True

    def reset(self) -> None:
        """Forget all spent work (limits stay); for budget-per-query reuse."""
        with self._lock:
            self.queries_used = 0
            self.simulated_used = 0.0
            self.wall_used = 0.0
            self.denied = 0

    def __str__(self) -> str:
        return f"ProbeBudget({self.describe()})"
