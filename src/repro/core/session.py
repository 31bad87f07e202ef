"""Interactive debugging sessions (§5, future work).

The paper notes that *"debugging is often an interactive process and it is
worth studying how to combine the search for MPANs with user intervention."*
A :class:`DebugSession` supports exactly that workflow: the developer sees
the list of candidate networks, classifies cheap ones on demand, asks for
explanations only where they care, and dismisses uninteresting candidates --
all over **one shared status store and evaluation cache**, so every action
benefits from everything learned before it (rules R1/R2 included).

Sessions inherit the debugger's persistent cache automatically: when the
:class:`NonAnswerDebugger` was opened with a ``cache_dir``, the session's
store starts from the saved facts of its graph's keys, whichever run
learned them (the same replay :meth:`~NonAnswerDebugger.debug` uses), and
its evaluator carries the store as the L2 tier, so classifying an
already-known or already-probed candidate costs zero SQL queries even in
a fresh process.  What the session learns is saved one fact per key, so
it serves any later run, constrained or not, whose graph shares a key.

Example::

    session = DebugSession(debugger, "saffron scented candle")
    for mtn in session.overview():          # no SQL yet
        print(mtn)
    session.classify(0)                     # 1 SQL query (or 0 if inferred)
    session.explain(0)                      # resolves just that search space
    session.dismiss(1)                      # never spend SQL on this one
    print(session.progress())
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constraints import UNCONSTRAINED, SearchConstraints
from repro.core.debugger import NonAnswerDebugger
from repro.core.status import Status
from repro.obs.budget import ProbeBudget, ProbeBudgetExhausted
from repro.obs.trace import ProbeTracer
from repro.relational.jointree import BoundQuery


class SessionError(RuntimeError):
    """Raised on invalid session operations (unknown or aborted queries)."""


@dataclass(frozen=True)
class MtnView:
    """One candidate network as shown to the interactive user."""

    position: int
    query: BoundQuery
    status: Status
    dismissed: bool
    explained: bool

    def __str__(self) -> str:
        flags = [self.status.value]
        if self.dismissed:
            flags.append("dismissed")
        if self.explained:
            flags.append("explained")
        return f"[{self.position}] {self.query.describe()} ({', '.join(flags)})"


class DebugSession:
    """Incremental, user-driven exploration of one keyword query."""

    def __init__(
        self,
        debugger: NonAnswerDebugger,
        query: str,
        constraints: SearchConstraints = UNCONSTRAINED,
        budget: ProbeBudget | None = None,
        tracer: ProbeTracer | None = None,
    ):
        self.debugger = debugger
        self.query = query
        # The state the session computes on: it saves only while still live.
        self._snapshot = (
            debugger.database.snapshot() if debugger.cache is not None else None
        )
        mapping = debugger.map_keywords(query)
        if not mapping.complete or not mapping.keywords:
            missing = ", ".join(mapping.missing_keywords) or "(empty query)"
            raise SessionError(
                f"cannot open a session: keywords not in the database: {missing}"
            )
        self.mapping = mapping
        self.graph = debugger.build_graph(debugger.prune(mapping), constraints)
        self.budget = budget
        self.evaluator = debugger.make_evaluator(
            use_cache=True, budget=budget, tracer=tracer
        )
        # Warm start: the base levels plus the saved facts (exact, or
        # surviving a mutation) through R1/R2 closure, so previously
        # learned statuses cost zero SQL this session.
        self._keys = debugger.node_keys(self.graph)
        self.store, self.preloaded = debugger.replay_status(
            self.graph, self._keys, tracer=tracer
        )
        self._dismissed: set[int] = set()
        self._explained: dict[int, list[int]] = {}
        # Flipped when the budget refuses a probe; every action after that
        # degrades to "report what is already known" instead of failing.
        self.exhausted = False
        self._closed = False

    # -------------------------------------------------------------- reading
    def overview(self) -> list[MtnView]:
        """All candidate networks with their current knowledge (no SQL)."""
        views = []
        for position, mtn_index in enumerate(self.graph.mtn_indexes):
            views.append(
                MtnView(
                    position,
                    self.graph.node(mtn_index).query,
                    self.store.status(mtn_index),
                    mtn_index in self._dismissed,
                    mtn_index in self._explained,
                )
            )
        return views

    def progress(self) -> str:
        classified = sum(
            1
            for mtn_index in self.graph.mtn_indexes
            if self.store.is_known(mtn_index)
        )
        suffix = " [budget exhausted]" if self.exhausted else ""
        return (
            f"{classified}/{len(self.graph.mtn_indexes)} candidate networks "
            f"classified, {len(self._explained)} explained, "
            f"{len(self._dismissed)} dismissed; {self.evaluator.stats}{suffix}"
        )

    def _mtn_index(self, position: int) -> int:
        try:
            return self.graph.mtn_indexes[position]
        except IndexError:
            raise SessionError(
                f"no candidate network #{position}; the session has "
                f"{len(self.graph.mtn_indexes)}"
            ) from None

    # -------------------------------------------------------------- actions
    def classify(self, position: int) -> Status:
        """Classify one candidate network with the least possible work.

        Costs one SQL query unless its status is already implied by earlier
        answers (shared store) or by the evaluation cache.  When the probe
        budget is exhausted the candidate stays ``POSSIBLY_ALIVE`` and the
        session is flagged :attr:`exhausted` instead of raising.
        """
        mtn_index = self._mtn_index(position)
        if not self.store.is_known(mtn_index):
            try:
                alive = self.evaluator.is_alive(self.graph.node(mtn_index).query)
            except ProbeBudgetExhausted:
                self.exhausted = True
                return self.store.status(mtn_index)
            self.store.record(mtn_index, alive)
        return self.store.status(mtn_index)

    def explain(self, position: int) -> list[BoundQuery]:
        """MPANs of one candidate network, resolving only its search space.

        Alive candidates have no explanation (they *are* answers) and return
        an empty list.  The resolution sweeps the candidate's descendants
        top-down through the shared store, so overlapping spaces of other
        candidates get classified for free.  If the probe budget runs out
        mid-resolution the partial knowledge is kept in the shared store,
        nothing is cached as "explained", and an empty list is returned --
        a later call with a fresh budget picks up where this one stopped.
        """
        mtn_index = self._mtn_index(position)
        if self.classify(position) is not Status.DEAD:
            return []
        if mtn_index not in self._explained:
            domain = self.graph.desc_plus(mtn_index)
            try:
                for level in range(self.graph.node(mtn_index).level - 1, 0, -1):
                    unknown = self.store.unknown_mask & domain
                    if not unknown:
                        break
                    for index in self.graph.level_indexes(level):
                        if (unknown >> index) & 1 and not self.store.is_known(index):
                            alive = self.evaluator.is_alive(
                                self.graph.node(index).query
                            )
                            self.store.record(index, alive)
            except ProbeBudgetExhausted:
                self.exhausted = True
                return []
            self._explained[mtn_index] = self.store.mpans_of(mtn_index)
        return [
            self.graph.node(index).query for index in self._explained[mtn_index]
        ]

    def dismiss(self, position: int) -> None:
        """Mark a candidate as uninteresting; bulk operations skip it."""
        self._dismissed.add(self._mtn_index(position))

    def explain_all(self) -> dict[int, list[BoundQuery]]:
        """Explain every non-dismissed candidate network.

        Stops early (with whatever was completed) once the probe budget is
        exhausted; :attr:`exhausted` tells the caller the dict is partial.
        """
        explanations = {}
        for position, mtn_index in enumerate(self.graph.mtn_indexes):
            if mtn_index in self._dismissed:
                continue
            if self.exhausted:
                break
            mpans = self.explain(position)
            if (
                self.store.status(mtn_index) is Status.DEAD
                and mtn_index in self._explained
            ):
                explanations[position] = mpans
        # Persist what this session learned, resolved or not.
        self.debugger.save_status(self.graph, self._keys, [self.store], self._snapshot)
        return explanations

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """End the session, persisting everything it learned.

        Partial knowledge is saved too -- any later run whose graph
        shares a key starts from it (the facts that survive the writes
        since, replayed through R1/R2), and
        :meth:`NonAnswerDebugger.debug` skips Phase 3 on it once it
        resolves the graph.  Nothing is saved once a write has replaced
        the database state the session opened on: what it learned before
        may no longer hold.  Idempotent, and safe after
        :meth:`explain_all` (each key keeps its newest fact).  The
        session borrows the debugger's backend and caches, so nothing
        else needs releasing here.
        """
        if self._closed:
            return
        self._closed = True
        self.debugger.save_status(self.graph, self._keys, [self.store], self._snapshot)

    def __enter__(self) -> "DebugSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
