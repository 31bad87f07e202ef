"""Node status bookkeeping with the paper's classification rules.

* **R1**: a node is alive ⇒ all of its descendants are alive.
* **R2**: a node is dead ⇒ all of its ancestors are dead.

The store keeps two bitsets over an :class:`ExplorationGraph` and applies
R1/R2 closure on every explicit classification, so "possibly alive" nodes
(the paper's term for unclassified nodes) are exactly the bits set in
neither mask.
"""

from __future__ import annotations

import enum

from repro.core.mtn import ExplorationGraph


class Status(enum.Enum):
    POSSIBLY_ALIVE = "possibly_alive"
    ALIVE = "alive"
    DEAD = "dead"


class InconsistentStatusError(RuntimeError):
    """A node was classified both alive and dead.

    This can only happen if the evaluation backend violates monotonicity
    (a sub-query empty while a super-query is not), so it indicates a bug in
    the backend, never in the traversal.
    """


class StatusStore:
    """Alive/dead bitsets with R1/R2 closure over an exploration graph."""

    def __init__(self, graph: ExplorationGraph, domain: int | None = None):
        self.graph = graph
        # Restrict bookkeeping to ``domain`` (a bitset) for per-MTN runs of
        # the non-reuse strategies; None means the whole graph.
        self.domain = domain if domain is not None else (1 << len(graph)) - 1
        self.alive_mask = 0
        self.dead_mask = 0
        self.evaluated_mask = 0

    # ------------------------------------------------------------ updates
    def mark_alive(self, index: int, evaluated: bool) -> None:
        """Record aliveness; R1 marks all descendants alive too."""
        added = (self.graph.desc_plus(index)) & self.domain
        if added & self.dead_mask:
            raise InconsistentStatusError(
                f"node {index} alive but a descendant is dead"
            )
        self.alive_mask |= added
        if evaluated:
            self.evaluated_mask |= 1 << index

    def mark_dead(self, index: int, evaluated: bool) -> None:
        """Record deadness; R2 marks all ancestors dead too."""
        added = (self.graph.asc_plus(index)) & self.domain
        if added & self.alive_mask:
            raise InconsistentStatusError(
                f"node {index} dead but an ancestor is alive"
            )
        self.dead_mask |= added
        if evaluated:
            self.evaluated_mask |= 1 << index

    def record(self, index: int, alive: bool, evaluated: bool = True) -> None:
        if alive:
            self.mark_alive(index, evaluated)
        else:
            self.mark_dead(index, evaluated)

    # ------------------------------------------------------------- queries
    def status(self, index: int) -> Status:
        bit = 1 << index
        if self.alive_mask & bit:
            return Status.ALIVE
        if self.dead_mask & bit:
            return Status.DEAD
        return Status.POSSIBLY_ALIVE

    def is_known(self, index: int) -> bool:
        return bool((self.alive_mask | self.dead_mask) & (1 << index))

    @property
    def unknown_mask(self) -> int:
        return self.domain & ~(self.alive_mask | self.dead_mask)

    @property
    def evaluated_count(self) -> int:
        return self.evaluated_mask.bit_count()

    # ---------------------------------------------------------------- MPANs
    def mpans_of(self, mtn_index: int) -> list[int]:
        """Maximal partially-alive nodes of a dead MTN (§2.4).

        Alive strict descendants of the MTN with no alive strict ancestor
        among the MTN's descendants.  Requires the MTN's search space to be
        fully classified (every traversal guarantees that for dead MTNs).
        """
        desc = self.graph.desc_mask[mtn_index] & self.domain
        alive_desc = desc & self.alive_mask
        mpans = []
        for index in self.graph.bits(alive_desc):
            if not (self.graph.asc_mask[index] & desc & self.alive_mask):
                mpans.append(index)
        return mpans
