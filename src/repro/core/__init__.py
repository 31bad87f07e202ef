"""The paper's primary contribution: lattice-based non-answer debugging.

Phases (Figure 3 of the paper):

* Phase 0 (offline): :mod:`repro.core.lattice` -- generate the lattice of
  join-query templates over relation copies (Algorithm 1), deduplicated via
  canonical labeling (:mod:`repro.core.canonical`, Algorithm 2).
* Phase 1: :mod:`repro.core.binding` -- map keywords to relation copies and
  prune the lattice.
* Phase 2: :mod:`repro.core.mtn` -- find minimal-total nodes (MTNs) and build
  the exploration graph of their descendants.
* Phase 3: :mod:`repro.core.traversal` -- classify MTNs dead/alive and find
  MPANs with one of five strategies (BU, TD, BUWR, TDWR, SBH).

:class:`repro.core.debugger.NonAnswerDebugger` wires the phases together and
is the main entry point of the library.
"""

from repro.core.canonical import canonical_code, canonical_string
from repro.core.lattice import Lattice, LatticeStats, generate_lattice
from repro.core.binding import KeywordBinder, PrunedLattice
from repro.core.mtn import ExplorationGraph, build_exploration_graph, find_mtns
from repro.core.status import Status, StatusStore
from repro.core.traversal import (
    BottomUpStrategy,
    BottomUpWithReuseStrategy,
    ScoreBasedStrategy,
    TopDownStrategy,
    TopDownWithReuseStrategy,
    TraversalResult,
    get_strategy,
)
from repro.core.baselines import ReturnEverything, ReturnNothing
from repro.core.constraints import SearchConstraints
from repro.core.debugger import DebugReport, NonAnswerDebugger
from repro.core.diagnosis import Cause, Diagnosis, diagnose
from repro.core.freecopies import free_instance, normalize_free_ranks
from repro.core.persistence import load_lattice, save_lattice, save_report
from repro.core.ranking import ExplanationRanker
from repro.core.session import DebugSession

__all__ = [
    "canonical_code",
    "canonical_string",
    "Lattice",
    "LatticeStats",
    "generate_lattice",
    "KeywordBinder",
    "PrunedLattice",
    "ExplorationGraph",
    "build_exploration_graph",
    "find_mtns",
    "Status",
    "StatusStore",
    "BottomUpStrategy",
    "BottomUpWithReuseStrategy",
    "TopDownStrategy",
    "TopDownWithReuseStrategy",
    "ScoreBasedStrategy",
    "TraversalResult",
    "get_strategy",
    "ReturnNothing",
    "ReturnEverything",
    "DebugReport",
    "NonAnswerDebugger",
    "SearchConstraints",
    "Cause",
    "Diagnosis",
    "diagnose",
    "free_instance",
    "normalize_free_ranks",
    "DebugSession",
    "ExplanationRanker",
    "save_lattice",
    "load_lattice",
    "save_report",
]
