"""Phase-3 lattice traversal strategies (§2.5 of the paper).

Five strategies, one shared semantics: classify every MTN as alive or dead
and, for each dead MTN, find its MPANs, while minimizing the number of SQL
queries executed.

* ``bu`` / ``td`` -- bottom-up / top-down, one MTN at a time, no sharing
  (§2.5.1);
* ``buwr`` / ``tdwr`` -- the same sweeps over all MTNs simultaneously with a
  shared status store and evaluation cache (§2.5.2, Algorithm 3);
* ``sbh`` -- the score-based greedy heuristic (§2.5.3, Equation 1).

The first four are one :class:`SweepStrategy`, set by level order and by
whether the MTNs share one status store.

All strategies produce identical classifications and MPAN sets (a property
test asserts this); they differ only in how many queries they execute.
"""

from repro.core.traversal.base import (
    TraversalResult,
    TraversalStrategy,
    seed_base_levels,
)
from repro.core.traversal.sweep import (
    BottomUpStrategy,
    BottomUpWithReuseStrategy,
    SweepStrategy,
    TopDownStrategy,
    TopDownWithReuseStrategy,
)
from repro.core.traversal.score import ScoreBasedStrategy

_STRATEGIES = {
    "bu": BottomUpStrategy,
    "td": TopDownStrategy,
    "buwr": BottomUpWithReuseStrategy,
    "tdwr": TopDownWithReuseStrategy,
    "sbh": ScoreBasedStrategy,
}

STRATEGY_NAMES = tuple(_STRATEGIES)


def get_strategy(name: str, **kwargs: object) -> TraversalStrategy:
    """Instantiate a traversal strategy by its paper acronym."""
    try:
        cls = _STRATEGIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; choose from {sorted(_STRATEGIES)}"
        ) from None
    return cls(**kwargs)


__all__ = [
    "TraversalResult",
    "TraversalStrategy",
    "seed_base_levels",
    "SweepStrategy",
    "BottomUpStrategy",
    "BottomUpWithReuseStrategy",
    "TopDownStrategy",
    "TopDownWithReuseStrategy",
    "ScoreBasedStrategy",
    "STRATEGY_NAMES",
    "get_strategy",
]
