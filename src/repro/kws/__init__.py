"""Classic keyword-search-over-structured-data (KWS-S) substrate.

An independent, DISCOVER-style implementation of the traditional pipeline:
keyword -> tuple sets -> candidate networks -> evaluate -> return answers
(silently dropping non-answers).  A keyword tuple set is the engine's
``tuple_set`` lookup, served by the inverted index.  The substrate serves
three purposes:

* it is the baseline system whose behaviour the paper sets out to fix;
* its candidate-network generator validates the lattice pipeline (MTNs and
  CNs must coincide -- checked by property tests);
* the Return-Nothing baseline models developers re-submitting queries to it.
"""

from repro.kws.candidate_networks import enumerate_candidate_networks
from repro.kws.discover import ClassicKWSSystem, KWSAnswer

__all__ = [
    "enumerate_candidate_networks",
    "ClassicKWSSystem",
    "KWSAnswer",
]
