"""repro — forbidden-set distance labels for bounded doubling dimension.

A complete reproduction of:

    Ittai Abraham, Shiri Chechik, Cyril Gavoille, David Peleg.
    "Forbidden-set distance labels for graphs of bounded doubling
    dimension."  PODC 2010 / ACM Transactions on Algorithms 12(2), 2016.

Public API highlights
---------------------
* :class:`repro.labeling.ForbiddenSetLabeling` — the main result
  (Theorem 2.1): ``(1+ε)``-approximate distance labels that survive any
  forbidden set of vertices/edges supplied at query time.
* :class:`repro.labeling.FailureFreeLabeling` — the Section 2.1 warm-up
  scheme (no fault tolerance).
* :class:`repro.routing.ForbiddenSetRouting` — the compact routing
  extension (Theorem 2.7) with a hop-by-hop forwarding simulator.
* :class:`repro.connectivity.ForbiddenSetConnectivityLabeling` and
  :mod:`repro.connectivity.lower_bound` — exact forbidden-set
  connectivity plus the Theorem 3.1 lower-bound constructions.
* :class:`repro.oracle.ForbiddenSetDistanceOracle` /
  :class:`repro.oracle.DynamicDistanceOracle` — the centralized and
  fully-dynamic oracles derived from the labels.
* :mod:`repro.graphs` / :mod:`repro.nets` — the substrates: compact
  graphs, generators (including the Section 3 king grids), BFS/Dijkstra,
  greedy ``r``-dominating sets (Fact 1) and the net hierarchy
  (Lemma 2.2).
* :mod:`repro.baselines` — exact recompute, APSP, single-fault and
  exact-tree comparators.
* :mod:`repro.chaos` — chaos injection: an invariant-checking runner
  that replays network traces (churn, lossy flooding, partition
  windows) over the network-recovery simulator, and corruption fuzzing
  for the on-disk label databases.

Quickstart
----------
>>> from repro import ForbiddenSetLabeling
>>> from repro.graphs.generators import grid_graph
>>> scheme = ForbiddenSetLabeling(grid_graph(8, 8), epsilon=1.0)
>>> result = scheme.query(0, 63, vertex_faults=[9, 18])
>>> result.distance >= 14  # within (1+eps) of the true distance in G \\ F
True
"""

from repro.graphs.graph import Graph
from repro.labeling.failure_free import FailureFreeLabeling
from repro.labeling.scheme import ForbiddenSetLabeling, LabelingOptions
from repro.labeling.decoder import FaultSet, QueryResult, decode_distance
from repro.routing.scheme import ForbiddenSetRouting
from repro.connectivity.scheme import ForbiddenSetConnectivityLabeling
from repro.oracle.oracle import ForbiddenSetDistanceOracle
from repro.oracle.dynamic import DynamicDistanceOracle

__version__ = "1.0.0"

__all__ = [
    "DynamicDistanceOracle",
    "FailureFreeLabeling",
    "FaultSet",
    "ForbiddenSetConnectivityLabeling",
    "ForbiddenSetDistanceOracle",
    "ForbiddenSetLabeling",
    "ForbiddenSetRouting",
    "Graph",
    "LabelingOptions",
    "QueryResult",
    "decode_distance",
]
