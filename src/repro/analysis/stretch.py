"""Stretch evaluation against the exact baseline.

The central verification loop of the reproduction: run a query workload
through a scheme and through :class:`ExactRecomputeOracle`, and check
the ``(1+ε)`` sandwich on every answer with
:func:`repro.service.judge.check_guarantee`.  The truth is uncached on
purpose: a workload rarely repeats an ``(s, F)``, and a cache would
keep one distance map per query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.baselines.exact import ExactRecomputeOracle
from repro.graphs.graph import Graph
from repro.service.judge import REACHABILITY, check_guarantee
from repro.workloads.queries import Query


@dataclass
class StretchReport:
    """Aggregate outcome of a stretch evaluation.

    ``violations`` counts answers below the true distance or above the
    stretch bound; ``connectivity_mismatches`` counts finite/infinite
    disagreements.  Both must be zero for a correct scheme.
    """

    num_queries: int = 0
    num_finite: int = 0
    max_stretch: float = 1.0
    sum_stretch: float = 0.0
    violations: int = 0
    connectivity_mismatches: int = 0
    worst_query: Query | None = None
    stretch_bound: float = math.inf
    samples: list[tuple[Query, float, float]] = field(default_factory=list)

    @property
    def mean_stretch(self) -> float:
        """Mean multiplicative stretch over finite-distance queries."""
        return self.sum_stretch / self.num_finite if self.num_finite else 1.0

    @property
    def clean(self) -> bool:
        """No violations and no connectivity mismatches."""
        return self.violations == 0 and self.connectivity_mismatches == 0

    def record(
        self, d_true: float, d_hat: float, query: Query | None = None,
        keep_samples: int = 0,
    ) -> None:
        """Classify one answer through the one statement of the guarantee."""
        breach, stretch = check_guarantee(d_hat, d_true, self.stretch_bound)
        self.num_queries += 1
        if breach == REACHABILITY:
            self.connectivity_mismatches += 1
            return
        if math.isinf(d_true):
            return
        self.num_finite += 1
        stretch = 1.0 if stretch is None else stretch
        self.sum_stretch += stretch
        if breach is not None:
            self.violations += 1
        if stretch > self.max_stretch:
            self.max_stretch = stretch
            self.worst_query = query
        if len(self.samples) < keep_samples:
            self.samples.append((query, d_true, d_hat))


def evaluate_stretch(
    graph: Graph,
    scheme,
    queries: Iterable[Query],
    stretch_bound: float | None = None,
    keep_samples: int = 0,
) -> StretchReport:
    """Run ``queries`` through ``scheme`` (any object with a ``query``
    method accepting ``(s, t, vertex_faults=…, edge_faults=…)`` and
    returning a number or an object with ``.distance``) and compare each
    answer with the exact baseline.
    """
    exact = ExactRecomputeOracle(graph)
    if stretch_bound is None:
        stretch_bound = getattr(scheme, "stretch_bound", lambda: math.inf)()
    report = StretchReport(stretch_bound=stretch_bound)
    for query in queries:
        d_true = exact.query(
            query.s,
            query.t,
            vertex_faults=query.vertex_faults,
            edge_faults=query.edge_faults,
        )
        answer = scheme.query(
            query.s,
            query.t,
            vertex_faults=query.vertex_faults,
            edge_faults=query.edge_faults,
        )
        report.record(
            d_true, getattr(answer, "distance", answer), query, keep_samples
        )
    return report
