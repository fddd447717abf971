"""Query and failure workload generators for experiments."""

from repro.workloads.queries import (
    Query,
    adversarial_queries,
    clustered_fault_queries,
    random_queries,
)

__all__ = [
    "Query",
    "adversarial_queries",
    "clustered_fault_queries",
    "random_queries",
]
