"""Label-size accounting used by the E2–E4 and E9–E11 experiments."""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.graph import Graph
from repro.labeling.encoding import encoded_bit_length
from repro.labeling.scheme import ForbiddenSetLabeling
from repro.util.rng import RngLike, make_rng


@dataclass(frozen=True)
class LabelSizeSummary:
    """Bit-length statistics over a sample of labels."""

    num_labels: int
    max_bits: int
    mean_bits: float
    max_points: int
    max_edges: int


def label_size_summary(
    scheme: ForbiddenSetLabeling,
    graph: Graph,
    sample: int | None = 16,
    seed: RngLike = None,
) -> LabelSizeSummary:
    """Measure encoded label sizes over ``sample`` random vertices.

    ``sample=None`` measures every label (exact but expensive).
    """
    n = graph.num_vertices
    if sample is None or sample >= n:
        vertices = list(graph.vertices())
    else:
        vertices = make_rng(seed).sample(range(n), sample)
    max_bits = 0
    total_bits = 0
    max_points = 0
    max_edges = 0
    for v in vertices:
        label = scheme.label(v)
        bits = encoded_bit_length(label)
        max_bits = max(max_bits, bits)
        total_bits += bits
        max_points = max(max_points, label.num_points())
        max_edges = max(max_edges, label.num_edges())
    return LabelSizeSummary(
        num_labels=len(vertices),
        max_bits=max_bits,
        mean_bits=total_bits / len(vertices),
        max_points=max_points,
        max_edges=max_edges,
    )
