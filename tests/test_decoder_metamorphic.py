"""Metamorphic battery for the label-only decoder.

Three relations that must hold across *transformed* inputs, checked on
fully seeded instances (deterministic — no test flakiness):

* **monotonicity** — growing the fault set ``F ⊆ F'`` never decreases
  the decoded distance ``δ``: removing more of the graph can only push
  vertices apart.  (Not a literal corollary of the paper's stretch
  bound, since fault labels contribute sketch edges — which is exactly
  why it is worth pinning empirically.)
* **sandwich** — ``d_{G\\F} ≤ δ ≤ (1+ε)·d_{G\\F}`` against BFS ground
  truth recomputed on the surviving graph.
* **cost envelope** — the traced Dijkstra op counts stay within
  ``C·(1+1/ε)^{2α}·(|F|+2)²·log₂(n+1)`` where ``α`` is the measured
  doubling dimension — the paper's query-cost shape, with an
  empirically calibrated constant (worst observed ratio ≈ 5.6; C = 24
  leaves 4× headroom).

Plus the meta-invariant that makes the obs layer trustworthy:
tracing a decode must never change its answer.

The whole battery runs twice — once per decoder (the object-graph
reference ``decode_distance`` of ``tests/reference_decoder.py``, still
named ``legacy`` in the test ids, and the array-native
:class:`KernelDecoder`) — via the ``decode`` fixture, so every
metamorphic relation is pinned on both engines.
"""

import math
import random

import pytest

from repro.graphs import generators as gen
from repro.graphs.doubling import doubling_dimension_estimate
from repro.graphs.traversal import bfs_distances_avoiding
from repro.labeling import FaultSet, ForbiddenSetLabeling
from repro.labeling.kernel import KernelDecoder
from repro.obs.trace import SPAN_DIJKSTRA, Tracer
from tests.reference_decoder import decode_distance

ENVELOPE_CONSTANT = 24.0

FAMILIES = [
    ("grid:6x6", lambda: gen.grid_graph(6, 6)),
    ("cycle:32", lambda: gen.cycle_graph(32)),
    ("road:5x5", lambda: gen.road_like_graph(5, 5, seed=2)),
    ("tree:30", lambda: gen.random_tree(30, seed=4)),
]


@pytest.fixture(scope="module", params=FAMILIES, ids=[f[0] for f in FAMILIES])
def instance(request):
    name, build = request.param
    graph = build()
    epsilon = 1.0
    scheme = ForbiddenSetLabeling(graph, epsilon)
    labels = [scheme.label(v) for v in graph.vertices()]
    return graph, epsilon, scheme, labels


def fault_chain(n, s, t, rng, length=3, step=2):
    """A growing chain ``F_0 ⊂ F_1 ⊂ …`` avoiding the endpoints."""
    pool = [v for v in range(n) if v not in (s, t)]
    rng.shuffle(pool)
    chain = []
    for i in range(length):
        chain.append(tuple(sorted(pool[: (i + 1) * step])))
    return chain


@pytest.fixture(scope="module", params=["legacy", "kernel"])
def decode(request):
    """Backend-parameterized decode helper: one battery, both engines.

    The kernel instance is module-scoped on purpose — its cross-query
    memo caches stay warm across the battery, so the relations also
    cover the cached paths.
    """
    if request.param == "kernel":
        kernel = KernelDecoder()

        def _decode(labels, s, t, faults, tracer=None):
            fault_set = FaultSet(vertex_labels=[labels[f] for f in faults])
            return kernel.decode(
                labels[s], labels[t], fault_set, tracer=tracer
            )

        return _decode

    def _decode(labels, s, t, faults, tracer=None):
        fault_set = FaultSet(vertex_labels=[labels[f] for f in faults])
        return decode_distance(labels[s], labels[t], fault_set, tracer=tracer)

    return _decode


def dijkstra_ops(tracer: Tracer) -> int:
    total = 0
    for span in tracer.find(SPAN_DIJKSTRA):
        total += (
            span.attrs.get("nodes_settled", 0)
            + span.attrs.get("edges_scanned", 0)
            + span.attrs.get("heap_updates", 0)
        )
    return int(total)


class TestMonotonicityUnderGrowingFaults:
    def test_delta_never_decreases(self, instance, decode):
        graph, _, _, labels = instance
        n = graph.num_vertices
        rng = random.Random(0xD0)
        for _ in range(15):
            s, t = rng.sample(range(n), 2)
            previous = decode(labels, s, t, ()).distance
            for faults in fault_chain(n, s, t, rng):
                current = decode(labels, s, t, faults).distance
                assert current >= previous, (
                    f"δ({s},{t}) dropped from {previous} to {current} "
                    f"when the fault set grew to {faults}"
                )
                previous = current


class TestSandwichAgainstGroundTruth:
    def test_within_stretch_of_bfs(self, instance, decode):
        graph, _, scheme, labels = instance
        n = graph.num_vertices
        bound = scheme.stretch_bound()
        rng = random.Random(0xD1)
        for _ in range(15):
            s, t = rng.sample(range(n), 2)
            for faults in fault_chain(n, s, t, rng, length=2):
                d_true = bfs_distances_avoiding(
                    graph, s, set(faults)
                ).get(t, math.inf)
                delta = decode(labels, s, t, faults).distance
                if math.isinf(d_true):
                    assert math.isinf(delta)
                else:
                    assert d_true <= delta <= bound * d_true + 1e-9


class TestCostEnvelope:
    def test_traced_ops_within_envelope(self, instance, decode):
        graph, epsilon, _, labels = instance
        n = graph.num_vertices
        alpha = doubling_dimension_estimate(graph, seed=0)
        rng = random.Random(0xD2)
        for _ in range(15):
            s, t = rng.sample(range(n), 2)
            for faults in ((), *fault_chain(n, s, t, rng, length=2)):
                tracer = Tracer()
                decode(labels, s, t, faults, tracer=tracer)
                envelope = (
                    ENVELOPE_CONSTANT
                    * (1 + 1 / epsilon) ** (2 * alpha)
                    * (len(faults) + 2) ** 2
                    * math.log2(n + 1)
                )
                ops = dijkstra_ops(tracer)
                assert ops <= envelope, (
                    f"query({s},{t}) with |F|={len(faults)} cost {ops} ops, "
                    f"envelope {envelope:.0f} (alpha={alpha:.2f})"
                )


class TestTracingIsTransparent:
    def test_traced_and_untraced_answers_identical(self, instance, decode):
        graph, _, _, labels = instance
        n = graph.num_vertices
        rng = random.Random(0xD3)
        for _ in range(12):
            s, t = rng.sample(range(n), 2)
            for faults in fault_chain(n, s, t, rng, length=2):
                plain = decode(labels, s, t, faults)
                traced = decode(labels, s, t, faults, tracer=Tracer())
                assert plain.distance == traced.distance
                assert plain.path == traced.path
                assert plain.sketch_vertices == traced.sketch_vertices
                assert plain.sketch_edges == traced.sketch_edges

    def test_span_counts_match_result(self, instance, decode):
        _, _, _, labels = instance
        tracer = Tracer()
        result = decode(labels, 0, 1, (), tracer=tracer)
        (root,) = tracer.find("decode")
        assert root.attrs["sketch_vertices"] == result.sketch_vertices
        assert root.attrs["sketch_edges"] == result.sketch_edges
        assert len(tracer.find(SPAN_DIJKSTRA)) == 1
