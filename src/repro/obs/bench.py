"""Overhead budget: instrumentation must not slow the decoder down.

The decode pipeline keeps its op counts in local integers and writes
them to spans once per query, so the instrumented path should cost
within a few percent of the uninstrumented one.  This module measures
that ratio on a seeded workload — ``benchmarks/bench_obs.py`` asserts
the < 10 % budget, and ``repro bench --emit`` records the numbers as a
bench-trajectory artifact.

Wall-clock readings use ``time.perf_counter`` (a monotonic interval
timer, explicitly allowed by lint rule RPL002 — it never feeds
metrics, answers or control flow).  The emitted payload separates the
*deterministic* section (op counts, identical on every run) from the
*timing* section (host-dependent by nature).
"""

from __future__ import annotations

import json
import statistics
import time

from repro.exceptions import ObservabilityError
from repro.labeling.decoder import FaultSet, decode_distance
from repro.obs.trace import (
    SPAN_DECODE,
    SPAN_DIJKSTRA,
    Tracer,
)
from repro.util.rng import make_rng

#: payload schema version for BENCH_*.json artifacts
BENCH_SCHEMA = 1


def build_workload(
    seed: int = 0,
    epsilon: float = 1.0,
    num_queries: int = 120,
    max_faults: int = 3,
) -> tuple[list, list[tuple[int, int, tuple[int, ...]]]]:
    """A seeded decode workload: materialized labels plus query triples.

    Returns ``(labels, queries)`` where ``labels[v]`` is the vertex
    label of ``v`` and each query is ``(s, t, fault_vertices)``.
    """
    from repro.graphs import generators as gen
    from repro.labeling import ForbiddenSetLabeling

    graph = gen.road_like_graph(7, 7, seed=seed + 1)
    scheme = ForbiddenSetLabeling(graph, epsilon)
    labels = [scheme.label(v) for v in graph.vertices()]
    rng = make_rng(seed)
    n = graph.num_vertices
    queries: list[tuple[int, int, tuple[int, ...]]] = []
    for _ in range(num_queries):
        s, t = rng.sample(range(n), 2)
        count = rng.randrange(0, max_faults + 1)
        pool = [v for v in range(n) if v != s and v != t]
        queries.append((s, t, tuple(rng.sample(pool, count))))
    return labels, queries


def run_queries(labels: list, queries: list, tracer: Tracer | None = None) -> int:
    """Decode every query (optionally traced); returns the query count."""
    for s, t, fault_vertices in queries:
        faults = FaultSet(vertex_labels=[labels[f] for f in fault_vertices])
        decode_distance(labels[s], labels[t], faults, tracer=tracer)
    return len(queries)


def measure_overhead(
    seed: int = 0,
    epsilon: float = 1.0,
    num_queries: int = 120,
    repeats: int = 5,
) -> dict[str, object]:
    """Timed comparison of the traced vs untraced decode path.

    Runs the same seeded workload ``repeats`` times each way
    (alternating, after a warmup pass) and reports median wall-clock
    times plus the overhead ratio ``traced / plain``.
    """
    if repeats < 1:
        raise ObservabilityError(f"need at least 1 repeat, got {repeats}")
    labels, queries = build_workload(
        seed=seed, epsilon=epsilon, num_queries=num_queries
    )
    # warmup both paths so allocator/caches are steady
    run_queries(labels, queries)
    run_queries(labels, queries, tracer=Tracer())
    plain_s: list[float] = []
    traced_s: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        run_queries(labels, queries)
        plain_s.append(time.perf_counter() - start)
        tracer = Tracer()
        start = time.perf_counter()
        run_queries(labels, queries, tracer=tracer)
        traced_s.append(time.perf_counter() - start)
    plain_med = statistics.median(plain_s)
    traced_med = statistics.median(traced_s)
    # the tracer from the final traced repeat carries the op counts
    return {
        "num_queries": num_queries,
        "repeats": repeats,
        "plain_ms_median": round(plain_med * 1e3, 3),
        "traced_ms_median": round(traced_med * 1e3, 3),
        "overhead_ratio": round(traced_med / plain_med, 4),
        "decode_spans": len(tracer.find(SPAN_DECODE)),
        "nodes_settled": int(tracer.attr_total(SPAN_DIJKSTRA, "nodes_settled")),
        "edges_scanned": int(tracer.attr_total(SPAN_DIJKSTRA, "edges_scanned")),
        "heap_updates": int(tracer.attr_total(SPAN_DIJKSTRA, "heap_updates")),
    }


def run_bench(
    seed: int = 0,
    epsilon: float = 1.0,
    num_queries: int = 120,
    repeats: int = 5,
    emit: str | None = None,
) -> dict[str, object]:
    """The ``repro bench`` entry point: measure, assemble, optionally emit.

    Measures the tracing overhead of the decode path.  The payload's
    ``deterministic`` section (workload shape and decode op counts) is
    identical on every run of the same seed; the ``timing`` section is
    host wall-clock and varies.  ``emit`` writes the payload as
    indented JSON to the given path.
    """
    measured = measure_overhead(
        seed=seed, epsilon=epsilon, num_queries=num_queries, repeats=repeats
    )
    payload: dict[str, object] = {
        "bench": "obs_decode_overhead",
        "schema": BENCH_SCHEMA,
        "params": {
            "seed": seed,
            "epsilon": epsilon,
            "num_queries": num_queries,
            "repeats": repeats,
        },
        "deterministic": {
            "decode_spans": measured["decode_spans"],
            "nodes_settled": measured["nodes_settled"],
            "edges_scanned": measured["edges_scanned"],
            "heap_updates": measured["heap_updates"],
        },
        "timing": {
            "plain_ms_median": measured["plain_ms_median"],
            "traced_ms_median": measured["traced_ms_median"],
            "overhead_ratio": measured["overhead_ratio"],
        },
    }
    if emit is not None:
        with open(emit, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return payload
