"""Observability overhead budget: tracing must stay under 10%.

The decode pipeline counts ops in local integers and writes them to
spans once per query, so the traced path should cost within a few
percent of the untraced one.  This benchmark measures that ratio on
the seeded workload of ``conftest.build_workload`` and **asserts the
< 10 % budget** on the one-shot path — ``decode_distance``, a fresh
decoder per query — where a regression means instrumentation crept
into a hot loop.

It also prints, without asserting, the ratio on one warm, long-lived
:class:`~repro.labeling.KernelDecoder` — the way the oracle,
``QueryService`` and the routing schemes decode.  There the caches
answer most of the work, so the fixed cost of the spans weighs more:
about 1.5x with numpy and 1.1x without on a 2-vCPU Xeon (see
docs/observability.md).

Run with::

    pytest benchmarks/bench_obs.py --benchmark-only -s
"""

from __future__ import annotations

import statistics
import time

from conftest import build_workload

from repro.labeling import FaultSet, KernelDecoder, decode_distance
from repro.obs.trace import SPAN_DECODE, SPAN_DIJKSTRA, Tracer

OVERHEAD_BUDGET = 1.10


def run_queries(
    labels: list, queries: list, tracer: Tracer | None = None, decoder=None
) -> int:
    """Decode every query (optionally traced); returns the query count.

    Without ``decoder`` each query runs through ``decode_distance``, a
    fresh decoder per query; with one, every query runs on it.
    """
    decode = decode_distance if decoder is None else decoder.decode
    for s, t, fault_vertices in queries:
        faults = FaultSet(vertex_labels=[labels[f] for f in fault_vertices])
        decode(labels[s], labels[t], faults, tracer=tracer)
    return len(queries)


def measure_overhead(
    num_queries: int = 120, repeats: int = 5, decoder=None
) -> dict[str, object]:
    """Timed comparison of the traced vs untraced decode path.

    Runs the same seeded workload ``repeats`` times each way
    (alternating, after a warmup pass) and reports median wall-clock
    times plus the overhead ratio ``traced / plain``.  ``decoder``
    selects the path as in :func:`run_queries`.
    """
    labels, queries = build_workload(num_queries=num_queries)
    # warmup both paths so allocator/caches are steady
    run_queries(labels, queries, decoder=decoder)
    run_queries(labels, queries, tracer=Tracer(), decoder=decoder)
    plain_s: list[float] = []
    traced_s: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        run_queries(labels, queries, decoder=decoder)
        plain_s.append(time.perf_counter() - start)
        tracer = Tracer()
        start = time.perf_counter()
        run_queries(labels, queries, tracer=tracer, decoder=decoder)
        traced_s.append(time.perf_counter() - start)
    plain_med = statistics.median(plain_s)
    traced_med = statistics.median(traced_s)
    # the tracer from the final traced repeat carries the op counts
    return {
        "plain_ms_median": round(plain_med * 1e3, 3),
        "traced_ms_median": round(traced_med * 1e3, 3),
        "overhead_ratio": round(traced_med / plain_med, 4),
        "decode_spans": len(tracer.find(SPAN_DECODE)),
        "nodes_settled": int(tracer.attr_total(SPAN_DIJKSTRA, "nodes_settled")),
        "edges_scanned": int(tracer.attr_total(SPAN_DIJKSTRA, "edges_scanned")),
        "heap_updates": int(tracer.attr_total(SPAN_DIJKSTRA, "heap_updates")),
    }


def bench_decode_overhead(benchmark):
    measured = benchmark.pedantic(
        measure_overhead,
        kwargs={"num_queries": 120, "repeats": 5},
        rounds=1,
        iterations=1,
    )
    print()
    print(
        f"plain {measured['plain_ms_median']} ms, "
        f"traced {measured['traced_ms_median']} ms, "
        f"ratio {measured['overhead_ratio']}"
    )
    assert measured["overhead_ratio"] < OVERHEAD_BUDGET, (
        f"tracing overhead {measured['overhead_ratio']:.3f}x exceeds the "
        f"{OVERHEAD_BUDGET}x budget"
    )


def bench_long_lived_decoder_overhead(benchmark):
    """The same ratio on one warm decoder; printed, not gated."""
    decoder = KernelDecoder()
    measured = benchmark.pedantic(
        measure_overhead,
        kwargs={"num_queries": 120, "repeats": 5, "decoder": decoder},
        rounds=1,
        iterations=1,
    )
    print()
    print(
        f"long-lived decoder (numpy={decoder.use_numpy}): "
        f"plain {measured['plain_ms_median']} ms, "
        f"traced {measured['traced_ms_median']} ms, "
        f"ratio {measured['overhead_ratio']}"
    )


def bench_traced_batch(benchmark):
    """Wall-clock of one fully traced batch, plus its op totals."""
    labels, queries = build_workload(num_queries=120)
    tracer = Tracer()

    def traced() -> int:
        tracer.reset()
        return run_queries(labels, queries, tracer=tracer)

    count = benchmark(traced)
    assert count == 120
    print()
    print(
        f"decode_spans {len(tracer.find(SPAN_DECODE))}, "
        f"nodes_settled {int(tracer.attr_total(SPAN_DIJKSTRA, 'nodes_settled'))}, "
        f"edges_scanned {int(tracer.attr_total(SPAN_DIJKSTRA, 'edges_scanned'))}, "
        f"heap_updates {int(tracer.attr_total(SPAN_DIJKSTRA, 'heap_updates'))}"
    )
