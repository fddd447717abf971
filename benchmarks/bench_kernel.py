"""Kernel decode speedup gate: the array kernel must stay ≥ 5x the reference.

Times the seeded workload of ``conftest.build_workload`` (120 queries
on ``road:7x7``, up to three vertex faults each; ``bench_obs.py`` times
the same one) through two decoders —
the object-graph reference ``decode_distance`` of
``tests/reference_decoder.py`` and a long-lived :class:`KernelDecoder`
— and **asserts the ≥ 5x smoke floor** on the warm (steady-state)
median, with the numpy path on and off.  The test measures 49-74x with
numpy and about 12x without on a 2-vCPU Xeon under CPython 3.11
(``-s`` prints each ratio), so the floor sits far enough below
it that a noisy CI host cannot flake the gate while a real regression
(a cache broken, a hot loop deoptimized) still trips it.

Every answer the kernel produces during the measurement is compared
against the reference in-run — a speedup with wrong answers must fail.

Run with::

    python -m pytest benchmarks/bench_kernel.py --benchmark-only -s
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

from conftest import build_workload

from repro.labeling import FaultSet, KernelDecoder

# the reference decoder is test-only code: import it from the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.reference_decoder import decode_distance as reference_decode  # noqa: E402

#: CI smoke floor (this test measures 49-74x with numpy, ~12x without,
#: on a 2-vCPU Xeon)
SPEEDUP_FLOOR = 5.0


def measure_speedup(
    num_queries: int = 120, repeats: int = 3, use_numpy: bool | None = None
) -> dict[str, object]:
    """Median wall time of the workload per decoder, and their ratio.

    Both decoders run the same queries, alternating, after one pass
    each.  The kernel's first pass (label interning, memo fill) is
    reported as ``kernel_cold_ms`` and kept out of its median: one
    kernel serves every repeat, as a serving tier holds it.
    """
    labels, queries = build_workload(num_queries=num_queries)
    triples = [
        (
            labels[s],
            labels[t],
            FaultSet(vertex_labels=[labels[f] for f in fault_vertices]),
        )
        for s, t, fault_vertices in queries
    ]
    kernel = KernelDecoder(use_numpy=use_numpy)
    expected = [reference_decode(ls, lt, faults) for ls, lt, faults in triples]
    start = time.perf_counter()
    answers_identical = kernel.decode_batch(triples) == expected
    kernel_cold_s = time.perf_counter() - start
    reference_s: list[float] = []
    kernel_s: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        for ls, lt, faults in triples:
            reference_decode(ls, lt, faults)
        reference_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        results = kernel.decode_batch(triples)
        kernel_s.append(time.perf_counter() - start)
        answers_identical = answers_identical and results == expected
    reference_med = statistics.median(reference_s)
    kernel_med = statistics.median(kernel_s)
    return {
        "use_numpy": kernel.use_numpy,
        "answers_identical": answers_identical,
        "reference_ms_median": round(reference_med * 1e3, 3),
        "kernel_ms_median": round(kernel_med * 1e3, 3),
        "kernel_cold_ms": round(kernel_cold_s * 1e3, 3),
        "speedup": round(reference_med / kernel_med, 2),
    }


def _check(measured: dict[str, object]) -> None:
    print()
    print(
        f"reference {measured['reference_ms_median']} ms, "
        f"kernel {measured['kernel_ms_median']} ms "
        f"(cold {measured['kernel_cold_ms']} ms), "
        f"speedup {measured['speedup']}x, "
        f"numpy={measured['use_numpy']}"
    )
    assert measured["answers_identical"], (
        "kernel answers diverged from the reference decoder during the "
        "measurement — the speedup is meaningless"
    )
    assert measured["speedup"] >= SPEEDUP_FLOOR, (
        f"kernel speedup {measured['speedup']}x fell below the "
        f"{SPEEDUP_FLOOR}x smoke floor"
    )


def bench_kernel_speedup(benchmark):
    """The default path (numpy when installed) clears the floor."""
    _check(benchmark.pedantic(measure_speedup, rounds=1, iterations=1))


def bench_kernel_stdlib_speedup(benchmark):
    """The pure-stdlib path must clear the same floor without numpy."""
    _check(
        benchmark.pedantic(
            measure_speedup, kwargs={"use_numpy": False}, rounds=1, iterations=1
        )
    )

