"""A seeded open-loop traffic model: Zipf users, tenants, fault windows.

The traffic battery needs load that looks like production — a hot set
of popular vertices, tenants of very different sizes, arrival rates
that swing through calm and rush-hour windows, and correlated failure
bursts that concentrate the forbidden sets inside a ball — while
staying *perfectly reproducible*.  The shape of the stream is read
straight off a scenario trace (:mod:`repro.scenario.trace`), and the
draws are driven by one seed through :func:`repro.util.rng.make_rng`
on one virtual-time axis, so the same trace and seed always yield
byte-identical request streams.

The model is **open-loop**: arrival times are drawn up front from the
rate-modulated Poisson process and never react to gateway latency.
That is the honest way to measure overload — a closed-loop generator
slows down exactly when the system is saturated, hiding the very
regime the battery exists to probe (cf. Schroeder et al., "Open
Versus Closed: A Cautionary Tale").

Vertex popularity is Zipf-distributed over a seeded permutation of
the vertex ids (so "which vertex is hot" varies by seed while the
popularity *shape* stays fixed), sampled in O(log n) by bisecting the
precomputed CDF.  Users are drawn per-tenant from ranges sized in the
millions — the point is not to hold per-user state (the generator
holds none) but to exercise tenant-level admission with realistic
user-id cardinality.

Fault windows model correlated failures: while a window is open,
queries carry forbidden sets sampled *inside a BFS ball* ``B(center,
radius)`` — the doubling-dimension setting's natural failure locality
(a region outage takes out a metric ball, not a uniform scatter) — or
inside an explicit vertex pool.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

from repro.exceptions import QueryError
from repro.gateway.gateway import GatewayRequest
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances
from repro.util.rng import RngLike, make_rng

if TYPE_CHECKING:
    from repro.scenario.trace import ScenarioTrace, TraceTenant


class ZipfSampler:
    """Zipf-popular vertices over a seeded rank permutation.

    Rank ``k`` (0-based) has weight ``1 / (k + 1) ** exponent``; which
    vertex holds which rank is a seeded shuffle.  Sampling bisects the
    cumulative weight table — O(log n) per draw, deterministic.
    """

    def __init__(
        self, num_vertices: int, exponent: float = 1.1, rng: RngLike = None
    ) -> None:
        if num_vertices < 1:
            raise QueryError(
                f"need at least one vertex, got {num_vertices}"
            )
        if exponent < 0:
            raise QueryError(f"Zipf exponent must be >= 0, got {exponent}")
        rng = make_rng(rng)
        self._by_rank = list(range(num_vertices))
        rng.shuffle(self._by_rank)
        self._cdf: list[float] = []
        total = 0.0
        for rank in range(num_vertices):
            total += 1.0 / float(rank + 1) ** exponent
            self._cdf.append(total)
        self._total = total

    def sample(self, rng: RngLike) -> int:
        """Draw one vertex (hot ranks exponentially more likely)."""
        u = make_rng(rng).random() * self._total
        return self._by_rank[bisect_left(self._cdf, u)]


@dataclass(frozen=True)
class TimedRequest:
    """One arrival: when it lands (virtual ms) and what it asks."""

    at_ms: float
    request: GatewayRequest


class TrafficGenerator:
    """The deterministic open-loop request stream a scenario trace offers.

    The trace says everything about the stream: the base rate and Zipf
    exponent come from its header, the tenants from its tenant rows,
    the rate multiplier from the ``flash_crowd`` row whose window holds
    the current time, and the fault pool from the first open fault
    window — the ``burst`` header, then the ``ball_outage`` / ``outage``
    rows in file order.  The trace must be compiled against ``graph``
    (:func:`repro.scenario.compile.compile_trace` checks every vertex).
    Identical ``(graph, trace, seed)`` triples produce identical
    streams — the bit-identity half of the battery's acceptance
    criteria starts here.
    """

    def __init__(
        self, graph: Graph, trace: "ScenarioTrace", seed: RngLike = None
    ) -> None:
        self.trace = trace
        self._rng = make_rng(seed)
        self.zipf = ZipfSampler(
            graph.num_vertices, trace.zipf_exponent, self._rng
        )
        self._tenant_cdf = list(accumulate(t.weight for t in trace.tenants))
        self._crowds = [e for e in trace.events if e.kind == "flash_crowd"]
        # fault windows in lookup order, each (start, end, fault rate,
        # fault cap or None for the tenant's cap, pool); pools are
        # resolved up front so membership is fixed, and the header
        # burst draws its center here
        self._windows: list[
            tuple[float, float, float, int | None, list[int]]
        ] = []
        burst = trace.burst
        if burst is not None:
            center = self.zipf.sample(self._rng)
            self._windows.append((
                burst.at_ms, burst.at_ms + burst.duration_ms,
                burst.fault_rate, None,
                sorted(bfs_distances(graph, center, radius=burst.radius)),
            ))
        for event in trace.events:
            if event.kind == "ball_outage":
                pool = sorted(
                    bfs_distances(graph, event.center, radius=event.radius)
                )
            elif event.kind == "outage":
                pool = sorted(event.vertices)
            else:
                continue
            self._windows.append((
                event.at_ms, event.end_ms(), event.fault_rate,
                event.max_faults, pool,
            ))

    # -- sampling helpers ---------------------------------------------------

    def _pick_tenant(self) -> "TraceTenant":
        u = self._rng.random() * self._tenant_cdf[-1]
        return self.trace.tenants[bisect_left(self._tenant_cdf, u)]

    def _rate_at(self, at_ms: float) -> float:
        # the stream never reaches the trace's duration, so a crowd's
        # window needs no clipping to it
        for crowd in self._crowds:
            if crowd.at_ms <= at_ms < crowd.end_ms():
                return self.trace.base_rate_per_ms * crowd.multiplier
        return self.trace.base_rate_per_ms

    def _sample_faults(
        self, at_ms: float, tenant: "TraceTenant", s: int, t: int
    ) -> tuple[int, ...]:
        for start, end, fault_rate, max_faults, pool in self._windows:
            if not start <= at_ms < end:
                continue
            if self._rng.random() < fault_rate:
                pool = [v for v in pool if v != s and v != t]
                if pool:
                    cap = max_faults or tenant.max_faults
                    count = min(1 + self._rng.randrange(cap), len(pool))
                    return tuple(self._rng.sample(pool, count))
            return ()
        if self._rng.random() >= tenant.fault_rate:
            return ()
        count = 1 + self._rng.randrange(tenant.max_faults)
        faults: list[int] = []
        seen = {s, t}
        for _ in range(count):
            v = self.zipf.sample(self._rng)
            if v not in seen:
                seen.add(v)
                faults.append(v)
        return tuple(faults)

    def _sample_request(self, at_ms: float) -> GatewayRequest:
        tenant = self._pick_tenant()
        s = self.zipf.sample(self._rng)
        t = self.zipf.sample(self._rng)
        while t == s:
            t = self.zipf.sample(self._rng)
        return GatewayRequest(
            tenant=tenant.name,
            s=s,
            t=t,
            vertex_faults=self._sample_faults(at_ms, tenant, s, t),
            deadline_ms=tenant.deadline_ms,
            user_id=self._rng.randrange(tenant.num_users),
        )

    # -- the stream ---------------------------------------------------------

    def generate(self) -> list[TimedRequest]:
        """Every arrival in the trace's ``[0, duration)``, in time order.

        Open-loop Poisson process: exponential interarrival gaps whose
        mean tracks the rate at the current instant.
        """
        stream: list[TimedRequest] = []
        if not self.trace.base_rate_per_ms:
            return stream  # rate 0: the trace offers no open-loop traffic
        at = 0.0
        while True:
            at += self._rng.expovariate(self._rate_at(at))
            if at >= self.trace.duration_ms:
                return stream
            stream.append(TimedRequest(at, self._sample_request(at)))
