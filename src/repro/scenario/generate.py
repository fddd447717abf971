"""Generated scenario traces: network churn, serve-chaos and traffic.

Every battery is a seeded *trace generator*.  The one
:class:`~repro.scenario.runner.ScenarioRunner` replays the serving
traces exactly as it replays a committed ``.scenario`` file, and
:class:`~repro.chaos.runner.ChaosRunner` replays the network ones:

* :func:`churn_trace` — a network churn schedule: router and link
  failures and recoveries, partition windows, lossy flooding and
  packet sends, as network rows, ending with saturating floods and
  sends; :func:`churn_suite` is the standard matrix of them;

* :func:`random_shard_plan` — a serve-chaos schedule: shard faults
  interleaved with synchronous forbidden-set queries and time gaps, as
  scripted rows, ending with a healed tier, a wait of two breaker
  cooldowns and three probes that must be answered exactly;
* :func:`serve_chaos_suite` — the standard serve-chaos matrix over
  graph families, shard layouts and hedging on/off;
* :func:`traffic_trace` — the traffic battery: 4x overload with a
  concurrent unreplicated shard outage, a drawn-center fault burst, a
  small label cache, tenant quotas and an SLO gate.

``repro chaos`` prints what :func:`churn_trace` generates replayed by
the chaos runner; ``repro serve-chaos``, ``repro metrics`` and
``repro traffic`` print what the others generate replayed through the
code behind ``repro scenario run``.  ``serialize_trace`` writes any of
them to a file that parses back equal.
"""

from __future__ import annotations

from repro.exceptions import ScenarioError
from repro.graphs.graph import Graph
from repro.scenario.compile import build_graph
from repro.scenario.trace import (
    ScenarioEvent,
    ScenarioTrace,
    TraceBurst,
    TraceGateway,
    TraceSLO,
    TraceTenant,
)
from repro.service.client import BreakerPolicy
from repro.util.rng import RngLike, make_rng

#: per-query deadline of serve-chaos schedules (virtual ms)
SERVE_CHAOS_DEADLINE_MS = 150.0

#: a drawn serve-chaos query forbids up to this many vertices, and one
#: edge with this probability
MAX_VERTEX_FAULTS = 3
EDGE_FAULT_PROBABILITY = 0.25

#: (graph spec, shards, replication) rotated through by the standard
#: serve-chaos matrix; replication 1 is the unreplicated worst case
_SUITE_GRAPHS = (
    "grid:6x6", "cycle:32", "road:5x5:3", "tree:30:5", "torus:5x5",
    "hypercube:5",
)
_SUITE_LAYOUTS = ((4, 2), (3, 1), (6, 3), (5, 2))


def _row(kind: str, **fields) -> ScenarioEvent:
    return ScenarioEvent(None, kind, **fields)


def _partition_cut(
    graph: Graph, rng, failed_edges: set[tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
    """A random vertex-set boundary to use as a partition window's cut."""
    n = graph.num_vertices
    size = rng.randint(2, max(2, n // 3))
    side = set(rng.sample(range(n), min(size, n - 1)))
    return tuple(
        (u, v) for u, v in graph.edges()
        if ((u in side) != (v in side)) and (u, v) not in failed_edges
    )


def churn_trace(
    graph_spec: str,
    num_events: int = 100,
    seed: RngLike = None,
    loss: float = 0.0,
    name: str = "churn",
) -> ScenarioTrace:
    """A seeded network churn schedule as a trace of network rows.

    The generator tracks the true failed set so every row is valid
    (never fails an already-failed element, never recovers a healthy
    one, never sends from/to a failed router).  At most ``n // 5``
    routers and ``m // 4`` links are down at once, partition cuts
    aside, and at most one partition window is open.  After the first
    ``num_events`` rows every open window closes, floods saturate (four
    times over under ``loss``) and a few packets are sent, so the
    chaos runner's full-awareness stretch rule is exercised on every
    schedule.  The trace's ``seed`` (drawn first) seeds lossy flooding.
    """
    graph = build_graph(graph_spec)
    rng = make_rng(seed)
    n = graph.num_vertices
    if n < 4:
        raise ScenarioError("churn traces need at least 4 vertices")
    edges = list(graph.edges())
    max_failed_vertices = max(1, n // 5)
    max_failed_edges = max(1, graph.num_edges // 4)
    failed_v: set[int] = set()
    failed_e: set[tuple[int, int]] = set()
    open_partitions: list[tuple[tuple[int, int], ...]] = []
    trace_seed = rng.randrange(1 << 30)
    rows: list[ScenarioEvent] = []

    def partition_edges() -> set[tuple[int, int]]:
        return {e for cut in open_partitions for e in cut}

    while len(rows) < num_events:
        roll = rng.random()
        if roll < 0.10 and len(failed_v) < max_failed_vertices:
            candidates = [v for v in range(n) if v not in failed_v]
            if len(candidates) > 2:
                v = rng.choice(candidates)
                failed_v.add(v)
                rows.append(_row("fail_vertex", vertex=v))
                continue
        if roll < 0.22 and len(failed_e) < max_failed_edges:
            candidates = [
                e for e in edges
                if e not in failed_e and e not in partition_edges()
            ]
            if candidates:
                e = rng.choice(candidates)
                failed_e.add(e)
                rows.append(_row("fail_edge", edge=e))
                continue
        if roll < 0.30 and failed_v:
            v = rng.choice(sorted(failed_v))
            failed_v.discard(v)
            rows.append(_row("recover_vertex", vertex=v))
            continue
        if roll < 0.38 and failed_e:
            e = rng.choice(sorted(failed_e))
            failed_e.discard(e)
            rows.append(_row("recover_edge", edge=e))
            continue
        if roll < 0.42 and not open_partitions:
            cut = _partition_cut(graph, rng, failed_e | partition_edges())
            if cut:
                open_partitions.append(cut)
                rows.append(_row("partition", edges=cut))
                continue
        if roll < 0.46 and open_partitions:
            cut = open_partitions.pop(rng.randrange(len(open_partitions)))
            rows.append(_row("heal_partition", edges=cut))
            continue
        if roll < 0.62:
            rows.append(_row("propagate", rounds=rng.randint(1, 3)))
            continue
        live = [v for v in range(n) if v not in failed_v]
        s, t = rng.sample(live, 2)
        rows.append(_row("send", s=s, t=t))

    # close every window, then flood to (attempted) saturation and
    # probe: with lossless links awareness reaches 1.0 and the runner
    # applies the strict (1+eps) stretch check
    for cut in open_partitions:
        rows.append(_row("heal_partition", edges=cut))
    for _ in range(4 if loss > 0 else 1):
        rows.append(_row("propagate", rounds=n))
    live = [v for v in range(n) if v not in failed_v]
    for _ in range(min(4, len(live) // 2)):
        s, t = rng.sample(live, 2)
        rows.append(_row("send", s=s, t=t))
    return ScenarioTrace(
        name=name,
        graph_spec=graph_spec,
        duration_ms=1.0,  # nominal: the network simulator has no clock
        seed=trace_seed,
        base_rate_per_ms=0.0,
        events=tuple(rows),
        loss=loss,
    )


#: graph specs and message-loss levels the standard churn battery
#: rotates through (graphs up to n = 64)
_CHURN_GRAPHS = (
    "grid:8x8", "cycle:48", "road:7x7:3", "torus:6x6", "tree:40:5",
    "hypercube:6",
)
_CHURN_LOSSES = (0.0, 0.15, 0.35)


def churn_suite(
    num_schedules: int = 20, num_events: int = 100, seed: int = 0
) -> list[ScenarioTrace]:
    """The standard churn battery's traces, one per graph/loss turn.

    Rotates graph families up to ``n = 64`` and message-loss levels
    (lossless, 15 %, 35 %); :func:`repro.chaos.runner.standard_suite`
    replays them, alternating probe and silent failure modes.
    Deterministic in ``seed``.
    """
    return [
        churn_trace(
            _CHURN_GRAPHS[i % len(_CHURN_GRAPHS)],
            num_events=num_events,
            seed=seed + 1000 * i + 1,
            loss=_CHURN_LOSSES[i % len(_CHURN_LOSSES)],
            name=f"churn-{i}",
        )
        for i in range(num_schedules)
    ]


def random_shard_plan(
    graph_spec: str,
    num_shards: int = 4,
    replication: int = 2,
    num_events: int = 60,
    seed: RngLike = None,
    hedging: bool = True,
    name: str = "shard-chaos",
) -> ScenarioTrace:
    """A seeded serve-chaos schedule as a v2 trace of scripted rows.

    Mixes ``shard_down`` / ``shard_slow`` / ``shard_flaky`` /
    ``shard_corrupt`` / ``shard_crash`` rows (tracking shard health so
    every row is meaningful — a down shard is not downed again, and a
    crashed shard comes back with ``shard_restart``, a genuine
    reload-from-disk), ``advance`` gaps, and forbidden-set ``query``
    rows.  The first ``num_events`` rows are drawn; then every shard is
    recovered or restarted, the breaker cooldowns elapse, and four
    more queries run; :func:`recovery_probes` closes the schedule.
    """
    graph = build_graph(graph_spec)
    rng = make_rng(seed)
    n = graph.num_vertices
    if n < 4:
        raise ScenarioError("shard plans need at least 4 vertices")
    if num_shards < 1:
        raise ScenarioError("shard plans need at least one shard")
    edges = list(graph.edges())
    unhealthy: dict[int, str] = {}
    trace_seed = rng.randrange(1 << 30)
    cooldown = BreakerPolicy().cooldown_ms
    rows: list[ScenarioEvent] = []

    def random_query() -> None:
        s, t = rng.sample(range(n), 2)
        pool = [v for v in range(n) if v not in (s, t)]
        faults = tuple(
            rng.sample(pool, min(len(pool), rng.randint(0, MAX_VERTEX_FAULTS)))
        )
        edge_faults: tuple[tuple[int, int], ...] = ()
        if edges and rng.random() < EDGE_FAULT_PROBABILITY:
            a, b = rng.choice(edges)
            edge_faults = ((min(a, b), max(a, b)),)
        rows.append(_row(
            "query", s=s, t=t, faults=faults, edge_faults=edge_faults
        ))

    def heal(shard: int) -> None:
        kind = "shard_restart" if unhealthy.pop(shard) == "crash" \
            else "shard_recover"
        rows.append(_row(kind, shard=shard))

    while len(rows) < num_events:
        roll = rng.random()
        healthy = [s for s in range(num_shards) if s not in unhealthy]
        if roll < 0.09 and healthy:
            shard = rng.choice(healthy)
            unhealthy[shard] = "down"
            rows.append(_row("shard_down", shard=shard))
        elif roll < 0.16 and healthy:
            shard = rng.choice(healthy)
            unhealthy[shard] = "slow"
            rows.append(_row(
                "shard_slow", shard=shard,
                latency_ms=rng.choice([40.0, 80.0, 160.0]),
            ))
        elif roll < 0.23 and healthy:
            shard = rng.choice(healthy)
            unhealthy[shard] = "flaky"
            rows.append(_row(
                "shard_flaky", shard=shard,
                probability=rng.choice([0.3, 0.6, 0.9]),
            ))
        elif roll < 0.29 and healthy:
            shard = rng.choice(healthy)
            unhealthy[shard] = "corrupt"
            rows.append(_row(
                "shard_corrupt", shard=shard,
                fraction=rng.choice([0.25, 0.5, 1.0]),
            ))
        elif roll < 0.36 and healthy:
            shard = rng.choice(healthy)
            unhealthy[shard] = "crash"
            rows.append(_row("shard_crash", shard=shard))
        elif roll < 0.46 and unhealthy:
            heal(rng.choice(sorted(unhealthy)))
        elif roll < 0.54:
            rows.append(_row(
                "advance", duration_ms=rng.choice([20.0, 60.0, 150.0, 400.0])
            ))
        else:
            random_query()

    for shard in sorted(unhealthy):
        heal(shard)
    rows.append(_row("advance", duration_ms=2 * cooldown))
    for _ in range(4):
        random_query()
    rows.extend(recovery_probes(n, trace_seed))
    gaps = [row.duration_ms for row in rows if row.kind == "advance"]
    return ScenarioTrace(
        name=name,
        graph_spec=graph_spec,
        # the gaps alone; each query's own latency runs the clock past it
        duration_ms=float(sum(gap for gap in gaps if gap is not None)),
        seed=trace_seed,
        base_rate_per_ms=0.0,
        num_shards=num_shards,
        replication=replication,
        events=tuple(rows),
        cache_capacity=None,
        hedging=hedging,
        service_deadline_ms=SERVE_CHAOS_DEADLINE_MS,
    )


def recovery_probes(num_vertices: int, seed: int) -> tuple[ScenarioEvent, ...]:
    """The healed tier's closing check, as scripted rows.

    A wait of two breaker cooldowns, then three forbidden-set-free
    queries drawn from ``seed + 3``, each marked ``exact=1``: once every
    shard is healthy again and the breakers have had time to close, the
    tier must answer exactly.  ``seed`` is the trace's seed.
    """
    rng = make_rng(seed + 3)
    rows = [_row("advance", duration_ms=2 * BreakerPolicy().cooldown_ms)]
    for _ in range(3):
        s, t = rng.sample(range(num_vertices), 2)
        rows.append(_row("query", s=s, t=t, exact=True))
    return tuple(rows)


def serve_chaos_suite(
    num_schedules: int = 20, num_events: int = 60, seed: int = 0
) -> list[ScenarioTrace]:
    """The standard serve-chaos matrix, one schedule per graph/layout turn.

    Rotates graph families, shard counts, replication factors
    (including the unreplicated worst case) and hedging on/off, so one
    call covers the matrix.  Deterministic in ``seed``.
    """
    traces = []
    for i in range(num_schedules):
        num_shards, replication = _SUITE_LAYOUTS[i % len(_SUITE_LAYOUTS)]
        traces.append(random_shard_plan(
            _SUITE_GRAPHS[i % len(_SUITE_GRAPHS)],
            num_shards=num_shards,
            replication=replication,
            num_events=num_events,
            seed=seed + 1000 * i + 1,
            hedging=i % 2 == 0,
            name=f"serve-chaos-{i}",
        ))
    return traces


#: the traffic battery's three tenants — a heavy aggregator whose quota
#: sits below its arrival rate, a steady mid-size product and a light
#: interactive tail
_TRAFFIC_TENANTS = (
    TraceTenant(
        "aggregator", weight=3.0, num_users=5_000_000, fault_rate=0.05,
        max_faults=3, quota_rate=1.0, quota_burst=30.0,
    ),
    TraceTenant(
        "product", weight=1.5, num_users=2_000_000, fault_rate=0.08,
        max_faults=2,
    ),
    TraceTenant(
        "interactive", weight=0.5, num_users=1_000_000, fault_rate=0.02,
        max_faults=1, deadline_ms=150.0,
    ),
)

#: the battery's rush-hour curve, repeated every second: ``(offset,
#: multiplier, length)`` of each window off the base rate
_RUSH_HOUR = ((0.0, 0.6, 400.0), (400.0, 1.6, 300.0))
_RUSH_HOUR_CYCLE_MS = 1000.0


def traffic_trace(
    seed: int = 0, duration_ms: float = 1000.0, multiplier: float = 4.0
) -> ScenarioTrace:
    """The traffic battery: 4x overload plus a concurrent shard outage.

    A 10×10 grid served by 4 *unreplicated* shards, shard 0 down from
    400 to 700 ms (so the outage genuinely degrades answers), and
    open-loop traffic at ``multiplier`` arrivals per ms (1 is about
    what a serial backend with ~1 ms fetches absorbs; 4 is the
    acceptance regime): three Zipf tenant populations in the millions,
    a rush-hour curve as ``flash_crowd`` rows (0.6x for 400 ms, then
    1.6x for 300 ms, every second) and a 450–700 ms fault burst whose
    forbidden sets concentrate in a ball around a drawn center.  A
    64-entry label cache, smaller than the working set, keeps the
    backend the bottleneck, so the overload is real; the aggregator's
    quota sits below its arrival rate, so all three shed reasons
    occur.  Rows that would start at or after ``duration_ms`` are left
    out.  Deterministic in ``seed``.
    """
    if not multiplier > 0:
        raise ScenarioError(
            f"traffic multiplier must be positive, got {multiplier:g}",
            field="multiplier",
        )
    rows: list[ScenarioEvent] = []
    cycle = 0.0
    while cycle < duration_ms:
        for offset, factor, length in _RUSH_HOUR:
            at = cycle + offset
            if at < duration_ms:
                rows.append(ScenarioEvent(
                    at, "flash_crowd", multiplier=factor,
                    duration_ms=min(length, duration_ms - at),
                ))
        cycle += _RUSH_HOUR_CYCLE_MS
    for at, kind in ((400.0, "shard_down"), (700.0, "shard_recover")):
        if at < duration_ms:
            rows.append(ScenarioEvent(at, kind, shard=0))
    rows.sort(key=lambda row: row.at_ms)
    return ScenarioTrace(
        name="traffic",
        graph_spec="grid:10x10",
        duration_ms=duration_ms,
        seed=seed,
        base_rate_per_ms=float(multiplier),
        zipf_exponent=1.3,
        num_shards=4,
        replication=1,
        tenants=_TRAFFIC_TENANTS,
        events=tuple(rows),
        cache_capacity=64,
        gateway=TraceGateway(tenant_queue=24, quota_rate=2.0, quota_burst=40.0),
        burst=TraceBurst(
            at_ms=450.0, duration_ms=250.0, radius=2, fault_rate=0.6,
        ),
        slo=TraceSLO(
            p99_ms=400.0, shed_rate=0.9, goodput=0.05, fairness=3.0,
            service_fraction=0.5,
        ),
    )
