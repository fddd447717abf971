"""Lowering scenario traces onto the serving and chaos machinery.

:func:`compile_trace` turns a parsed :class:`ScenarioTrace` into a
:class:`CompiledScenario` — everything the runner replays besides the
open-loop traffic, which
:class:`~repro.gateway.traffic.TrafficGenerator` reads straight off the
trace (header rate and Zipf exponent, tenant rows, ``flash_crowd``
windows, the ``burst`` header and the ``ball_outage`` / ``outage``
rows):

* ``maintenance`` unrolls into a rolling ``shard_down`` /
  ``shard_recover`` pair per shard, one window after another;
* timed shard and rollout rows are the timestamped actions, sorted by
  time;
* ``probe`` events become :class:`TimedRequest`\\ s under the reserved
  ``probe`` tenant;
* scripted rows stay rows, in file order;
* the ``gateway`` header and the tenants' quotas become the
  :class:`GatewayConfig`.

Compilation is also where every *graph-dependent* check happens
(vertex ranges, edges that must exist, shard ids inside the layout,
flash-crowd overlap, maintenance sweeps that must end in the run), so
a trace that compiles replays without surprises.  Network rows are the
chaos runner's (:mod:`repro.chaos.runner`), which runs the same graph
checks through :func:`check_rows`; compiling one is an error.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ScenarioError
from repro.gateway.admission import QuotaPolicy
from repro.gateway.gateway import GatewayConfig, GatewayRequest
from repro.gateway.traffic import TimedRequest
from repro.graphs.graph import Graph
from repro.scenario.trace import NETWORK_KINDS, ScenarioEvent, ScenarioTrace

#: tenant name reserved for injected probe requests
PROBE_TENANT = "probe"


@dataclass(frozen=True)
class CompiledScenario:
    """A trace lowered onto the concrete machinery, ready to replay.

    ``actions`` are the timed shard and rollout rows (maintenance
    unrolled), ``probes`` the injected probe requests and ``script``
    the scripted rows.
    """

    trace: ScenarioTrace
    graph: Graph
    actions: tuple[ScenarioEvent, ...]
    probes: tuple[TimedRequest, ...]
    script: tuple[ScenarioEvent, ...]
    gateway: GatewayConfig


def build_graph(spec: str) -> Graph:
    """Build the trace's graph, converting CLI errors to ScenarioError."""
    from repro.cli import parse_graph_spec

    try:
        return parse_graph_spec(spec)
    except SystemExit as exc:
        raise ScenarioError(str(exc), field="graph") from exc


def _check_vertex(
    graph: Graph, value: int, index: int, event: ScenarioEvent, fld: str
) -> None:
    if not 0 <= value < graph.num_vertices:
        raise ScenarioError(
            f"event {index} ({event.kind}): vertex {value} outside the "
            f"graph's range [0, {graph.num_vertices})",
            field=fld,
        )


def _check_event(
    graph: Graph, trace: ScenarioTrace, index: int, event: ScenarioEvent
) -> None:
    kind = event.kind
    # a field the kind does not take is None or empty, so one pass over
    # the vertex and edge fields checks every kind
    for fld in ("center", "vertex", "s", "t"):
        value = getattr(event, fld)
        if value is not None:
            _check_vertex(graph, value, index, event, fld)
    for fld in ("vertices", "faults"):
        for vertex in getattr(event, fld):
            _check_vertex(graph, vertex, index, event, fld)
    for a, b in event.edge_faults:
        _check_vertex(graph, a, index, event, "edge_faults")
        _check_vertex(graph, b, index, event, "edge_faults")
    edge = () if event.edge is None else (event.edge,)
    for fld, edges in (("edge", edge), ("edges", event.edges)):
        for a, b in edges:
            _check_vertex(graph, a, index, event, fld)
            _check_vertex(graph, b, index, event, fld)
            if not graph.has_edge(min(a, b), max(a, b)):
                raise ScenarioError(
                    f"event {index} ({kind}): edge {a}-{b} is not in the "
                    "graph",
                    field=fld,
                )
    if kind == "maintenance":
        for shard in event.shards:
            if shard >= trace.num_shards:
                raise ScenarioError(
                    f"event {index} (maintenance): shard {shard} outside "
                    f"the layout's {trace.num_shards} shards",
                    field="shards",
                )
        if event.end_ms() > trace.duration_ms:
            raise ScenarioError(
                f"event {index} (maintenance): the sweep's last window "
                f"ends at t={event.end_ms():g}, after the scenario "
                f"duration {trace.duration_ms:g}",
                field="window_ms",
            )
    if event.shard is not None and event.shard >= trace.num_shards:
        raise ScenarioError(
            f"event {index} ({kind}): shard {event.shard} outside the "
            f"layout's {trace.num_shards} shards",
            field="shard",
        )


def check_rows(
    trace: ScenarioTrace, graph: Graph, network: bool = False
) -> None:
    """Run the graph-dependent checks on every row of ``trace``.

    ``network`` names the rows the caller replays: the network
    simulator's (the chaos runner) or the serving stack's
    (:func:`compile_trace`).  A row of the other kind is an error.
    """
    for index, event in enumerate(trace.events):
        if (event.kind in NETWORK_KINDS) != network:
            what = "serving" if network else "network"
            where = "the network simulator" if network else "the serving stack"
            raise ScenarioError(
                f"event {index} ({event.kind}) is a {what} row, which "
                f"{where} does not replay"
            )
        _check_event(graph, trace, index, event)


def _check_crowds(trace: ScenarioTrace) -> None:
    """Flash-crowd windows set the rate one at a time: no two overlap."""
    cursor = 0.0
    for crowd in [e for e in trace.events if e.kind == "flash_crowd"]:
        if crowd.at_ms < cursor:
            raise ScenarioError(
                f"flash_crowd at t={crowd.at_ms:g} overlaps the previous "
                f"flash_crowd window (which runs to t={cursor:g}) — "
                "rate overrides must not overlap",
                field="multiplier",
            )
        cursor = min(crowd.end_ms(), trace.duration_ms)


def _actions(trace: ScenarioTrace) -> tuple[ScenarioEvent, ...]:
    actions: list[ScenarioEvent] = []
    for event in trace.events:
        if event.scripted:
            continue
        if event.kind == "maintenance":
            for step, shard in enumerate(event.shards):
                start = event.at_ms + step * event.window_ms
                actions.append(ScenarioEvent(start, "shard_down", shard=shard))
                actions.append(ScenarioEvent(
                    start + event.window_ms, "shard_recover", shard=shard
                ))
        elif event.kind.startswith(("shard_", "rollout_")):
            actions.append(event)
    return tuple(sorted(actions, key=lambda action: action.at_ms))


def _probes(trace: ScenarioTrace) -> tuple[TimedRequest, ...]:
    probes: list[TimedRequest] = []
    for event in trace.events:
        if event.kind != "probe":
            continue
        probes.append(TimedRequest(
            at_ms=event.at_ms,
            request=GatewayRequest(
                tenant=PROBE_TENANT,
                s=event.s,
                t=event.t,
                vertex_faults=tuple(event.faults),
                edge_faults=tuple(
                    (min(a, b), max(a, b)) for a, b in event.edge_faults
                ),
            ),
        ))
    return tuple(probes)


def compile_trace(
    trace: ScenarioTrace, graph: Graph | None = None
) -> CompiledScenario:
    """Lower ``trace`` onto the concrete machinery (full validation).

    ``graph`` short-circuits the spec lookup when the caller already
    built one (the worst-F search compiles hundreds of candidate
    traces over a single graph).
    """
    if graph is None:
        graph = build_graph(trace.graph_spec)
    check_rows(trace, graph)
    for tenant in trace.tenants:
        if tenant.name == PROBE_TENANT:
            raise ScenarioError(
                f"tenant name {PROBE_TENANT!r} is reserved for injected "
                "probe requests"
            )
    _check_crowds(trace)
    return CompiledScenario(
        trace=trace,
        graph=graph,
        actions=_actions(trace),
        probes=_probes(trace),
        script=tuple(event for event in trace.events if event.scripted),
        gateway=_gateway(trace),
    )


def _gateway(trace: ScenarioTrace) -> GatewayConfig:
    """The gateway the trace's ``gateway`` header and tenant quotas ask for."""
    gateway = trace.gateway
    return GatewayConfig(
        per_tenant_capacity=gateway.tenant_queue,
        default_quota=QuotaPolicy(gateway.quota_rate, gateway.quota_burst),
        tenant_quotas={
            tenant.name: QuotaPolicy(tenant.quota_rate, tenant.quota_burst)
            for tenant in trace.tenants if tenant.quota_rate is not None
        },
    )
