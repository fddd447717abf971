"""The declarative scenario-trace format: parse, validate, serialize.

A scenario trace is a timestamped schedule of structured failures and
traffic shaping over *virtual* time, written as a line-oriented text
file (the LinkGuardian style: one ``@<time> <kind> k=v ...`` row per
event) with a schema-version header and a CRC footer::

    repro-scenario v1
    name regional-ball-outage
    graph grid:10x10
    seed 7
    duration_ms 900
    window_ms 100
    rate 0.5
    zipf 1.1
    shards 4
    replication 2
    tenant default weight=1 users=1000000 fault_rate=0.05 max_faults=3
    @200 ball_outage center=45 radius=2 duration_ms=300 fault_rate=0.9 max_faults=3
    @250 probe s=0 t=99 faults=44,45,46
    @500 shard_down shard=0
    @650 shard_recover shard=0
    crc 89abcdef

The parser is **strict**: every failure is a
:class:`~repro.exceptions.ScenarioError` naming the 1-based line (and
field, when one is at fault).  Unknown directives, unknown event
kinds, unknown or missing fields, out-of-range values, out-of-order
timestamps, unpaired rollouts and a wrong CRC all fail loudly — a
scenario that parses is a scenario that replays.

Serialization is **canonical**: header directives in a fixed order
with every default resolved, events in file order (timestamps must be
non-decreasing), fields in a fixed per-kind order, numbers in
shortest-round-trip form.  ``parse_trace(serialize_trace(t)) == t``
and serializing a parsed canonical file reproduces it byte for byte —
the property test pins this down.  The ``crc`` footer is CRC32 over
the canonical body, so the checksum is content-addressed: comments
and blank lines (which the parser skips) never invalidate it.

Event taxonomy (virtual milliseconds throughout):

``ball_outage``
    a correlated regional outage: for ``duration_ms`` starting at the
    event time, sampled queries draw their forbidden sets inside the
    metric ball ``B(center, radius)`` — exactly the object the
    decoder's fragments reason about.  Recovery is implicit at the
    window's end.
``outage``
    the explicit-set variant: the forbidden pool is the listed
    ``vertices`` (the adversarial worst-``F`` search emits these).
    While fault windows overlap, the one listed first (the v2
    ``burst`` header, then the rows in file order) supplies the pool.
``flash_crowd``
    an arrival-rate override window (``multiplier`` × the base rate).
``maintenance``
    a rolling maintenance sweep: each listed shard goes down for
    ``window_ms``, one after another, starting at the event time.
``shard_down`` / ``shard_recover`` / ``shard_crash`` / ``shard_restart``
    serving-tier primitives, timestamped.
``rollout_begin`` / ``rollout_commit`` / ``rollout_abort``
    blue/green label-generation lifecycle; ``rollout_begin`` names the
    graph ``edge`` the new generation removes.
``probe``
    one explicit, deterministic query (``s``, ``t``, optional
    ``faults`` / ``edge_faults``) injected at the event time — the
    replayable witness a worst-``F`` search commits.

Version 2 adds what the generated serve-chaos schedules, the traffic
battery and network churn need (``docs/scenarios.md`` lists which
generator uses each feature), and nothing else:

* **scripted rows** ``> <kind> k=v ...`` — no timestamp; they run in
  file order in one loop task, each after the previous one finished.
  A trace's rows are all timed or all scripted;
* kinds ``shard_slow`` (``latency_ms``), ``shard_flaky``
  (``probability``), ``shard_corrupt`` (``fraction``) and
  ``rollout_crash`` (``edge``), timed or scripted;
* scripted-only kinds ``query`` (a synchronous call to the service,
  bypassing the gateway; ``exact=1`` marks a query that must be
  answered exactly) and ``advance`` (a ``duration_ms`` gap);
* scripted-only *network* kinds ``fail_vertex`` / ``recover_vertex``
  (``vertex``), ``fail_edge`` / ``recover_edge`` (``edge``),
  ``partition`` / ``heal_partition`` (the cut as ``edges``),
  ``propagate`` (``rounds`` of flooding) and ``send`` (``s``, ``t``),
  which :class:`~repro.chaos.runner.ChaosRunner` replays over the
  network simulator.  A trace's rows are all network rows or all
  serving rows, and a network trace has no open-loop traffic;
* header values ``cache``, ``hedging``, ``service_deadline_ms``,
  ``gateway``, ``burst`` and ``slo``, per-tenant quotas, ``rate 0``
  (no open-loop traffic, so no ``burst``, tenant rows, outages or
  flash crowds either) and ``loss`` (a network trace's per-link
  message-drop probability).

A trace that uses none of them serializes as ``v1``, so every v1 file
re-serializes byte-identically with the same CRC.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

from repro.exceptions import ScenarioError

#: the format magic and the newest schema version this reader speaks
SCHEMA_VERSION = 2
MAGIC = "repro-scenario"

#: every event kind the format knows, with its field table:
#: ``field name -> (type tag, required, default)``.  Type tags:
#: ``int`` / ``num`` / ``edge`` (``a-b``) / ``ints`` (``1,2,3``) /
#: ``edges`` (``1-2,3-4``) / ``flag`` (``1``, written only when set).
EVENT_FIELDS: dict[str, tuple[tuple[str, str, bool, object], ...]] = {
    "ball_outage": (
        ("center", "int", True, None),
        ("radius", "int", True, None),
        ("duration_ms", "num", True, None),
        ("fault_rate", "num", False, 0.9),
        ("max_faults", "int", False, 3),
    ),
    "outage": (
        ("vertices", "ints", True, None),
        ("duration_ms", "num", True, None),
        ("fault_rate", "num", False, 0.9),
        ("max_faults", "int", False, 3),
    ),
    "flash_crowd": (
        ("multiplier", "num", True, None),
        ("duration_ms", "num", True, None),
    ),
    "maintenance": (
        ("shards", "ints", True, None),
        ("window_ms", "num", True, None),
    ),
    "shard_down": (("shard", "int", True, None),),
    "shard_recover": (("shard", "int", True, None),),
    "shard_crash": (("shard", "int", True, None),),
    "shard_restart": (("shard", "int", True, None),),
    "rollout_begin": (("edge", "edge", True, None),),
    "rollout_commit": (),
    "rollout_abort": (),
    "probe": (
        ("s", "int", True, None),
        ("t", "int", True, None),
        ("faults", "ints", False, ()),
        ("edge_faults", "edges", False, ()),
    ),
    # -- v2 ------------------------------------------------------------------
    "shard_slow": (
        ("shard", "int", True, None),
        ("latency_ms", "num", True, None),
    ),
    "shard_flaky": (
        ("shard", "int", True, None),
        ("probability", "num", True, None),
    ),
    "shard_corrupt": (
        ("shard", "int", True, None),
        ("fraction", "num", True, None),
    ),
    "rollout_crash": (("edge", "edge", True, None),),
    "query": (
        ("s", "int", True, None),
        ("t", "int", True, None),
        ("faults", "ints", False, ()),
        ("edge_faults", "edges", False, ()),
        ("exact", "flag", False, False),
    ),
    "advance": (("duration_ms", "num", True, None),),
    "fail_vertex": (("vertex", "int", True, None),),
    "recover_vertex": (("vertex", "int", True, None),),
    "fail_edge": (("edge", "edge", True, None),),
    "recover_edge": (("edge", "edge", True, None),),
    "partition": (("edges", "edges", True, None),),
    "heal_partition": (("edges", "edges", True, None),),
    "propagate": (("rounds", "int", True, None),),
    "send": (("s", "int", True, None), ("t", "int", True, None)),
}

EVENT_KINDS = frozenset(EVENT_FIELDS)

#: the kinds a v1 file may carry
V1_KINDS = frozenset({
    "ball_outage", "outage", "flash_crowd", "maintenance", "shard_down",
    "shard_recover", "shard_crash", "shard_restart", "rollout_begin",
    "rollout_commit", "rollout_abort", "probe",
})

#: the network simulator's kinds: scripted-only, since it has no clock
NETWORK_KINDS = frozenset({
    "fail_vertex", "recover_vertex", "fail_edge", "recover_edge",
    "partition", "heal_partition", "propagate", "send",
})

#: kinds only a scripted (``>``) row may carry
SCRIPT_ONLY_KINDS = frozenset({"query", "advance"}) | NETWORK_KINDS

#: kinds only a timed (``@``) row may carry: windows and gateway probes
TIMED_ONLY_KINDS = frozenset({
    "ball_outage", "outage", "flash_crowd", "maintenance", "probe",
})

#: kinds that open a fault window over graph vertices
OUTAGE_KINDS = frozenset({"ball_outage", "outage"})

_TENANT_FIELDS: tuple[tuple[str, str], ...] = (
    ("weight", "num"),
    ("users", "int"),
    ("fault_rate", "num"),
    ("max_faults", "int"),
    ("deadline_ms", "num"),
    ("quota_rate", "num"),
    ("quota_burst", "num"),
)

#: what a v1 trace replays with: a 256-entry label cache, hedged reads
#: and a 120 ms service deadline
V1_CACHE_CAPACITY = 256
V1_SERVICE_DEADLINE_MS = 120.0


def _fmt_num(value: float) -> str:
    """Shortest round-trip decimal text for ``value`` (canonical form)."""
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _name_ok(name: str) -> bool:
    return bool(name) and all(
        ch.isalnum() or ch in "_.-" for ch in name
    )


@dataclass(frozen=True)
class TraceTenant:
    """One tenant row of a trace header: a share of the open-loop traffic.

    ``weight`` sets the tenant's fraction of arrivals; ``num_users``
    sizes the simulated user population its requests are drawn from;
    ``fault_rate`` is the per-request probability of carrying a
    forbidden set (of up to ``max_faults`` vertices) outside fault
    windows; ``deadline_ms`` is attached to every request (None = the
    gateway default).  ``quota_rate`` / ``quota_burst`` (v2, set
    together) override the gateway's token bucket for this tenant.
    """

    name: str
    weight: float = 1.0
    num_users: int = 1_000_000
    fault_rate: float = 0.05
    max_faults: int = 3
    deadline_ms: float | None = None
    quota_rate: float | None = None
    quota_burst: float | None = None

    def __post_init__(self) -> None:
        problem = tenant_problem(self)
        if problem is not None:
            raise ScenarioError(problem)


def tenant_problem(tenant: TraceTenant) -> str | None:
    """The first thing wrong with ``tenant``, or None when it is valid."""
    if not _name_ok(tenant.name):
        return f"bad tenant name {tenant.name!r} (want [A-Za-z0-9_.-]+)"
    if tenant.weight <= 0:
        return f"tenant weight must be positive, got {_fmt_num(tenant.weight)}"
    if tenant.num_users < 1:
        return f"tenant needs at least one user, got {tenant.num_users}"
    if not 0.0 <= tenant.fault_rate <= 1.0:
        return (
            f"tenant fault_rate must be in [0, 1], "
            f"got {_fmt_num(tenant.fault_rate)}"
        )
    if tenant.max_faults < 1:
        return f"tenant max_faults must be >= 1, got {tenant.max_faults}"
    for name in ("deadline_ms", "quota_rate", "quota_burst"):
        value = getattr(tenant, name)
        if value is not None and value <= 0:
            return f"tenant {name} must be positive, got {_fmt_num(value)}"
    if (tenant.quota_rate is None) != (tenant.quota_burst is None):
        return "tenant quota_rate and quota_burst go together"
    return None


@dataclass(frozen=True)
class TraceGateway:
    """The ``gateway`` header (v2): waiting-room and quota knobs.

    ``tenant_queue`` bounds each tenant's share of the waiting room
    (None: only the global bound); ``quota_rate`` / ``quota_burst``
    are the token bucket of every tenant without its own quota.
    """

    tenant_queue: int | None = None
    quota_rate: float = 0.5
    quota_burst: float = 25.0


@dataclass(frozen=True)
class TraceBurst:
    """The ``burst`` header (v2): a ball outage with a drawn center.

    The traffic generator draws the center from its own random stream
    when the run starts, and each request's fault count is capped by
    its tenant — the traffic battery's burst.  As a header value it may
    open at or after ``duration_ms``: the draw still happens.
    """

    at_ms: float
    duration_ms: float
    radius: int
    fault_rate: float


@dataclass(frozen=True)
class TraceSLO:
    """The ``slo`` header (v2): thresholds only a declaring trace is gated on.

    ``p99_ms`` bounds the gateway's p99 latency, ``shed_rate`` the
    shed fraction, ``goodput`` is the floor on the exact fraction,
    ``fairness`` bounds the served-cost ratio among backlogged tenants
    and ``service_fraction`` is each busy tenant's served-cost floor.
    """

    p99_ms: float
    shed_rate: float
    goodput: float
    fairness: float
    service_fraction: float


#: every ``k=v`` header-group field, in canonical order: ``(type tag,
#: lowest allowed, highest allowed or None, lowest excluded)``
_GROUP_FIELDS: dict[type, dict[str, tuple[str, float, float | None, bool]]] = {
    TraceGateway: {
        "tenant_queue": ("int", 1, None, False),
        "quota_rate": ("num", 0, None, True),
        "quota_burst": ("num", 0, None, True),
    },
    TraceBurst: {
        "at_ms": ("num", 0, None, False),
        "duration_ms": ("num", 0, None, True),
        "radius": ("int", 0, None, False),
        "fault_rate": ("num", 0, 1, False),
    },
    TraceSLO: {
        "p99_ms": ("num", 0, None, True),
        "shed_rate": ("num", 0, 1, False),
        "goodput": ("num", 0, 1, False),
        "fairness": ("num", 1, None, False),
        "service_fraction": ("num", 0, 1, False),
    },
}

_GROUPS: dict[str, type] = {
    "gateway": TraceGateway, "burst": TraceBurst, "slo": TraceSLO,
}


def _group_problem(directive: str, group: object) -> str | None:
    """The first out-of-range value of a ``gateway``/``burst``/``slo`` line."""
    for name, (_, low, high, exclusive) in _GROUP_FIELDS[type(group)].items():
        value = getattr(group, name)
        if value is None:
            continue  # an unset option
        if value < low or (exclusive and value == low) or (
            high is not None and value > high
        ):
            bounds = f"{'(' if exclusive else '['}{low}, " + (
                f"{high}]" if high is not None else "inf)"
            )
            return (
                f"{directive} {name} must be in {bounds}, "
                f"got {_fmt_num(value)}"
            )
    return None


@dataclass(frozen=True)
class ScenarioEvent:
    """One trace row; ``kind`` selects which fields apply.

    ``at_ms`` is the timestamp of a timed (``@``) row, or None for a
    scripted (``>``) row.
    """

    at_ms: float | None
    kind: str
    center: int | None = None
    radius: int | None = None
    duration_ms: float | None = None
    fault_rate: float | None = None
    max_faults: int | None = None
    multiplier: float | None = None
    shards: tuple[int, ...] = ()
    window_ms: float | None = None
    shard: int | None = None
    edge: tuple[int, int] | None = None
    s: int | None = None
    t: int | None = None
    faults: tuple[int, ...] = ()
    edge_faults: tuple[tuple[int, int], ...] = ()
    vertices: tuple[int, ...] = ()
    latency_ms: float | None = None
    probability: float | None = None
    fraction: float | None = None
    exact: bool | None = None
    vertex: int | None = None
    rounds: int | None = None
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in EVENT_FIELDS:
            raise ScenarioError(
                f"unknown event kind {self.kind!r} "
                f"(known: {', '.join(sorted(EVENT_KINDS))})"
            )
        # resolve optional-field defaults so equality, canonical text
        # and the CRC are all computed over fully resolved values
        for name, _, required, default in EVENT_FIELDS[self.kind]:
            if not required and getattr(self, name) is None:
                object.__setattr__(self, name, default)
        problem = event_problem(self)
        if problem is not None:
            raise ScenarioError(problem)

    @property
    def scripted(self) -> bool:
        """True for a scripted (``>``) row, which has no timestamp."""
        return self.at_ms is None

    def end_ms(self) -> float:
        """Where this timed event's window closes (its time if windowless)."""
        if self.kind in OUTAGE_KINDS or self.kind == "flash_crowd":
            return self.at_ms + self.duration_ms
        if self.kind == "maintenance":
            return self.at_ms + self.window_ms * len(self.shards)
        return self.at_ms


def event_problem(event: ScenarioEvent) -> str | None:
    """The first thing wrong with ``event``, or None when it is valid."""
    if event.at_ms is None:
        if event.kind in TIMED_ONLY_KINDS:
            return f"{event.kind} needs a timestamp (write '@<time> ...')"
    elif event.kind in SCRIPT_ONLY_KINDS:
        return f"{event.kind} is a scripted row (write '> {event.kind} ...')"
    elif event.at_ms < 0:
        return f"event time must be >= 0, got {_fmt_num(event.at_ms)}"
    spec = EVENT_FIELDS[event.kind]
    declared = {name for name, _, _, _ in spec}
    for name, _, required, _ in spec:
        if required and _field_empty(getattr(event, name)):
            return f"{event.kind} needs field {name!r}"
    for name in (
        "center", "radius", "duration_ms", "fault_rate", "max_faults",
        "multiplier", "window_ms", "shard", "edge", "s", "t",
        "latency_ms", "probability", "fraction", "exact", "vertex", "rounds",
    ):
        if name not in declared and getattr(event, name) is not None:
            return f"{event.kind} does not take field {name!r}"
    for name in ("shards", "faults", "edge_faults", "vertices", "edges"):
        if name not in declared and getattr(event, name) != ():
            return f"{event.kind} does not take field {name!r}"
    return _event_range_problem(event)


def _field_empty(value: object) -> bool:
    return value is None or value == ()


def _event_range_problem(event: ScenarioEvent) -> str | None:
    kind = event.kind
    if event.duration_ms is not None and event.duration_ms <= 0:
        return (
            f"{kind} duration_ms must be positive, "
            f"got {_fmt_num(event.duration_ms)}"
        )
    if kind == "ball_outage" and event.radius < 0:
        return f"ball_outage radius must be >= 0, got {event.radius}"
    if kind in OUTAGE_KINDS:
        if not 0.0 <= event.fault_rate <= 1.0:
            return (
                f"{kind} fault_rate must be in [0, 1], "
                f"got {_fmt_num(event.fault_rate)}"
            )
        if event.max_faults < 1:
            return f"{kind} max_faults must be >= 1, got {event.max_faults}"
    if kind == "outage" and len(set(event.vertices)) != len(event.vertices):
        return "outage vertices must be distinct"
    if kind == "flash_crowd" and event.multiplier <= 0:
        return (
            f"flash_crowd multiplier must be positive, "
            f"got {_fmt_num(event.multiplier)}"
        )
    if kind == "maintenance":
        if event.window_ms <= 0:
            return (
                f"maintenance window_ms must be positive, "
                f"got {_fmt_num(event.window_ms)}"
            )
        if len(set(event.shards)) != len(event.shards):
            return "maintenance shards must be distinct"
        if any(shard < 0 for shard in event.shards):
            return "maintenance shard ids must be >= 0"
    if event.shard is not None and event.shard < 0:
        return f"{kind} shard must be >= 0, got {event.shard}"
    if event.rounds is not None and event.rounds < 1:
        return f"{kind} rounds must be >= 1, got {event.rounds}"
    if event.latency_ms is not None and event.latency_ms <= 0:
        return (
            f"{kind} latency_ms must be positive, "
            f"got {_fmt_num(event.latency_ms)}"
        )
    for name in ("probability", "fraction"):
        value = getattr(event, name)
        if value is not None and not 0.0 < value <= 1.0:
            return f"{kind} {name} must be in (0, 1], got {_fmt_num(value)}"
    if kind in ("probe", "query"):
        forbidden = set(event.faults)
        if kind == "probe" and event.s == event.t:
            return "probe endpoints must differ"
        if event.s in forbidden or event.t in forbidden:
            return f"{kind} endpoint is inside its own forbidden set"
        if len(forbidden) != len(event.faults):
            return f"{kind} faults must be distinct"
    return None


@dataclass(frozen=True)
class ScenarioTrace:
    """One parsed (or programmatically built) scenario, fully resolved.

    Construction validates everything that does not need a concrete
    graph; :func:`repro.scenario.compile.compile_trace` does the rest.
    ``window_ms`` (the report-timeseries bucket) defaults to an eighth
    of the duration; an empty ``tenants`` tuple resolves to one
    default tenant — so two traces that mean the same thing compare,
    serialize and checksum identically.  The fields after ``events``
    are the v2 header values; their defaults are what a v1 trace
    replays with.
    """

    name: str
    graph_spec: str
    duration_ms: float
    seed: int = 0
    base_rate_per_ms: float = 0.5
    zipf_exponent: float = 1.1
    num_shards: int = 4
    replication: int = 2
    window_ms: float | None = None
    tenants: tuple[TraceTenant, ...] = ()
    events: tuple[ScenarioEvent, ...] = ()
    #: label-cache entries, or None for the plain resilient client
    cache_capacity: int | None = V1_CACHE_CAPACITY
    hedging: bool = True
    service_deadline_ms: float = V1_SERVICE_DEADLINE_MS
    gateway: TraceGateway = TraceGateway()
    burst: TraceBurst | None = None
    slo: TraceSLO | None = None
    #: per-link message-drop probability of a network trace's flooding
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.window_ms is None:
            object.__setattr__(self, "window_ms", self.duration_ms / 8.0)
        if not self.tenants:
            object.__setattr__(self, "tenants", (TraceTenant("default"),))
        object.__setattr__(self, "events", tuple(self.events))
        problem = trace_problem(self)
        if problem is not None:
            raise ScenarioError(problem)

    def with_seed(self, seed: int) -> "ScenarioTrace":
        """The same scenario under a different seed."""
        return replace(self, seed=seed)


def trace_version(trace: ScenarioTrace) -> int:
    """1 when ``trace`` uses no v2 feature, else 2."""
    v2 = (
        trace.base_rate_per_ms == 0
        or trace.cache_capacity != V1_CACHE_CAPACITY
        or not trace.hedging
        or trace.service_deadline_ms != V1_SERVICE_DEADLINE_MS
        or trace.gateway != TraceGateway()
        or trace.burst is not None
        or trace.slo is not None
        or trace.loss != 0
        or any(tenant.quota_rate is not None for tenant in trace.tenants)
        or any(
            event.scripted or event.kind not in V1_KINDS
            for event in trace.events
        )
    )
    return 2 if v2 else 1


def trace_problem(trace: ScenarioTrace) -> str | None:
    """The first graph-independent problem with ``trace``, or None."""
    if not _name_ok(trace.name):
        return f"bad scenario name {trace.name!r} (want [A-Za-z0-9_.-]+)"
    if not trace.graph_spec or any(ch.isspace() for ch in trace.graph_spec):
        return f"bad graph spec {trace.graph_spec!r}"
    if trace.duration_ms <= 0:
        return (
            f"duration_ms must be positive, got {_fmt_num(trace.duration_ms)}"
        )
    if trace.window_ms <= 0:
        return f"window_ms must be positive, got {_fmt_num(trace.window_ms)}"
    if trace.base_rate_per_ms < 0:
        return f"rate must be >= 0, got {_fmt_num(trace.base_rate_per_ms)}"
    if trace.zipf_exponent < 0:
        return f"zipf must be >= 0, got {_fmt_num(trace.zipf_exponent)}"
    if trace.num_shards < 1:
        return f"shards must be >= 1, got {trace.num_shards}"
    if not 1 <= trace.replication <= trace.num_shards:
        return (
            f"replication must be in [1, shards={trace.num_shards}], "
            f"got {trace.replication}"
        )
    if trace.cache_capacity is not None and trace.cache_capacity < 1:
        return f"cache must be >= 1 or none, got {trace.cache_capacity}"
    if trace.service_deadline_ms <= 0:
        return (
            "service_deadline_ms must be positive, "
            f"got {_fmt_num(trace.service_deadline_ms)}"
        )
    for directive in ("gateway", "burst", "slo"):
        group = getattr(trace, directive)
        problem = None if group is None else _group_problem(directive, group)
        if problem is not None:
            return problem
    if not 0 <= trace.loss <= 1:
        return f"loss must be in [0, 1], got {_fmt_num(trace.loss)}"
    names = [tenant.name for tenant in trace.tenants]
    if len(set(names)) != len(names):
        return f"duplicate tenant names: {sorted(names)}"
    if trace.base_rate_per_ms == 0:
        problem = _no_traffic_problem(trace)
        if problem is not None:
            return problem
    problem = _network_problem(trace)
    if problem is not None:
        return problem
    return _events_problem(trace)


def _network_problem(trace: ScenarioTrace) -> str | None:
    """Network rows replay on the simulator, serving rows on the stack."""
    network = [event.kind in NETWORK_KINDS for event in trace.events]
    if True not in network:
        if trace.loss != 0:
            return "loss drops flooding messages, but no row is a network row"
        return None
    if False in network:
        index = network.index(not network[0])
        return (
            f"event {index} ({trace.events[index].kind}): a trace's rows "
            "are all network rows or all serving rows, never both"
        )
    if trace.base_rate_per_ms != 0:
        return "network rows replay without open-loop traffic: write rate 0"
    return None


def _no_traffic_problem(trace: ScenarioTrace) -> str | None:
    """``rate 0`` turns open-loop traffic off: nothing may shape it."""
    if trace.burst is not None:
        return "burst shapes open-loop traffic, but rate 0 has none"
    if trace.tenants != (TraceTenant("default"),):
        return "tenant rows shape open-loop traffic, but rate 0 has none"
    for index, event in enumerate(trace.events):
        if event.kind in OUTAGE_KINDS or event.kind == "flash_crowd":
            return (
                f"event {index} ({event.kind}) shapes open-loop traffic, "
                "but rate 0 has none"
            )
    return None


def _events_problem(trace: ScenarioTrace) -> str | None:
    previous = 0.0
    rollout_pending = False
    for index, event in enumerate(trace.events):
        if event.scripted != trace.events[0].scripted:
            # the two streams would interleave at replay, so no file
            # order could say which row runs first
            return (
                f"event {index} ({event.kind}): a trace's rows are all "
                "timed ('@') or all scripted ('>'), never both"
            )
        if event.at_ms is not None:
            if event.at_ms < previous:
                return (
                    f"event {index} ({event.kind}) at "
                    f"t={_fmt_num(event.at_ms)} is out of order (previous "
                    f"event at t={_fmt_num(previous)})"
                )
            previous = event.at_ms
            if event.at_ms >= trace.duration_ms:
                return (
                    f"event {index} ({event.kind}) at "
                    f"t={_fmt_num(event.at_ms)} is past the scenario "
                    f"duration {_fmt_num(trace.duration_ms)}"
                )
        if event.kind in ("rollout_begin", "rollout_crash"):
            if rollout_pending:
                return (
                    f"event {index}: {event.kind} while a rollout is "
                    "already staged"
                )
            rollout_pending = event.kind == "rollout_begin"
        elif event.kind in ("rollout_commit", "rollout_abort"):
            if not rollout_pending:
                return f"event {index}: {event.kind} without a rollout_begin"
            rollout_pending = False
    if rollout_pending:
        return "rollout_begin without a matching rollout_commit/abort"
    return None


# -- serialization -----------------------------------------------------------


def _serialize_value(tag: str, value: object) -> str:
    if tag == "int":
        return str(value)
    if tag == "num":
        return _fmt_num(value)
    if tag == "edge":
        a, b = value
        return f"{a}-{b}"
    if tag == "ints":
        return ",".join(str(v) for v in value)
    if tag == "edges":
        return ",".join(f"{a}-{b}" for a, b in value)
    if tag == "flag":
        return "1"
    raise ScenarioError(f"unknown field type tag {tag!r}")


def _event_line(event: ScenarioEvent) -> str:
    head = ">" if event.at_ms is None else f"@{_fmt_num(event.at_ms)}"
    parts = [head, event.kind]
    for name, tag, _, _ in EVENT_FIELDS[event.kind]:
        value = getattr(event, name)
        if (value == () and tag in ("ints", "edges")) or value is False:
            continue  # canonical rule: omit empty lists and unset flags
        parts.append(f"{name}={_serialize_value(tag, value)}")
    return " ".join(parts)


def _tenant_line(tenant: TraceTenant) -> str:
    parts = [
        "tenant",
        tenant.name,
        f"weight={_fmt_num(tenant.weight)}",
        f"users={tenant.num_users}",
        f"fault_rate={_fmt_num(tenant.fault_rate)}",
        f"max_faults={tenant.max_faults}",
    ]
    for name in ("deadline_ms", "quota_rate", "quota_burst"):
        value = getattr(tenant, name)
        if value is not None:
            parts.append(f"{name}={_fmt_num(value)}")
    return " ".join(parts)


def _group_line(directive: str, group: object) -> str:
    parts = [directive]
    for name, (tag, _, _, _) in _GROUP_FIELDS[type(group)].items():
        value = getattr(group, name)
        if value is not None:
            parts.append(f"{name}={_serialize_value(tag, value)}")
    return " ".join(parts)


def _v2_header_lines(trace: ScenarioTrace) -> list[str]:
    """The v2 header values that differ from what a v1 trace replays with."""
    lines = []
    if trace.cache_capacity != V1_CACHE_CAPACITY:
        capacity = trace.cache_capacity
        lines.append(f"cache {'none' if capacity is None else capacity}")
    if not trace.hedging:
        lines.append("hedging off")
    if trace.service_deadline_ms != V1_SERVICE_DEADLINE_MS:
        lines.append(
            f"service_deadline_ms {_fmt_num(trace.service_deadline_ms)}"
        )
    if trace.gateway != TraceGateway():
        lines.append(_group_line("gateway", trace.gateway))
    for directive in ("burst", "slo"):
        group = getattr(trace, directive)
        if group is not None:
            lines.append(_group_line(directive, group))
    if trace.loss != 0:
        lines.append(f"loss {_fmt_num(trace.loss)}")
    return lines


def _canonical_body(trace: ScenarioTrace) -> str:
    lines = [
        f"{MAGIC} v{trace_version(trace)}",
        f"name {trace.name}",
        f"graph {trace.graph_spec}",
        f"seed {trace.seed}",
        f"duration_ms {_fmt_num(trace.duration_ms)}",
        f"window_ms {_fmt_num(trace.window_ms)}",
        f"rate {_fmt_num(trace.base_rate_per_ms)}",
        f"zipf {_fmt_num(trace.zipf_exponent)}",
        f"shards {trace.num_shards}",
        f"replication {trace.replication}",
    ]
    lines.extend(_v2_header_lines(trace))
    for tenant in trace.tenants:
        lines.append(_tenant_line(tenant))
    for event in trace.events:
        lines.append(_event_line(event))
    return "\n".join(lines) + "\n"


def trace_crc(trace: ScenarioTrace) -> int:
    """CRC32 over the canonical body (the value of the ``crc`` footer)."""
    return zlib.crc32(_canonical_body(trace).encode("utf-8")) & 0xFFFFFFFF


def serialize_trace(trace: ScenarioTrace) -> str:
    """The canonical text of ``trace``, CRC footer included."""
    body = _canonical_body(trace)
    return f"{body}crc {trace_crc(trace):08x}\n"


# -- parsing -----------------------------------------------------------------


_PARSE_DEFAULTS: dict[str, object] = {
    "seed": 0,
    "duration_ms": None,
    "window_ms": None,
    "rate": 0.5,
    "zipf": 1.1,
    "shards": 4,
    "replication": 2,
    "cache": V1_CACHE_CAPACITY,
    "hedging": True,
    "service_deadline_ms": V1_SERVICE_DEADLINE_MS,
    "loss": 0.0,
}


def _parse_scalar(tag: str, text: str, line: int, fld: str) -> object:
    try:
        if tag == "int":
            return int(text)
        if tag == "num":
            value = float(text)
            if value != value or value in (float("inf"), float("-inf")):
                raise ValueError("not finite")
            return value
        if tag == "edge":
            a, _, b = text.partition("-")
            if not b:
                raise ValueError("expected 'a-b'")
            return (int(a), int(b))
        if tag == "ints":
            return tuple(int(piece) for piece in text.split(","))
        if tag == "edges":
            return tuple(
                _parse_scalar("edge", piece, line, fld)
                for piece in text.split(",")
            )
        if tag == "flag":
            if text not in ("0", "1"):
                raise ValueError("expected 0 or 1")
            return text == "1"
        if tag == "cache":
            return None if text == "none" else int(text)
        if tag == "switch":
            if text not in ("on", "off"):
                raise ValueError("expected 'on' or 'off'")
            return text == "on"
    except ValueError as exc:
        raise ScenarioError(
            f"cannot parse {text!r} as {tag}: {exc}", line=line, field=fld
        ) from exc
    raise ScenarioError(f"unknown field type tag {tag!r}", line=line)


_SCALAR_TAGS = {
    "seed": "int", "shards": "int", "replication": "int",
    "cache": "cache", "hedging": "switch",
}


def _split_pairs(
    tokens: list[str], line: int, context: str
) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not key or not value:
            raise ScenarioError(
                f"bad {context} token {token!r} (want key=value)", line=line
            )
        if key in pairs:
            raise ScenarioError(
                f"duplicate {context} field {key!r}", line=line, field=key
            )
        pairs[key] = value
    return pairs


def _check_known(
    pairs: dict[str, str], known, line: int, context: str
) -> None:
    for key in sorted(pairs):
        if key not in known:
            raise ScenarioError(
                f"{context} field {key!r} "
                f"(known: {', '.join(sorted(known)) or 'none'})",
                line=line,
                field=key,
            )


def _parse_tenant(tokens: list[str], line: int) -> TraceTenant:
    if not tokens:
        raise ScenarioError("tenant directive needs a name", line=line)
    name, *rest = tokens
    pairs = _split_pairs(rest, line, "tenant")
    _check_known(
        pairs, {fld for fld, _ in _TENANT_FIELDS}, line, "unknown tenant"
    )
    values: dict[str, object] = {}
    for fld, tag in _TENANT_FIELDS:
        if fld in pairs:
            values[fld] = _parse_scalar(tag, pairs[fld], line, fld)
    try:
        return TraceTenant(
            name=name,
            weight=values.get("weight", 1.0),
            num_users=values.get("users", 1_000_000),
            fault_rate=values.get("fault_rate", 0.05),
            max_faults=values.get("max_faults", 3),
            deadline_ms=values.get("deadline_ms"),
            quota_rate=values.get("quota_rate"),
            quota_burst=values.get("quota_burst"),
        )
    except ScenarioError as exc:
        raise ScenarioError(str(exc), line=line) from exc


def _parse_group(directive: str, tokens: list[str], line: int) -> object:
    cls = _GROUPS[directive]
    spec = _GROUP_FIELDS[cls]
    pairs = _split_pairs(tokens, line, directive)
    _check_known(pairs, spec, line, f"unknown {directive}")
    values = {
        name: _parse_scalar(tag, pairs[name], line, name)
        for name, (tag, _, _, _) in spec.items() if name in pairs
    }
    try:
        return cls(**values)
    except TypeError as exc:
        raise ScenarioError(
            f"{directive} needs every field of {', '.join(spec)}", line=line
        ) from exc


def _parse_event(content: str, line: int) -> ScenarioEvent:
    scripted = content.startswith(">")
    tokens = content[1:].split() if scripted else content.split()
    if len(tokens) < (1 if scripted else 2):
        raise ScenarioError(
            "event line needs '@<time> <kind> [k=v ...]' or "
            "'> <kind> [k=v ...]'",
            line=line,
        )
    if scripted:
        at_ms = None
    else:
        at_ms = _parse_scalar("num", tokens.pop(0)[1:], line, "time")
    kind = tokens[0]
    if kind not in EVENT_FIELDS:
        raise ScenarioError(
            f"unknown event kind {kind!r} "
            f"(known: {', '.join(sorted(EVENT_KINDS))})",
            line=line,
        )
    pairs = _split_pairs(tokens[1:], line, "event")
    spec = EVENT_FIELDS[kind]
    _check_known(
        pairs, {name for name, _, _, _ in spec}, line,
        f"{kind} does not take",
    )
    values: dict[str, object] = {"at_ms": at_ms, "kind": kind}
    for name, tag, required, _ in spec:
        if name in pairs:
            values[name] = _parse_scalar(tag, pairs[name], line, name)
        elif required:
            raise ScenarioError(
                f"{kind} needs field {name!r}", line=line, field=name
            )
    try:
        return ScenarioEvent(**values)
    except ScenarioError as exc:
        raise ScenarioError(str(exc), line=line) from exc


def _parse_version(header: str, line: int) -> int:
    magic, _, version_text = header.partition(" ")
    if magic != MAGIC or not version_text.startswith("v"):
        raise ScenarioError(
            f"bad magic {header!r} (want '{MAGIC} v1' or "
            f"'{MAGIC} v{SCHEMA_VERSION}')",
            line=line,
        )
    try:
        version = int(version_text[1:])
    except ValueError as exc:
        raise ScenarioError(
            f"bad schema version {version_text!r}", line=line
        ) from exc
    if not 1 <= version <= SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema version {version} "
            f"(this reader speaks v1 and v{SCHEMA_VERSION})",
            line=line,
        )
    return version


def parse_trace(text: str) -> ScenarioTrace:
    """Parse (and CRC-verify) one scenario trace from its text.

    Strict by construction: any structural, typing, ordering or
    checksum problem raises :class:`ScenarioError` with the offending
    line.  Comments (``#``) and blank lines are skipped — the CRC is
    computed over the *canonical* body, so they never invalidate it.
    """
    significant: list[tuple[int, str]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        significant.append((number, stripped))
    if not significant:
        raise ScenarioError("empty scenario file", line=1)
    line, header = significant[0]
    version = _parse_version(header, line)

    scalars: dict[str, object] = dict(_PARSE_DEFAULTS)
    groups: dict[str, object] = {}
    seen: set[str] = set()
    name: str | None = None
    graph_spec: str | None = None
    tenants: list[TraceTenant] = []
    events: list[ScenarioEvent] = []
    declared_crc: int | None = None
    for line, content in significant[1:]:
        if declared_crc is not None:
            raise ScenarioError("content after the crc footer", line=line)
        if content.startswith(("@", ">")):
            events.append(_parse_event(content, line))
            continue
        directive, *tokens = content.split()
        if directive == "crc":
            if len(tokens) != 1 or len(tokens[0]) != 8:
                raise ScenarioError(
                    "crc footer wants exactly one 8-hex-digit value",
                    line=line,
                )
            try:
                declared_crc = int(tokens[0], 16)
            except ValueError as exc:
                raise ScenarioError(
                    f"bad crc value {tokens[0]!r}", line=line
                ) from exc
            continue
        if events:
            raise ScenarioError(
                f"header directive {directive!r} after the first event",
                line=line,
            )
        if directive == "tenant":
            tenants.append(_parse_tenant(tokens, line))
            continue
        if directive not in scalars and directive not in _GROUPS and \
                directive not in ("name", "graph"):
            raise ScenarioError(
                f"unknown directive {directive!r} "
                f"(known: graph, name, tenant, crc, "
                f"{', '.join(sorted([*_PARSE_DEFAULTS, *_GROUPS]))})",
                line=line,
            )
        if directive in seen:
            raise ScenarioError(
                f"duplicate directive {directive!r}", line=line
            )
        seen.add(directive)
        if directive in _GROUPS:
            groups[directive] = _parse_group(directive, tokens, line)
            continue
        if len(tokens) != 1:
            raise ScenarioError(
                f"{directive} directive wants exactly one value", line=line
            )
        if directive == "name":
            name = tokens[0]
        elif directive == "graph":
            graph_spec = tokens[0]
        else:
            scalars[directive] = _parse_scalar(
                _SCALAR_TAGS.get(directive, "num"), tokens[0], line,
                directive,
            )

    final_line = significant[-1][0]
    if name is None:
        raise ScenarioError("missing required directive 'name'", line=final_line)
    if graph_spec is None:
        raise ScenarioError(
            "missing required directive 'graph'", line=final_line
        )
    if scalars["duration_ms"] is None:
        raise ScenarioError(
            "missing required directive 'duration_ms'", line=final_line
        )
    if declared_crc is None:
        raise ScenarioError("missing crc footer", line=final_line)
    try:
        trace = ScenarioTrace(
            name=name,
            graph_spec=graph_spec,
            duration_ms=scalars["duration_ms"],
            seed=scalars["seed"],
            base_rate_per_ms=scalars["rate"],
            zipf_exponent=scalars["zipf"],
            num_shards=scalars["shards"],
            replication=scalars["replication"],
            window_ms=scalars["window_ms"],
            tenants=tuple(tenants),
            events=tuple(events),
            cache_capacity=scalars["cache"],
            hedging=scalars["hedging"],
            service_deadline_ms=scalars["service_deadline_ms"],
            gateway=groups.get("gateway", TraceGateway()),
            burst=groups.get("burst"),
            slo=groups.get("slo"),
            loss=scalars["loss"],
        )
    except ScenarioError as exc:
        raise ScenarioError(str(exc), line=final_line) from exc
    if trace_version(trace) != version:
        raise ScenarioError(
            f"file declares v{version} but its content is "
            f"v{trace_version(trace)} (v2 features need 'v2', and a file "
            "without them is 'v1')",
            line=final_line,
        )
    actual = trace_crc(trace)
    if actual != declared_crc:
        raise ScenarioError(
            f"crc mismatch: footer says {declared_crc:08x} but the "
            f"canonical content hashes to {actual:08x} — the file was "
            "edited without re-serializing",
            line=final_line,
        )
    return trace
