"""Fault plans: seeded, replayable schedules of hostile network events.

A :class:`FaultPlan` is a list of :class:`ChaosEvent` values plus the
loss model (per-link message-drop probability) and the seed that
randomized parts of the run should use.  Plans come from two places:

* **scripted** — the fluent builder API
  (``FaultPlan().fail_vertex(3).propagate(2).send(0, 8)``) for
  regression scenarios with known outcomes;
* **randomized churn** — :func:`random_churn_plan` generates an
  interleaving of vertex/edge failures, recoveries, partition windows,
  lossy flooding and packet sends, deterministically from a seed.

The plan itself never touches a simulator; the chaos *runner*
(:mod:`repro.chaos.runner`) drives a
:class:`~repro.routing.network_sim.NetworkSimulator` through it and
checks invariants after every event.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.exceptions import QueryError
from repro.graphs.graph import Graph
from repro.util.rng import RngLike, make_rng

#: events understood by the network-simulator runner
NETWORK_EVENT_KINDS = frozenset({
    "fail_vertex",
    "fail_edge",
    "recover_vertex",
    "recover_edge",
    "propagate",
    "send",
    "partition",
    "heal_partition",
})

#: serving-tier actions a scenario replay applies
#: (:class:`repro.scenario.runner.ScenarioRunner`)
SERVICE_EVENT_KINDS = frozenset({
    "shard_down",
    "shard_recover",
    "shard_slow",
    "shard_flaky",
    "shard_corrupt",
    "shard_crash",
    "shard_restart",
    "rollout_begin",
    "rollout_commit",
    "rollout_abort",
    "rollout_crash",
})

EVENT_KINDS = NETWORK_EVENT_KINDS | SERVICE_EVENT_KINDS


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled event.

    ``kind`` selects the payload fields: ``fail_vertex`` /
    ``recover_vertex`` carry ``vertex``; ``fail_edge`` /
    ``recover_edge`` carry ``edge``; ``send`` carries ``(s, t)``;
    ``propagate`` carries ``rounds``; ``partition`` /
    ``heal_partition`` carry the cut as ``edges``.

    Shard-level (serving-tier) actions, lowered from scenario traces:
    ``shard_down`` / ``shard_recover`` / ``shard_crash`` /
    ``shard_restart`` carry ``shard``; ``shard_slow`` carries
    ``shard`` + ``latency_ms``; ``shard_flaky`` and ``shard_corrupt``
    carry ``shard`` + ``probability`` (failure probability resp.
    corrupted fraction).

    Rollout (blue/green label-generation) events: ``rollout_begin``
    and ``rollout_crash`` carry ``edge`` — the graph edge the new
    generation removes; ``rollout_commit`` / ``rollout_abort`` resolve
    the staged generation.  ``rollout_crash`` runs the whole
    stage+commit under a crash armed at a seeded mid-rollout
    filesystem op, then recovers through the manifest.
    """

    kind: str
    vertex: int | None = None
    edge: tuple[int, int] | None = None
    s: int | None = None
    t: int | None = None
    rounds: int = 1
    edges: tuple[tuple[int, int], ...] = ()
    shard: int | None = None
    latency_ms: float | None = None
    probability: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise QueryError(f"unknown chaos event kind {self.kind!r}")
        if self.kind in ("fail_vertex", "recover_vertex") and self.vertex is None:
            raise QueryError(f"{self.kind} event needs a vertex")
        if self.kind in ("fail_edge", "recover_edge") and self.edge is None:
            raise QueryError(f"{self.kind} event needs an edge")
        if self.kind == "send" and (self.s is None or self.t is None):
            raise QueryError(f"{self.kind} event needs both endpoints")
        if self.kind in ("partition", "heal_partition") and not self.edges:
            raise QueryError(f"{self.kind} event needs a non-empty cut")
        if (
            self.kind in SERVICE_EVENT_KINDS
            and self.kind.startswith("shard_")
            and self.shard is None
        ):
            raise QueryError(f"{self.kind} event needs a shard")
        if self.kind in ("rollout_begin", "rollout_crash") and self.edge is None:
            raise QueryError(f"{self.kind} event needs an edge")
        if self.kind == "shard_slow" and (
            self.latency_ms is None or self.latency_ms <= 0
        ):
            raise QueryError(f"{self.kind} event needs a positive latency_ms")
        if self.kind in ("shard_flaky", "shard_corrupt"):
            if self.probability is None or not 0.0 < self.probability <= 1.0:
                raise QueryError(
                    f"{self.kind} event needs a probability in (0, 1]"
                )


@dataclass
class FaultPlan:
    """A replayable schedule plus its loss model and seed.

    The builder methods append an event and return ``self`` so scripted
    plans read as one chain; ``drop_probability`` applies to every
    ``propagate`` event the plan contains (0 = lossless).
    """

    events: list[ChaosEvent] = field(default_factory=list)
    drop_probability: float = 0.0
    seed: int = 0
    name: str = "scripted"

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise QueryError(
                f"drop_probability must be in [0, 1], "
                f"got {self.drop_probability}"
            )

    # -- fluent scripted builders -----------------------------------------

    def fail_vertex(self, v: int) -> "FaultPlan":
        """Schedule a router failure."""
        self.events.append(ChaosEvent(kind="fail_vertex", vertex=v))
        return self

    def fail_edge(self, a: int, b: int) -> "FaultPlan":
        """Schedule a link failure."""
        self.events.append(ChaosEvent(kind="fail_edge", edge=(a, b)))
        return self

    def recover_vertex(self, v: int) -> "FaultPlan":
        """Schedule a router recovery."""
        self.events.append(ChaosEvent(kind="recover_vertex", vertex=v))
        return self

    def recover_edge(self, a: int, b: int) -> "FaultPlan":
        """Schedule a link recovery."""
        self.events.append(ChaosEvent(kind="recover_edge", edge=(a, b)))
        return self

    def propagate(self, rounds: int = 1) -> "FaultPlan":
        """Schedule ``rounds`` of (possibly lossy) knowledge flooding."""
        self.events.append(ChaosEvent(kind="propagate", rounds=rounds))
        return self

    def send(self, s: int, t: int) -> "FaultPlan":
        """Schedule a packet send whose outcome the runner will check."""
        self.events.append(ChaosEvent(kind="send", s=s, t=t))
        return self

    def partition(self, edges) -> "FaultPlan":
        """Schedule a partition window opening: fail a whole cut at once."""
        cut = tuple((min(a, b), max(a, b)) for a, b in edges)
        self.events.append(ChaosEvent(kind="partition", edges=cut))
        return self

    def heal_partition(self, edges) -> "FaultPlan":
        """Schedule a partition window closing: recover the whole cut."""
        cut = tuple((min(a, b), max(a, b)) for a, b in edges)
        self.events.append(ChaosEvent(kind="heal_partition", edges=cut))
        return self

    # -- plumbing ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ChaosEvent]:
        return iter(self.events)

    def with_loss(self, drop_probability: float) -> "FaultPlan":
        """The same schedule under a different message-loss model."""
        return replace(self, drop_probability=drop_probability)


def _partition_cut(
    graph: Graph, rng, failed_edges: set[tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
    """A random vertex-set boundary to use as a partition window's cut."""
    n = graph.num_vertices
    size = rng.randint(2, max(2, n // 3))
    side = set(rng.sample(range(n), min(size, n - 1)))
    cut = tuple(
        (u, v) for u, v in graph.edges()
        if ((u in side) != (v in side)) and (u, v) not in failed_edges
    )
    return cut


def random_churn_plan(
    graph: Graph,
    num_events: int = 100,
    seed: RngLike = None,
    drop_probability: float = 0.0,
    max_failed_vertices: int | None = None,
    max_failed_edges: int | None = None,
    partition_probability: float = 0.04,
    stabilize: bool = True,
    name: str | None = None,
) -> FaultPlan:
    """A seeded churn schedule: interleaved fail/recover/flood/send events.

    The generator tracks the true failed set so every event is valid
    (never fails an already-failed element, never recovers a healthy
    one, never sends from/to a failed router).  Caps keep the graph
    interesting: at most ``max_failed_vertices`` routers (default
    ``n // 5``) and ``max_failed_edges`` links (default ``m // 4``) are
    down at once, partition cuts aside.  With ``stabilize=True`` the
    plan ends with saturating floods followed by sends, so the runner's
    full-awareness stretch invariant is exercised on every schedule.
    """
    rng = make_rng(seed)
    n = graph.num_vertices
    if n < 4:
        raise QueryError("churn plans need at least 4 vertices")
    edges = list(graph.edges())
    if max_failed_vertices is None:
        max_failed_vertices = max(1, n // 5)
    if max_failed_edges is None:
        max_failed_edges = max(1, graph.num_edges // 4)

    failed_v: set[int] = set()
    failed_e: set[tuple[int, int]] = set()
    open_partitions: list[tuple[tuple[int, int], ...]] = []
    plan = FaultPlan(
        drop_probability=drop_probability,
        seed=rng.randrange(1 << 30),
        name=name or f"churn(n={n}, events={num_events})",
    )

    def partition_edges() -> set[tuple[int, int]]:
        return {e for cut in open_partitions for e in cut}

    while len(plan.events) < num_events:
        roll = rng.random()
        if roll < 0.10 and len(failed_v) < max_failed_vertices:
            candidates = [v for v in range(n) if v not in failed_v]
            if len(candidates) > 2:
                v = rng.choice(candidates)
                failed_v.add(v)
                plan.fail_vertex(v)
                continue
        if roll < 0.22 and len(failed_e) < max_failed_edges:
            candidates = [
                e for e in edges
                if e not in failed_e and e not in partition_edges()
            ]
            if candidates:
                e = rng.choice(candidates)
                failed_e.add(e)
                plan.fail_edge(*e)
                continue
        if roll < 0.30 and failed_v:
            v = rng.choice(sorted(failed_v))
            failed_v.discard(v)
            plan.recover_vertex(v)
            continue
        if roll < 0.38 and failed_e:
            e = rng.choice(sorted(failed_e))
            failed_e.discard(e)
            plan.recover_edge(*e)
            continue
        if roll < 0.38 + partition_probability and not open_partitions:
            cut = _partition_cut(graph, rng, failed_e | partition_edges())
            if cut:
                open_partitions.append(cut)
                plan.partition(cut)
                continue
        if roll < 0.46 and open_partitions:
            cut = open_partitions.pop(rng.randrange(len(open_partitions)))
            plan.heal_partition(cut)
            continue
        if roll < 0.62:
            plan.propagate(rounds=rng.randint(1, 3))
            continue
        live = [v for v in range(n) if v not in failed_v]
        s, t = rng.sample(live, 2)
        plan.send(s, t)

    if stabilize:
        # close every window, then flood to (attempted) saturation and
        # probe — with lossless links awareness reaches 1.0 and the
        # runner applies the strict (1+eps) stretch check.
        for cut in open_partitions:
            plan.heal_partition(cut)
        plan.propagate(rounds=n)
        if drop_probability > 0.0:
            for _ in range(3):
                plan.propagate(rounds=n)
        live = [v for v in range(n) if v not in failed_v]
        for _ in range(min(4, len(live) // 2)):
            s, t = rng.sample(live, 2)
            plan.send(s, t)
    return plan
