"""Service chaos runner: hostile shard schedules against the serving tier.

Drives a :class:`~repro.service.frontend.QueryService` through a
:class:`~repro.chaos.plan.FaultPlan` of shard-level events
(``shard_down`` / ``shard_slow`` / ``shard_flaky`` / ``shard_corrupt``
/ ``shard_crash`` / ``shard_restart`` / ``shard_recover``), label
rollouts (``rollout_begin`` / ``_commit`` / ``_abort`` /
``_crash``), virtual-time windows and forbidden-set queries.  The
store persists its shards through the crash-consistent durability
layer on a seeded :class:`~repro.durability.fs.SimulatedFS`, so every
crash/restart pair is a genuine reload-from-disk through recovery.

Every answer — each plan query and each post-recovery probe — goes to
the :class:`~repro.service.judge.Judge`, which checks it against BFS
ground truth on the graph of the label generation that answered it,
with the rules stated once in ``docs/service.md`` ("Judge"): exact
within the ``(1+ε)`` window, degraded with a reason, a missing label
and a certified lower bound, never silently wrong.  On top of the
judge the runner checks the serving tier's own invariants:

* **bounded retries** — the physical fetch attempts behind one query
  never exceed ``unique_labels × (max_attempts + 1)`` (the ``+1`` is
  one hedge overshoot per logical fetch);
* **breaker trips match the schedule** — if the plan never hurt any
  shard, no breaker may trip; health bookkeeping in the store must
  mirror the event stream exactly;
* **recovery restores exactness** — once every shard is healed and the
  breaker cooldowns have elapsed, probe queries must be exact again.

Any violation is recorded (not raised) so one run reports *all*
failures; :attr:`ServiceChaosReport.ok` summarizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.chaos.plan import ChaosEvent, FaultPlan, SERVICE_EVENT_KINDS
from repro.durability.fs import CRASH_MODES, SimulatedFS
from repro.exceptions import ReproError, RolloutError, SimulatedCrashError
from repro.graphs.graph import Graph
from repro.labeling import ForbiddenSetLabeling
from repro.rollout import EdgeRollouts, repair_manifest
from repro.service import QueryService
from repro.service.judge import Judge, Verdict
from repro.util.rng import make_rng

if TYPE_CHECKING:
    from repro.obs.registry import Registry
    from repro.obs.trace import Tracer

@dataclass
class ServiceChaosReport:
    """Aggregated outcome of one service-chaos run."""

    name: str
    events_applied: int = 0
    queries: int = 0
    exact_answers: int = 0
    degraded_answers: int = 0
    checks_performed: int = 0
    stretch_samples: int = 0
    worst_stretch: float = 1.0
    max_attempts_per_query: int = 0
    violations: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every invariant held for the whole run."""
        return not self.violations

    def summary(self) -> str:
        """One-line human-readable digest."""
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        degraded_rate = self.degraded_answers / self.queries if self.queries else 0.0
        return (
            f"{self.name}: {status} — {self.events_applied} events, "
            f"{self.queries} queries ({self.exact_answers} exact, "
            f"{self.degraded_answers} degraded, "
            f"rate {degraded_rate:.2f}), "
            f"retries {self.metrics.get('retries', 0)}, "
            f"hedges {self.metrics.get('hedges', 0)}, "
            f"breaker trips {self.metrics.get('breaker_trips', 0)}, "
            f"worst exact stretch {self.worst_stretch:.3f}"
        )


class ServiceChaosRunner:
    """Replays one shard-fault plan against one query service."""

    def __init__(
        self,
        graph: Graph,
        plan: FaultPlan,
        epsilon: float = 1.0,
        num_shards: int = 4,
        replication: int = 2,
        deadline_ms: float = 150.0,
        retry=None,
        breaker=None,
        final_probes: int = 3,
        obs: "Registry | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self._graph = graph
        self._plan = plan
        self._final_probes = final_probes
        self._obs = obs
        scheme = ForbiddenSetLabeling(graph, epsilon)
        self._service = QueryService.from_scheme(
            scheme,
            num_shards=num_shards,
            replication=replication,
            store_seed=plan.seed,
            default_deadline_ms=deadline_ms,
            retry=retry,
            breaker=breaker,
            seed=plan.seed + 1,
            obs=obs,
            tracer=tracer,
        )
        self._event_rng = make_rng(plan.seed + 2)
        self._probe_rng = make_rng(plan.seed + 3)
        # shards persist through the crash-consistent durability layer,
        # so shard_crash / shard_restart events exercise a genuine
        # reload-from-disk (on a seeded simulated filesystem)
        self._service.store.attach_durability(
            SimulatedFS(seed=plan.seed + 4), "service-chaos"
        )
        store = self._service.store
        self._judge = Judge(
            graph, self._service.stretch_bound, store.committed_version
        )
        self._rollouts = EdgeRollouts(store, graph, epsilon, self._judge, obs)
        # shadow health derived from the event stream alone; conditions
        # stack (a shard can be slow *and* flaky) until a recover clears
        self._shadow: dict[int, set[str]] = {}
        self._ever_unhealthy: set[int] = set()
        self._report = ServiceChaosReport(name=plan.name)

    @property
    def service(self) -> QueryService:
        """The driven service (inspectable mid-run or after)."""
        return self._service

    def run(self) -> ServiceChaosReport:
        """Apply every event, checking invariants after each."""
        for index, event in enumerate(self._plan):
            self._apply(index, event)
            self._check_health_bookkeeping(index, event)
            self._report.events_applied += 1
        self._check_breaker_attribution()
        self._check_recovery_restores_exactness()
        self._report.metrics = self._service.metrics_summary()
        return self._report

    # -- event application -------------------------------------------------

    def _apply(self, index: int, event: ChaosEvent) -> None:
        kind = event.kind
        if self._obs is not None:
            self._obs.counter(
                "repro_chaos_events_total",
                "Chaos-plan events applied, by kind.",
                kind=kind,
            ).inc()
        if kind not in SERVICE_EVENT_KINDS:
            self._violation(
                index, f"event kind {kind!r} is not a serving-tier event"
            )
            return
        if kind == "query":
            self._checked_query(index, event)
            return
        if kind == "advance":
            self._service.clock.advance(event.latency_ms)
            return
        if kind.startswith("rollout_"):
            self._apply_rollout(index, event)
            return
        self._service.store.apply_event(event, rng=self._event_rng)
        shard = event.shard
        if kind in ("shard_recover", "shard_restart"):
            # both clear every condition: recovery is a restart-from-disk
            self._shadow.pop(shard, None)
        else:
            self._shadow.setdefault(shard, set()).add(
                kind.removeprefix("shard_")
            )
            self._ever_unhealthy.add(shard)

    # -- rollout events ----------------------------------------------------

    def _apply_rollout(self, index: int, event: ChaosEvent) -> None:
        kind = event.kind
        try:
            if kind == "rollout_begin":
                self._rollouts.begin(event.edge)
            elif kind == "rollout_commit":
                self._rollouts.commit()
            elif kind == "rollout_abort":
                self._rollouts.abort()
            else:
                self._rollout_crash(index, event)
        except RolloutError as exc:
            self._violation(index, f"{kind}: {exc}")

    def _rollout_crash(self, index: int, event: ChaosEvent) -> None:
        """Stage+commit under an armed crash, then recover via the manifest.

        Whichever side of the commit point the crash lands on, recovery
        must leave the store serving exactly one committed generation —
        and subsequent queries are judged against that generation's
        graph.
        """
        rollouts = self._rollouts
        plan = rollouts.plan(event.edge)
        store = self._service.store
        fs = store.filesystem
        if not isinstance(fs, SimulatedFS):
            self._violation(
                index, "rollout_crash needs a SimulatedFS-backed store"
            )
            return
        version = rollouts.next_version
        fs.arm_crash(
            fs.op_count + self._event_rng.randrange(1, 64),
            self._event_rng.choice(CRASH_MODES),
        )
        crashed = False
        try:
            rollouts.coordinator.stage(version, plan.encoded_labels())
            rollouts.coordinator.commit(version)
        except SimulatedCrashError:
            crashed = True
        if not crashed:
            # the seeded op landed past the rollout window: it completed
            fs.disarm()
            committed = version
        else:
            fs.crash()
            manifest, _ = repair_manifest(fs, store.durability_root)
            committed = manifest.committed_version
            if version in store.versions:
                # reconcile the in-memory generations with durable truth
                if committed == version:
                    store.commit_generation(version)
                else:
                    store.abort_generation(version)
        rollouts.resolve(version, plan, committed=committed == version)
        # force a genuine reload-from-disk on every shard; restart
        # clears every health condition, so mirror that in the shadow
        for shard in range(store.num_shards):
            store.crash(shard)
            store.restart(shard)
        self._shadow.clear()

    # -- invariant checks --------------------------------------------------

    def _violation(self, index: int, message: str) -> None:
        self._report.violations.append(f"event {index}: {message}")
        if self._obs is not None:
            self._obs.counter(
                "repro_chaos_violations_total",
                "Invariant violations recorded by chaos runners.",
            ).inc()

    def _checked_query(self, index: int, event: ChaosEvent) -> None:
        report = self._report
        try:
            outcome = self._service.query(
                event.s, event.t,
                vertex_faults=event.faults,
                edge_faults=event.fault_edges,
            )
        except ReproError as exc:
            self._violation(
                index,
                f"query({event.s}, {event.t}, F={event.faults}) raised "
                f"{exc!r} instead of answering",
            )
            return
        report.max_attempts_per_query = max(
            report.max_attempts_per_query, outcome.attempts
        )
        unique = {event.s, event.t} | set(event.faults)
        for a, b in event.fault_edges:
            unique.update((a, b))
        cap = len(unique) * (self._service.client.retry.max_attempts + 1)
        if outcome.attempts > cap:
            self._violation(
                index,
                f"query({event.s}, {event.t}): {outcome.attempts} fetch "
                f"attempts exceeds the bound {cap} for {len(unique)} labels",
            )
        verdict = self._judge.judge_answer(
            outcome, event.s, event.t, event.faults, event.fault_edges
        )
        self._count(index, f"query({event.s}, {event.t})", outcome, verdict)

    def _count(self, index: int, what: str, outcome, verdict: Verdict) -> None:
        """Fold one judged answer into the report."""
        report = self._report
        report.queries += 1
        report.checks_performed += verdict.checks
        if outcome.status == "exact":
            report.exact_answers += 1
        elif outcome.status == "degraded":
            report.degraded_answers += 1
        if verdict.stretch is not None:
            report.stretch_samples += 1
            report.worst_stretch = max(report.worst_stretch, verdict.stretch)
        for problem in verdict.problems:
            self._violation(index, f"{what}: {problem}")

    def _check_health_bookkeeping(self, index: int, event: ChaosEvent) -> None:
        """The store's health registers must mirror the event stream."""
        store = self._service.store
        for shard in range(store.num_shards):
            health = store.health(shard)
            expected = self._shadow.get(shard, set())
            actual = set()
            if health.down:
                actual.add("down")
            if health.latency_ms > store.base_latency_ms:
                actual.add("slow")
            if health.flaky_probability > 0:
                actual.add("flaky")
            if health.corrupted_records > 0:
                actual.add("corrupt")
            if health.crashed:
                actual.add("crash")
            if expected != actual:
                self._violation(
                    index,
                    f"after {event.kind}: shard {shard} suffers "
                    f"{sorted(actual)} but the event stream says "
                    f"{sorted(expected)}",
                )
        self._report.checks_performed += 1

    def _check_breaker_attribution(self) -> None:
        """A breaker may only trip for a shard the schedule ever hurt."""
        report = self._report
        client = self._service.client
        for shard in range(self._service.store.num_shards):
            trips = client.breaker(shard).trips
            if trips and shard not in self._ever_unhealthy:
                self._violation(
                    report.events_applied,
                    f"breaker for shard {shard} tripped {trips}× although "
                    "the schedule never made it unhealthy",
                )
        report.checks_performed += 1

    def _check_recovery_restores_exactness(self) -> None:
        """Healed tier + elapsed cooldowns ⇒ exact answers again."""
        report = self._report
        if self._shadow or not self._service.store.all_healthy():
            return  # plan ended unhealed; nothing to assert
        cooldown = self._service.client.breaker_policy.cooldown_ms
        self._service.clock.advance(2 * cooldown)
        n = self._graph.num_vertices
        for _ in range(self._final_probes):
            s, t = self._probe_rng.sample(range(n), 2)
            outcome = self._service.query(s, t)
            what = f"post-recovery probe query({s}, {t})"
            verdict = self._judge.judge_answer(outcome, s, t)
            self._count(report.events_applied, what, outcome, verdict)
            if not outcome.exact:
                self._violation(
                    report.events_applied,
                    f"{what} still degraded: {outcome.reason} "
                    f"({[str(m) for m in outcome.missing]})",
                )


def run_service_plan(
    graph: Graph,
    plan: FaultPlan,
    epsilon: float = 1.0,
    **runner_kwargs,
) -> ServiceChaosReport:
    """Convenience wrapper: build a runner, run the plan, return the report."""
    return ServiceChaosRunner(
        graph, plan, epsilon=epsilon, **runner_kwargs
    ).run()


def service_standard_suite(
    num_schedules: int = 20,
    num_events: int = 60,
    seed: int = 0,
    epsilon: float = 1.0,
    obs: "Registry | None" = None,
) -> list[ServiceChaosReport]:
    """The acceptance battery: seeded shard-chaos over a service matrix.

    Rotates graph families, shard counts, replication factors (including
    the unreplicated worst case) and hedging on/off, so one call covers
    the scenario matrix.  Deterministic in ``seed``.
    """
    from repro.chaos.plan import random_shard_plan
    from repro.graphs import generators as gen
    from repro.service.client import RetryPolicy

    pool = [
        lambda: gen.grid_graph(6, 6),
        lambda: gen.cycle_graph(32),
        lambda: gen.road_like_graph(5, 5, seed=3),
        lambda: gen.random_tree(30, seed=5),
        lambda: gen.torus_graph(5, 5),
        lambda: gen.hypercube_graph(5),
    ]
    layouts = [(4, 2), (3, 1), (6, 3), (5, 2)]
    reports = []
    for i in range(num_schedules):
        graph = pool[i % len(pool)]()
        num_shards, replication = layouts[i % len(layouts)]
        plan = random_shard_plan(
            graph,
            num_shards=num_shards,
            num_events=num_events,
            seed=seed + 1000 * i + 1,
            name=f"schedule {i} on {graph!r} "
            f"(shards={num_shards}, replicas={replication}, "
            f"hedging={i % 2 == 0})",
        )
        retry = RetryPolicy(hedging=i % 2 == 0)
        reports.append(
            run_service_plan(
                graph, plan, epsilon=epsilon,
                num_shards=num_shards, replication=replication, retry=retry,
                obs=obs,
            )
        )
    return reports
