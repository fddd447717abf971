"""Replay a compiled scenario through the full serving stack.

:class:`ScenarioRunner` is the repository's one full-stack runner: it
builds the whole stack — labels, sharded store (persisted through the
crash-consistent durability layer on a seeded simulated filesystem),
client (with or without a label cache), frontend, async gateway — on
one virtual clock, replays the compiled trace (open-loop traffic,
timestamped chaos actions and probes, and scripted rows in one loop
task), and hands **every** answer to the
:class:`~repro.service.judge.Judge`.  The judge checks it against BFS
ground truth on the graph *of the label generation that answered it*
(mid-rollout answers are pinned to a version; rollouts go through
:class:`~repro.rollout.lifecycle.EdgeRollouts`, which tells the judge
each committed graph), with the rules stated once in
``docs/service.md`` ("Judge"): stretch window, certified lower bounds,
explicit reasons, the shed vocabulary, the deadline, no silent drops,
and exactness where a query is marked exact.

On top of the judge the runner checks the serving tier's own
invariants on every replay:

* **health registers** — after each applied action, every shard's
  health registers mirror the action stream (conditions stack until a
  recover or restart clears them);
* **breaker attribution** — a breaker trips only for a shard some
  action hurt;
* **bounded retries** — an answered query spends at most
  ``distinct labels × (max_attempts + 1)`` physical fetch attempts
  (the ``+1`` is one hedge overshoot per logical fetch);

and, only when the trace declares an ``slo`` header, the gateway's
latency, shed, goodput and fairness gate.

The report buckets outcomes into per-window timeseries rows
(availability, degraded fraction, worst observed stretch per window —
the LinkGuardian-style view of how the SLO moves *through* the
outage), and serializes canonically: same trace + same seed ⇒
byte-identical JSON, which the CI smoke step checks literally.

Two stretch-flavoured columns, deliberately distinct:

* ``worst_stretch`` — decoded vs BFS truth *under the same faults*,
  the decoder's (1+ε) soundness guarantee (empirically pinned at 1.0);
* ``worst_detour`` — decoded under faults vs the fault-free baseline
  ``d_G(s, t)``, how far the outage actually moved the answers.  This
  is the quantity the adversarial worst-``F`` search maximizes, so
  replaying an emitted witness trace reproduces its headline number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.durability.fs import CRASH_MODES, SimulatedFS
from repro.exceptions import ReproError, SimulatedCrashError
from repro.gateway.cache import CachingLabelClient, LabelCache
from repro.gateway.gateway import AsyncGateway, GatewayOutcome
from repro.gateway.loop import VirtualLoop
from repro.gateway.traffic import TimedRequest, TrafficGenerator
from repro.graphs.graph import Graph
from repro.labeling import ForbiddenSetLabeling
from repro.rollout import EdgeRollouts, repair_manifest
from repro.scenario.compile import CompiledScenario, compile_trace
from repro.scenario.trace import ScenarioEvent, ScenarioTrace, TraceSLO
from repro.service.client import ResilientLabelClient, RetryPolicy
from repro.service.clock import VirtualClock
from repro.service.frontend import QueryService
from repro.service.judge import Judge, Verdict
from repro.service.store import ShardedLabelStore
from repro.util.rng import make_rng

if TYPE_CHECKING:
    from repro.obs.registry import Registry

_EPS = 1e-9


def _percentile(sorted_values: list[float], q: float) -> float:
    """The ``q``-quantile of pre-sorted data (linear interpolation)."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


@dataclass
class WindowRow:
    """One timeseries bucket of the report."""

    start_ms: float
    end_ms: float
    submitted: int = 0
    exact: int = 0
    degraded: int = 0
    shed: int = 0
    worst_stretch: float = 1.0
    worst_detour: float = 1.0

    @property
    def availability(self) -> float:
        """Served (non-shed) fraction of the window's submissions."""
        if not self.submitted:
            return 1.0
        return (self.exact + self.degraded) / self.submitted

    @property
    def degraded_fraction(self) -> float:
        """Degraded fraction of the window's submissions."""
        if not self.submitted:
            return 0.0
        return self.degraded / self.submitted

    def to_dict(self) -> dict:
        """The row as a plain deterministic dict."""
        return {
            "start_ms": round(self.start_ms, 6),
            "end_ms": round(self.end_ms, 6),
            "submitted": self.submitted,
            "exact": self.exact,
            "degraded": self.degraded,
            "shed": self.shed,
            "availability": round(self.availability, 6),
            "degraded_fraction": round(self.degraded_fraction, 6),
            "worst_stretch": round(self.worst_stretch, 9),
            "worst_detour": round(self.worst_detour, 9),
        }


def _costs(costs: dict[str, float]) -> dict[str, float]:
    return {name: round(cost, 3) for name, cost in sorted(costs.items())}


@dataclass
class ScenarioReport:
    """Everything one scenario replay learned, canonically serializable.

    ``submitted`` counts gateway requests (traffic and probes) and
    scripted queries (``queries``) alike; the latency percentiles,
    tenant costs and fairness describe the gateway's requests.
    """

    name: str
    seed: int
    graph_spec: str
    duration_ms: float
    window_ms: float
    submitted: int = 0
    probes: int = 0
    queries: int = 0
    exact: int = 0
    degraded: int = 0
    shed: int = 0
    shed_by_reason: dict[str, int] = field(default_factory=dict)
    coalesced: int = 0
    events_applied: int = 0
    checks_performed: int = 0
    worst_stretch: float = 1.0
    worst_detour: float = 1.0
    loop_steps: int = 0
    cache: dict[str, int] = field(default_factory=dict)
    client: dict[str, int] = field(default_factory=dict)
    p50_total_ms: float = 0.0
    p99_total_ms: float = 0.0
    p50_queue_ms: float = 0.0
    p99_queue_ms: float = 0.0
    tenant_served_cost: dict[str, float] = field(default_factory=dict)
    tenant_submitted_cost: dict[str, float] = field(default_factory=dict)
    tenant_admitted_cost: dict[str, float] = field(default_factory=dict)
    backlogged_tenants: list[str] = field(default_factory=list)
    fairness_ratio: float = 1.0
    windows: list[WindowRow] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every invariant (and any declared SLO) held."""
        return not self.violations

    @property
    def availability(self) -> float:
        """Served (non-shed) fraction over the whole run."""
        if not self.submitted:
            return 1.0
        return (self.exact + self.degraded) / self.submitted

    @property
    def degraded_fraction(self) -> float:
        """Degraded fraction over the whole run."""
        if not self.submitted:
            return 0.0
        return self.degraded / self.submitted

    @property
    def shed_rate(self) -> float:
        """Shed fraction over the whole run."""
        return self.shed / self.submitted if self.submitted else 0.0

    @property
    def goodput_fraction(self) -> float:
        """Exact fraction over the whole run."""
        return self.exact / self.submitted if self.submitted else 0.0

    def to_dict(self) -> dict:
        """The full report as a plain (JSON-ready, deterministic) dict."""
        return {
            "name": self.name,
            "seed": self.seed,
            "graph": self.graph_spec,
            "duration_ms": round(self.duration_ms, 6),
            "window_ms": round(self.window_ms, 6),
            "submitted": self.submitted,
            "probes": self.probes,
            "queries": self.queries,
            "exact": self.exact,
            "degraded": self.degraded,
            "shed": self.shed,
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "coalesced": self.coalesced,
            "availability": round(self.availability, 6),
            "degraded_fraction": round(self.degraded_fraction, 6),
            "shed_rate": round(self.shed_rate, 6),
            "goodput_fraction": round(self.goodput_fraction, 6),
            "goodput_per_s": round(
                self.exact / (self.duration_ms / 1000.0), 6
            ),
            "events_applied": self.events_applied,
            "checks_performed": self.checks_performed,
            "worst_stretch": round(self.worst_stretch, 9),
            "worst_detour": round(self.worst_detour, 9),
            "loop_steps": self.loop_steps,
            "cache": dict(self.cache),
            "client": dict(self.client),
            "p50_total_ms": round(self.p50_total_ms, 6),
            "p99_total_ms": round(self.p99_total_ms, 6),
            "p50_queue_ms": round(self.p50_queue_ms, 6),
            "p99_queue_ms": round(self.p99_queue_ms, 6),
            "tenant_served_cost": _costs(self.tenant_served_cost),
            "tenant_submitted_cost": _costs(self.tenant_submitted_cost),
            "tenant_admitted_cost": _costs(self.tenant_admitted_cost),
            "backlogged_tenants": sorted(self.backlogged_tenants),
            "fairness_ratio": round(self.fairness_ratio, 6),
            "windows": [row.to_dict() for row in self.windows],
            "violations": list(self.violations),
            "ok": self.ok,
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, fixed float rounding, newline."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def summary(self) -> str:
        """One-line human digest."""
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        client = self.client
        return (
            f"scenario {self.name} seed={self.seed}: {status} — "
            f"{self.submitted} requests ({self.exact} exact, "
            f"{self.degraded} degraded, {self.shed} shed), "
            f"availability {self.availability:.0%}, "
            f"worst stretch {self.worst_stretch:.3f}, "
            f"worst detour {self.worst_detour:.3f}, "
            f"{client.get('retries', 0)} retries, "
            f"{client.get('hedges', 0)} hedges, "
            f"{client.get('breaker_trips', 0)} breaker trips"
        )


class ScenarioRunner:
    """Builds the stack and replays one compiled scenario end to end."""

    def __init__(
        self,
        compiled: CompiledScenario,
        epsilon: float = 1.0,
        obs: "Registry | None" = None,
    ) -> None:
        trace = compiled.trace
        self.compiled = compiled
        self.trace = trace
        self.graph = compiled.graph
        self.obs = obs
        seed = trace.seed
        self.traffic: TrafficGenerator | None = None
        if trace.base_rate_per_ms > 0:
            self.traffic = TrafficGenerator(compiled.graph, trace, seed + 2)
        clock = VirtualClock()
        self.loop = VirtualLoop(clock)
        scheme = ForbiddenSetLabeling(compiled.graph, epsilon)
        stretch_bound = scheme.stretch_bound()
        store = ShardedLabelStore.from_scheme(
            scheme,
            num_shards=trace.num_shards,
            replication=trace.replication,
            seed=seed,
        )
        client_options: dict[str, Any] = dict(
            clock=clock,
            retry=RetryPolicy(hedging=trace.hedging),
            default_deadline_ms=trace.service_deadline_ms,
            seed=seed + 1,
            obs=obs,
        )
        if trace.cache_capacity is None:
            client = ResilientLabelClient(store, **client_options)
        else:
            client = CachingLabelClient(
                store, cache=LabelCache(capacity=trace.cache_capacity),
                **client_options,
            )
        self.service = QueryService(
            store,
            stretch_bound=stretch_bound,
            client=client,
            default_deadline_ms=trace.service_deadline_ms,
            obs=obs,
        )
        # shards persist through the crash-consistent durability layer,
        # so crash/restart actions are a genuine reload-from-disk; it is
        # attached after the registry, so its writes are counted too
        self._fs = SimulatedFS(seed=seed + 4)
        store.attach_durability(self._fs, f"scenario-{trace.name}")
        self.gateway = AsyncGateway(
            self.service, self.loop, compiled.gateway, obs=obs
        )
        # only shard_corrupt and rollout_crash draw from it: seed + 2 as
        # serve-chaos drew it, unless the traffic already owns that stream
        self._event_rng = make_rng(
            seed + 2 if self.traffic is None else seed + 3
        )
        self.judge = Judge(self.graph, stretch_bound, store.committed_version)
        self._rollouts = EdgeRollouts(
            store, self.graph, epsilon, self.judge, obs=obs
        )
        # shard conditions derived from the action stream alone; they
        # stack (a shard can be slow *and* flaky) until a recover clears
        self._shadow: dict[int, set[str]] = {}
        self._hurt: set[int] = set()
        self._report = ScenarioReport(
            name=trace.name,
            seed=trace.seed,
            graph_spec=trace.graph_spec,
            duration_ms=trace.duration_ms,
            window_ms=trace.window_ms,
        )

    # -- running ------------------------------------------------------------

    def run(self) -> ScenarioReport:
        """Replay the whole trace, drain the gateway, judge everything."""
        report = self._report
        self._init_windows()
        stream = [] if self.traffic is None else self.traffic.generate()
        results: list[tuple[float, object]] = []

        def _arrive(timed: TimedRequest) -> None:
            results.append((timed.at_ms, self.gateway.submit(timed.request)))

        # the traffic's arrivals first, then the probes: a tie at one
        # instant fires in that order
        for timed in (*stream, *self.compiled.probes):
            self.loop.call_at(timed.at_ms, lambda timed=timed: _arrive(timed))
        for action in self.compiled.actions:
            self.loop.call_at(
                action.at_ms,
                lambda action=action: self._apply(action),
            )

        async def _drive() -> None:
            # scripted rows run in file order: a gap sleeps, and a query
            # finishes (advancing the clock) before the next row starts
            for index, row in enumerate(self.compiled.script):
                if row.kind == "advance":
                    await self.loop.sleep(row.duration_ms)
                elif row.kind == "query":
                    self._query(index, row)
                else:
                    self._apply(row)
            await self.loop.sleep_until(self.trace.duration_ms)
            await self.gateway.drain()

        self.loop.run_until_complete(self.loop.create_task(_drive()))
        scheduled = len(stream) + len(self.compiled.probes)
        report.submitted = scheduled + report.queries
        report.probes = len(self.compiled.probes)
        report.violations.extend(self.judge.judge_resolution(
            scheduled, [future for _, future in results]
        ))
        for index, (at_ms, future) in enumerate(results):
            self._judge(index, at_ms, future)
        self._check_breakers()
        self._aggregate([future for _, future in results])
        if self.trace.slo is not None:
            self._check_slo(self.trace.slo)
        if self.obs is not None:
            self._export()
        return report

    def _init_windows(self) -> None:
        duration = self.trace.duration_ms
        window = self.trace.window_ms
        count = max(1, math.ceil(duration / window - _EPS))
        self._report.windows = [
            WindowRow(
                start_ms=i * window,
                end_ms=min((i + 1) * window, duration),
            )
            for i in range(count)
        ]

    def _window_at(self, at_ms: float) -> WindowRow:
        rows = self._report.windows
        index = int(at_ms // self.trace.window_ms)
        return rows[min(index, len(rows) - 1)]

    # -- chaos actions -------------------------------------------------------

    def _apply(self, event: ScenarioEvent) -> None:
        report = self._report
        report.events_applied += 1
        if self.obs is not None:
            self.obs.counter(
                "repro_chaos_events_total",
                "Chaos-plan events applied, by kind.",
                kind=event.kind,
            ).inc()
        try:
            if event.kind.startswith("rollout_"):
                self._apply_rollout(event)
            else:
                self.service.store.apply_event(event, rng=self._event_rng)
        except ReproError as exc:
            where = "" if event.shard is None else f" (shard {event.shard})"
            report.violations.append(
                f"action {event.kind}{where} raised {exc!r}"
            )
        else:
            self._track(event)
        self._check_health(event)

    def _apply_rollout(self, event: ScenarioEvent) -> None:
        if event.kind == "rollout_begin":
            self._rollouts.begin(event.edge)
        elif event.kind == "rollout_commit":
            self._rollouts.commit()
        elif event.kind == "rollout_abort":
            self._rollouts.abort()
        else:
            self._rollout_crash(event.edge)

    def _rollout_crash(self, edge: tuple[int, int]) -> None:
        """Stage+commit under an armed crash, then recover via the manifest.

        Whichever side of the commit point the crash lands on, recovery
        must leave the store serving exactly one committed generation —
        and later answers are judged against that generation's graph.
        """
        rollouts = self._rollouts
        plan = rollouts.plan(edge)
        store = self.service.store
        fs = self._fs
        version = rollouts.next_version
        fs.arm_crash(
            fs.op_count + self._event_rng.randrange(1, 64),
            self._event_rng.choice(CRASH_MODES),
        )
        try:
            rollouts.coordinator.stage(version, plan.encoded_labels())
            rollouts.coordinator.commit(version)
        except SimulatedCrashError:
            fs.crash()
            manifest, _ = repair_manifest(fs, store.durability_root)
            committed = manifest.committed_version
            if version in store.versions:
                # reconcile the in-memory generations with durable truth
                if committed == version:
                    store.commit_generation(version)
                else:
                    store.abort_generation(version)
        else:
            # the seeded op landed past the rollout window: it completed
            fs.disarm()
            committed = version
        rollouts.resolve(version, plan, committed=committed == version)
        # force a genuine reload-from-disk on every shard
        for shard in range(store.num_shards):
            store.crash(shard)
            store.restart(shard)

    def _track(self, event: ScenarioEvent) -> None:
        """Fold one applied action into the shadow health registers."""
        kind = event.kind
        if kind == "rollout_crash":
            self._shadow.clear()  # every shard restarted from disk
        elif kind in ("shard_recover", "shard_restart"):
            # both clear every condition: recovery is a restart-from-disk
            self._shadow.pop(event.shard, None)
        elif kind.startswith("shard_"):
            self._shadow.setdefault(event.shard, set()).add(
                kind.removeprefix("shard_")
            )
            self._hurt.add(event.shard)

    def _check_health(self, event: ScenarioEvent) -> None:
        """The store's health registers must mirror the action stream."""
        store = self.service.store
        for shard in range(store.num_shards):
            health = store.health(shard)
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
            expected = self._shadow.get(shard, set())
            if expected != actual:
                self._report.violations.append(
                    f"after {event.kind}: shard {shard} suffers "
                    f"{sorted(actual)} but the action stream says "
                    f"{sorted(expected)}"
                )
        self._report.checks_performed += 1

    def _check_breakers(self) -> None:
        """A breaker may only trip for a shard some action hurt."""
        client = self.service.client
        for shard in range(self.service.store.num_shards):
            trips = client.breaker(shard).trips
            if trips and shard not in self._hurt:
                self._report.violations.append(
                    f"breaker for shard {shard} tripped {trips}× although "
                    "no action made it unhealthy"
                )
        self._report.checks_performed += 1

    # -- judging -------------------------------------------------------------

    def _query(self, index: int, event: ScenarioEvent) -> None:
        """One scripted query, answered by the service directly."""
        s, t = event.s, event.t
        mark = "exact " if event.exact else ""
        label = f"scripted row {index}: {mark}query({s}, {t})"
        at_ms = self.loop.now
        report = self._report
        try:
            outcome = self.service.query(
                s, t, vertex_faults=event.faults,
                edge_faults=event.edge_faults,
            )
        except ReproError as exc:
            report.violations.append(
                f"{label} with F={event.faults} raised {exc!r} instead "
                "of answering"
            )
            return
        report.queries += 1
        if outcome.status == "exact":
            report.exact += 1
        elif outcome.status == "degraded":
            report.degraded += 1
        verdict = self.judge.judge_answer(
            outcome, s, t, event.faults, event.edge_faults,
            exact_required=event.exact,
        )
        labels = {s, t, *event.faults}
        for a, b in event.edge_faults:
            labels.update((a, b))
        self._tally(
            label, at_ms, outcome.status, verdict, outcome,
            bool(event.faults or event.edge_faults), len(labels), s, t,
        )

    def _judge(self, index: int, at_ms: float, future) -> None:
        if not future.done():
            return  # the judge's resolution rule already reported it
        outcome: GatewayOutcome = future.result()
        verdict = self.judge.judge_request(
            outcome,
            self.gateway.config.default_deadline_ms,
            self.service.client.retry.attempt_timeout_ms,
        )
        request = outcome.request
        label = f"request {index} ({request.tenant}, {request.s}->{request.t})"
        self._tally(
            label, at_ms, outcome.status, verdict, outcome.outcome,
            bool(request.vertex_faults or request.edge_faults),
            request.label_cost(), request.s, request.t,
        )

    def _tally(
        self, label: str, at_ms: float, status: str, verdict: Verdict,
        answer, faulted: bool, labels: int, s: int, t: int,
    ) -> None:
        """Fold one judged outcome into the report and its window."""
        report = self._report
        report.checks_performed += verdict.checks
        report.violations.extend(
            f"{label}: {problem}" for problem in verdict.problems
        )
        if answer is not None:
            cap = labels * (self.service.client.retry.max_attempts + 1)
            if answer.attempts > cap:
                report.violations.append(
                    f"{label}: {answer.attempts} fetch attempts exceeds "
                    f"the bound {cap} for {labels} labels"
                )
        row = self._window_at(at_ms)
        row.submitted += 1
        if status == "shed":
            row.shed += 1
        elif status == "exact":
            row.exact += 1
        elif status == "degraded":
            row.degraded += 1
        if verdict.stretch is None:
            return
        row.worst_stretch = max(row.worst_stretch, verdict.stretch)
        report.worst_stretch = max(report.worst_stretch, verdict.stretch)
        if faulted:
            d_base = self.judge.distance(answer.version, s, t)
            if 0 < d_base < math.inf:
                detour = answer.distance / d_base
                row.worst_detour = max(row.worst_detour, detour)
                report.worst_detour = max(report.worst_detour, detour)

    # -- aggregation ---------------------------------------------------------

    def _aggregate(self, futures: list) -> None:
        report = self._report
        metrics = self.gateway.metrics
        report.exact += metrics.exact
        report.degraded += metrics.degraded
        report.shed = metrics.shed
        report.shed_by_reason = dict(sorted(metrics.shed_by_reason.items()))
        report.coalesced = metrics.coalesced
        report.loop_steps = self.loop.steps
        client = self.service.client
        report.client = client.metrics.snapshot()
        if isinstance(client, CachingLabelClient):
            report.cache = client.cache.metrics.snapshot()
        served = [
            outcome for future in futures if future.done()
            for outcome in (future.result(),) if not outcome.shed
        ]
        totals = sorted(outcome.total_ms for outcome in served)
        queues = sorted(outcome.queue_ms for outcome in served)
        report.p50_total_ms = _percentile(totals, 0.50)
        report.p99_total_ms = _percentile(totals, 0.99)
        report.p50_queue_ms = _percentile(queues, 0.50)
        report.p99_queue_ms = _percentile(queues, 0.99)
        report.tenant_served_cost = dict(
            sorted(metrics.served_cost_by_tenant.items())
        )
        report.tenant_submitted_cost = dict(
            sorted(metrics.submitted_cost_by_tenant.items())
        )
        report.tenant_admitted_cost = dict(
            sorted(metrics.admitted_cost_by_tenant.items())
        )
        # fairness is judged on *admitted* demand — the work DRR
        # actually arbitrates; door sheds (quota, full room) are
        # admission policy, not scheduling.  A tenant is backlogged when
        # its admitted cost clearly outran its served cost
        backlogged = [
            tenant
            for tenant, admitted in report.tenant_admitted_cost.items()
            if 0.0 < report.tenant_served_cost.get(tenant, 0.0)
            and admitted > 1.3 * report.tenant_served_cost[tenant]
        ]
        report.backlogged_tenants = backlogged
        if len(backlogged) >= 2:
            costs = [report.tenant_served_cost[t] for t in backlogged]
            report.fairness_ratio = max(costs) / min(costs)

    def _check_slo(self, slo: TraceSLO) -> None:
        """The gate a trace's ``slo`` header declares."""
        report = self._report
        violations = report.violations
        # among tenants with non-trivial admitted demand: an admitted
        # but never served tenant is outright starvation, and each must
        # see its floor share of that demand served
        floor = 3 * self.gateway.config.drr_quantum
        for tenant, admitted in report.tenant_admitted_cost.items():
            if admitted >= floor and not report.tenant_served_cost.get(tenant):
                violations.append(
                    f"tenant {tenant!r}: {admitted:.0f} cost admitted "
                    "but nothing ever served — starved"
                )
        if report.p99_total_ms > slo.p99_ms:
            violations.append(
                f"SLO: p99 total latency {report.p99_total_ms:.1f} ms "
                f"exceeds {slo.p99_ms:.1f} ms"
            )
        if report.shed_rate > slo.shed_rate:
            violations.append(
                f"SLO: shed rate {report.shed_rate:.2f} exceeds "
                f"{slo.shed_rate:.2f}"
            )
        if report.goodput_fraction < slo.goodput:
            violations.append(
                f"SLO: goodput fraction {report.goodput_fraction:.2f} "
                f"below {slo.goodput:.2f}"
            )
        if report.fairness_ratio > slo.fairness:
            violations.append(
                f"SLO: fairness ratio {report.fairness_ratio:.2f} among "
                f"backlogged tenants {report.backlogged_tenants} exceeds "
                f"{slo.fairness:.2f}"
            )
        for tenant, admitted in report.tenant_admitted_cost.items():
            if admitted < floor:
                continue  # too little admitted demand to judge
            fraction = report.tenant_served_cost.get(tenant, 0.0) / admitted
            if fraction < slo.service_fraction:
                violations.append(
                    f"SLO: tenant {tenant!r} saw only {fraction:.0%} of its "
                    f"admitted cost served (floor "
                    f"{slo.service_fraction:.0%})"
                )

    def _export(self) -> None:
        obs = self.obs
        report = self._report
        for name, help_text, value in (
            ("repro_scenario_availability",
             "Served (non-shed) fraction of the last scenario replay.",
             report.availability),
            ("repro_scenario_degraded_fraction",
             "Degraded fraction of the last scenario replay.",
             report.degraded_fraction),
            ("repro_scenario_worst_stretch",
             "Worst observed exact-answer stretch of the last replay.",
             report.worst_stretch),
            ("repro_scenario_worst_detour",
             "Worst decoded-vs-fault-free detour of the last replay.",
             report.worst_detour),
            ("repro_scenario_p99_total_ms",
             "Gateway p99 end-to-end latency of the last replay "
             "(virtual ms).",
             report.p99_total_ms),
            ("repro_scenario_goodput_fraction",
             "Fraction of the last replay's requests answered exactly.",
             report.goodput_fraction),
            ("repro_scenario_fairness_ratio",
             "Served-cost ratio between the best- and worst-served "
             "backlogged tenants of the last replay.",
             report.fairness_ratio),
        ):
            obs.gauge(name, help_text).set(value)
        obs.counter(
            "repro_scenario_violations_total",
            "Invariant and SLO violations found by scenario replays.",
        ).inc(len(report.violations))


def run_trace(
    trace: ScenarioTrace,
    graph: Graph | None = None,
    epsilon: float = 1.0,
    obs: "Registry | None" = None,
) -> ScenarioReport:
    """Compile and replay ``trace`` in one call."""
    compiled = compile_trace(trace, graph=graph)
    return ScenarioRunner(compiled, epsilon=epsilon, obs=obs).run()
