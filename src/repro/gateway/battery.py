"""The SLO battery: seeded overload traffic judged against ground truth.

:class:`GatewayBattery` builds the whole serving stack — labels,
sharded store, caching client, frontend, gateway — on one virtual
clock, replays a seeded open-loop traffic stream (optionally with a
mid-run shard outage), and hands **every single outcome** to the
:class:`~repro.service.judge.Judge`, which checks it against BFS
ground truth with the rules stated once in ``docs/service.md``
("Judge"): the stretch window for exact answers, certified lower
bounds for degraded ones, explicit reasons and the shed vocabulary,
the deadline (no silent timeouts), and no silent drops.

The battery adds its own fairness invariant — served work among
*backlogged* tenants stays within the DRR fairness bound — and an
:class:`SLOPolicy` (latency percentiles, goodput, shed-rate), so it
doubles as a regression gate: ``repro traffic`` exits non-zero when
either an invariant or an SLO is violated.  Identical seeds produce
identical reports bit for bit (``fingerprint`` makes that checkable
cheaply).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.exceptions import QueryError
from repro.gateway.cache import CachingLabelClient, LabelCache
from repro.gateway.gateway import AsyncGateway, GatewayConfig
from repro.gateway.loop import VirtualLoop
from repro.gateway.traffic import (
    TimedRequest,
    TrafficConfig,
    TrafficGenerator,
    overload_mix,
)
from repro.graphs.graph import Graph
from repro.labeling import ForbiddenSetLabeling
from repro.service.clock import VirtualClock
from repro.service.frontend import QueryService
from repro.service.judge import Judge
from repro.service.store import ShardedLabelStore

if TYPE_CHECKING:
    from repro.obs.registry import Registry


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


@dataclass(frozen=True)
class SLOPolicy:
    """Thresholds the battery gates on (beyond the hard invariants)."""

    max_p99_total_ms: float = 400.0
    max_shed_rate: float = 0.9
    min_goodput_fraction: float = 0.05
    #: max served-cost ratio between the best- and worst-served
    #: *backlogged* tenants (DRR should keep this near 1)
    fairness_bound: float = 3.0
    #: every tenant with non-trivial admitted demand must see at least
    #: this fraction of it served — per-tenant goodput floor; the rest
    #: may only be lost to explicit queue-deadline sheds
    min_service_fraction: float = 0.5


@dataclass(frozen=True)
class ShardOutage:
    """A shard goes dark for a virtual-time window mid-run."""

    shard: int
    start_ms: float
    duration_ms: float


@dataclass
class SLOReport:
    """Everything one battery run learned, JSON-serialisable and seeded."""

    seed: int
    duration_ms: float
    submitted: int = 0
    exact: int = 0
    degraded: int = 0
    shed: int = 0
    shed_by_reason: dict[str, int] = field(default_factory=dict)
    coalesced: int = 0
    cache: dict[str, int] = field(default_factory=dict)
    p50_total_ms: float = 0.0
    p99_total_ms: float = 0.0
    p50_queue_ms: float = 0.0
    p99_queue_ms: float = 0.0
    shed_rate: float = 0.0
    goodput_fraction: float = 0.0
    #: exact answers per virtual second
    goodput_per_s: float = 0.0
    tenant_served_cost: dict[str, float] = field(default_factory=dict)
    tenant_submitted_cost: dict[str, float] = field(default_factory=dict)
    tenant_admitted_cost: dict[str, float] = field(default_factory=dict)
    backlogged_tenants: list[str] = field(default_factory=list)
    fairness_ratio: float = 1.0
    checks_performed: int = 0
    worst_stretch: float = 1.0
    loop_steps: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every invariant and SLO held."""
        return not self.violations

    @property
    def fingerprint(self) -> str:
        """A compact determinism witness: same seed ⇒ same fingerprint."""
        return (
            f"seed={self.seed} submitted={self.submitted} "
            f"exact={self.exact} degraded={self.degraded} shed={self.shed} "
            f"coalesced={self.coalesced} steps={self.loop_steps} "
            f"p99={self.p99_total_ms:.6f} stretch={self.worst_stretch:.9f}"
        )

    def to_dict(self) -> dict:
        """The full report as a plain (JSON-ready, deterministic) dict."""
        return {
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "submitted": self.submitted,
            "exact": self.exact,
            "degraded": self.degraded,
            "shed": self.shed,
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "coalesced": self.coalesced,
            "cache": self.cache,
            "p50_total_ms": round(self.p50_total_ms, 6),
            "p99_total_ms": round(self.p99_total_ms, 6),
            "p50_queue_ms": round(self.p50_queue_ms, 6),
            "p99_queue_ms": round(self.p99_queue_ms, 6),
            "shed_rate": round(self.shed_rate, 6),
            "goodput_fraction": round(self.goodput_fraction, 6),
            "goodput_per_s": round(self.goodput_per_s, 6),
            "tenant_served_cost": {
                k: round(v, 3)
                for k, v in sorted(self.tenant_served_cost.items())
            },
            "tenant_submitted_cost": {
                k: round(v, 3)
                for k, v in sorted(self.tenant_submitted_cost.items())
            },
            "tenant_admitted_cost": {
                k: round(v, 3)
                for k, v in sorted(self.tenant_admitted_cost.items())
            },
            "backlogged_tenants": sorted(self.backlogged_tenants),
            "fairness_ratio": round(self.fairness_ratio, 6),
            "checks_performed": self.checks_performed,
            "worst_stretch": round(self.worst_stretch, 9),
            "loop_steps": self.loop_steps,
            "violations": list(self.violations),
            "ok": self.ok,
        }

    def summary(self) -> str:
        """One-line human digest."""
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (
            f"traffic battery seed={self.seed}: {status} — "
            f"{self.submitted} requests ({self.exact} exact, "
            f"{self.degraded} degraded, {self.shed} shed, "
            f"{self.coalesced} coalesced), p99 {self.p99_total_ms:.1f} ms, "
            f"goodput {self.goodput_fraction:.0%}, "
            f"fairness ratio {self.fairness_ratio:.2f}"
        )


class GatewayBattery:
    """Builds the stack, replays one traffic stream, judges everything."""

    def __init__(
        self,
        graph: Graph,
        traffic: TrafficConfig,
        seed: int = 0,
        duration_ms: float = 1000.0,
        epsilon: float = 1.0,
        num_shards: int = 4,
        replication: int = 2,
        gateway_config: GatewayConfig | None = None,
        outages: tuple[ShardOutage, ...] = (),
        slo: SLOPolicy | None = None,
        label_cache: LabelCache | None = None,
        use_cache: bool = True,
        obs: "Registry | None" = None,
    ) -> None:
        if duration_ms <= 0:
            raise QueryError(
                f"duration must be positive, got {duration_ms}"
            )
        self.graph = graph
        self.seed = seed
        self.duration_ms = duration_ms
        self.outages = outages
        self.slo = slo or SLOPolicy()
        self.obs = obs
        # validate the traffic config before any gateway workers are
        # spawned, so a bad config cannot orphan worker coroutines
        self.traffic = TrafficGenerator(graph, traffic, seed + 2)
        clock = VirtualClock()
        self.loop = VirtualLoop(clock)
        scheme = ForbiddenSetLabeling(graph, epsilon)
        self._stretch_bound = scheme.stretch_bound()
        store = ShardedLabelStore.from_scheme(
            scheme, num_shards=num_shards, replication=replication, seed=seed
        )
        if use_cache:
            client = CachingLabelClient(
                store, clock=clock, seed=seed + 1, obs=obs,
                cache=label_cache if label_cache is not None else LabelCache(),
            )
        else:
            client = None
        self.service = QueryService(
            store,
            stretch_bound=self._stretch_bound,
            client=client,
            obs=obs,
            clock=clock,
            seed=seed + 1,
        )
        self.gateway = AsyncGateway(
            self.service, self.loop, gateway_config, obs=obs
        )
        self.judge = Judge(
            graph, self._stretch_bound, store.committed_version
        )

    # -- running ------------------------------------------------------------

    def run(self) -> SLOReport:
        """Replay the stream, drain the gateway, judge every outcome."""
        report = SLOReport(seed=self.seed, duration_ms=self.duration_ms)
        stream = self.traffic.generate(self.duration_ms)
        futures: list = []

        def _arrive(timed: TimedRequest) -> None:
            futures.append(self.gateway.submit(timed.request))

        for timed in stream:
            self.loop.call_at(
                timed.at_ms, lambda timed=timed: _arrive(timed)
            )
        for outage in self.outages:
            store = self.service.store
            self.loop.call_at(
                outage.start_ms,
                lambda shard=outage.shard: store.set_down(shard),
            )
            self.loop.call_at(
                outage.start_ms + outage.duration_ms,
                lambda shard=outage.shard: store.recover(shard),
            )

        async def _drive() -> None:
            await self.loop.sleep_until(self.duration_ms)
            await self.gateway.drain()

        self.loop.run_until_complete(self.loop.create_task(_drive()))
        report.submitted = len(stream)
        report.violations.extend(
            self.judge.judge_resolution(report.submitted, futures)
        )
        deadline_ms = self.gateway.config.default_deadline_ms
        attempt_timeout_ms = self.service.client.retry.attempt_timeout_ms
        for index, future in enumerate(futures):
            if not future.done():
                continue
            outcome = future.result()
            verdict = self.judge.judge_request(
                outcome, deadline_ms, attempt_timeout_ms
            )
            report.checks_performed += verdict.checks
            if verdict.stretch is not None:
                report.worst_stretch = max(
                    report.worst_stretch, verdict.stretch
                )
            request = outcome.request
            label = (
                f"request {index} ({request.tenant}, "
                f"{request.s}->{request.t})"
            )
            report.violations.extend(
                f"{label}: {problem}" for problem in verdict.problems
            )
        self._aggregate(report, futures)
        self._check_slo(report)
        if self.obs is not None:
            self._export(report)
        return report

    # -- aggregation --------------------------------------------------------

    def _aggregate(self, report: SLOReport, futures: list) -> None:
        metrics = self.gateway.metrics
        report.exact = metrics.exact
        report.degraded = metrics.degraded
        report.shed = metrics.shed
        report.shed_by_reason = dict(sorted(metrics.shed_by_reason.items()))
        report.coalesced = metrics.coalesced
        report.shed_rate = metrics.shed_rate
        report.goodput_fraction = metrics.goodput_fraction
        report.goodput_per_s = (
            metrics.exact / (self.duration_ms / 1000.0)
            if self.duration_ms else 0.0
        )
        client = self.service.client
        if isinstance(client, CachingLabelClient):
            report.cache = client.cache.metrics.snapshot()
        totals = sorted(
            o.total_ms for f in futures if f.done()
            for o in (f.result(),) if not o.shed
        )
        queues = sorted(
            o.queue_ms for f in futures if f.done()
            for o in (f.result(),) if not o.shed
        )
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
        report.loop_steps = self.loop.steps
        # fairness: judged on *admitted* demand — the work DRR actually
        # arbitrates.  Door sheds (quota, full room) are admission
        # policy, not scheduling; counting them would blame DRR for a
        # tenant that never got past the door.  A tenant is backlogged
        # when its admitted cost clearly outran its served cost; among
        # backlogged tenants the served-cost ratio must stay bounded,
        # and an admitted-but-never-served tenant is outright starvation
        quantum = self.gateway.config.drr_quantum
        backlogged = []
        for tenant, admitted in report.tenant_admitted_cost.items():
            served = report.tenant_served_cost.get(tenant, 0.0)
            if served == 0.0:
                if admitted >= 3 * quantum:
                    report.violations.append(
                        f"tenant {tenant!r}: {admitted:.0f} cost admitted "
                        "but nothing ever served — starved"
                    )
                continue
            if admitted > 1.3 * served:
                backlogged.append(tenant)
        report.backlogged_tenants = backlogged
        if len(backlogged) >= 2:
            costs = [report.tenant_served_cost[t] for t in backlogged]
            report.fairness_ratio = max(costs) / min(costs)

    def _check_slo(self, report: SLOReport) -> None:
        slo = self.slo
        if report.p99_total_ms > slo.max_p99_total_ms:
            report.violations.append(
                f"SLO: p99 total latency {report.p99_total_ms:.1f} ms "
                f"exceeds {slo.max_p99_total_ms:.1f} ms"
            )
        if report.shed_rate > slo.max_shed_rate:
            report.violations.append(
                f"SLO: shed rate {report.shed_rate:.2f} exceeds "
                f"{slo.max_shed_rate:.2f}"
            )
        if report.goodput_fraction < slo.min_goodput_fraction:
            report.violations.append(
                f"SLO: goodput fraction {report.goodput_fraction:.2f} "
                f"below {slo.min_goodput_fraction:.2f}"
            )
        if report.fairness_ratio > slo.fairness_bound:
            report.violations.append(
                f"SLO: fairness ratio {report.fairness_ratio:.2f} among "
                f"backlogged tenants {report.backlogged_tenants} exceeds "
                f"{slo.fairness_bound:.2f}"
            )
        quantum = self.gateway.config.drr_quantum
        for tenant, admitted in report.tenant_admitted_cost.items():
            if admitted < 3 * quantum:
                continue  # too little admitted demand to judge
            fraction = report.tenant_served_cost.get(tenant, 0.0) / admitted
            if fraction < slo.min_service_fraction:
                report.violations.append(
                    f"SLO: tenant {tenant!r} saw only {fraction:.0%} of its "
                    f"admitted cost served (floor "
                    f"{slo.min_service_fraction:.0%})"
                )

    def _export(self, report: SLOReport) -> None:
        obs = self.obs
        obs.gauge(
            "repro_traffic_p99_total_ms",
            "Battery p99 end-to-end latency (virtual ms).",
        ).set(report.p99_total_ms)
        obs.gauge(
            "repro_traffic_shed_rate", "Battery shed rate.",
        ).set(report.shed_rate)
        obs.gauge(
            "repro_traffic_goodput_fraction",
            "Battery fraction of submitted requests answered exactly.",
        ).set(report.goodput_fraction)
        obs.gauge(
            "repro_traffic_fairness_ratio",
            "Served-cost ratio between best- and worst-served backlogged "
            "tenants.",
        ).set(report.fairness_ratio)
        obs.counter(
            "repro_traffic_violations_total",
            "Invariant and SLO violations found by the traffic battery.",
        ).inc(len(report.violations))


def standard_traffic_battery(
    seed: int = 0,
    duration_ms: float = 1000.0,
    offered_multiplier: float = 4.0,
    use_cache: bool = True,
    coalescing: bool = True,
    obs: "Registry | None" = None,
) -> SLOReport:
    """The acceptance battery: 4x overload + a concurrent shard outage.

    A 10×10 grid served by 4 *unreplicated* shards (so the mid-run
    outage genuinely degrades answers), three Zipf tenant populations
    in the millions, diurnal phases, a fault burst whose forbidden
    sets concentrate in a ball, and a label cache deliberately smaller
    than the working set (so the backend stays the bottleneck and the
    overload is real).  The aggregator's quota sits below its arrival
    rate, so all three shed reasons occur.  Deterministic in ``seed``.
    """
    from repro.gateway.admission import QuotaPolicy
    from repro.graphs import generators as gen

    graph = gen.grid_graph(10, 10)
    return GatewayBattery(
        graph,
        overload_mix(offered_multiplier),
        seed=seed,
        duration_ms=duration_ms,
        replication=1,
        gateway_config=GatewayConfig(
            queue_capacity=64,
            per_tenant_capacity=24,
            default_deadline_ms=250.0,
            coalescing=coalescing,
            default_quota=QuotaPolicy(rate_per_ms=2.0, burst=40.0),
            tenant_quotas={
                "aggregator": QuotaPolicy(rate_per_ms=1.0, burst=30.0)
            },
        ),
        outages=(ShardOutage(shard=0, start_ms=400.0, duration_ms=300.0),),
        label_cache=LabelCache(capacity=64),
        use_cache=use_cache,
        obs=obs,
    ).run()
