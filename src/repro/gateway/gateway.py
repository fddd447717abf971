"""The overload-resilient async gateway over the query frontend.

:class:`AsyncGateway` turns the one-call-at-a-time
:class:`~repro.service.frontend.QueryService` into a multi-tenant
front door that **degrades explicitly under load it cannot carry**,
extending the storage tier's "error or exact answer, never silently
wrong" contract to overload: every request submitted resolves to
exactly one :class:`GatewayOutcome`, and every non-exact outcome
carries a :class:`~repro.service.frontend.DegradationReason` — there
is no code path that times out silently or drops work on the floor.

The request lifecycle::

    submit ─► quota (token bucket) ──✗── QUOTA_EXCEEDED
                │
                ├─► waiting room full ─✗── SHED_OVERLOAD
                │
                └─► per-tenant queue ── DRR pick by worker
                          │
                          ├─ deadline already spent ─✗─ QUEUE_DEADLINE
                          │
                          ├─ identical (s,t,F,gen) in flight ─ await
                          │        the leader's answer (coalesced)
                          │
                          └─ QueryService.query under the remaining
                             deadline budget ─► exact | degraded

Concurrency runs on the deterministic virtual-time loop
(:mod:`repro.gateway.loop`).  The backend query is synchronous and
advances the shared clock by the virtual latency it costs — i.e. the
label store is modelled as a serial resource, which is exactly what
makes offered load above its service rate an *overload* the admission
machinery has to absorb.  Worker tasks interleave at scheduling
points, which is where coalescing happens: between registering an
in-flight key and executing it, a worker yields once, giving every
simultaneously dequeued duplicate the chance to attach to the same
answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.exceptions import GatewayError, QueryError
from repro.gateway.admission import QuotaPolicy, TokenBucket, WaitingRoom
from repro.gateway.loop import Event, Future, Task, VirtualLoop
from repro.labeling.decoder import normalize_faults
from repro.service.frontend import (
    QUERIES_TOTAL,
    QUERIES_TOTAL_HELP,
    SHED_REASONS,
    DegradationReason,
    QueryOutcome,
    QueryService,
)

if TYPE_CHECKING:
    from repro.obs.registry import Registry


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs for one gateway (times in virtual milliseconds)."""

    #: worker tasks draining the waiting room concurrently
    max_concurrency: int = 4
    #: waiting-room bound across all tenants (SHED_OVERLOAD above it)
    queue_capacity: int = 64
    #: per-tenant waiting-room bound (None = the global bound)
    per_tenant_capacity: int | None = None
    #: DRR deficit earned per backlogged tenant per round, in label-cost
    #: units (a request costs the number of labels it must fetch)
    drr_quantum: float = 4.0
    #: deadline applied when a request does not carry one
    default_deadline_ms: float = 250.0
    #: token bucket applied to tenants without an explicit quota
    default_quota: QuotaPolicy = QuotaPolicy()
    #: per-tenant quota overrides by tenant name
    tenant_quotas: Mapping[str, QuotaPolicy] = field(default_factory=dict)
    #: share one in-flight answer between identical (s, t, F, gen) keys
    coalescing: bool = True


@dataclass(frozen=True)
class GatewayRequest:
    """One tenant-attributed forbidden-set query."""

    tenant: str
    s: int
    t: int
    vertex_faults: tuple[int, ...] = ()
    edge_faults: tuple[tuple[int, int], ...] = ()
    deadline_ms: float | None = None
    #: opaque simulated end-user id (traffic models draw these from
    #: million-user populations; the gateway only reports it back)
    user_id: int = 0

    def label_cost(self) -> int:
        """How many distinct labels the query must fetch (DRR cost)."""
        vertices = {self.s, self.t}
        vertices.update(self.vertex_faults)
        for a, b in self.edge_faults:
            vertices.add(a)
            vertices.add(b)
        return len(vertices)


@dataclass(frozen=True)
class GatewayOutcome:
    """The gateway's answer: the frontend's outcome, or an explicit shed.

    ``status`` is ``"exact"`` / ``"degraded"`` (mirroring the wrapped
    :class:`QueryOutcome`) or ``"shed"`` (admission control rejected
    the work; ``outcome`` is None).  ``reason`` is set for everything
    non-exact — the acceptance invariant of the traffic battery.
    """

    request: GatewayRequest
    status: str
    reason: DegradationReason | None
    outcome: QueryOutcome | None
    queue_ms: float
    total_ms: float
    coalesced: bool

    @property
    def shed(self) -> bool:
        """True when admission control rejected the request."""
        return self.status == "shed"

    @property
    def exact(self) -> bool:
        """True when the backend answered with full labels."""
        return self.status == "exact"


@dataclass
class GatewayMetrics:
    """Gateway-level counters (the frontend keeps the decode-level ones)."""

    submitted: int = 0
    completed: int = 0
    exact: int = 0
    degraded: int = 0
    shed: int = 0
    shed_by_reason: dict[str, int] = field(default_factory=dict)
    coalesced: int = 0
    queue_ms: list[float] = field(default_factory=list)
    total_ms: list[float] = field(default_factory=list)
    served_cost_by_tenant: dict[str, float] = field(default_factory=dict)
    submitted_cost_by_tenant: dict[str, float] = field(default_factory=dict)
    #: cost that made it past admission into the waiting room — the
    #: demand DRR actually arbitrates (door sheds never count here)
    admitted_cost_by_tenant: dict[str, float] = field(default_factory=dict)

    @property
    def shed_rate(self) -> float:
        """Fraction of submitted requests shed (0.0 before any traffic)."""
        return self.shed / self.submitted if self.submitted else 0.0

    @property
    def goodput_fraction(self) -> float:
        """Fraction of submitted requests answered exactly."""
        return self.exact / self.submitted if self.submitted else 0.0


@dataclass
class _PendingRequest:
    """A request in the waiting room, with its one-shot result future."""

    request: GatewayRequest
    arrival_ms: float
    deadline_at_ms: float
    cost: float
    result: Future


class AsyncGateway:
    """Admission-controlled, fair, coalescing front door for queries."""

    def __init__(
        self,
        service: QueryService,
        loop: VirtualLoop,
        config: GatewayConfig | None = None,
        obs: "Registry | None" = None,
    ) -> None:
        if service.clock is not loop.clock:
            raise GatewayError(
                "the gateway's loop and its service must share one "
                "VirtualClock (pass clock=loop.clock when building the "
                "service's client)"
            )
        self.service = service
        self.loop = loop
        self.config = config or GatewayConfig()
        self.obs = obs
        self.metrics = GatewayMetrics()
        self._room: WaitingRoom[_PendingRequest] = WaitingRoom(
            capacity=self.config.queue_capacity,
            quantum=self.config.drr_quantum,
            per_tenant_capacity=self.config.per_tenant_capacity,
        )
        self._buckets: dict[str, TokenBucket] = {}
        self._inflight: dict[tuple, Future] = {}
        self._work = Event(loop)
        self._closed = False
        self._workers: list[Task] = [
            loop.create_task(self._worker(), name=f"gateway-worker-{i}")
            for i in range(self.config.max_concurrency)
        ]

    # -- submission ---------------------------------------------------------

    def submit(self, request: GatewayRequest) -> Future:
        """Admit or shed one request; returns the future of its outcome.

        Synchronous and non-blocking: sheds resolve the future
        immediately with an explicit reason, admissions park the
        request in the waiting room for the workers.  Exactly one
        :class:`GatewayOutcome` per submit, always.
        """
        if self._closed:
            raise GatewayError("gateway is closed to new submissions")
        vertex_faults, _ = normalize_faults(
            request.vertex_faults, request.edge_faults
        )
        if request.s in vertex_faults or request.t in vertex_faults:
            # fail loudly *now*: a worker hitting this later would die
            # with the request's future forever pending
            raise QueryError("query endpoint is inside the forbidden set")
        now = self.loop.now
        cost = float(request.label_cost())
        metrics = self.metrics
        metrics.submitted += 1
        metrics.submitted_cost_by_tenant[request.tenant] = (
            metrics.submitted_cost_by_tenant.get(request.tenant, 0.0) + cost
        )
        future = Future(self.loop)
        bucket = self._bucket(request.tenant, now)
        if not bucket.try_take(now, 1.0):
            self._resolve_shed(
                future, request, DegradationReason.QUOTA_EXCEEDED, now, now
            )
            return future
        deadline = (
            self.config.default_deadline_ms
            if request.deadline_ms is None else request.deadline_ms
        )
        pending = _PendingRequest(
            request=request,
            arrival_ms=now,
            deadline_at_ms=now + deadline,
            cost=cost,
            result=future,
        )
        if not self._room.push(request.tenant, pending, cost):
            self._resolve_shed(
                future, request, DegradationReason.SHED_OVERLOAD, now, now
            )
            return future
        metrics.admitted_cost_by_tenant[request.tenant] = (
            metrics.admitted_cost_by_tenant.get(request.tenant, 0.0) + cost
        )
        self._gauge_depth()
        self._work.notify()
        return future

    def _bucket(self, tenant: str, now: float) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            policy = self.config.tenant_quotas.get(
                tenant, self.config.default_quota
            )
            bucket = TokenBucket(policy.rate_per_ms, policy.burst, now)
            self._buckets[tenant] = bucket
        return bucket

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Refuse new submissions; queued work still drains to outcomes."""
        self._closed = True
        self._work.notify()

    async def drain(self) -> None:
        """Close and wait until every worker has finished every request."""
        self.close()
        # snapshot: iterating the live worker list across awaits would
        # race with concurrent mutation at the yield points (RPL011)
        for worker in tuple(self._workers):
            await worker.future

    # -- workers ------------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            pending = self._room.pick()
            if pending is None:
                if self._closed:
                    return
                await self._work.wait()
                continue
            self._gauge_depth()
            await self._execute(pending)

    async def _execute(self, pending: _PendingRequest) -> None:
        request = pending.request
        queue_ms = self.loop.now - pending.arrival_ms
        if self._shed_if_late(pending):
            return
        key = self._coalesce_key(request)
        if key is not None:
            first_look = True
            while True:
                entry = self._inflight.get(key)
                if entry is None:
                    if first_look:
                        await self._lead(pending, key, queue_ms)
                        return
                    # a leader existed when we were dequeued but shed
                    # while we waited; run solo under our own budget
                    break
                first_look = False
                leader_future, leader_deadline = entry
                # attach only when our deadline is no tighter than the
                # leader's: the leader resolves within *its* budget, so
                # a tighter follower could receive the answer only
                # after its own deadline — a silent timeout in disguise
                if pending.deadline_at_ms < leader_deadline:
                    break
                outcome = await leader_future
                if outcome is not None:
                    self.metrics.coalesced += 1
                    self._resolve_answer(
                        pending, outcome, queue_ms, coalesced=True
                    )
                    return
                # the leader shed at its deadline; the in-flight map may
                # have changed across the await, so re-validate it — a
                # new leader registered during the yield is attachable,
                # falling straight to a solo query would duplicate its
                # backend work (RPL011)
                if self._shed_if_late(pending):
                    return
        if self._shed_if_late(pending):
            return
        outcome = self._query(request, pending.deadline_at_ms)
        self._resolve_answer(pending, outcome, queue_ms, coalesced=False)

    async def _lead(
        self, pending: _PendingRequest, key: tuple, queue_ms: float
    ) -> None:
        """Run the query as coalescing leader for ``key``.

        The one ``sleep(0)`` between registering the key and executing
        is the attach window: every duplicate dequeued in the same
        scheduling round finds the key and awaits our future instead
        of hitting the backend.  The shared future resolves to the
        outcome, or to None if our own deadline died in the window
        (followers then retry under their own budgets).
        """
        shared: Future = Future(self.loop)
        self._inflight[key] = (shared, pending.deadline_at_ms)
        try:
            await self.loop.sleep(0)
            if self.loop.now >= pending.deadline_at_ms:
                del self._inflight[key]
                shared.set_result(None)
                self._resolve_shed(
                    pending.result, pending.request,
                    DegradationReason.QUEUE_DEADLINE,
                    pending.arrival_ms, self.loop.now,
                )
                return
            outcome = self._query(pending.request, pending.deadline_at_ms)
        except BaseException as exc:
            del self._inflight[key]
            shared.set_exception(exc)
            raise
        del self._inflight[key]
        shared.set_result(outcome)
        self._resolve_answer(pending, outcome, queue_ms, coalesced=False)

    def _shed_if_late(self, pending: _PendingRequest) -> bool:
        """Shed with QUEUE_DEADLINE when the budget is already spent.

        Checked at dequeue *and* after every await: burning backend
        work on an answer nobody is waiting for would only deepen the
        overload, and completing it late would be a silent timeout.
        """
        now = self.loop.now
        if now < pending.deadline_at_ms:
            return False
        self._resolve_shed(
            pending.result, pending.request,
            DegradationReason.QUEUE_DEADLINE, pending.arrival_ms, now,
        )
        return True

    def _coalesce_key(self, request: GatewayRequest) -> tuple | None:
        if not self.config.coalescing:
            return None
        vertex_faults, edge_faults = normalize_faults(
            request.vertex_faults, request.edge_faults
        )
        return (
            request.s, request.t, vertex_faults, edge_faults,
            self.service.store.committed_version,
        )

    def _query(
        self, request: GatewayRequest, deadline_at_ms: float
    ) -> QueryOutcome:
        remaining = max(0.0, deadline_at_ms - self.loop.now)
        return self.service.query(
            request.s, request.t,
            vertex_faults=request.vertex_faults,
            edge_faults=request.edge_faults,
            deadline_ms=remaining,
        )

    # -- accounting ---------------------------------------------------------

    def _resolve_answer(
        self,
        pending: _PendingRequest,
        outcome: QueryOutcome,
        queue_ms: float,
        coalesced: bool,
    ) -> None:
        request = pending.request
        metrics = self.metrics
        metrics.completed += 1
        if outcome.exact:
            metrics.exact += 1
        else:
            metrics.degraded += 1
        metrics.served_cost_by_tenant[request.tenant] = (
            metrics.served_cost_by_tenant.get(request.tenant, 0.0)
            + pending.cost
        )
        total_ms = self.loop.now - pending.arrival_ms
        metrics.queue_ms.append(queue_ms)
        metrics.total_ms.append(total_ms)
        result = GatewayOutcome(
            request=request, status=outcome.status, reason=outcome.reason,
            outcome=outcome, queue_ms=queue_ms, total_ms=total_ms,
            coalesced=coalesced,
        )
        self._observe(result)
        pending.result.set_result(result)

    def _resolve_shed(
        self,
        future: Future,
        request: GatewayRequest,
        reason: DegradationReason,
        arrival_ms: float,
        now: float,
    ) -> None:
        if reason not in SHED_REASONS:
            raise GatewayError(f"{reason} is not a shed reason")
        metrics = self.metrics
        metrics.completed += 1
        metrics.shed += 1
        key = str(reason)
        metrics.shed_by_reason[key] = metrics.shed_by_reason.get(key, 0) + 1
        total_ms = now - arrival_ms
        metrics.queue_ms.append(total_ms)
        metrics.total_ms.append(total_ms)
        result = GatewayOutcome(
            request=request, status="shed", reason=reason, outcome=None,
            queue_ms=total_ms, total_ms=total_ms, coalesced=False,
        )
        self._observe(result)
        future.set_result(result)

    def _observe(self, result: GatewayOutcome) -> None:
        if self.obs is None:
            return
        self.obs.counter(
            "repro_gateway_requests_total",
            "Gateway requests resolved, by tenant, status and reason.",
            tenant=result.request.tenant,
            status=result.status,
            reason="" if result.reason is None else str(result.reason),
        ).inc()
        if result.shed:
            # sheds join the frontend's queries-by-status-and-reason
            # family so one counter covers every DegradationReason
            self.obs.counter(
                QUERIES_TOTAL, QUERIES_TOTAL_HELP,
                status="shed", reason=str(result.reason),
            ).inc()
        if result.coalesced:
            self.obs.counter(
                "repro_gateway_coalesced_total",
                "Requests served by attaching to an identical in-flight "
                "query.",
            ).inc()
        self.obs.histogram(
            "repro_gateway_queue_ms",
            "Virtual milliseconds requests spent in the waiting room.",
        ).observe(result.queue_ms)
        self.obs.histogram(
            "repro_gateway_total_ms",
            "End-to-end virtual latency from submit to outcome.",
        ).observe(result.total_ms)

    def _gauge_depth(self) -> None:
        if self.obs is not None:
            self.obs.gauge(
                "repro_gateway_queue_depth",
                "Requests currently parked in the waiting room.",
            ).set(len(self._room))

