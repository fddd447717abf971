"""Query frontend: forbidden-set answers that degrade, never lie.

:class:`QueryService` answers ``d_{G\\F}(s, t)`` queries by fetching
*only* the labels the query needs — ``s``, ``t`` and each fault —
through a :class:`~repro.service.client.ResilientLabelClient`, then
running the paper's label-only decoder.  The availability contract
mirrors the storage tier's integrity contract from PR 1:

**error or explicitly degraded answer, never silently wrong.**

Concretely, every answer is a :class:`QueryOutcome`:

* ``status == "exact"`` — every needed label was fetched and decoded;
  ``distance`` carries the usual ``(1+ε)`` guarantee.
* ``status == "degraded"`` — some label could not be fetched within the
  deadline budget.  ``distance`` is ``None`` (conservative "unknown,
  retry later"); what *is* known is stated explicitly:

  - if only fault labels are missing, the decoder runs on the available
    subset ``F' ⊆ F`` and ``lower_bound = d̂(F') / stretch`` is a
    certified lower bound on the true ``d_{G\\F}(s, t)`` (removing
    faults only shortens distances, and ``d̂(F') ≤ stretch·d_{G\\F'}``);
    an *infinite* lower bound is a certain verdict — if ``s`` and ``t``
    are separated under fewer faults, they are separated under all of
    ``F``;
  - if an endpoint label is missing, nothing can be certified:
    ``lower_bound = 0``.

A query never fabricates a distance from partial data, and a recovered
shard restores exact ``(1+ε)`` answers with no restart or rebuild.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from repro.exceptions import QueryError
from repro.labeling.encoding import DECODE_ERRORS
from repro.labeling.kernel import Fragment, KernelDecoder
from repro.labeling.query import FaultSet, normalize_faults
from repro.service.client import ResilientLabelClient
from repro.service.clock import VirtualClock
from repro.service.store import ShardedLabelStore

if TYPE_CHECKING:
    from repro.obs.registry import Registry
    from repro.obs.trace import Tracer


class DegradationReason(str, Enum):
    """Why an answer is degraded or shed — a closed vocabulary, not prose.

    The members inherit from ``str``, so existing comparisons against
    the literal strings (``outcome.reason == "endpoint_unavailable"``)
    and f-string interpolation keep working; new code should compare
    against the enum members and get typo-safety for free.

    The first two members describe *degraded* answers (the query ran
    but labels were missing).  The ``SHED_*`` / ``QUOTA_*`` / ``QUEUE_*``
    members describe *shed* requests: the admission layer of
    :mod:`repro.gateway` rejected the work before (or instead of)
    running it — explicitly, never as a silent timeout.
    """

    #: an endpoint (``s`` or ``t``) label could not be fetched —
    #: nothing can be certified
    ENDPOINT_UNAVAILABLE = "endpoint_unavailable"
    #: only fault labels are missing — the subset answer certifies a
    #: lower bound
    FAULT_LABELS_UNAVAILABLE = "fault_labels_unavailable"
    #: the gateway's waiting room was full: the request was rejected at
    #: admission to protect work already accepted
    SHED_OVERLOAD = "shed_overload"
    #: the tenant's token-bucket quota was exhausted at admission
    QUOTA_EXCEEDED = "quota_exceeded"
    #: the request's deadline expired while it sat in the waiting room,
    #: so it was shed at dequeue instead of burning backend work
    QUEUE_DEADLINE = "queue_deadline"

    def __str__(self) -> str:
        return self.value


#: reasons that mark a request *shed by admission control* (the work
#: never reached the decoder), as opposed to *degraded* (it ran, but
#: some label was missing)
SHED_REASONS = frozenset({
    DegradationReason.SHED_OVERLOAD,
    DegradationReason.QUOTA_EXCEEDED,
    DegradationReason.QUEUE_DEADLINE,
})

#: the one queries-by-status-and-reason counter family; the gateway
#: emits ``status="shed"`` rows into the same family, so name and help
#: live here as the single source of truth (the registry rejects
#: mismatched help strings)
QUERIES_TOTAL = "repro_queries_total"
QUERIES_TOTAL_HELP = "Frontend queries answered, by status and reason."
QUERY_LATENCY = "repro_query_latency_ms"
QUERY_LATENCY_HELP = "End-to-end query latency in virtual milliseconds."


@dataclass(frozen=True)
class MissingLabel:
    """One label the client could not deliver for a query."""

    vertex: int
    role: str  # "endpoint" | "vertex_fault" | "edge_fault"
    error: str

    def __str__(self) -> str:
        return f"vertex {self.vertex} ({self.role}): {self.error}"


@dataclass(frozen=True)
class QueryOutcome:
    """One answer of the serving tier, with its honesty flags.

    ``distance`` is set only for ``status == "exact"``; degraded
    answers state what they *can* certify via ``lower_bound`` and list
    every label that could not be fetched in ``missing``.
    """

    s: int
    t: int
    status: str  # "exact" | "degraded"
    distance: float | None
    lower_bound: float
    reason: DegradationReason | None
    missing: tuple[MissingLabel, ...]
    retry_suggested: bool
    latency_ms: float
    attempts: int
    retries: int
    hedges: int
    #: the label-table generation every fetched label came from — one
    #: consistent version per answer, pinned at query entry
    version: int = 0

    @property
    def exact(self) -> bool:
        """True when every needed label was fetched and decoded."""
        return self.status == "exact"

    @property
    def degraded(self) -> bool:
        """True when the answer is explicitly partial (labels missing)."""
        return self.status == "degraded"


@dataclass
class ServiceMetrics:
    """Frontend-level counters (the client keeps the fetch-level ones)."""

    queries: int = 0
    exact_answers: int = 0
    degraded_answers: int = 0
    decode_failures: int = 0
    #: label loads served from the decoder arena's content-keyed cache
    #: because the identical bytes were loaded before
    decode_memo_hits: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    #: per-:class:`DegradationReason` counts of non-exact answers, keyed
    #: by the reason's string value (only reasons that occurred appear)
    reason_counts: dict[str, int] = field(default_factory=dict)

    @property
    def degraded_rate(self) -> float:
        """Fraction of answered queries that were degraded.

        Division-by-zero safe: 0.0 before the first query, and every
        reason — including the gateway's shed reasons, which are
        counted by :class:`~repro.gateway.gateway.GatewayMetrics`, not
        here — contributes to ``degraded_answers`` at most once.
        """
        return self.degraded_answers / self.queries if self.queries else 0.0

    def count_reason(self, reason: "DegradationReason | None") -> None:
        """Tally one answer's reason (None, i.e. exact, is not counted)."""
        if reason is not None:
            key = str(reason)
            self.reason_counts[key] = self.reason_counts.get(key, 0) + 1


class QueryService:
    """Forbidden-set distance queries over a sharded label store."""

    def __init__(
        self,
        store: ShardedLabelStore,
        stretch_bound: float,
        client: ResilientLabelClient | None = None,
        default_deadline_ms: float = 120.0,
        obs: "Registry | None" = None,
        tracer: "Tracer | None" = None,
        **client_kwargs,
    ) -> None:
        if stretch_bound < 1.0:
            raise QueryError(f"stretch bound {stretch_bound} below 1")
        self._store = store
        self.stretch_bound = stretch_bound
        self.obs = obs
        self.tracer = tracer
        if client is None:
            client = ResilientLabelClient(
                store, default_deadline_ms=default_deadline_ms, obs=obs,
                **client_kwargs,
            )
        self.client = client
        if obs is not None:
            store.attach_observability(obs)
        self.default_deadline_ms = default_deadline_ms
        self.metrics = ServiceMetrics()
        # one long-lived decoder for every query: fetched bytes load
        # straight into its arena, whose content-keyed cache parses
        # identical bytes once — the common case under Zipf traffic.
        # It costs no virtual time: a real-CPU optimisation, invisible
        # to the clock, and a rollout that rewrites a label simply
        # misses.
        self._decoder = KernelDecoder()

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_scheme(
        cls,
        scheme,
        num_shards: int = 4,
        replication: int = 2,
        store_seed=None,
        **kwargs,
    ) -> "QueryService":
        """Encode and serve every label of a labeling scheme."""
        store = ShardedLabelStore.from_scheme(
            scheme, num_shards=num_shards, replication=replication,
            seed=store_seed,
        )
        return cls(store, stretch_bound=scheme.stretch_bound(), **kwargs)

    @classmethod
    def from_database(
        cls,
        db,
        num_shards: int = 4,
        replication: int = 2,
        store_seed=None,
        **kwargs,
    ) -> "QueryService":
        """Serve a :class:`~repro.oracle.oracle.LabelDatabase` (quarantine-aware).

        A database loaded from a ``.fsdl`` file and a
        :class:`~repro.oracle.ForbiddenSetDistanceOracle` built in memory
        are served alike: the same bytes, under the ``1 + ε`` bound.
        """
        store = ShardedLabelStore.from_database(
            db, num_shards=num_shards, replication=replication,
            seed=store_seed,
        )
        return cls(store, stretch_bound=1.0 + db.epsilon, **kwargs)

    @property
    def store(self) -> ShardedLabelStore:
        """The sharded store the service reads from."""
        return self._store

    @property
    def clock(self) -> VirtualClock:
        """The client's virtual clock (shared by every latency)."""
        return self.client.clock

    # -- querying -----------------------------------------------------------

    def query(
        self,
        s: int,
        t: int,
        vertex_faults=(),
        edge_faults=(),
        deadline_ms: float | None = None,
    ) -> QueryOutcome:
        """Answer one query within a virtual-time deadline budget."""
        if self.tracer is None:
            return self._query(s, t, vertex_faults, edge_faults, deadline_ms)
        with self.tracer.span("service.query") as span:
            outcome = self._query(s, t, vertex_faults, edge_faults, deadline_ms)
            span.set("status", outcome.status)
            if outcome.reason is not None:
                span.set("reason", str(outcome.reason))
            span.set("attempts", outcome.attempts)
            span.set("missing_labels", len(outcome.missing))
            return outcome

    def _query(
        self,
        s: int,
        t: int,
        vertex_faults=(),
        edge_faults=(),
        deadline_ms: float | None = None,
    ) -> QueryOutcome:
        metrics = self.metrics
        start = self.clock.now
        vertex_faults, edge_faults = normalize_faults(
            vertex_faults, edge_faults
        )
        if s in vertex_faults or t in vertex_faults:
            raise QueryError("query endpoint is inside the forbidden set")
        metrics.queries += 1
        budget = (
            self.default_deadline_ms if deadline_ms is None else deadline_ms
        )
        deadline = start + budget
        # pin the committed generation for the query's whole lifetime:
        # every fetch below reads this version, so an answer can never
        # mix labels from before and after a concurrent rollout
        version = self._store.pin()
        try:
            return self._pinned_query(
                s, t, vertex_faults, edge_faults, deadline, start, version
            )
        finally:
            self._store.unpin(version)

    def _pinned_query(
        self,
        s: int,
        t: int,
        vertex_faults,
        edge_faults,
        deadline: float,
        start: float,
        version: int,
    ) -> QueryOutcome:
        metrics = self.metrics

        # one fetch+decode per unique vertex, whatever roles it plays
        roles: dict[int, str] = {}
        for v in (s, t):
            roles[v] = "endpoint"
        for f in vertex_faults:
            roles.setdefault(f, "vertex_fault")
        for a, b in edge_faults:
            roles.setdefault(a, "edge_fault")
            roles.setdefault(b, "edge_fault")

        labels: dict[int, Fragment] = {}
        missing: list[MissingLabel] = []
        arena = self._decoder.arena
        attempts = retries = hedges = 0
        fetch_span = (
            self.tracer.start("service.fetch_labels")
            if self.tracer is not None else None
        )
        try:
            for vertex, role in roles.items():
                remaining = deadline - self.clock.now
                if remaining <= 0:
                    missing.append(MissingLabel(vertex, role, "deadline"))
                    continue
                outcome = self.client.fetch_label(vertex, remaining, version)
                attempts += outcome.attempts
                retries += outcome.retries
                hedges += outcome.hedges
                if not outcome.ok:
                    missing.append(MissingLabel(vertex, role, outcome.error))
                    continue
                hits = arena.hits
                try:
                    labels[vertex] = self._decoder.load(outcome.data)
                except DECODE_ERRORS as exc:
                    # CRC passed but the bytes do not decode
                    # (LabelCorruptionError included): surface it as a fetch
                    # failure feeding an explicitly degraded outcome, never
                    # as a guessed label
                    metrics.decode_failures += 1
                    if self.obs is not None:
                        self.obs.counter(
                            "repro_decode_failures_total",
                            "Fetched label bytes that failed to decode.",
                        ).inc()
                    missing.append(
                        MissingLabel(vertex, role, f"undecodable: {exc!r}")
                    )
                metrics.decode_memo_hits += arena.hits - hits
            if fetch_span is not None:
                fetch_span.set("labels_needed", len(roles))
                fetch_span.set("labels_fetched", len(labels))
                fetch_span.set("attempts", attempts)
                fetch_span.set("retries", retries)
                fetch_span.set("hedges", hedges)
        finally:
            if fetch_span is not None:
                self.tracer.end(fetch_span)

        if s not in labels or t not in labels:
            return self._record(QueryOutcome(
                s=s, t=t, status="degraded", distance=None, lower_bound=0.0,
                reason=DegradationReason.ENDPOINT_UNAVAILABLE,
                missing=tuple(missing),
                retry_suggested=True, latency_ms=self.clock.now - start,
                attempts=attempts, retries=retries, hedges=hedges,
                version=version,
            ))

        available = FaultSet(
            vertex_labels=[
                labels[f] for f in vertex_faults if f in labels
            ],
            edge_labels=[
                (labels[a], labels[b])
                for a, b in edge_faults
                if a in labels and b in labels
            ],
        )
        result = self._decoder.decode(
            labels[s], labels[t], available, tracer=self.tracer
        )
        if not missing:
            return self._record(QueryOutcome(
                s=s, t=t, status="exact", distance=result.distance,
                lower_bound=result.distance / self.stretch_bound,
                reason=None, missing=(), retry_suggested=False,
                latency_ms=self.clock.now - start, attempts=attempts,
                retries=retries, hedges=hedges, version=version,
            ))
        # fault labels are missing: the subset answer certifies a lower
        # bound (an infinite one is a certain "unreachable" verdict)
        lower = (
            math.inf if math.isinf(result.distance)
            else result.distance / self.stretch_bound
        )
        return self._record(QueryOutcome(
            s=s, t=t, status="degraded", distance=None, lower_bound=lower,
            reason=DegradationReason.FAULT_LABELS_UNAVAILABLE,
            missing=tuple(missing),
            retry_suggested=True, latency_ms=self.clock.now - start,
            attempts=attempts, retries=retries, hedges=hedges,
            version=version,
        ))

    def _record(self, outcome: QueryOutcome) -> QueryOutcome:
        if outcome.exact:
            self.metrics.exact_answers += 1
        else:
            self.metrics.degraded_answers += 1
        self.metrics.count_reason(outcome.reason)
        self.metrics.latencies_ms.append(outcome.latency_ms)
        if self.obs is not None:
            self.obs.counter(
                QUERIES_TOTAL,
                QUERIES_TOTAL_HELP,
                status=outcome.status,
                reason="" if outcome.reason is None else str(outcome.reason),
            ).inc()
            self.obs.histogram(
                QUERY_LATENCY,
                QUERY_LATENCY_HELP,
            ).observe(outcome.latency_ms)
        return outcome

    # -- reporting ----------------------------------------------------------

    def metrics_summary(self) -> dict[str, float]:
        """Frontend + client counters in one flat dict (stable order).

        Per-reason counts appear as ``reason_<value>`` keys in sorted
        order, so the dict stays byte-stable for a given run while
        still covering every :class:`DegradationReason` that occurred.
        """
        summary: dict[str, float] = {
            "queries": self.metrics.queries,
            "exact_answers": self.metrics.exact_answers,
            "degraded_answers": self.metrics.degraded_answers,
            "degraded_rate": round(self.metrics.degraded_rate, 4),
            "decode_failures": self.metrics.decode_failures,
            "decode_memo_hits": self.metrics.decode_memo_hits,
        }
        for reason in sorted(self.metrics.reason_counts):
            summary[f"reason_{reason}"] = self.metrics.reason_counts[reason]
        summary.update(self.client.metrics.snapshot())
        return summary
