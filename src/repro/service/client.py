"""Resilient label fetching: deadlines, retries, breakers, hedges.

:class:`ResilientLabelClient` is the layer between the query frontend
and the sharded store.  One logical *label fetch* may issue several
physical shard fetches:

* **bounded retries** — at most ``RetryPolicy.max_attempts`` physical
  attempts, with exponential backoff and seeded jitter between replica
  rotations;
* **failover** — attempt ``i`` targets replica ``i mod R``, so a dead
  primary costs one fast failure, not the whole budget;
* **hedged reads** — when the primary has not answered after
  ``hedge_after_ms``, a second read is fired at the next closed-breaker
  replica and the faster answer wins;
* **per-shard circuit breakers** — ``failure_threshold`` consecutive
  failures open a shard's breaker; while open, the shard is skipped
  entirely (fail-fast); after ``cooldown_ms`` one half-open probe is
  allowed, and its outcome closes or re-opens the breaker;
* **deadline budgets** — every logical fetch carries an absolute
  virtual-time deadline; backoffs, timeouts and hedges all draw from
  it, and exhausting it yields an explicit failure, never a hang.

All failure modes produce a :class:`FetchOutcome` with ``data=None``
and an ``error`` code — the caller decides whether that is fatal or a
degraded answer.  Nothing here ever fabricates label bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.service.clock import VirtualClock
from repro.service.store import ShardedLabelStore
from repro.util.rng import RngLike, make_rng

if TYPE_CHECKING:
    from repro.obs.registry import Registry


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/hedging knobs for one client (virtual ms)."""

    max_attempts: int = 4
    attempt_timeout_ms: float = 25.0
    backoff_base_ms: float = 2.0
    backoff_factor: float = 2.0
    backoff_max_ms: float = 40.0
    jitter: float = 0.5
    hedge_after_ms: float = 8.0
    hedging: bool = True


@dataclass(frozen=True)
class BreakerPolicy:
    """Circuit-breaker knobs (consecutive failures, virtual-ms cooldown)."""

    failure_threshold: int = 3
    cooldown_ms: float = 250.0


class CircuitBreaker:
    """One shard's breaker: closed → open → half-open probe → closed.

    ``listener`` (if set) is called with ``"trip"``, ``"close"`` or
    ``"probe"`` on every state transition — the observability layer
    hangs per-shard transition counters off it without the breaker
    knowing about metrics.
    """

    __slots__ = ("policy", "consecutive_failures", "_open", "_reopen_at",
                 "trips", "closes", "probes", "listener")

    def __init__(
        self,
        policy: BreakerPolicy,
        listener: Callable[[str], None] | None = None,
    ) -> None:
        self.policy = policy
        self.consecutive_failures = 0
        self._open = False
        self._reopen_at = 0.0
        self.trips = 0
        self.closes = 0
        self.probes = 0
        self.listener = listener

    def record_probe(self) -> None:
        """Note that a half-open probe fetch is being issued."""
        self.probes += 1
        if self.listener is not None:
            self.listener("probe")

    def state(self, now: float) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"`` (probe allowed)."""
        if not self._open:
            return "closed"
        return "half_open" if now >= self._reopen_at else "open"

    def can_attempt(self, now: float) -> bool:
        """Whether a fetch may be issued (closed, or a half-open probe)."""
        return self.state(now) != "open"

    def reopen_at(self) -> float | None:
        """When the next half-open probe becomes allowed (None if closed)."""
        return self._reopen_at if self._open else None

    def record_success(self, now: float) -> None:
        """Note a successful fetch: closes an open breaker (probe won)."""
        if self._open:
            self.closes += 1
            self._open = False
            if self.listener is not None:
                self.listener("close")
        self.consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        """Note a failed fetch; trips the breaker at the threshold."""
        if self._open:
            # a failed half-open probe re-arms the cooldown
            self._reopen_at = now + self.policy.cooldown_ms
            return
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.policy.failure_threshold:
            self._open = True
            self._reopen_at = now + self.policy.cooldown_ms
            self.trips += 1
            if self.listener is not None:
                self.listener("trip")


@dataclass
class ClientMetrics:
    """Aggregate counters across every logical fetch of one client."""

    fetches: int = 0
    fetch_failures: int = 0
    attempts: int = 0
    retries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    failovers: int = 0
    short_circuits: int = 0
    deadline_exhausted: int = 0
    breaker_trips: int = 0
    breaker_probes: int = 0
    breaker_closes: int = 0

    def snapshot(self) -> dict[str, int]:
        """Counters as a plain dict (stable key order)."""
        return {
            name: getattr(self, name)
            for name in (
                "fetches", "fetch_failures", "attempts", "retries", "hedges",
                "hedge_wins", "failovers", "short_circuits",
                "deadline_exhausted", "breaker_trips", "breaker_probes",
                "breaker_closes",
            )
        }


@dataclass(frozen=True)
class FetchOutcome:
    """Result of one logical label fetch through the client."""

    vertex: int
    data: bytes | None
    error: str | None
    attempts: int
    retries: int
    hedges: int
    latency_ms: float

    @property
    def ok(self) -> bool:
        """True when the label bytes arrived."""
        return self.data is not None


@dataclass
class _AttemptResult:
    data: bytes | None = None
    error: str | None = None
    hedged: bool = False
    winner: int | None = None
    issued: list = field(default_factory=list)  # (shard, ok, completion_ms)


class ResilientLabelClient:
    """Deadline-budgeted, breaker-guarded reads from a sharded store."""

    def __init__(
        self,
        store: ShardedLabelStore,
        clock: VirtualClock | None = None,
        retry: RetryPolicy | None = None,
        breaker: BreakerPolicy | None = None,
        default_deadline_ms: float = 120.0,
        seed: RngLike = None,
        obs: "Registry | None" = None,
    ) -> None:
        self._store = store
        self.clock = clock or VirtualClock()
        self.retry = retry or RetryPolicy()
        self.breaker_policy = breaker or BreakerPolicy()
        self.default_deadline_ms = default_deadline_ms
        self._rng = make_rng(seed)
        self.obs = obs
        self._breakers = [
            CircuitBreaker(
                self.breaker_policy,
                listener=self._breaker_listener(shard),
            )
            for shard in range(store.num_shards)
        ]
        self.metrics = ClientMetrics()

    def _breaker_listener(
        self, shard: int
    ) -> Callable[[str], None] | None:
        if self.obs is None:
            return None
        obs = self.obs

        def on_transition(transition: str) -> None:
            obs.counter(
                "repro_breaker_transitions_total",
                "Circuit-breaker state transitions (trip/close/probe).",
                shard=shard, transition=transition,
            ).inc()

        return on_transition

    # -- introspection ------------------------------------------------------

    def breaker(self, shard: int) -> CircuitBreaker:
        """The breaker guarding ``shard``."""
        return self._breakers[shard]

    def _sync_breaker_metrics(self) -> None:
        self.metrics.breaker_trips = sum(b.trips for b in self._breakers)
        self.metrics.breaker_probes = sum(b.probes for b in self._breakers)
        self.metrics.breaker_closes = sum(b.closes for b in self._breakers)

    # -- fetching -----------------------------------------------------------

    def fetch_label(
        self,
        vertex: int,
        deadline_ms: float | None = None,
        version: int | None = None,
    ) -> FetchOutcome:
        """One logical fetch with retries/failover/hedging under a budget.

        ``deadline_ms`` is a *relative* budget from the current virtual
        time (default :attr:`default_deadline_ms`).  ``version`` pins
        the label-table generation every physical fetch reads from —
        retries and hedges included — so one logical fetch can never
        straddle a rollout.  Never raises for availability problems —
        inspect :attr:`FetchOutcome.error`.
        """
        metrics = self.metrics
        metrics.fetches += 1
        budget = self.default_deadline_ms if deadline_ms is None else deadline_ms
        deadline = self.clock.now + budget
        start = self.clock.now
        replicas = self._store.replicas(vertex)
        attempts = retries = hedges = 0
        last_error = "unavailable"
        previous_shard: int | None = None
        rotation = 0
        while attempts < self.retry.max_attempts:
            now = self.clock.now
            remaining = deadline - now
            if remaining <= 0:
                last_error = "deadline"
                metrics.deadline_exhausted += 1
                break
            primary, hedge_shard = self._pick_shards(replicas, now, rotation)
            if primary is None:
                # every replica short-circuited: wait for the earliest
                # half-open probe if the budget allows, else give up
                metrics.short_circuits += 1
                wait = self._earliest_reopen(replicas, now)
                if wait is None or wait > remaining:
                    last_error = "breaker_open"
                    break
                self.clock.advance(wait)
                continue
            if previous_shard is not None and primary != previous_shard:
                metrics.failovers += 1
            previous_shard = primary
            if rotation > 0:
                retries += 1
                metrics.retries += 1
            timeout = min(self.retry.attempt_timeout_ms, remaining)
            result = self._attempt(
                vertex, primary, hedge_shard, timeout, version
            )
            issued = len(result.issued)
            attempts += issued
            metrics.attempts += issued
            if result.hedged:
                hedges += 1
                metrics.hedges += 1
            if result.data is not None:
                if result.hedged and result.winner == hedge_shard:
                    metrics.hedge_wins += 1
                self._sync_breaker_metrics()
                outcome = FetchOutcome(
                    vertex=vertex, data=result.data, error=None,
                    attempts=attempts, retries=retries, hedges=hedges,
                    latency_ms=self.clock.now - start,
                )
                self._observe_fetch(outcome)
                return outcome
            last_error = result.error or "unavailable"
            # backoff between replica rotations, not between failovers
            rotation += 1
            if attempts < self.retry.max_attempts and rotation % len(replicas) == 0:
                backoff = self._backoff(rotation // len(replicas) - 1)
                backoff = min(backoff, deadline - self.clock.now)
                if backoff > 0:
                    self.clock.advance(backoff)
        metrics.fetch_failures += 1
        self._sync_breaker_metrics()
        outcome = FetchOutcome(
            vertex=vertex, data=None, error=last_error, attempts=attempts,
            retries=retries, hedges=hedges,
            latency_ms=self.clock.now - start,
        )
        self._observe_fetch(outcome)
        return outcome

    def _observe_fetch(self, outcome: FetchOutcome) -> None:
        """Mirror one logical fetch into the obs registry (if attached)."""
        if self.obs is None:
            return
        self.obs.counter(
            "repro_client_fetches_total",
            "Logical label fetches by outcome (ok or the error code).",
            outcome="ok" if outcome.ok else (outcome.error or "unavailable"),
        ).inc()
        self.obs.counter(
            "repro_client_attempts_total",
            "Physical shard fetch attempts issued by the client.",
        ).inc(outcome.attempts)
        self.obs.counter(
            "repro_client_retries_total",
            "Replica-rotation retries across logical fetches.",
        ).inc(outcome.retries)
        self.obs.counter(
            "repro_client_hedges_total",
            "Hedged (duplicate) reads fired at a second replica.",
        ).inc(outcome.hedges)
        self.obs.histogram(
            "repro_fetch_latency_ms",
            "Logical fetch latency in virtual milliseconds.",
        ).observe(outcome.latency_ms)

    # -- internals ----------------------------------------------------------

    def _pick_shards(
        self, replicas: tuple[int, ...], now: float, rotation: int
    ) -> tuple[int | None, int | None]:
        """The next allowed primary, and a hedge candidate (closed only).

        ``rotation`` rotates the replica order so consecutive attempts
        fail over to different shards instead of hammering the primary.
        """
        shift = rotation % len(replicas)
        order = replicas[shift:] + replicas[:shift]
        allowed = [s for s in order if self._breakers[s].can_attempt(now)]
        if not allowed:
            return None, None
        primary = allowed[0]
        hedge = None
        if self.retry.hedging:
            for shard in allowed[1:]:
                if self._breakers[shard].state(now) == "closed":
                    hedge = shard
                    break
        return primary, hedge

    def _earliest_reopen(
        self, replicas: tuple[int, ...], now: float
    ) -> float | None:
        waits = []
        for shard in replicas:
            at = self._breakers[shard].reopen_at()
            if at is not None and at > now:
                waits.append(at - now)
        return min(waits) if waits else None

    def _backoff(self, rotation_index: int) -> float:
        base = min(
            self.retry.backoff_max_ms,
            self.retry.backoff_base_ms
            * self.retry.backoff_factor ** rotation_index,
        )
        spread = self.retry.jitter * base
        return max(0.0, base - spread + 2 * spread * self._rng.random())

    def _attempt(
        self,
        vertex: int,
        primary: int,
        hedge_shard: int | None,
        timeout: float,
        version: int | None = None,
    ) -> _AttemptResult:
        """One primary fetch, optionally hedged; advances the clock."""
        result = _AttemptResult()
        now = self.clock.now
        breaker = self._breakers[primary]
        if breaker.state(now) == "half_open":
            breaker.record_probe()
        primary_res = self._store.fetch(primary, vertex, version)
        completions = [(primary, primary_res, primary_res.latency_ms)]
        hedge_after = self.retry.hedge_after_ms
        if (
            hedge_shard is not None
            and hedge_after < timeout
            and primary_res.latency_ms > hedge_after
        ):
            # the primary is still silent at the hedge trigger: fire a
            # second read and let the faster answer win
            result.hedged = True
            hedge_res = self._store.fetch(hedge_shard, vertex, version)
            completions.append(
                (hedge_shard, hedge_res, hedge_after + hedge_res.latency_ms)
            )
        result.issued = [
            (shard, res.ok and done <= timeout, min(done, timeout))
            for shard, res, done in completions
        ]
        winners = [
            (done, shard, res)
            for shard, res, done in completions
            if res.ok and done <= timeout
        ]
        if winners:
            done, shard, res = min(winners, key=lambda w: w[0])
            self.clock.advance(done)
            result.data = res.data
            result.winner = shard
        else:
            # the attempt concludes when the last outstanding read has
            # failed, or at the timeout, whichever is first
            self.clock.advance(
                max(min(done, timeout) for _, _, done in completions)
            )
            errors = [
                "timeout" if done > timeout else (res.error or "unavailable")
                for _, res, done in completions
            ]
            result.error = errors[0]
        conclusion = self.clock.now
        for shard, ok, _ in result.issued:
            if ok:
                self._breakers[shard].record_success(conclusion)
            else:
                self._breakers[shard].record_failure(conclusion)
        return result
