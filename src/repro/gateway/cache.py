"""Label caching for the gateway: LRU, negative entries, MVCC keys.

Forbidden-set labels are small, immutable *per generation*, and
heavily reused across queries (every query touches its endpoints' and
faults' labels; Zipf traffic makes a small hot set dominate) — the
observation behind compact-label serving caches (cf. Alstrup et al.'s
small-label schemes).  :class:`LabelCache` exploits all three:

* **keys are ``(generation, vertex)``** — the MVCC pins from the
  rollout layer guarantee a query reads one generation end to end, so
  bytes cached under a generation key can never go stale *within* that
  generation; a rollout commit changes the key, which is the whole
  invalidation story (:meth:`retain_generations` can release a
  retired generation's entries eagerly; no rollout calls it yet);
* **negative caching** — a fetch that failed (shard down, breaker
  open, corrupt record) is remembered for ``negative_ttl_ms`` of
  virtual time, so a storm of queries against a dead shard sheds load
  from the retry machinery instead of hammering it; the TTL keeps
  recovery visible.  Deadline failures are *not* negative-cached — a
  tight budget says nothing about the next caller's budget;
* **bounded LRU** — one ordered dict, positives and negatives alike.

:class:`CachingLabelClient` is a drop-in
:class:`~repro.service.client.ResilientLabelClient` that consults the
cache before the retry/hedge/breaker machinery.  A cache hit costs
``hit_latency_ms`` of virtual time and zero shard fetches; a negative
hit fails in the same way the original fetch failed, explicitly —
never a fabricated label.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable

from repro.exceptions import GatewayError
from repro.service.client import FetchOutcome, ResilientLabelClient

#: fetch error codes that are never negative-cached: they describe the
#: *caller's budget*, not the shard's state
_UNCACHEABLE_ERRORS = frozenset({"deadline"})


@dataclass
class CacheMetrics:
    """Counters for one cache (all monotonically increasing)."""

    hits: int = 0
    negative_hits: int = 0
    misses: int = 0
    stores: int = 0
    negative_stores: int = 0
    evictions: int = 0
    expired: int = 0
    invalidated: int = 0

    def snapshot(self) -> dict[str, int]:
        """Counters as a plain dict (stable key order)."""
        return {
            name: getattr(self, name)
            for name in (
                "hits", "negative_hits", "misses", "stores",
                "negative_stores", "evictions", "expired", "invalidated",
            )
        }


@dataclass(frozen=True)
class _Entry:
    """One cached record: label bytes, or a remembered failure."""

    data: bytes | None
    error: str | None
    expires_ms: float | None  # None = never (positive entries)


@dataclass
class LabelCache:
    """A bounded LRU of ``(generation, vertex) -> label bytes | failure``."""

    capacity: int = 256
    negative_ttl_ms: float = 50.0
    metrics: CacheMetrics = field(default_factory=CacheMetrics)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise GatewayError(
                f"cache capacity must be >= 1, got {self.capacity}"
            )
        if self.negative_ttl_ms < 0:
            raise GatewayError(
                f"negative TTL must be >= 0, got {self.negative_ttl_ms}"
            )
        self._entries: OrderedDict[tuple[int, int], _Entry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, version: int, vertex: int, now_ms: float) -> _Entry | None:
        """The live entry for ``(version, vertex)``, LRU-touched, or None."""
        key = (version, vertex)
        entry = self._entries.get(key)
        if entry is None:
            self.metrics.misses += 1
            return None
        if entry.expires_ms is not None and now_ms >= entry.expires_ms:
            del self._entries[key]
            self.metrics.expired += 1
            self.metrics.misses += 1
            return None
        self._entries.move_to_end(key)
        if entry.data is not None:
            self.metrics.hits += 1
        else:
            self.metrics.negative_hits += 1
        return entry

    def put(self, version: int, vertex: int, data: bytes) -> None:
        """Remember a successful fetch (immutable for this generation)."""
        self._store((version, vertex), _Entry(data, None, None))
        self.metrics.stores += 1

    def put_negative(
        self, version: int, vertex: int, error: str, now_ms: float
    ) -> None:
        """Remember a failed fetch for ``negative_ttl_ms`` of virtual time."""
        if self.negative_ttl_ms == 0 or error in _UNCACHEABLE_ERRORS:
            return
        self._store(
            (version, vertex),
            _Entry(None, error, now_ms + self.negative_ttl_ms),
        )
        self.metrics.negative_stores += 1

    def _store(self, key: tuple[int, int], entry: _Entry) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.metrics.evictions += 1
        self._entries[key] = entry

    def retain_generations(self, versions: Iterable[int]) -> int:
        """Drop every entry whose generation is not in ``versions``.

        Meant for after a rollout commits (with the store's live version
        set): retired generations can never be pinned again, so their
        bytes are dead weight.  Returns how many entries were dropped.
        """
        keep = frozenset(versions)
        stale = [key for key in self._entries if key[0] not in keep]
        for key in stale:
            del self._entries[key]
        self.metrics.invalidated += len(stale)
        return len(stale)


class CachingLabelClient(ResilientLabelClient):
    """A resilient client with a generation-keyed label cache in front.

    Drop-in for :class:`ResilientLabelClient` everywhere the frontend
    uses one.  Only :meth:`fetch_label` changes: a positive hit
    returns the cached bytes after ``hit_latency_ms`` of virtual time
    with zero physical fetches (breakers and retry budgets untouched);
    a live negative hit replays the remembered failure the same way;
    a miss delegates to the full retry/hedge/breaker path and caches
    whatever it learns.
    """

    def __init__(
        self,
        *args,
        cache: LabelCache | None = None,
        hit_latency_ms: float = 0.05,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.cache = cache if cache is not None else LabelCache()
        self.hit_latency_ms = hit_latency_ms

    def fetch_label(
        self,
        vertex: int,
        deadline_ms: float | None = None,
        version: int | None = None,
    ) -> FetchOutcome:
        """One logical fetch, served from cache when possible."""
        pinned = (
            self._store.committed_version if version is None else version
        )
        entry = self.cache.get(pinned, vertex, self.clock.now)
        if entry is not None:
            self.clock.advance(self.hit_latency_ms)
            self.metrics.fetches += 1
            if entry.data is None:
                self.metrics.fetch_failures += 1
            outcome = FetchOutcome(
                vertex=vertex,
                data=entry.data,
                error=(
                    None if entry.data is not None
                    else f"negative_cache({entry.error})"
                ),
                attempts=0, retries=0, hedges=0,
                latency_ms=self.hit_latency_ms,
            )
            self._observe_fetch(outcome)
            return outcome
        outcome = super().fetch_label(vertex, deadline_ms, pinned)
        if outcome.ok:
            self.cache.put(pinned, vertex, outcome.data)
        else:
            self.cache.put_negative(
                pinned, vertex, outcome.error or "unavailable", self.clock.now
            )
        return outcome
