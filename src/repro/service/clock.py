"""Virtual time for the serving tier.

Every latency in the service layer — shard response times, retry
backoffs, hedging delays, circuit-breaker cooldowns, deadline budgets —
is measured against one shared :class:`VirtualClock` in simulated
milliseconds.  Nothing sleeps: advancing the clock *is* the passage of
time, which keeps every run (and every chaos schedule, and every
latency percentile in the benchmarks) deterministic and fast.

The clock also carries a **waiter API** for event-loop consumers
(:mod:`repro.gateway.loop`): :meth:`VirtualClock.schedule_wakeup`
registers a callback at an absolute virtual time, :meth:`advance`
fires every due callback in ``(due time, registration order)`` order
as it crosses them, and :meth:`next_wakeup` tells a scheduler how far
it can jump without busy-polling.  The synchronous API is unchanged:
with no wakeups registered, ``advance`` behaves exactly as before.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.exceptions import QueryError


class Wakeup:
    """A cancellable handle for one scheduled :meth:`VirtualClock.schedule_wakeup`."""

    __slots__ = ("at_ms", "callback", "cancelled")

    def __init__(self, at_ms: float, callback: Callable[[], None]) -> None:
        self.at_ms = at_ms
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Drop the wakeup; a cancelled callback never fires."""
        self.cancelled = True
        self.callback = None  # type: ignore[assignment]


class VirtualClock:
    """A monotonically advancing simulated clock (milliseconds)."""

    __slots__ = ("_now", "_wakeups", "_seq")

    def __init__(self, start_ms: float = 0.0) -> None:
        self._now = float(start_ms)
        # (due_ms, seq, Wakeup) min-heap; seq breaks ties deterministically
        self._wakeups: list[tuple[float, int, Wakeup]] = []
        self._seq = 0

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    def advance(self, delta_ms: float) -> float:
        """Move time forward; returns the new time.  Never backwards.

        Crossing a scheduled wakeup fires its callback with the clock
        set to the wakeup's due time, so a callback always observes
        ``now == its scheduled instant``.  Callbacks run in strict
        ``(due time, registration order)`` order; a callback that
        schedules a new wakeup at or before the advance target fires
        within the same call.
        """
        if delta_ms < 0:
            raise QueryError(f"cannot advance the clock by {delta_ms} ms")
        target = self._now + delta_ms
        heap = self._wakeups
        while heap and heap[0][0] <= target:
            due, _, wakeup = heapq.heappop(heap)
            if wakeup.cancelled:
                continue
            if due > self._now:
                self._now = due
            wakeup.callback()
        self._now = target
        return self._now

    # -- waiter API (event-loop support) ------------------------------------

    def schedule_wakeup(
        self, at_ms: float, callback: Callable[[], None]
    ) -> Wakeup:
        """Register ``callback`` to fire when time reaches ``at_ms``.

        A due time in the past is clamped to *now* (it fires on the
        next ``advance``, including a zero-length one).  Returns a
        :class:`Wakeup` handle whose :meth:`~Wakeup.cancel` drops it.
        Callbacks must not advance the clock themselves — they are
        fired *by* an in-progress advance.
        """
        wakeup = Wakeup(max(float(at_ms), self._now), callback)
        self._seq += 1
        heapq.heappush(self._wakeups, (wakeup.at_ms, self._seq, wakeup))
        return wakeup

    def next_wakeup(self) -> float | None:
        """The earliest pending wakeup's due time (None when idle).

        Lets a scheduler jump straight to the next event instead of
        busy-polling; cancelled wakeups are skipped (and garbage-
        collected as they surface at the top of the heap).
        """
        heap = self._wakeups
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None
