"""A deterministic async event loop on virtual time.

The gateway needs real concurrency structure — worker tasks, timers,
futures, coalesced waiters — but the repo's contract forbids wall
clocks and nondeterminism (lint rule RPL002), and the stdlib asyncio
loop reads ``time.monotonic`` for its timers.  So the gateway runs on
:class:`VirtualLoop` instead: a small cooperative scheduler for plain
``async def`` coroutines whose *only* notion of time is the shared
:class:`~repro.service.clock.VirtualClock`.

Determinism comes from three rules:

* the ready queue is strict FIFO — tasks resume in the order they
  became runnable;
* timers fire in ``(due time, registration order)`` order, delegated
  to the clock's wakeup heap;
* when nothing is runnable, the loop *jumps* the clock to the next
  wakeup (no busy-polling, no fractional idle steps).

Synchronous code driven from a task may advance the shared clock
directly (the resilient client does exactly that while fetching);
wakeups crossed by such an advance fire immediately, but the tasks
they make runnable only resume at the next scheduling point — the
same happens-before structure a single-threaded asyncio program has.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Awaitable, Callable, Coroutine, Generator

from repro.exceptions import GatewayError
from repro.service.clock import VirtualClock, Wakeup


class Future:
    """A one-shot result container tasks can ``await``.

    The virtual-time analogue of :class:`asyncio.Future`: resolving it
    (``set_result`` / ``set_exception``) moves every waiting task to
    the loop's ready queue in the order they started waiting.
    """

    __slots__ = ("_loop", "_done", "_result", "_exception", "_waiters")

    def __init__(self, loop: "VirtualLoop") -> None:
        self._loop = loop
        self._done = False
        self._result: Any = None
        self._exception: BaseException | None = None
        self._waiters: list["Task"] = []

    def done(self) -> bool:
        """Whether a result or exception has been set."""
        return self._done

    def result(self) -> Any:
        """The resolved value (raises the stored exception, if any)."""
        if not self._done:
            raise GatewayError("future is not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._result

    def set_result(self, value: Any) -> None:
        """Resolve with ``value`` and wake every waiter (FIFO)."""
        self._resolve(value, None)

    def set_exception(self, exception: BaseException) -> None:
        """Resolve with an exception; awaiting re-raises it."""
        self._resolve(None, exception)

    def _resolve(self, value: Any, exception: BaseException | None) -> None:
        if self._done:
            raise GatewayError("future is already resolved")
        self._done = True
        self._result = value
        self._exception = exception
        waiters, self._waiters = self._waiters, []
        for task in waiters:
            self._loop._ready.append(task)

    def __await__(self) -> Generator["Future", None, Any]:
        if not self._done:
            yield self  # the scheduler parks the current task on us
        if self._exception is not None:
            raise self._exception
        return self._result


class Task:
    """One scheduled coroutine; its completion is itself a future."""

    __slots__ = ("coro", "name", "future")

    def __init__(
        self,
        coro: Coroutine[Any, Any, Any],
        name: str,
        loop: "VirtualLoop",
    ) -> None:
        self.coro = coro
        self.name = name
        self.future = Future(loop)

    def done(self) -> bool:
        """Whether the coroutine has finished (returned or raised)."""
        return self.future.done()


class Event:
    """A pulse-style wait point: ``notify`` wakes everyone waiting *now*.

    Unlike :class:`asyncio.Event` this is edge-triggered: a
    :meth:`wait` parks the task until the *next* :meth:`notify`, which
    is the natural shape for "new work may be available — recheck your
    queue" signalling (each woken worker re-examines shared state, so
    there are no lost-wakeup or thundering-herd hazards in a
    single-threaded deterministic loop).
    """

    __slots__ = ("_loop", "_future")

    def __init__(self, loop: "VirtualLoop") -> None:
        self._loop = loop
        self._future = Future(loop)

    async def wait(self) -> None:
        """Park until the next :meth:`notify` pulse."""
        await self._future

    def notify(self) -> None:
        """Wake every task currently parked in :meth:`wait`."""
        fired, self._future = self._future, Future(self._loop)
        fired.set_result(None)


class VirtualLoop:
    """FIFO cooperative scheduler driven by a :class:`VirtualClock`."""

    def __init__(self, clock: VirtualClock | None = None) -> None:
        self.clock = clock or VirtualClock()
        self._ready: deque[Task] = deque()
        self._alive = 0
        self._task_seq = 0
        self._steps = 0

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds (the clock's)."""
        return self.clock.now

    @property
    def steps(self) -> int:
        """Total task resumptions executed (a determinism fingerprint)."""
        return self._steps

    # -- task management ----------------------------------------------------

    def create_task(
        self, coro: Coroutine[Any, Any, Any], name: str | None = None
    ) -> Task:
        """Schedule a coroutine; it starts at the next scheduling point."""
        self._task_seq += 1
        task = Task(coro, name or f"task-{self._task_seq}", self)
        self._alive += 1
        self._ready.append(task)
        return task

    def _step(self, task: Task) -> None:
        self._steps += 1
        try:
            awaited = task.coro.send(None)
        except StopIteration as stop:
            self._alive -= 1
            task.future.set_result(stop.value)
            return
        except BaseException as exc:  # repro-lint: disable=RPL003 -- routed to the task future; awaiting it re-raises, nothing is swallowed
            self._alive -= 1
            task.future.set_exception(exc)
            return
        if not isinstance(awaited, Future):
            raise GatewayError(
                f"task {task.name!r} awaited {type(awaited).__name__}, "
                "which is not a VirtualLoop awaitable (asyncio objects "
                "cannot run on the virtual-time loop)"
            )
        if awaited.done():
            self._ready.append(task)
        else:
            awaited._waiters.append(task)

    # -- running ------------------------------------------------------------

    def run_until_complete(self, awaitable: Awaitable[Any] | Task) -> Any:
        """Drive the loop until ``awaitable`` finishes; return its result.

        Accepts a :class:`Task`, a :class:`Future`, or a coroutine.
        Other tasks keep running as long as the target is pending.
        Raises :class:`GatewayError` if every task blocks with no
        pending wakeup (a genuine deadlock — virtual time would never
        advance again).
        """
        if isinstance(awaitable, Future):
            while not awaitable.done():
                self._run_ready_or_jump("future")
            return awaitable.result()
        if isinstance(awaitable, Task):
            task = awaitable
        else:
            task = self.create_task(awaitable)  # type: ignore[arg-type]
        while not task.done():
            self._run_ready_or_jump(task.name)
        return task.future.result()

    def _run_ready_or_jump(self, waiting_on: str) -> None:
        if self._ready:
            self._step(self._ready.popleft())
            return
        due = self.clock.next_wakeup()
        if due is None:
            raise GatewayError(
                f"virtual loop deadlocked waiting on {waiting_on!r}: "
                f"{self._alive} task(s) blocked with no pending wakeup"
            )
        self.clock.advance(due - self.clock.now)

    # -- timers -------------------------------------------------------------

    def call_at(self, at_ms: float, callback: Callable[[], None]) -> Wakeup:
        """Schedule a plain callback at an absolute virtual time."""
        return self.clock.schedule_wakeup(at_ms, callback)

    async def sleep_until(self, at_ms: float) -> None:
        """Suspend the current task until the clock reaches ``at_ms``."""
        future = Future(self)
        self.clock.schedule_wakeup(at_ms, lambda: future.set_result(None))
        await future

    async def sleep(self, delta_ms: float) -> None:
        """Suspend for ``delta_ms`` virtual milliseconds.

        ``sleep(0)`` is a pure yield point: the wakeup lands at *now*,
        so the task resumes — behind every currently ready task — the
        moment the loop next touches the clock, without time moving.
        The gateway uses this to open a deterministic coalescing
        window between registering an in-flight key and executing it.
        """
        if delta_ms < 0:
            raise GatewayError(f"cannot sleep for {delta_ms} ms")
        await self.sleep_until(self.clock.now + delta_ms)
