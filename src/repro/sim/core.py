"""Event loop, clock, and the :class:`Event` primitive.

The kernel keeps a time-ordered queue of ``(time, priority, sequence,
target)`` entries.  A target is an :class:`Event` -- the unit of
synchronisation: processes (see :mod:`repro.sim.process`) suspend on
events and are resumed by the event's callbacks when it triggers -- or a
bare :class:`Call` queued by :meth:`Simulator.schedule_call`, which
fires one function with no event and no callback list behind it.

The queue is a binary heap; entries pop in ``(time, priority,
sequence)`` order, so same-time entries fire in scheduling order.

Only the simulator advances time.  All model code runs inside event
callbacks, so there is no concurrency and no locking anywhere.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Generator,
    Iterable,
    Optional,
    Union,
)

if TYPE_CHECKING:  # import cycle: process.py imports this module
    from repro.sim.process import Process


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double trigger, run-after-end...)."""


#: Events scheduled with ``URGENT`` priority fire before normal events that
#: share the same timestamp.  The kernel uses this internally to make
#: process termination visible before ordinary timeouts at the same instant.
NORMAL = 1
URGENT = 0


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    An event has three observable states:

    - *pending*: created but not yet triggered,
    - *triggered*: scheduled to fire (value/exception already decided),
    - *processed*: its callbacks have run.

    ``trigger(value)`` succeeds the event; ``fail(exc)`` makes every waiter
    re-raise ``exc``.  Both may be called at most once in total.

    ``cancel()`` withdraws an event that has not yet been processed: a
    queued occurrence (e.g. a :class:`Timeout`) is skipped when it
    reaches the front of the queue -- the clock never advances to it
    and its callbacks never run -- as if it had never been scheduled.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_state")

    _CANCELLED = -1
    _PENDING = 0
    _TRIGGERED = 1
    _PROCESSED = 2

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._state = Event._PENDING

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the outcome (value or exception) is decided."""
        return self._state > Event._PENDING

    @property
    def cancelled(self) -> bool:
        """True once the event has been withdrawn via :meth:`cancel`."""
        return self._state == Event._CANCELLED

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == Event._PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The success value.  Raises if the event failed or is pending."""
        if not self.triggered:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    # -- triggering ------------------------------------------------------

    def cancel(self) -> "Event":
        """Withdraw the event; it will never fire its callbacks.

        Legal until the event is processed (so both never-triggered
        events and queued-but-unprocessed ones can be withdrawn);
        cancelling twice is a no-op.  A queued entry is purged lazily:
        it stays in the scheduler queue until popped, then is skipped
        without advancing the clock or the processed-event count.
        Anything still waiting on a cancelled event waits forever --
        withdrawing an event other processes depend on is the caller's
        responsibility.
        """
        if self._state == Event._PROCESSED:
            raise SimulationError("cannot cancel a processed event")
        self._state = Event._CANCELLED
        return self

    def trigger(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Succeed the event with *value* after *delay* seconds."""
        if self._state != Event._PENDING:
            raise SimulationError(
                "cannot trigger a cancelled event"
                if self._state == Event._CANCELLED
                else "event triggered twice"
            )
        self._value = value
        self._state = Event._TRIGGERED
        self.sim._schedule(delay, self)
        return self

    def fire(self, value: Any = None) -> None:
        """Succeed the event and run its callbacks now, in this entry.

        For a queue entry that stands for the event: a host step queues
        its completion as a bare call, and the process-style form of the
        step fires its event from that call, so the waiter resumes in
        the one entry -- where an event queued in the call's place would
        have resumed it.
        """
        if self._state != Event._PENDING:
            raise SimulationError(
                "cannot fire a cancelled event"
                if self._state == Event._CANCELLED
                else "event triggered twice"
            )
        self._value = value
        self._state = _PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Fail the event; waiters re-raise *exception*."""
        if self._state != Event._PENDING:
            raise SimulationError(
                "cannot fail a cancelled event"
                if self._state == Event._CANCELLED
                else "event triggered twice"
            )
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._state = Event._TRIGGERED
        self.sim._schedule(delay, self)
        return self

    # -- waiting ---------------------------------------------------------

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run *fn(event)* when the event is processed.

        If the event has already been processed the callback runs
        immediately, which makes late subscription race-free.
        """
        if self._state == Event._PROCESSED:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {
            Event._CANCELLED: "cancelled",
            Event._PENDING: "pending",
            Event._TRIGGERED: "triggered",
            Event._PROCESSED: "processed",
        }[self._state]
        return f"<{type(self).__name__} {state} at t={self.sim.now:.9f}>"


class Timeout(Event):
    """An event that triggers itself *delay* seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exception = None
        self._state = Event._TRIGGERED
        self.delay = delay
        sim._schedule(delay, self)


class Call:
    """A function queued by :meth:`Simulator.schedule_call`.

    The cheapest queue entry: when it comes due the kernel runs
    ``fn(*args)`` directly -- there is no :class:`Event`, no callback
    list and no closure.  It still counts as one processed event.
    ``cancel()`` withdraws it as :meth:`Event.cancel` withdraws a queued
    event: the entry is skipped at the front of the queue, the clock
    does not move to it and it is not counted.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., Any], args: tuple[Any, ...]) -> None:
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args

    @property
    def cancelled(self) -> bool:
        return self.fn is None

    def cancel(self) -> "Call":
        """Withdraw the call (a no-op once it has fired or been cancelled)."""
        self.fn = None
        return self


_CANCELLED = Event._CANCELLED
_PROCESSED = Event._PROCESSED


class Simulator:
    """The event loop: a clock plus a time-ordered queue of events.

    Typical use::

        sim = Simulator()
        sim.process(my_generator_function(sim))
        sim.run(until=1.0)

    Time is a float in seconds and only moves forward.  Events scheduled
    for identical times fire in scheduling order (FIFO), which keeps runs
    deterministic.

    The simulator is also where components find their observation
    hooks: each copies :attr:`trace` (and the engines :attr:`profiler`)
    when it is built, and the cell-carrying ones add themselves to
    :attr:`components`.  Outside :func:`repro.obs.observe` both hooks
    are ``None``, so an unobserved run pays one attribute test per
    would-be event.
    """

    #: Called with every simulator as it is built while an observation
    #: is open (:func:`repro.obs.observe` installs it); None otherwise.
    observer: ClassVar[Optional[Callable[["Simulator"], None]]] = None

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue: list[tuple[float, int, int, Union[Event, Call]]] = []
        self._sequence = 0
        self._running = False
        #: Lifetime count of events processed -- the kernel's own
        #: observability counter (exposed as ``sim.events_processed`` by
        #: the metrics layer; see :mod:`repro.obs.metrics`).
        self.events_processed = 0
        #: High-water mark of queued entries, updated O(1) on every
        #: push.  The scale experiments chart this against VC count to
        #: show the scheduler's footprint stays bounded under churn.
        self.peak_queue_occupancy = 0
        #: Observation hooks components copy when built: a trace
        #: recorder and a cycle profiler, or None.
        self.trace: Any = None
        self.profiler: Any = None
        #: Components built on this simulator, in build order: links,
        #: ports, switches, interfaces and the control-plane agents.
        self.components: list[Any] = []
        #: Called once, with the window of the first ``run(until=...)``.
        self.on_first_run: Optional[Callable[[float], None]] = None
        observer = Simulator.observer
        if observer is not None:
            observer(self)

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- event construction helpers --------------------------------------

    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires *delay* seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator["Event", Any, Any]) -> "Process":
        """Launch *generator* as a cooperative process (see sim.process)."""
        from repro.sim.process import Process

        return Process(self, generator)

    # -- scheduling ------------------------------------------------------

    def _schedule(
        self, delay: float, target: Union[Event, Call], priority: int = NORMAL
    ) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        sequence = self._sequence + 1
        self._sequence = sequence
        queue = self._queue
        heappush(queue, (self._now + delay, priority, sequence, target))
        if len(queue) > self.peak_queue_occupancy:
            self.peak_queue_occupancy = len(queue)

    # -- execution -------------------------------------------------------

    def step(self) -> None:
        """Process one queue entry (advancing the clock to it).

        A cancelled entry is discarded instead: the clock stays put and
        ``events_processed`` does not move, as if it was never queued.
        An event runs its callbacks; a bare :class:`Call` runs its
        function.  :meth:`run` inlines this same dispatch.
        """
        when, _priority, _seq, target = heappop(self._queue)
        if isinstance(target, Call):
            fn = target.fn
            if fn is None:
                return
            self._now = when
            self.events_processed += 1
            fn(*target.args)
            return
        if target._state == _CANCELLED:
            return
        self._now = when
        self.events_processed += 1
        target._state = _PROCESSED
        callbacks, target.callbacks = target.callbacks, []
        for callback in callbacks:
            callback(target)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock would pass *until*.

        When *until* is given the clock is left exactly at *until* (even if
        the next event lies beyond it), mirroring simpy semantics so that
        rate computations over the run window are exact.

        The loop body is :meth:`step` inlined (the kernel's hot path):
        the same dispatch and the same counting.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})"
            )
        first_run = self.on_first_run
        if until is not None and first_run is not None:
            self.on_first_run = None
            first_run(until - self._now)
        limit = float("inf") if until is None else until
        queue = self._queue
        self._running = True
        try:
            while queue and queue[0][0] <= limit:
                when, _priority, _seq, target = heappop(queue)
                if isinstance(target, Call):
                    fn = target.fn
                    if fn is None:
                        continue
                    self._now = when
                    self.events_processed += 1
                    fn(*target.args)
                    continue
                if target._state == _CANCELLED:
                    continue
                self._now = when
                self.events_processed += 1
                target._state = _PROCESSED
                callbacks, target.callbacks = target.callbacks, []
                for callback in callbacks:
                    callback(target)
            if until is not None:
                self._now = until
        finally:
            self._running = False

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        """Run to queue exhaustion; return the number of events processed.

        *max_events* is a runaway guard for tests -- exceeding it raises
        :class:`SimulationError` rather than hanging the test suite.
        """
        start = self.events_processed
        iterations = 0
        while self._queue:
            self.step()
            iterations += 1
            if iterations > max_events:
                raise SimulationError("simulation exceeded max_events guard")
        return self.events_processed - start

    # -- misc -------------------------------------------------------------

    def schedule_call(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> Call:
        """Call ``fn(*args)`` after *delay* seconds, as a bare queue entry.

        Returns the queued :class:`Call`; its ``cancel()`` withdraws it.
        The body is :meth:`_schedule` inlined: the datapath queues most
        of its entries here.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        call = Call(fn, args)
        sequence = self._sequence + 1
        self._sequence = sequence
        queue = self._queue
        heappush(queue, (self._now + delay, NORMAL, sequence, call))
        if len(queue) > self.peak_queue_occupancy:
            self.peak_queue_occupancy = len(queue)
        return call

    def pending_events(self) -> int:
        """Number of entries still queued (triggered but unprocessed).

        Cancelled entries are purged lazily, so they are counted here
        until they reach the front of the queue (:meth:`peek` may
        likewise report a cancelled entry's time).
        """
        return len(self._queue)


def all_processed(events: Iterable[Event]) -> bool:
    """True when every event in *events* has been processed."""
    return all(ev.processed for ev in events)
