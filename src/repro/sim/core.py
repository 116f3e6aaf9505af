"""Event loop, clock, and the :class:`Event` primitive.

The kernel keeps a time-ordered queue of bare ``(time, key, fn, args)``
tuples.  A bare call, queued by :meth:`Simulator.schedule_call`, is
``fn(*args)`` with no object behind it; an :class:`Event` -- the unit
of synchronisation: processes (see :mod:`repro.sim.process`) suspend
on events and are resumed by the event's callbacks when it triggers --
is queued as ``(time, key, None, event)``.

Five modules push their own entries, in the frame that decides each
one, so that no cell or PDU step runs a kernel frame to be queued:
:mod:`repro.nic.engine` (``EngineClock.work``), :mod:`repro.atm.link`
(``PhysicalLink.send``) and the host's :mod:`repro.host.cpu`,
:mod:`repro.host.dma` and :mod:`repro.host.bus`.  Each pushes the
entry :meth:`Simulator.schedule_call` would, taking exactly one
sequence number, so a change to the entry layout or the key changes
them too.

Entries fire in ``(time, key)`` order.  The key is the entry's
scheduling sequence number with its priority folded in (an ``URGENT``
entry's key lies below every ``NORMAL`` one), so same-time entries fire
URGENT first and in scheduling order within each class.  Keys are
unique, so no comparison ever reaches ``fn`` or ``args``.

The queue is two binary heaps.  Bare calls -- every cell hop -- go to
the main heap.  An event joins the timer heap when it is due at or
after the *bound*, the earliest pending timer; with none pending, the
next event scheduled starts the timer heap.  So session hold timers
wait in the timer heap, and the main heap holds only the few entries
due before them, however many connections are open.  No timer is due
before the bound, so :meth:`run` pops the main heap while its head
comes before the bound, and otherwise takes whichever head is earlier:
the two heaps fire in exactly the order one heap would.

Only the simulator advances time.  All model code runs inside event
callbacks, so there is no concurrency and no locking anywhere.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf, nextafter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Generator,
    Optional,
)

if TYPE_CHECKING:  # import cycle: process.py imports this module
    from repro.sim.process import Process


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double trigger, run-after-end...)."""


#: Entries scheduled with ``URGENT`` priority fire before normal entries
#: that share the same timestamp: a process's first step, an engine's
#: first step and an interrupt delivery (see :meth:`Simulator._call_urgent`).
#: A priority is the offset added to an entry's sequence number to form
#: its sort key: URGENT keys sit below every NORMAL key, and each class
#: keeps its scheduling order.
NORMAL = 0
URGENT = -(1 << 62)


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    An event has three observable states:

    - *pending*: created but not yet triggered,
    - *triggered*: scheduled to fire (value/exception already decided),
    - *processed*: its callbacks have run.

    ``trigger(value)`` succeeds the event; ``fail(exc)`` makes every waiter
    re-raise ``exc``.  Both may be called at most once in total.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_state")

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

    def trigger(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Succeed the event with *value* after *delay* seconds."""
        if self._state != Event._PENDING:
            raise SimulationError("event triggered twice")
        self._value = value
        self._state = Event._TRIGGERED
        self.sim._schedule(delay, self)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Fail the event; waiters re-raise *exception*."""
        if self._state != Event._PENDING:
            raise SimulationError("event triggered twice")
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
            Event._PENDING: "pending",
            Event._TRIGGERED: "triggered",
            Event._PROCESSED: "processed",
        }[self._state]
        return f"<{type(self).__name__} {state} at t={self.sim.now:.9f}>"


class Timeout(Event):
    """An event that triggers itself *delay* seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exception = None
        self._state = Event._TRIGGERED
        self.delay = delay
        sim._schedule(delay, self)


_PROCESSED = Event._PROCESSED

#: One queue entry: ``(time, key, fn, args)`` for a bare call, or
#: ``(time, key, None, event)`` for an :class:`Event`.
_Entry = tuple[float, int, Optional[Callable[..., Any]], Any]


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
    hook: each copies :attr:`trace` when it is built, and the
    cell-carrying ones add themselves to :attr:`components`.  Outside
    :func:`repro.obs.observe` the hook is ``None``, so an unobserved
    run pays one attribute test per would-be event.
    """

    #: Called with every simulator as it is built while an observation
    #: is open (:func:`repro.obs.observe` installs it); None otherwise.
    observer: ClassVar[Optional[Callable[["Simulator"], None]]] = None

    def __init__(self) -> None:
        self._now: float = 0.0
        #: The main heap and the timer heap, and the bound between them.
        self._queue: list[_Entry] = []
        self._timers: list[_Entry] = []
        self._bound = inf
        #: The peak less the timers pending: the main heap's length past
        #: which the queue sets a new peak.
        self._cap = 0
        #: Entries ever queued: each takes the next sequence number.
        self._sequence = 0
        self._running = False
        #: Observation hook components copy when built: a trace
        #: recorder, or None.
        self.trace: Any = None
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

    @property
    def events_processed(self) -> int:
        """Lifetime count of entries processed (the one in progress
        included): the kernel's own counter, which every observed run
        exports as the metric ``sim.events_processed``.

        Every queued entry takes exactly one sequence number and none is
        ever withdrawn, so the count is the entries queued less those
        still waiting; the dispatch loop keeps no tally of its own.
        """
        return self._sequence - len(self._queue) - len(self._timers)

    @property
    def peak_queue_occupancy(self) -> int:
        """High-water mark of queued entries, both heaps together.

        The count falls only at a pop, so the kernel takes the peak
        before each pop and this adds what was queued since.  The scale
        experiments chart it against VC count under churn.
        """
        queued = len(self._queue)
        cap = self._cap
        return len(self._timers) + (queued if queued > cap else cap)

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
        self, delay: float, event: Event, priority: int = NORMAL
    ) -> None:
        """Queue *event* to fire *delay* seconds from now (a timer if it
        is due at or after the bound)."""
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        sequence = self._sequence + 1
        self._sequence = sequence
        when = self._now + delay
        if when < self._bound:
            if self._timers:
                heappush(self._queue, (when, priority + sequence, None, event))
                return
            self._bound = when
        heappush(self._timers, (when, priority + sequence, None, event))
        self._cap -= 1

    def _call_urgent(self, fn: Callable[..., Any], *args: Any) -> None:
        """Queue ``fn(*args)`` at this instant, ahead of NORMAL entries.

        For the few internal steps that must run before the ordinary
        entries already queued for now: an engine's first step, an
        interrupt delivery.
        """
        sequence = self._sequence + 1
        self._sequence = sequence
        heappush(self._queue, (self._now, URGENT + sequence, fn, args))

    # -- execution -------------------------------------------------------

    def step(self) -> None:
        """Process one queue entry (advancing the clock to it).

        The entry is the earlier of the two heaps' heads.  An event runs
        its callbacks; a bare call runs its function.  :meth:`run`
        inlines this same dispatch.
        """
        queue, timers = self._queue, self._timers
        if len(queue) > self._cap:
            self._cap = len(queue)
        if timers and (not queue or timers[0] < queue[0]):
            when, _key, fn, target = heappop(timers)
            self._cap += 1
            self._bound = timers[0][0] if timers else inf
        elif queue:
            when, _key, fn, target = heappop(queue)
        else:
            raise SimulationError("step() on an empty queue")
        self._now = when
        if fn is not None:
            fn(*target)
            return
        target._state = _PROCESSED
        callbacks, target.callbacks = target.callbacks, []
        for callback in callbacks:
            callback(target)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        queue, timers = self._queue, self._timers
        return min(queue[0][0] if queue else inf, timers[0][0] if timers else inf)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock would pass *until*.

        When *until* is given the clock is left exactly at *until* (even if
        the next event lies beyond it), mirroring simpy semantics so that
        rate computations over the run window are exact.

        The loop body is :meth:`step` inlined (the kernel's hot path):
        the same dispatch.  It pops the main heap while its head comes
        before the bound, capped just past *until* so that one
        comparison also ends the run; otherwise it takes the earlier
        head.  A timer moves the bound to the next timer before
        it is dispatched, so a timer it re-arms before that joins the
        main heap.
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
        limit = inf if until is None else until
        stop = nextafter(limit, inf)
        queue, timers = self._queue, self._timers
        self._bound = timers[0][0] if timers and timers[0][0] < stop else stop
        self._running = True
        try:
            while True:
                if len(queue) > self._cap:
                    self._cap = len(queue)
                if queue and queue[0][0] < self._bound:
                    when, _key, fn, target = heappop(queue)
                elif timers and (not queue or timers[0] < queue[0]):
                    if timers[0][0] > limit:
                        break
                    when, _key, fn, target = heappop(timers)
                    self._cap += 1
                    self._bound = (
                        timers[0][0] if timers and timers[0][0] < stop else stop
                    )
                elif queue and queue[0][0] <= limit:
                    when, _key, fn, target = heappop(queue)
                else:
                    break
                self._now = when
                if fn is not None:
                    fn(*target)
                    continue
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
        while self._queue or self._timers:
            self.step()
            iterations += 1
            if iterations > max_events:
                raise SimulationError("simulation exceeded max_events guard")
        return self.events_processed - start

    # -- misc -------------------------------------------------------------

    def schedule_call(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> None:
        """Call ``fn(*args)`` after *delay* seconds, as a bare queue entry.

        The entry is the tuple itself: there is no object to keep and
        nothing to withdraw.  It counts as one processed event.
        """
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        sequence = self._sequence + 1
        self._sequence = sequence
        # A NORMAL entry's key is its sequence number itself.
        heappush(self._queue, (self._now + delay, sequence, fn, args))

    def pending_events(self) -> int:
        """Number of entries still queued (triggered but unprocessed)."""
        return len(self._queue) + len(self._timers)
