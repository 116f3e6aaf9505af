"""Generator-based cooperative processes.

A *process* is a Python generator driven by the simulator.  The generator
yields :class:`~repro.sim.core.Event` objects; the process suspends until
the yielded event fires and then resumes with the event's value::

    def sender(sim, link):
        for _ in range(10):
            yield sim.timeout(0.001)      # wait 1 ms
            sent = sim.event()
            link.send(cell, sent.trigger) # trigger it at wire-out
            yield sent                    # wait for the send to complete

    sim.process(sender(sim, link))

A process is itself an event that triggers when the generator returns, so
processes can wait on each other (fork/join).  Processes may be
interrupted: :meth:`Process.interrupt` raises :class:`Interrupt` inside the
generator at its current suspension point.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional

from repro.sim.core import Event, SimulationError, Simulator, URGENT

_PENDING = Event._PENDING
_PROCESSED = Event._PROCESSED


class Interrupt(Exception):
    """Raised inside a process that someone interrupted.

    The *cause* argument passed to :meth:`Process.interrupt` is available
    as ``exc.cause``.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Process(Event):
    """A running generator; also an event that fires on completion."""

    __slots__ = ("generator", "_waiting_on", "name")

    def __init__(
        self,
        sim: Simulator,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Kick off the generator as soon as the simulator starts working at
        # the current instant.
        init = Event(sim)
        init.callbacks.append(self._resume)
        init._state = Event._TRIGGERED
        sim._schedule(0.0, init, priority=URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        target = self._waiting_on
        if target is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        self._waiting_on = None
        hit = Event(self.sim)
        hit.add_callback(lambda _ev: self._throw(Interrupt(cause)))
        hit._state = Event._TRIGGERED
        self.sim._schedule(0.0, hit, priority=URGENT)

    # -- driving the generator -------------------------------------------

    def _resume(self, event: Event) -> None:
        if self._state > _PENDING:  # interrupted after the event triggered
            return
        self._waiting_on = None
        try:
            exception = event._exception
            if exception is not None:
                target = self.generator.throw(exception)
            else:
                target = self.generator.send(
                    event._value if event is not self else None
                )
        except StopIteration as stop:
            self.trigger(stop.value)
            return
        except Interrupt:
            self.fail(
                SimulationError(
                    f"process {self.name} let an Interrupt escape; catch it "
                    "or re-raise a domain exception"
                )
            )
            return
        except BaseException as exc:  # body raised: fail the process event
            self.fail(exc)
            return
        self._wait_on(target)

    def _throw(self, exc: BaseException) -> None:
        if not self.is_alive:
            return
        try:
            target = self.generator.throw(exc)
        except StopIteration as stop:
            self.trigger(stop.value)
            return
        except Interrupt as leaked:
            self.fail(
                SimulationError(
                    f"process {self.name} did not handle Interrupt({leaked.cause!r})"
                )
            )
            return
        except BaseException as raised:  # body raised: fail the process event
            self.fail(raised)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            self.fail(
                TypeError(
                    f"process {self.name} yielded {target!r}; processes may "
                    "only yield Event instances"
                )
            )
            return
        if target.sim is not self.sim:
            self.fail(SimulationError("yielded event belongs to another simulator"))
            return
        self._waiting_on = target
        if target._state == _PROCESSED:
            self._resume(target)
        else:
            target.callbacks.append(self._resume)


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: Simulator, events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        self._pending = len(self.events)
        if not self.events:
            self.trigger([])
            return
        for ev in self.events:
            ev.add_callback(self._child_done)

    def _child_done(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every child event has triggered.

    The value is the list of child values in construction order.  If any
    child fails, the condition fails with that child's exception (first
    failure wins).
    """

    __slots__ = ()

    def _child_done(self, event: Event) -> None:
        if self.triggered:
            return
        if event.exception is not None:
            self.fail(event.exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.trigger([ev.value for ev in self.events])


class AnyOf(_Condition):
    """Triggers when the first child event triggers (value = that event)."""

    __slots__ = ()

    def _child_done(self, event: Event) -> None:
        if self.triggered:
            return
        if event.exception is not None:
            self.fail(event.exception)
            return
        self.trigger(event)
