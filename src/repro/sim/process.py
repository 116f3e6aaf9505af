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
processes can wait on each other (fork/join).  Processes are for code
that sleeps on simulated time -- sources, timers, supervisors, sessions;
a model step that waits on another hands it a continuation instead.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.core import Event, SimulationError, Simulator, URGENT

_PROCESSED = Event._PROCESSED


class Process(Event):
    """A running generator; also an event that fires on completion."""

    __slots__ = ("generator", "name", "_then_resume")

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
        # Bound once: every wait hands the awaited event this object.
        self._then_resume = self._resume
        # Kick off the generator as soon as the simulator starts working at
        # the current instant.
        init = Event(sim)
        init.callbacks.append(self._then_resume)
        init._state = Event._TRIGGERED
        sim._schedule(0.0, init, priority=URGENT)

    # -- driving the generator -------------------------------------------

    def _resume(self, event: Event) -> None:
        try:
            exception = event._exception
            if exception is not None:
                target = self.generator.throw(exception)
            else:
                target = self.generator.send(
                    event._value if event is not self else None
                )
        except StopIteration as stop:
            # Finished: drop the bound resume, which refers back to this
            # process, so the process is freed without the cycle collector.
            del self._then_resume
            self.trigger(stop.value)
            return
        except BaseException as exc:  # body raised: fail the process event
            del self._then_resume
            self.fail(exc)
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
        if target._state == _PROCESSED:
            self._resume(target)
        else:
            target.callbacks.append(self._then_resume)
