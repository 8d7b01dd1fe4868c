"""The stratified event-queue simulation kernel.

One simulation time step processes, in order:

1. the **active region** — runnable processes execute until none remain;
   blocking assignments update signals immediately and wake sensitive
   processes back into the active region (delta cycles);
2. the **NBA region** — values staged by nonblocking assignments (and VHDL
   signal assignments) are committed; any resulting wake-ups re-enter the
   active region of the same time step;
3. **time advance** — the earliest future event time becomes current.

Processes communicate with the kernel by *yielding* scheduling commands:
:class:`Delay`, :class:`WaitChange`, or :class:`Finish`. The kernel enforces a
delta-cycle limit and a wall-step limit so that defective generated code
(e.g. zero-delay oscillation introduced by a mutation) terminates with a
diagnosable :class:`SimulationError` instead of hanging — mirroring the
iteration limits of commercial simulators.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.sim.runtime import Design, Edge, Process, Sensitivity, Signal
from repro.sim.values import Logic


class SimulationError(RuntimeError):
    """Raised when the simulation cannot make progress (e.g. delta overflow)."""


#: sentinel distinguishing "no command" from a process that yielded None
_NO_COMMAND = object()


class SimulationFinished(Exception):
    """Raised internally when a process executes ``$finish``."""


@dataclass(frozen=True)
class Delay:
    """Suspend the yielding process for *ticks* time units."""

    ticks: int


@dataclass(frozen=True)
class WaitChange:
    """Suspend until any of the sensitivity entries fires."""

    entries: tuple[Sensitivity, ...]

    @staticmethod
    def on(*signals: Signal) -> "WaitChange":
        return WaitChange(tuple(Sensitivity(s) for s in signals))


@dataclass(frozen=True)
class Finish:
    """Terminate the whole simulation (``$finish`` / final ``wait``)."""

    exit_code: int = 0


@dataclass
class SimStats:
    """Bookkeeping the harness reports alongside simulation output."""

    end_time: int = 0
    process_activations: int = 0
    delta_cycles: int = 0
    finished_cleanly: bool = False


class Simulator:
    """Drives one elaborated :class:`~repro.sim.runtime.Design` to completion."""

    #: delta cycles allowed within one time step before declaring oscillation
    DELTA_LIMIT = 10_000
    #: process activations allowed within one time step (zero-delay loops
    #: between processes never drain the active queue, so the NBA-boundary
    #: delta counter alone cannot catch them)
    STEP_ACTIVATION_LIMIT = 100_000
    #: total process activations allowed in one run
    ACTIVATION_LIMIT = 5_000_000

    def __init__(
        self,
        design: Design,
        *,
        max_time: int = 1_000_000,
        step_activation_limit: int | None = None,
    ):
        self.design = design
        self.max_time = max_time
        if step_activation_limit is not None:
            self.STEP_ACTIVATION_LIMIT = step_activation_limit
        self.time = 0
        self.output: list[str] = []
        self.stats = SimStats()
        self._active: list[Process] = []
        #: staged NBA commits as (signal, value, compute) triples applied in
        #: order; plain value commits carry ``compute=None``
        self._nba: list[tuple[Signal, "Logic | None", "object"]] = []
        self._future: list[tuple[int, int, Process]] = []
        self._seq = 0
        self._finished = False

    # -- public API ------------------------------------------------------------

    def run(self) -> SimStats:
        """Run until ``$finish``, event exhaustion, or ``max_time``."""
        for process in self.design.processes:
            process.start(self)
            self._active.append(process)
        while not self._finished:
            self._run_time_step()
            if self._finished:
                break
            if not self._future:
                break
            next_time = self._future[0][0]
            if next_time > self.max_time:
                break
            self.time = next_time
            while self._future and self._future[0][0] == self.time:
                __, __, process = heapq.heappop(self._future)
                self._active.append(process)
        self.stats.end_time = self.time
        return self.stats

    # -- process-facing operations (used by elaborated code) ---------------------

    def write_signal(self, signal: Signal, value: Logic) -> None:
        """Blocking assignment: immediate update plus wake-ups."""
        # Signal._set inlined: this is the hottest kernel entry point. The
        # equality check compares fields directly (widths match post-resize),
        # skipping the dataclass __eq__ tuple build.
        old = signal._value
        new = value if value.width == signal.width else value.resize(signal.width)
        if new is old or (new.bits == old.bits and new.xmask == old.xmask):
            return
        signal._value = new
        if signal.waiters:
            self._wake_waiters(signal, old)

    def schedule_nba(self, signal: Signal, value: Logic) -> None:
        """Nonblocking assignment of a whole-signal value (NBA region commit)."""
        self._nba.append((signal, value, None))

    def schedule_nba_update(self, signal: Signal, compute) -> None:
        """Nonblocking read-modify-write (bit/part-select targets).

        *compute* receives the signal's value at commit time and returns the
        new value, so several NBAs to disjoint bit ranges of one signal in the
        same time step all take effect (last writer wins per bit, in program
        order — the IEEE 1364 rule).
        """
        self._nba.append((signal, None, compute))

    def schedule_write(self, signal: Signal, value: Logic, delay: int) -> None:
        """Schedule a one-shot signal write *delay* ticks in the future.

        Implements VHDL's non-blocking ``target <= value after T`` inside a
        process: the writing process continues immediately while the update
        fires later (transport semantics; pending writes are not cancelled).
        """

        def factory(sim, signal=signal, value=value):
            def gen():
                sim.write_signal(signal, value)
                return
                yield  # pragma: no cover - generator marker

            return gen()

        writer = Process(f"after-write:{signal.name}", factory)
        writer.start(self)
        self._seq += 1
        heapq.heappush(self._future, (self.time + max(delay, 0), self._seq, writer))

    def display(self, text: str) -> None:
        self.output.append(text)

    def commit_nba(self) -> None:
        """The NBA region: write every staged value, in staging order."""
        updates, self._nba = self._nba, []
        for signal, value, compute in updates:
            if compute is not None:
                value = compute(signal._value)
            self.write_signal(signal, value)

    # -- internals -----------------------------------------------------------------

    def _wake_waiters(self, signal: Signal, old: Logic) -> None:
        waiters = signal.waiters
        if not waiters:
            return
        new = signal._value
        # _unblock mutates the dict, so collect matches before waking
        woken = None
        for process, entry in waiters.items():
            if type(entry) is list:
                if not any(e.matches(old, new) for e in entry):
                    continue
            elif entry.edge is not Edge.ANY and not entry.matches(old, new):
                continue
            if woken is None:
                woken = [process]
            else:
                woken.append(process)
        if woken is not None:
            for process in woken:
                self._unblock(process)

    def _unblock(self, process: Process) -> None:
        for entry in process.waiting_on:
            entry.signal.waiters.pop(process, None)
        process.waiting_on = []
        self._active.append(process)

    def _block_on(self, process: Process, entries: tuple[Sensitivity, ...]) -> None:
        process.waiting_on = list(entries)
        for entry in entries:
            waiters = entry.signal.waiters
            existing = waiters.get(process)
            if existing is None:
                waiters[process] = entry
            elif type(existing) is list:
                existing.append(entry)
            else:
                waiters[process] = [existing, entry]

    def _run_time_step(self) -> None:
        deltas = 0
        step_activations = 0
        active = self._active  # mutated in place only — safe to alias
        stats = self.stats
        while active or self._nba:
            while active and not self._finished:
                process = active.pop()
                step_activations += 1
                # -- one process activation, inlined (the hot loop) --
                if not process.done and process.generator is not None:
                    stats.process_activations += 1
                    if stats.process_activations > self.ACTIVATION_LIMIT:
                        raise SimulationError(
                            "process activation limit exceeded; runaway simulation"
                        )
                    try:
                        command = next(process.generator)
                    except StopIteration:
                        process.done = True
                        command = _NO_COMMAND
                    except SimulationFinished:
                        self._finish()
                        command = _NO_COMMAND
                    if command is not _NO_COMMAND:
                        cls = command.__class__  # frozen types: exact-class dispatch
                        if cls is WaitChange:
                            if not command.entries:
                                # empty sensitivity: process can never resume
                                process.done = True
                            else:
                                self._block_on(process, command.entries)
                        elif cls is Delay:
                            if command.ticks < 0:
                                raise SimulationError(
                                    f"negative delay {command.ticks}"
                                )
                            self._seq += 1
                            heapq.heappush(
                                self._future,
                                (self.time + command.ticks, self._seq, process),
                            )
                        elif cls is Finish:
                            self._finish()
                        else:
                            raise SimulationError(
                                f"process {process.name} yielded {command!r}"
                            )
                if step_activations > self.STEP_ACTIVATION_LIMIT:
                    raise SimulationError(
                        f"step activation limit ({self.STEP_ACTIVATION_LIMIT}) "
                        f"exceeded at time {self.time}: combinational "
                        "oscillation (zero-delay loop) detected"
                    )
            if self._finished:
                return
            if self._nba:
                self.commit_nba()
            deltas += 1
            stats.delta_cycles += 1
            if deltas > self.DELTA_LIMIT:
                raise SimulationError(
                    f"delta-cycle limit exceeded at time {self.time}: "
                    "combinational oscillation (zero-delay loop) detected"
                )

    def _finish(self) -> None:
        self._finished = True
        self.stats.finished_cleanly = True
