"""Runtime model: signals, processes, and elaborated designs.

The elaborators (one per language) lower their ASTs into this shared model:

* a :class:`Signal` is a named, fixed-width four-state storage element;
* a :class:`Process` is a Python generator that executes statements and
  *yields* scheduling commands (:class:`~repro.sim.kernel.Delay`,
  :class:`~repro.sim.kernel.WaitChange`) back to the kernel;
* a :class:`Design` is the flat post-elaboration collection of both.

Processes never touch signal values directly — all reads go through
:meth:`Signal.value` and all writes through the kernel, which is what gives
the kernel its chance to run delta cycles and wake sensitive processes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Generator, Iterable

from repro.sim.values import Logic


class Edge(enum.Enum):
    """Sensitivity kind for one signal within a process trigger list."""

    ANY = "any"
    POS = "posedge"
    NEG = "negedge"


class Signal:
    """A named storage element. Value updates flow through the kernel only."""

    __slots__ = ("name", "width", "_value", "waiters", "trace")

    def __init__(self, name: str, width: int, initial: Logic | None = None):
        self.name = name
        self.width = width
        self._value = initial.resize(width) if initial is not None else Logic.unknown(width)
        #: blocked processes whose trigger list includes this signal, mapped to
        #: their sensitivity entries *on this signal* (a bare entry in the
        #: common one-entry case, a list otherwise) — a dict so the kernel can
        #: wake and unregister in O(1) per process
        self.waiters: dict["Process", "Sensitivity | list[Sensitivity]"] = {}
        #: optional list of (time, value) pairs appended by the kernel when tracing
        self.trace: list[tuple[int, Logic]] | None = None

    @property
    def value(self) -> Logic:
        return self._value

    def __repr__(self) -> str:
        return f"Signal({self.name}={self._value})"


#: A process body: a generator yielding kernel scheduling commands.
ProcessBody = Generator


@dataclass
class Sensitivity:
    """One (signal, edge) entry of a process's static sensitivity list."""

    signal: Signal
    edge: Edge = Edge.ANY

    def matches(self, old: Logic, new: Logic) -> bool:
        if self.edge is Edge.ANY:
            return True
        old_char = old.bit_char(0)
        new_char = new.bit_char(0)
        if self.edge is Edge.POS:
            return (old_char != "1" and new_char == "1") or (
                old_char == "0" and new_char == "x"
            )
        return (old_char != "0" and new_char == "0") or (
            old_char == "1" and new_char == "x"
        )


class Process:
    """One concurrent thread of execution (always/initial block or VHDL process).

    The *factory* receives the kernel when the simulation starts, so the same
    elaborated design can be simulated several times with fresh state. A
    process given no factory gets one from its ``build`` callable at its
    first :meth:`start`, so a process that never starts never compiles its
    body (see :func:`repro.sim.compile.add_process`).
    """

    __slots__ = ("name", "factory", "build", "generator", "waiting_on", "done")

    def __init__(
        self, name: str, factory: Callable[["object"], ProcessBody] | None = None
    ):
        self.name = name
        self.factory = factory
        self.build: Callable[[], Callable[["object"], ProcessBody]] | None = None
        self.generator: ProcessBody | None = None
        #: sensitivity entries the process is currently blocked on
        self.waiting_on: list[Sensitivity] = []
        self.done = False

    def start(self, kernel) -> ProcessBody:
        factory = self.factory
        if factory is None:
            factory = self.factory = self.build()
            self.build = None
        self.generator = factory(kernel)
        self.done = False
        self.waiting_on = []
        return self.generator

    def __repr__(self) -> str:
        return f"Process({self.name})"


@dataclass(frozen=True)
class SyncReg:
    """One register of a recognized synchronous update.

    ``emit(names)`` lowers the register's next-value expression to a Python
    source string over the variable names in *names* (the same contract as
    a :class:`~repro.sim.compile.level.ConeMember`'s); ``reset_bits`` is
    the constant the register takes while reset is asserted.
    """

    target: Signal
    reset_bits: int
    emit: Callable


@dataclass(frozen=True)
class SyncUpdate:
    """A recognized ``posedge clk`` / ``rising_edge(clk)`` register bank.

    Recorded by the elaborators alongside the compiled process so the batch
    tier can advance all registers one clock edge at a time without running
    the event kernel. Purely advisory: the process in ``Design.processes``
    remains the source of truth for the kernel.
    """

    process: Process
    clock: Signal
    reset: Signal | None
    regs: tuple[SyncReg, ...]


@dataclass
class Design:
    """A fully elaborated design: flat signals and processes, ready to simulate."""

    name: str = "design"
    signals: dict[str, Signal] = field(default_factory=dict)
    processes: list[Process] = field(default_factory=list)
    #: the combinational processes the batch tier can plan from, as
    #: :class:`~repro.sim.compile.level.ConeMember` facts in elaboration order
    members: list = field(default_factory=list)
    #: synchronous register banks recognized for the batch tier
    sync_updates: list[SyncUpdate] = field(default_factory=list)

    def add_signal(self, signal: Signal) -> Signal:
        if signal.name in self.signals:
            raise ValueError(f"duplicate signal name {signal.name!r}")
        self.signals[signal.name] = signal
        return signal

    def new_signal(self, name: str, width: int, initial: Logic | None = None) -> Signal:
        return self.add_signal(Signal(name, width, initial))

    def add_process(self, process: Process) -> Process:
        self.processes.append(process)
        return process

    def signal(self, name: str) -> Signal:
        try:
            return self.signals[name]
        except KeyError:
            raise KeyError(
                f"no signal {name!r} in design {self.name!r}; "
                f"known: {sorted(self.signals)}"
            ) from None

    def merge(self, other: "Design", prefix: str = "") -> None:
        """Absorb another design's elements, optionally prefixing names."""
        for name, signal in other.signals.items():
            signal.name = prefix + name
            self.add_signal(signal)
        for process in other.processes:
            process.name = prefix + process.name
            self.add_process(process)
        self.members.extend(other.members)
        self.sync_updates.extend(other.sync_updates)


def sensitivities(
    entries: Iterable[tuple[Signal, Edge]] | Iterable[Signal],
) -> list[Sensitivity]:
    """Normalize a trigger list into :class:`Sensitivity` records."""
    result = []
    for entry in entries:
        if isinstance(entry, Signal):
            result.append(Sensitivity(entry))
        else:
            signal, edge = entry
            result.append(Sensitivity(signal, edge))
    return result
