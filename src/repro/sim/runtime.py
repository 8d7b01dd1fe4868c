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
from typing import Callable, Generator, NamedTuple

from repro.sim.values import Logic


class Edge(enum.Enum):
    """Sensitivity kind for one signal within a process trigger list."""

    ANY = "any"
    POS = "posedge"
    NEG = "negedge"


class Signal:
    """A named storage element. Value updates flow through the kernel only."""

    __slots__ = ("name", "width", "_value", "waiters")

    def __init__(self, name: str, width: int, initial: Logic | None = None):
        self.name = name
        self.width = width
        self._value = initial.resize(width) if initial is not None else Logic.unknown(width)
        #: blocked processes whose trigger list includes this signal, mapped to
        #: their sensitivity entries *on this signal* (a bare entry in the
        #: common one-entry case, a list otherwise) — a dict so the kernel can
        #: wake and unregister in O(1) per process
        self.waiters: dict["Process", "Sensitivity | list[Sensitivity]"] = {}

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


class ProcessFacts(NamedTuple):
    """What the batch tier (:mod:`repro.sim.batch`) knows of a process.

    * ``reads`` — every signal its body reads, its own targets included;
    * ``writes`` — every signal it writes;
    * ``sensitivity`` — the entries its wait lists, as the kernel wakes it;
    * ``stateless`` — on every path through one activation, it writes each
      of ``writes`` whole before reading it and by the end, reads no VHDL
      variable before writing it, reads no edge memory, and neither waits
      nor prints: each activation's writes are a function of the signals
      it reads from outside. A process whose one activation is a single
      unconditional write of static parts, and which reads no bit of a
      signal it writes, is stateless too: the bits it keeps are not its
      own, and the plan checks that no other writer shares its bits;
    * ``parts`` — ``(signal, mask)`` per signal such a write covers, the
      mask holding the bits its compiled store writes; a signal of
      ``writes`` that is not here is written whole.
    """

    reads: frozenset[Signal]
    writes: frozenset[Signal]
    sensitivity: tuple[Sensitivity, ...]
    stateless: bool
    parts: tuple[tuple[Signal, int], ...] = ()


def wait_on(signals) -> tuple[Sensitivity, ...]:
    """The sensitivity of a process that waits on any change of *signals*."""
    return tuple(Sensitivity(signal) for signal in signals)


def meet(outcomes):
    """What every path of a branch has written: the intersections of the
    ``(written, assigned)`` sets the facts walkers track per path."""
    return (
        frozenset.intersection(*(written for written, _ in outcomes)),
        frozenset.intersection(*(assigned for _, assigned in outcomes)),
    )


class Process:
    """One concurrent thread of execution (always/initial block or VHDL process).

    The *factory* receives the kernel when the simulation starts, so the same
    elaborated design can be simulated several times with fresh state. A
    process given no factory gets one from its ``build`` callable when it is
    first compiled (its first :meth:`start`), so a process that never starts
    never compiles its body (see :func:`repro.sim.compile.add_process`).
    ``build()`` returns ``(factory, unsettled)``: ``unsettled`` says whether
    any closure of the body can abort on some operand values or reads
    simulator state. ``facts`` computes the process's :class:`ProcessFacts`
    on demand.
    """

    __slots__ = ("name", "factory", "build", "generator", "waiting_on", "done",
                 "facts", "unsettled")

    def __init__(
        self, name: str, factory: Callable[["object"], ProcessBody] | None = None
    ):
        self.name = name
        self.factory = factory
        self.build: (
            Callable[[], tuple[Callable[["object"], ProcessBody], bool]] | None
        ) = None
        self.generator: ProcessBody | None = None
        #: sensitivity entries the process is currently blocked on
        self.waiting_on: list[Sensitivity] = []
        self.done = False
        self.facts: Callable[[], ProcessFacts] | None = None
        self.unsettled = False

    def compile(self) -> Callable[["object"], ProcessBody]:
        """The process factory, built at the first call."""
        factory = self.factory
        if factory is None:
            factory, self.unsettled = self.build()
            self.factory, self.build = factory, None
        return factory

    def start(self, kernel) -> ProcessBody:
        self.generator = self.compile()(kernel)
        self.done = False
        self.waiting_on = []
        return self.generator

    def __repr__(self) -> str:
        return f"Process({self.name})"


@dataclass
class Design:
    """A fully elaborated design: flat signals and processes, ready to simulate."""

    name: str = "design"
    signals: dict[str, Signal] = field(default_factory=dict)
    processes: list[Process] = field(default_factory=list)

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
