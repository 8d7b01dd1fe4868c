"""Batch stimulus evaluation: the second simulation path.

The event kernel replays a golden testbench one stimulus vector at a time:
drive, settle, check, repeat. The batch tier runs the same design's
processes, each with its own compiled body, but neither the testbench nor
the event loop: knowing the testbench's schedule, it steps each body where
the kernel would activate it.

* :func:`plan_combinational` and :func:`plan_sequential` judge a design
  from its processes' :class:`~repro.sim.runtime.ProcessFacts` (read set,
  write set, sensitivity, and whether an activation keeps state) and order
  the combinational processes by dataflow;
* a run starts every process against a
  :class:`~repro.sim.kernel.Simulator` whose event loop never runs, and
  calls ``next()`` on a process's generator once per activation, so VHDL
  variables and edge memory behave as on the kernel and staged writes
  commit through the kernel's own NBA region. A settle steps each
  combinational process once, in dataflow order; a ``clk`` transition
  steps the processes the kernel's wake rule wakes, commits their writes
  after all of them have run, and settles. ``rst`` is driven through the
  testbench's reset cycles;
* :func:`run_bundle` evaluates a generated testbench's
  :class:`~repro.designs.tbgen.StimulusBundle` against a plan and emulates
  the testbench's checks exactly — same messages, ordering, end-of-log
  summary and ``end_time`` — so the result is observationally identical to
  event-simulating the testbench text.

A plan is built from a freshly elaborated DUT and runs once: its run
starts from the design's elaboration-time values and leaves the design
spent, so the toolchain stores neither. Each refusal is counted as
``sim.batch_plan.refused.<clause>`` (:data:`CLAUSES`, explained in
DESIGN.md), and the kernel runs the testbench instead; a run that meets
what its plan could not see (a wait other than the process's own, output,
a future write, an abort, edge-triggered processes racing on a blocking
write) is refused as ``run-time``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.designs import tbgen
from repro.eda.toolchain import Language
from repro.obs import get_tracer
from repro.sim.kernel import SimulationError, Simulator, WaitChange
from repro.sim.runtime import Design, Edge, Process, Signal
from repro.sim.values import Logic

#: every clause a plan or a run is refused by
CLAUSES = (
    "unknown-port", "multi-driven", "no-clock", "not-on-clk", "stateful",
    "reads-clock", "sensitivity", "cycle", "unsettled", "compiler",
    "run-time",
)


def _mask(width: int) -> int:
    return (1 << width) - 1


def _refuse(clause: str) -> None:
    """Count a refusal under *clause*; returns None, the refused plan."""
    get_tracer().metrics.counter(f"sim.batch_plan.refused.{clause}").inc()


def end_time(bundle) -> int:
    """The simulated time at which a bundle's testbench finishes (ns)."""
    n = len(bundle.stimulus)
    if bundle.spec.clocked:
        return 2 * tbgen.HALF_PERIOD_NS * (tbgen.RESET_CYCLES + n)
    return n * tbgen.SETTLE_NS


@dataclass(frozen=True)
class Plan:
    """One batch pass over a design, combinational or clocked."""

    design: Design
    #: (port name, spec width, design signal) per driven input
    inputs: tuple[tuple[str, int, Signal], ...]
    #: (port name, spec width, design signal) per observed output
    outputs: tuple[tuple[str, int, Signal], ...]
    #: the combinational processes, in dataflow order
    comb: tuple[Process, ...]
    #: the processes on ``clk``, and every signal they write
    clocked: tuple[Process, ...]
    registers: tuple[Signal, ...]
    #: ``clk`` and ``rst``; None in a combinational plan
    clock: Signal | None
    reset: Signal | None
    #: each process's sensitivity, as the (signal, edge) pairs it waits on
    waits: dict


# --------------------------------------------------------------------------
# planning
# --------------------------------------------------------------------------


def _ports(design: Design, ports):
    """``(name, spec width, signal)`` rows, or None for an unknown port."""
    try:
        return tuple((name, w, design.signals[name]) for name, w in ports)
    except KeyError:
        return None


def _dataflow(comb, facts):
    """*comb* in dataflow order (Kahn), or None on a combinational cycle.
    A process comes after every writer of each signal it reads."""
    producers: dict[Signal, list[int]] = {}
    for j, process in enumerate(comb):
        for signal in facts[process].writes:
            producers.setdefault(signal, []).append(j)
    waiting = [0] * len(comb)
    consumers: list[list[int]] = [[] for _ in comb]
    for j, process in enumerate(comb):
        for signal in facts[process].reads - facts[process].writes:
            for k in producers.get(signal, ()):
                waiting[j] += 1
                consumers[k].append(j)
    ready = [j for j, count in enumerate(waiting) if not count]
    for j in ready:  # ready grows while it is walked
        for k in consumers[j]:
            waiting[k] -= 1
            if not waiting[k]:
                ready.append(k)
    if len(ready) != len(comb):
        return None  # the rest wait on a combinational cycle
    return tuple(comb[j] for j in ready)


def _plan(design: Design, in_ports, out_ports, clocked: bool) -> Plan | None:
    """A :class:`Plan`, or None with the refusing clause counted."""
    inputs = _ports(design, in_ports)
    outputs = _ports(design, out_ports)
    if inputs is None or outputs is None:
        return _refuse("unknown-port")
    clock = reset = None
    if clocked:
        clock = design.signals.get("clk")
        if clock is None:
            return _refuse("no-clock")
        reset = design.signals.get("rst")
    driven = {signal for _n, _w, signal in inputs} | {clock, reset}
    facts = {process: process.facts() for process in design.processes}
    #: the bits of each signal the processes so far write
    covered: dict[Signal, int] = {}
    for fact in facts.values():
        parts = dict(fact.parts)
        for signal in fact.writes:
            bits = parts.get(signal, _mask(signal.width))
            if signal in driven or covered.get(signal, 0) & bits:
                return _refuse("multi-driven")
            covered[signal] = covered.get(signal, 0) | bits
    comb, on_clock = [], []
    for process, fact in facts.items():
        edges = any(e.edge is not Edge.ANY for e in fact.sensitivity)
        if fact.stateless and not edges:
            if clock is not None and clock in fact.reads:
                return _refuse("reads-clock")
            if not fact.reads - fact.writes <= {e.signal for e in fact.sensitivity}:
                return _refuse("sensitivity")
            comb.append(process)
        elif clock is not None and fact.sensitivity and all(
            e.signal is clock for e in fact.sensitivity
        ):
            on_clock.append(process)
        elif edges or any(e.signal is clock for e in fact.sensitivity):
            return _refuse("not-on-clk")
        else:
            return _refuse("stateful")
    ordered = _dataflow(comb, facts)
    if ordered is None:
        return _refuse("cycle")
    for process in design.processes:
        try:
            process.compile()
        except SimulationError:
            return _refuse("compiler")  # the kernel refuses it by name
        if process.unsettled:
            return _refuse("unsettled")
    registers = tuple({s for process in on_clock for s in facts[process].writes})
    return Plan(
        design, inputs, outputs, ordered, tuple(on_clock), registers, clock,
        reset,
        {p: {(e.signal, e.edge) for e in f.sensitivity} for p, f in facts.items()},
    )


def plan_combinational(design: Design, in_ports, out_ports) -> Plan | None:
    """Build a batch plan, or ``None`` when the design is not batchable.

    *in_ports* / *out_ports* are ``(name, width)`` pairs in testbench
    declaration order — the observation widths, which may differ from the
    design's own signal widths (the testbench connection resizes). Every
    process must be combinational.
    """
    return _plan(design, in_ports, out_ports, clocked=False)


def plan_sequential(design: Design, in_ports, out_ports) -> Plan | None:
    """Build a per-edge batch plan, or ``None`` when not batchable.

    *in_ports* leave out ``clk`` and ``rst``, which the run drives as the
    testbench does. Every process is combinational or on ``clk`` alone.
    """
    return _plan(design, in_ports, out_ports, clocked=True)


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------


class _Refused(Exception):
    """A run met a process activation the plan could not see."""


_RISE = (Logic(1, 0), Logic(1, 1))
_FALL = (Logic(1, 1), Logic(1, 0))


class _Run:
    """One run of a plan: its design, still at elaboration-time values, and
    a :class:`Simulator` whose event loop never runs.

    Each started process is kept as ``(generator, wait)``: ``wait`` is
    the command its first activation yielded, which must be its own
    sensitivity wait, and every later activation must yield that same
    command again.
    """

    def __init__(self, plan: Plan):
        self.plan = plan
        self.sim = Simulator(plan.design)
        self.comb: list = []
        self.rise: list = []
        self.fall: list = []

    def start(self, processes) -> list:
        """Each process's first activation; the ones that wait again."""
        sim, waits = self.sim, self.plan.waits
        started = []
        for process in processes:
            generator = process.start(sim)
            try:
                command = next(generator)
            except StopIteration:
                continue  # it runs once, as on the kernel
            if type(command) is not WaitChange or waits[process] != {
                (e.signal, e.edge) for e in command.entries
            }:
                raise _Refused
            started.append((generator, command))
            if sim._nba:
                sim.commit_nba()
        return started

    def start_clocked(self) -> None:
        started = self.start(self.plan.clocked)
        self.rise = [s for s in started
                     if any(e.matches(*_RISE) for e in s[1].entries)]
        self.fall = [s for s in started
                     if any(e.matches(*_FALL) for e in s[1].entries)]

    def settle(self, commit: bool = True) -> None:
        """Step every combinational process once, in dataflow order.

        Without *commit*, nonblocking and signal writes stay staged, as
        they are in the kernel until its active region drains."""
        sim = self.sim
        for generator, wait in self.comb:
            if next(generator) is not wait:
                raise _Refused
            if sim._nba and commit:
                sim.commit_nba()

    def held(self) -> list:
        """The registers' values now; a write that changes one replaces
        its value object."""
        return [signal._value for signal in self.plan.registers]

    def moved(self, held) -> bool:
        return any(s._value is not v for s, v in zip(self.plan.registers, held))

    def clock_edge(self, woken, value: int) -> None:
        """``clk`` takes *value*, and each process in *woken* steps.

        Several woken processes may run in any order only if none of them
        writes a signal at once (a blocking write), as the kernel's wake
        order would decide which of them sees it."""
        clock = self.plan.clock
        clock._value = Logic._make(1, value, 0).resize(clock.width)
        held = self.held() if len(woken) > 1 else None
        for generator, wait in woken:
            if next(generator) is not wait:
                raise _Refused
        if held is not None and self.moved(held):
            raise _Refused

    def drive(self, drives) -> None:
        """Write ``(signal, spec width, value)`` drives as the testbench's
        spec-width signals would through the port connections."""
        for signal, spec_width, value in drives:
            if isinstance(value, Logic):
                value = value.resize(spec_width)
            else:
                value = Logic._make(spec_width, value, 0)
            signal._value = value.resize(signal.width)

    def vector(self, vector) -> list:
        """One stimulus vector's input drives."""
        return [(signal, w, vector[name]) for name, w, signal in self.plan.inputs]

    def observe(self) -> dict[str, Logic]:
        """The outputs as the testbench's spec-width signals read them."""
        return {
            name: signal._value.resize(spec_width)
            for name, spec_width, signal in self.plan.outputs
        }

    def finish(self) -> None:
        """Refuse a run whose processes printed or scheduled a future
        write: the kernel would show them."""
        if self.sim.output or self.sim._future:
            raise _Refused


def _run_vectors(plan: Plan, vectors) -> list[dict[str, Logic]]:
    """One output row per vector; a vector missing an input raises
    ``KeyError``."""
    run = _Run(plan)
    rows = []
    for k, vector in enumerate(vectors):
        run.drive(run.vector(vector))
        if k:
            run.settle()
        else:
            run.comb = run.start(plan.comb)
        rows.append(run.observe())
    run.finish()
    return rows


def _run_cycles(plan: Plan, bundle):
    """``(reset row, one row per cycle)``: the outputs the testbench checks
    right after reset and after each clock edge.

    Both testbenches check before any process reacts to their last
    writes, so each row is the state the rising edge before it settled
    to. A falling edge comes with the next case's inputs (and the first
    with ``rst`` falling): the kernel runs the processes those inputs wake
    before those the edge wakes, and commits staged writes only after
    both, so the pass settles without committing first.
    """
    run = _Run(plan)
    sim = run.sim
    reset = plan.reset if bundle.spec.has_reset else None
    first = [(reset, 1, 1)] if reset is not None else []
    first += run.vector({name: 0 for name, _w, _s in plan.inputs})
    # where the processes start: the Verilog testbench drives first, the
    # VHDL one through the NBA region after its signals' initial values
    run.drive([(plan.clock, 1, 0)])
    if bundle.language is Language.VERILOG:
        run.drive(first)
    elif reset is not None:
        run.drive([(reset, 1, 0)])
    run.comb = run.start(plan.comb)
    held = run.held()
    run.start_clocked()
    if run.moved(held):
        raise _Refused  # a first activation acted on unsettled values
    run.drive(first)
    run.settle()

    def edge(woken, value, staged=False):
        held = run.held()
        run.clock_edge(woken, value)
        if staged or sim._nba or run.moved(held):
            sim.commit_nba()
            run.settle()

    def fall(drives):
        run.drive(drives)
        if not run.fall:
            run.drive([(plan.clock, 1, 0)])
            if drives:
                run.settle()
            return
        if drives:
            run.settle(commit=False)
        edge(run.fall, 0, staged=bool(sim._nba))

    for cycle in range(tbgen.RESET_CYCLES):
        if cycle:
            fall([])
        edge(run.rise, 1)
    reset_row = run.observe()
    release = [(reset, 1, 0)] if reset is not None else []
    rows = []
    for vector in bundle.stimulus:
        fall(release + run.vector(vector))
        release = []
        edge(run.rise, 1)
        rows.append(run.observe())
    if bundle.language is Language.VHDL:
        fall(release)  # its last ``clk <= '0'`` still commits
    run.finish()
    return reset_row, rows


# --------------------------------------------------------------------------
# testbench emulation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchOutcome:
    """Synthesized simulation observables for one testbench bundle."""

    output_lines: tuple[str, ...]
    end_time: int
    finished_cleanly: bool
    vectors: int


def _check_case(verilog: bool, case_no: int, checks, expected, observed,
                suffix: str, lines: list[str]) -> int:
    """Emulate one case's checks; returns the number of failing checks.

    *checks* holds ``(name, mask of its spec width)`` per output."""
    failures = 0
    for name, mask in checks:
        want_raw = expected[name]
        want = want_raw & mask
        got = observed[name]
        if verilog:
            # `!==` case-compare against a fully-known literal
            if got.has_x or got.bits != want:
                failures += 1
                lines.append(
                    f"Test Case {case_no} Failed: {name} should be "
                    f"{want_raw}{suffix}, got {got.format('d')}"
                )
        else:
            # VHDL `/=` reports only when a *known* bit differs
            if (got.bits ^ want) & ~got.xmask & mask:
                failures += 1
                lines.append(
                    f"ERROR: Test Case {case_no} Failed: {name} should be "
                    f"{want_raw}{suffix}"
                )
    return failures


def run_bundle(plan: Plan, bundle) -> BatchOutcome | None:
    """Evaluate a testbench bundle against its plan.

    Emulates the generated testbench's drive/settle/check schedule over the
    batch results, producing the exact output lines, end time, and
    clean-finish flag the event kernel would report for the same text.
    ``None`` when the plan's kind does not match the bundle's or the run
    is refused (counted as ``run-time``): the kernel then runs the
    testbench instead.
    """
    clocked = bundle.spec.clocked
    if clocked != (plan.clock is not None):
        return None
    verilog = bundle.language is Language.VERILOG
    checks = [(p.name, _mask(p.width)) for p in bundle.spec.outputs]
    lines: list[str] = []
    errors = 0
    try:
        if clocked:
            reset_row, rows = _run_cycles(plan, bundle)
        else:
            rows = _run_vectors(plan, bundle.stimulus)
    except Exception:
        # an abort, or an activation the plan could not see: the kernel
        # runs the testbench and reports it
        _refuse("run-time")
        return None
    if not clocked:
        for case_no, (row, expected) in enumerate(
            zip(rows, bundle.expected), start=1
        ):
            errors += _check_case(
                verilog, case_no, checks, expected, row, "", lines
            )
    else:
        if bundle.reset_outputs is not None:
            errors += _check_case(
                verilog, 0, checks, bundle.reset_outputs, reset_row,
                " right after reset", lines,
            )
        for case_no, (row, expected) in enumerate(
            zip(rows, bundle.expected), start=1
        ):
            errors += _check_case(
                verilog, case_no, checks, expected, row,
                f" at cycle {case_no}", lines,
            )
    if errors == 0:
        lines.append(tbgen.PASS_MESSAGE)
    elif verilog:
        lines.append(f"{errors} test case(s) failed.")
    else:
        lines.append("ERROR: Some test cases failed.")
    return BatchOutcome(
        output_lines=tuple(lines),
        end_time=end_time(bundle),
        finished_cleanly=verilog,
        vectors=len(bundle.stimulus),
    )
