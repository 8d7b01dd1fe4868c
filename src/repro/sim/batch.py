"""Batch stimulus evaluation: the second simulation path.

The event kernel replays a golden testbench one stimulus vector at a time:
drive, settle, check, repeat. For the designs the QA pipeline actually
generates — combinational cone members plus recognized synchronous
registers — the settled state after each vector or clock edge is a pure
function of the stimulus, so the batch tier computes it directly instead:

* :func:`plan_combinational` orders the elaborators' cone members
  (:class:`~repro.sim.compile.level.ConeMember`, in ``Design.members``) by
  dataflow and builds each one's value with the kernel's own closure
  compiler;
* :func:`plan_sequential` does the same for clocked designs whose
  edge-triggered processes were recognized as
  :class:`~repro.sim.runtime.SyncUpdate` register banks, and builds each
  register's next-state value too;
* running a :class:`Plan` writes the members' four-state values to their
  targets in dataflow order — once per vector in a combinational plan,
  around each clock edge in a sequential one, where all registers take
  their next values at once — resizing each as
  :meth:`Simulator.write_signal <repro.sim.kernel.Simulator.write_signal>`
  does;
* :func:`run_bundle` evaluates a registered
  :class:`~repro.designs.tbgen.StimulusBundle` against a plan and emulates
  the testbench's checks exactly — same messages, same ordering, same
  end-of-log summary, same ``end_time`` — so the synthesized result is
  observationally identical to event-simulating the testbench text.

A plan owns the design it was built from: a run overwrites the design's
inputs, registers and member targets before reading them, and undriven
signals keep their elaboration-time value, as they do on the kernel.
Because the values are the kernel's own four-state values, a vector that
carries X needs no special path.

Eligibility is conservative: a process that is neither a cone member nor
(for clocked plans) a recognized register bank, two writers of one net, a
member target that is an input or a register, a combinational cycle, a
member or register reading the clock or reset, a value that is not a
function of settled values or whose compiler raised — each returns
``None`` and the caller falls back to the event kernel (which reports a
raising compiler as its own refusal). An evaluation that aborts anyway
(its construct is in error for the values it sees) makes
:func:`run_bundle` return ``None`` too, so the kernel runs the testbench
and reports the error. ``REPRO_SIM_NO_BATCH=1`` disables the tier
wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.sim.kernel import SimulationError
from repro.sim.runtime import Design, Signal
from repro.sim.values import Logic


def _mask(width: int) -> int:
    return (1 << width) - 1


@dataclass(frozen=True)
class Plan:
    """One batch pass over a design, combinational or clocked."""

    #: (port name, spec width, design signal) per driven input
    inputs: tuple[tuple[str, int, Signal], ...]
    #: (port name, spec width, design signal) per observed output
    outputs: tuple[tuple[str, int, Signal], ...]
    #: (target, value) per cone member, in dataflow order
    members: tuple[tuple[Signal, Callable[[], Logic]], ...]
    #: (target, reset value, next value) per register; empty when the
    #: plan is combinational
    regs: tuple[tuple[Signal, Logic, Callable[[], Logic]], ...] = ()


# --------------------------------------------------------------------------
# planning
# --------------------------------------------------------------------------


def _ports(design: Design, ports):
    """``(name, spec width, signal)`` rows, or None for an unknown port."""
    rows = []
    for name, spec_width in ports:
        signal = design.signals.get(name)
        if signal is None:
            return None
        rows.append((name, spec_width, signal))
    return tuple(rows)


def _built(nodes):
    """Each member's or register's compiled value, or None when one is not
    a function of settled values or its compiler raised (the kernel then
    builds the process itself and reports the refusal)."""
    values = []
    for node in nodes:
        try:
            value = node.build()
        except Exception:
            return None
        if value is None:
            return None
        values.append(value)
    return values


def _ordered_members(design: Design, driven: set[Signal]):
    """``(target, value)`` for every cone member in dataflow order.

    ``None`` when a target has two writers or is in *driven* (an input or
    a register), when members sit on a combinational cycle (a self-read
    included), or when a value does not build. Each value is built only
    once the order is settled.
    """
    members = design.members
    producer: dict[Signal, int] = {}
    for j, member in enumerate(members):
        target = member.target
        if target in producer or target in driven:
            return None
        producer[target] = j
    # members arrive in elaboration order; run them in dataflow order
    # (Kahn): a member is ready once every member-driven signal it reads
    # has been placed
    waiting = [0] * len(members)
    consumers: list[list[int]] = [[] for _ in members]
    for j, member in enumerate(members):
        for signal in member.reads:
            k = producer.get(signal)
            if k is not None:
                waiting[j] += 1
                consumers[k].append(j)
    ready = [j for j, count in enumerate(waiting) if not count]
    for j in ready:  # ready grows while it is walked
        for k in consumers[j]:
            waiting[k] -= 1
            if not waiting[k]:
                ready.append(k)
    if len(ready) != len(members):
        return None  # the rest wait on a combinational cycle
    ordered = [members[j] for j in ready]
    values = _built(ordered)
    if values is None:
        return None
    return tuple(zip((member.target for member in ordered), values))


def plan_combinational(design: Design, in_ports, out_ports) -> Plan | None:
    """Build a batch plan, or ``None`` when the design is not batchable.

    *in_ports* / *out_ports* are ``(name, width)`` pairs in testbench
    declaration order — the observation widths, which may differ from the
    design's own signal widths (the testbench connection resizes). Every
    process must belong to a cone member.
    """
    member_processes = {member.process for member in design.members}
    if any(p not in member_processes for p in design.processes):
        return None
    inputs = _ports(design, in_ports)
    outputs = _ports(design, out_ports)
    if inputs is None or outputs is None:
        return None
    members = _ordered_members(design, {signal for _n, _w, signal in inputs})
    if members is None:
        return None
    return Plan(inputs, outputs, members)


def plan_sequential(design: Design, in_ports, out_ports) -> Plan | None:
    """Build a per-edge batch plan, or ``None`` when not batchable.

    Requires every process outside the cone members to have been
    recognized as a :class:`~repro.sim.runtime.SyncUpdate` sharing the
    design's ``clk`` / ``rst`` signals, and no member or register to read
    the clock or reset: the batch pass never drives them, so they keep
    their elaboration-time value, and a member's settle points would
    depend on testbench scheduling order, which the pass does not model.
    """
    clk = design.signals.get("clk")
    rst = design.signals.get("rst")
    if clk is None or rst is None:
        return None
    member_processes = {member.process for member in design.members}
    sync_by_process = {u.process: u for u in design.sync_updates}
    sync_regs = []
    for process in design.processes:
        if process in member_processes:
            continue
        update = sync_by_process.get(process)
        if update is None:
            return None
        if update.clock is not clk or update.reset is not rst:
            return None
        sync_regs.extend(update.regs)
    if not sync_regs:
        return None
    targets = {r.target for r in sync_regs}
    if len(targets) != len(sync_regs) or clk in targets or rst in targets:
        return None
    inputs = _ports(design, in_ports)
    outputs = _ports(design, out_ports)
    if inputs is None or outputs is None:
        return None
    driven = {signal for _n, _w, signal in inputs}
    if clk in driven or rst in driven or driven & targets:
        return None
    # members and next-state values must be pure functions of inputs and
    # registers: this pass never drives clk/rst
    for node in (*design.members, *sync_regs):
        if clk in node.reads or rst in node.reads:
            return None
    members = _ordered_members(design, driven | targets)
    if members is None:
        return None
    values = _built(sync_regs)
    if values is None:
        return None
    regs = tuple((r.target, r.reset, v) for r, v in zip(sync_regs, values))
    return Plan(inputs, outputs, members, regs)


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------


def _drive(plan: Plan, vector) -> None:
    """Write one vector's inputs, as the testbench's spec-width regs would
    through the port connections."""
    for name, spec_width, signal in plan.inputs:
        value = vector[name]
        if isinstance(value, Logic):
            value = value.resize(spec_width)
        else:
            value = Logic._make(spec_width, value, 0)
        signal._value = value.resize(signal.width)


def _settle(plan: Plan) -> None:
    """Write every member's value to its target, in dataflow order."""
    for target, value in plan.members:
        new = value()
        target._value = (
            new if new.width == target.width else new.resize(target.width)
        )


def _clock_edge(plan: Plan) -> None:
    """All registers take their next values at once."""
    nexts = [value() for _target, _reset, value in plan.regs]
    for (target, _reset, _value), new in zip(plan.regs, nexts):
        target._value = (
            new if new.width == target.width else new.resize(target.width)
        )


def _observe(plan: Plan) -> dict[str, Logic]:
    """The outputs as the testbench's spec-width signals read them."""
    return {
        name: signal._value.resize(spec_width)
        for name, spec_width, signal in plan.outputs
    }


def _run_vectors(plan: Plan, vectors) -> list[dict[str, Logic]]:
    """One output row per vector; a vector missing an input raises
    ``KeyError``."""
    rows = []
    for vector in vectors:
        _drive(plan, vector)
        _settle(plan)
        rows.append(_observe(plan))
    return rows


def _run_cycles(plan: Plan, stimulus):
    """``(reset row, one row per cycle)``: the outputs right after reset
    (inputs zero, registers at their reset values) and after each edge."""
    for target, reset, _value in plan.regs:
        target._value = reset
    _drive(plan, {name: 0 for name, _w, _s in plan.inputs})
    _settle(plan)
    reset_row = _observe(plan)
    rows = []
    for vector in stimulus:
        _drive(plan, vector)
        _settle(plan)
        _clock_edge(plan)
        _settle(plan)
        rows.append(_observe(plan))
    return reset_row, rows


def simulate_vectors(design: Design, vectors, *, inputs=None, outputs=None):
    """Batch-evaluate a combinational design over a stimulus set.

    *vectors* is a sequence of ``{input: int | Logic}`` dicts. *inputs* /
    *outputs* are ``(name, width)`` pairs; when omitted, inputs are derived
    from the first vector's keys (at design widths) and outputs are every
    member-driven signal that is not an input. Returns one
    ``{output: Logic}`` row per vector, or ``None`` when the design is not
    batchable.
    """
    if inputs is None:
        if not vectors:
            return None
        inputs = []
        for name in sorted(vectors[0]):
            signal = design.signals.get(name)
            if signal is None:
                return None
            inputs.append((name, signal.width))
    if outputs is None:
        input_names = {name for name, _w in inputs}
        outputs = sorted(
            (member.target.name, member.target.width)
            for member in design.members
            if member.target.name not in input_names
        )
    plan = plan_combinational(design, inputs, outputs)
    if plan is None:
        return None
    return _run_vectors(plan, vectors)


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


def _check_case(language, case_no: int, out_ports, expected, observed,
                suffix: str, lines: list[str]) -> int:
    """Emulate one case's checks; returns the number of failing checks."""
    from repro.eda.toolchain import Language

    failures = 0
    for name, spec_width in out_ports:
        want_raw = expected[name]
        want = want_raw & _mask(spec_width)
        got = observed[name]
        if language is Language.VERILOG:
            # `!==` case-compare against a fully-known literal
            if got.has_x or got.bits != want:
                failures += 1
                lines.append(
                    f"Test Case {case_no} Failed: {name} should be "
                    f"{want_raw}{suffix}, got {got.format('d')}"
                )
        else:
            # VHDL `/=` reports only when a *known* bit differs
            if (got.bits ^ want) & ~got.xmask & _mask(spec_width):
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
    ``None`` when the plan's kind does not match the bundle's or an
    evaluation aborts: the kernel then runs the testbench instead.
    """
    from repro.designs import tbgen
    from repro.eda.toolchain import Language

    if bundle.clocked != bool(plan.regs):
        return None
    language = bundle.language
    out_ports = [(p.name, p.width) for p in bundle.spec.outputs]
    lines: list[str] = []
    errors = 0
    n = len(bundle.stimulus)
    try:
        if bundle.clocked:
            reset_row, rows = _run_cycles(plan, bundle.stimulus)
        else:
            rows = _run_vectors(plan, bundle.stimulus)
    except SimulationError:
        return None
    if not bundle.clocked:
        for case_no, (row, expected) in enumerate(
            zip(rows, bundle.expected), start=1
        ):
            errors += _check_case(
                language, case_no, out_ports, expected, row, "", lines
            )
        end_time = n * tbgen.SETTLE_NS
    else:
        if bundle.reset_outputs is not None:
            errors += _check_case(
                language, 0, out_ports, bundle.reset_outputs, reset_row,
                " right after reset", lines,
            )
        for case_no, (row, expected) in enumerate(
            zip(rows, bundle.expected), start=1
        ):
            errors += _check_case(
                language, case_no, out_ports, expected, row,
                f" at cycle {case_no}", lines,
            )
        end_time = (
            tbgen.RESET_CYCLES * 2 * tbgen.HALF_PERIOD_NS
            + n * 2 * tbgen.HALF_PERIOD_NS
        )
    if errors == 0:
        lines.append(tbgen.PASS_MESSAGE)
    elif language is Language.VERILOG:
        lines.append(f"{errors} test case(s) failed.")
    else:
        lines.append("ERROR: Some test cases failed.")
    return BatchOutcome(
        output_lines=tuple(lines),
        end_time=end_time,
        finished_cleanly=language is Language.VERILOG,
        vectors=n,
    )
