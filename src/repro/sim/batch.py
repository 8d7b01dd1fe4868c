"""Batch stimulus evaluation: the second simulation path.

The event kernel replays a golden testbench one stimulus vector at a time:
drive, settle, check, repeat. For the designs the QA pipeline actually
generates — combinational cone members plus recognized synchronous
registers — the per-vector work is a pure function of the vector, so the
whole stimulus set can be evaluated in one pass instead.

This module plans and runs that pass:

* :func:`plan_combinational` orders the elaborators' cone members
  (:class:`~repro.sim.compile.level.ConeMember`, in ``Design.members``) by
  dataflow and compiles their two-state emits into one vector program
  (:mod:`repro.sim.compile.vector`), a plain Python loop over the stimulus
  set;
* :func:`plan_sequential` does the same for clocked designs whose
  edge-triggered processes were recognized as
  :class:`~repro.sim.runtime.SyncUpdate` register banks: one *transposed*
  sweep per clock edge over independent stimulus sequences, with the
  register columns carried between edges;
* :func:`run_bundle` evaluates a registered
  :class:`~repro.designs.tbgen.StimulusBundle` against a plan and emulates
  the testbench's checks exactly — same messages, same ordering, same
  end-of-log summary, same ``end_time`` — so the synthesized result is
  observationally identical to event-simulating the testbench text.

Per-vector X demotion: a combinational vector whose inputs carry X bits
cannot go through the two-state vector program. Such vectors (and only
such vectors) are demoted to a scalar four-state evaluation that runs the
design's own processes through the kernel's time-step machinery, so X
propagation stays bit-exact with the kernel. Bundles produced by
:func:`~repro.designs.tbgen.make_testbench` drive integer literals and
never demote; the demotion path exists for direct
:func:`simulate_vectors` callers.

Eligibility is conservative: a process that is neither a cone member nor
(for clocked plans) a recognized register bank, two writers of one net, a
combinational cycle, an emit that references a signal outside the planned
namespace (clocks, resets, undriven internals read by logic), a width
beyond the emit cap — each returns ``None`` and the caller falls back to
the event kernel. ``REPRO_SIM_NO_BATCH=1`` disables the tier wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.sim.compile.twostate import MAX_EMIT_WIDTH
from repro.sim.compile.vector import build_program
from repro.sim.kernel import Simulator
from repro.sim.runtime import Design, Signal
from repro.sim.values import Logic


def _mask(width: int) -> int:
    return (1 << width) - 1


# --------------------------------------------------------------------------
# cone lowering shared by both planners
# --------------------------------------------------------------------------


def _lower_cones(design: Design, names: dict[Signal, str]):
    """Dataflow-ordered vector assigns for every cone member.

    *names* maps externally-driven signals (inputs, registers) to their
    column variables; every member's target gets a fresh ``o{j}`` variable
    added to *names*. Returns ``(assigns, target_var)`` where *assigns* is
    the ordered ``(var, width, source, source_width)`` list for
    :func:`~repro.sim.compile.vector.build_program` and *target_var* maps
    each member-driven signal to its variable — or ``None`` when a target
    has two writers, is an input or a register, is wider than the emit
    cap, sits on a combinational cycle (a self-read included), or when a
    member has no two-state emit.
    """
    members = design.members
    producer: dict[Signal, int] = {}
    for j, member in enumerate(members):
        target = member.target
        if not 0 < target.width <= MAX_EMIT_WIDTH:
            return None
        if target in producer or target in names:
            return None
        producer[target] = j
    target_var = {member.target: f"o{j}" for j, member in enumerate(members)}
    names.update(target_var)
    # members arrive in elaboration order; lower them in dataflow order
    # (Kahn): a member is ready once every member-driven signal it reads
    # has been lowered
    waiting = [0] * len(members)
    consumers: list[list[int]] = [[] for _ in members]
    for j, member in enumerate(members):
        for signal in member.reads:
            k = producer.get(signal)
            if k is not None:
                waiting[j] += 1
                consumers[k].append(j)
    ready = [j for j, count in enumerate(waiting) if not count]
    assigns: list[tuple[str, int, str, int]] = []
    for j in ready:  # ready grows while it is walked
        target = members[j].target
        lowered = members[j].emit(names)
        if lowered is None:
            return None
        source, source_width = lowered
        assigns.append((target_var[target], target.width, source, source_width))
        for k in consumers[j]:
            waiting[k] -= 1
            if not waiting[k]:
                ready.append(k)
    if len(assigns) != len(members):
        return None  # the rest wait on a combinational cycle
    return assigns, target_var


def _input_bindings(design: Design, in_ports):
    """``(name, spec_width, signal, var)`` rows for the driven ports."""
    inputs = []
    names: dict[Signal, str] = {}
    for k, (name, spec_width) in enumerate(in_ports):
        signal = design.signals.get(name)
        if signal is None:
            return None
        var = f"i{k}"
        names[signal] = var
        inputs.append((name, spec_width, signal, var))
    return inputs, names


# --------------------------------------------------------------------------
# combinational plans
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CombPlan:
    """One compiled batch pass over a combinational design."""

    #: (port name, spec width, design signal, column var) per driven input
    inputs: tuple[tuple[str, int, Signal, str], ...]
    #: (port name, spec width, column var | None, static Logic | None) per
    #: observed output; undriven outputs carry their elaboration-time value
    outputs: tuple[tuple[str, int, str | None, Logic | None], ...]
    program: Callable


def plan_combinational(design: Design, in_ports, out_ports) -> CombPlan | None:
    """Compile a batch plan, or ``None`` when the design is not batchable.

    *in_ports* / *out_ports* are ``(name, width)`` pairs in testbench
    declaration order — the observation widths, which may differ from the
    design's own signal widths (the testbench connection resizes). Every
    process must belong to a cone member.
    """
    member_processes = {member.process for member in design.members}
    if any(p not in member_processes for p in design.processes):
        return None
    bound = _input_bindings(design, in_ports)
    if bound is None:
        return None
    inputs, names = bound
    lowered = _lower_cones(design, names)
    if lowered is None:
        return None
    assigns, target_var = lowered
    outputs = []
    results = []
    seen_result = set()
    for name, spec_width in out_ports:
        signal = design.signals.get(name)
        if signal is None:
            return None
        var = target_var.get(signal)
        if var is None:
            if signal in names:
                return None  # output aliases a driven input — not a QA shape
            outputs.append((name, spec_width, None, signal.value.resize(spec_width)))
        else:
            outputs.append((name, spec_width, var, None))
            if var not in seen_result:
                seen_result.add(var)
                results.append((var, signal.width))
    bindings = [(var, signal.width) for (_n, _w, signal, var) in inputs]
    program = build_program(bindings, assigns, results)
    if program is None:
        return None
    return CombPlan(tuple(inputs), tuple(outputs), program)


def _masked_column(values, spec_width: int, signal: Signal):
    """Ints as the design signal sees them, or ``None`` if any X is live."""
    spec_mask = _mask(spec_width)
    design_mask = _mask(signal.width)
    column = []
    for value in values:
        if isinstance(value, Logic):
            if value.has_x:
                return None
            value = value.bits
        column.append(value & spec_mask & design_mask)
    return column


def _scalar_session(design: Design) -> Simulator:
    """A settled four-state evaluation session over the design's processes."""
    sim = Simulator(design)
    for process in design.processes:
        process.start(sim)
    sim._active.extend(design.processes)
    sim._run_time_step()
    return sim


def run_vectors(plan: CombPlan, vectors, design: Design | None = None):
    """Evaluate *vectors* through the plan.

    Returns ``(rows, demotions)``: one ``{port: int | Logic}`` dict per
    vector (ints for two-state results, Logic where X is involved) and the
    count of vectors demoted to the scalar four-state path. *design* is only
    required when demotion is possible — bundle stimulus is pure ints and
    never demotes.
    """
    n = len(vectors)
    spec_widths = {name: w for name, w, _s, _v in plan.inputs}
    demoted = []
    for index, vector in enumerate(vectors):
        for name, _w, _s, _var in plan.inputs:
            value = vector.get(name)
            if value is None:
                raise KeyError(f"vector {index} missing input {name!r}")
            if isinstance(value, Logic) and value.has_x:
                demoted.append(index)
                break
    demoted_set = set(demoted)
    kept = [i for i in range(n) if i not in demoted_set]
    rows: list[dict | None] = [None] * n
    if kept:
        columns = {}
        for name, spec_width, signal, var in plan.inputs:
            column = _masked_column(
                [vectors[i][name] for i in kept], spec_width, signal
            )
            assert column is not None  # X-carrying vectors were demoted
            columns[var] = column
        out = plan.program(columns, len(kept))
        for slot, index in enumerate(kept):
            row = {}
            for name, spec_width, var, static in plan.outputs:
                if var is None:
                    row[name] = static
                else:
                    row[name] = out[var][slot] & _mask(spec_width)
            rows[index] = row
    if demoted:
        if design is None:
            raise ValueError("X-carrying vectors require the design for demotion")
        sim = _scalar_session(design)
        for index in demoted:
            vector = vectors[index]
            for name, spec_width, signal, _var in plan.inputs:
                value = vector[name]
                if not isinstance(value, Logic):
                    value = Logic._make(spec_width, value & _mask(spec_width), 0)
                sim.write_signal(signal, value.resize(signal.width))
            sim._run_time_step()
            row = {}
            for name, spec_width, var, static in plan.outputs:
                if var is None:
                    row[name] = static
                else:
                    row[name] = design.signals[name].value.resize(spec_width)
            rows[index] = row
    return rows, len(demoted)


@dataclass(frozen=True)
class BatchRun:
    """Result of :func:`simulate_vectors`."""

    values: tuple[dict, ...]
    demotions: int


def simulate_vectors(design: Design, vectors, *, inputs=None, outputs=None):
    """Batch-evaluate a combinational design over a stimulus set.

    *vectors* is a sequence of ``{input: int | Logic}`` dicts. *inputs* /
    *outputs* are ``(name, width)`` pairs; when omitted, inputs are derived
    from the first vector's keys (at design widths) and outputs are every
    member-driven signal that is not an input. Returns a :class:`BatchRun`
    (``values[i][port]`` is an int, or a Logic when X was involved), or
    ``None`` when the design is not batchable.
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
    rows, demotions = run_vectors(plan, list(vectors), design)
    return BatchRun(tuple(rows), demotions)


# --------------------------------------------------------------------------
# sequential plans
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SeqPlan:
    """One compiled per-edge batch pass over a clocked design."""

    inputs: tuple[tuple[str, int, Signal, str], ...]
    #: (port name, spec width, kind, payload): kind is "reg" (payload = reg
    #: column var), "cone" (payload = out_program column var), or "static"
    #: (payload = elaboration-time Logic for undriven outputs)
    outputs: tuple[tuple[str, int, str, object], ...]
    #: (reg column var, next column var, width, reset bits) per register
    regs: tuple[tuple[str, str, int, int], ...]
    #: inputs + old regs -> next-state register columns
    cycle_program: Callable
    #: inputs + (new) regs -> observed cone outputs; None when every output
    #: is a register or static
    out_program: Callable | None


def plan_sequential(design: Design, in_ports, out_ports) -> SeqPlan | None:
    """Compile a per-edge batch plan, or ``None`` when not batchable.

    Requires every process outside the cone members to have been
    recognized as a :class:`~repro.sim.runtime.SyncUpdate` sharing the
    design's ``clk`` / ``rst`` signals, and no member to read the clock or
    reset (their settle points would then depend on testbench scheduling
    order, which the batch pass does not model).
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
    targets = [r.target for r in sync_regs]
    if len(set(targets)) != len(targets):
        return None
    if clk in targets or rst in targets:
        return None
    bound = _input_bindings(design, in_ports)
    if bound is None:
        return None
    inputs, names = bound
    if clk in names or rst in names:
        return None
    regs = []
    for m, sync_reg in enumerate(sync_regs):
        target = sync_reg.target
        if target in names:
            return None
        names[target] = f"r{m}"
        regs.append((f"r{m}", f"nr{m}", target.width, sync_reg.reset_bits))
    # members must be pure functions of inputs and registers — reading
    # clk/rst would observe testbench scheduling, which this pass does not
    # replay
    for member in design.members:
        if clk in member.reads or rst in member.reads:
            return None
    lowered = _lower_cones(design, names)
    if lowered is None:
        return None
    cone_assigns, target_var = lowered
    next_assigns = []
    for (var, next_var, width, _reset), sync_reg in zip(regs, sync_regs):
        emitted = sync_reg.emit(names)
        if emitted is None:
            return None
        source, source_width = emitted
        next_assigns.append((next_var, width, source, source_width))
    reg_by_target = {r.target: row for r, row in zip(sync_regs, regs)}
    outputs = []
    cone_results = []
    seen_result = set()
    for name, spec_width in out_ports:
        signal = design.signals.get(name)
        if signal is None:
            return None
        reg_row = reg_by_target.get(signal)
        if reg_row is not None:
            outputs.append((name, spec_width, "reg", reg_row[0]))
            continue
        var = target_var.get(signal)
        if var is not None:
            outputs.append((name, spec_width, "cone", var))
            if var not in seen_result:
                seen_result.add(var)
                cone_results.append((var, signal.width))
            continue
        if signal in names:
            return None  # output aliases a driven input
        outputs.append((name, spec_width, "static", signal.value.resize(spec_width)))
    bindings = [(var, signal.width) for (_n, _w, signal, var) in inputs]
    bindings += [(var, width) for (var, _nv, width, _r) in regs]
    cycle_program = build_program(
        bindings,
        cone_assigns + next_assigns,
        [(next_var, width) for (_v, next_var, width, _r) in regs],
    )
    if cycle_program is None:
        return None
    out_program = None
    if cone_results:
        out_program = build_program(bindings, cone_assigns, cone_results)
        if out_program is None:
            return None
    return SeqPlan(
        tuple(inputs),
        tuple(outputs),
        tuple(regs),
        cycle_program,
        out_program,
    )


def _seq_observe(plan: SeqPlan, input_cols, reg_cols, lanes: int):
    """Observed output columns for the current (post-edge) state."""
    cone_cols = {}
    if plan.out_program is not None:
        cone_cols = plan.out_program({**input_cols, **reg_cols}, lanes)
    observed = {}
    for name, spec_width, kind, payload in plan.outputs:
        mask = _mask(spec_width)
        if kind == "reg":
            observed[name] = [v & mask for v in reg_cols[payload]]
        elif kind == "cone":
            observed[name] = [v & mask for v in cone_cols[payload]]
        else:
            observed[name] = [payload] * lanes
    return observed


def run_sequences(plan: SeqPlan, sequences, *, observe_reset: bool = False):
    """Run independent stimulus *sequences* through a sequential plan.

    Every sequence is a list of per-cycle ``{input: int}`` dicts; all
    sequences must have equal length. Returns ``(reset_row, cycles)`` where
    *cycles[t][port][lane]* is the post-edge observation for cycle ``t`` and
    *reset_row* is the same shape observed right after reset (inputs zero,
    registers at their reset values) — ``None`` unless *observe_reset*.

    X-carrying values are not accepted here: a clocked design carries state
    across cycles, so one X vector would contaminate a whole lane; callers
    keep such sequences on the event kernel.
    """
    lanes = len(sequences)
    if lanes == 0:
        return (None, [])
    length = len(sequences[0])
    if any(len(seq) != length for seq in sequences):
        raise ValueError("all sequences must have equal length")
    reg_cols = {
        var: [reset_bits] * lanes for (var, _nv, _w, reset_bits) in plan.regs
    }
    reset_row = None
    if observe_reset:
        zero_cols = {var: [0] * lanes for (_n, _w, _s, var) in plan.inputs}
        reset_row = _seq_observe(plan, zero_cols, reg_cols, lanes)
    cycles = []
    for t in range(length):
        input_cols = {}
        for name, spec_width, signal, var in plan.inputs:
            column = _masked_column(
                [seq[t][name] for seq in sequences], spec_width, signal
            )
            if column is None:
                raise ValueError("X-carrying sequential stimulus is not batchable")
            input_cols[var] = column
        next_cols = plan.cycle_program({**input_cols, **reg_cols}, lanes)
        reg_cols = {
            var: next_cols[next_var]
            for (var, next_var, _w, _r) in plan.regs
        }
        cycles.append(_seq_observe(plan, input_cols, reg_cols, lanes))
    return reset_row, cycles


def simulate_sequences(design: Design, sequences, *, inputs, outputs,
                       observe_reset: bool = False):
    """Plan and run independent stimulus sequences over a clocked design.

    ``None`` when the design is not batchable; otherwise the
    ``(reset_row, cycles)`` pair from :func:`run_sequences`.
    """
    plan = plan_sequential(design, inputs, outputs)
    if plan is None:
        return None
    return run_sequences(plan, sequences, observe_reset=observe_reset)


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
    demotions: int


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
            if isinstance(got, Logic):
                fail = got.has_x or got.bits != want
                got_str = got.format("d")
            else:
                fail = got != want
                got_str = str(got)
            if fail:
                failures += 1
                lines.append(
                    f"Test Case {case_no} Failed: {name} should be "
                    f"{want_raw}{suffix}, got {got_str}"
                )
        else:
            # VHDL `/=` reports only when a *known* bit differs
            if isinstance(got, Logic):
                fail = bool((got.bits ^ want) & ~got.xmask & _mask(spec_width))
            else:
                fail = got != want
            if fail:
                failures += 1
                lines.append(
                    f"ERROR: Test Case {case_no} Failed: {name} should be "
                    f"{want_raw}{suffix}"
                )
    return failures


def run_bundle(plan, bundle) -> BatchOutcome | None:
    """Evaluate a testbench bundle against its plan.

    Emulates the generated testbench's drive/settle/check schedule over the
    batch results, producing the exact output lines, end time, and
    clean-finish flag the event kernel would report for the same text.
    """
    from repro.designs import tbgen
    from repro.eda.toolchain import Language

    language = bundle.language
    out_ports = [(p.name, p.width) for p in bundle.spec.outputs]
    lines: list[str] = []
    errors = 0
    demotions = 0
    n = len(bundle.stimulus)
    if not bundle.clocked:
        if not isinstance(plan, CombPlan):
            return None
        rows, demotions = run_vectors(plan, list(bundle.stimulus))
        for case_no, (row, expected) in enumerate(
            zip(rows, bundle.expected), start=1
        ):
            errors += _check_case(
                language, case_no, out_ports, expected, row, "", lines
            )
        end_time = n * tbgen.SETTLE_NS
    else:
        if not isinstance(plan, SeqPlan):
            return None
        observe_reset = bundle.reset_outputs is not None
        reset_row, cycles = run_sequences(
            plan, [list(bundle.stimulus)], observe_reset=observe_reset
        )
        if observe_reset:
            observed = {name: col[0] for name, col in reset_row.items()}
            errors += _check_case(
                language, 0, out_ports, bundle.reset_outputs, observed,
                " right after reset", lines,
            )
        for case_no, (cycle, expected) in enumerate(
            zip(cycles, bundle.expected), start=1
        ):
            observed = {name: col[0] for name, col in cycle.items()}
            errors += _check_case(
                language, case_no, out_ports, expected, observed,
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
        demotions=demotions,
    )
