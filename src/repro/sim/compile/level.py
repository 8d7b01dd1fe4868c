"""Cone members and register banks: what the batch tier plans from.

The batch tier (:mod:`repro.sim.batch`) evaluates a whole stimulus set in
one pass instead of replaying it through the event kernel. It can do so
only for designs whose every process is one of two recognized shapes, and
the elaborators record both shapes here, next to the process the kernel
runs:

* a :class:`ConeMember` is a pure, single-target combinational process —
  a Verilog continuous assign or port wiring, a VHDL concurrent or
  conditional assignment or port wiring — with its read set and a
  two-state ``emit`` of its value (:mod:`.twostate`). The elaborators
  append one to ``Design.members`` per nominated process, in elaboration
  order;
* a :class:`~repro.sim.runtime.SyncUpdate` is a canonical synchronous-reset
  register bank, recorded in ``Design.sync_updates``.

Nothing here compiles anything: a member builder only checks the shape
and resolves the target, and ``emit`` runs when a plan is built. Whether
the members form a plannable design — one writer per net, targets that
are neither inputs nor registers, no combinational cycle (a self-read
included), an emit for every member, targets no wider than the emit cap —
is the planner's to decide (``repro.sim.batch._lower_cones``); the kernel
runs every process as its own closure either way.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.runtime import Process, Signal


class ConeMember:
    """One batch-plannable combinational process.

    * ``reads`` — the signals its value depends on;
    * ``target`` — the one signal it drives, whole;
    * ``emit(names)`` — two-state ``(source, width)`` for the value over
      the int locals in *names* (a ``Signal`` → variable-name map), or
      ``None`` when the expression has no two-state lowering.
    """

    __slots__ = ("process", "reads", "target", "emit")

    def __init__(
        self,
        process: Process,
        reads: frozenset[Signal],
        target: Signal,
        emit: Callable,
    ):
        self.process = process
        self.reads = reads
        self.target = target
        self.emit = emit

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ConeMember({self.process.name})"


def _port_emit(child: Signal, parent: Signal) -> Callable:
    """Emit for an output-port wire: the child's value at the parent width."""
    from repro.sim.compile import twostate as ts

    def emit(names):
        local = names.get(child)
        if local is None or child.width > ts.MAX_EMIT_WIDTH:
            return None
        if child.width > parent.width:
            return f"({local} & {(1 << parent.width) - 1})", parent.width
        return local, child.width

    return emit


# -- member builders (Verilog) -------------------------------------------------


def _verilog_whole_signal(target, scope) -> Signal | None:
    """The signal a whole-identifier lvalue names, else None."""
    from repro.verilog import ast as vast

    if not isinstance(target, vast.Identifier):
        return None
    resolved = scope.resolve(target.name)
    return resolved if isinstance(resolved, Signal) else None


def _verilog_emit(expr, scope, ctxw) -> Callable:
    from repro.sim.compile import twostate as ts

    return lambda names: ts.verilog_expr(expr, scope, ctxw, names)


def verilog_assign_member(process, target, value, scope, reads):
    """ConeMember for ``assign identifier = value``, or None."""
    if _verilog_impure_expr(value):
        return None
    signal = _verilog_whole_signal(target, scope)
    if signal is None:
        return None
    emit = _verilog_emit(value, scope, signal.width)
    return ConeMember(process, frozenset(reads), signal, emit)


def verilog_wire_input_member(process, expr, child, scope, reads):
    """ConeMember for an instance input-port wire, or None."""
    if _verilog_impure_expr(expr):
        return None
    emit = _verilog_emit(expr, scope, child.width)
    return ConeMember(process, frozenset(reads), child, emit)


def verilog_wire_output_member(process, target, child, scope):
    """ConeMember for a whole-signal output-port wire, or None."""
    parent = _verilog_whole_signal(target, scope)
    if parent is None:
        return None
    return ConeMember(process, frozenset((child,)), parent,
                      _port_emit(child, parent))


# -- synchronous-update recognizers (batch tier) --------------------------------
#
# The batch tier advances clocked designs one edge at a time without the
# event kernel, which requires knowing exactly what a ``posedge clk`` process
# does. These recognizers accept only the canonical synchronous-reset
# register-bank shape (the one tbgen-verified designs and the QA renderers
# produce) and record a :class:`~repro.sim.runtime.SyncUpdate`; anything else
# returns None and the design simply stays ineligible for batching.


def _eval_const_source(src: str) -> int | None:
    """Evaluate an emitted expression that read no signals (a constant)."""
    try:
        value = eval(src, {"__builtins__": {}}, {})  # noqa: S307 - our codegen
    except Exception:
        return None
    return value if isinstance(value, int) else None


def verilog_sync_update(process, entries, body, scope):
    """Recognize ``always @(posedge clk) if (rst) <consts> else <nbas>``."""
    from repro.sim.compile import twostate as ts
    from repro.sim.runtime import Edge, SyncReg, SyncUpdate
    from repro.verilog import ast as vast

    if len(entries) != 1 or entries[0].edge is not Edge.POS:
        return None
    clock = entries[0].signal

    def nba_list(stmt):
        """Flatten to [(target Signal, value expr)], or None on any surprise."""
        out = []
        stack = [stmt]
        while stack:
            node = stack.pop(0)
            if isinstance(node, vast.Block):
                stack[0:0] = list(node.statements)
            elif isinstance(node, vast.Assign):
                if node.blocking or not isinstance(node.target, vast.Identifier):
                    return None
                target = scope.resolve(node.target.name)
                if not isinstance(target, Signal):
                    return None
                if target.width > ts.MAX_EMIT_WIDTH:
                    return None
                out.append((target, node.value))
            elif isinstance(node, vast.NullStatement):
                pass
            else:
                return None
        return out

    node = body
    while isinstance(node, vast.Block) and len(node.statements) == 1:
        node = node.statements[0]
    if not isinstance(node, vast.If) or node.else_branch is None:
        return None
    if not isinstance(node.condition, vast.Identifier):
        return None
    reset = scope.resolve(node.condition.name)
    if not isinstance(reset, Signal):
        return None
    then_assigns = nba_list(node.then_branch)
    else_assigns = nba_list(node.else_branch)
    if not then_assigns or not else_assigns:
        return None
    resets: dict[Signal, int] = {}
    for target, value in then_assigns:
        emitted = ts.verilog_expr(value, scope, target.width, {})
        if emitted is None:
            return None
        const = _eval_const_source(emitted[0])
        if const is None:
            return None
        resets[target] = const & ((1 << target.width) - 1)
    regs = []
    seen: set[Signal] = set()
    for target, value in else_assigns:
        if target in seen or target not in resets:
            return None
        seen.add(target)

        def emit(names, value=value, scope=scope, ctxw=target.width):
            return ts.verilog_expr(value, scope, ctxw, names)

        regs.append(SyncReg(target, resets[target], emit))
    if seen != set(resets):
        return None
    return SyncUpdate(process, clock, reset, tuple(regs))


def vhdl_sync_update(process, proc_ast, scope, resolve):
    """Recognize ``process(clk) if rising_edge(clk) then if rst = '1' ...``."""
    from repro.sim.compile import twostate as ts
    from repro.sim.runtime import SyncReg, SyncUpdate
    from repro.vhdl import ast as vast

    def rising_edge_clk(cond):
        if isinstance(cond, vast.Indexed) and cond.name == "rising_edge":
            arg = cond.index
        elif (
            isinstance(cond, vast.Call)
            and cond.name == "rising_edge"
            and len(cond.args) == 1
        ):
            arg = cond.args[0]
        else:
            return None
        return arg.name if isinstance(arg, vast.Name) else None

    def assign_list(stmts):
        """Flatten to [(target Signal, value expr)], or None on any surprise."""
        out = []
        for stmt in stmts:
            if isinstance(stmt, vast.NullStatement):
                continue
            if not isinstance(stmt, vast.SignalAssign) or stmt.after is not None:
                return None
            if not isinstance(stmt.target, vast.Name):
                return None
            target = resolve(stmt.target.name)
            if not isinstance(target, Signal):
                return None
            if target.width > ts.MAX_EMIT_WIDTH:
                return None
            out.append((target, stmt.value))
        return out

    def reset_const(value, width):
        if isinstance(value, vast.Aggregate) and not value.elements:
            if isinstance(value.others, vast.CharLiteral):
                if value.others.value == "0":
                    return 0
                if value.others.value == "1":
                    return (1 << width) - 1
            return None
        emitted = ts.vhdl_expr(value, scope, width, {})
        if emitted is None:
            return None
        const = _eval_const_source(emitted[0])
        if const is None:
            return None
        return const & ((1 << width) - 1)

    if proc_ast.declarations or len(proc_ast.body) != 1:
        return None
    outer = proc_ast.body[0]
    if not isinstance(outer, vast.IfStatement):
        return None
    if outer.else_body or len(outer.arms) != 1:
        return None
    cond, body = outer.arms[0]
    clk_name = rising_edge_clk(cond)
    if clk_name is None or tuple(proc_ast.sensitivity) != (clk_name,):
        return None
    clock = resolve(clk_name)
    if not isinstance(clock, Signal):
        return None
    if len(body) != 1 or not isinstance(body[0], vast.IfStatement):
        return None
    inner = body[0]
    if len(inner.arms) != 1:
        return None
    rcond, rbody = inner.arms[0]
    if not (isinstance(rcond, vast.Binary) and rcond.op == "="):
        return None
    if not isinstance(rcond.lhs, vast.Name):
        return None
    if not (isinstance(rcond.rhs, vast.CharLiteral) and rcond.rhs.value == "1"):
        return None
    reset = resolve(rcond.lhs.name)
    if not isinstance(reset, Signal):
        return None
    then_assigns = assign_list(rbody)
    else_assigns = assign_list(inner.else_body)
    if not then_assigns or not else_assigns:
        return None
    resets: dict[Signal, int] = {}
    for target, value in then_assigns:
        const = reset_const(value, target.width)
        if const is None:
            return None
        resets[target] = const
    regs = []
    seen: set[Signal] = set()
    for target, value in else_assigns:
        if target in seen or target not in resets:
            return None
        seen.add(target)

        def emit(names, value=value, scope=scope, width=target.width):
            return ts.vhdl_expr(value, scope, width, names)

        regs.append(SyncReg(target, resets[target], emit))
    if seen != set(resets):
        return None
    return SyncUpdate(process, clock, reset, tuple(regs))


def _verilog_impure_expr(expr) -> bool:
    """True if evaluating *expr* has side effects ($random advances a LCG)."""
    from repro.verilog import ast as vast

    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, vast.SystemFunctionCall):
            if node.name in ("$random", "$time"):
                return True
            stack.extend(node.args)
        elif isinstance(node, vast.Unary):
            stack.append(node.operand)
        elif isinstance(node, vast.Binary):
            stack.extend((node.lhs, node.rhs))
        elif isinstance(node, vast.Ternary):
            stack.extend((node.cond, node.if_true, node.if_false))
        elif isinstance(node, vast.Concat):
            stack.extend(node.parts)
        elif isinstance(node, vast.Replicate):
            stack.extend((node.count, node.value))
        elif isinstance(node, vast.BitSelect):
            stack.append(node.index)
        elif isinstance(node, vast.PartSelect):
            stack.extend((node.msb, node.lsb))
        elif isinstance(node, vast.IndexedPartSelect):
            stack.extend((node.base, node.width))
    return False


# -- member builders (VHDL) ----------------------------------------------------


def _vhdl_whole_signal(target, scope) -> Signal | None:
    """The signal a plain-name target names, else None."""
    from repro.vhdl import ast as hast

    if not isinstance(target, hast.Name):
        return None
    return scope.signals.get(target.name)


def _vhdl_emit(expr, scope, width) -> Callable:
    from repro.sim.compile import twostate as ts

    return lambda names: ts.vhdl_expr(expr, scope, width, names)


def vhdl_concurrent_member(process, statement, scope, reads, width):
    """ConeMember for a plain concurrent assignment, or None."""
    signal = _vhdl_whole_signal(statement.target, scope)
    if signal is None:
        return None
    emit = _vhdl_emit(statement.value, scope, width)
    return ConeMember(process, frozenset(reads), signal, emit)


def vhdl_conditional_member(process, statement, scope, reads, width):
    """ConeMember for a conditional concurrent assignment, or None."""
    if statement.otherwise is None:
        return None  # without a final else the write is conditional
    signal = _vhdl_whole_signal(statement.target, scope)
    if signal is None:
        return None

    def emit(names):
        from repro.sim.compile import twostate as ts

        # nested conditional expression; with fully-known inputs the first
        # true condition picks the value, mirroring the factory's arm scan
        otherwise = ts.vhdl_expr(statement.otherwise, scope, width, names)
        if otherwise is None:
            return None
        src, w = otherwise
        for value, condition in reversed(statement.arms):
            value_e = ts.vhdl_expr(value, scope, width, names)
            cond_e = ts.vhdl_expr(condition, scope, None, names)
            if value_e is None or cond_e is None:
                return None
            v_src, v_w = value_e
            src = f"({v_src} if {cond_e[0]} else {src})"
            w = max(w, v_w)
        return src, w

    return ConeMember(process, frozenset(reads), signal, emit)


def vhdl_wire_input_member(process, expr, child, scope, reads):
    """ConeMember for an instantiation input-port wire."""
    emit = _vhdl_emit(expr, scope, child.width)
    return ConeMember(process, frozenset(reads), child, emit)


def vhdl_wire_output_member(process, target, child, scope):
    """ConeMember for a whole-signal output-port wire, or None."""
    parent = _vhdl_whole_signal(target, scope)
    if parent is None:
        return None
    return ConeMember(process, frozenset((child,)), parent,
                      _port_emit(child, parent))
