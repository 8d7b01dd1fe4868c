"""Cone members and register banks: what the batch tier plans from.

The batch tier (:mod:`repro.sim.batch`) evaluates a whole stimulus set in
one pass instead of replaying it through the event kernel. It can do so
only for designs whose every process is one of two recognized shapes, and
the elaborators record both shapes here, next to the process the kernel
runs:

* a :class:`ConeMember` is a single-target combinational process — a
  Verilog continuous assign or port wiring, a VHDL concurrent or
  conditional assignment or port wiring — with its read set and a
  ``build()`` that compiles its value with the kernel's own closure
  compiler. The elaborators append one to ``Design.members`` per
  nominated process, in elaboration order;
* a :class:`~repro.sim.runtime.SyncUpdate` is a canonical synchronous-reset
  register bank, recorded in ``Design.sync_updates``.

The batch tier evaluates a member only on *settled* values, while the
kernel also runs it on values that have not settled yet: at time 0 on
``'U'`` inputs that a VHDL testbench drives through the nonblocking
region, and whenever its last-in, first-out active list runs an assign
before the one that drives its operand. A value must therefore be a
function of settled values. The compilers say when it is not: the
branches that emit a closure which can abort on some operand values (a
dynamic replication count, part-select, slice or resize length) or reads
simulator state (``$random``, ``$time``, edge functions and attributes)
set the elaborator's ``unsettled`` flag, and ``build()`` then returns
None, which the planner refuses like a process that is no member. A
construct the compilers fold statically takes no such branch.

Nothing here compiles a process body: a member builder checks the shape
and resolves the target, and ``build()`` runs when a plan is built.
Whether the members form a plannable design — one writer per net, targets
that are neither inputs nor registers, no combinational cycle (a
self-read included) — is the planner's to decide; the kernel runs every
process as its own closure either way.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.sim.runtime import Process, Signal


class ConeMember:
    """One batch-plannable combinational process.

    * ``reads`` — the signals its value depends on;
    * ``target`` — the one signal it drives, whole;
    * ``build()`` — compiles the value: returns a callable that takes no
      arguments and returns the member's current four-state value, which
      its process writes to ``target`` (resizing as the kernel does), or
      None when the value is not a function of settled values.
    """

    __slots__ = ("process", "reads", "target", "build")

    def __init__(
        self,
        process: Process,
        reads: frozenset[Signal],
        target: Signal,
        build: Callable[[], Callable],
    ):
        self.process = process
        self.reads = reads
        self.target = target
        self.build = build

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ConeMember({self.process.name})"


def _settled(elab, compile_value, ctx):
    """``build()``'s result: the value *compile_value* compiles, bound to
    *ctx*, or None when the compiler set ``elab.unsettled`` for it."""
    elab.unsettled = False
    value = compile_value()
    return None if elab.unsettled else partial(value, ctx)


def _port_member(process, child: Signal, parent: Signal) -> ConeMember:
    """An output-port wire: the parent takes the child's value."""

    def build():
        return lambda: child._value

    return ConeMember(process, frozenset((child,)), parent, build)


# -- member builders (Verilog) -------------------------------------------------


def _verilog_whole_signal(target, scope) -> Signal | None:
    """The signal a whole-identifier lvalue names, else None."""
    from repro.verilog import ast as vast

    if not isinstance(target, vast.Identifier):
        return None
    resolved = scope.resolve(target.name)
    return resolved if isinstance(resolved, Signal) else None


def _verilog_build(expr, scope, elab, ctxw) -> Callable:
    """``build()`` for a Verilog value compiled at context width *ctxw*."""

    def build():
        from repro.sim.compile import verilog as cv

        return _settled(
            elab, lambda: cv.compile_expr(expr, scope, elab, ctxw), None
        )

    return build


def verilog_assign_member(process, target, value, scope, reads, elab):
    """ConeMember for ``assign identifier = value``, or None."""
    signal = _verilog_whole_signal(target, scope)
    if signal is None:
        return None
    build = _verilog_build(value, scope, elab, signal.width)
    return ConeMember(process, frozenset(reads), signal, build)


def verilog_wire_input_member(process, expr, child, scope, reads, elab):
    """ConeMember for an instance input-port wire."""
    build = _verilog_build(expr, scope, elab, child.width)
    return ConeMember(process, frozenset(reads), child, build)


def verilog_wire_output_member(process, target, child, scope):
    """ConeMember for a whole-signal output-port wire, or None."""
    parent = _verilog_whole_signal(target, scope)
    if parent is None:
        return None
    return _port_member(process, child, parent)


# -- synchronous-update recognizers (batch tier) --------------------------------
#
# The batch tier advances clocked designs one edge at a time without the
# event kernel, which requires knowing exactly what a ``posedge clk`` process
# does. These recognizers accept only the canonical synchronous-reset
# register-bank shape (the one tbgen-verified designs and the QA renderers
# produce) and record a :class:`~repro.sim.runtime.SyncUpdate`; anything else
# returns None and the design simply stays ineligible for batching. Reset
# values fold through the compilers; next-state values compile at the
# register's width, as the kernel's nonblocking assign does.


def verilog_sync_update(process, entries, body, scope, elab):
    """Recognize ``always @(posedge clk) if (rst) <consts> else <nbas>``."""
    from repro.sim.compile.verilog import _fold
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
    resets = {}
    for target, value in then_assigns:
        const = _fold(value, scope, target.width)
        if const is None:
            return None
        resets[target] = const.resize(target.width)
    regs = []
    seen: set[Signal] = set()
    for target, value in else_assigns:
        if target in seen or target not in resets:
            return None
        seen.add(target)
        reads = frozenset(elab._read_set(value, scope))
        build = _verilog_build(value, scope, elab, target.width)
        regs.append(SyncReg(target, resets[target], reads, build))
    if seen != set(resets):
        return None
    return SyncUpdate(process, clock, reset, tuple(regs))


def vhdl_sync_update(process, proc_ast, scope, elab):
    """Recognize ``process(clk) if rising_edge(clk) then if rst = '1' ...``."""
    from repro.sim.compile import vhdl as cvh
    from repro.sim.elab_vhdl import _collect_reads
    from repro.sim.runtime import SyncReg, SyncUpdate
    from repro.vhdl import ast as vast

    env = cvh._Env(scope, elab)

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
            target = scope.signals.get(stmt.target.name)
            if target is None:
                return None
            out.append((target, stmt.value))
        return out

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
    clock = scope.signals.get(clk_name)
    if clock is None:
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
    reset = scope.signals.get(rcond.lhs.name)
    if reset is None:
        return None
    then_assigns = assign_list(rbody)
    else_assigns = assign_list(inner.else_body)
    if not then_assigns or not else_assigns:
        return None
    resets = {}
    for target, value in then_assigns:
        const = cvh._const_of(cvh.compile_with_width(value, env, target.width))
        if const is None:
            return None
        resets[target] = const.resize(target.width)
    regs = []
    seen: set[Signal] = set()
    for target, value in else_assigns:
        if target in seen or target not in resets:
            return None
        seen.add(target)
        reads: set[Signal] = set()
        _collect_reads(value, scope, reads)
        build = _vhdl_build(value, scope, elab, target.width)
        regs.append(SyncReg(target, resets[target], frozenset(reads), build))
    if seen != set(resets):
        return None
    return SyncUpdate(process, clock, reset, tuple(regs))


# -- member builders (VHDL) ----------------------------------------------------


def _vhdl_whole_signal(target, scope) -> Signal | None:
    """The signal a plain-name target names, else None."""
    from repro.vhdl import ast as hast

    if not isinstance(target, hast.Name):
        return None
    return scope.signals.get(target.name)


def _vhdl_ctx(scope):
    """A simulator-less evaluation context for concurrent-statement values."""
    from repro.sim.elab_vhdl import _EvalCtx

    return _EvalCtx(scope=scope, sim=None)


def _vhdl_build(expr, scope, elab, width) -> Callable:
    """``build()`` for a VHDL value compiled with *width* as its context."""

    def build():
        from repro.sim.compile import vhdl as cvh

        env = cvh._Env(scope, elab)
        return _settled(
            elab, lambda: cvh.compile_with_width(expr, env, width),
            _vhdl_ctx(scope),
        )

    return build


def vhdl_concurrent_member(process, statement, scope, reads, width, elab):
    """ConeMember for a plain concurrent assignment, or None."""
    signal = _vhdl_whole_signal(statement.target, scope)
    if signal is None:
        return None
    build = _vhdl_build(statement.value, scope, elab, width)
    return ConeMember(process, frozenset(reads), signal, build)


def vhdl_conditional_member(process, statement, scope, reads, width, elab):
    """ConeMember for a conditional concurrent assignment, or None."""
    from repro.sim.compile import vhdl as cvh

    if statement.otherwise is None:
        return None  # without a final else the write is conditional
    signal = _vhdl_whole_signal(statement.target, scope)
    if signal is None:
        return None

    def build():
        env = cvh._Env(scope, elab)
        return _settled(
            elab, lambda: cvh.conditional_value(statement, env, width),
            _vhdl_ctx(scope),
        )

    return ConeMember(process, frozenset(reads), signal, build)


def vhdl_wire_input_member(process, expr, child, scope, reads, elab):
    """ConeMember for an instantiation input-port wire."""
    build = _vhdl_build(expr, scope, elab, child.width)
    return ConeMember(process, frozenset(reads), child, build)


def vhdl_wire_output_member(process, target, child, scope):
    """ConeMember for a whole-signal output-port wire, or None."""
    parent = _vhdl_whole_signal(target, scope)
    if parent is None:
        return None
    return _port_member(process, child, parent)
