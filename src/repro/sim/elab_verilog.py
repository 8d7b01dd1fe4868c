"""Elaboration: Verilog AST → simulation-ready :class:`~repro.sim.runtime.Design`.

The elaborator instantiates the module hierarchy (flattening instance names
with a ``dot`` separator), sizes every signal from its declared range under
the active parameter environment, and hands procedural code to
:mod:`repro.sim.compile.verilog`, which compiles each body into a generator
process for the shared kernel when the process first starts:

* ``assign`` → a process that re-evaluates on any change of its read set;
* ``always @(...)`` → wait-then-execute loop (``@(*)`` runs once at time 0 so
  purely constant logic still settles);
* ``initial`` → run-once process;
* instantiations → child design merged in, with port-connection processes.

Elaboration-time problems (bad widths, non-constant bounds, unsupported
targets) are emitted as diagnostics, never exceptions: the toolchain reports
them in the compile log like any other error. Constant expressions are
evaluated by calling their compiled closures with no simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.source import SourceFile
from repro.sim import compile as simcompile
from repro.sim.kernel import SimulationError
from repro.sim.runtime import (
    Design,
    Edge,
    ProcessFacts,
    Sensitivity,
    Signal,
    meet,
    wait_on,
)
from repro.sim.values import Logic
from repro.verilog import ast

_CODE_ELAB = "VRFC 10-3370"

#: hierarchy separator in flattened signal names
SEP = "."


class _ElabAbort(SimulationError):
    """Elaboration/evaluation of the current item failed (diagnostic emitted).

    Subclasses :class:`SimulationError` so aborts raised while *executing*
    defective generated code terminate the simulation with a reportable
    error instead of crashing the kernel.
    """


@dataclass
class _Scope:
    """One elaborated module instance: its signals and parameter bindings."""

    module: ast.Module
    prefix: str
    signals: dict[str, Signal] = field(default_factory=dict)
    params: dict[str, Logic] = field(default_factory=dict)

    def resolve(self, name: str) -> Signal | Logic | None:
        if name in self.params:
            return self.params[name]
        return self.signals.get(name)


class _Lcg:
    """Deterministic 32-bit LCG backing ``$random`` (reproducible runs)."""

    def __init__(self, seed: int = 0xACE1):
        self.state = seed & 0xFFFFFFFF

    def next(self) -> int:
        self.state = (self.state * 1664525 + 1013904223) & 0xFFFFFFFF
        return self.state


class VerilogElaborator:
    """Builds a :class:`Design` for one top module of an analyzed unit."""

    MAX_DEPTH = 64
    LOOP_LIMIT = 1_000_000

    def __init__(
        self,
        modules: dict[str, ast.Module],
        source: SourceFile,
        collector: DiagnosticCollector,
        *,
        sources: dict[str, SourceFile],
    ):
        self.modules = modules
        #: the source of the module being elaborated: the top's outside
        #: :meth:`_elaborate_module`, which locates each module's nodes
        #: through its own entry of *sources*
        self.source = source
        self.sources = sources
        self.collector = collector
        self.design = Design()
        self.rng = _Lcg()
        #: set by the closure compiler when it emits a closure that can
        #: abort on some operand values or reads simulator state;
        #: :func:`~repro.sim.compile.add_process` clears it before each body
        #: build and records it after
        self.unsettled = False
        self._instance_stack: list[str] = []

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def elaborate(self, top: str) -> Design | None:
        module = self.modules.get(top)
        if module is None:
            self.collector.error(
                _CODE_ELAB, f"top module '{top}' not found", source=self.source
            )
            return None
        self.design.name = top
        try:
            self._elaborate_module(module, prefix="", param_overrides={})
        except _ElabAbort:
            return None
        finally:
            # every process build holds the elaborator: it keeps no design
            design, self.design = self.design, None
        if self.collector.has_errors:
            return None
        return design

    # ------------------------------------------------------------------
    # module instantiation
    # ------------------------------------------------------------------

    def _elaborate_module(
        self,
        module: ast.Module,
        prefix: str,
        param_overrides: dict[str, Logic],
    ) -> _Scope:
        outer = self.source
        self.source = self.sources[module.name]
        self._instance_stack.append(module.name)
        try:
            if len(self._instance_stack) > self.MAX_DEPTH:
                self._error(
                    module.span, "instantiation depth limit exceeded (recursion?)"
                )
                raise _ElabAbort
            scope = _Scope(module=module, prefix=prefix)
            self._bind_parameters(scope, param_overrides)
            self._declare_signals(scope)
            for item in module.items:
                self._elaborate_item(item, scope)
            return scope
        finally:
            self._instance_stack.pop()
            self.source = outer

    def _bind_parameters(self, scope: _Scope, overrides: dict[str, Logic]) -> None:
        for item in scope.module.items:
            if isinstance(item, ast.ParamDecl):
                if not item.local and item.name in overrides:
                    scope.params[item.name] = overrides[item.name]
                else:
                    scope.params[item.name] = self._const_eval(item.value, scope)
        unknown = set(overrides) - set(scope.params)
        for name in unknown:
            self._error(
                scope.module.span,
                f"module '{scope.module.name}' has no parameter '{name}'",
            )

    def _declare_signals(self, scope: _Scope) -> None:
        declared: dict[str, ast.Node] = {}

        def add(name: str, width: int, node: ast.Node, init: Logic | None = None):
            if name in declared:
                return  # duplicate reported by the analyzer
            declared[name] = node
            signal = Signal(scope.prefix + name, width, init)
            self.design.add_signal(signal)
            scope.signals[name] = signal

        # body declarations first: non-ANSI port ranges/reg-ness live there
        body_ports = {
            item.name: item
            for item in scope.module.items
            if isinstance(item, ast.PortDecl)
        }
        for port in scope.module.ports:
            decl = body_ports.get(port.name, port)
            dims = decl.dims if decl.dims is not None else port.dims
            add(port.name, self._range_width(dims, scope), decl)
        for item in scope.module.items:
            if isinstance(item, ast.NetDecl):
                width = 32 if item.kind == "integer" else self._range_width(
                    item.dims, scope
                )
                init = None
                if item.init is not None and item.kind in ("reg", "integer"):
                    init = self._const_eval(item.init, scope)
                add(item.name, width, item, init)

    #: sanity cap on declared vector widths; beyond this it is certainly a
    #: defect (and unguarded it lets broken code exhaust host memory)
    MAX_SIGNAL_WIDTH = 1 << 16

    def _range_width(self, dims: ast.Range | None, scope: _Scope) -> int:
        if dims is None:
            return 1
        msb = self._const_eval(dims.msb, scope)
        lsb = self._const_eval(dims.lsb, scope)
        try:
            width = msb.to_int() - lsb.to_int() + 1
        except ValueError:
            self._error(dims.span, "range bounds contain unknown bits")
            raise _ElabAbort
        if width <= 0:
            self._error(
                dims.span,
                f"descending range required: [{msb.to_int()}:{lsb.to_int()}]",
            )
            raise _ElabAbort
        if width > self.MAX_SIGNAL_WIDTH:
            self._error(
                dims.span,
                f"vector width {width} exceeds the supported maximum "
                f"({self.MAX_SIGNAL_WIDTH})",
            )
            raise _ElabAbort
        return width

    def _const_eval(self, expr: ast.Expression, scope: _Scope) -> Logic:
        """Evaluate a constant expression (parameters and literals only)."""
        return _cv.compile_expr(expr, scope, self)(None)

    # ------------------------------------------------------------------
    # items
    # ------------------------------------------------------------------

    def _elaborate_item(self, item: ast.ModuleItem, scope: _Scope) -> None:
        if isinstance(item, (ast.PortDecl, ast.ParamDecl)):
            return
        if isinstance(item, ast.NetDecl):
            if item.init is not None and item.kind == "wire":
                target = ast.Identifier(span=item.span, name=item.name)
                self._continuous_assign(target, item.init, scope)
            return
        if isinstance(item, ast.ContinuousAssign):
            self._continuous_assign(item.target, item.value, scope)
        elif isinstance(item, ast.AlwaysBlock):
            self._always_block(item, scope)
        elif isinstance(item, ast.InitialBlock):
            simcompile.add_process(
                self, f"{scope.prefix}initial@{_line(self, item)}",
                lambda: _cv.initial_factory(item.body, scope, self),
                lambda: _activation_facts(self, item.body, scope, ()),
            )
        elif isinstance(item, ast.Instantiation):
            self._instantiate(item, scope)
        else:
            self._error(item.span, f"unsupported module item {type(item).__name__}")

    def _continuous_assign(
        self, target: ast.LValue, value: ast.Expression, scope: _Scope
    ) -> None:
        read_signals = self._read_set(value, scope)
        read_signals |= self._lvalue_index_reads(target, scope)

        simcompile.add_process(
            self, f"{scope.prefix}assign@{_line(self, target)}",
            lambda: _cv.continuous_assign_factory(
                target, value, scope, self, read_signals
            ),
            lambda: _activation_facts(
                self, ast.Assign(target.span, target, value, True), scope,
                wait_on(read_signals), _part_masks(target, scope),
            ),
        )

    def _always_block(self, block: ast.AlwaysBlock, scope: _Scope) -> None:
        sens = block.sensitivity
        name = f"{scope.prefix}always@{_line(self, block)}"
        if sens is None:
            # `always #5 clk = ~clk;` style: the body itself must delay
            if not _contains_delay(block.body):
                self._error(
                    block.span,
                    "always block without sensitivity or delay would loop forever",
                )
                return

            simcompile.add_process(
                self, name,
                lambda: _cv.free_always_factory(block.body, scope, self),
                lambda: _activation_facts(self, block.body, scope, ()),
            )
            return

        facts = None
        if sens.star:
            facts = _activation_facts(self, block.body, scope, ())
            # loop induction variables written inside the block are not
            # real sensitivity sources; leaving them out avoids
            # self-triggering loops
            entries = wait_on(
                sorted(facts.reads - facts.writes, key=lambda s: s.name)
            )
            facts = facts._replace(sensitivity=entries)
        else:
            entries = []
            for item in sens.items:
                signal = self._sens_signal(item.signal, scope)
                if signal is None:
                    continue
                edge = {"pos": Edge.POS, "neg": Edge.NEG, "any": Edge.ANY}[item.edge]
                entries.append(Sensitivity(signal, edge))
            entries = tuple(entries)
        edge_triggered = any(e.edge is not Edge.ANY for e in entries)

        simcompile.add_process(
            self, name,
            lambda: _cv.always_factory(
                block.body, scope, self, entries,
                initial_run=sens.star or not edge_triggered,
            ),
            lambda: facts or _activation_facts(self, block.body, scope, entries),
        )

    def _sens_signal(self, expr: ast.Expression, scope: _Scope) -> Signal | None:
        if isinstance(expr, ast.Identifier):
            resolved = scope.resolve(expr.name)
            if isinstance(resolved, Signal):
                return resolved
            self._error(expr.span, f"sensitivity item '{expr.name}' is not a signal")
            return None
        if isinstance(expr, (ast.BitSelect, ast.PartSelect)):
            resolved = scope.resolve(expr.target)
            if isinstance(resolved, Signal):
                return resolved
        self._error(expr.span, "unsupported sensitivity expression")
        return None

    # ------------------------------------------------------------------
    # instantiation
    # ------------------------------------------------------------------

    def _instantiate(self, inst: ast.Instantiation, scope: _Scope) -> None:
        child_module = self.modules.get(inst.module)
        if child_module is None:
            self._error(inst.span, f"unknown module '{inst.module}'")
            return
        overrides = self._parameter_overrides(inst, child_module, scope)
        child_prefix = f"{scope.prefix}{inst.instance}{SEP}"
        child_scope = self._elaborate_module(child_module, child_prefix, overrides)
        connections = self._normalize_connections(inst, child_module)
        port_decls = self._port_decls(child_module)
        for port_name, expr in connections:
            decl = port_decls.get(port_name)
            if decl is None or expr is None:
                continue
            child_signal = child_scope.signals.get(port_name)
            if child_signal is None:
                continue
            if decl.direction == "input":
                self._wire_input(expr, child_signal, scope, inst)
            elif decl.direction == "output":
                self._wire_output(expr, child_signal, scope, inst)
            else:
                self._error(inst.span, f"inout port '{port_name}' is not supported")

    def _port_decls(self, module: ast.Module) -> dict[str, ast.PortDecl]:
        decls = {p.name: p for p in module.ports}
        for item in module.items:
            if isinstance(item, ast.PortDecl):
                decls[item.name] = item
        return decls

    def _parameter_overrides(
        self, inst: ast.Instantiation, child: ast.Module, scope: _Scope
    ) -> dict[str, Logic]:
        public = [
            i.name for i in child.items if isinstance(i, ast.ParamDecl) and not i.local
        ]
        overrides: dict[str, Logic] = {}
        for name, expr in inst.parameters:
            value = self._const_eval(expr, scope)
            if name.startswith("#"):
                index = int(name[1:])
                if index < len(public):
                    overrides[public[index]] = value
                else:
                    self._error(
                        inst.span,
                        f"too many positional parameters for '{inst.module}'",
                    )
            else:
                overrides[name] = value
        return overrides

    def _normalize_connections(
        self, inst: ast.Instantiation, child: ast.Module
    ) -> list[tuple[str, ast.Expression | None]]:
        port_names = child.port_names()
        result: list[tuple[str, ast.Expression | None]] = []
        positional = [c for c in inst.connections if c.port is None]
        if positional:
            for index, conn in enumerate(inst.connections):
                if index >= len(port_names):
                    break
                result.append((port_names[index], conn.expr))
        else:
            for conn in inst.connections:
                if conn.port in port_names:
                    result.append((conn.port, conn.expr))
        return result

    def _wire_input(
        self,
        expr: ast.Expression,
        child_signal: Signal,
        scope: _Scope,
        inst: ast.Instantiation,
    ) -> None:
        reads = self._read_set(expr, scope)

        simcompile.add_process(
            self, f"{scope.prefix}{inst.instance}.in.{child_signal.name}",
            lambda: _cv.wire_input_factory(expr, child_signal, scope, self, reads),
            lambda: ProcessFacts(
                frozenset(reads), frozenset((child_signal,)), wait_on(reads), True
            ),
        )

    def _wire_output(
        self,
        expr: ast.Expression,
        child_signal: Signal,
        scope: _Scope,
        inst: ast.Instantiation,
    ) -> None:
        if not isinstance(
            expr, (ast.Identifier, ast.BitSelect, ast.PartSelect, ast.Concat)
        ):
            self._error(
                inst.span,
                f"output port connection on instance '{inst.instance}' "
                "must be a net lvalue",
            )
            return

        def facts():
            parts = _part_masks(expr, scope)
            return ProcessFacts(
                frozenset((child_signal,)), frozenset(_target_signals(expr, scope)),
                wait_on((child_signal,)), parts is not None,
                tuple(parts.items()) if parts else (),
            )

        simcompile.add_process(
            self, f"{scope.prefix}{inst.instance}.out.{child_signal.name}",
            lambda: _cv.wire_output_factory(expr, child_signal, scope, self),
            facts,
        )

    # ------------------------------------------------------------------
    # read sets
    # ------------------------------------------------------------------

    def _read_set(self, expr: ast.Expression, scope: _Scope) -> set[Signal]:
        reads: set[Signal] = set()
        self._collect_reads(expr, scope, reads)
        return reads

    def _collect_reads(
        self, expr: ast.Expression, scope: _Scope, out: set[Signal]
    ) -> None:
        if isinstance(expr, ast.Identifier):
            resolved = scope.resolve(expr.name)
            if isinstance(resolved, Signal):
                out.add(resolved)
        elif isinstance(expr, ast.Unary):
            self._collect_reads(expr.operand, scope, out)
        elif isinstance(expr, ast.Binary):
            self._collect_reads(expr.lhs, scope, out)
            self._collect_reads(expr.rhs, scope, out)
        elif isinstance(expr, ast.Ternary):
            self._collect_reads(expr.cond, scope, out)
            self._collect_reads(expr.if_true, scope, out)
            self._collect_reads(expr.if_false, scope, out)
        elif isinstance(expr, ast.Concat):
            for part in expr.parts:
                self._collect_reads(part, scope, out)
        elif isinstance(expr, ast.Replicate):
            self._collect_reads(expr.count, scope, out)
            self._collect_reads(expr.value, scope, out)
        elif isinstance(expr, (ast.BitSelect, ast.PartSelect, ast.IndexedPartSelect)):
            resolved = scope.resolve(expr.target)
            if isinstance(resolved, Signal):
                out.add(resolved)
            if isinstance(expr, ast.BitSelect):
                self._collect_reads(expr.index, scope, out)
            elif isinstance(expr, ast.PartSelect):
                self._collect_reads(expr.msb, scope, out)
                self._collect_reads(expr.lsb, scope, out)
            else:
                self._collect_reads(expr.base, scope, out)
                self._collect_reads(expr.width, scope, out)
        elif isinstance(expr, ast.SystemFunctionCall):
            for arg in expr.args:
                self._collect_reads(arg, scope, out)

    def _lvalue_index_reads(self, lvalue: ast.LValue, scope: _Scope) -> set[Signal]:
        reads: set[Signal] = set()
        if isinstance(lvalue, ast.BitSelect):
            self._collect_reads(lvalue.index, scope, reads)
        elif isinstance(lvalue, ast.IndexedPartSelect):
            self._collect_reads(lvalue.base, scope, reads)
        elif isinstance(lvalue, ast.Concat):
            for part in lvalue.parts:
                reads |= self._lvalue_index_reads(part, scope)
        return reads

    # ------------------------------------------------------------------

    def _error(self, span, message: str) -> None:
        """Report *message* at *span* of the module being elaborated. An
        error a run raises later (a process body builds at its first start)
        is located through the top's source; the run reports its message."""
        self.collector.error(_CODE_ELAB, message, source=self.source, span=span)


# --------------------------------------------------------------------------
# misc helpers
# --------------------------------------------------------------------------


def _contains_delay(stmt: ast.Statement) -> bool:
    if isinstance(stmt, ast.DelayControl):
        return True
    if isinstance(stmt, ast.EventControl):
        return True
    if isinstance(stmt, ast.Block):
        return any(_contains_delay(s) for s in stmt.statements)
    if isinstance(stmt, ast.If):
        branches = [stmt.then_branch]
        if stmt.else_branch is not None:
            branches.append(stmt.else_branch)
        return any(_contains_delay(b) for b in branches)
    if isinstance(stmt, (ast.For, ast.Repeat, ast.While, ast.Forever)):
        return _contains_delay(stmt.body)
    return False


def _target_signals(lvalue: ast.LValue, scope: _Scope) -> set[Signal]:
    """The signals an lvalue writes, whole or in part."""
    if isinstance(lvalue, ast.Concat):
        return set().union(*(_target_signals(p, scope) for p in lvalue.parts))
    name = lvalue.name if isinstance(lvalue, ast.Identifier) else lvalue.target
    resolved = scope.resolve(name)
    return {resolved} if isinstance(resolved, Signal) else set()


def _whole_signals(lvalue: ast.LValue, scope: _Scope) -> set[Signal] | None:
    """The signals an lvalue writes whole, or None when it writes a part."""
    if isinstance(lvalue, ast.Concat):
        parts = [_whole_signals(part, scope) for part in lvalue.parts]
        return None if None in parts else set().union(*parts)
    if isinstance(lvalue, ast.Identifier):
        return _target_signals(lvalue, scope)
    return None


def _part_masks(lvalue: ast.LValue, scope: _Scope) -> dict[Signal, int] | None:
    """The bits an lvalue writes, as ``{signal: mask}``, or None when the
    bounds of a select do not fold to constants inside its signal.

    Bounds fold by the rule the compiled store uses
    (:func:`repro.sim.compile.verilog._static_bounds`), which reports
    nothing; a whole signal covers all its bits.
    """
    if isinstance(lvalue, ast.Concat):
        masks: dict[Signal, int] = {}
        for part in lvalue.parts:
            inner = _part_masks(part, scope)
            if inner is None:
                return None
            for signal, mask in inner.items():
                masks[signal] = masks.get(signal, 0) | mask
        return masks
    if isinstance(lvalue, ast.Identifier):
        return {s: (1 << s.width) - 1 for s in _target_signals(lvalue, scope)}
    signal = scope.resolve(lvalue.target)
    if not isinstance(signal, Signal):
        return None
    bounds = _cv._static_bounds(lvalue, scope)
    if bounds is None or not 0 <= bounds[1] <= bounds[0] < signal.width:
        return None
    msb, lsb = bounds
    return {signal: ((1 << (msb - lsb + 1)) - 1) << lsb}


def _index_exprs(lvalue: ast.LValue):
    """The select bounds an lvalue evaluates."""
    if isinstance(lvalue, ast.Concat):
        for part in lvalue.parts:
            yield from _index_exprs(part)
    elif isinstance(lvalue, ast.BitSelect):
        yield lvalue.index
    elif isinstance(lvalue, ast.PartSelect):
        yield from (lvalue.msb, lvalue.lsb)
    elif isinstance(lvalue, ast.IndexedPartSelect):
        yield from (lvalue.base, lvalue.width)


def _activation_facts(
    elab, stmt, scope: _Scope, sensitivity, parts=None
) -> ProcessFacts:
    """The :class:`ProcessFacts` of a process whose activation runs *stmt*.

    ``stateless`` follows every path through *stmt*: a read of one of the
    process's targets must come after a blocking write of the whole target
    on that path, so must a blocking write to part of one, a nonblocking
    write to part of one must come after any write of the whole target, and
    every path must write each target whole. A loop's body is followed for
    its first iteration, and its writes do not count after the loop. A
    statement that waits or prints makes the process stateful. ``reads``
    covers every statement, which makes it an ``@(*)`` block's sensitivity.

    *parts* is given when *stmt* is the process's one unconditional write:
    its :func:`_part_masks`, or None. Its static parts then count as a
    whole write, and a stateless process keeps them as ``parts``.
    """
    reads: set[Signal] = set()
    writes: set[Signal] = set()
    #: signals read on some path before a blocking write of them whole
    unwritten: set[Signal] = set()
    stateless = True

    def read(expr, written) -> None:
        found: set[Signal] = set()
        elab._collect_reads(expr, scope, found)
        reads.update(found)
        unwritten.update(found - written)

    def walk(node, written, assigned):
        nonlocal stateless
        if isinstance(node, ast.Block):
            for inner in node.statements:
                written, assigned = walk(inner, written, assigned)
        elif isinstance(node, ast.Assign):
            read(node.value, written)
            for index in _index_exprs(node.target):
                read(index, written)
            writes.update(_target_signals(node.target, scope))
            whole = _whole_signals(node.target, scope)
            if whole is None and parts is not None:
                whole = set(parts)
            if whole is not None:
                assigned = assigned | whole
                if node.blocking:
                    written = written | whole
            elif not _target_signals(node.target, scope) <= (
                written if node.blocking else assigned
            ):
                # a part write keeps the rest of its signal: a blocking
                # one the signal's value now, a nonblocking one the value
                # staged before it
                stateless = False
        elif isinstance(node, ast.If):
            read(node.condition, written)
            outcomes = [walk(node.then_branch, written, assigned)]
            if node.else_branch is None:
                outcomes.append((written, assigned))
            else:
                outcomes.append(walk(node.else_branch, written, assigned))
            written, assigned = meet(outcomes)
        elif isinstance(node, ast.Case):
            read(node.subject, written)
            outcomes = []
            if all(item.labels for item in node.items):
                outcomes.append((written, assigned))  # no label matches
            for item in node.items:
                for label in item.labels:
                    read(label, written)
                outcomes.append(walk(item.body, written, assigned))
            written, assigned = meet(outcomes)
        elif isinstance(node, ast.For):
            written, assigned = walk(node.init, written, assigned)
            read(node.condition, written)
            walk(node.step, *walk(node.body, written, assigned))
        elif isinstance(node, (ast.Repeat, ast.While)):
            read(node.count if isinstance(node, ast.Repeat) else node.condition,
                 written)
            walk(node.body, written, assigned)
        elif not isinstance(node, ast.NullStatement):
            stateless = False  # it waits or prints
            for arg in getattr(node, "args", ()):
                read(arg, written)
            inner = getattr(node, "body", None) or getattr(node, "statement", None)
            if inner is not None:
                walk(inner, written, assigned)
        return written, assigned

    _, assigned = walk(stmt, frozenset(), frozenset())
    stateless = stateless and writes <= assigned and not unwritten & writes
    return ProcessFacts(
        frozenset(reads), frozenset(writes), tuple(sensitivity), stateless,
        tuple(parts.items()) if stateless and parts else (),
    )


def _line(elab: VerilogElaborator, node) -> int:
    return elab.source.location(node.span.start_offset).line


def elaborate_verilog(
    modules: dict[str, ast.Module],
    top: str,
    source: SourceFile,
    collector: DiagnosticCollector | None = None,
    *,
    sources: dict[str, SourceFile],
) -> tuple[Design | None, DiagnosticCollector]:
    """Elaborate *top* against a module library; returns (design, diagnostics).

    *source* is the top module's source. *sources* maps every module's
    name to its source, so a diagnostic or a process name inside a module
    points into that module's file.
    """
    collector = collector if collector is not None else DiagnosticCollector()
    elaborator = VerilogElaborator(
        modules, source, collector, sources=sources
    )
    design = elaborator.elaborate(top)
    return design, collector


# Bound last: the compiler reads this module's names at call time, and is
# read here only at call time, so either module may be imported first.
from repro.sim.compile import verilog as _cv  # noqa: E402
