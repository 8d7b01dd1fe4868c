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
from repro.sim.runtime import Design, Edge, Sensitivity, Signal
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
    ):
        self.modules = modules
        self.source = source
        self.collector = collector
        self.design = Design()
        self.rng = _Lcg()
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
        if self.collector.has_errors:
            return None
        return self.design

    # ------------------------------------------------------------------
    # module instantiation
    # ------------------------------------------------------------------

    def _elaborate_module(
        self,
        module: ast.Module,
        prefix: str,
        param_overrides: dict[str, Logic],
    ) -> _Scope:
        if len(self._instance_stack) >= self.MAX_DEPTH:
            self._error(module.span, "instantiation depth limit exceeded (recursion?)")
            raise _ElabAbort
        self._instance_stack.append(module.name)
        try:
            scope = _Scope(module=module, prefix=prefix)
            self._bind_parameters(scope, param_overrides)
            self._declare_signals(scope)
            for item in module.items:
                self._elaborate_item(item, scope)
            return scope
        finally:
            self._instance_stack.pop()

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
        from repro.sim.compile import verilog as _cv

        return _cv.compile_expr(expr, scope, self)(None)

    # ------------------------------------------------------------------
    # batch-tier facts
    # ------------------------------------------------------------------

    def _compiled(self, build):
        """A cone member or sync update from *build*, or None if ineligible.

        The builders return None for shapes they do not accept; one that
        raises is treated the same way, leaving the process to the kernel.
        """
        try:
            return build()
        except Exception:
            return None

    def _add_member(self, build) -> None:
        """Record the cone member *build* returns, if the shape is one."""
        member = self._compiled(build)
        if member is not None:
            self.design.members.append(member)

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
            from repro.sim.compile import verilog as _cv

            simcompile.add_process(
                self.design, f"{scope.prefix}initial@{_line(self, item)}",
                lambda: _cv.initial_factory(item.body, scope, self),
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

        from repro.sim.compile import verilog as _cv

        process = simcompile.add_process(
            self.design, f"{scope.prefix}assign@{_line(self, target)}",
            lambda: _cv.continuous_assign_factory(
                target, value, scope, self, read_signals
            ),
        )

        from repro.sim.compile import level as _level

        self._add_member(
            lambda: _level.verilog_assign_member(
                process, target, value, scope, read_signals
            )
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

            from repro.sim.compile import verilog as _cv

            simcompile.add_process(
                self.design, name,
                lambda: _cv.free_always_factory(block.body, scope, self),
            )
            return

        if sens.star:
            writes = _written_signals(block.body, scope)
            raw_reads = self._read_set_stmt_raw(block.body, scope)
            # loop induction variables written inside the block are not
            # real sensitivity sources; leaving them out avoids
            # self-triggering loops
            entries = tuple(
                Sensitivity(s, Edge.ANY)
                for s in sorted(raw_reads - writes, key=lambda s: s.name)
            )
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

        from repro.sim.compile import verilog as _cv

        process = simcompile.add_process(
            self.design, name,
            lambda: _cv.always_factory(
                block.body, scope, self, entries,
                initial_run=sens.star or not edge_triggered,
            ),
        )
        if edge_triggered:
            # the batch tier (repro.sim.batch) pairs each recognized
            # register bank with its kernel Process
            from repro.sim.compile import level as _level

            update = self._compiled(
                lambda: _level.verilog_sync_update(
                    process, entries, block.body, scope
                )
            )
            if update is not None:
                self.design.sync_updates.append(update)

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

        from repro.sim.compile import verilog as _cv

        process = simcompile.add_process(
            self.design, f"{scope.prefix}{inst.instance}.in.{child_signal.name}",
            lambda: _cv.wire_input_factory(expr, child_signal, scope, self, reads),
        )

        from repro.sim.compile import level as _level

        self._add_member(
            lambda: _level.verilog_wire_input_member(
                process, expr, child_signal, scope, reads
            )
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

        from repro.sim.compile import verilog as _cv

        process = simcompile.add_process(
            self.design, f"{scope.prefix}{inst.instance}.out.{child_signal.name}",
            lambda: _cv.wire_output_factory(expr, child_signal, scope, self),
        )

        from repro.sim.compile import level as _level

        self._add_member(
            lambda: _level.verilog_wire_output_member(
                process, expr, child_signal, scope
            )
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

    def _read_set_stmt_raw(self, stmt: ast.Statement, scope: _Scope) -> set[Signal]:
        """All signals read anywhere in a statement, written ones included."""
        reads: set[Signal] = set()

        def walk(node: ast.Statement) -> None:
            if isinstance(node, ast.Block):
                for inner in node.statements:
                    walk(inner)
            elif isinstance(node, ast.If):
                self._collect_reads(node.condition, scope, reads)
                walk(node.then_branch)
                if node.else_branch is not None:
                    walk(node.else_branch)
            elif isinstance(node, ast.Case):
                self._collect_reads(node.subject, scope, reads)
                for item in node.items:
                    for label in item.labels:
                        self._collect_reads(label, scope, reads)
                    walk(item.body)
            elif isinstance(node, ast.Assign):
                self._collect_reads(node.value, scope, reads)
                reads.update(self._lvalue_index_reads(node.target, scope))
            elif isinstance(node, ast.For):
                walk(node.init)
                self._collect_reads(node.condition, scope, reads)
                walk(node.step)
                walk(node.body)
            elif isinstance(node, (ast.Repeat, ast.While)):
                cond = node.count if isinstance(node, ast.Repeat) else node.condition
                self._collect_reads(cond, scope, reads)
                walk(node.body)
            elif isinstance(node, ast.Forever):
                walk(node.body)
            elif isinstance(node, (ast.DelayControl, ast.EventControl)):
                if node.statement is not None:
                    walk(node.statement)
            elif isinstance(node, ast.SystemTaskCall):
                for arg in node.args:
                    self._collect_reads(arg, scope, reads)

        walk(stmt)
        return reads

    # ------------------------------------------------------------------

    def _error(self, span, message: str) -> None:
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


def _written_signals(stmt: ast.Statement, scope: _Scope) -> set[Signal]:
    writes: set[Signal] = set()

    def target_signal(lvalue: ast.LValue) -> None:
        if isinstance(lvalue, ast.Concat):
            for part in lvalue.parts:
                target_signal(part)
            return
        name = lvalue.name if isinstance(lvalue, ast.Identifier) else lvalue.target
        resolved = scope.resolve(name)
        if isinstance(resolved, Signal):
            writes.add(resolved)

    def walk(node: ast.Statement) -> None:
        if isinstance(node, ast.Block):
            for inner in node.statements:
                walk(inner)
        elif isinstance(node, ast.If):
            walk(node.then_branch)
            if node.else_branch is not None:
                walk(node.else_branch)
        elif isinstance(node, ast.Case):
            for item in node.items:
                walk(item.body)
        elif isinstance(node, ast.Assign):
            target_signal(node.target)
        elif isinstance(node, ast.For):
            walk(node.init)
            walk(node.step)
            walk(node.body)
        elif isinstance(node, (ast.Repeat, ast.While, ast.Forever)):
            walk(node.body)
        elif isinstance(node, (ast.DelayControl, ast.EventControl)):
            if node.statement is not None:
                walk(node.statement)

    walk(stmt)
    return writes


def _line(elab: VerilogElaborator, node) -> int:
    return elab.source.location(node.span.start_offset).line


def elaborate_verilog(
    modules: dict[str, ast.Module],
    top: str,
    source: SourceFile,
    collector: DiagnosticCollector | None = None,
) -> tuple[Design | None, DiagnosticCollector]:
    """Elaborate *top* against a module library; returns (design, diagnostics)."""
    collector = collector if collector is not None else DiagnosticCollector()
    elaborator = VerilogElaborator(modules, source, collector)
    design = elaborator.elaborate(top)
    return design, collector
