"""Elaboration: VHDL AST → simulation-ready :class:`~repro.sim.runtime.Design`.

Lowers entity/architecture pairs onto the same runtime the Verilog elaborator
targets, which is what makes the toolchain "mixed-language" like the Vivado
setup in the paper:

* concurrent assignments (simple/conditional/selected) → re-evaluating
  processes, with ``after`` delays for testbench clock generators;
* processes → generators compiled by :mod:`repro.sim.compile.vhdl`, with
  persistent variables, edge memory for ``rising_edge``/``'event``, and
  full wait-statement support;
* sequential signal assignment → NBA-region (delta) updates, matching VHDL's
  signal-update semantics;
* instantiations → recursive elaboration plus port-map wiring processes.

Index arithmetic honours each signal's declared range direction
(``downto``/``to``), so ``v(0)`` means the right bound in both conventions.
Elaboration-time values (generics, type bounds, initial values, delays) are
computed by calling compiled closures with a simulator-less context.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.source import SourceFile
from repro.sim import compile as simcompile
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.runtime import Design, Signal
from repro.sim.values import Logic
from repro.vhdl import ast

_CODE_ELAB = "VRFC 10-3780"

SEP = "."

_STD_LOGIC_CHARS = {
    "0": Logic(1, 0),
    "L": Logic(1, 0),
    "1": Logic(1, 1),
    "H": Logic(1, 1),
}


class _ElabAbort(SimulationError):
    """Elaboration/evaluation failed; a diagnostic has been emitted.

    Subclasses :class:`SimulationError` so that an abort raised *during
    simulation* (from defective generated code, e.g. an out-of-range index
    computed at runtime) terminates the run with a reportable simulation
    error instead of crashing the kernel.
    """


@dataclass
class _TypeInfo:
    """Declared shape of one object: width plus index mapping."""

    width: int
    left: int = 0
    right: int = 0
    descending: bool = True
    kind: str = "vector"  # scalar | vector | integer | boolean

    def bit_offset(self, index: int) -> int:
        """Map a VHDL index to a low-order bit offset in the Logic vector."""
        if self.descending:
            return index - self.right
        return self.left + self.width - 1 - index

    def slice_offsets(self, left: int, right: int) -> tuple[int, int]:
        """Map a VHDL slice (left, right) to (msb, lsb) bit offsets."""
        a = self.bit_offset(left)
        b = self.bit_offset(right)
        return (max(a, b), min(a, b))


_SCALAR = _TypeInfo(width=1, kind="scalar")
_INTEGER = _TypeInfo(width=32, left=31, right=0, kind="integer")
_BOOLEAN = _TypeInfo(width=1, kind="boolean")


@dataclass
class _VScope:
    """One elaborated architecture instance."""

    entity: ast.Entity
    arch: ast.Architecture
    prefix: str
    signals: dict[str, Signal] = field(default_factory=dict)
    constants: dict[str, Logic] = field(default_factory=dict)
    types: dict[str, _TypeInfo] = field(default_factory=dict)


@dataclass
class _EvalCtx:
    """Evaluation context: scope plus process-local state."""

    scope: _VScope
    sim: Simulator | None
    variables: dict[str, Logic] = field(default_factory=dict)
    loop_vars: dict[str, Logic] = field(default_factory=dict)
    edge_mem: dict[Signal, Logic] = field(default_factory=dict)


class VhdlElaborator:
    """Builds a :class:`Design` for one top entity of an analyzed design file."""

    MAX_DEPTH = 64
    LOOP_LIMIT = 1_000_000
    #: sanity cap on declared vector widths (defends against defective code
    #: declaring astronomically wide signals and exhausting memory)
    MAX_SIGNAL_WIDTH = 1 << 16

    def __init__(
        self,
        entities: dict[str, ast.Entity],
        architectures: dict[str, ast.Architecture],
        source: SourceFile,
        collector: DiagnosticCollector,
    ):
        self.entities = entities
        self.architectures = architectures
        self.source = source
        self.collector = collector
        self.design = Design()
        self._depth = 0

    # ------------------------------------------------------------------

    def elaborate(self, top: str) -> Design | None:
        top = top.lower()
        if top not in self.entities:
            self.collector.error(
                _CODE_ELAB, f"top entity '{top}' not found", source=self.source
            )
            return None
        self.design.name = top
        try:
            self._elaborate_entity(top, prefix="", generic_overrides={})
        except _ElabAbort:
            return None
        if self.collector.has_errors:
            return None
        return self.design

    # ------------------------------------------------------------------

    def _error(self, span, message: str) -> None:
        self.collector.error(_CODE_ELAB, message, source=self.source, span=span)

    # ------------------------------------------------------------------
    # compiled evaluation
    # ------------------------------------------------------------------

    def _const_eval(self, expr, scope: _VScope, width: int | None = None) -> Logic:
        """Evaluate an elaboration-time expression (generics, bounds, inits)."""
        from repro.sim.compile import vhdl as _cvh

        fn = _cvh.compile_with_width(expr, _cvh._Env(scope, self), width)
        return fn(_EvalCtx(scope=scope, sim=None))

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

    def _elaborate_entity(
        self, name: str, prefix: str, generic_overrides: dict[str, Logic]
    ) -> _VScope:
        if self._depth >= self.MAX_DEPTH:
            self._error(None, "instantiation depth limit exceeded")
            raise _ElabAbort
        entity = self.entities[name]
        arch = self.architectures.get(name)
        if arch is None:
            self._error(
                entity.span, f"entity '{name}' has no architecture"
            )
            raise _ElabAbort
        self._depth += 1
        try:
            scope = _VScope(entity=entity, arch=arch, prefix=prefix)
            self._bind_generics(scope, generic_overrides)
            self._declare_objects(scope)
            for statement in arch.statements:
                self._elaborate_concurrent(statement, scope)
            return scope
        finally:
            self._depth -= 1

    def _bind_generics(self, scope: _VScope, overrides: dict[str, Logic]) -> None:
        for generic in scope.entity.generics:
            if generic.name in overrides:
                scope.constants[generic.name] = overrides[generic.name]
            elif generic.default is not None:
                scope.constants[generic.name] = self._const_eval(
                    generic.default, scope
                )
            else:
                self._error(
                    generic.span,
                    f"generic '{generic.name}' has no default and no map entry",
                )
                raise _ElabAbort

    def _type_info(self, mark: ast.TypeMark, scope: _VScope) -> _TypeInfo:
        if mark.name in ("std_logic", "std_ulogic", "bit"):
            return _SCALAR
        if mark.name in ("integer", "natural", "positive", "time"):
            return _INTEGER
        if mark.name == "boolean":
            return _BOOLEAN
        if mark.left is None or mark.right is None:
            self._error(mark.span, f"type '{mark.name}' needs a range constraint")
            raise _ElabAbort
        left = _to_int(self._const_eval(mark.left, scope), mark.span, self)
        right = _to_int(self._const_eval(mark.right, scope), mark.span, self)
        width = abs(left - right) + 1
        if width > self.MAX_SIGNAL_WIDTH:
            self._error(
                mark.span,
                f"vector width {width} exceeds the supported maximum "
                f"({self.MAX_SIGNAL_WIDTH})",
            )
            raise _ElabAbort(f"vector width {width} too large")
        if mark.descending and left < right:
            self._error(
                mark.span, f"'downto' range has left < right ({left} downto {right})"
            )
            raise _ElabAbort
        if not mark.descending and left > right:
            self._error(
                mark.span, f"'to' range has left > right ({left} to {right})"
            )
            raise _ElabAbort
        return _TypeInfo(
            width=width, left=left, right=right, descending=mark.descending
        )

    def _declare_objects(self, scope: _VScope) -> None:
        for port in scope.entity.ports:
            info = self._type_info(port.type_mark, scope)
            signal = Signal(scope.prefix + port.name, info.width)
            self.design.add_signal(signal)
            scope.signals[port.name] = signal
            scope.types[port.name] = info
        for decl in scope.arch.declarations:
            info = self._type_info(decl.type_mark, scope)
            if isinstance(decl, ast.ConstantDecl):
                value = self._const_eval(decl.value, scope, info.width)
                scope.constants[decl.name] = value.resize(info.width)
                scope.types[decl.name] = info
                continue
            init: Logic | None = None
            if decl.init is not None:
                init = self._const_eval(decl.init, scope, info.width)
            signal = Signal(scope.prefix + decl.name, info.width, init)
            self.design.add_signal(signal)
            scope.signals[decl.name] = signal
            scope.types[decl.name] = info

    # ------------------------------------------------------------------
    # concurrent statements
    # ------------------------------------------------------------------

    def _elaborate_concurrent(self, statement, scope: _VScope) -> None:
        if isinstance(statement, ast.ConcurrentAssign):
            self._concurrent_assign(statement, scope)
        elif isinstance(statement, ast.ConditionalAssign):
            self._conditional_assign(statement, scope)
        elif isinstance(statement, ast.SelectedAssign):
            self._selected_assign(statement, scope)
        elif isinstance(statement, ast.ProcessStatement):
            self._process(statement, scope)
        elif isinstance(statement, ast.EntityInstantiation):
            self._instantiate(statement, scope)
        else:
            self._error(statement.span, "unsupported concurrent statement")

    def _reads_of(self, *exprs) -> set[Signal]:
        reads: set[Signal] = set()
        for expr, scope in exprs:
            _collect_reads(expr, scope, reads)
        return reads

    def _concurrent_assign(self, statement: ast.ConcurrentAssign, scope: _VScope):
        reads = self._reads_of((statement.value, scope))
        target = statement.target
        target_width = self._target_width(target, scope)
        name = f"{scope.prefix}cassign@{self._line(statement)}"
        from repro.sim.compile import vhdl as _cvh

        if statement.after is not None:
            delay = _to_int(
                self._const_eval(statement.after, scope), statement.span, self
            )
            target_signal = self._target_signal(target, scope)
            simcompile.add_process(
                self.design, name,
                lambda: _cvh.delayed_assign_factory(
                    statement, scope, self, target_signal, delay, reads,
                    target_width,
                ),
            )
            return

        process = simcompile.add_process(
            self.design, name,
            lambda: _cvh.concurrent_assign_factory(
                statement, scope, self, reads, target_width
            ),
        )

        from repro.sim.compile import level as _level

        self._add_member(
            lambda: _level.vhdl_concurrent_member(
                process, statement, scope, reads, target_width
            )
        )

    def _conditional_assign(self, statement: ast.ConditionalAssign, scope: _VScope):
        reads: set[Signal] = set()
        _collect_reads(statement.otherwise, scope, reads)
        for value, condition in statement.arms:
            _collect_reads(value, scope, reads)
            _collect_reads(condition, scope, reads)
        width = self._target_width(statement.target, scope)

        from repro.sim.compile import vhdl as _cvh

        process = simcompile.add_process(
            self.design, f"{scope.prefix}condassign@{self._line(statement)}",
            lambda: _cvh.conditional_assign_factory(
                statement, scope, self, reads, width
            ),
        )

        from repro.sim.compile import level as _level

        self._add_member(
            lambda: _level.vhdl_conditional_member(
                process, statement, scope, reads, width
            )
        )

    def _selected_assign(self, statement: ast.SelectedAssign, scope: _VScope):
        reads: set[Signal] = set()
        _collect_reads(statement.selector, scope, reads)
        for value, choices in statement.arms:
            _collect_reads(value, scope, reads)
        if statement.otherwise is not None:
            _collect_reads(statement.otherwise, scope, reads)
        width = self._target_width(statement.target, scope)

        from repro.sim.compile import vhdl as _cvh

        simcompile.add_process(
            self.design, f"{scope.prefix}selassign@{self._line(statement)}",
            lambda: _cvh.selected_assign_factory(
                statement, scope, self, reads, width
            ),
        )

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------

    def _process(self, process: ast.ProcessStatement, scope: _VScope) -> None:
        # process(all) leaves None: its read set is the builder's to find
        sens_signals: tuple[Signal, ...] | None = None
        if process.sensitivity != ("all",):
            found = []
            for name in process.sensitivity:
                signal = scope.signals.get(name)
                if signal is None:
                    self._error(
                        process.span,
                        f"sensitivity entry '{name}' is not a signal",
                    )
                    continue
                found.append(signal)
            sens_signals = tuple(found)
        label = process.label or f"proc@{self._line(process)}"
        # variable types stay eager: a bad bound is an elaboration error
        var_types = tuple(
            self._type_info(decl.type_mark, scope)
            for decl in process.declarations
        )

        from repro.sim.compile import vhdl as _cvh

        proc_obj = simcompile.add_process(
            self.design, f"{scope.prefix}{label}",
            lambda: _cvh.process_factory(
                process, scope, self, sens_signals, var_types
            ),
        )
        # the batch tier (repro.sim.batch) pairs each recognized register
        # bank with its kernel Process, so recognition happens here
        from repro.sim.compile import level as _level

        update = self._compiled(
            lambda: _level.vhdl_sync_update(
                proc_obj, process, scope, scope.signals.get
            )
        )
        if update is not None:
            self.design.sync_updates.append(update)

    # ------------------------------------------------------------------
    # instantiation
    # ------------------------------------------------------------------

    def _instantiate(self, inst: ast.EntityInstantiation, scope: _VScope) -> None:
        if inst.entity not in self.entities:
            self._error(inst.span, f"unknown entity '{inst.entity}'")
            return
        entity = self.entities[inst.entity]
        overrides: dict[str, Logic] = {}
        generic_names = [g.name for g in entity.generics]
        for position, item in enumerate(inst.generic_map):
            if item.value is None:
                continue
            value = self._const_eval(item.value, scope)
            if item.name is not None:
                overrides[item.name] = value
            elif position < len(generic_names):
                overrides[generic_names[position]] = value
        child_prefix = f"{scope.prefix}{inst.label}{SEP}"
        child_scope = self._elaborate_entity(inst.entity, child_prefix, overrides)
        port_by_name = {p.name: p for p in entity.ports}
        port_order = [p.name for p in entity.ports]
        bindings: list[tuple[str, ast.Expression]] = []
        for position, item in enumerate(inst.port_map):
            if item.expr is None:
                continue
            if item.port is not None:
                if item.port in port_by_name:
                    bindings.append((item.port, item.expr))
            elif position < len(port_order):
                bindings.append((port_order[position], item.expr))
        for port_name, expr in bindings:
            decl = port_by_name[port_name]
            child_signal = child_scope.signals.get(port_name)
            if child_signal is None:
                continue
            if decl.direction == "in":
                self._wire_input(expr, child_signal, scope, inst)
            elif decl.direction in ("out", "buffer"):
                self._wire_output(expr, child_signal, scope, inst)
            else:
                self._error(
                    inst.span, f"inout port '{port_name}' is not supported"
                )

    def _wire_input(self, expr, child_signal: Signal, scope: _VScope, inst) -> None:
        reads: set[Signal] = set()
        _collect_reads(expr, scope, reads)

        from repro.sim.compile import vhdl as _cvh

        process = simcompile.add_process(
            self.design, f"{scope.prefix}{inst.label}.in.{child_signal.name}",
            lambda: _cvh.wire_input_factory(expr, child_signal, scope, self, reads),
        )

        from repro.sim.compile import level as _level

        self._add_member(
            lambda: _level.vhdl_wire_input_member(
                process, expr, child_signal, scope, reads
            )
        )

    def _wire_output(self, expr, child_signal: Signal, scope: _VScope, inst) -> None:
        if not isinstance(expr, (ast.Name, ast.Indexed, ast.Sliced)):
            self._error(
                inst.span,
                f"output port connection on instance '{inst.label}' must be "
                "a signal name",
            )
            return

        from repro.sim.compile import vhdl as _cvh

        process = simcompile.add_process(
            self.design, f"{scope.prefix}{inst.label}.out.{child_signal.name}",
            lambda: _cvh.wire_output_factory(expr, child_signal, scope, self),
        )

        from repro.sim.compile import level as _level

        self._add_member(
            lambda: _level.vhdl_wire_output_member(
                process, expr, child_signal, scope
            )
        )

    # ------------------------------------------------------------------
    # targets
    # ------------------------------------------------------------------

    def _target_signal(self, target, scope: _VScope) -> Signal:
        name = _target_name(target)
        signal = scope.signals.get(name)
        if signal is None:
            self._error(target.span, f"cannot assign to '{name}'")
            raise _ElabAbort
        return signal

    def _target_width(self, target, scope: _VScope) -> int:
        """Width of a concurrent assignment target (aggregate context).

        Slice bounds that fail to evaluate report their diagnostic and fall
        back to the declared width.
        """
        name = _target_name(target)
        info = scope.types.get(name)
        if info is None:
            return 1
        if isinstance(target, ast.Indexed):
            return 1
        if isinstance(target, ast.Sliced):
            try:
                left = _to_int(
                    self._const_eval(target.left, scope), target.span, self
                )
                right = _to_int(
                    self._const_eval(target.right, scope), target.span, self
                )
            except _ElabAbort:
                return info.width
            return abs(left - right) + 1
        return info.width

    def _line(self, node) -> int:
        return self.source.location(node.span.start_offset).line


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------


def _target_name(target) -> str:
    if isinstance(target, ast.Name):
        return target.name
    if isinstance(target, (ast.Indexed, ast.Sliced)):
        return target.name
    raise TypeError(f"not a target: {target!r}")


_X_INT = "expression with unknown ('X') bits used as an integer"


def _to_int(value: Logic, span, elab: VhdlElaborator) -> int:
    if value.has_x:
        elab._error(span, _X_INT)
        raise _ElabAbort(_X_INT)
    return value.to_int()


def _string_to_logic(expr: ast.StringLiteral) -> Logic:
    text = expr.value.replace("_", "")
    if expr.base in ("", "b"):
        if not text:
            return Logic.unknown(1)
        return Logic.from_string(text)
    bits_per = {"x": 4, "o": 3}[expr.base]
    bits = 0
    xmask = 0
    for char in text:
        bits <<= bits_per
        xmask <<= bits_per
        if char in "-xXuUzZwW":
            xmask |= (1 << bits_per) - 1
        else:
            bits |= int(char, 16 if expr.base == "x" else 8)
    return Logic(max(1, bits_per * len(text)), bits, xmask)


# --------------------------------------------------------------------------
# read sets & edge watching
# --------------------------------------------------------------------------


def _collect_reads(expr, scope: _VScope, out: set[Signal]) -> None:
    if expr is None or isinstance(
        expr, (ast.IntLiteral, ast.CharLiteral, ast.StringLiteral)
    ):
        return
    if isinstance(expr, ast.Name):
        signal = scope.signals.get(expr.name)
        if signal is not None:
            out.add(signal)
    elif isinstance(expr, ast.Indexed):
        signal = scope.signals.get(expr.name)
        if signal is not None:
            out.add(signal)
        _collect_reads(expr.index, scope, out)
    elif isinstance(expr, ast.Sliced):
        signal = scope.signals.get(expr.name)
        if signal is not None:
            out.add(signal)
        _collect_reads(expr.left, scope, out)
        _collect_reads(expr.right, scope, out)
    elif isinstance(expr, ast.Call):
        for arg in expr.args:
            _collect_reads(arg, scope, out)
    elif isinstance(expr, ast.Attribute):
        signal = scope.signals.get(expr.name)
        if signal is not None:
            out.add(signal)
    elif isinstance(expr, ast.Unary):
        _collect_reads(expr.operand, scope, out)
    elif isinstance(expr, ast.Binary):
        _collect_reads(expr.lhs, scope, out)
        _collect_reads(expr.rhs, scope, out)
    elif isinstance(expr, ast.Aggregate):
        if expr.others is not None:
            _collect_reads(expr.others, scope, out)
        for _, element in expr.elements:
            _collect_reads(element, scope, out)


def _collect_reads_seq(statement, scope: _VScope, out: set[Signal]) -> None:
    if isinstance(statement, (ast.SignalAssign, ast.VariableAssign)):
        _collect_reads(statement.value, scope, out)
        if isinstance(statement.target, ast.Indexed):
            _collect_reads(statement.target.index, scope, out)
    elif isinstance(statement, ast.IfStatement):
        for condition, body in statement.arms:
            _collect_reads(condition, scope, out)
            for inner in body:
                _collect_reads_seq(inner, scope, out)
        for inner in statement.else_body:
            _collect_reads_seq(inner, scope, out)
    elif isinstance(statement, ast.CaseStatement):
        _collect_reads(statement.subject, scope, out)
        for alternative in statement.alternatives:
            for inner in alternative.body:
                _collect_reads_seq(inner, scope, out)
    elif isinstance(statement, (ast.ForLoop, ast.WhileLoop)):
        if isinstance(statement, ast.WhileLoop):
            _collect_reads(statement.condition, scope, out)
        for inner in statement.body:
            _collect_reads_seq(inner, scope, out)
    elif isinstance(statement, ast.AssertStatement):
        _collect_reads(statement.condition, scope, out)


def _edge_watched_signals(body: tuple, scope: _VScope) -> set[Signal]:
    """Signals referenced by rising_edge/falling_edge/'event in a process."""
    watched: set[Signal] = set()

    def walk_expr(expr) -> None:
        if isinstance(expr, ast.Call) and expr.name in (
            "rising_edge", "falling_edge"
        ):
            for arg in expr.args:
                if isinstance(arg, ast.Name):
                    signal = scope.signals.get(arg.name)
                    if signal is not None:
                        watched.add(signal)
        elif isinstance(expr, ast.Attribute) and expr.attr in ("event", "last_value"):
            signal = scope.signals.get(expr.name)
            if signal is not None:
                watched.add(signal)
        elif isinstance(expr, ast.Unary):
            walk_expr(expr.operand)
        elif isinstance(expr, ast.Binary):
            walk_expr(expr.lhs)
            walk_expr(expr.rhs)
        elif isinstance(expr, ast.Call):
            for arg in expr.args:
                walk_expr(arg)

    def walk(statement) -> None:
        if isinstance(statement, ast.IfStatement):
            for condition, arm_body in statement.arms:
                walk_expr(condition)
                for inner in arm_body:
                    walk(inner)
            for inner in statement.else_body:
                walk(inner)
        elif isinstance(statement, ast.CaseStatement):
            for alternative in statement.alternatives:
                for inner in alternative.body:
                    walk(inner)
        elif isinstance(statement, (ast.ForLoop, ast.WhileLoop)):
            if isinstance(statement, ast.WhileLoop):
                walk_expr(statement.condition)
            for inner in statement.body:
                walk(inner)
        elif isinstance(statement, ast.WaitStatement):
            if statement.until is not None:
                walk_expr(statement.until)
        elif isinstance(statement, (ast.SignalAssign, ast.VariableAssign)):
            walk_expr(statement.value)
        elif isinstance(statement, ast.AssertStatement):
            walk_expr(statement.condition)

    for statement in body:
        walk(statement)
    return watched


def _body_has_wait(body: tuple) -> bool:
    from repro.vhdl.analyzer import _contains_wait

    return _contains_wait(body)


def elaborate_vhdl(
    design_file: ast.DesignFile,
    top: str,
    source: SourceFile,
    collector: DiagnosticCollector | None = None,
    extra_entities: dict[str, ast.Entity] | None = None,
    extra_architectures: dict[str, ast.Architecture] | None = None,
) -> tuple[Design | None, DiagnosticCollector]:
    """Elaborate *top* from a design file; returns (design, diagnostics)."""
    collector = collector if collector is not None else DiagnosticCollector()
    entities = dict(extra_entities or {})
    architectures = dict(extra_architectures or {})
    for entity in design_file.entities:
        entities[entity.name] = entity
    for arch in design_file.architectures:
        architectures[arch.entity] = arch
    elaborator = VhdlElaborator(entities, architectures, source, collector)
    design = elaborator.elaborate(top)
    return design, collector
