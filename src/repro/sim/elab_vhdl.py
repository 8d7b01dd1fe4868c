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
from repro.sim.runtime import Design, ProcessFacts, Signal, meet, wait_on
from repro.sim.values import Logic
from repro.vhdl import ast
from repro.vhdl.analyzer import _contains_wait

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
        *,
        sources: dict[tuple[str, str], SourceFile],
    ):
        self.entities = entities
        self.architectures = architectures
        #: the source of the design unit being elaborated: the top entity's
        #: outside :meth:`_elaborate_entity`, which locates an entity's and
        #: its architecture's nodes through their own entries of *sources*
        self.source = source
        self.sources = sources
        self.collector = collector
        self.design = Design()
        #: set by the closure compiler when it emits a closure that can
        #: abort on some operand values or reads simulator state;
        #: :func:`~repro.sim.compile.add_process` clears it before each body
        #: build and records it after
        self.unsettled = False
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
        finally:
            # every process build holds the elaborator: it keeps no design
            design, self.design = self.design, None
        if self.collector.has_errors:
            return None
        return design

    # ------------------------------------------------------------------

    def _error(self, span, message: str) -> None:
        """Report *message* at *span* of the unit being elaborated. An error
        a run raises later (a process body builds at its first start) is
        located through the top's source; the run reports its message."""
        self.collector.error(_CODE_ELAB, message, source=self.source, span=span)

    # ------------------------------------------------------------------
    # compiled evaluation
    # ------------------------------------------------------------------

    def _const_eval(self, expr, scope: _VScope, width: int | None = None) -> Logic:
        """Evaluate an elaboration-time expression (generics, bounds, inits)."""
        fn = _cvh.compile_with_width(expr, _cvh._Env(scope, self), width)
        return fn(_EvalCtx(scope=scope, sim=None))

    def _elaborate_entity(
        self, name: str, prefix: str, generic_overrides: dict[str, Logic]
    ) -> _VScope:
        if self._depth >= self.MAX_DEPTH:
            self._error(None, "instantiation depth limit exceeded")
            raise _ElabAbort
        entity = self.entities[name]
        arch = self.architectures.get(name)
        outer = self.source
        self.source = self.sources["entity", name]
        self._depth += 1
        try:
            if arch is None:
                self._error(
                    entity.span, f"entity '{name}' has no architecture"
                )
                raise _ElabAbort
            scope = _VScope(entity=entity, arch=arch, prefix=prefix)
            self._bind_generics(scope, generic_overrides)
            self._declare_ports(scope)
            self.source = self.sources["architecture", name]
            self._declare_objects(scope)
            for statement in arch.statements:
                self._elaborate_concurrent(statement, scope)
            return scope
        finally:
            self._depth -= 1
            self.source = outer

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

    def _declare_ports(self, scope: _VScope) -> None:
        for port in scope.entity.ports:
            info = self._type_info(port.type_mark, scope)
            signal = Signal(scope.prefix + port.name, info.width)
            self.design.add_signal(signal)
            scope.signals[port.name] = signal
            scope.types[port.name] = info

    def _declare_objects(self, scope: _VScope) -> None:
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

    def _concurrent_assign(self, statement: ast.ConcurrentAssign, scope: _VScope):
        reads: set[Signal] = set()
        _collect_reads(statement.value, scope, reads)
        target = statement.target
        target_width = self._target_width(target, scope)
        name = f"{scope.prefix}cassign@{self._line(statement)}"
        if statement.after is not None:
            delay = _to_int(
                self._const_eval(statement.after, scope), statement.span, self
            )
            target_signal = self._target_signal(target, scope)
            simcompile.add_process(
                self, name,
                lambda: _cvh.delayed_assign_factory(
                    statement, scope, self, target_signal, delay, reads,
                    target_width,
                ),
                lambda: _activation_facts(
                    (ast.SignalAssign(statement.span, target, statement.value,
                                      statement.after),),
                    scope, (), wait_on(reads),
                ),
            )
            return

        simcompile.add_process(
            self, name,
            lambda: _cvh.concurrent_assign_factory(
                statement, scope, self, reads, target_width
            ),
            lambda: _activation_facts(
                (ast.SignalAssign(statement.span, target, statement.value),),
                scope, (), wait_on(reads), _part_masks(target, scope, self),
            ),
        )

    def _conditional_assign(self, statement: ast.ConditionalAssign, scope: _VScope):
        reads: set[Signal] = set()
        _collect_reads(statement.otherwise, scope, reads)
        for value, condition in statement.arms:
            _collect_reads(value, scope, reads)
            _collect_reads(condition, scope, reads)
        width = self._target_width(statement.target, scope)

        simcompile.add_process(
            self, f"{scope.prefix}condassign@{self._line(statement)}",
            lambda: _cvh.conditional_assign_factory(
                statement, scope, self, reads, width
            ),
            lambda: _activation_facts(
                (_as_if(statement),), scope, (), wait_on(reads)
            ),
        )

    def _selected_assign(self, statement: ast.SelectedAssign, scope: _VScope):
        reads: set[Signal] = set()
        _collect_reads(statement.selector, scope, reads)
        for value, choices in statement.arms:
            _collect_reads(value, scope, reads)
        if statement.otherwise is not None:
            _collect_reads(statement.otherwise, scope, reads)
        width = self._target_width(statement.target, scope)

        simcompile.add_process(
            self, f"{scope.prefix}selassign@{self._line(statement)}",
            lambda: _cvh.selected_assign_factory(
                statement, scope, self, reads, width
            ),
            lambda: _activation_facts(
                (_as_case(statement),), scope, (), wait_on(reads)
            ),
        )

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------

    def _process(self, process: ast.ProcessStatement, scope: _VScope) -> None:
        if process.sensitivity == ("all",):
            reads: set[Signal] = set()
            for statement in process.body:
                _collect_reads_seq(statement, scope, reads)
            sens_signals = tuple(sorted(reads, key=lambda s: s.name))
        else:
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

        simcompile.add_process(
            self, f"{scope.prefix}{label}",
            lambda: _cvh.process_factory(
                process, scope, self, sens_signals, var_types
            ),
            lambda: _activation_facts(
                process.body, scope,
                frozenset(decl.name for decl in process.declarations),
                wait_on(sens_signals),
            ),
        )

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

        simcompile.add_process(
            self, f"{scope.prefix}{inst.label}.in.{child_signal.name}",
            lambda: _cvh.wire_input_factory(expr, child_signal, scope, self, reads),
            lambda: ProcessFacts(
                frozenset(reads), frozenset((child_signal,)), wait_on(reads), True
            ),
        )

    def _wire_output(self, expr, child_signal: Signal, scope: _VScope, inst) -> None:
        if not isinstance(expr, (ast.Name, ast.Indexed, ast.Sliced)):
            self._error(
                inst.span,
                f"output port connection on instance '{inst.label}' must be "
                "a signal name",
            )
            return

        def facts():
            parts = _part_masks(expr, scope, self)
            return ProcessFacts(
                frozenset((child_signal,)),
                frozenset(
                    s for s in (scope.signals.get(_target_name(expr)),) if s
                ),
                wait_on((child_signal,)), parts is not None,
                tuple(parts.items()) if parts else (),
            )

        simcompile.add_process(
            self, f"{scope.prefix}{inst.label}.out.{child_signal.name}",
            lambda: _cvh.wire_output_factory(expr, child_signal, scope, self),
            facts,
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


def _part_masks(target, scope: _VScope, elab) -> dict[Signal, int] | None:
    """The bits a signal target writes, as ``{signal: mask}``, or None when
    its bounds do not fold to constants inside its signal.

    Bounds fold as the compiled store folds them: the constant of each
    compiled bound, mapped through the declared range, so a ``to`` range
    maps as the store maps it. Compiling a bound reports nothing. A name
    covers all its signal's bits.
    """
    signal = scope.signals.get(_target_name(target))
    if isinstance(target, ast.Name):
        return {} if signal is None else {signal: (1 << signal.width) - 1}
    if signal is None:
        return None
    env = _cvh._Env(scope, elab)
    bounds = (target.index,) if isinstance(target, ast.Indexed) else (
        target.left, target.right
    )
    values = [_cvh._const_of(_cvh.compile_expr(b, env)) for b in bounds]
    if any(value is None or value.has_x for value in values):
        return None
    info = scope.types.get(target.name) or _TypeInfo(width=signal.width)
    msb, lsb = info.slice_offsets(values[0].to_int(), values[-1].to_int())
    if not 0 <= lsb <= msb < signal.width:
        return None
    return {signal: ((1 << (msb - lsb + 1)) - 1) << lsb}


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


def _as_if(statement: ast.ConditionalAssign) -> ast.IfStatement:
    """A conditional assignment as the process body it runs."""
    def assign(value):
        return (ast.SignalAssign(statement.span, statement.target, value),)

    return ast.IfStatement(
        statement.span,
        tuple((condition, assign(value)) for value, condition in statement.arms),
        assign(statement.otherwise),
    )


def _as_case(statement: ast.SelectedAssign) -> ast.CaseStatement:
    """A selected assignment as the process body it runs."""
    def alternative(choices, value):
        return ast.CaseAlternative(
            statement.span, choices,
            (ast.SignalAssign(statement.span, statement.target, value),),
        )

    alternatives = [alternative(choices, value)
                    for value, choices in statement.arms]
    if statement.otherwise is not None:
        alternatives.append(alternative((), statement.otherwise))
    return ast.CaseStatement(statement.span, statement.selector,
                             tuple(alternatives))


def _activation_facts(body, scope: _VScope, variables, sensitivity,
                      parts=None):
    """The :class:`ProcessFacts` of a process whose activation runs *body*.

    A process's signal writes take effect after its activation, in order,
    so ``stateless`` needs that it reads none of the signals it writes. It
    also follows every path through *body*: each signal written must be
    written whole on every path, and before any write to a part of it; a
    read of one of *variables*, or a write to part of one, must come after
    a write of the whole variable on that path. A loop's body is followed
    for its first iteration, and its writes do not count after the loop.
    An edge function or ``'event``/``'last_value`` reads the process's edge
    memory, and a statement that waits, prints or writes ``after`` a delay
    makes the process stateful too.

    *parts* is given when *body* is the process's one unconditional write:
    its :func:`_part_masks`, or None. Its static part then counts as a
    whole write, and a stateless process keeps it as ``parts``.
    """
    reads: set[Signal] = set()
    writes: set[Signal] = set()
    stateless = True

    def read(expr, written, loop_vars) -> None:
        nonlocal stateless
        if isinstance(expr, (ast.Name, ast.Indexed, ast.Sliced)):
            if expr.name in loop_vars:
                pass
            elif expr.name in variables:
                stateless = stateless and expr.name in written
            elif expr.name in scope.signals:
                reads.add(scope.signals[expr.name])
            if isinstance(expr, ast.Indexed):
                read(expr.index, written, loop_vars)
            elif isinstance(expr, ast.Sliced):
                read(expr.left, written, loop_vars)
                read(expr.right, written, loop_vars)
        elif isinstance(expr, ast.Call):
            if expr.name in ("rising_edge", "falling_edge"):
                stateless = False
            for arg in expr.args:
                read(arg, written, loop_vars)
        elif isinstance(expr, ast.Attribute):
            if expr.attr in ("event", "last_value"):
                stateless = False
        elif isinstance(expr, ast.Unary):
            read(expr.operand, written, loop_vars)
        elif isinstance(expr, ast.Binary):
            read(expr.lhs, written, loop_vars)
            read(expr.rhs, written, loop_vars)
        elif isinstance(expr, ast.Aggregate):
            if expr.others is not None:
                read(expr.others, written, loop_vars)
            for _, element in expr.elements:
                read(element, written, loop_vars)

    def walk(statements, written, assigned, loop_vars):
        nonlocal stateless
        for node in statements:
            if isinstance(node, (ast.SignalAssign, ast.VariableAssign)):
                read(node.value, written, loop_vars)
                target = node.target
                if not isinstance(target, (ast.Name, ast.Indexed, ast.Sliced)):
                    stateless = False
                    continue
                whole = isinstance(target, ast.Name)
                if isinstance(target, ast.Indexed):
                    read(target.index, written, loop_vars)
                elif isinstance(target, ast.Sliced):
                    read(target.left, written, loop_vars)
                    read(target.right, written, loop_vars)
                if target.name in variables:
                    if whole:
                        written = written | {target.name}
                    elif target.name not in written:
                        stateless = False  # it keeps the rest
                elif target.name in scope.signals:
                    signal = scope.signals[target.name]
                    writes.add(signal)
                    if whole or signal in (parts or ()):
                        assigned = assigned | {signal}
                    elif signal not in assigned:
                        stateless = False  # it keeps the rest
                if isinstance(node, ast.SignalAssign) and node.after is not None:
                    stateless = False
            elif isinstance(node, ast.IfStatement):
                outcomes = []
                for condition, arm in node.arms:
                    read(condition, written, loop_vars)
                    outcomes.append(walk(arm, written, assigned, loop_vars))
                outcomes.append(walk(node.else_body, written, assigned, loop_vars))
                written, assigned = meet(outcomes)
            elif isinstance(node, ast.CaseStatement):
                read(node.subject, written, loop_vars)
                outcomes = []
                if all(alt.choices for alt in node.alternatives):
                    outcomes.append((written, assigned))  # no choice matches
                for alternative in node.alternatives:
                    for choice in alternative.choices:
                        read(choice, written, loop_vars)
                    outcomes.append(
                        walk(alternative.body, written, assigned, loop_vars)
                    )
                written, assigned = meet(outcomes)
            elif isinstance(node, ast.ForLoop):
                read(node.low, written, loop_vars)
                read(node.high, written, loop_vars)
                walk(node.body, written, assigned, loop_vars | {node.var})
            elif isinstance(node, ast.WhileLoop):
                read(node.condition, written, loop_vars)
                walk(node.body, written, assigned, loop_vars)
            elif not isinstance(node, ast.NullStatement):
                stateless = False  # it waits or prints
        return written, assigned

    _, assigned = walk(body, frozenset(), frozenset(), frozenset())
    stateless = stateless and writes <= assigned and not reads & writes
    return ProcessFacts(
        frozenset(reads), frozenset(writes), tuple(sensitivity), stateless,
        tuple(parts.items()) if stateless and parts else (),
    )


def _body_has_wait(body: tuple) -> bool:
    return _contains_wait(body)


def elaborate_vhdl(
    design_file: ast.DesignFile,
    top: str,
    source: SourceFile,
    collector: DiagnosticCollector | None = None,
    *,
    sources: dict[tuple[str, str], SourceFile],
) -> tuple[Design | None, DiagnosticCollector]:
    """Elaborate *top* from a design file; returns (design, diagnostics).

    *source* is the top entity's source. *sources* maps every design unit,
    keyed ``("entity", name)`` or ``("architecture", entity name)``, to its
    source, so a diagnostic or a process name inside a unit points into
    that unit's file.
    """
    collector = collector if collector is not None else DiagnosticCollector()
    entities = {entity.name: entity for entity in design_file.entities}
    architectures = {arch.entity: arch for arch in design_file.architectures}
    elaborator = VhdlElaborator(
        entities, architectures, source, collector, sources=sources
    )
    design = elaborator.elaborate(top)
    return design, collector


# Bound last: the compiler reads this module's names at call time, and is
# read here only at call time, so either module may be imported first.
from repro.sim.compile import vhdl as _cvh  # noqa: E402
