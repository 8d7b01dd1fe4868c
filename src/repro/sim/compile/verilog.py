"""Verilog AST → closure compiler: the simulator's Verilog evaluator.

Expressions compile to ``fn(sim) -> Logic`` and statements to lists of
``(is_gen, fn)`` steps: a plain step is ``fn(sim) -> None`` and a generator
step yields kernel commands. Consecutive plain steps are merged, so a typical
clocked ``always`` body becomes a single closure call per activation.
Identifier resolution, operator dispatch, context widths and constant select
bounds are resolved once, when the closures are built (a process body when
its process first starts); only genuinely dynamic values (runtime select
bounds, replication counts, store targets) are computed per activation.

The compiler is total. Every construct compiles to a closure, and compiling
never emits diagnostics: a construct that is in error when *evaluated*
(an undeclared name, an X replication count, an unsupported system task)
compiles to a closure that emits the diagnostic and raises
:class:`~repro.sim.elab_verilog._ElabAbort` carrying the same text when
called. The elaborator evaluates constant expressions (parameters, ranges,
initial values) by calling these closures with ``sim=None``.
"""

from __future__ import annotations

from typing import Callable

from repro.sim import elab_verilog as ev
from repro.sim.compile.steps import CMD as _CMD
from repro.sim.compile.steps import GEN as _GEN
from repro.sim.compile.steps import PLAIN as _PLAIN
from repro.sim.compile.steps import as_gen, as_plain
from repro.sim.compile.steps import flat_steps as _flat_steps
from repro.sim.compile.steps import merge as _merge
from repro.sim.kernel import Delay, Finish, WaitChange
from repro.sim.runtime import Edge, Sensitivity, Signal
from repro.sim.values import Logic
from repro.verilog import ast

_EDGES = {"pos": Edge.POS, "neg": Edge.NEG, "any": Edge.ANY}

#: binary operators whose operands take the assignment-context width
_CONTEXT_BINARY = frozenset({"+", "-", "*", "/", "%", "&", "|", "^"})
#: unary operators whose operand takes the assignment-context width
_CONTEXT_UNARY = frozenset({"+", "-", "~"})

_UNARY_OPS: dict[str, Callable[[Logic], Logic]] = {
    "+": lambda v: v,
    "-": Logic.neg,
    "~": Logic.__invert__,
    "!": Logic.logical_not,
    "&": Logic.reduce_and,
    "|": Logic.reduce_or,
    "^": Logic.reduce_xor,
    "~&": lambda v: v.reduce_and().logical_not(),
    "~|": lambda v: v.reduce_or().logical_not(),
    "~^": lambda v: v.reduce_xor().logical_not(),
}

_BINARY_OPS: dict[str, Callable[[Logic, Logic], Logic]] = {
    "+": Logic.add,
    "-": Logic.sub,
    "*": Logic.mul,
    "/": Logic.div,
    "%": Logic.mod,
    "&": Logic.__and__,
    "|": Logic.__or__,
    "^": Logic.__xor__,
    "==": Logic.eq,
    "!=": Logic.ne,
    "===": Logic.case_eq,
    "!==": lambda a, b: a.case_eq(b).logical_not(),
    "<": Logic.lt,
    "<=": Logic.le,
    ">": Logic.gt,
    ">=": Logic.ge,
    "<<": Logic.shl,
    "<<<": Logic.shl,
    ">>": Logic.shr,
    ">>>": Logic.ashr,
    "&&": Logic.logical_and,
    "||": Logic.logical_or,
}


def _abort(elab, span, message, operands=()):
    """A closure that evaluates *operands*, then reports *message* and aborts.

    This is how an evaluation-time error compiles: building the closure is
    silent, calling it emits the diagnostic and raises an abort carrying the
    same text (so a simulation run fails with it as its runtime error).
    """
    elab.unsettled = True  # aborts whenever it is evaluated

    def abort(sim, operands=tuple(operands)):
        for operand in operands:
            operand(sim)
        elab._error(span, message)
        raise ev._ElabAbort(message)

    return abort


# --------------------------------------------------------------------------
# constant folding (no diagnostics, no side effects)
# --------------------------------------------------------------------------


def _fold(expr, scope, ctxw=None):
    """Fold a parameter/literal expression to a Logic, or None.

    Follows ``compile_expr``'s width-context rules for the foldable node
    set. Only Numbers and parameter identifiers appear as leaves, so
    folding can never fire ``$random`` or emit a diagnostic.
    """
    if isinstance(expr, ast.Number):
        return expr.value
    if isinstance(expr, ast.Identifier):
        resolved = scope.resolve(expr.name)
        return resolved if isinstance(resolved, Logic) else None
    if isinstance(expr, ast.Unary):
        inner_ctx = ctxw if expr.op in _CONTEXT_UNARY else None
        operand = _fold(expr.operand, scope, inner_ctx)
        op = _UNARY_OPS.get(expr.op)
        if operand is None or op is None:
            return None
        if inner_ctx is not None and operand.width < inner_ctx:
            operand = operand.resize(inner_ctx)
        return op(operand)
    if isinstance(expr, ast.Binary):
        op = expr.op
        if op in _CONTEXT_BINARY:
            lhs = _fold(expr.lhs, scope, ctxw)
            rhs = _fold(expr.rhs, scope, ctxw)
            if lhs is None or rhs is None:
                return None
            width = max(lhs.width, rhs.width, ctxw or 0)
            return _BINARY_OPS[op](lhs.resize(width), rhs.resize(width))
        if op in ("<<", ">>", "<<<", ">>>"):
            lhs = _fold(expr.lhs, scope, ctxw)
            rhs = _fold(expr.rhs, scope)
            if lhs is None or rhs is None:
                return None
            if ctxw is not None and lhs.width < ctxw:
                lhs = lhs.resize(ctxw)
            return _BINARY_OPS[op](lhs, rhs)
        fn = _BINARY_OPS.get(op)
        if fn is None:
            return None
        lhs = _fold(expr.lhs, scope)
        rhs = _fold(expr.rhs, scope)
        if lhs is None or rhs is None:
            return None
        return fn(lhs, rhs)
    return None


def _static_int(expr, scope) -> int | None:
    """Fold to a fully-known non-negative int, or None."""
    value = _fold(expr, scope)
    if value is None or value.has_x:
        return None
    return value.to_int()


#: unary operators whose result is always a single bit
_REDUCING_UNARY = frozenset({"!", "&", "|", "^", "~&", "~|", "~^"})
#: binary operators whose result is always a single bit
_BOOL_BINARY = frozenset(
    {"==", "!=", "===", "!==", "<", "<=", ">", ">=", "&&", "||"}
)


def _static_width(expr, scope, ctxw=None) -> int | None:
    """Exact result width of the closure ``compile_expr`` emits, or None.

    This must be *exact*, not a bound: callers burn it into closures to skip
    runtime ``resize``/``max(width)`` work, so any expression whose width
    could differ at runtime (mixed-width ternaries, dynamic selects and
    replication counts, aborting constructs) answers None.
    """
    if isinstance(expr, ast.Number):
        return expr.value.width
    if isinstance(expr, ast.StringLiteral):
        data = expr.value.encode("ascii", "replace") or b"\0"
        return max(8, 8 * len(data))
    if isinstance(expr, ast.Identifier):
        resolved = scope.resolve(expr.name)
        if isinstance(resolved, (Signal, Logic)):
            return resolved.width
        return None
    if isinstance(expr, ast.Unary):
        op = expr.op
        if op not in _UNARY_OPS:
            return None  # compiles to an abort
        if op in _REDUCING_UNARY:
            return 1
        inner_ctx = ctxw if op in _CONTEXT_UNARY else None
        inner = _static_width(expr.operand, scope, inner_ctx)
        if inner is None:
            return None
        return max(inner, inner_ctx or 0)
    if isinstance(expr, ast.Binary):
        op = expr.op
        if op in _CONTEXT_BINARY:
            wl = _static_width(expr.lhs, scope, ctxw)
            wr = _static_width(expr.rhs, scope, ctxw)
            if wl is None or wr is None:
                return None
            return max(wl, wr, ctxw or 0)
        if op in _BOOL_BINARY:
            return 1
        if op in ("<<", ">>", "<<<", ">>>"):
            wl = _static_width(expr.lhs, scope, ctxw)
            if wl is None:
                return None
            return max(wl, ctxw) if ctxw is not None else wl
        if op == "**":
            wl = _static_width(expr.lhs, scope)
            if wl is None:
                return None
            return max(wl, 32)
        return None
    if isinstance(expr, ast.Ternary):
        wt = _static_width(expr.if_true, scope, ctxw)
        wf = _static_width(expr.if_false, scope, ctxw)
        if wt is not None and wt == wf:
            return wt
        return None
    if isinstance(expr, ast.Concat):
        if not expr.parts:
            return None
        total = 0
        for part in expr.parts:
            width = _static_width(part, scope)
            if width is None:
                return None
            total += width
        return total
    if isinstance(expr, ast.Replicate):
        count = _static_int(expr.count, scope)
        if count is None or count <= 0 or count > 4096:
            return None
        width = _static_width(expr.value, scope)
        if width is None:
            return None
        return count * width
    if isinstance(expr, ast.BitSelect):
        resolved = scope.resolve(expr.target)
        return 1 if isinstance(resolved, (Signal, Logic)) else None
    if isinstance(expr, ast.PartSelect):
        resolved = scope.resolve(expr.target)
        if not isinstance(resolved, (Signal, Logic)):
            return None
        msb = _static_int(expr.msb, scope)
        lsb = _static_int(expr.lsb, scope)
        if msb is None or lsb is None or msb < lsb:
            return None
        if msb - lsb + 1 > ev.VerilogElaborator.MAX_SIGNAL_WIDTH:
            return None
        return msb - lsb + 1
    if isinstance(expr, ast.IndexedPartSelect):
        resolved = scope.resolve(expr.target)
        if not isinstance(resolved, (Signal, Logic)):
            return None
        start = _static_int(expr.base, scope)
        width = _static_int(expr.width, scope)
        if start is None or width is None or width <= 0:
            return None
        return width
    if isinstance(expr, ast.SystemFunctionCall):
        if expr.name == "$time":
            return 64
        if expr.name in ("$signed", "$unsigned") and len(expr.args) == 1:
            return _static_width(expr.args[0], scope)
        if expr.name == "$random":
            return 32
        if expr.name == "$clog2" and len(expr.args) == 1:
            return 32
        return None
    return None


# --------------------------------------------------------------------------
# expression compilation
# --------------------------------------------------------------------------


def compile_expr(expr, scope, elab, ctxw=None):
    """Compile an expression to ``fn(sim) -> Logic``.

    ``ctxw`` implements IEEE 1364 context-determined sizing: in an
    assignment, arithmetic/bitwise operands are extended to the larger of
    their self-determined width and the target width *before* the
    operation, so carries out of narrow operands are preserved (e.g.
    ``{cout, sum} = a + b + cin``).
    """
    if isinstance(expr, ast.Number):
        value = expr.value
        return lambda sim: value
    if isinstance(expr, ast.StringLiteral):
        # strings in expression position pack ASCII (used by $display only)
        data = expr.value.encode("ascii", "replace") or b"\0"
        value = Logic.from_int(int.from_bytes(data, "big"), max(8, 8 * len(data)))
        return lambda sim: value
    if isinstance(expr, ast.Identifier):
        resolved = scope.resolve(expr.name)
        if isinstance(resolved, Signal):
            return lambda sim, s=resolved: s._value
        if isinstance(resolved, Logic):
            return lambda sim, v=resolved: v
        return _abort(elab, expr.span, f"'{expr.name}' is not declared")
    if isinstance(expr, ast.Unary):
        return _compile_unary(expr, scope, elab, ctxw)
    if isinstance(expr, ast.Binary):
        return _compile_binary(expr, scope, elab, ctxw)
    if isinstance(expr, ast.Ternary):
        cond = compile_expr(expr.cond, scope, elab)
        if_true = compile_expr(expr.if_true, scope, elab, ctxw)
        if_false = compile_expr(expr.if_false, scope, elab, ctxw)

        def ternary(sim, cond=cond, if_true=if_true, if_false=if_false):
            c = cond(sim)
            if c.truthy().has_x:
                # IEEE merges both branches; approximated by all-X
                a = if_true(sim)
                b = if_false(sim)
                return Logic.unknown(max(a.width, b.width))
            if c.is_true():
                return if_true(sim)
            return if_false(sim)

        return ternary
    if isinstance(expr, ast.Concat):
        parts = tuple(compile_expr(p, scope, elab) for p in expr.parts)
        if not parts:
            return _abort(elab, expr.span, "cannot evaluate an empty concatenation")
        if len(parts) == 1:
            return parts[0]

        def concat(sim, parts=parts):
            result = parts[0](sim)
            for part in parts[1:]:
                result = result.concat(part(sim))
            return result

        return concat
    if isinstance(expr, ast.Replicate):
        return _compile_replicate(expr, scope, elab)
    if isinstance(expr, (ast.BitSelect, ast.PartSelect, ast.IndexedPartSelect)):
        return _compile_select(expr, scope, elab)
    if isinstance(expr, ast.SystemFunctionCall):
        return _compile_system_function(expr, scope, elab)
    return _abort(elab, expr.span, f"cannot evaluate {type(expr).__name__}")


def _vector_reader(resolved):
    if isinstance(resolved, Signal):
        return lambda sim, s=resolved: s._value
    return lambda sim, v=resolved: v


def _compile_unary(expr, scope, elab, ctxw):
    inner_ctx = ctxw if expr.op in _CONTEXT_UNARY else None
    operand = compile_expr(expr.operand, scope, elab, inner_ctx)
    op = _UNARY_OPS.get(expr.op)
    if op is None:
        return _abort(
            elab, expr.span, f"unsupported unary operator '{expr.op}'", (operand,)
        )
    if inner_ctx is None:
        return lambda sim, f=operand, op=op: op(f(sim))
    wop = _static_width(expr.operand, scope, inner_ctx)
    if wop is not None and wop >= inner_ctx:
        # operand already at (or above) context width: resize is a no-op
        return lambda sim, f=operand, op=op: op(f(sim))

    def unary_ctx(sim, f=operand, op=op, w=inner_ctx):
        value = f(sim)
        if value.width < w:
            value = value.resize(w)
        return op(value)

    return unary_ctx


def _compile_replicate(expr, scope, elab):
    value_fn = compile_expr(expr.value, scope, elab)
    limit = ev.VerilogElaborator.MAX_SIGNAL_WIDTH

    def check_width(n, value):
        if n * value.width > limit:
            message = (
                f"replication result width {n * value.width} exceeds the "
                "supported maximum"
            )
            elab._error(expr.span, message)
            raise ev._ElabAbort(message)

    count = _static_int(expr.count, scope)
    if count is not None and 0 < count <= 4096:

        def replicate(sim, f=value_fn, n=count):
            value = f(sim)
            check_width(n, value)
            return value.replicate(n)

        return replicate
    elab.unsettled = True  # aborts on an unknown or invalid count
    count_fn = compile_expr(expr.count, scope, elab)

    def dynamic_replicate(sim, count_fn=count_fn, f=value_fn):
        count = count_fn(sim)
        value = f(sim)
        if count.has_x:
            message = "replication count has unknown bits"
            elab._error(expr.span, message)
            raise ev._ElabAbort(message)
        n = count.to_int()
        if n <= 0 or n > 4096:
            message = f"invalid replication count {n}"
            elab._error(expr.span, message)
            raise ev._ElabAbort(message)
        check_width(n, value)
        return value.replicate(n)

    return dynamic_replicate


def _check_select_width(msb, lsb, span, elab):
    """Reject part selects whose width would exhaust memory."""
    width = msb - lsb + 1
    if width > ev.VerilogElaborator.MAX_SIGNAL_WIDTH:
        message = f"part-select width {width} exceeds the supported maximum"
        elab._error(span, message)
        raise ev._ElabAbort(message)


def _compile_select(expr, scope, elab):
    """Bit, part and indexed-part select reads (static or dynamic bounds)."""
    resolved = scope.resolve(expr.target)
    if not isinstance(resolved, (Signal, Logic)):
        return _abort(elab, expr.span, f"'{expr.target}' is not declared")
    base = _vector_reader(resolved)
    x1 = Logic.unknown(1)
    if isinstance(expr, ast.BitSelect):
        index = _static_int(expr.index, scope)
        if index is not None:
            return lambda sim, base=base, i=index: base(sim).bit(i)
        index_fn = compile_expr(expr.index, scope, elab)

        def bit_select(sim, base=base, index_fn=index_fn):
            index = index_fn(sim)
            if index.has_x:
                return x1
            return base(sim).bit(index.to_int())

        return bit_select
    if isinstance(expr, ast.PartSelect):
        msb = _static_int(expr.msb, scope)
        lsb = _static_int(expr.lsb, scope)
        if msb is not None and lsb is not None:
            if msb < lsb:
                # a reversed range reads X, as a dynamic one does
                return lambda sim: x1
            if msb - lsb + 1 <= ev.VerilogElaborator.MAX_SIGNAL_WIDTH:
                return (
                    lambda sim, base=base, m=msb, l=lsb: base(sim).slice(m, l)
                )
        elab.unsettled = True  # aborts on an oversized range
        msb_fn = compile_expr(expr.msb, scope, elab)
        lsb_fn = compile_expr(expr.lsb, scope, elab)

        def part_select(sim, base=base, msb_fn=msb_fn, lsb_fn=lsb_fn):
            msb = msb_fn(sim)
            lsb = lsb_fn(sim)
            if msb.has_x or lsb.has_x:
                return x1
            m, l = msb.to_int(), lsb.to_int()
            if m < l:
                # a reversed range, e.g. while one bound of a dynamic
                # select has settled and the other has not
                return x1
            _check_select_width(m, l, expr.span, elab)
            return base(sim).slice(m, l)

        return part_select
    start = _static_int(expr.base, scope)
    width = _static_int(expr.width, scope)
    if start is not None and width is not None:
        lo = start if expr.ascending else start - width + 1
        m = lo + width - 1
        return lambda sim, base=base, m=m, l=lo: _slice(base(sim), m, l)
    start_fn = compile_expr(expr.base, scope, elab)
    width_fn = compile_expr(expr.width, scope, elab)

    def indexed_select(sim, base=base, start_fn=start_fn, width_fn=width_fn,
                       ascending=expr.ascending):
        start = start_fn(sim)
        width = width_fn(sim)
        if start.has_x or width.has_x:
            return x1
        w = width.to_int()
        if w < 1:
            return x1
        lo = start.to_int() if ascending else start.to_int() - w + 1
        return _slice(base(sim), lo + w - 1, lo)

    return indexed_select


def _slice(value, msb, lsb):
    """``value[msb:lsb]`` where bits outside the vector read as X, those
    below bit 0 (a ``-:`` select reaching past the bottom) included."""
    if lsb >= 0:
        return value.slice(msb, lsb)
    if msb < 0:
        return Logic.unknown(msb - lsb + 1)
    return value.slice(msb, 0).concat(Logic.unknown(-lsb))


def _compile_binary(expr, scope, elab, ctxw):
    op = expr.op
    if op in _CONTEXT_BINARY:
        lhs = compile_expr(expr.lhs, scope, elab, ctxw)
        rhs = compile_expr(expr.rhs, scope, elab, ctxw)
        fn = _BINARY_OPS[op]
        wl = _static_width(expr.lhs, scope, ctxw)
        wr = _static_width(expr.rhs, scope, ctxw)
        if wl is not None and wr is not None:
            width = max(wl, wr, ctxw or 0)
            # bake constant operands in at the context width (folding cannot
            # fire $random, so evaluation order is preserved)
            lc = _fold(expr.lhs, scope, ctxw)
            rc = _fold(expr.rhs, scope, ctxw)
            if lc is not None:
                lc = lc.resize(width)
            if rc is not None:
                rc = rc.resize(width)
            if lc is not None and rc is not None:
                const = fn(lc, rc)
                return lambda sim, v=const: v
            if rc is not None:
                if wl == width:
                    return lambda sim, lhs=lhs, b=rc, fn=fn: fn(lhs(sim), b)

                def binary_const_rhs(sim, lhs=lhs, b=rc, fn=fn, w=width):
                    return fn(lhs(sim).resize(w), b)

                return binary_const_rhs
            if lc is not None:
                if wr == width:
                    return lambda sim, a=lc, rhs=rhs, fn=fn: fn(a, rhs(sim))

                def binary_const_lhs(sim, a=lc, rhs=rhs, fn=fn, w=width):
                    return fn(a, rhs(sim).resize(w))

                return binary_const_lhs
            if wl == width and wr == width:
                # both operands are already at the context width
                return lambda sim, lhs=lhs, rhs=rhs, fn=fn: fn(lhs(sim), rhs(sim))

            def context_binary_static(sim, lhs=lhs, rhs=rhs, fn=fn, w=width):
                return fn(lhs(sim).resize(w), rhs(sim).resize(w))

            return context_binary_static

        def context_binary(sim, lhs=lhs, rhs=rhs, fn=fn, floor=ctxw or 0):
            a = lhs(sim)
            b = rhs(sim)
            width = max(a.width, b.width, floor)
            return fn(a.resize(width), b.resize(width))

        return context_binary
    if op in ("<<", ">>", "<<<", ">>>"):
        lhs = compile_expr(expr.lhs, scope, elab, ctxw)
        rhs = compile_expr(expr.rhs, scope, elab)
        fn = _BINARY_OPS[op]
        if ctxw is None:
            return lambda sim, lhs=lhs, rhs=rhs, fn=fn: fn(lhs(sim), rhs(sim))
        wl = _static_width(expr.lhs, scope, ctxw)
        if wl is not None and wl >= ctxw:
            return lambda sim, lhs=lhs, rhs=rhs, fn=fn: fn(lhs(sim), rhs(sim))

        def shift(sim, lhs=lhs, rhs=rhs, fn=fn, w=ctxw):
            a = lhs(sim)
            if a.width < w:
                a = a.resize(w)
            return fn(a, rhs(sim))

        return shift
    lhs = compile_expr(expr.lhs, scope, elab)
    rhs = compile_expr(expr.rhs, scope, elab)
    if op == "**":

        def power(sim, lhs=lhs, rhs=rhs):
            a = lhs(sim)
            b = rhs(sim)
            if a.has_x or b.has_x:
                return Logic.unknown(max(a.width, 32))
            return Logic.from_int(a.bits ** min(b.bits, 64), max(a.width, 32))

        return power
    fn = _BINARY_OPS.get(op)
    if fn is None:
        return _abort(
            elab, expr.span, f"unsupported binary operator '{op}'", (lhs, rhs)
        )
    return lambda sim, lhs=lhs, rhs=rhs, fn=fn: fn(lhs(sim), rhs(sim))


def _compile_system_function(expr, scope, elab):
    name = expr.name
    if name == "$time":
        elab.unsettled = True  # reads the simulator's clock

        def time(sim):
            if sim is None:
                message = "$time used in a constant expression"
                elab._error(expr.span, message)
                raise ev._ElabAbort(message)
            return Logic.from_int(sim.time, 64)

        return time
    if name in ("$signed", "$unsigned"):
        if len(expr.args) != 1:
            return _abort(elab, expr.span, f"{name} takes exactly one argument")
        return compile_expr(expr.args[0], scope, elab)
    if name == "$random":
        elab.unsettled = True  # advances the elaborator's generator
        return lambda sim, rng=elab.rng: Logic.from_int(rng.next(), 32)
    if name == "$clog2":
        if len(expr.args) != 1:
            return _abort(elab, expr.span, "$clog2 takes exactly one argument")
        arg = compile_expr(expr.args[0], scope, elab)

        def clog2(sim, arg=arg):
            value = arg(sim)
            if value.has_x:
                return Logic.unknown(32)
            return Logic.from_int(max(0, (value.to_int() - 1).bit_length()), 32)

        return clog2
    return _abort(elab, expr.span, f"unsupported system function '{name}'")


# --------------------------------------------------------------------------
# statement compilation (step machinery shared with VHDL — see steps.py)
# --------------------------------------------------------------------------


def compile_stmt(stmt, scope, elab):
    """Compile a statement into ``(is_gen, fn)`` steps."""
    if isinstance(stmt, ast.Block):
        steps = []
        for inner in stmt.statements:
            steps.extend(compile_stmt(inner, scope, elab))
        return steps
    if isinstance(stmt, ast.If):
        return _compile_if(stmt, scope, elab)
    if isinstance(stmt, ast.Case):
        return _compile_case(stmt, scope, elab)
    if isinstance(stmt, ast.Assign):
        return [_compile_assign(stmt, scope, elab)]
    if isinstance(stmt, ast.For):
        return _compile_for(stmt, scope, elab)
    if isinstance(stmt, ast.Repeat):
        return _compile_repeat(stmt, scope, elab)
    if isinstance(stmt, ast.While):
        return _compile_while(stmt, scope, elab)
    if isinstance(stmt, ast.Forever):
        merged = _merge(compile_stmt(stmt.body, scope, elab))
        flat = _flat_steps(merged)
        if flat is not None:

            def forever_flat(sim, flat=flat):
                while True:
                    for kind, fn in flat:
                        if kind:
                            yield fn
                        else:
                            fn(sim)

            return [(True, forever_flat)]
        body = as_gen(merged)

        def forever(sim, body=body):
            while True:
                yield from body(sim)

        return [(True, forever)]
    if isinstance(stmt, ast.DelayControl):
        return _compile_delay(stmt, scope, elab)
    if isinstance(stmt, ast.EventControl):
        return _compile_event(stmt, scope, elab)
    if isinstance(stmt, ast.SystemTaskCall):
        return _compile_system_task(stmt, scope, elab)
    if isinstance(stmt, ast.NullStatement):
        return []
    message = f"cannot execute {type(stmt).__name__}"
    return [(_PLAIN, _abort(elab, stmt.span, message))]


def _compile_if(stmt, scope, elab):
    cond = compile_expr(stmt.condition, scope, elab)
    then_steps = compile_stmt(stmt.then_branch, scope, elab)
    else_steps = (
        compile_stmt(stmt.else_branch, scope, elab)
        if stmt.else_branch is not None
        else None
    )
    then_plain = as_plain(then_steps)
    else_plain = as_plain(else_steps) if else_steps is not None else None
    if then_plain is not None and (else_steps is None or else_plain is not None):

        def plain_if(sim, cond=cond, then=then_plain, other=else_plain):
            if cond(sim).is_true():
                then(sim)
            elif other is not None:
                other(sim)

        return [(False, plain_if)]
    then_gen = as_gen(then_steps)
    else_gen = as_gen(else_steps) if else_steps is not None else None

    def gen_if(sim, cond=cond, then=then_gen, other=else_gen):
        if cond(sim).is_true():
            yield from then(sim)
        elif other is not None:
            yield from other(sim)

    return [(True, gen_if)]


def _compile_case(stmt, scope, elab):
    subject = compile_expr(stmt.subject, scope, elab)
    kind = stmt.kind
    arms = []
    default_steps = None
    all_plain = True
    for item in stmt.items:
        steps = compile_stmt(item.body, scope, elab)
        if as_plain(steps) is None:
            all_plain = False
        if not item.labels:
            default_steps = steps
            continue
        labels = tuple(compile_expr(label, scope, elab) for label in item.labels)
        arms.append((labels, steps))
    if all_plain:
        compiled_arms = tuple(
            (labels, as_plain(steps)) for labels, steps in arms
        )
        default = as_plain(default_steps) if default_steps is not None else None

        def plain_case(sim, subject=subject, arms=compiled_arms,
                       default=default, kind=kind, match=_case_match):
            value = subject(sim)
            for labels, body in arms:
                for label in labels:
                    if match(kind, value, label(sim)):
                        body(sim)
                        return
            if default is not None:
                default(sim)

        return [(False, plain_case)]
    compiled_arms = tuple((labels, as_gen(steps)) for labels, steps in arms)
    default = as_gen(default_steps) if default_steps is not None else None

    def gen_case(sim, subject=subject, arms=compiled_arms, default=default,
                 kind=kind, match=_case_match):
        value = subject(sim)
        for labels, body in arms:
            for label in labels:
                if match(kind, value, label(sim)):
                    yield from body(sim)
                    return
        if default is not None:
            yield from default(sim)

    return [(True, gen_case)]


def _case_match(kind, subject, label):
    width = max(subject.width, label.width)
    subject = subject.resize(width)
    label = label.resize(width)
    if kind == "case":
        return subject.case_eq(label).is_true()
    # casez/casex: X/Z bits of the label (and for casex, the subject) are wildcards
    wildcard = label.xmask
    if kind == "casex":
        wildcard |= subject.xmask
    considered = ((1 << width) - 1) & ~wildcard
    if subject.xmask & considered:
        return False
    return ((subject.bits ^ label.bits) & considered) == 0


# -- assignment targets ----------------------------------------------------------


def _static_bounds(target, scope):
    """(msb, lsb) of a select lvalue when constant, else None."""
    if isinstance(target, ast.BitSelect):
        index = _static_int(target.index, scope)
        if index is None:
            return None
        return index, index
    if isinstance(target, ast.PartSelect):
        msb = _static_int(target.msb, scope)
        lsb = _static_int(target.lsb, scope)
        if msb is None or lsb is None:
            return None
        if msb - lsb + 1 > ev.VerilogElaborator.MAX_SIGNAL_WIDTH:
            return None
        return msb, lsb
    base = _static_int(target.base, scope)
    width = _static_int(target.width, scope)
    if base is None or width is None:
        return None
    lo = base if target.ascending else base - width + 1
    return lo + width - 1, lo


def _dynamic_bounds(target, scope, elab):
    """``fn(sim) -> (msb, lsb)`` for a select lvalue, or None on X bounds."""
    if isinstance(target, ast.BitSelect):
        index_fn = compile_expr(target.index, scope, elab)

        def bit_bounds(sim, index_fn=index_fn):
            index = index_fn(sim)
            if index.has_x:
                return None
            i = index.to_int()
            return i, i

        return bit_bounds
    if isinstance(target, ast.PartSelect):
        elab.unsettled = True  # aborts on an oversized range
        msb_fn = compile_expr(target.msb, scope, elab)
        lsb_fn = compile_expr(target.lsb, scope, elab)

        def part_bounds(sim, msb_fn=msb_fn, lsb_fn=lsb_fn):
            msb = msb_fn(sim)
            lsb = lsb_fn(sim)
            if msb.has_x or lsb.has_x:
                return None
            m, l = msb.to_int(), lsb.to_int()
            if m < l:
                return None  # a reversed range stores nothing, as X bounds do
            _check_select_width(m, l, target.span, elab)
            return m, l

        return part_bounds
    base_fn = compile_expr(target.base, scope, elab)
    width_fn = compile_expr(target.width, scope, elab)

    def indexed_bounds(sim, base_fn=base_fn, width_fn=width_fn,
                       ascending=target.ascending):
        base = base_fn(sim)
        width = width_fn(sim)
        if base.has_x or width.has_x:
            return None
        w = width.to_int()
        lo = base.to_int() if ascending else base.to_int() - w + 1
        return lo + w - 1, lo

    return indexed_bounds


def _lvalue(target, scope, elab, blocking):
    """``(width, store)`` for an assignment target.

    *width* is the target's width as an int when it is static, else a
    ``fn(sim) -> int`` (a select with X bounds counts as one bit).
    ``store(sim, value)`` writes *value* into the target; a select whose
    bounds are X at store time writes nothing (IEEE).
    """
    if isinstance(target, ast.Concat):
        parts = tuple(
            _lvalue(part, scope, elab, blocking) for part in target.parts
        )
        if all(isinstance(width, int) for width, _ in parts):

            def store_concat(sim, value, parts=parts):
                # {a, b} = value — split from the high end
                offset = value.width
                for width, store in parts:
                    offset -= width
                    lo = max(offset, 0)
                    store(sim, value.slice(lo + width - 1, lo))

            return sum(width for width, _ in parts), store_concat
        widths = tuple(
            (lambda sim, w=width: w) if isinstance(width, int) else width
            for width, _ in parts
        )

        def concat_width(sim, widths=widths):
            return sum(width(sim) for width in widths)

        def store_dynamic_concat(sim, value, parts=tuple(zip(widths, parts))):
            offset = value.width
            for width_fn, (_, store) in parts:
                width = width_fn(sim)
                offset -= width
                lo = max(offset, 0)
                store(sim, value.slice(lo + width - 1, lo))

        return concat_width, store_dynamic_concat
    name = target.name if isinstance(target, ast.Identifier) else target.target
    signal = scope.resolve(name)
    if not isinstance(signal, Signal):
        fail = _abort(elab, target.span, f"cannot assign to '{name}'")
        return fail, lambda sim, value, fail=fail: fail(sim)
    if isinstance(target, ast.Identifier):
        if blocking:
            def store_signal(sim, value, s=signal):
                sim.write_signal(s, value.resize(s.width))
        else:
            def store_signal(sim, value, s=signal):
                sim.schedule_nba(s, value.resize(s.width))
        return signal.width, store_signal
    bounds = _static_bounds(target, scope)
    if bounds is not None:
        msb, lsb = bounds
        if msb < lsb:
            # a reversed range stores nothing, as X bounds do
            return 1, lambda sim, value: None
        if blocking:
            def store_select(sim, value, s=signal, m=msb, l=lsb):
                sim.write_signal(s, s._value.set_slice(m, l, value))
        else:
            def store_select(sim, value, s=signal, m=msb, l=lsb):
                sim.schedule_nba_update(
                    s, lambda old, m=m, l=l, v=value: old.set_slice(m, l, v)
                )
        return msb - lsb + 1, store_select
    bounds_fn = _dynamic_bounds(target, scope, elab)

    def select_width(sim, bounds_fn=bounds_fn):
        bounds = bounds_fn(sim)
        return 1 if bounds is None else bounds[0] - bounds[1] + 1

    def store_dynamic_select(sim, value, s=signal, bounds_fn=bounds_fn):
        bounds = bounds_fn(sim)
        if bounds is None:
            return  # X bounds: the assignment has no effect (IEEE)
        m, l = bounds
        if blocking:
            sim.write_signal(s, s._value.set_slice(m, l, value))
        else:
            sim.schedule_nba_update(
                s, lambda old, m=m, l=l, v=value: old.set_slice(m, l, v)
            )

    return select_width, store_dynamic_select


def _value_at_width(value, scope, elab):
    """``fn(width)`` → the value closure compiled at that context width.

    Serves targets whose width is only known per evaluation; each distinct
    width is compiled once, on first use, and width 1 (every bit-select's)
    at once, so the body's build sees what the value compiles to.
    """
    compiled = {1: compile_expr(value, scope, elab, 1)}

    def at(width):
        fn = compiled.get(width)
        if fn is None:
            fn = compiled[width] = compile_expr(value, scope, elab, width)
        return fn

    return at


def _compile_assign(stmt, scope, elab):
    target = stmt.target
    resolved = scope.resolve(target.name) if isinstance(
        target, ast.Identifier
    ) else None
    if isinstance(resolved, Signal):
        # constant RHS: burn in the value, pre-resized to the target width
        const = _fold(stmt.value, scope, resolved.width)
        if const is not None:
            const = const.resize(resolved.width)
            if stmt.blocking:
                def assign(sim, s=resolved, v=const):
                    sim.write_signal(s, v)
            else:
                def assign(sim, s=resolved, v=const):
                    sim.schedule_nba(s, v)
            return (False, assign)
        # whole-signal target: write the value straight through the kernel,
        # which resizes to the signal width on commit (same result as the
        # store-wrapper path, one closure call shorter)
        value = compile_expr(stmt.value, scope, elab, resolved.width)
        if stmt.blocking:
            def assign(sim, s=resolved, value=value):
                sim.write_signal(s, value(sim))
        else:
            def assign(sim, s=resolved, value=value):
                sim.schedule_nba(s, value(sim))
        return (False, assign)
    width, store = _lvalue(target, scope, elab, stmt.blocking)
    if not isinstance(width, int):
        # the target width (and so the value's context width) is evaluated
        # first, then the value, then the target again for the store
        value_at = _value_at_width(stmt.value, scope, elab)

        def dynamic_assign(sim, width=width, value_at=value_at, store=store):
            store(sim, value_at(width(sim))(sim))

        return (False, dynamic_assign)
    value = compile_expr(stmt.value, scope, elab, width)

    def assign(sim, value=value, store=store):
        store(sim, value(sim))

    return (False, assign)


def _compile_for(stmt, scope, elab):
    counter = scope.resolve(getattr(stmt.init.target, "name", ""))
    trip_reads = elab._read_set(stmt.condition, scope)
    trip_reads |= elab._read_set(stmt.step.value, scope)
    if trip_reads - {counter}:
        # its trip count depends on operand values, so it can reach the
        # iteration limit on some of them
        elab.unsettled = True
    init_steps = compile_stmt(stmt.init, scope, elab)
    cond = compile_expr(stmt.condition, scope, elab)
    step_steps = compile_stmt(stmt.step, scope, elab)
    body_steps = compile_stmt(stmt.body, scope, elab)
    init_plain = as_plain(init_steps)
    step_plain = as_plain(step_steps)
    body_plain = as_plain(body_steps)
    limit = ev.VerilogElaborator.LOOP_LIMIT
    if init_plain is not None and step_plain is not None and body_plain is not None:

        def plain_for(sim, init=init_plain, cond=cond, step=step_plain,
                      body=body_plain, limit=limit):
            init(sim)
            iterations = 0
            while cond(sim).is_true():
                body(sim)
                step(sim)
                iterations += 1
                if iterations > limit:
                    raise ev.SimulationError("for-loop iteration limit exceeded")

        return [(False, plain_for)]
    init_gen = as_gen(init_steps)
    step_gen = as_gen(step_steps)
    body_gen = as_gen(body_steps)

    def gen_for(sim, init=init_gen, cond=cond, step=step_gen, body=body_gen,
                limit=limit):
        yield from init(sim)
        iterations = 0
        while cond(sim).is_true():
            yield from body(sim)
            yield from step(sim)
            iterations += 1
            if iterations > limit:
                raise ev.SimulationError("for-loop iteration limit exceeded")

    return [(True, gen_for)]


def _compile_repeat(stmt, scope, elab):
    count = compile_expr(stmt.count, scope, elab)
    body_steps = compile_stmt(stmt.body, scope, elab)
    body_plain = as_plain(body_steps)
    if body_plain is not None:

        def plain_repeat(sim, count=count, body=body_plain):
            value = count(sim)
            for _ in range(0 if value.has_x else value.to_int()):
                body(sim)

        return [(False, plain_repeat)]
    merged = _merge(body_steps)
    flat = _flat_steps(merged)
    if flat is not None:
        # the classic clock generator: repeat (N) begin #T s = ...; ... end —
        # run the whole loop from this one generator frame
        def repeat_flat(sim, count=count, flat=flat):
            value = count(sim)
            for _ in range(0 if value.has_x else value.to_int()):
                for kind, fn in flat:
                    if kind:  # _CMD: only non-PLAIN kind in a flat body
                        yield fn
                    else:
                        fn(sim)

        return [(True, repeat_flat)]
    body_gen = as_gen(merged)

    def gen_repeat(sim, count=count, body=body_gen):
        value = count(sim)
        for _ in range(0 if value.has_x else value.to_int()):
            yield from body(sim)

    return [(True, gen_repeat)]


def _compile_while(stmt, scope, elab):
    elab.unsettled = True  # aborts at the iteration limit
    cond = compile_expr(stmt.condition, scope, elab)
    body_steps = compile_stmt(stmt.body, scope, elab)
    body_plain = as_plain(body_steps)
    limit = ev.VerilogElaborator.LOOP_LIMIT
    if body_plain is not None:

        def plain_while(sim, cond=cond, body=body_plain, limit=limit):
            iterations = 0
            while cond(sim).is_true():
                body(sim)
                iterations += 1
                if iterations > limit:
                    raise ev.SimulationError("while-loop iteration limit exceeded")

        return [(False, plain_while)]
    body_gen = as_gen(body_steps)

    def gen_while(sim, cond=cond, body=body_gen, limit=limit):
        iterations = 0
        while cond(sim).is_true():
            yield from body(sim)
            iterations += 1
            if iterations > limit:
                raise ev.SimulationError("while-loop iteration limit exceeded")

    return [(True, gen_while)]


def _compile_delay(stmt, scope, elab):
    ticks = _static_int(stmt.delay, scope)
    if ticks is not None:
        steps = [(_CMD, Delay(ticks))]
    else:
        delay = compile_expr(stmt.delay, scope, elab)

        def dynamic_delay(sim, delay=delay):
            value = delay(sim)
            yield Delay(0 if value.has_x else value.to_int())

        steps = [(_GEN, dynamic_delay)]
    if stmt.statement is not None:
        steps.extend(compile_stmt(stmt.statement, scope, elab))
    return steps


def _compile_event(stmt, scope, elab):
    entries = []
    bad = []
    for item in stmt.sensitivity.items:
        signal = _static_sens_signal(item.signal, scope)
        if signal is None:
            bad.append(item.signal)
            continue
        entries.append(Sensitivity(signal, _EDGES[item.edge]))
    steps = []
    if bad:
        # a bad item is reported each time the control executes, then
        # skipped (the remaining items still form the wait)
        def diagnose(sim, bad=tuple(bad)):
            for expr in bad:
                elab._sens_signal(expr, scope)

        steps.append((_PLAIN, diagnose))
    if entries:
        steps.append((_CMD, WaitChange(tuple(entries))))
    if stmt.statement is not None:
        steps.extend(compile_stmt(stmt.statement, scope, elab))
    return steps


def _static_sens_signal(expr, scope):
    """Signal for a sensitivity item, or None (never emits diagnostics)."""
    if isinstance(expr, ast.Identifier):
        resolved = scope.resolve(expr.name)
        return resolved if isinstance(resolved, Signal) else None
    if isinstance(expr, (ast.BitSelect, ast.PartSelect)):
        resolved = scope.resolve(expr.target)
        return resolved if isinstance(resolved, Signal) else None
    return None


def _compile_system_task(stmt, scope, elab):
    name = stmt.name
    if name in ("$display", "$write", "$monitor", "$strobe", "$error"):
        text = _Text(stmt.args, scope, elab)

        def display(sim, text=text,
                    prefix="ERROR: " if name == "$error" else ""):
            sim.display(prefix + text(sim))

        return [(False, display)]
    if name == "$fatal":
        text = _Text(stmt.args, scope, elab)
        command = Finish(1)

        def fatal(sim, text=text, command=command):
            sim.display("FATAL: " + text(sim))
            yield command

        return [(True, fatal)]
    if name in ("$finish", "$stop"):
        return [(_CMD, Finish(0))]
    message = f"unsupported system task '{name}'"
    return [(_PLAIN, _abort(elab, stmt.span, message))]


class _Text:
    """``fn(sim) -> str`` rendering a ``$display``-family argument list.

    Testbenches carry many messages that never print (per-vector failure
    reports), so the renderer is compiled when it first runs, not at
    elaboration.
    """

    __slots__ = ("args", "scope", "elab", "render")

    def __init__(self, args, scope, elab):
        self.args = args
        self.scope = scope
        self.elab = elab
        self.render = None

    def __call__(self, sim):
        if self.render is None:
            self.render = _compile_render(self.args, self.scope, self.elab)
        return self.render(sim)


def _compile_render(args, scope, elab):
    if not args:
        return lambda sim: ""
    if isinstance(args[0], ast.StringLiteral):
        return _compile_format(args[0].value, args[1:], scope, elab)
    values = tuple(compile_expr(arg, scope, elab) for arg in args)

    def plain(sim, values=values):
        rendered = []
        for value_fn in values:
            value = value_fn(sim)
            rendered.append(
                value.format("d") if value.is_fully_known else value.format("b")
            )
        return " ".join(rendered)

    return plain


def _compile_format(fmt, args, scope, elab):
    """Parse a format string once into literal text and argument renderers.

    Arguments are consumed left to right by conversions and evaluated in
    that order when the text is rendered; surplus arguments are never
    evaluated and a conversion without one renders ``<missing>``.
    """
    pieces = []
    i = 0
    arg_index = 0
    fmt = fmt.replace("\\n", "\n").replace("\\t", "\t").replace('\\"', '"')
    while i < len(fmt):
        percent = fmt.find("%", i)
        if percent < 0:
            pieces.append(fmt[i:])
            break
        pieces.append(fmt[i:percent])
        i = percent + 1
        if i >= len(fmt):
            pieces.append("%")
            break
        # optional width / zero-pad digits
        width_digits = ""
        while i < len(fmt) and fmt[i].isdigit():
            width_digits += fmt[i]
            i += 1
        spec = fmt[i].lower() if i < len(fmt) else "%"
        i += 1
        if spec == "%":
            pieces.append("%")
            continue
        if arg_index >= len(args):
            pieces.append("<missing>")
            continue
        arg = args[arg_index]
        arg_index += 1
        if spec == "s" and isinstance(arg, ast.StringLiteral):
            pieces.append(arg.value)
            continue
        pieces.append(
            _format_arg(spec, width_digits, compile_expr(arg, scope, elab))
        )
    # merge adjacent literal text
    merged = []
    for piece in pieces:
        if isinstance(piece, str) and merged and isinstance(merged[-1], str):
            merged[-1] += piece
        elif piece != "":
            merged.append(piece)
    if not merged:
        return lambda sim: ""
    if len(merged) == 1 and isinstance(merged[0], str):
        return lambda sim, text=merged[0]: text
    merged = tuple(merged)

    def render(sim, pieces=merged):
        return "".join(
            [piece if isinstance(piece, str) else piece(sim) for piece in pieces]
        )

    return render


def _format_arg(spec, width_digits, value_fn):
    """``fn(sim) -> str`` for one ``%<width><spec>`` conversion."""
    if spec == "t":

        def time_text(sim):
            value = value_fn(sim)
            return str(value.to_int()) if value.is_fully_known else "x"

        return time_text
    if spec == "d" and width_digits:
        fill = "0" if width_digits.startswith("0") else " "
        pad = int(width_digits)

        def padded(sim):
            text = value_fn(sim).format("d")
            return text.rjust(pad or len(text), fill)

        return padded
    if spec in ("b", "d", "h", "o"):
        return lambda sim: value_fn(sim).format(spec)
    if spec == "c":

        def char_text(sim):
            value = value_fn(sim)
            return chr(value.bits & 0x7F) if value.is_fully_known else "x"

        return char_text
    if spec == "s":
        return lambda sim: _logic_to_text(value_fn(sim))

    def unknown_spec(sim):
        value_fn(sim)
        return f"%{spec}"

    return unknown_spec


def _logic_to_text(value):
    if value.has_x:
        return "x"
    data = value.bits.to_bytes(max(1, (value.width + 7) // 8), "big")
    return data.lstrip(b"\0").decode("ascii", "replace")


# --------------------------------------------------------------------------
# process factories (the elaborator integration surface)
# --------------------------------------------------------------------------


def continuous_assign_factory(target, value, scope, elab, reads):
    """Factory for ``assign target = value``."""
    wait = WaitChange.on(*reads) if reads else None
    resolved = scope.resolve(target.name) if isinstance(
        target, ast.Identifier
    ) else None
    if isinstance(resolved, Signal):
        value_fn = compile_expr(value, scope, elab, resolved.width)

        def factory(sim, value_fn=value_fn, s=resolved, wait=wait):
            def body():
                while True:
                    sim.write_signal(s, value_fn(sim))
                    if wait is None:
                        return
                    yield wait

            return body()

        return factory
    width, store = _lvalue(target, scope, elab, blocking=True)
    if isinstance(width, int):
        value_fn = compile_expr(value, scope, elab, width)
    else:
        # the target width is evaluated once, when the process starts
        value_at = _value_at_width(value, scope, elab)

    def factory(sim, store=store, wait=wait):
        def body():
            fn = value_fn if isinstance(width, int) else value_at(width(sim))
            while True:
                store(sim, fn(sim))
                if wait is None:
                    return
                yield wait

        return body()

    return factory


def always_factory(body, scope, elab, entries, initial_run):
    """Factory for ``always @(...)`` (sensitivity known statically)."""
    steps = compile_stmt(body, scope, elab)
    wait = WaitChange(entries) if entries else None
    body_plain = as_plain(steps)
    if body_plain is not None:

        def factory(sim, body=body_plain, wait=wait, initial_run=initial_run):
            def run():
                if initial_run:
                    body(sim)
                while True:
                    if wait is None:
                        return
                    yield wait
                    body(sim)

            return run()

        return factory
    body_gen = as_gen(steps)

    def factory(sim, body=body_gen, wait=wait, initial_run=initial_run):
        def run():
            if initial_run:
                yield from body(sim)
            while True:
                if wait is None:
                    return
                yield wait
                yield from body(sim)

        return run()

    return factory


def free_always_factory(body, scope, elab):
    """Factory for ``always`` with no sensitivity (self-delaying body)."""
    merged = _merge(compile_stmt(body, scope, elab))
    flat = _flat_steps(merged)
    if flat is not None:
        # always #T sig = ...; — a single-frame loop over prebuilt commands

        def factory(sim, flat=flat):
            def run():
                while True:
                    for kind, fn in flat:
                        if kind:
                            yield fn
                        else:
                            fn(sim)

            return run()

        return factory
    body_gen = as_gen(merged)

    def factory(sim, body=body_gen):
        def run():
            while True:
                yield from body(sim)

        return run()

    return factory


def initial_factory(body, scope, elab):
    """Factory for an ``initial`` block."""
    body_gen = as_gen(compile_stmt(body, scope, elab))

    def factory(sim, body=body_gen):
        return body(sim)

    return factory


def wire_input_factory(expr, child, scope, elab, reads):
    """Factory for an instance input-port connection."""
    value_fn = compile_expr(expr, scope, elab, child.width)
    wait = WaitChange.on(*reads) if reads else None

    def factory(sim, value_fn=value_fn, child=child, wait=wait):
        def body():
            while True:
                sim.write_signal(child, value_fn(sim))
                if wait is None:
                    return
                yield wait

        return body()

    return factory


def wire_output_factory(target, child, scope, elab):
    """Factory for an instance output-port connection."""
    wait = WaitChange.on(child)
    resolved = scope.resolve(target.name) if isinstance(
        target, ast.Identifier
    ) else None
    if isinstance(resolved, Signal):
        # whole-signal connection: forward straight through the kernel,
        # which resizes on width mismatch

        def factory(sim, s=resolved, child=child, wait=wait):
            def body():
                while True:
                    sim.write_signal(s, child._value)
                    yield wait

            return body()

        return factory
    _, store = _lvalue(target, scope, elab, blocking=True)

    def factory(sim, store=store, child=child, wait=wait):
        def body():
            while True:
                store(sim, child._value)
                yield wait

        return body()

    return factory
