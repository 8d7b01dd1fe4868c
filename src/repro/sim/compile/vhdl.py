"""VHDL AST → closure compiler: the simulator's VHDL evaluator.

Name-category resolution (loop variable vs process variable vs constant vs
signal), declared type info, operator dispatch, and static index/slice
offsets are burned into closures once, when they are built (a process body
when its process first starts).

Expressions compile to ``fn(ctx) -> Logic`` where *ctx* is the elaborator's
:class:`~repro.sim.elab_vhdl._EvalCtx` — process-local state (variables,
loop indices, edge memory) stays in the ctx, everything statically known
lives in the closures. Statements compile to the shared ``(kind, fn)`` step
lists of :mod:`repro.sim.compile.steps`.

Constants fold bottom-up: a node whose compiled operands are all constants
and whose operation cannot fail is evaluated once, at compile time, and
becomes a constant closure itself (see :func:`_const`). The elaborator
evaluates generics, type bounds, initial values and delays by calling
compiled closures with a simulator-less ctx.

The compiler is total. Every construct compiles to a closure, and compiling
never emits diagnostics: a construct that is in error when *evaluated*
(an undeclared name, an aggregate without a width context, an X integer)
compiles to a closure that emits the diagnostic and raises
:class:`~repro.sim.elab_vhdl._ElabAbort` carrying the same text when called.
"""

from __future__ import annotations

from repro.sim import elab_vhdl as evh
from repro.sim.compile.steps import (
    CMD,
    GEN,
    PLAIN,
    as_gen,
    as_plain,
    flat_steps,
    merge,
)
from repro.sim.kernel import Delay, Finish, SimulationError, WaitChange
from repro.sim.runtime import Signal
from repro.sim.values import Logic
from repro.vhdl import ast

_TRUE = Logic(1, 1)
_FALSE = Logic(1, 0)
_X1 = Logic(1, 0, 1)


class _Env:
    """Static compile-time environment: what a name means at this point.

    ``var_types`` holds the declared types of process variables visible here
    (including, during a declaration's own init, that declaration — its
    type is registered before the init is evaluated). ``var_names`` holds
    only the variables that already have *values* (earlier declarations),
    which is what value resolution uses. ``loop_vars`` is the lexically
    enclosing for-loop indices.
    """

    __slots__ = ("scope", "elab", "var_types", "var_names", "loop_vars")

    def __init__(self, scope, elab, var_types=None, var_names=None,
                 loop_vars=frozenset()):
        self.scope = scope
        self.elab = elab
        self.var_types = var_types if var_types is not None else {}
        self.var_names = (
            var_names if var_names is not None else frozenset(self.var_types)
        )
        self.loop_vars = loop_vars

    def with_loop_var(self, name):
        return _Env(self.scope, self.elab, self.var_types, self.var_names,
                    self.loop_vars | {name})

    def name_type(self, name):
        info = self.var_types.get(name)
        if info is not None:
            return info
        return self.scope.types.get(name)


def _resolve_static(name, env):
    """What *name* denotes here, in VHDL's resolution order.

    Returns ``"loop"`` / ``"var"`` for ctx-resident values, the
    :class:`Logic` for constants, the :class:`Signal` for signals, or None.
    """
    if name in env.loop_vars:
        return "loop"
    if name in env.var_names:
        return "var"
    if name in env.scope.constants:
        return env.scope.constants[name]
    if name in env.scope.signals:
        return env.scope.signals[name]
    if name == "true":
        return _TRUE
    if name == "false":
        return _FALSE
    return None


def _reader(kind, name):
    """A closure reading the resolved object's current value."""
    if kind == "loop":
        return lambda ctx, n=name: ctx.loop_vars[n]
    if kind == "var":
        return lambda ctx, n=name: ctx.variables[n]
    if isinstance(kind, Signal):
        return lambda ctx, s=kind: s._value
    return _const(kind)


# --------------------------------------------------------------------------
# constants and aborts
# --------------------------------------------------------------------------


def _const(value):
    """A closure returning *value*, recognizable as a compile-time constant."""
    return lambda ctx, value=value: value


#: every constant closure shares this code object, which marks it
_CONST_CODE = _const(None).__code__


def _const_of(fn):
    """The folded value of a constant closure, or None."""
    if fn.__code__ is _CONST_CODE:
        return fn.__defaults__[0]
    return None


def _folded(fn, *operands):
    """*fn* evaluated once if all *operands* are constants, else *fn* itself.

    Only called for operations that cannot emit diagnostics; one that
    raises is left to raise at run time instead.
    """
    if all(_const_of(op) is not None for op in operands):
        try:
            return _const(fn(None))
        except Exception:
            pass
    return fn


def _fail(elab, span, message, raised=None):
    """Emit *message* as a diagnostic and abort evaluation."""
    elab._error(span, message)
    raise evh._ElabAbort(raised if raised is not None else message)


def _abort(env, span, message, operands=(), raised=None):
    """A closure that evaluates *operands*, then reports *message* and aborts.

    This is how an evaluation-time error compiles: building the closure is
    silent, calling it emits the diagnostic and raises an abort carrying
    the text (so a simulation run fails with it as its runtime error).
    """
    elab = env.elab

    def abort(ctx, operands=tuple(operands)):
        for operand in operands:
            operand(ctx)
        _fail(elab, span, message, raised)

    return abort


def _width_of(expr, fn, env):
    """Exact static width of an expression's value, or None."""
    const = _const_of(fn)
    if const is not None:
        return const.width
    if isinstance(expr, ast.Name):
        resolved = _resolve_static(expr.name, env)
        if isinstance(resolved, Signal):
            return resolved.width
        if resolved == "var":
            return env.var_types[expr.name].width
        if resolved == "loop":
            return 32
    return None


def _operand_width_static(expr, env):
    """Best-effort width of the *other* operand, for aggregate operands."""
    if isinstance(expr, ast.Name):
        info = env.name_type(expr.name)
        if info is not None:
            return info.width
    if isinstance(expr, ast.StringLiteral) and expr.base in ("", "b"):
        return max(1, len(expr.value.replace("_", "")))
    return 32


# --------------------------------------------------------------------------
# expression compilation
# --------------------------------------------------------------------------


def compile_expr(expr, env):
    """Compile an expression to ``fn(ctx) -> Logic``."""
    if isinstance(expr, ast.IntLiteral):
        return _const(Logic.from_int(expr.value, 32))
    if isinstance(expr, ast.CharLiteral):
        known = evh._STD_LOGIC_CHARS.get(expr.value.upper())
        return _const(known if known is not None else Logic.unknown(1))
    if isinstance(expr, ast.StringLiteral):
        return _const(evh._string_to_logic(expr))
    if isinstance(expr, ast.Name):
        kind = _resolve_static(expr.name, env)
        if kind is None:
            return _abort(env, expr.span, f"'{expr.name}' is not declared")
        return _reader(kind, expr.name)
    if isinstance(expr, ast.Indexed):
        return _compile_indexed(expr, env)
    if isinstance(expr, ast.Sliced):
        return _compile_sliced(expr, env)
    if isinstance(expr, ast.Call):
        return _compile_call(expr, env)
    if isinstance(expr, ast.Attribute):
        return _compile_attribute(expr, env)
    if isinstance(expr, ast.Unary):
        return _compile_unary(expr, env)
    if isinstance(expr, ast.Binary):
        return _compile_binary(expr, env)
    if isinstance(expr, ast.Aggregate):
        return _abort(env, expr.span, "aggregate used without a width context")
    return _abort(
        env, getattr(expr, "span", None), f"cannot evaluate {type(expr).__name__}"
    )


def compile_with_width(expr, env, width):
    """Compile with an expected width for context-dependent forms (aggregates)."""
    if isinstance(expr, ast.Aggregate) and width is not None:
        return _compile_aggregate(expr, env, width)
    return compile_expr(expr, env)


def _aggregate(expr, env):
    """``(fn(ctx, width) -> Logic, operands)`` for an aggregate.

    *operands* are the compiled element and ``others`` closures.
    """
    others = compile_expr(expr.others, env) if expr.others is not None else None
    elements = tuple(compile_expr(element, env) for _, element in expr.elements)
    operands = elements if others is None else elements + (others,)
    if others is not None and not elements:

        def fill_all(ctx, width, others=others):
            return others(ctx).resize(1).replicate(width)

        return fill_all, operands

    def positional(ctx, width, elements=elements, others=others):
        # positional elements from the left (MSB side), padded by others
        result = Logic.unknown(width)
        position = width - 1
        for element in elements:
            if position < 0:
                break
            bit = element(ctx).resize(1)
            result = result.set_slice(position, position, bit)
            position -= 1
        if others is not None and position >= 0:
            fill = others(ctx).resize(1)
            for index in range(position, -1, -1):
                result = result.set_slice(index, index, fill)
        return result

    return positional, operands


def _compile_aggregate(expr, env, width):
    agg, operands = _aggregate(expr, env)
    return _folded(lambda ctx, agg=agg, w=width: agg(ctx, w), *operands)


def _compile_indexed(expr, env):
    kind = _resolve_static(expr.name, env)
    if kind is None:
        return _abort(env, expr.span, f"'{expr.name}' is not declared")
    reader = _reader(kind, expr.name)
    info = env.name_type(expr.name)
    # unnamed types default to descending-from-0 (offset == index)
    offset_of = info.bit_offset if info is not None else int
    index_fn = compile_expr(expr.index, env)
    index = _const_of(index_fn)
    if index is not None:
        if index.has_x:
            return _const(_X1)
        offset = offset_of(index.to_int())
        return _folded(lambda ctx, r=reader, o=offset: r(ctx).bit(o), reader)

    def dynamic_index(ctx, r=reader, f=index_fn):
        index = f(ctx)
        if index.has_x:
            return _X1
        return r(ctx).bit(offset_of(index.to_int()))

    return dynamic_index


def _slice_offsets(info, left, right):
    if info is None:
        return max(left, right), min(left, right)
    return info.slice_offsets(left, right)


def _compile_sliced(expr, env):
    kind = _resolve_static(expr.name, env)
    if kind is None:
        return _abort(env, expr.span, f"'{expr.name}' is not declared")
    reader = _reader(kind, expr.name)
    info = env.name_type(expr.name)
    left_fn = compile_expr(expr.left, env)
    right_fn = compile_expr(expr.right, env)
    left, right = _const_of(left_fn), _const_of(right_fn)
    limit = evh.VhdlElaborator.MAX_SIGNAL_WIDTH
    if left is not None and right is not None:
        if left.has_x or right.has_x:
            return _const(_X1)
        msb, lsb = _slice_offsets(info, left.to_int(), right.to_int())
        if msb - lsb + 1 > limit:
            message = f"slice width {msb - lsb + 1} exceeds the supported maximum"
            return _abort(env, expr.span, message)
        return _folded(
            lambda ctx, r=reader, m=msb, l=lsb: r(ctx).slice(m, l), reader
        )
    elab = env.elab

    def dynamic_slice(ctx, r=reader, left_fn=left_fn, right_fn=right_fn):
        left = left_fn(ctx)
        right = right_fn(ctx)
        if left.has_x or right.has_x:
            return _X1
        msb, lsb = _slice_offsets(info, left.to_int(), right.to_int())
        if msb - lsb + 1 > limit:
            message = f"slice width {msb - lsb + 1} exceeds the supported maximum"
            _fail(elab, expr.span, message)
        return r(ctx).slice(msb, lsb)

    return dynamic_slice


def _shift_left(value, count):
    return Logic.unknown(value.width) if count.has_x else value.shl(count)


def _shift_right(value, count):
    return Logic.unknown(value.width) if count.has_x else value.shr(count)


def _rotate_left(value, count):
    if count.has_x:
        return Logic.unknown(value.width)
    amount = count.to_int() % max(value.width, 1)
    if amount == 0:
        return value
    return value.slice(value.width - 1 - amount, 0).concat(
        value.slice(value.width - 1, value.width - amount)
    )


def _rotate_right(value, count):
    if count.has_x:
        return Logic.unknown(value.width)
    amount = count.to_int() % max(value.width, 1)
    if amount == 0:
        return value
    return value.slice(amount - 1, 0).concat(value.slice(value.width - 1, amount))


def _std_match(a, b):
    width = max(a.width, b.width)
    a, b = a.resize(width), b.resize(width)
    considered = ((1 << width) - 1) & ~(a.xmask | b.xmask)
    return _TRUE if ((a.bits ^ b.bits) & considered) == 0 else _FALSE


#: two-argument library functions: name → (semantics, arity diagnostic)
_PAIR_FUNCTIONS = {
    "shift_left": (_shift_left, "shift_left expects (value, count)"),
    "shift_right": (_shift_right, "shift_right expects (value, count)"),
    "rotate_left": (_rotate_left, "rotate_left expects (value, count)"),
    "rotate_right": (_rotate_right, "rotate_right expects (value, count)"),
    "std_match": (_std_match, "std_match expects two vectors"),
}


def _compile_call(expr, env):
    name = expr.name
    if name in ("rising_edge", "falling_edge"):
        return _compile_edge(expr, env)
    args = tuple(compile_expr(arg, env) for arg in expr.args)
    if name in ("to_unsigned", "to_signed", "conv_std_logic_vector", "resize"):
        return _compile_resize(expr, env, args)
    if name in ("to_integer", "conv_integer", "std_logic_vector", "unsigned",
                "signed", "to_stdlogicvector", "to_01"):
        first = args[0]
        if len(args) > 1:

            def first_of(ctx, args=args):
                values = [arg(ctx) for arg in args]
                return values[0]

            first = first_of
        if name in ("to_integer", "conv_integer"):
            return _folded(lambda ctx, f=first: f(ctx).resize(32), *args)
        return first
    if name in _PAIR_FUNCTIONS:
        function, arity = _PAIR_FUNCTIONS[name]
        if len(args) != 2:
            return _abort(env, expr.span, arity, args)
        a, b = args
        return _folded(
            lambda ctx, a=a, b=b, function=function: function(a(ctx), b(ctx)),
            a, b,
        )
    return _abort(env, expr.span, f"unsupported function '{name}'", args)


def _compile_edge(expr, env):
    name = expr.name
    if len(expr.args) != 1 or not isinstance(expr.args[0], ast.Name):
        return _abort(env, expr.span, f"{name} expects a signal name")
    signal = env.scope.signals.get(expr.args[0].name)
    if signal is None:
        return _abort(env, expr.span, f"{name} argument must be a signal")
    if name == "rising_edge":

        def rising(ctx, s=signal):
            prev = ctx.edge_mem.get(s, s._value)
            if prev.bit_char(0) != "1" and s._value.bit_char(0) == "1":
                return _TRUE
            return _FALSE

        return rising

    def falling(ctx, s=signal):
        prev = ctx.edge_mem.get(s, s._value)
        if prev.bit_char(0) != "0" and s._value.bit_char(0) == "0":
            return _TRUE
        return _FALSE

    return falling


def _compile_resize(expr, env, args):
    name = expr.name
    if len(args) != 2:
        return _abort(env, expr.span, f"{name} expects (value, length)", args)
    elab = env.elab
    limit = evh.VhdlElaborator.MAX_SIGNAL_WIDTH
    value_fn, length_fn = args
    length = _const_of(length_fn)
    if length is not None:
        if length.has_x:
            return _abort(env, expr.span, evh._X_INT, args)
        n = length.to_int()
        if not 1 <= n <= limit:
            return _abort(
                env, expr.span,
                f"{name} length {n} is out of the supported range", args,
                raised=f"{name} length {n} out of range",
            )
        return _folded(lambda ctx, f=value_fn, w=n: f(ctx).resize(w), value_fn)

    def dynamic_resize(ctx, value_fn=value_fn, length_fn=length_fn):
        value = value_fn(ctx)
        n = evh._to_int(length_fn(ctx), expr.span, elab)
        if not 1 <= n <= limit:
            _fail(
                elab, expr.span,
                f"{name} length {n} is out of the supported range",
                f"{name} length {n} out of range",
            )
        return value.resize(n)

    return dynamic_resize


def _compile_attribute(expr, env):
    if expr.attr in ("event", "last_value"):
        signal = env.scope.signals.get(expr.name)
        if signal is None:
            return _abort(env, expr.span, f"'{expr.attr} requires a signal")
        if expr.attr == "event":

            def event(ctx, s=signal):
                prev = ctx.edge_mem.get(s, s._value)
                return _FALSE if prev == s._value else _TRUE

            return event
        return lambda ctx, s=signal: ctx.edge_mem.get(s, s._value)
    info = env.name_type(expr.name)
    if info is None:
        return _abort(env, expr.span, f"'{expr.name}' has no known type")
    values = {
        "length": info.width,
        "left": info.left,
        "right": info.right,
        "high": max(info.left, info.right),
        "low": min(info.left, info.right),
    }
    if expr.attr not in values:
        return _abort(env, expr.span, f"unsupported attribute '{expr.attr}'")
    return _const(Logic.from_int(values[expr.attr], 32))


def _abs(value):
    if value.has_x:
        return Logic.unknown(value.width)
    return Logic.from_int(abs(value.to_signed()), value.width)


_UNARY_FNS = {"not": Logic.__invert__, "-": Logic.neg, "abs": _abs}


def _compile_unary(expr, env):
    operand = compile_expr(expr.operand, env)
    if expr.op == "+":
        return operand
    fn = _UNARY_FNS.get(expr.op)
    if fn is None:
        message = f"unsupported unary operator '{expr.op}'"
        return _abort(env, expr.span, message, (operand,))
    return _folded(lambda ctx, f=operand, fn=fn: fn(f(ctx)), operand)


def _mul(lhs, rhs):
    # numeric_std: the product is lhs'length + rhs'length wide
    if lhs.has_x or rhs.has_x:
        return Logic.unknown(lhs.width + rhs.width)
    return Logic.from_int(lhs.to_int() * rhs.to_int(), lhs.width + rhs.width)


def _power(lhs, rhs):
    if lhs.has_x or rhs.has_x:
        return Logic.unknown(32)
    return Logic.from_int(lhs.to_int() ** min(rhs.to_int(), 64), 32)


_BINARY_FNS = {
    "and": Logic.__and__,
    "or": Logic.__or__,
    "xor": Logic.__xor__,
    "nand": lambda a, b: ~(a & b),
    "nor": lambda a, b: ~(a | b),
    "xnor": lambda a, b: ~(a ^ b),
    "=": Logic.eq,
    "/=": Logic.ne,
    "<": Logic.lt,
    "<=": Logic.le,
    ">": Logic.gt,
    ">=": Logic.ge,
    "+": Logic.add,
    "-": Logic.sub,
    "*": _mul,
    "/": Logic.div,
    "mod": Logic.mod,
    "rem": Logic.mod,
    "&": Logic.concat,
    "**": _power,
}


def _compile_binary(expr, env):
    lhs = compile_with_width(expr.lhs, env, _operand_width_static(expr.rhs, env))
    fn = _BINARY_FNS.get(expr.op)
    if fn is None:
        elab = env.elab
        message = f"unsupported operator '{expr.op}'"

        def fn(a, b):
            _fail(elab, expr.span, message)

    if isinstance(expr.rhs, ast.Aggregate):
        # the rhs aggregate takes the lhs value's width
        wl = _width_of(expr.lhs, lhs, env)
        if wl is None:
            agg, _ = _aggregate(expr.rhs, env)

            def binary_aggregate(ctx, lhs=lhs, agg=agg, fn=fn):
                a = lhs(ctx)
                return fn(a, agg(ctx, a.width))

            return binary_aggregate
        rhs = _compile_aggregate(expr.rhs, env, wl)
    else:
        rhs = compile_expr(expr.rhs, env)

    def binary(ctx, a=lhs, b=rhs, fn=fn):
        return fn(a(ctx), b(ctx))

    if expr.op not in _BINARY_FNS:
        return binary
    return _folded(binary, lhs, rhs)


def _compile_text(expr, env):
    """``fn(ctx) -> str``: an expression in message context (report text)."""
    if isinstance(expr, ast.StringLiteral) and expr.base == "":
        return lambda ctx, text=expr.value: text
    if isinstance(expr, ast.Binary) and expr.op == "&":
        lhs = _compile_text(expr.lhs, env)
        rhs = _compile_text(expr.rhs, env)
        return lambda ctx, lhs=lhs, rhs=rhs: lhs(ctx) + rhs(ctx)
    value_fn = compile_expr(expr, env)

    def text(ctx, value_fn=value_fn):
        value = value_fn(ctx)
        if not value.has_x and value.width > 8:
            return str(value.to_int())
        return value.to_bit_string()

    return text


# --------------------------------------------------------------------------
# statement compilation
# --------------------------------------------------------------------------


def compile_body(body, env):
    steps = []
    for stmt in body:
        steps.extend(compile_stmt(stmt, env))
    return steps


def compile_stmt(stmt, env):
    """Compile one sequential statement into steps."""
    if isinstance(stmt, ast.SignalAssign):
        return _compile_signal_assign(stmt, env)
    if isinstance(stmt, ast.VariableAssign):
        return _compile_variable_assign(stmt, env)
    if isinstance(stmt, ast.IfStatement):
        return _compile_if(stmt, env)
    if isinstance(stmt, ast.CaseStatement):
        return _compile_case(stmt, env)
    if isinstance(stmt, ast.ForLoop):
        return _compile_for(stmt, env)
    if isinstance(stmt, ast.WhileLoop):
        return _compile_while(stmt, env)
    if isinstance(stmt, ast.WaitStatement):
        return _compile_wait(stmt, env)
    if isinstance(stmt, ast.AssertStatement):
        return _compile_assert(stmt, env)
    if isinstance(stmt, ast.ReportStatement):
        return _compile_report(stmt, env)
    if isinstance(stmt, ast.NullStatement):
        return []
    return [(PLAIN, _abort(env, stmt.span, "unsupported sequential statement"))]


def _target_name(target):
    if isinstance(target, (ast.Name, ast.Indexed, ast.Sliced)):
        return target.name
    return None


def _compile_target_value(value, target, env):
    """The assigned value, with the target's width as aggregate context.

    A slice target with dynamic bounds has a per-evaluation width; bounds
    that fail to evaluate fall back to the declared width.
    """
    name = target.name
    info = env.var_types.get(name) or env.scope.types.get(name)
    if info is None:
        return compile_with_width(value, env, 1)
    if not isinstance(target, ast.Sliced):
        width = 1 if isinstance(target, ast.Indexed) else info.width
        return compile_with_width(value, env, width)
    left_fn = compile_expr(target.left, env)
    right_fn = compile_expr(target.right, env)
    left, right = _const_of(left_fn), _const_of(right_fn)
    if left is not None and right is not None:
        if left.has_x or right.has_x:
            return compile_with_width(value, env, info.width)
        return compile_with_width(
            value, env, abs(left.to_int() - right.to_int()) + 1
        )
    if not isinstance(value, ast.Aggregate):
        return compile_expr(value, env)
    agg, _ = _aggregate(value, env)
    elab = env.elab

    def slice_width_value(ctx, agg=agg):
        try:
            left = evh._to_int(left_fn(ctx), target.span, elab)
            right = evh._to_int(right_fn(ctx), target.span, elab)
            width = abs(left - right) + 1
        except evh._ElabAbort:
            width = info.width
        return agg(ctx, width)

    return slice_width_value


def _compile_select_store(target, info, write, env, x_bounds):
    """``store(ctx, value)`` for a whole/indexed/sliced target.

    *write* is ``write(ctx, msb, lsb, value)`` for part writes. *x_bounds*
    handles slice bounds with unknown bits: ``None`` ignores the write,
    otherwise it is called with the failing value to abort.
    """
    if isinstance(target, ast.Indexed):
        index_fn = compile_expr(target.index, env)
        index = _const_of(index_fn)
        if index is None:

            def store_index(ctx, value):
                index = index_fn(ctx)
                if index.has_x:
                    return  # unknown index: the write has no effect
                offset = info.bit_offset(index.to_int())
                write(ctx, offset, offset, value)

            return store_index
        if index.has_x:
            return lambda ctx, value: None
        offset = info.bit_offset(index.to_int())
        return lambda ctx, value, o=offset: write(ctx, o, o, value)
    left_fn = compile_expr(target.left, env)
    right_fn = compile_expr(target.right, env)
    left, right = _const_of(left_fn), _const_of(right_fn)
    if left is not None and right is not None and not (
        left.has_x or right.has_x
    ):
        msb, lsb = info.slice_offsets(left.to_int(), right.to_int())
        return lambda ctx, value, m=msb, l=lsb: write(ctx, m, l, value)

    def store_slice(ctx, value):
        left = left_fn(ctx)
        if x_bounds is not None:
            left = x_bounds(left)
            right = x_bounds(right_fn(ctx))
        else:
            right = right_fn(ctx)
            if left.has_x or right.has_x:
                return  # unknown bounds: the write has no effect
        msb, lsb = info.slice_offsets(left.to_int(), right.to_int())
        write(ctx, msb, lsb, value)

    return store_slice


def _compile_variable_store(target, env):
    """``store(ctx, value)`` writing a process variable (or aborting)."""
    name = _target_name(target)
    if name not in env.var_names:
        message = f"'{name}' is not a variable"
        return lambda ctx, value, fail=_abort(env, target.span, message): fail(ctx)
    info = env.var_types[name]
    if isinstance(target, ast.Name):

        def store_var(ctx, value, n=name, w=info.width):
            ctx.variables[n] = value.resize(w)

        return store_var

    def write(ctx, msb, lsb, value, n=name):
        ctx.variables[n] = ctx.variables[n].set_slice(msb, lsb, value)

    elab = env.elab

    def x_bounds(value):
        if value.has_x:
            _fail(elab, target.span, evh._X_INT)
        return value

    return _compile_select_store(target, info, write, env, x_bounds)


def _compile_store(target, env, blocking):
    """``store(ctx, value)`` performing a signal (or variable) write."""
    name = _target_name(target)
    if name is None:
        fail = _abort(env, target.span, "unsupported assignment target")
        return lambda ctx, value: fail(ctx)
    if name in env.var_names:
        return _compile_variable_store(target, env)
    signal = env.scope.signals.get(name)
    if signal is None:
        fail = _abort(env, target.span, f"cannot assign to '{name}'")
        return lambda ctx, value: fail(ctx)
    if isinstance(target, ast.Name):
        # the kernel resizes on write/commit
        if blocking:
            return lambda ctx, value, s=signal: ctx.sim.write_signal(s, value)
        return lambda ctx, value, s=signal: ctx.sim.schedule_nba(s, value)
    info = env.scope.types.get(name) or evh._TypeInfo(width=signal.width)
    if blocking:

        def write(ctx, msb, lsb, value, s=signal):
            ctx.sim.write_signal(s, s._value.set_slice(msb, lsb, value))
    else:

        def write(ctx, msb, lsb, value, s=signal):
            ctx.sim.schedule_nba_update(
                s, lambda old, m=msb, l=lsb, v=value: old.set_slice(m, l, v)
            )

    return _compile_select_store(target, info, write, env, None)


def _compile_signal_assign(stmt, env):
    target = stmt.target
    name = _target_name(target)
    if name is None:
        return [(PLAIN, _abort(env, target.span, "unsupported assignment target"))]
    value_fn = _compile_target_value(stmt.value, target, env)
    if stmt.after is None:
        store = _compile_store(target, env, blocking=False)
        return [(PLAIN, lambda ctx, f=value_fn, store=store: store(ctx, f(ctx)))]
    signal = env.scope.signals.get(name)
    delay_fn = compile_expr(stmt.after, env)
    delay = _const_of(delay_fn)
    if signal is not None and delay is not None and not delay.has_x:

        def step_after(ctx, f=value_fn, s=signal, d=delay.to_int()):
            ctx.sim.schedule_write(s, f(ctx).resize(s.width), d)

        return [(PLAIN, step_after)]
    elab = env.elab

    def dynamic_after(ctx, f=value_fn, delay_fn=delay_fn):
        value = f(ctx)
        delay = evh._to_int(delay_fn(ctx), stmt.span, elab)
        if signal is None:
            _fail(elab, target.span, f"cannot assign to '{name}'")
        ctx.sim.schedule_write(signal, value.resize(signal.width), delay)

    return [(PLAIN, dynamic_after)]


def _compile_variable_assign(stmt, env):
    target = stmt.target
    if _target_name(target) is None:
        return [(PLAIN, _abort(env, target.span, "unsupported assignment target"))]
    value_fn = _compile_target_value(stmt.value, target, env)
    store = _compile_variable_store(target, env)
    return [(PLAIN, lambda ctx, f=value_fn, store=store: store(ctx, f(ctx)))]


def _compile_if(stmt, env):
    arm_plans = [
        (compile_expr(condition, env), compile_body(body, env))
        for condition, body in stmt.arms
    ]
    else_steps = compile_body(stmt.else_body, env)
    plains = [as_plain(steps) for _, steps in arm_plans]
    else_plain = as_plain(else_steps)
    if else_plain is not None and all(p is not None for p in plains):
        arms = tuple(
            (cond, plain) for (cond, _), plain in zip(arm_plans, plains)
        )

        def step(ctx, arms=arms, otherwise=else_plain):
            for cond, body in arms:
                if cond(ctx).is_true():
                    body(ctx)
                    return
            otherwise(ctx)

        return [(PLAIN, step)]
    arms = tuple((cond, as_gen(steps)) for cond, steps in arm_plans)
    else_gen = as_gen(else_steps)

    def gen(ctx, arms=arms, otherwise=else_gen):
        for cond, body in arms:
            if cond(ctx).is_true():
                yield from body(ctx)
                return
        yield from otherwise(ctx)

    return [(GEN, gen)]


def _compile_choice(choice, env, width):
    """``(label, None)`` for a constant choice, else ``(None, fn(ctx, w))``.

    *w* is the subject's width at run time, the width context of an
    aggregate choice.
    """
    if isinstance(choice, ast.Aggregate) and width is None:
        return None, _aggregate(choice, env)[0]
    fn = compile_with_width(choice, env, width)
    const = _const_of(fn)
    if const is not None:
        return const, None
    return None, lambda ctx, w, fn=fn: fn(ctx)


def _compile_case(stmt, env):
    subject_fn = compile_expr(stmt.subject, env)
    subject_width = _width_of(stmt.subject, subject_fn, env)
    arms = []
    others_steps = None
    for alternative in stmt.alternatives:
        steps = compile_body(alternative.body, env)
        if not alternative.choices:
            others_steps = steps
            continue
        choices = tuple(
            _compile_choice(choice, env, subject_width)
            for choice in alternative.choices
        )
        arms.append((choices, steps))

    def choose(ctx, subject):
        for choices, body in arms_rt:
            for label, label_fn in choices:
                if label is None:
                    label = label_fn(ctx, subject.width)
                width = max(subject.width, label.width)
                if subject.resize(width).case_eq(
                    label.resize(width)
                ).is_true():
                    return body
        return others_rt

    plains = [as_plain(steps) for _, steps in arms]
    others_plain = as_plain(others_steps) if others_steps is not None else True
    if others_plain is not None and all(p is not None for p in plains):
        arms_rt = tuple(
            (choices, plain) for (choices, _), plain in zip(arms, plains)
        )
        others_rt = others_plain if others_steps is not None else None

        def step(ctx, subject_fn=subject_fn):
            body = choose(ctx, subject_fn(ctx))
            if body is not None:
                body(ctx)

        return [(PLAIN, step)]
    arms_rt = tuple((choices, as_gen(steps)) for choices, steps in arms)
    others_rt = as_gen(others_steps) if others_steps is not None else None

    def gen(ctx, subject_fn=subject_fn):
        body = choose(ctx, subject_fn(ctx))
        if body is not None:
            yield from body(ctx)

    return [(GEN, gen)]


def _compile_for(stmt, env):
    low_fn = compile_expr(stmt.low, env)
    high_fn = compile_expr(stmt.high, env)
    low, high = _const_of(low_fn), _const_of(high_fn)
    descending = stmt.descending

    def index_values(low, high):
        indices = range(low, high + 1)
        if descending:
            indices = reversed(indices)
        return tuple(Logic.from_int(index, 32) for index in indices)

    if low is not None and high is not None and not (low.has_x or high.has_x):
        static = index_values(low.to_int(), high.to_int())

        def values(ctx):
            return static
    else:
        elab = env.elab

        def values(ctx):
            low = evh._to_int(low_fn(ctx), stmt.span, elab)
            high = evh._to_int(high_fn(ctx), stmt.span, elab)
            return index_values(low, high)

    steps = compile_body(stmt.body, env.with_loop_var(stmt.var))
    var = stmt.var
    plain = as_plain(steps)
    if plain is not None:

        def step(ctx, body=plain, var=var, values=values):
            outer = ctx.loop_vars.get(var)
            for value in values(ctx):
                ctx.loop_vars[var] = value
                body(ctx)
            if outer is None:
                ctx.loop_vars.pop(var, None)
            else:
                ctx.loop_vars[var] = outer

        return [(PLAIN, step)]
    flat = flat_steps(merge(steps))
    if flat is not None:

        def gen_flat(ctx, flat=flat, var=var, values=values):
            outer = ctx.loop_vars.get(var)
            for value in values(ctx):
                ctx.loop_vars[var] = value
                for kind, fn in flat:
                    if kind:
                        yield fn
                    else:
                        fn(ctx)
            if outer is None:
                ctx.loop_vars.pop(var, None)
            else:
                ctx.loop_vars[var] = outer

        return [(GEN, gen_flat)]
    body_gen = as_gen(steps)

    def gen(ctx, body=body_gen, var=var, values=values):
        outer = ctx.loop_vars.get(var)
        for value in values(ctx):
            ctx.loop_vars[var] = value
            yield from body(ctx)
        if outer is None:
            ctx.loop_vars.pop(var, None)
        else:
            ctx.loop_vars[var] = outer

    return [(GEN, gen)]


def _compile_while(stmt, env):
    cond_fn = compile_expr(stmt.condition, env)
    steps = compile_body(stmt.body, env)
    limit = evh.VhdlElaborator.LOOP_LIMIT
    plain = as_plain(steps)
    if plain is not None:

        def step(ctx, cond=cond_fn, body=plain, limit=limit):
            iterations = 0
            while cond(ctx).is_true():
                body(ctx)
                iterations += 1
                if iterations > limit:
                    raise SimulationError("while-loop iteration limit exceeded")

        return [(PLAIN, step)]
    body_gen = as_gen(steps)

    def gen(ctx, cond=cond_fn, body=body_gen, limit=limit):
        iterations = 0
        while cond(ctx).is_true():
            yield from body(ctx)
            iterations += 1
            if iterations > limit:
                raise SimulationError("while-loop iteration limit exceeded")

    return [(GEN, gen)]


def _compile_wait(stmt, env):
    if stmt.for_time is not None:
        delay_fn = compile_expr(stmt.for_time, env)
        delay = _const_of(delay_fn)
        if delay is not None and not delay.has_x:
            return [(CMD, Delay(delay.to_int()))]
        elab = env.elab

        def dynamic_delay(ctx, delay_fn=delay_fn):
            yield Delay(evh._to_int(delay_fn(ctx), stmt.span, elab))

        return [(GEN, dynamic_delay)]
    if stmt.until is not None:
        reads: set = set()
        evh._collect_reads(stmt.until, env.scope, reads)
        if not reads:
            message = (
                "'wait until' condition reads no signals and can never "
                "become true"
            )
            return [(PLAIN, _abort(env, stmt.span, message))]
        cond_fn = compile_expr(stmt.until, env)
        command = WaitChange.on(*reads)

        def gen(ctx, cond=cond_fn, command=command):
            while True:
                yield command
                if cond(ctx).is_true():
                    return

        return [(GEN, gen)]
    if stmt.on_signals:
        signals = [
            s
            for s in (env.scope.signals.get(n) for n in stmt.on_signals)
            if s is not None
        ]
        return [(CMD, WaitChange.on(*signals))]
    return [(CMD, WaitChange(()))]  # bare `wait;` — suspend forever


def _static_text(expr):
    """The message text when it is literal strings only, else None."""
    if isinstance(expr, ast.StringLiteral) and expr.base == "":
        return expr.value
    if isinstance(expr, ast.Binary) and expr.op == "&":
        lhs = _static_text(expr.lhs)
        rhs = _static_text(expr.rhs)
        if lhs is not None and rhs is not None:
            return lhs + rhs
    return None


def _compile_message(prefix, message, env):
    """``(line, None)`` for a literal message, else ``(None, fn(ctx) -> str)``."""
    if message is None:
        return f"{prefix}Assertion violation.", None
    text = _static_text(message)
    if text is not None:
        return prefix + text, None
    text_fn = _compile_text(message, env)
    return None, lambda ctx, text_fn=text_fn: prefix + text_fn(ctx)


def _compile_assert(stmt, env):
    cond_fn = compile_expr(stmt.condition, env)
    line, line_fn = _compile_message(
        f"{stmt.severity.upper()}: ", stmt.message, env
    )
    if stmt.severity != "failure":

        def step(ctx, cond=cond_fn, line=line, line_fn=line_fn):
            if not cond(ctx).is_true():
                ctx.sim.display(line if line_fn is None else line_fn(ctx))

        return [(PLAIN, step)]

    def gen(ctx, cond=cond_fn, line=line, line_fn=line_fn):
        if not cond(ctx).is_true():
            ctx.sim.display(line if line_fn is None else line_fn(ctx))
            yield Finish(1)

    return [(GEN, gen)]


def _compile_report(stmt, env):
    prefix = "" if stmt.severity == "note" else f"{stmt.severity.upper()}: "
    line, line_fn = _compile_message(prefix, stmt.message, env)
    if stmt.severity != "failure":

        def step(ctx, line=line, line_fn=line_fn):
            ctx.sim.display(line if line_fn is None else line_fn(ctx))

        return [(PLAIN, step)]

    def gen(ctx, line=line, line_fn=line_fn):
        ctx.sim.display(line if line_fn is None else line_fn(ctx))
        yield Finish(1)

    return [(GEN, gen)]


# --------------------------------------------------------------------------
# process / concurrent-statement factories
# --------------------------------------------------------------------------


def process_factory(process, scope, elab, sens, var_infos):
    """Compiled factory for a process statement.

    *sens* is the sensitivity list's signals, or None for ``process(all)``,
    whose read set is found here. *var_infos* are the variables' declared
    types, elaborated beforehand (a bad bound is an elaboration error);
    variable initial values are evaluated when each simulation run starts
    the process.
    """
    if sens is None:
        reads: set = set()
        for statement in process.body:
            evh._collect_reads_seq(statement, scope, reads)
        sens = tuple(sorted(reads, key=lambda s: s.name))
    watched = tuple(evh._edge_watched_signals(process.body, scope))
    var_types: dict = {}
    decl_plan = []
    for decl, info in zip(process.declarations, var_infos):
        var_names = frozenset(var_types)  # earlier declarations only
        var_types[decl.name] = info  # the type itself is visible immediately
        init_fn = None
        if decl.init is not None:
            init_fn = compile_with_width(
                decl.init, _Env(scope, elab, dict(var_types), var_names),
                info.width,
            )
        decl_plan.append((decl.name, info, init_fn))
    env = _Env(scope, elab, var_types)
    steps = compile_body(process.body, env)
    body_plain = as_plain(steps)
    body_gen = as_gen(steps) if body_plain is None else None
    has_wait = evh._body_has_wait(process.body)
    wait_cmd = WaitChange.on(*sens) if sens else None
    decl_plan = tuple(decl_plan)

    def make_ctx(sim):
        ctx = evh._EvalCtx(scope=scope, sim=sim)
        for name, info, init_fn in decl_plan:
            if init_fn is not None:
                ctx.variables[name] = init_fn(ctx).resize(info.width)
            else:
                ctx.variables[name] = Logic.unknown(info.width)
        for signal in watched:
            ctx.edge_mem[signal] = signal._value
        return ctx

    if body_plain is not None:
        # a plain body contains no waits, so the only suspension point is
        # the sensitivity wait — fuse the edge-memory snapshot into it
        def factory(sim):
            ctx = make_ctx(sim)
            if wait_cmd is None:

                def run_once():
                    body_plain(ctx)
                    return
                    yield  # pragma: no cover - generator marker

                return run_once()
            if watched:

                def run_watched():
                    while True:
                        body_plain(ctx)
                        for signal in watched:
                            ctx.edge_mem[signal] = signal._value
                        yield wait_cmd

                return run_watched()

            def run():
                while True:
                    body_plain(ctx)
                    yield wait_cmd

            return run()

        return factory

    def factory(sim):
        ctx = make_ctx(sim)

        def run():
            while True:
                yield from body_gen(ctx)
                if wait_cmd is not None:
                    yield wait_cmd
                elif not has_wait:
                    return

        gen = run()
        if not watched:
            return gen

        def snapshotting(gen):
            for command in gen:
                for signal in watched:
                    ctx.edge_mem[signal] = signal._value
                yield command

        return snapshotting(gen)

    return factory


def concurrent_assign_factory(statement, scope, elab, reads, width):
    """Compiled factory for a simple concurrent assignment."""
    env = _Env(scope, elab)
    value_fn = compile_with_width(statement.value, env, width)
    store = _compile_store(statement.target, env, blocking=True)
    wait_cmd = WaitChange.on(*reads) if reads else None

    def factory(sim):
        ctx = evh._EvalCtx(scope=scope, sim=sim)
        if wait_cmd is None:

            def run_once():
                store(ctx, value_fn(ctx))
                return
                yield  # pragma: no cover - generator marker

            return run_once()

        def body():
            while True:
                store(ctx, value_fn(ctx))
                yield wait_cmd

        return body()

    return factory


def delayed_assign_factory(statement, scope, elab, signal, delay, reads, width):
    """Compiled factory for ``target <= value after T``."""
    env = _Env(scope, elab)
    value_fn = compile_with_width(statement.value, env, width)
    wait_cmd = WaitChange.on(*reads) if reads else None
    delay_cmd = Delay(delay)

    def factory(sim):
        ctx = evh._EvalCtx(scope=scope, sim=sim)

        def body():
            while True:
                new = value_fn(ctx)
                if new == signal._value:
                    if wait_cmd is None:
                        return
                    yield wait_cmd
                    continue
                yield delay_cmd
                sim.write_signal(signal, new)

        return body()

    return factory


def conditional_assign_factory(statement, scope, elab, reads, width):
    """Compiled factory for a conditional concurrent assignment."""
    env = _Env(scope, elab)
    arms = tuple(
        (compile_with_width(value, env, width), compile_expr(condition, env))
        for value, condition in statement.arms
    )
    otherwise_fn = compile_with_width(statement.otherwise, env, width)
    store = _compile_store(statement.target, env, blocking=True)
    wait_cmd = WaitChange.on(*reads) if reads else None

    def factory(sim):
        ctx = evh._EvalCtx(scope=scope, sim=sim)

        def body():
            while True:
                chosen = otherwise_fn
                for value_fn, cond_fn in arms:
                    if cond_fn(ctx).is_true():
                        chosen = value_fn
                        break
                store(ctx, chosen(ctx))
                if wait_cmd is None:
                    return
                yield wait_cmd

        return body()

    return factory


def selected_assign_factory(statement, scope, elab, reads, width):
    """Compiled factory for a selected concurrent assignment."""
    env = _Env(scope, elab)
    selector_fn = compile_expr(statement.selector, env)
    selector_width = _width_of(statement.selector, selector_fn, env)
    arms = tuple(
        (
            compile_with_width(value, env, width),
            tuple(
                _compile_choice(choice, env, selector_width)
                for choice in choices
            ),
        )
        for value, choices in statement.arms
    )
    otherwise_fn = (
        compile_with_width(statement.otherwise, env, width)
        if statement.otherwise is not None
        else None
    )
    store = _compile_store(statement.target, env, blocking=True)
    wait_cmd = WaitChange.on(*reads) if reads else None

    def factory(sim):
        ctx = evh._EvalCtx(scope=scope, sim=sim)

        def body():
            while True:
                selector = selector_fn(ctx)
                chosen = otherwise_fn
                for value_fn, choices in arms:
                    matched = False
                    for label, label_fn in choices:
                        if label is None:
                            label = label_fn(ctx, selector.width)
                        if selector.case_eq(label).is_true():
                            matched = True
                            break
                    if matched:
                        chosen = value_fn
                        break
                if chosen is not None:
                    store(ctx, chosen(ctx))
                if wait_cmd is None:
                    return
                yield wait_cmd

        return body()

    return factory


def wire_input_factory(expr, child, scope, elab, reads):
    """Compiled factory for an instantiation input-port wire."""
    env = _Env(scope, elab)
    value_fn = compile_with_width(expr, env, child.width)
    wait_cmd = WaitChange.on(*reads) if reads else None

    def factory(sim):
        ctx = evh._EvalCtx(scope=scope, sim=sim)
        if wait_cmd is None:

            def run_once():
                sim.write_signal(child, value_fn(ctx))
                return
                yield  # pragma: no cover - generator marker

            return run_once()

        def body():
            while True:
                sim.write_signal(child, value_fn(ctx))
                yield wait_cmd

        return body()

    return factory


def wire_output_factory(target, child, scope, elab):
    """Compiled factory for an instantiation output-port wire."""
    env = _Env(scope, elab)
    store = _compile_store(target, env, blocking=True)
    wait_cmd = WaitChange.on(child)

    def factory(sim):
        ctx = evh._EvalCtx(scope=scope, sim=sim)

        def body():
            while True:
                store(ctx, child._value)
                yield wait_cmd

        return body()

    return factory
