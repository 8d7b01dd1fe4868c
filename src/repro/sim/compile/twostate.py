"""Two-state (masked-int) expression emitters for generated cone bodies.

The levelized tier (:mod:`repro.sim.compile.level`) stitches cone member
expressions into one straight-line function. When no X/Z is live on the
cone's inputs, four-state :class:`~repro.sim.values.Logic` semantics
collapse to plain unsigned integer arithmetic masked to the operand width —
so these emitters lower an HDL expression to Python *source* computing the
member's value as an int, following the closure compilers' width/context
rules (:mod:`repro.sim.compile.verilog`, :mod:`repro.sim.compile.vhdl`)
construct for construct.

The soundness invariant is **known inputs ⇒ known outputs**: any construct
that can produce X from fully-known operands (division by a non-constant
divisor, out-of-range or dynamic selects, X literals) has no two-state
lowering — :class:`NoEmit` — and demotes its whole cone to the four-state
closure body. The emitters therefore never need to *represent* X; the cone
prologue's aggregated ``xmask`` test guarantees the inputs are known before
this code runs.

Emitters return ``(source, width)`` where ``source`` is a parenthesized
Python expression over the local names supplied in *names* (one per read
signal), and the int value is exactly the compiled closure's ``.bits``.
"""

from __future__ import annotations

from repro.sim.runtime import Signal
from repro.sim.values import Logic
from repro.verilog import ast as vast
from repro.vhdl import ast as hast


class NoEmit(Exception):
    """The expression has no two-state lowering; use the four-state body."""


#: cap on operand widths in generated source — beyond this the embedded
#: mask literals dominate the code object and the int fast path stops
#: paying for itself; wider designs keep the four-state cone body
MAX_EMIT_WIDTH = 256


def _mask(width: int) -> int:
    if not 0 < width <= MAX_EMIT_WIDTH:
        raise NoEmit
    return (1 << width) - 1


def _lit(value: Logic) -> tuple[str, int]:
    """A fully-known Logic as an int literal."""
    if value.xmask or value.width > MAX_EMIT_WIDTH:
        raise NoEmit
    return repr(value.bits), value.width


# --------------------------------------------------------------------------
# Verilog (same rules as compile.verilog.compile_expr)
# --------------------------------------------------------------------------


def verilog_expr(expr, scope, ctxw, names) -> tuple[str, int] | None:
    """Two-state source for a Verilog expression, or None.

    *names* maps every readable :class:`Signal` to the local variable
    holding its known ``bits``; *ctxw* is the assignment-context width.
    """
    try:
        return _v(expr, scope, ctxw, names)
    except NoEmit:
        return None
    except Exception:
        return None


def _v(expr, scope, ctxw, names) -> tuple[str, int]:
    if isinstance(expr, vast.Number):
        return _lit(expr.value)
    if isinstance(expr, vast.StringLiteral):
        data = expr.value.encode("ascii", "replace") or b"\0"
        return _lit(Logic.from_int(int.from_bytes(data, "big"),
                                   max(8, 8 * len(data))))
    if isinstance(expr, vast.Identifier):
        resolved = scope.resolve(expr.name)
        if isinstance(resolved, Signal):
            local = names.get(resolved)
            if local is None or resolved.width > MAX_EMIT_WIDTH:
                raise NoEmit
            return local, resolved.width
        if isinstance(resolved, Logic):
            return _lit(resolved)
        raise NoEmit
    if isinstance(expr, vast.Unary):
        return _v_unary(expr, scope, ctxw, names)
    if isinstance(expr, vast.Binary):
        return _v_binary(expr, scope, ctxw, names)
    if isinstance(expr, vast.Ternary):
        # the condition is fully known here, so only the taken branch counts
        cond, _ = _v(expr.cond, scope, None, names)
        t_src, t_w = _v(expr.if_true, scope, ctxw, names)
        f_src, f_w = _v(expr.if_false, scope, ctxw, names)
        return f"({t_src} if {cond} else {f_src})", max(t_w, f_w)
    if isinstance(expr, vast.Concat):
        parts = [_v(part, scope, None, names) for part in expr.parts]
        if not parts:
            raise NoEmit
        total = sum(w for _, w in parts)
        _mask(total)  # width cap
        pieces = []
        offset = total
        for src, width in parts:
            offset -= width
            pieces.append(f"({src} << {offset})" if offset else src)
        return "(" + " | ".join(pieces) + ")", total
    if isinstance(expr, vast.Replicate):
        from repro.sim.compile.verilog import _static_int

        count = _static_int(expr.count, scope)
        if count is None or count <= 0 or count > 4096:
            raise NoEmit
        src, width = _v(expr.value, scope, None, names)
        total = count * width
        _mask(total)
        # v * repunit concatenates `count` copies of a known w-bit value
        repunit = ((1 << total) - 1) // ((1 << width) - 1)
        return f"({src} * {repunit})", total
    if isinstance(expr, (vast.BitSelect, vast.PartSelect,
                         vast.IndexedPartSelect)):
        return _v_select(expr, scope, names)
    if isinstance(expr, vast.SystemFunctionCall):
        if expr.name in ("$signed", "$unsigned") and len(expr.args) == 1:
            # as in compile.verilog: no context width on the argument
            return _v(expr.args[0], scope, None, names)
        if expr.name == "$clog2" and len(expr.args) == 1:
            src, _ = _v(expr.args[0], scope, None, names)
            return f"(max(0, ({src} - 1).bit_length()))", 32
        raise NoEmit  # $time / $random are impure; others diagnose
    raise NoEmit


def _v_unary(expr, scope, ctxw, names) -> tuple[str, int]:
    from repro.sim.compile.verilog import _CONTEXT_UNARY

    op = expr.op
    inner_ctx = ctxw if op in _CONTEXT_UNARY else None
    src, width = _v(expr.operand, scope, inner_ctx, names)
    if inner_ctx is not None:
        width = max(width, inner_ctx)
    if op == "+":
        return src, width
    if op == "-":
        return f"((-{src}) & {_mask(width)})", width
    if op == "~":
        return f"({src} ^ {_mask(width)})", width
    if op == "!":
        return f"(0 if {src} else 1)", 1
    if op == "&":
        return f"(1 if {src} == {_mask(width)} else 0)", 1
    if op == "|":
        return f"(1 if {src} else 0)", 1
    if op == "^":
        return f"(({src}).bit_count() & 1)", 1
    if op == "~&":
        return f"(0 if {src} == {_mask(width)} else 1)", 1
    if op == "~|":
        return f"(0 if {src} else 1)", 1
    if op == "~^":
        return f"((({src}).bit_count() & 1) ^ 1)", 1
    raise NoEmit


def _v_binary(expr, scope, ctxw, names) -> tuple[str, int]:
    from repro.sim.compile.verilog import _CONTEXT_BINARY

    op = expr.op
    if op in _CONTEXT_BINARY:
        l_src, lw = _v(expr.lhs, scope, ctxw, names)
        r_src, rw = _v(expr.rhs, scope, ctxw, names)
        width = max(lw, rw, ctxw or 0)
        if op == "+":
            return f"(({l_src} + {r_src}) & {_mask(width)})", width
        if op == "-":
            return f"(({l_src} - {r_src}) & {_mask(width)})", width
        if op == "*":
            return f"(({l_src} * {r_src}) & {_mask(width)})", width
        if op == "&":
            return f"({l_src} & {r_src})", width
        if op == "|":
            return f"({l_src} | {r_src})", width
        if op == "^":
            return f"({l_src} ^ {r_src})", width
        if op in ("/", "%"):
            # only a known non-zero constant divisor keeps the result known
            from repro.sim.compile.verilog import _static_int

            divisor = _static_int(expr.rhs, scope)
            if not divisor:
                raise NoEmit
            _mask(width)
            py_op = "//" if op == "/" else "%"
            return f"({l_src} {py_op} {divisor})", width
        raise NoEmit
    if op in ("<<", ">>", "<<<", ">>>"):
        l_src, lw = _v(expr.lhs, scope, ctxw, names)
        width = max(lw, ctxw) if ctxw is not None else lw
        r_src, _ = _v(expr.rhs, scope, None, names)
        if op in ("<<", "<<<"):
            return (
                f"((({l_src} << {r_src}) & {_mask(width)})"
                f" if {r_src} < {width} else 0)",
                width,
            )
        if op == ">>":
            _mask(width)
            return f"({l_src} >> {r_src})", width
        # >>> arithmetic: fill with the (known) top bit of the lhs
        m = _mask(width)
        shift = f"min({r_src}, {width})"
        fill = f"(({m} ^ ({m} >> {shift})) if ({l_src} >> {width - 1}) & 1 else 0)"
        return f"(({l_src} >> {shift}) | {fill})", width
    if op == "**":
        l_src, lw = _v(expr.lhs, scope, None, names)
        r_src, _rw = _v(expr.rhs, scope, None, names)
        width = max(lw, 32)
        return f"(({l_src} ** min({r_src}, 64)) & {_mask(width)})", width
    # self-determined operands, 1-bit results
    l_src, _lw = _v(expr.lhs, scope, None, names)
    r_src, _rw = _v(expr.rhs, scope, None, names)
    # zero-extended ints compare identically at any common width
    if op in ("==", "==="):
        return f"(1 if {l_src} == {r_src} else 0)", 1
    if op in ("!=", "!=="):
        return f"(1 if {l_src} != {r_src} else 0)", 1
    if op == "<":
        return f"(1 if {l_src} < {r_src} else 0)", 1
    if op == "<=":
        return f"(1 if {l_src} <= {r_src} else 0)", 1
    if op == ">":
        return f"(1 if {l_src} > {r_src} else 0)", 1
    if op == ">=":
        return f"(1 if {l_src} >= {r_src} else 0)", 1
    if op == "&&":
        return f"(1 if {l_src} != 0 and {r_src} != 0 else 0)", 1
    if op == "||":
        return f"(1 if {l_src} != 0 or {r_src} != 0 else 0)", 1
    raise NoEmit


def _v_select(expr, scope, names) -> tuple[str, int]:
    from repro.sim.compile.verilog import _static_int

    resolved = scope.resolve(expr.target)
    if isinstance(resolved, Logic):
        # parameter base with static bounds folds to a literal
        base_width = resolved.width
        base_src = None
    elif isinstance(resolved, Signal):
        base_width = resolved.width
        base_src = names.get(resolved)
        if base_src is None or base_width > MAX_EMIT_WIDTH:
            raise NoEmit
    else:
        raise NoEmit
    if isinstance(expr, vast.BitSelect):
        index = _static_int(expr.index, scope)
        if index is None or not 0 <= index < base_width:
            raise NoEmit  # dynamic or out-of-range reads X
        msb = lsb = index
    elif isinstance(expr, vast.PartSelect):
        msb = _static_int(expr.msb, scope)
        lsb = _static_int(expr.lsb, scope)
        if msb is None or lsb is None:
            raise NoEmit
    else:  # IndexedPartSelect
        start = _static_int(expr.base, scope)
        width = _static_int(expr.width, scope)
        if start is None or width is None or width <= 0:
            raise NoEmit
        lsb = start if expr.ascending else start - width + 1
        msb = lsb + width - 1
    if not 0 <= lsb <= msb < base_width:
        raise NoEmit  # any out-of-range bit reads X
    width = msb - lsb + 1
    if base_src is None:
        return _lit(resolved.slice(msb, lsb))
    mask = _mask(width)
    if lsb:
        return f"(({base_src} >> {lsb}) & {mask})", width
    if msb == base_width - 1:
        return base_src, width
    return f"({base_src} & {mask})", width


# --------------------------------------------------------------------------
# VHDL (same rules as compile.vhdl.compile_expr)
# --------------------------------------------------------------------------


def vhdl_expr(expr, scope, hint, names) -> tuple[str, int] | None:
    """Two-state source for a VHDL expression, or None.

    *hint* is the width context forwarded to aggregates, as in
    ``compile.vhdl.compile_with_width``.
    """
    try:
        return _h(expr, scope, hint, names)
    except NoEmit:
        return None
    except Exception:
        return None


def _h(expr, scope, hint, names) -> tuple[str, int]:
    from repro.sim import elab_vhdl as evh

    if isinstance(expr, hast.IntLiteral):
        return repr(expr.value & 0xFFFFFFFF), 32
    if isinstance(expr, hast.CharLiteral):
        known = evh._STD_LOGIC_CHARS.get(expr.value.upper())
        if known is None:
            raise NoEmit
        return _lit(known)
    if isinstance(expr, hast.StringLiteral):
        return _lit(evh._string_to_logic(expr))
    if isinstance(expr, hast.Aggregate):
        # only the (others => '0'/'1') form with a width context
        if hint is None or expr.elements or expr.others is None:
            raise NoEmit
        if not isinstance(expr.others, hast.CharLiteral):
            raise NoEmit
        fill = evh._STD_LOGIC_CHARS.get(expr.others.value.upper())
        if fill is None:
            raise NoEmit
        return repr(_mask(hint) if fill.bits else 0), hint
    if isinstance(expr, hast.Name):
        return _h_name(expr.name, scope, names)
    if isinstance(expr, (hast.Indexed, hast.Sliced)):
        return _h_select(expr, scope, names)
    if isinstance(expr, hast.Call):
        return _h_call(expr, scope, names)
    if isinstance(expr, hast.Attribute):
        return _h_attribute(expr, scope)
    if isinstance(expr, hast.Unary):
        src, width = _h(expr.operand, scope, None, names)
        if expr.op == "not":
            return f"({src} ^ {_mask(width)})", width
        if expr.op == "-":
            return f"((-{src}) & {_mask(width)})", width
        if expr.op == "+":
            return src, width
        if expr.op == "abs":
            half = 1 << (width - 1)
            return (
                f"({src} if {src} < {half} else ((1 << {width}) - {src}))",
                width,
            )
        raise NoEmit
    if isinstance(expr, hast.Binary):
        return _h_binary(expr, scope, names)
    raise NoEmit


def _h_name(name, scope, names) -> tuple[str, int]:
    # concurrent contexts have no variables or loop vars (_resolve_name order)
    if name in scope.constants:
        return _lit(scope.constants[name])
    signal = scope.signals.get(name)
    if signal is not None:
        local = names.get(signal)
        if local is None or signal.width > MAX_EMIT_WIDTH:
            raise NoEmit
        return local, signal.width
    if name == "true":
        return "1", 1
    if name == "false":
        return "0", 1
    raise NoEmit


def _h_static_int(expr, scope) -> int | None:
    """Fold an index/length expression to a known int, or None."""
    if isinstance(expr, hast.IntLiteral):
        return expr.value
    if isinstance(expr, hast.Name):
        value = scope.constants.get(expr.name)
        if isinstance(value, Logic) and not value.xmask:
            return value.to_int()
    if isinstance(expr, hast.Unary) and expr.op == "-":
        inner = _h_static_int(expr.operand, scope)
        return None if inner is None else -inner
    return None


def _h_select(expr, scope, names) -> tuple[str, int]:
    from repro.sim import elab_vhdl as evh

    constant = scope.constants.get(expr.name)
    signal = scope.signals.get(expr.name)
    if constant is not None:
        base_width = constant.width
        base_src = None
    elif signal is not None:
        base_width = signal.width
        base_src = names.get(signal)
        if base_src is None or base_width > MAX_EMIT_WIDTH:
            raise NoEmit
    else:
        raise NoEmit
    info = scope.types.get(expr.name) or evh._TypeInfo(width=base_width)
    if isinstance(expr, hast.Indexed):
        index = _h_static_int(expr.index, scope)
        if index is None:
            raise NoEmit
        msb = lsb = info.bit_offset(index)
    else:
        left = _h_static_int(expr.left, scope)
        right = _h_static_int(expr.right, scope)
        if left is None or right is None:
            raise NoEmit
        msb, lsb = info.slice_offsets(left, right)
    if not 0 <= lsb <= msb < base_width:
        raise NoEmit  # out-of-range bits read X
    width = msb - lsb + 1
    if base_src is None:
        return _lit(constant.slice(msb, lsb))
    mask = _mask(width)
    if lsb:
        return f"(({base_src} >> {lsb}) & {mask})", width
    if msb == base_width - 1:
        return base_src, width
    return f"({base_src} & {mask})", width


def _h_call(expr, scope, names) -> tuple[str, int]:
    name = expr.name
    if name in ("to_unsigned", "to_signed", "conv_std_logic_vector", "resize"):
        if len(expr.args) != 2:
            raise NoEmit
        src, width = _h(expr.args[0], scope, None, names)
        length = _h_static_int(expr.args[1], scope)
        if length is None or not 1 <= length <= MAX_EMIT_WIDTH:
            raise NoEmit
        if length < width:
            return f"({src} & {_mask(length)})", length
        return src, length
    if name in ("to_integer", "conv_integer"):
        if len(expr.args) != 1:
            raise NoEmit
        src, width = _h(expr.args[0], scope, None, names)
        if width > 32:
            return f"({src} & {_mask(32)})", 32
        return src, 32
    if name in ("std_logic_vector", "unsigned", "signed", "to_stdlogicvector",
                "to_01"):
        if len(expr.args) != 1:
            raise NoEmit
        return _h(expr.args[0], scope, None, names)
    if name in ("shift_left", "shift_right"):
        if len(expr.args) != 2:
            raise NoEmit
        v_src, width = _h(expr.args[0], scope, None, names)
        c_src, _ = _h(expr.args[1], scope, None, names)
        if name == "shift_left":
            return (
                f"((({v_src} << {c_src}) & {_mask(width)})"
                f" if {c_src} < {width} else 0)",
                width,
            )
        _mask(width)
        return f"({v_src} >> {c_src})", width
    if name == "std_match":
        if len(expr.args) != 2:
            raise NoEmit
        a_src, _aw = _h(expr.args[0], scope, None, names)
        b_src, _bw = _h(expr.args[1], scope, None, names)
        # fully-known vectors: std_match degenerates to equality
        return f"(1 if {a_src} == {b_src} else 0)", 1
    # rising_edge/falling_edge read per-process edge memory; rotates are
    # rare — all keep the four-state body
    raise NoEmit


def _h_attribute(expr, scope) -> tuple[str, int]:
    info = scope.types.get(expr.name)
    if info is None:
        raise NoEmit
    values = {
        "length": info.width,
        "left": info.left,
        "right": info.right,
        "high": max(info.left, info.right),
        "low": min(info.left, info.right),
    }
    if expr.attr not in values:
        raise NoEmit  # 'event / 'last_value need edge memory
    return repr(values[expr.attr] & 0xFFFFFFFF), 32


def _h_operand_width(expr, scope) -> int:
    """Static width hint for an aggregate operand (as in compile.vhdl)."""
    if isinstance(expr, hast.Name):
        info = scope.types.get(expr.name)
        if info is not None:
            return info.width
    if isinstance(expr, hast.StringLiteral) and expr.base in ("", "b"):
        return max(1, len(expr.value.replace("_", "")))
    return 32


def _h_binary(expr, scope, names) -> tuple[str, int]:
    op = expr.op
    l_src, lw = _h(expr.lhs, scope, _h_operand_width(expr.rhs, scope), names)
    r_src, rw = _h(expr.rhs, scope, lw, names)
    width = max(lw, rw)
    if op == "and":
        return f"({l_src} & {r_src})", width
    if op == "or":
        return f"({l_src} | {r_src})", width
    if op == "xor":
        return f"({l_src} ^ {r_src})", width
    if op == "nand":
        return f"(({l_src} & {r_src}) ^ {_mask(width)})", width
    if op == "nor":
        return f"(({l_src} | {r_src}) ^ {_mask(width)})", width
    if op == "xnor":
        return f"(({l_src} ^ {r_src}) ^ {_mask(width)})", width
    if op == "=":
        return f"(1 if {l_src} == {r_src} else 0)", 1
    if op == "/=":
        return f"(1 if {l_src} != {r_src} else 0)", 1
    if op == "<":
        return f"(1 if {l_src} < {r_src} else 0)", 1
    if op == "<=":
        return f"(1 if {l_src} <= {r_src} else 0)", 1
    if op == ">":
        return f"(1 if {l_src} > {r_src} else 0)", 1
    if op == ">=":
        return f"(1 if {l_src} >= {r_src} else 0)", 1
    if op == "+":
        return f"(({l_src} + {r_src}) & {_mask(width)})", width
    if op == "-":
        return f"(({l_src} - {r_src}) & {_mask(width)})", width
    if op == "*":
        _mask(lw + rw)
        return f"({l_src} * {r_src})", lw + rw
    if op == "&":
        _mask(lw + rw)
        if rw:
            return f"(({l_src} << {rw}) | {r_src})", lw + rw
        return l_src, lw
    if op == "**":
        return f"(({l_src} ** min({r_src}, 64)) & {_mask(32)})", 32
    # "/" and mod/rem produce X on a zero divisor even with known inputs
    raise NoEmit
