"""Four-state logic vectors.

:class:`Logic` models Verilog's ``0/1/x`` (``z`` is folded into ``x``; none of
the suite designs use tristate buses) with an arbitrary width. The
representation is two integers: ``bits`` holds the known bit values and
``xmask`` marks unknown bits. All operators implement the X-propagation rules
of IEEE 1364 §5.1: bitwise operators propagate X per bit (with the usual
dominant-value exceptions, e.g. ``0 & x == 0``), while arithmetic and
relational operators yield all-X when any input bit is unknown.

VHDL ``std_logic`` values map onto the same class ('U'/'X'/'W'/'Z'/'-' → x,
'0'/'L' → 0, '1'/'H' → 1), which is what lets one kernel simulate both
languages.
"""

from __future__ import annotations

from dataclasses import dataclass


def _mask(width: int) -> int:
    return (1 << width) - 1


#: interning table for narrow vectors: at most ``3**w`` normalized values
#: exist per width ``w`` (each bit is 0, 1, or x), so capping the width at 8
#: bounds the table at ~10k entries while covering the control signals and
#: small buses that dominate simulation traffic.
_INTERN_MAX_WIDTH = 8
_INTERN: dict = {}


@dataclass(frozen=True)
class Logic:
    """An immutable four-state logic vector of fixed width.

    ``bits`` and ``xmask`` are kept normalized: both are truncated to
    ``width`` bits and ``bits`` is zeroed wherever ``xmask`` is set, so two
    vectors with the same displayed value always compare equal.
    """

    width: int
    bits: int = 0
    xmask: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"logic width must be positive, got {self.width}")
        mask = _mask(self.width)
        xmask = self.xmask & mask
        bits = self.bits & mask & ~xmask
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "xmask", xmask)

    # -- construction -----------------------------------------------------

    @staticmethod
    def _make(width: int, bits: int, xmask: int) -> "Logic":
        """Fast internal constructor: normalizes without re-validating width.

        Operator implementations produce widths that are positive by
        construction, so this skips ``__post_init__``'s checks and allocates
        via ``object.__new__``. Narrow results are interned so repeated
        values (counter bits, flags, small buses) share one object, which
        makes the kernel's change-detection an identity check most of the
        time. The public constructors (``Logic(...)``, :func:`logic`,
        :meth:`from_string`) keep full validation.
        """
        mask = (1 << width) - 1
        if xmask:
            xmask &= mask
            bits = bits & mask & ~xmask
        else:
            bits &= mask
        if width <= _INTERN_MAX_WIDTH:
            key = (width, bits, xmask)
            cached = _INTERN.get(key)
            if cached is not None:
                return cached
            obj = object.__new__(Logic)
            setattr_ = object.__setattr__
            setattr_(obj, "width", width)
            setattr_(obj, "bits", bits)
            setattr_(obj, "xmask", xmask)
            _INTERN[key] = obj
            return obj
        obj = object.__new__(Logic)
        setattr_ = object.__setattr__
        setattr_(obj, "width", width)
        setattr_(obj, "bits", bits)
        setattr_(obj, "xmask", xmask)
        return obj

    @staticmethod
    def from_int(value: int, width: int) -> "Logic":
        """Build a fully-known vector from a Python int (two's complement wrap)."""
        if width <= 0:
            raise ValueError(f"logic width must be positive, got {width}")
        return Logic._make(width, value, 0)

    @staticmethod
    def unknown(width: int) -> "Logic":
        """All-X vector of the given width."""
        if width <= 0:
            raise ValueError(f"logic width must be positive, got {width}")
        return Logic._make(width, 0, _mask(width))

    @staticmethod
    def from_string(text: str) -> "Logic":
        """Parse a bit-string like ``"10x1"`` (MSB first)."""
        if not text:
            raise ValueError("empty logic string")
        bits = 0
        xmask = 0
        for char in text:
            bits <<= 1
            xmask <<= 1
            if char == "1":
                bits |= 1
            elif char == "0":
                pass
            elif char in "xXzZuUwW-":
                xmask |= 1
            elif char == "_":
                bits >>= 1
                xmask >>= 1
            else:
                raise ValueError(f"invalid logic character {char!r}")
        return Logic(width=len(text.replace("_", "")), bits=bits, xmask=xmask)

    # -- inspection --------------------------------------------------------

    @property
    def has_x(self) -> bool:
        return self.xmask != 0

    @property
    def is_fully_known(self) -> bool:
        return self.xmask == 0

    def to_int(self) -> int:
        """Unsigned integer value; raises if any bit is X."""
        if self.has_x:
            raise ValueError(f"cannot convert {self} with X bits to int")
        return self.bits

    def to_signed(self) -> int:
        """Signed (two's complement) integer value; raises if any bit is X."""
        value = self.to_int()
        if value & (1 << (self.width - 1)):
            value -= 1 << self.width
        return value

    def bit(self, index: int) -> "Logic":
        """Single bit as a width-1 vector; out-of-range reads X (Verilog rule)."""
        if not 0 <= index < self.width:
            return Logic.unknown(1)
        return Logic._make(1, (self.bits >> index) & 1, (self.xmask >> index) & 1)

    def bit_char(self, index: int) -> str:
        if not 0 <= index < self.width:
            return "x"
        if (self.xmask >> index) & 1:
            return "x"
        return "1" if (self.bits >> index) & 1 else "0"

    def to_bit_string(self) -> str:
        """MSB-first bit string, e.g. ``"10x1"``."""
        return "".join(self.bit_char(i) for i in range(self.width - 1, -1, -1))

    def __str__(self) -> str:
        return f"{self.width}'b{self.to_bit_string()}"

    def format(self, spec: str) -> str:
        """Format for $display: spec is one of ``b``, ``d``, ``h``, ``o``."""
        if spec == "b":
            return self.to_bit_string()
        if self.has_x:
            # Verilog prints a capital/lower x per digit; a bare x suffices here.
            if spec == "d":
                return "x"
            digits = (self.width + (3 if spec == "o" else 3)) // (3 if spec == "o" else 4)
            return "x" * max(1, digits)
        if spec == "d":
            return str(self.bits)
        if spec == "h":
            return format(self.bits, "x")
        if spec == "o":
            return format(self.bits, "o")
        raise ValueError(f"unknown format spec {spec!r}")

    # -- width adaptation ---------------------------------------------------

    def resize(self, width: int) -> "Logic":
        """Zero-extend or truncate to *width* (X bits extend as 0-known? no: trunc only affects high bits; extension adds known 0s)."""
        if width == self.width:
            return self
        return Logic._make(width, self.bits, self.xmask)

    def sign_extend(self, width: int) -> "Logic":
        if width <= self.width:
            return self.resize(width)
        top = self.bit(self.width - 1)
        ext_mask = _mask(width) ^ _mask(self.width)
        bits = self.bits | (ext_mask if top.bits else 0)
        xmask = self.xmask | (ext_mask if top.xmask else 0)
        return Logic._make(width, bits, xmask)

    # -- bitwise operators ---------------------------------------------------

    def _binary_widths(self, other: "Logic") -> int:
        return max(self.width, other.width)

    def __invert__(self) -> "Logic":
        return Logic._make(self.width, ~self.bits, self.xmask)

    def __and__(self, other: "Logic") -> "Logic":
        width = self._binary_widths(other)
        a, b = self.resize(width), other.resize(width)
        # result X where either side X, unless the other side is a known 0.
        known_zero_a = ~a.bits & ~a.xmask
        known_zero_b = ~b.bits & ~b.xmask
        xmask = (a.xmask | b.xmask) & ~known_zero_a & ~known_zero_b
        return Logic._make(width, a.bits & b.bits, xmask)

    def __or__(self, other: "Logic") -> "Logic":
        width = self._binary_widths(other)
        a, b = self.resize(width), other.resize(width)
        xmask = (a.xmask | b.xmask) & ~a.bits & ~b.bits
        return Logic._make(width, a.bits | b.bits, xmask)

    def __xor__(self, other: "Logic") -> "Logic":
        width = self._binary_widths(other)
        a, b = self.resize(width), other.resize(width)
        xmask = a.xmask | b.xmask
        return Logic._make(width, a.bits ^ b.bits, xmask)

    # -- arithmetic (all-X on any unknown input) ------------------------------

    def _arith(self, other: "Logic", op, width: int | None = None) -> "Logic":
        width = width or self._binary_widths(other)
        if self.has_x or other.has_x:
            return Logic.unknown(width)
        return Logic.from_int(op(self.bits, other.bits), width)

    def add(self, other: "Logic") -> "Logic":
        return self._arith(other, lambda a, b: a + b)

    def sub(self, other: "Logic") -> "Logic":
        return self._arith(other, lambda a, b: a - b)

    def mul(self, other: "Logic") -> "Logic":
        return self._arith(other, lambda a, b: a * b)

    def div(self, other: "Logic") -> "Logic":
        width = self._binary_widths(other)
        if self.has_x or other.has_x or other.bits == 0:
            return Logic.unknown(width)
        return Logic.from_int(self.bits // other.bits, width)

    def mod(self, other: "Logic") -> "Logic":
        width = self._binary_widths(other)
        if self.has_x or other.has_x or other.bits == 0:
            return Logic.unknown(width)
        return Logic.from_int(self.bits % other.bits, width)

    def neg(self) -> "Logic":
        if self.has_x:
            return Logic.unknown(self.width)
        return Logic.from_int(-self.bits, self.width)

    # -- shifts ----------------------------------------------------------------

    def shl(self, amount: "Logic") -> "Logic":
        if amount.has_x:
            return Logic.unknown(self.width)
        shift = amount.bits
        if shift >= self.width:
            return Logic._make(self.width, 0, 0)
        return Logic._make(self.width, self.bits << shift, self.xmask << shift)

    def shr(self, amount: "Logic") -> "Logic":
        if amount.has_x:
            return Logic.unknown(self.width)
        shift = amount.bits
        return Logic._make(self.width, self.bits >> shift, self.xmask >> shift)

    def ashr(self, amount: "Logic") -> "Logic":
        if amount.has_x:
            return Logic.unknown(self.width)
        shift = min(amount.bits, self.width)
        top_known = not ((self.xmask >> (self.width - 1)) & 1)
        top_set = (self.bits >> (self.width - 1)) & 1
        fill = _mask(self.width) ^ _mask(max(self.width - shift, 0))
        bits = self.bits >> shift
        xmask = self.xmask >> shift
        if top_known and top_set:
            bits |= fill
        elif not top_known:
            xmask |= fill
        return Logic._make(self.width, bits, xmask)

    # -- comparisons (return width-1 Logic) --------------------------------------

    def _compare(self, other: "Logic", op) -> "Logic":
        if self.has_x or other.has_x:
            return Logic.unknown(1)
        return Logic._make(1, 1 if op(self.bits, other.bits) else 0, 0)

    def eq(self, other: "Logic") -> "Logic":
        width = self._binary_widths(other)
        a, b = self.resize(width), other.resize(width)
        # known-differing bit anywhere -> definite 0 even with Xs elsewhere
        known = ~(a.xmask | b.xmask) & _mask(width)
        if (a.bits ^ b.bits) & known:
            return Logic._make(1, 0, 0)
        if a.xmask | b.xmask:
            return Logic.unknown(1)
        return Logic._make(1, 1, 0)

    def ne(self, other: "Logic") -> "Logic":
        result = self.eq(other)
        return Logic.unknown(1) if result.has_x else Logic._make(1, result.bits ^ 1, 0)

    def case_eq(self, other: "Logic") -> "Logic":
        """Verilog ``===``: X compares literally; always yields 0 or 1."""
        width = self._binary_widths(other)
        a, b = self.resize(width), other.resize(width)
        same = a.bits == b.bits and a.xmask == b.xmask
        return Logic._make(1, 1 if same else 0, 0)

    def lt(self, other: "Logic") -> "Logic":
        return self._compare(other, lambda a, b: a < b)

    def le(self, other: "Logic") -> "Logic":
        return self._compare(other, lambda a, b: a <= b)

    def gt(self, other: "Logic") -> "Logic":
        return self._compare(other, lambda a, b: a > b)

    def ge(self, other: "Logic") -> "Logic":
        return self._compare(other, lambda a, b: a >= b)

    def lt_signed(self, other: "Logic") -> "Logic":
        if self.has_x or other.has_x:
            return Logic.unknown(1)
        return Logic._make(1, 1 if self.to_signed() < other.to_signed() else 0, 0)

    # -- reductions ----------------------------------------------------------------

    def reduce_and(self) -> "Logic":
        known_zero = ~self.bits & ~self.xmask & _mask(self.width)
        if known_zero:
            return Logic._make(1, 0, 0)
        if self.xmask:
            return Logic.unknown(1)
        return Logic._make(1, 1, 0)

    def reduce_or(self) -> "Logic":
        if self.bits:
            return Logic._make(1, 1, 0)
        if self.xmask:
            return Logic.unknown(1)
        return Logic._make(1, 0, 0)

    def reduce_xor(self) -> "Logic":
        if self.xmask:
            return Logic.unknown(1)
        return Logic._make(1, self.bits.bit_count() & 1, 0)

    # -- logical (truthiness) ---------------------------------------------------------

    def truthy(self) -> "Logic":
        """Verilog truth value of a vector: OR-reduction."""
        return self.reduce_or()

    def logical_not(self) -> "Logic":
        t = self.truthy()
        return Logic.unknown(1) if t.has_x else Logic._make(1, t.bits ^ 1, 0)

    def logical_and(self, other: "Logic") -> "Logic":
        a, b = self.truthy(), other.truthy()
        if (a.is_fully_known and not a.bits) or (b.is_fully_known and not b.bits):
            return Logic._make(1, 0, 0)
        if a.has_x or b.has_x:
            return Logic.unknown(1)
        return Logic._make(1, 1, 0)

    def logical_or(self, other: "Logic") -> "Logic":
        a, b = self.truthy(), other.truthy()
        if (a.is_fully_known and a.bits) or (b.is_fully_known and b.bits):
            return Logic._make(1, 1, 0)
        if a.has_x or b.has_x:
            return Logic.unknown(1)
        return Logic._make(1, 0, 0)

    def is_true(self) -> bool:
        """Python-level truth for control flow: X counts as false (Verilog if).

        Equivalent to OR-reduction being a known 1, which holds exactly when
        any known-1 bit exists — i.e. ``bits`` is non-zero (normalization
        keeps X positions out of ``bits``).
        """
        return bool(self.bits)

    # -- structure -----------------------------------------------------------------------

    def concat(self, other: "Logic") -> "Logic":
        """``{self, other}`` — self becomes the high part."""
        width = self.width + other.width
        bits = (self.bits << other.width) | other.bits
        xmask = (self.xmask << other.width) | other.xmask
        return Logic._make(width, bits, xmask)

    def replicate(self, count: int) -> "Logic":
        if count <= 0:
            raise ValueError(f"replication count must be positive, got {count}")
        result = self
        for _ in range(count - 1):
            result = result.concat(self)
        return result

    def slice(self, msb: int, lsb: int) -> "Logic":
        """Part-select ``[msb:lsb]`` (both inclusive, msb >= lsb)."""
        if msb < lsb:
            raise ValueError(f"slice [{msb}:{lsb}] has msb < lsb")
        width = msb - lsb + 1
        if lsb >= self.width:
            return Logic.unknown(width)
        bits = self.bits >> lsb
        xmask = self.xmask >> lsb
        # bits beyond the vector read as X
        if msb >= self.width:
            overflow = _mask(width) ^ _mask(self.width - lsb)
            xmask |= overflow
        return Logic._make(width, bits, xmask)

    def set_slice(self, msb: int, lsb: int, value: "Logic") -> "Logic":
        """Functional update of bits [msb:lsb] with *value*."""
        if msb < lsb:
            raise ValueError(f"slice [{msb}:{lsb}] has msb < lsb")
        width = msb - lsb + 1
        value = value.resize(width)
        field_mask = _mask(width) << lsb
        bits = (self.bits & ~field_mask) | ((value.bits << lsb) & field_mask)
        xmask = (self.xmask & ~field_mask) | ((value.xmask << lsb) & field_mask)
        return Logic._make(self.width, bits, xmask)


def logic(value: int | str, width: int | None = None) -> Logic:
    """Convenience constructor.

    ``logic(5, 4)`` → 4-bit 0101; ``logic("10x")`` → 3-bit with an X.
    """
    if isinstance(value, str):
        parsed = Logic.from_string(value)
        if width is not None and width != parsed.width:
            parsed = parsed.resize(width)
        return parsed
    if width is None:
        width = max(1, value.bit_length())
    return Logic.from_int(value, width)


#: Single-bit unknown, used as the reset value of every signal.
X = Logic.unknown(1)
