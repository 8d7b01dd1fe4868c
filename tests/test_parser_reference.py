"""Frozen parser reference: syntax trees and parse diagnostics.

Every input of every category of the scanner reference
(:data:`tests.test_scanner_reference.CATEGORIES`) is parsed by its
language's frontend. Each category's digest is a sha256 over a canonical
rendering of every parse: the syntax tree walked through
:func:`dataclasses.fields` (class name, field names and values, spans as
offsets, :class:`~repro.sim.values.Logic` as width/bits/xmask) and every
diagnostic the parse reported (code, message, location and snippet). Any
change of a node, a span, a literal's value or a message on any of these
inputs shows here.

The digests were recorded with the frontend that made one ``Token`` and one
``SourceSpan`` per token, before the compact token stream
(:class:`repro.hdl.scanner.TokenStream`) and key dispatch replaced it; that
change left every digest unchanged. A change to the scanner or to either
parser must do the same unless it means to change what the frontend
accepts or reports.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.eda.toolchain import Language
from repro.hdl.source import SourceSpan
from repro.sim.values import Logic
from repro.verilog.parser import parse_verilog
from repro.vhdl.parser import parse_vhdl
from tests.test_scanner_reference import CATEGORIES

PARSERS = {Language.VERILOG: parse_verilog, Language.VHDL: parse_vhdl}

#: category -> (inputs, sha256 of their syntax trees and diagnostics)
REFERENCE = {
    "corpus": (
        38, "e8474cdcd32e22e9518c56c849a87583b54f0e15f44705b25c17b7e766746f15"
    ),
    "cross": (
        312, "efc12b9352d7d390863aba1064a9a14b341a38b26c5a9e72f476ea80f69ed18f"
    ),
    "fragments": (
        600, "ec6c779d1508da15c521b19eb7909a2ab188c7773bd702d737a85a5cdf316f42"
    ),
    "mangled": (
        600, "f94f15b7acddeb6d7fa0040bc88e13824e6d7eba81ffacca1eb29d9a6dd47367"
    ),
    "mutated": (
        1015, "1d7bc41826d262b7be986d24790540b739fde370d0cdb55b21a86225e5b6fde3"
    ),
    "noise": (
        800, "99ec08d671b18c2e9515948cf8b8a16ef7b4d81b229c8f983cdad6f139f16f86"
    ),
    "suite": (
        624, "2970ff2a38a0d50772b2f9c2c8f3fef1b763f954c07bf58ef2aee7e19c1f0b0f"
    ),
}


def render(value) -> str:
    """A canonical, address-free rendering of a syntax tree value."""
    if isinstance(value, SourceSpan):
        return f"@{value.start_offset}:{value.end_offset}"
    if isinstance(value, Logic):
        return f"Logic({value.width},{value.bits},{value.xmask})"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{field.name}={render(getattr(value, field.name))}"
            for field in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(render(item) for item in value) + ")"
    if value is None or isinstance(value, (str, int, float)):
        return repr(value)
    raise TypeError(f"unexpected value in a syntax tree: {value!r}")


def parse_record(language: Language, text: str) -> str:
    """One input's syntax tree and rendered parse diagnostics."""
    tree, collector = PARSERS[language](text, name="ref")
    lines = [render(tree)]
    for diag in collector.diagnostics:
        lines.append(f"{diag.render()} @{diag.location} {diag.snippet!r}")
    return "\n".join(lines)


def category_digest(name: str) -> tuple[int, str]:
    hasher = hashlib.sha256()
    count = 0
    for language, text in CATEGORIES[name]():
        record = f"{language.value}\x1e{parse_record(language, text)}\x1d"
        hasher.update(record.encode())
        count += 1
    return count, hasher.hexdigest()


@pytest.mark.parametrize("category", sorted(CATEGORIES))
def test_parses_match_reference(category):
    assert category_digest(category) == REFERENCE[category]


def test_reference_covers_every_scanner_category():
    assert sorted(REFERENCE) == sorted(CATEGORIES)
    assert sum(count for count, _ in REFERENCE.values()) == 3989


def test_rendering_is_canonical():
    tree, _ = parse_verilog(
        "module m(input a, output y); assign y = ~a & 4'b1x0z; endmodule"
    )
    rendered = render(tree)
    assert rendered.startswith("SourceUnit(span=@0:")
    assert "Logic(4,8,5)" in rendered
    assert (
        "Unary(span=@40:42,op='~',operand=Identifier(span=@41:42,name='a'))"
        in rendered
    )
