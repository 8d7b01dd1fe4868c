"""Frozen scanner reference: token streams and lexer diagnostics.

The digests in :data:`REFERENCE` were recorded with the character-at-a-time
lexers that the table-driven scanner (:mod:`repro.hdl.scanner`) replaced,
after their one fix (an unterminated string ending in a backslash at end of
input no longer reaches past the text). Each digest is a sha256 over the
token stream (kind, text, span) and the rendered diagnostics (message,
location, snippet) of every input in its category, so any change of a token,
a span or a message on any of these inputs shows here.

The inputs are ASCII: outside strings, comments and character literals a
non-ASCII character is an ``unexpected character`` error now (identifiers are
ASCII in IEEE 1364 and 1076), a deliberate change pinned by
:class:`TestAsciiRule`.
"""

from __future__ import annotations

import hashlib
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.designs.mutations import apply_mutation
from repro.eda.toolchain import Language
from repro.evalsuite import build_suite
from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.source import SourceFile
from repro.qa.corpus import load_corpus
from repro.qa.oracle import case_sources
from repro.verilog.lexer import VerilogLexer, lex_verilog
from repro.vhdl.lexer import VhdlLexer, lex_vhdl

LEXERS = {Language.VERILOG: lex_verilog, Language.VHDL: lex_vhdl}
OTHER = {Language.VERILOG: Language.VHDL, Language.VHDL: Language.VERILOG}

#: every ASCII code point; str.isspace() is true for \x0b, \x0c and \x1c-\x1f
ASCII = "".join(chr(code) for code in range(128))
#: characters that appear in HDL, plus the easy-to-mishandle controls
HDL_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFXZ0123456789"
    " \t\n;:,.()[]{}<>=+-*/&|^~!?#@$'\"_%`\\"
    "\x00\x0b\x0c\x1c\x1d\x1e\x1f\r"
)
#: literal fragments glued together by the "fragments" category
FRAGMENTS = (
    "4'b1010", "'sb1", "4'q", "4'h", "8'shFF", "'h", "460'", "12'", "1_0'",
    "$", "$display", "\\esc", "\\", "/*", "*/", "//", "--", "`define",
    '"', '"a\\"', '"ab\\', 'x"', 'X"0F"', "b\"01", "q'length", "'0'",
    "'''", "1.5", "1.", "1._5", "a$b", "_x", " ", "\n", "\t", "\x0b",
    "\x00", "<<<", ">>>=", "**", "=>", ":=", "/=", "<>", "+:", "-:",
)


def _inputs_suite():
    for problem in build_suite():
        for language in Language:
            yield language, problem.reference[language]
            yield language, problem.golden_tb[language]


def _inputs_mutated():
    for problem in build_suite():
        for language in Language:
            reference = problem.reference[language]
            for mutation in (problem.syntax_mutations[language]
                             + problem.functional_mutations[language]):
                yield language, apply_mutation(reference, mutation)


def _inputs_corpus():
    for case in load_corpus():
        for language, text in case_sources(case).items():
            yield language, text


def _inputs_cross():
    for problem in build_suite():
        for language in Language:
            yield OTHER[language], problem.reference[language]


def _both(texts):
    for text in texts:
        for language in Language:
            yield language, text


def _inputs_noise():
    rng = random.Random(1364)
    texts = []
    for index in range(400):
        alphabet = ASCII if index % 2 else HDL_ALPHABET
        size = rng.randrange(0, 160)
        texts.append("".join(rng.choice(alphabet) for _ in range(size)))
    return _both(texts)


def _inputs_fragments():
    rng = random.Random(1076)
    texts = []
    for _ in range(300):
        parts = [rng.choice(FRAGMENTS) for _ in range(rng.randrange(1, 7))]
        texts.append(rng.choice(("", " ")).join(parts))
    return _both(texts)


def _inputs_mangled():
    rng = random.Random(2025)
    references = [problem.reference[language]
                  for problem in build_suite() for language in Language]
    texts = []
    for _ in range(300):
        source = rng.choice(references)
        junk = "".join(rng.choice(ASCII) for _ in range(rng.randrange(1, 24)))
        cut = rng.randrange(len(source))
        at = rng.randrange(len(source))
        texts.append(source[:at] + junk + source[at:cut] + source[cut + 40:])
    return _both(texts)


CATEGORIES = {
    "suite": _inputs_suite,
    "mutated": _inputs_mutated,
    "corpus": _inputs_corpus,
    "cross": _inputs_cross,
    "noise": _inputs_noise,
    "fragments": _inputs_fragments,
    "mangled": _inputs_mangled,
}

#: category -> (inputs, sha256 of their token streams and diagnostics)
REFERENCE = {
    "suite": (
        624, "d5ff906584359ff9e9d49366dd77b2614aab67145eb14076026274faa5b3bee4"
    ),
    "mutated": (
        1015, "55eac49e7397a2da6d7f4ef5dd823a81221544b6c7cfe6865583cc3409b943ba"
    ),
    "corpus": (
        38, "4fbe329773212959ca65c0208086cfff285fa34a67356605e2f1f41b486243d5"
    ),
    "cross": (
        312, "858db39ee018d4a6c0885a763cc2bbc17542457299d4f7e7cab99992c8f464c8"
    ),
    "noise": (
        800, "a8b9069267de840c14c34cad0b8855514df1f2e1deeb9373b5d9539af45a43f9"
    ),
    "fragments": (
        600, "1ae927ea73d9712a3c30dcfc63cd78f154a783bc5ceed32b076216de469d3d1a"
    ),
    "mangled": (
        600, "8fa42214f588325e08e76f33eec030939f48196b864a8c883eb10545d78daf52"
    ),
}


def lex_record(language: Language, text: str) -> str:
    """One input's token stream and rendered lexer diagnostics."""
    collector = DiagnosticCollector()
    tokens = LEXERS[language](SourceFile("ref", text), collector)
    lines = [
        f"{t.kind.name} {t.text!r} {t.span.start_offset} {t.span.end_offset}"
        for t in tokens
    ]
    for diag in collector.diagnostics:
        lines.append(f"{diag.render()} @{diag.location} {diag.snippet!r}")
    return "\n".join(lines)


def category_digest(name: str) -> tuple[int, str]:
    hasher = hashlib.sha256()
    count = 0
    for language, text in CATEGORIES[name]():
        record = f"{language.value}\x1e{lex_record(language, text)}\x1d"
        hasher.update(record.encode())
        count += 1
    return count, hasher.hexdigest()


@pytest.mark.parametrize("category", sorted(CATEGORIES))
def test_token_streams_match_reference(category):
    assert category_digest(category) == REFERENCE[category]


def test_reference_covers_enough_inputs():
    assert sum(count for count, _ in REFERENCE.values()) >= 2000


@pytest.mark.parametrize("category", ["noise", "fragments", "mangled"])
def test_stream_keys_follow_the_key_rule(category):
    # the parsers dispatch on the keys alone, which the digests above do
    # not cover: each must be the key of the token it stands for
    lexers = {Language.VERILOG: VerilogLexer, Language.VHDL: VhdlLexer}
    for language, text in CATEGORIES[category]():
        stream = lexers[language](
            SourceFile("ref", text), DiagnosticCollector()
        ).tokenize()
        assert stream.keys == [token.key for token in stream.tokens()]


def lex(language, text):
    """(kind, text, start, end) per token, and the diagnostic messages."""
    collector = DiagnosticCollector()
    tokens = LEXERS[language](SourceFile("t", text), collector)
    return (
        [(t.kind.name, t.text, t.span.start_offset, t.span.end_offset)
         for t in tokens],
        [d.message for d in collector.diagnostics],
    )


V, H = Language.VERILOG, Language.VHDL


class TestLiteralEdgeCases:
    def test_signed_marker_needs_a_size(self):
        # a bare tick starts a literal only before a base letter
        assert lex(V, "'sb1") == (
            [("ERROR", "'", 0, 1), ("IDENT", "sb1", 1, 4), ("EOF", "", 4, 4)],
            ["unexpected character \"'\""],
        )
        assert lex(V, "4'sb1")[0][0] == ("BASED_NUMBER", "4'sb1", 0, 5)

    def test_invalid_base(self):
        assert lex(V, "4'q") == (
            [("ERROR", "4'", 0, 2), ("IDENT", "q", 2, 3), ("EOF", "", 3, 3)],
            ["invalid base specifier 'q' in literal"],
        )

    def test_invalid_base_at_end_of_input(self):
        assert lex(V, "460'") == (
            [("ERROR", "460'", 0, 4), ("EOF", "", 4, 4)],
            ["invalid base specifier '\\x00' in literal"],
        )

    def test_missing_digits(self):
        assert lex(V, "4'h ;") == (
            [("ERROR", "4'h", 0, 3), ("PUNCT", ";", 4, 5), ("EOF", "", 5, 5)],
            ["based literal is missing digits"],
        )
        assert lex(V, "'h")[0][0] == ("ERROR", "'h", 0, 2)

    def test_lone_dollar(self):
        assert lex(V, "$ x") == (
            [("ERROR", "$", 0, 1), ("IDENT", "x", 2, 3), ("EOF", "", 3, 3)],
            ["expected system task name after '$'"],
        )

    def test_escaped_identifier_at_end_of_input(self):
        assert lex(V, "\\bus$x") == (
            [("IDENT", "bus$x", 0, 6), ("EOF", "", 6, 6)], [],
        )
        assert lex(V, "\\") == ([("IDENT", "", 0, 1), ("EOF", "", 1, 1)], [])

    def test_escaped_identifier_ends_at_any_ascii_space(self):
        for space in " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f":
            tokens, _ = lex(V, f"\\a{space}b")
            assert tokens[0] == ("IDENT", "a", 0, 2), repr(space)

    def test_unterminated_block_comment(self):
        assert lex(V, "a /*") == (
            [("IDENT", "a", 0, 1), ("EOF", "", 4, 4)],
            ["unterminated block comment"],
        )
        assert lex(V, "a /*/ b")[0] == [("IDENT", "a", 0, 1), ("EOF", "", 7, 7)]

    def test_unterminated_string_ending_in_backslash(self):
        # the backslash at end of input must not push the span past the text
        text = 'x = "ab\\'
        assert len(text) == 8
        assert lex(V, text) == (
            [("IDENT", "x", 0, 1), ("OPERATOR", "=", 2, 3),
             ("ERROR", '"ab\\', 4, 8), ("EOF", "", 8, 8)],
            ["unterminated string literal"],
        )

    def test_backslash_newline_does_not_continue_a_string(self):
        tokens, messages = lex(V, '"a\\\nb"')
        assert tokens[0] == ("ERROR", '"a\\', 0, 3)
        assert messages[0] == "unterminated string literal"

    def test_verilog_has_no_real_literals(self):
        assert lex(V, "1.5")[0] == [
            ("NUMBER", "1", 0, 1), ("PUNCT", ".", 1, 2),
            ("NUMBER", "5", 2, 3), ("EOF", "", 3, 3),
        ]

    def test_vhdl_unterminated_bit_string_reported_from_its_quote(self):
        assert lex(H, 'x"') == (
            [("ERROR", '"', 1, 2), ("EOF", "", 2, 2)],
            ["unterminated string literal"],
        )
        assert lex(H, 'X"0F"')[0][0] == ("BASED_NUMBER", 'x"0F"', 0, 5)

    def test_vhdl_attribute_tick_and_character_literal(self):
        assert lex(H, "q'length")[0] == [
            ("IDENT", "q", 0, 1), ("PUNCT", "'", 1, 2),
            ("IDENT", "length", 2, 8), ("EOF", "", 8, 8),
        ]
        assert lex(H, "'0'")[0][0] == ("CHAR", "'0'", 0, 3)

    def test_vhdl_real_literal_is_one_token(self):
        assert lex(H, "1.5")[0][0] == ("NUMBER", "1.5", 0, 3)
        assert lex(H, "1._5")[0][:2] == [("NUMBER", "1.", 0, 2),
                                         ("ERROR", "_", 2, 3)]

    @pytest.mark.parametrize("char", "\x00\x0b\x0c\x1c\x1d\x1e\x1f\x7f")
    @pytest.mark.parametrize("language", [V, H])
    def test_control_characters_are_unexpected(self, language, char):
        tokens, messages = lex(language, f"a{char}b")
        assert tokens[1] == ("ERROR", char, 1, 2)
        assert messages == [f"unexpected character {char!r}"]


class TestAsciiRule:
    """Outside strings, comments and character literals a non-ASCII
    character is an error."""

    @pytest.mark.parametrize("language", [V, H])
    def test_letter_ends_an_identifier(self, language):
        assert lex(language, "abé") == (
            [("IDENT", "ab", 0, 2), ("ERROR", "é", 2, 3), ("EOF", "", 3, 3)],
            ["unexpected character 'é'"],
        )

    @pytest.mark.parametrize("language", [V, H])
    def test_number_keeps_all_its_digits(self, language):
        tokens, messages = lex(language, "460é")
        assert tokens[:2] == [("NUMBER", "460", 0, 3), ("ERROR", "é", 3, 4)]
        assert messages == ["unexpected character 'é'"]

    @pytest.mark.parametrize("language", [V, H])
    def test_non_ascii_digit_is_not_a_number(self, language):
        assert lex(language, "\u0663")[0][0] == ("ERROR", "\u0663", 0, 1)

    def test_escaped_identifier_stops_at_non_ascii(self):
        assert lex(V, "\\aé b")[0][:3] == [
            ("IDENT", "a", 0, 2), ("ERROR", "é", 2, 3), ("IDENT", "b", 4, 5),
        ]

    @pytest.mark.parametrize("language,text", [
        (V, '"é" // é\n/* é */'),
        (H, '"é" -- é\n'),
    ])
    def test_strings_and_comments_keep_non_ascii(self, language, text):
        tokens, messages = lex(language, text)
        assert tokens[0] == ("STRING", '"é"', 0, 3)
        assert [t[0] for t in tokens] == ["STRING", "EOF"]
        assert messages == []

    def test_vhdl_character_literal_keeps_non_ascii(self):
        assert lex(H, "'é'") == ([("CHAR", "'é'", 0, 3), ("EOF", "", 3, 3)], [])


# -- linear-time guard --------------------------------------------------------

MEGABYTE = 1 << 20


def _ordinary_text() -> str:
    texts = [problem.golden_tb[language]
             for problem in build_suite() for language in Language]
    joined = "\n".join(texts)
    return (joined * (MEGABYTE // len(joined) + 1))[:MEGABYTE]


def _adversarial(language: Language) -> dict[str, str]:
    """About 1 MB per rule, shaped to make a backtracking pattern explode."""
    def fill(unit: str, head: str = "", tail: str = "") -> str:
        return head + unit * (MEGABYTE // len(unit)) + tail

    common = {
        "whitespace run": fill(" \t\r\n"),
        "whitespace then error": fill(" ", tail="\x00"),
        "string of backslashes": fill("\\", head='"'),
        "string of escaped quotes": fill('\\"', head='"'),
        "digit runs then tick": fill("1" * 1000 + "'"),
        "long digit run then tick": fill("1", tail="'"),
        "run of ticks": fill("'"),
        "unterminated string": fill("a", head='"'),
    }
    if language is Language.VERILOG:
        common.update({
            "line comments": fill("// x\n"),
            "block comment": fill("*", head="/*", tail="*/"),
            "unterminated block comment": fill("* ", head="/*"),
            "comment openers": fill("/*"),
            "directive": fill("x", head="`"),
            "based literal digits": fill("0", head="4'b"),
            "escaped identifier": fill("a", head="\\"),
        })
    else:
        common.update({
            "line comments": fill("-- x\n"),
            "comment dashes": fill("-"),
            "bit string": fill("0", head='x"', tail='"'),
            "unterminated bit string": fill("0", head='x"'),
        })
    return common


def _match_seconds(table, text: str, repeats: int = 1) -> float:
    """Time to walk ``text`` match by match with the table's master pattern."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _match in table.master.finditer(text):
            pass
        best = min(best, time.perf_counter() - started)
    return best


def _guard(language_value: str) -> None:
    """Child process: print the ordinary time, then one line per input."""
    from repro.verilog.lexer import VERILOG_TABLE
    from repro.vhdl.lexer import VHDL_TABLE

    language = Language(language_value)
    table = VERILOG_TABLE if language is V else VHDL_TABLE
    print(_match_seconds(table, _ordinary_text(), repeats=3), flush=True)
    for name, text in _adversarial(language).items():
        print(f"{name}\t{_match_seconds(table, text)}", flush=True)


@pytest.mark.parametrize("language", [V, H])
def test_scanning_is_linear_on_adversarial_input(language):
    # in a child process, so a catastrophically backtracking rule fails the
    # test by its timeout instead of hanging the suite
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; "
        "import test_scanner_reference as t; t._guard(sys.argv[3])"
    )
    paths = [str(Path(__file__).parent), str(Path(repro.__file__).parents[1])]
    try:
        done = subprocess.run(
            [sys.executable, "-c", code, *paths, language.value],
            capture_output=True, text=True, timeout=120,
        )
    except subprocess.TimeoutExpired as expired:
        lines = (expired.stdout or b"").decode().splitlines()
        raise AssertionError(
            f"scanning did not finish; timings so far: {lines}"
        ) from None
    assert done.returncode == 0, done.stderr
    ordinary, *rows = done.stdout.splitlines()
    for row in rows:
        name, seconds = row.split("\t")
        # an input of one token per character (a run of ticks) takes about
        # 7x the time of ordinary text; a backtracking rule is quadratic,
        # minutes on 1 MB
        assert float(seconds) <= 25 * float(ordinary) + 0.05, (row, ordinary)
