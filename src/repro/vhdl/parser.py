"""Recursive-descent VHDL parser with error recovery.

Same philosophy as the Verilog parser: diagnostics (``VRFC``-style codes as
``xvhdl`` reports them) plus resynchronization to the next ``;`` so multiple
errors surface in one compile — the raw material of the Review Agent's
corrective prompts.
"""

from __future__ import annotations

from repro.hdl.cursor import ParseError as _ParseError
from repro.hdl.cursor import TokenCursor
from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.source import SourceFile
from repro.hdl.tokens import TokenKind
from repro.vhdl import ast
from repro.vhdl.lexer import VhdlLexer

#: names treated as function calls when applied to one argument
KNOWN_FUNCTIONS = frozenset(
    """
    rising_edge falling_edge to_unsigned to_signed to_integer
    std_logic_vector unsigned signed resize shift_left shift_right
    rotate_left rotate_right to_stdlogicvector std_match conv_integer
    conv_std_logic_vector to_01
    """.split()
)

_SEVERITIES = frozenset(("note", "warning", "error", "failure"))
#: time unit -> factor to nanoseconds (sub-nanosecond units fold to 0)
_TIME_SCALE = {"fs": 0, "ps": 0, "ns": 1, "us": 1000, "ms": 1_000_000}

_IDENT = TokenKind.IDENT
#: type marks whose qualified expression ``T'(e)`` elaborates like the
#: conversion ``T(e)``
_QUALIFIED_CONVERSIONS = frozenset(("unsigned", "signed", "std_logic_vector"))
#: type marks whose qualified expression is its operand: the value of a
#: scalar operand already has the type
_QUALIFIED_SCALARS = frozenset((
    "std_logic", "std_ulogic", "bit", "boolean", "integer", "natural",
    "positive",
))
#: kinds of the tokens that can name an attribute after a tick
#: (``clk'event``, ``v'range``)
_ATTRIBUTE_NAMES = frozenset((_IDENT, TokenKind.KEYWORD))


class VhdlParser(TokenCursor):
    """Parses a token stream into a :class:`repro.vhdl.ast.DesignFile`."""

    def __init__(self, source: SourceFile, collector: DiagnosticCollector):
        super().__init__(
            source, collector, VhdlLexer(source, collector).tokenize()
        )

    def _sync_to_semicolon(self) -> None:
        keys = self.keys
        depth = 0
        while not self._at_eof():
            key = keys[self.pos]
            if key == "(":
                depth += 1
            elif key == ")":
                depth = max(0, depth - 1)
            elif depth == 0 and key == ";":
                self.pos += 1
                return
            elif depth == 0 and key in {
                "end", "begin", "entity", "architecture", "process"
            }:
                return
            self.pos += 1

    # ------------------------------------------------------------------
    # design file
    # ------------------------------------------------------------------

    def parse_design_file(self) -> ast.DesignFile:
        entities: list[ast.Entity] = []
        architectures: list[ast.Architecture] = []
        while not self._at_eof():
            pos = self.pos
            key = self.keys[pos]
            try:
                if key in {"library", "use"}:
                    self._skip_context_clause()
                elif key == "entity":
                    entity = self._parse_entity()
                    if entity is not None:
                        entities.append(entity)
                elif key == "architecture":
                    arch = self._parse_architecture()
                    if arch is not None:
                        architectures.append(arch)
                elif key == "package" or key == "configuration":
                    self.collector.error(
                        self._CODE_UNSUPPORTED,
                        f"unsupported design unit '{key}'",
                        source=self.source,
                        span=self._span(pos),
                    )
                    self._skip_design_unit()
                else:
                    raise self._error(
                        f"syntax error near {self._describe(pos)}: expected a "
                        "design unit (entity/architecture)"
                    )
            except _ParseError:
                self._sync_to_semicolon()
                if self.pos == pos and not self._at_eof():
                    self.pos += 1
        return ast.DesignFile(
            span=self._span(0, self.pos),
            entities=tuple(entities),
            architectures=tuple(architectures),
        )

    def _skip_context_clause(self) -> None:
        while not self._at_eof() and self.keys[self.pos] != ";":
            self.pos += 1
        if self.keys[self.pos] == ";":
            self.pos += 1

    def _skip_design_unit(self) -> None:
        while not self._at_eof() and self.keys[self.pos] not in {
            "entity", "architecture", "library", "use"
        }:
            self.pos += 1

    # ------------------------------------------------------------------
    # entity
    # ------------------------------------------------------------------

    def _parse_entity(self) -> ast.Entity | None:
        start = self._advance()  # 'entity'
        name = self.texts[self._expect_ident("after 'entity'")].lower()
        self._expect("is", f"after entity name '{name}'")
        generics: list[ast.GenericDecl] = []
        ports: list[ast.PortDecl] = []
        if self.keys[self.pos] == "generic":
            generics = self._parse_generic_clause()
        if self.keys[self.pos] == "port":
            ports = self._parse_port_clause()
        end = self._expect("end", f"to close entity '{name}'")
        if self.keys[self.pos] == "entity":
            self.pos += 1
        if self.keys[self.pos] is _IDENT:
            closing = self.texts[self._advance()].lower()
            if closing != name:
                self.collector.error(
                    self._CODE_SYNTAX,
                    f"entity name mismatch: 'end {closing}' closes entity "
                    f"'{name}'",
                    source=self.source,
                    span=self._span(end),
                )
        self._expect(";", f"after 'end' of entity '{name}'")
        return ast.Entity(
            span=self._span(start, end),
            name=name,
            generics=tuple(generics),
            ports=tuple(ports),
        )

    def _parse_generic_clause(self) -> list[ast.GenericDecl]:
        self.pos += 1  # 'generic'
        self._expect("(", "after 'generic'")
        generics: list[ast.GenericDecl] = []
        while True:
            names = self._parse_ident_list("in generic declaration")
            self._expect(":", "after generic name")
            type_mark = self._parse_type_mark()
            default = None
            if self.keys[self.pos] == ":=":
                self.pos += 1
                default = self.parse_expression()
            for name_token in names:
                generics.append(
                    ast.GenericDecl(
                        span=self._span(name_token),
                        name=self.texts[name_token].lower(),
                        type_mark=type_mark,
                        default=default,
                    )
                )
            if self.keys[self.pos] != ";":
                break
            self.pos += 1
        self._expect(")", "to close the generic clause")
        self._expect(";", "after the generic clause")
        return generics

    def _parse_port_clause(self) -> list[ast.PortDecl]:
        self.pos += 1  # 'port'
        self._expect("(", "after 'port'")
        ports: list[ast.PortDecl] = []
        while True:
            names = self._parse_ident_list("in port declaration")
            self._expect(":", "after port name")
            direction_token = self.pos
            direction = self.keys[direction_token]
            if direction in {"in", "out", "inout", "buffer"}:
                self.pos += 1
            else:
                direction = "in"
                self.collector.error(
                    self._CODE_SYNTAX,
                    f"missing port direction before "
                    f"{self._describe(direction_token)}; assuming 'in'",
                    source=self.source,
                    span=self._span(direction_token),
                )
            type_mark = self._parse_type_mark()
            for name_token in names:
                ports.append(
                    ast.PortDecl(
                        span=self._span(name_token),
                        name=self.texts[name_token].lower(),
                        direction=direction,
                        type_mark=type_mark,
                    )
                )
            if self.keys[self.pos] != ";":
                break
            self.pos += 1
        self._expect(")", "to close the port clause")
        self._expect(";", "after the port clause")
        return ports

    def _parse_ident_list(self, context: str) -> list[int]:
        names = [self._expect_ident(context)]
        while self.keys[self.pos] == ",":
            self.pos += 1
            names.append(self._expect_ident(context))
        return names

    def _parse_type_mark(self) -> ast.TypeMark:
        name_token = self._expect_ident("as a type name")
        name = self.texts[name_token].lower()
        left = right = None
        descending = True
        if self.keys[self.pos] == "(":
            self.pos += 1
            left = self.parse_expression()
            key = self.keys[self.pos]
            if key not in {"downto", "to"}:
                raise self._error(
                    f"syntax error near {self._describe(self.pos)}: expected "
                    "'downto' or 'to' in range constraint"
                )
            self.pos += 1
            descending = key == "downto"
            right = self.parse_expression()
            self._expect(")", "to close the range constraint")
        elif self.keys[self.pos] == "range":
            # integer range N to M — parsed, only the base type is used
            self.pos += 1
            self.parse_expression()
            if self.keys[self.pos] in {"downto", "to"}:
                self.pos += 1
                self.parse_expression()
        return ast.TypeMark(
            span=self._span(name_token), name=name, left=left, right=right,
            descending=descending,
        )

    # ------------------------------------------------------------------
    # architecture
    # ------------------------------------------------------------------

    def _parse_architecture(self) -> ast.Architecture | None:
        start = self._advance()  # 'architecture'
        name = self.texts[self._expect_ident("after 'architecture'")].lower()
        self._expect("of", f"after architecture name '{name}'")
        entity = self.texts[self._expect_ident("as the entity name")].lower()
        self._expect("is", "after the entity name")
        declarations: list = []
        while not self._at_eof() and self.keys[self.pos] != "begin":
            before = self.pos
            try:
                decl = self._parse_arch_declaration()
                if decl is not None:
                    declarations.extend(decl)
            except _ParseError:
                self._sync_to_semicolon()
                if self.keys[self.pos] in {"entity", "architecture"}:
                    return None
                if self.pos == before:
                    self._advance()  # recovery made no progress: force it
        self._expect("begin", f"in architecture '{name}'")
        statements: list[ast.ConcurrentStatement] = []
        while not self._at_eof() and self.keys[self.pos] != "end":
            if self.keys[self.pos] in {"entity", "architecture"}:
                self.collector.error(
                    self._CODE_SYNTAX,
                    f"missing 'end' for architecture '{name}'",
                    source=self.source,
                    span=self._span(self.pos),
                )
                break
            before = self.pos
            try:
                statement = self._parse_concurrent_statement()
                if statement is not None:
                    statements.append(statement)
            except _ParseError:
                self._sync_to_semicolon()
                if self.pos == before:
                    self._advance()  # recovery made no progress: force it
        end = self.pos
        if self.keys[end] == "end":
            self.pos += 1
            if self.keys[self.pos] == "architecture":
                self.pos += 1
            if self.keys[self.pos] is _IDENT:
                self.pos += 1
            try:
                self._expect(";", f"after 'end' of architecture '{name}'")
            except _ParseError:
                self._sync_to_semicolon()
        return ast.Architecture(
            span=self._span(start, end),
            name=name,
            entity=entity,
            declarations=tuple(declarations),
            statements=tuple(statements),
        )

    def _parse_arch_declaration(self) -> list | None:
        pos = self.pos
        key = self.keys[pos]
        if key == "signal":
            self.pos += 1
            names = self._parse_ident_list("in signal declaration")
            self._expect(":", "after signal name")
            type_mark = self._parse_type_mark()
            init = None
            if self.keys[self.pos] == ":=":
                self.pos += 1
                init = self.parse_expression()
            self._expect(";", "after signal declaration")
            return [
                ast.SignalDecl(
                    span=self._span(n), name=self.texts[n].lower(),
                    type_mark=type_mark, init=init,
                )
                for n in names
            ]
        if key == "constant":
            self.pos += 1
            names = self._parse_ident_list("in constant declaration")
            self._expect(":", "after constant name")
            type_mark = self._parse_type_mark()
            self._expect(":=", "in constant declaration")
            value = self.parse_expression()
            self._expect(";", "after constant declaration")
            return [
                ast.ConstantDecl(
                    span=self._span(n), name=self.texts[n].lower(),
                    type_mark=type_mark, value=value,
                )
                for n in names
            ]
        if key == "component":
            # component declarations are tolerated and skipped; instantiation
            # binds directly to the entity of the same name.
            self.pos += 1
            while not self._at_eof() and self.keys[self.pos] != "component":
                if self.keys[self.pos] in {"begin", "architecture"}:
                    raise self._error("unterminated component declaration", pos)
                self.pos += 1
            self._expect("component", "to close the component declaration")
            self._expect(";", "after 'end component'")
            return None
        if key == "end":
            # tolerated here so the caller's `begin` expectation reports it
            raise self._error(
                f"syntax error near {self._describe(pos)}: expected 'begin' or a "
                "declaration"
            )
        if key in {"type", "subtype", "function", "procedure", "attribute"}:
            self.collector.error(
                self._CODE_UNSUPPORTED,
                f"unsupported declaration '{key}'",
                source=self.source,
                span=self._span(pos),
            )
            raise _ParseError(key)
        raise self._error(
            f"syntax error near {self._describe(pos)}: expected a declaration "
            "(signal/constant) or 'begin'"
        )

    # ------------------------------------------------------------------
    # concurrent statements
    # ------------------------------------------------------------------

    def _parse_concurrent_statement(self) -> ast.ConcurrentStatement | None:
        pos = self.pos
        key = self.keys[pos]
        if key == "process":
            return self._parse_process("")
        if key == "with":
            return self._parse_selected_assign()
        if key is _IDENT and self._next_key() == ":":
            label = self.texts[pos].lower()
            self.pos = pos + 2
            after_label = self.keys[pos + 2]
            if after_label == "process":
                return self._parse_process(label)
            if after_label == "entity":
                return self._parse_entity_instantiation(label)
            if after_label is _IDENT and self._next_key() in {"port", "generic"}:
                # component-style instantiation binds to the same-named entity
                return self._parse_component_instantiation(label)
            raise self._error(
                f"syntax error near {self._describe(pos + 2)}: expected "
                f"'process' or an instantiation after label '{label}'"
            )
        if key is _IDENT or key == "(":
            return self._parse_concurrent_assign()
        raise self._error(
            f"syntax error near {self._describe(pos)}: expected a concurrent "
            "statement"
        )

    def _parse_concurrent_assign(self) -> ast.ConcurrentStatement:
        target = self._parse_target()
        self._expect("<=", "in signal assignment")
        first = self.parse_expression()
        after = self._parse_after()
        if self.keys[self.pos] != "when":
            semi = self._expect(";", "after signal assignment")
            return ast.ConcurrentAssign(
                span=target.span.merge(self._span(semi)),
                target=target,
                value=first,
                after=after,
            )
        arms: list[tuple[ast.Expression, ast.Expression]] = []
        value = first
        while self.keys[self.pos] == "when":
            self.pos += 1
            condition = self.parse_expression()
            arms.append((value, condition))
            self._expect("else", "in conditional signal assignment")
            value = self.parse_expression()
        semi = self._expect(";", "after conditional signal assignment")
        return ast.ConditionalAssign(
            span=target.span.merge(self._span(semi)),
            target=target,
            arms=tuple(arms),
            otherwise=value,
            after=after,
        )

    def _parse_after(self) -> ast.Expression | None:
        if self.keys[self.pos] != "after":
            return None
        self.pos += 1
        return self._parse_time_expression()

    def _parse_time_expression(self) -> ast.Expression:
        """A time value; normalized to integer nanoseconds."""
        value = self.parse_expression()
        pos = self.pos
        unit = self.texts[pos].lower()
        if self.keys[pos] is _IDENT and unit in _TIME_SCALE:
            self.pos = pos + 1
            factor = _TIME_SCALE[unit]
            if factor != 1:
                value = ast.Binary(
                    span=value.span,
                    op="*",
                    lhs=value,
                    rhs=ast.IntLiteral(span=value.span, value=max(factor, 0)),
                )
        return value

    def _parse_selected_assign(self) -> ast.SelectedAssign:
        start = self._advance()  # 'with'
        selector = self.parse_expression()
        self._expect("select", "after the selector expression")
        target = self._parse_target()
        self._expect("<=", "in selected signal assignment")
        arms: list[tuple[ast.Expression, tuple[ast.Expression, ...]]] = []
        otherwise: ast.Expression | None = None
        while True:
            value = self.parse_expression()
            self._expect("when", "in selected signal assignment")
            if self.keys[self.pos] == "others":
                self.pos += 1
                otherwise = value
            else:
                choices = [self.parse_expression()]
                while self.keys[self.pos] == "|":
                    self.pos += 1
                    choices.append(self.parse_expression())
                arms.append((value, tuple(choices)))
            if self.keys[self.pos] != ",":
                break
            self.pos += 1
        semi = self._expect(";", "after selected signal assignment")
        return ast.SelectedAssign(
            span=self._span(start, semi),
            selector=selector,
            target=target,
            arms=tuple(arms),
            otherwise=otherwise,
        )

    def _parse_process(self, label: str) -> ast.ProcessStatement:
        start = self._advance()  # 'process'
        sensitivity: list[str] = []
        if self.keys[self.pos] == "(":
            self.pos += 1
            if self.keys[self.pos] == "all":
                self.pos += 1
                sensitivity = ["all"]
            else:
                sensitivity = [
                    self.texts[t].lower()
                    for t in self._parse_ident_list("in sensitivity list")
                ]
            self._expect(")", "to close the sensitivity list")
        if self.keys[self.pos] == "is":
            self.pos += 1
        declarations: list[ast.VariableDecl] = []
        while not self._at_eof() and self.keys[self.pos] != "begin":
            key = self.keys[self.pos]
            if key == "variable":
                self.pos += 1
                names = self._parse_ident_list("in variable declaration")
                self._expect(":", "after variable name")
                type_mark = self._parse_type_mark()
                init = None
                if self.keys[self.pos] == ":=":
                    self.pos += 1
                    init = self.parse_expression()
                self._expect(";", "after variable declaration")
            elif key == "constant":
                self.pos += 1
                names = self._parse_ident_list("in constant declaration")
                self._expect(":", "after constant name")
                type_mark = self._parse_type_mark()
                self._expect(":=", "in constant declaration")
                init = self.parse_expression()
                self._expect(";", "after constant declaration")
            else:
                raise self._error(
                    f"syntax error near {self._describe(self.pos)}: expected "
                    "'begin' or a variable declaration in process"
                )
            declarations.extend(
                ast.VariableDecl(
                    span=self._span(n),
                    name=self.texts[n].lower(),
                    type_mark=type_mark,
                    init=init,
                )
                for n in names
            )
        self._expect("begin", "in process")
        body = self._parse_sequential_body(("end",))
        self._expect("end", "to close the process")
        self._expect("process", "after 'end'")
        if self.keys[self.pos] is _IDENT:
            self.pos += 1
        semi = self._expect(";", "after 'end process'")
        return ast.ProcessStatement(
            span=self._span(start, semi),
            label=label,
            sensitivity=tuple(sensitivity),
            declarations=tuple(declarations),
            body=body,
        )

    def _parse_entity_instantiation(self, label: str) -> ast.EntityInstantiation:
        start = self._advance()  # 'entity'
        entity_name = self.texts[self._expect_ident("after 'entity'")].lower()
        if self.keys[self.pos] == ".":
            self.pos += 1
            entity_name = self.texts[
                self._expect_ident("after library name")
            ].lower()
        generic_map, port_map = self._parse_maps(label)
        semi = self._expect(";", f"after instantiation '{label}'")
        return ast.EntityInstantiation(
            span=self._span(start, semi),
            label=label,
            entity=entity_name,
            generic_map=tuple(generic_map),
            port_map=tuple(port_map),
        )

    def _parse_component_instantiation(self, label: str) -> ast.EntityInstantiation:
        name_token = self._advance()
        generic_map, port_map = self._parse_maps(label)
        semi = self._expect(";", f"after instantiation '{label}'")
        return ast.EntityInstantiation(
            span=self._span(name_token, semi),
            label=label,
            entity=self.texts[name_token].lower(),
            generic_map=tuple(generic_map),
            port_map=tuple(port_map),
        )

    def _parse_maps(
        self, label: str
    ) -> tuple[list[ast.GenericMapItem], list[ast.PortMapItem]]:
        generic_map: list[ast.GenericMapItem] = []
        port_map: list[ast.PortMapItem] = []
        if self.keys[self.pos] == "generic":
            self.pos += 1
            self._expect("map", "after 'generic'")
            self._expect("(", "after 'generic map'")
            while True:
                name, expr = self._parse_association()
                generic_map.append(
                    ast.GenericMapItem(
                        span=expr.span if expr is not None else self._span(self.pos),
                        name=name,
                        value=expr,
                    )
                )
                if self.keys[self.pos] != ",":
                    break
                self.pos += 1
            self._expect(")", "to close the generic map")
        if self.keys[self.pos] != "port":
            raise self._error(f"instantiation '{label}' is missing a port map")
        self.pos += 1
        self._expect("map", "after 'port'")
        self._expect("(", "after 'port map'")
        while True:
            name, expr = self._parse_association()
            span = expr.span if expr is not None else self._span(self.pos)
            port_map.append(ast.PortMapItem(span=span, port=name, expr=expr))
            if self.keys[self.pos] != ",":
                break
            self.pos += 1
        self._expect(")", "to close the port map")
        return generic_map, port_map

    def _parse_association(self) -> tuple[str | None, ast.Expression | None]:
        pos = self.pos
        if self.keys[pos] == "open":
            self.pos = pos + 1
            return None, None
        if self.keys[pos] is _IDENT and self._next_key() == "=>":
            name = self.texts[pos].lower()
            self.pos = pos + 2
            if self.keys[pos + 2] == "open":
                self.pos += 1
                return name, None
            return name, self.parse_expression()
        return None, self.parse_expression()

    # ------------------------------------------------------------------
    # sequential statements
    # ------------------------------------------------------------------

    def _parse_sequential_body(self, terminators: tuple[str, ...]) -> tuple:
        keys = self.keys
        statements: list[ast.SeqStatement] = []
        while not self._at_eof() and keys[self.pos] not in terminators:
            if keys[self.pos] in {"entity", "architecture"}:
                raise self._error(
                    "unterminated statement body (missing 'end'?)"
                )
            before = self.pos
            try:
                statements.append(self._parse_sequential_statement())
            except _ParseError:
                self._sync_to_semicolon()
                if keys[self.pos] in {"entity", "architecture"}:
                    raise
                if self.pos == before:
                    self._advance()  # recovery made no progress: force it
        return tuple(statements)

    def _parse_sequential_statement(self) -> ast.SeqStatement:
        skipped = self._skip_too_deep(self._skip_statement)
        if skipped is not None:
            return ast.NullStatement(span=skipped)
        depth = self._stmt_depth
        self._stmt_depth = depth + 1
        try:
            parse = self._STATEMENTS.get(self.keys[self.pos])
            if parse is None:
                raise self._error(
                    f"syntax error near {self._describe(self.pos)}: expected "
                    "a sequential statement"
                )
            return parse(self)
        finally:
            self._stmt_depth = depth

    def _skip_statement(self) -> None:
        """Consume one whole sequential statement without parsing it.

        ``if``, ``case`` and ``loop`` open a nesting level that ``end if``,
        ``end case`` and ``end loop`` close; the statement ends at a ``;``
        outside all of them. Stops before an ``end`` it did not open and
        before the next design unit.
        """
        keys = self.keys
        nesting = 0
        while not self._at_eof():
            key = keys[self.pos]
            if key in {"entity", "architecture"}:
                return
            if key == "end":
                if not nesting:
                    return
                nesting -= 1
                self.pos += 1
                if keys[self.pos] in {"if", "case", "loop"}:
                    self.pos += 1
                continue
            self.pos += 1
            if key in {"if", "case", "loop"}:
                nesting += 1
            elif key == ";" and not nesting:
                return

    def _parse_assignment(self) -> ast.SeqStatement:
        target = self._parse_target()
        pos = self.pos
        key = self.keys[pos]
        if key == "<=":
            self.pos = pos + 1
            value = self.parse_expression()
            after = self._parse_after()
            semi = self._expect(";", "after signal assignment")
            return ast.SignalAssign(
                span=target.span.merge(self._span(semi)),
                target=target,
                value=value,
                after=after,
            )
        if key == ":=":
            self.pos = pos + 1
            value = self.parse_expression()
            semi = self._expect(";", "after variable assignment")
            return ast.VariableAssign(
                span=target.span.merge(self._span(semi)),
                target=target,
                value=value,
            )
        raise self._error(
            f"syntax error near {self._describe(pos)}: expected '<=' or ':=' "
            "in assignment"
        )

    def _parse_target(self) -> ast.Expression:
        keys = self.keys
        name_token = self._expect_ident("as assignment target")
        name = self.texts[name_token].lower()
        if keys[self.pos] != "(":
            return ast.Name(span=self._span(name_token), name=name)
        self.pos += 1
        first = self.parse_expression()
        key = keys[self.pos]
        if key in {"downto", "to"}:
            self.pos += 1
            right = self.parse_expression()
            close = self._expect(")", "to close the slice")
            return ast.Sliced(
                span=self._span(name_token, close),
                name=name,
                left=first,
                right=right,
                descending=key == "downto",
            )
        close = self._expect(")", "to close the index")
        return ast.Indexed(
            span=self._span(name_token, close), name=name, index=first
        )

    def _parse_if(self) -> ast.IfStatement:
        keys = self.keys
        start = self._advance()  # 'if'
        arms: list[tuple[ast.Expression, tuple]] = []
        condition = self.parse_expression()
        self._expect("then", "after 'if' condition")
        body = self._parse_sequential_body(("elsif", "else", "end"))
        arms.append((condition, body))
        else_body: tuple = ()
        while keys[self.pos] == "elsif":
            self.pos += 1
            condition = self.parse_expression()
            self._expect("then", "after 'elsif' condition")
            body = self._parse_sequential_body(("elsif", "else", "end"))
            arms.append((condition, body))
        if keys[self.pos] == "else":
            self.pos += 1
            else_body = self._parse_sequential_body(("end",))
        end = self._expect("end", "to close the 'if' statement")
        self._expect("if", "after 'end'")
        self._expect(";", "after 'end if'")
        return ast.IfStatement(
            span=self._span(start, end), arms=tuple(arms), else_body=else_body
        )

    def _parse_case(self) -> ast.CaseStatement:
        keys = self.keys
        start = self._advance()  # 'case'
        subject = self.parse_expression()
        self._expect("is", "after the 'case' selector")
        alternatives: list[ast.CaseAlternative] = []
        while keys[self.pos] == "when":
            when_token = self._advance()
            if keys[self.pos] == "others":
                self.pos += 1
                choices: tuple = ()
            else:
                parsed = [self.parse_expression()]
                while keys[self.pos] == "|":
                    self.pos += 1
                    parsed.append(self.parse_expression())
                choices = tuple(parsed)
            self._expect("=>", "after the 'when' choices")
            body = self._parse_sequential_body(("when", "end"))
            alternatives.append(
                ast.CaseAlternative(
                    span=self._span(when_token), choices=choices, body=body
                )
            )
        end = self._expect("end", "to close the 'case' statement")
        self._expect("case", "after 'end'")
        self._expect(";", "after 'end case'")
        return ast.CaseStatement(
            span=self._span(start, end),
            subject=subject,
            alternatives=tuple(alternatives),
        )

    def _parse_for(self) -> ast.ForLoop:
        start = self._advance()  # 'for'
        var = self.texts[self._expect_ident("as the loop variable")].lower()
        self._expect("in", "after the loop variable")
        low = self.parse_expression()
        direction = self.keys[self.pos]
        if direction not in {"downto", "to"}:
            raise self._error("expected 'to' or 'downto' in for-loop range")
        self.pos += 1
        descending = direction == "downto"
        high = self.parse_expression()
        self._expect("loop", "to open the loop body")
        body = self._parse_sequential_body(("end",))
        end = self._expect("end", "to close the loop")
        self._expect("loop", "after 'end'")
        self._expect(";", "after 'end loop'")
        if descending:
            low, high = high, low
        return ast.ForLoop(
            span=self._span(start, end),
            var=var,
            low=low,
            high=high,
            descending=descending,
            body=body,
        )

    def _parse_while(self) -> ast.WhileLoop:
        start = self._advance()  # 'while'
        condition = self.parse_expression()
        self._expect("loop", "to open the loop body")
        body = self._parse_sequential_body(("end",))
        end = self._expect("end", "to close the loop")
        self._expect("loop", "after 'end'")
        self._expect(";", "after 'end loop'")
        return ast.WhileLoop(
            span=self._span(start, end), condition=condition, body=body
        )

    def _parse_bare_loop(self) -> ast.WhileLoop:
        start = self._advance()  # 'loop'
        body = self._parse_sequential_body(("end",))
        end = self._expect("end", "to close the loop")
        self._expect("loop", "after 'end'")
        self._expect(";", "after 'end loop'")
        true_expr = ast.Name(span=self._span(start), name="true")
        return ast.WhileLoop(
            span=self._span(start, end), condition=true_expr, body=body
        )

    def _parse_wait(self) -> ast.WaitStatement:
        start = self._advance()  # 'wait'
        on_signals: tuple[str, ...] = ()
        until = None
        for_time = None
        if self.keys[self.pos] == "on":
            self.pos += 1
            on_signals = tuple(
                self.texts[t].lower()
                for t in self._parse_ident_list("after 'wait on'")
            )
        if self.keys[self.pos] == "until":
            self.pos += 1
            until = self.parse_expression()
        if self.keys[self.pos] == "for":
            self.pos += 1
            for_time = self._parse_time_expression()
        semi = self._expect(";", "after 'wait'")
        return ast.WaitStatement(
            span=self._span(start, semi),
            on_signals=on_signals,
            until=until,
            for_time=for_time,
        )

    def _parse_assert(self) -> ast.AssertStatement:
        start = self._advance()  # 'assert'
        condition = self.parse_expression()
        message = None
        severity = "error"
        if self.keys[self.pos] == "report":
            self.pos += 1
            message = self.parse_expression()
        if self.keys[self.pos] == "severity":
            self.pos += 1
            severity = self._parse_severity()
        semi = self._expect(";", "after 'assert'")
        return ast.AssertStatement(
            span=self._span(start, semi),
            condition=condition,
            message=message,
            severity=severity,
        )

    def _parse_report(self) -> ast.ReportStatement:
        start = self._advance()  # 'report'
        message = self.parse_expression()
        severity = "note"
        if self.keys[self.pos] == "severity":
            self.pos += 1
            severity = self._parse_severity()
        semi = self._expect(";", "after 'report'")
        return ast.ReportStatement(
            span=self._span(start, semi), message=message, severity=severity
        )

    def _parse_null(self) -> ast.NullStatement:
        start = self._advance()  # 'null'
        semi = self._expect(";", "after 'null'")
        return ast.NullStatement(span=self._span(start, semi))

    def _parse_severity(self) -> str:
        pos = self.pos
        level = self.texts[pos].lower()
        if self.keys[pos] is _IDENT and level in _SEVERITIES:
            self.pos = pos + 1
            return level
        raise self._error(
            f"syntax error near {self._describe(pos)}: expected a severity level "
            "(note/warning/error/failure)"
        )

    #: sequential statement parsers by the key of the statement's first token
    _STATEMENTS = {
        _IDENT: _parse_assignment, "if": _parse_if, "case": _parse_case,
        "for": _parse_for, "while": _parse_while, "loop": _parse_bare_loop,
        "wait": _parse_wait, "assert": _parse_assert,
        "report": _parse_report, "null": _parse_null,
    }

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    #: binding power of each binary operator: logical, relational, adding,
    #: multiplying. All associate to the left except the relational ones,
    #: which do not chain (a relation compares two simple expressions).
    _BINARY_PREC = {
        "and": 1, "or": 1, "xor": 1, "nand": 1, "nor": 1, "xnor": 1,
        "=": 2, "/=": 2, "<": 2, "<=": 2, ">": 2, ">=": 2,
        "+": 3, "-": 3, "&": 3,
        "*": 4, "/": 4, "mod": 4, "rem": 4,
    }
    _RELATION = 2
    _TERM = 4

    def parse_expression(self) -> ast.Expression:
        start = self.pos
        depth = self._nest()
        try:
            expr = self._parse_binary(1)
        finally:
            self._depth = depth
        if not depth:
            self._check_tree(expr, start, ast.Node)
        return expr

    def _parse_binary(self, min_prec: int) -> ast.Expression:
        """Precedence climbing: fold operators binding at least ``min_prec``."""
        keys = self.keys
        pos = self.pos
        sign = keys[pos]
        if min_prec < self._TERM and (sign == "-" or sign == "+"):
            # a sign starts a simple expression and binds its first term
            self.pos = pos + 1
            operand = self._parse_binary(self._TERM)
            lhs = ast.Unary(
                span=self._span_to(pos, operand), op=sign, operand=operand
            )
        else:
            lhs = self._parse_factor()
        folded = self._TERM + 1  # binding power of lhs's top operator
        binding = self._BINARY_PREC.get
        while True:
            key = keys[self.pos]
            prec = binding(key, 0)
            if prec < min_prec or (prec == self._RELATION and folded <= prec):
                return lhs
            self.pos += 1
            rhs = self._parse_binary(prec + 1)
            lhs = ast.Binary(lhs.span.merge(rhs.span), key, lhs, rhs)
            folded = prec

    def _parse_factor(self) -> ast.Expression:
        pos = self.pos
        op = self.keys[pos]
        if op == "not" or op == "abs":
            depth = self._nest()
            self.pos = pos + 1
            operand = self._parse_factor()
            self._depth = depth
            return ast.Unary(span=self._span_to(pos, operand), op=op, operand=operand)
        parse = self._PRIMARIES.get(op)
        primary = parse(self) if parse is not None else self._parse_primary()
        if self.keys[self.pos] == "**":
            self.pos += 1
            rhs = self._parse_primary()
            return ast.Binary(
                span=primary.span.merge(rhs.span), op="**", lhs=primary, rhs=rhs
            )
        return primary

    def _parse_primary(self) -> ast.Expression:
        parse = self._PRIMARIES.get(self.keys[self.pos])
        if parse is None:
            raise self._error(
                f"syntax error near {self._describe(self.pos)}: "
                "expected an expression"
            )
        return parse(self)

    def _parse_integer(self) -> ast.IntLiteral:
        pos = self._advance()
        text = self.texts[pos].replace("_", "")
        if "." in text:
            raise self._error("real literals are not supported", pos)
        return ast.IntLiteral(self._span(pos), int(text))

    def _parse_char(self) -> ast.CharLiteral:
        pos = self._advance()
        return ast.CharLiteral(span=self._span(pos), value=self.texts[pos][1:-1])

    def _parse_string(self) -> ast.StringLiteral:
        pos = self._advance()
        return ast.StringLiteral(
            span=self._span(pos), value=self.texts[pos][1:-1]
        )

    def _parse_bit_string(self) -> ast.StringLiteral:
        pos = self._advance()
        text = self.texts[pos]
        return ast.StringLiteral(
            span=self._span(pos), value=text[2:-1], base=text[0].lower()
        )

    def _parse_stray_others(self) -> ast.Expression:
        # bare (others => ...) handled in aggregates; here it's an error
        raise self._error("'others' is only valid inside an aggregate", self.pos)

    def _parse_paren_or_aggregate(self) -> ast.Expression:
        keys = self.keys
        open_token = self._advance()  # '('
        if keys[self.pos] == "others":
            self.pos += 1
            self._expect("=>", "after 'others'")
            value = self.parse_expression()
            close = self._expect(")", "to close the aggregate")
            return ast.Aggregate(
                span=self._span(open_token, close), others=value
            )
        first = self.parse_expression()
        if keys[self.pos] != ",":
            self._expect(")", "to close the parenthesized expression")
            return first
        elements: list[tuple[ast.Expression | None, ast.Expression]] = [
            (None, first)
        ]
        others = None
        while keys[self.pos] == ",":
            self.pos += 1
            if keys[self.pos] == "others":
                self.pos += 1
                self._expect("=>", "after 'others'")
                others = self.parse_expression()
            else:
                elements.append((None, self.parse_expression()))
        close = self._expect(")", "to close the aggregate")
        return ast.Aggregate(
            span=self._span(open_token, close),
            others=others,
            elements=tuple(elements),
        )

    def _parse_name(self) -> ast.Expression:
        keys = self.keys
        name_token = self._advance()
        name = self.texts[name_token].lower()
        result: ast.Expression
        if (keys[self.pos] == "'" and keys[self.pos + 1] == "("
                and (name in _QUALIFIED_CONVERSIONS
                     or name in _QUALIFIED_SCALARS)):
            return self._parse_qualified(name_token, name)
        if keys[self.pos] == "(":
            self.pos += 1
            first = self.parse_expression()
            key = keys[self.pos]
            if key in {"downto", "to"}:
                self.pos += 1
                right = self.parse_expression()
                close = self._expect(")", "to close the slice")
                result = ast.Sliced(
                    span=self._span(name_token, close),
                    name=name,
                    left=first,
                    right=right,
                    descending=key == "downto",
                )
            elif key == ",":
                args = [first]
                while keys[self.pos] == ",":
                    self.pos += 1
                    args.append(self.parse_expression())
                close = self._expect(")", "to close the call")
                result = ast.Call(
                    span=self._span(name_token, close),
                    name=name,
                    args=tuple(args),
                )
            else:
                close = self._expect(")", "to close the index or call")
                if name in KNOWN_FUNCTIONS:
                    result = ast.Call(
                        span=self._span(name_token, close),
                        name=name,
                        args=(first,),
                    )
                else:
                    result = ast.Indexed(
                        span=self._span(name_token, close),
                        name=name,
                        index=first,
                    )
        else:
            result = ast.Name(self._span(name_token), name)
        # attribute: clk'event, vec'length ...
        while (keys[self.pos] == "'"
               and self.kinds[self.pos + 1] in _ATTRIBUTE_NAMES):
            attr = self.texts[self.pos + 1].lower()
            self.pos += 2
            result = ast.Attribute(
                span=self._span(name_token), name=name, attr=attr
            )
        return result

    def _parse_qualified(self, name_token: int, name: str) -> ast.Expression:
        """``type_mark'(expression)``, the tick next: a conversion's tree
        for a vector type mark, else the operand itself."""
        self.pos += 1  # the tick
        operand = self._parse_paren_or_aggregate()
        if name in _QUALIFIED_SCALARS:
            return operand
        return ast.Call(
            span=self._span(name_token, self.pos - 1), name=name,
            args=(operand,),
        )

    #: primary parsers by the key of the primary's first token
    _PRIMARIES = {
        _IDENT: _parse_name, TokenKind.NUMBER: _parse_integer,
        TokenKind.CHAR: _parse_char, TokenKind.STRING: _parse_string,
        TokenKind.BASED_NUMBER: _parse_bit_string,
        "(": _parse_paren_or_aggregate, "others": _parse_stray_others,
    }


def parse_vhdl(
    text: str,
    *,
    name: str = "design.vhd",
    collector: DiagnosticCollector | None = None,
) -> tuple[ast.DesignFile, DiagnosticCollector]:
    """Parse VHDL source text; returns the AST and the diagnostics."""
    collector = collector if collector is not None else DiagnosticCollector()
    source = SourceFile(name=name, text=text)
    parser = VhdlParser(source, collector)
    return parser.parse_design_file(), collector
