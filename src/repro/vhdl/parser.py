"""Recursive-descent VHDL parser with error recovery.

Same philosophy as the Verilog parser: diagnostics (``VRFC``-style codes as
``xvhdl`` reports them) plus resynchronization to the next ``;`` so multiple
errors surface in one compile — the raw material of the Review Agent's
corrective prompts.
"""

from __future__ import annotations

from repro.hdl.cursor import ParseError as _ParseError
from repro.hdl.cursor import TokenCursor
from repro.hdl.cursor import describe as _describe
from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.source import SourceFile, SourceSpan
from repro.hdl.tokens import Token, TokenKind
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

_SEVERITIES = ("note", "warning", "error", "failure")


class VhdlParser(TokenCursor):
    """Parses a token stream into a :class:`repro.vhdl.ast.DesignFile`."""

    def __init__(self, source: SourceFile, collector: DiagnosticCollector):
        super().__init__(
            source, collector, VhdlLexer(source, collector).tokenize()
        )

    def _sync_to_semicolon(self) -> None:
        depth = 0
        while not self._at_eof():
            token = self._peek()
            if token.is_op("("):
                depth += 1
            elif token.is_op(")"):
                depth = max(0, depth - 1)
            elif depth == 0 and token.is_op(";"):
                self._advance()
                return
            elif depth == 0 and token.is_kw(
                "end", "begin", "entity", "architecture", "process"
            ):
                return
            self._advance()

    # ------------------------------------------------------------------
    # design file
    # ------------------------------------------------------------------

    def parse_design_file(self) -> ast.DesignFile:
        entities: list[ast.Entity] = []
        architectures: list[ast.Architecture] = []
        start = self._peek().span
        while not self._at_eof():
            token = self._peek()
            try:
                if token.is_kw("library", "use"):
                    self._skip_context_clause()
                elif token.is_kw("entity"):
                    entity = self._parse_entity()
                    if entity is not None:
                        entities.append(entity)
                elif token.is_kw("architecture"):
                    arch = self._parse_architecture()
                    if arch is not None:
                        architectures.append(arch)
                elif token.is_kw("package", "configuration"):
                    self.collector.error(
                        self._CODE_UNSUPPORTED,
                        f"unsupported design unit '{token.text}'",
                        source=self.source,
                        span=token.span,
                    )
                    self._skip_design_unit()
                else:
                    raise self._error(
                        f"syntax error near {_describe(token)}: expected a "
                        "design unit (entity/architecture)"
                    )
            except _ParseError:
                self._sync_to_semicolon()
                if self._peek() is token and not self._at_eof():
                    self._advance()
        end = self._peek().span
        return ast.DesignFile(
            span=start.merge(end),
            entities=tuple(entities),
            architectures=tuple(architectures),
        )

    def _skip_context_clause(self) -> None:
        while not self._at_eof() and not self._peek().is_op(";"):
            self._advance()
        if self._peek().is_op(";"):
            self._advance()

    def _skip_design_unit(self) -> None:
        while not self._at_eof() and not self._peek().is_kw(
            "entity", "architecture", "library", "use"
        ):
            self._advance()

    # ------------------------------------------------------------------
    # entity
    # ------------------------------------------------------------------

    def _parse_entity(self) -> ast.Entity | None:
        start = self._advance()  # 'entity'
        name = self._expect_ident("after 'entity'").text.lower()
        self._expect_keyword("is", f"after entity name '{name}'")
        generics: list[ast.GenericDecl] = []
        ports: list[ast.PortDecl] = []
        if self._peek().is_kw("generic"):
            generics = self._parse_generic_clause()
        if self._peek().is_kw("port"):
            ports = self._parse_port_clause()
        end = self._expect_keyword("end", f"to close entity '{name}'")
        if self._peek().is_kw("entity"):
            self._advance()
        if self._peek().kind is TokenKind.IDENT:
            closing = self._advance().text.lower()
            if closing != name:
                self.collector.error(
                    self._CODE_SYNTAX,
                    f"entity name mismatch: 'end {closing}' closes entity "
                    f"'{name}'",
                    source=self.source,
                    span=end.span,
                )
        self._expect_punct(";", f"after 'end' of entity '{name}'")
        return ast.Entity(
            span=start.span.merge(end.span),
            name=name,
            generics=tuple(generics),
            ports=tuple(ports),
        )

    def _parse_generic_clause(self) -> list[ast.GenericDecl]:
        self._advance()  # 'generic'
        self._expect_punct("(", "after 'generic'")
        generics: list[ast.GenericDecl] = []
        while True:
            names = self._parse_ident_list("in generic declaration")
            self._expect_punct(":", "after generic name")
            type_mark = self._parse_type_mark()
            default = None
            if self._peek().is_op(":="):
                self._advance()
                default = self.parse_expression()
            for name_token in names:
                generics.append(
                    ast.GenericDecl(
                        span=name_token.span,
                        name=name_token.text.lower(),
                        type_mark=type_mark,
                        default=default,
                    )
                )
            if self._peek().is_op(";"):
                self._advance()
                continue
            break
        self._expect_punct(")", "to close the generic clause")
        self._expect_punct(";", "after the generic clause")
        return generics

    def _parse_port_clause(self) -> list[ast.PortDecl]:
        self._advance()  # 'port'
        self._expect_punct("(", "after 'port'")
        ports: list[ast.PortDecl] = []
        while True:
            names = self._parse_ident_list("in port declaration")
            self._expect_punct(":", "after port name")
            direction_token = self._peek()
            if direction_token.is_kw("in", "out", "inout", "buffer"):
                self._advance()
                direction = direction_token.text
            else:
                direction = "in"
                self.collector.error(
                    self._CODE_SYNTAX,
                    f"missing port direction before "
                    f"{_describe(direction_token)}; assuming 'in'",
                    source=self.source,
                    span=direction_token.span,
                )
            type_mark = self._parse_type_mark()
            for name_token in names:
                ports.append(
                    ast.PortDecl(
                        span=name_token.span,
                        name=name_token.text.lower(),
                        direction=direction,
                        type_mark=type_mark,
                    )
                )
            if self._peek().is_op(";"):
                self._advance()
                continue
            break
        self._expect_punct(")", "to close the port clause")
        self._expect_punct(";", "after the port clause")
        return ports

    def _parse_ident_list(self, context: str) -> list[Token]:
        names = [self._expect_ident(context)]
        while self._peek().is_op(","):
            self._advance()
            names.append(self._expect_ident(context))
        return names

    def _parse_type_mark(self) -> ast.TypeMark:
        name_token = self._expect_ident("as a type name")
        name = name_token.text.lower()
        left = right = None
        descending = True
        if self._peek().is_op("("):
            self._advance()
            left = self.parse_expression()
            token = self._peek()
            if token.is_kw("downto"):
                self._advance()
            elif token.is_kw("to"):
                self._advance()
                descending = False
            else:
                raise self._error(
                    f"syntax error near {_describe(token)}: expected 'downto' "
                    "or 'to' in range constraint"
                )
            right = self.parse_expression()
            self._expect_punct(")", "to close the range constraint")
        elif self._peek().is_kw("range"):
            # integer range N to M — parsed, only the base type is used
            self._advance()
            self.parse_expression()
            if self._peek().is_kw("to", "downto"):
                self._advance()
                self.parse_expression()
        return ast.TypeMark(
            span=name_token.span, name=name, left=left, right=right,
            descending=descending,
        )

    # ------------------------------------------------------------------
    # architecture
    # ------------------------------------------------------------------

    def _parse_architecture(self) -> ast.Architecture | None:
        start = self._advance()  # 'architecture'
        name = self._expect_ident("after 'architecture'").text.lower()
        self._expect_keyword("of", f"after architecture name '{name}'")
        entity = self._expect_ident("as the entity name").text.lower()
        self._expect_keyword("is", "after the entity name")
        declarations: list = []
        while not self._at_eof() and not self._peek().is_kw("begin"):
            before = self.pos
            try:
                decl = self._parse_arch_declaration()
                if decl is not None:
                    declarations.extend(decl)
            except _ParseError:
                self._sync_to_semicolon()
                if self._peek().is_kw("entity", "architecture"):
                    return None
                if self.pos == before:
                    self._advance()  # recovery made no progress: force it
        self._expect_keyword("begin", f"in architecture '{name}'")
        statements: list[ast.ConcurrentStatement] = []
        while not self._at_eof() and not self._peek().is_kw("end"):
            if self._peek().is_kw("entity", "architecture"):
                self.collector.error(
                    self._CODE_SYNTAX,
                    f"missing 'end' for architecture '{name}'",
                    source=self.source,
                    span=self._peek().span,
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
        end = self._peek()
        if end.is_kw("end"):
            self._advance()
            if self._peek().is_kw("architecture"):
                self._advance()
            if self._peek().kind is TokenKind.IDENT:
                self._advance()
            try:
                self._expect_punct(";", f"after 'end' of architecture '{name}'")
            except _ParseError:
                self._sync_to_semicolon()
        return ast.Architecture(
            span=start.span.merge(end.span),
            name=name,
            entity=entity,
            declarations=tuple(declarations),
            statements=tuple(statements),
        )

    def _parse_arch_declaration(self) -> list | None:
        token = self._peek()
        if token.is_kw("signal"):
            self._advance()
            names = self._parse_ident_list("in signal declaration")
            self._expect_punct(":", "after signal name")
            type_mark = self._parse_type_mark()
            init = None
            if self._peek().is_op(":="):
                self._advance()
                init = self.parse_expression()
            self._expect_punct(";", "after signal declaration")
            return [
                ast.SignalDecl(
                    span=n.span, name=n.text.lower(), type_mark=type_mark, init=init
                )
                for n in names
            ]
        if token.is_kw("constant"):
            self._advance()
            names = self._parse_ident_list("in constant declaration")
            self._expect_punct(":", "after constant name")
            type_mark = self._parse_type_mark()
            self._expect_punct(":=", "in constant declaration")
            value = self.parse_expression()
            self._expect_punct(";", "after constant declaration")
            return [
                ast.ConstantDecl(
                    span=n.span, name=n.text.lower(), type_mark=type_mark, value=value
                )
                for n in names
            ]
        if token.is_kw("component"):
            # component declarations are tolerated and skipped; instantiation
            # binds directly to the entity of the same name.
            self._advance()
            while not self._at_eof() and not self._peek().is_kw("component"):
                if self._peek().is_kw("begin", "architecture"):
                    raise self._error("unterminated component declaration", token)
                self._advance()
            self._expect_keyword("component", "to close the component declaration")
            self._expect_punct(";", "after 'end component'")
            return None
        if token.is_kw("end"):
            # tolerated here so the caller's `begin` expectation reports it
            raise self._error(
                f"syntax error near {_describe(token)}: expected 'begin' or a "
                "declaration"
            )
        if token.is_kw("type", "subtype", "function", "procedure", "attribute"):
            self.collector.error(
                self._CODE_UNSUPPORTED,
                f"unsupported declaration '{token.text}'",
                source=self.source,
                span=token.span,
            )
            raise _ParseError(token.text)
        raise self._error(
            f"syntax error near {_describe(token)}: expected a declaration "
            "(signal/constant) or 'begin'"
        )

    # ------------------------------------------------------------------
    # concurrent statements
    # ------------------------------------------------------------------

    def _parse_concurrent_statement(self) -> ast.ConcurrentStatement | None:
        token = self._peek()
        if token.is_kw("process"):
            return self._parse_process("")
        if token.is_kw("with"):
            return self._parse_selected_assign()
        if token.kind is TokenKind.IDENT and self._peek(1).is_op(":"):
            label = self._advance().text.lower()
            self._advance()  # ':'
            after_label = self._peek()
            if after_label.is_kw("process"):
                return self._parse_process(label)
            if after_label.is_kw("entity"):
                return self._parse_entity_instantiation(label)
            if after_label.kind is TokenKind.IDENT and self._peek(1).is_kw(
                "port", "generic"
            ):
                # component-style instantiation binds to the same-named entity
                return self._parse_component_instantiation(label)
            raise self._error(
                f"syntax error near {_describe(after_label)}: expected "
                f"'process' or an instantiation after label '{label}'"
            )
        if token.kind is TokenKind.IDENT or token.is_op("("):
            return self._parse_concurrent_assign()
        raise self._error(
            f"syntax error near {_describe(token)}: expected a concurrent "
            "statement"
        )

    def _parse_concurrent_assign(self) -> ast.ConcurrentStatement:
        target = self._parse_target()
        self._expect_punct("<=", "in signal assignment")
        first = self.parse_expression()
        after = self._parse_after()
        if not self._peek().is_kw("when"):
            semi = self._expect_punct(";", "after signal assignment")
            return ast.ConcurrentAssign(
                span=_span(target).merge(semi.span),
                target=target,
                value=first,
                after=after,
            )
        arms: list[tuple[ast.Expression, ast.Expression]] = []
        value = first
        while self._peek().is_kw("when"):
            self._advance()
            condition = self.parse_expression()
            arms.append((value, condition))
            self._expect_keyword("else", "in conditional signal assignment")
            value = self.parse_expression()
        semi = self._expect_punct(";", "after conditional signal assignment")
        return ast.ConditionalAssign(
            span=_span(target).merge(semi.span),
            target=target,
            arms=tuple(arms),
            otherwise=value,
            after=after,
        )

    def _parse_after(self) -> ast.Expression | None:
        if not self._peek().is_kw("after"):
            return None
        self._advance()
        return self._parse_time_expression()

    def _parse_time_expression(self) -> ast.Expression:
        """A time value; normalized to integer nanoseconds."""
        value = self.parse_expression()
        unit_token = self._peek()
        scale = {"fs": 0, "ps": 0, "ns": 1, "us": 1000, "ms": 1_000_000}
        if unit_token.kind is TokenKind.IDENT and unit_token.text.lower() in scale:
            unit = self._advance().text.lower()
            factor = scale[unit]
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
        self._expect_keyword("select", "after the selector expression")
        target = self._parse_target()
        self._expect_punct("<=", "in selected signal assignment")
        arms: list[tuple[ast.Expression, tuple[ast.Expression, ...]]] = []
        otherwise: ast.Expression | None = None
        while True:
            value = self.parse_expression()
            self._expect_keyword("when", "in selected signal assignment")
            if self._peek().is_kw("others"):
                self._advance()
                otherwise = value
            else:
                choices = [self.parse_expression()]
                while self._peek().is_op("|"):
                    self._advance()
                    choices.append(self.parse_expression())
                arms.append((value, tuple(choices)))
            if self._peek().is_op(","):
                self._advance()
                continue
            break
        semi = self._expect_punct(";", "after selected signal assignment")
        return ast.SelectedAssign(
            span=start.span.merge(semi.span),
            selector=selector,
            target=target,
            arms=tuple(arms),
            otherwise=otherwise,
        )

    def _parse_process(self, label: str) -> ast.ProcessStatement:
        start = self._advance()  # 'process'
        sensitivity: list[str] = []
        if self._peek().is_op("("):
            self._advance()
            if self._peek().is_kw("all"):
                self._advance()
                sensitivity = ["all"]
            else:
                sensitivity = [
                    t.text.lower()
                    for t in self._parse_ident_list("in sensitivity list")
                ]
            self._expect_punct(")", "to close the sensitivity list")
        if self._peek().is_kw("is"):
            self._advance()
        declarations: list[ast.VariableDecl] = []
        while not self._at_eof() and not self._peek().is_kw("begin"):
            token = self._peek()
            if token.is_kw("variable"):
                self._advance()
                names = self._parse_ident_list("in variable declaration")
                self._expect_punct(":", "after variable name")
                type_mark = self._parse_type_mark()
                init = None
                if self._peek().is_op(":="):
                    self._advance()
                    init = self.parse_expression()
                self._expect_punct(";", "after variable declaration")
                declarations.extend(
                    ast.VariableDecl(
                        span=n.span,
                        name=n.text.lower(),
                        type_mark=type_mark,
                        init=init,
                    )
                    for n in names
                )
            elif token.is_kw("constant"):
                self._advance()
                names = self._parse_ident_list("in constant declaration")
                self._expect_punct(":", "after constant name")
                type_mark = self._parse_type_mark()
                self._expect_punct(":=", "in constant declaration")
                value = self.parse_expression()
                self._expect_punct(";", "after constant declaration")
                declarations.extend(
                    ast.VariableDecl(
                        span=n.span, name=n.text.lower(), type_mark=type_mark,
                        init=value,
                    )
                    for n in names
                )
            else:
                raise self._error(
                    f"syntax error near {_describe(token)}: expected 'begin' "
                    "or a variable declaration in process"
                )
        self._expect_keyword("begin", "in process")
        body = self._parse_sequential_body(("end",))
        self._expect_keyword("end", "to close the process")
        self._expect_keyword("process", "after 'end'")
        if self._peek().kind is TokenKind.IDENT:
            self._advance()
        semi = self._expect_punct(";", "after 'end process'")
        return ast.ProcessStatement(
            span=start.span.merge(semi.span),
            label=label,
            sensitivity=tuple(sensitivity),
            declarations=tuple(declarations),
            body=body,
        )

    def _parse_entity_instantiation(self, label: str) -> ast.EntityInstantiation:
        start = self._advance()  # 'entity'
        first = self._expect_ident("after 'entity'")
        entity_name = first.text.lower()
        if self._peek().is_op("."):
            self._advance()
            entity_name = self._expect_ident("after library name").text.lower()
        generic_map, port_map = self._parse_maps(label)
        semi = self._expect_punct(";", f"after instantiation '{label}'")
        return ast.EntityInstantiation(
            span=start.span.merge(semi.span),
            label=label,
            entity=entity_name,
            generic_map=tuple(generic_map),
            port_map=tuple(port_map),
        )

    def _parse_component_instantiation(self, label: str) -> ast.EntityInstantiation:
        name_token = self._advance()
        generic_map, port_map = self._parse_maps(label)
        semi = self._expect_punct(";", f"after instantiation '{label}'")
        return ast.EntityInstantiation(
            span=name_token.span.merge(semi.span),
            label=label,
            entity=name_token.text.lower(),
            generic_map=tuple(generic_map),
            port_map=tuple(port_map),
        )

    def _parse_maps(
        self, label: str
    ) -> tuple[list[ast.GenericMapItem], list[ast.PortMapItem]]:
        generic_map: list[ast.GenericMapItem] = []
        port_map: list[ast.PortMapItem] = []
        if self._peek().is_kw("generic"):
            self._advance()
            self._expect_keyword("map", "after 'generic'")
            self._expect_punct("(", "after 'generic map'")
            while True:
                name, expr = self._parse_association()
                generic_map.append(
                    ast.GenericMapItem(
                        span=_span(expr) if expr is not None else self._peek().span,
                        name=name,
                        value=expr,
                    )
                )
                if self._peek().is_op(","):
                    self._advance()
                    continue
                break
            self._expect_punct(")", "to close the generic map")
        if self._peek().is_kw("port"):
            self._advance()
            self._expect_keyword("map", "after 'port'")
            self._expect_punct("(", "after 'port map'")
            while True:
                name, expr = self._parse_association()
                span = _span(expr) if expr is not None else self._peek().span
                port_map.append(ast.PortMapItem(span=span, port=name, expr=expr))
                if self._peek().is_op(","):
                    self._advance()
                    continue
                break
            self._expect_punct(")", "to close the port map")
        else:
            raise self._error(f"instantiation '{label}' is missing a port map")
        return generic_map, port_map

    def _parse_association(self) -> tuple[str | None, ast.Expression | None]:
        if self._peek().is_kw("open"):
            token = self._advance()
            return None, None
        if (
            self._peek().kind is TokenKind.IDENT
            and self._peek(1).is_op("=>")
        ):
            name = self._advance().text.lower()
            self._advance()  # '=>'
            if self._peek().is_kw("open"):
                self._advance()
                return name, None
            return name, self.parse_expression()
        return None, self.parse_expression()

    # ------------------------------------------------------------------
    # sequential statements
    # ------------------------------------------------------------------

    def _parse_sequential_body(self, terminators: tuple[str, ...]) -> tuple:
        statements: list[ast.SeqStatement] = []
        while not self._at_eof() and not self._peek().is_kw(*terminators):
            if self._peek().is_kw("entity", "architecture"):
                raise self._error(
                    "unterminated statement body (missing 'end'?)"
                )
            before = self.pos
            try:
                statements.append(self._parse_sequential_statement())
            except _ParseError:
                self._sync_to_semicolon()
                if self._peek().is_kw("entity", "architecture"):
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
            token = self.tokens[self.pos]
            if token.kind is TokenKind.IDENT:
                return self._parse_assignment()
            if token.is_kw("if"):
                return self._parse_if()
            if token.is_kw("case"):
                return self._parse_case()
            if token.is_kw("for"):
                return self._parse_for()
            if token.is_kw("while"):
                return self._parse_while()
            if token.is_kw("loop"):
                return self._parse_bare_loop()
            if token.is_kw("wait"):
                return self._parse_wait()
            if token.is_kw("assert"):
                return self._parse_assert()
            if token.is_kw("report"):
                return self._parse_report()
            if token.is_kw("null"):
                self._advance()
                semi = self._expect_punct(";", "after 'null'")
                return ast.NullStatement(span=token.span.merge(semi.span))
            raise self._error(
                f"syntax error near {_describe(token)}: expected a sequential "
                "statement"
            )
        finally:
            self._stmt_depth = depth

    def _skip_statement(self) -> None:
        """Consume one whole sequential statement without parsing it.

        ``if``, ``case`` and ``loop`` open a nesting level that ``end if``,
        ``end case`` and ``end loop`` close; the statement ends at a ``;``
        outside all of them. Stops before an ``end`` it did not open and
        before the next design unit.
        """
        nesting = 0
        while not self._at_eof():
            token = self._peek()
            if token.is_kw("entity", "architecture"):
                return
            if token.is_kw("end"):
                if not nesting:
                    return
                nesting -= 1
                self._advance()
                if self._peek().is_kw("if", "case", "loop"):
                    self._advance()
                continue
            self._advance()
            if token.is_kw("if", "case", "loop"):
                nesting += 1
            elif token.is_op(";") and not nesting:
                return

    def _parse_assignment(self) -> ast.SeqStatement:
        target = self._parse_target()
        token = self._peek()
        if token.is_op("<="):
            self._advance()
            value = self.parse_expression()
            after = self._parse_after()
            semi = self._expect_punct(";", "after signal assignment")
            return ast.SignalAssign(
                span=_span(target).merge(semi.span),
                target=target,
                value=value,
                after=after,
            )
        if token.is_op(":="):
            self._advance()
            value = self.parse_expression()
            semi = self._expect_punct(";", "after variable assignment")
            return ast.VariableAssign(
                span=_span(target).merge(semi.span), target=target, value=value
            )
        raise self._error(
            f"syntax error near {_describe(token)}: expected '<=' or ':=' "
            "in assignment"
        )

    def _parse_target(self) -> ast.Expression:
        name_token = self._expect_ident("as assignment target")
        name = name_token.text.lower()
        if self._peek().is_op("("):
            self._advance()
            first = self.parse_expression()
            if self._peek().is_kw("downto", "to"):
                descending = self._advance().text == "downto"
                right = self.parse_expression()
                close = self._expect_punct(")", "to close the slice")
                return ast.Sliced(
                    span=name_token.span.merge(close.span),
                    name=name,
                    left=first,
                    right=right,
                    descending=descending,
                )
            close = self._expect_punct(")", "to close the index")
            return ast.Indexed(
                span=name_token.span.merge(close.span), name=name, index=first
            )
        return ast.Name(span=name_token.span, name=name)

    def _parse_if(self) -> ast.IfStatement:
        start = self._advance()  # 'if'
        arms: list[tuple[ast.Expression, tuple]] = []
        condition = self.parse_expression()
        self._expect_keyword("then", "after 'if' condition")
        body = self._parse_sequential_body(("elsif", "else", "end"))
        arms.append((condition, body))
        else_body: tuple = ()
        while self._peek().is_kw("elsif"):
            self._advance()
            condition = self.parse_expression()
            self._expect_keyword("then", "after 'elsif' condition")
            body = self._parse_sequential_body(("elsif", "else", "end"))
            arms.append((condition, body))
        if self._peek().is_kw("else"):
            self._advance()
            else_body = self._parse_sequential_body(("end",))
        end = self._expect_keyword("end", "to close the 'if' statement")
        self._expect_keyword("if", "after 'end'")
        self._expect_punct(";", "after 'end if'")
        return ast.IfStatement(
            span=start.span.merge(end.span), arms=tuple(arms), else_body=else_body
        )

    def _parse_case(self) -> ast.CaseStatement:
        start = self._advance()  # 'case'
        subject = self.parse_expression()
        self._expect_keyword("is", "after the 'case' selector")
        alternatives: list[ast.CaseAlternative] = []
        while self._peek().is_kw("when"):
            when_token = self._advance()
            if self._peek().is_kw("others"):
                self._advance()
                choices: tuple = ()
            else:
                parsed = [self.parse_expression()]
                while self._peek().is_op("|"):
                    self._advance()
                    parsed.append(self.parse_expression())
                choices = tuple(parsed)
            self._expect_punct("=>", "after the 'when' choices")
            body = self._parse_sequential_body(("when", "end"))
            alternatives.append(
                ast.CaseAlternative(span=when_token.span, choices=choices, body=body)
            )
        end = self._expect_keyword("end", "to close the 'case' statement")
        self._expect_keyword("case", "after 'end'")
        self._expect_punct(";", "after 'end case'")
        return ast.CaseStatement(
            span=start.span.merge(end.span),
            subject=subject,
            alternatives=tuple(alternatives),
        )

    def _parse_for(self) -> ast.ForLoop:
        start = self._advance()  # 'for'
        var = self._expect_ident("as the loop variable").text.lower()
        self._expect_keyword("in", "after the loop variable")
        low = self.parse_expression()
        descending = False
        if self._peek().is_kw("to"):
            self._advance()
        elif self._peek().is_kw("downto"):
            self._advance()
            descending = True
        else:
            raise self._error("expected 'to' or 'downto' in for-loop range")
        high = self.parse_expression()
        self._expect_keyword("loop", "to open the loop body")
        body = self._parse_sequential_body(("end",))
        end = self._expect_keyword("end", "to close the loop")
        self._expect_keyword("loop", "after 'end'")
        self._expect_punct(";", "after 'end loop'")
        if descending:
            low, high = high, low
        return ast.ForLoop(
            span=start.span.merge(end.span),
            var=var,
            low=low,
            high=high,
            descending=descending,
            body=body,
        )

    def _parse_while(self) -> ast.WhileLoop:
        start = self._advance()  # 'while'
        condition = self.parse_expression()
        self._expect_keyword("loop", "to open the loop body")
        body = self._parse_sequential_body(("end",))
        end = self._expect_keyword("end", "to close the loop")
        self._expect_keyword("loop", "after 'end'")
        self._expect_punct(";", "after 'end loop'")
        return ast.WhileLoop(
            span=start.span.merge(end.span), condition=condition, body=body
        )

    def _parse_bare_loop(self) -> ast.WhileLoop:
        start = self._advance()  # 'loop'
        body = self._parse_sequential_body(("end",))
        end = self._expect_keyword("end", "to close the loop")
        self._expect_keyword("loop", "after 'end'")
        self._expect_punct(";", "after 'end loop'")
        true_expr = ast.Name(span=start.span, name="true")
        return ast.WhileLoop(
            span=start.span.merge(end.span), condition=true_expr, body=body
        )

    def _parse_wait(self) -> ast.WaitStatement:
        start = self._advance()  # 'wait'
        on_signals: tuple[str, ...] = ()
        until = None
        for_time = None
        if self._peek().is_kw("on"):
            self._advance()
            on_signals = tuple(
                t.text.lower() for t in self._parse_ident_list("after 'wait on'")
            )
        if self._peek().is_kw("until"):
            self._advance()
            until = self.parse_expression()
        if self._peek().is_kw("for"):
            self._advance()
            for_time = self._parse_time_expression()
        semi = self._expect_punct(";", "after 'wait'")
        return ast.WaitStatement(
            span=start.span.merge(semi.span),
            on_signals=on_signals,
            until=until,
            for_time=for_time,
        )

    def _parse_assert(self) -> ast.AssertStatement:
        start = self._advance()  # 'assert'
        condition = self.parse_expression()
        message = None
        severity = "error"
        if self._peek().is_kw("report"):
            self._advance()
            message = self.parse_expression()
        if self._peek().is_kw("severity"):
            self._advance()
            severity = self._parse_severity()
        semi = self._expect_punct(";", "after 'assert'")
        return ast.AssertStatement(
            span=start.span.merge(semi.span),
            condition=condition,
            message=message,
            severity=severity,
        )

    def _parse_report(self) -> ast.ReportStatement:
        start = self._advance()  # 'report'
        message = self.parse_expression()
        severity = "note"
        if self._peek().is_kw("severity"):
            self._advance()
            severity = self._parse_severity()
        semi = self._expect_punct(";", "after 'report'")
        return ast.ReportStatement(
            span=start.span.merge(semi.span), message=message, severity=severity
        )

    def _parse_severity(self) -> str:
        token = self._peek()
        if token.kind is TokenKind.IDENT and token.text.lower() in _SEVERITIES:
            return self._advance().text.lower()
        raise self._error(
            f"syntax error near {_describe(token)}: expected a severity level "
            "(note/warning/error/failure)"
        )

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
        token = self.tokens[self.pos]
        if min_prec < self._TERM and token.is_op("-", "+"):
            # a sign starts a simple expression and binds its first term
            self._advance()
            operand = self._parse_binary(self._TERM)
            lhs = ast.Unary(
                span=token.span.merge(operand.span), op=token.text, operand=operand
            )
        else:
            lhs = self._parse_factor()
        folded = self._TERM + 1  # binding power of lhs's top operator
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            kind = token.kind
            if kind is not TokenKind.OPERATOR and kind is not TokenKind.KEYWORD:
                return lhs
            prec = self._BINARY_PREC.get(token.text, 0)
            if prec < min_prec or (prec == self._RELATION and folded <= prec):
                return lhs
            self.pos += 1
            rhs = self._parse_binary(prec + 1)
            lhs = ast.Binary(
                span=lhs.span.merge(rhs.span), op=token.text, lhs=lhs, rhs=rhs
            )
            folded = prec

    def _parse_factor(self) -> ast.Expression:
        token = self.tokens[self.pos]
        if token.is_kw("not", "abs"):
            depth = self._nest()
            self._advance()
            operand = self._parse_factor()
            self._depth = depth
            return ast.Unary(
                span=token.span.merge(operand.span), op=token.text, operand=operand
            )
        primary = self._parse_primary()
        if self.tokens[self.pos].is_op("**"):
            self._advance()
            rhs = self._parse_primary()
            return ast.Binary(
                span=primary.span.merge(rhs.span), op="**", lhs=primary, rhs=rhs
            )
        return primary

    def _parse_primary(self) -> ast.Expression:
        token = self.tokens[self.pos]
        if token.kind is TokenKind.IDENT:
            return self._parse_name()
        if token.kind is TokenKind.NUMBER:
            self._advance()
            text = token.text.replace("_", "")
            if "." in text:
                raise self._error("real literals are not supported", token)
            return ast.IntLiteral(span=token.span, value=int(text))
        if token.kind is TokenKind.CHAR:
            self._advance()
            return ast.CharLiteral(span=token.span, value=token.text[1:-1])
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.StringLiteral(span=token.span, value=token.text[1:-1])
        if token.kind is TokenKind.BASED_NUMBER:
            self._advance()
            base = token.text[0].lower()
            return ast.StringLiteral(
                span=token.span, value=token.text[2:-1], base=base
            )
        if token.is_op("("):
            return self._parse_paren_or_aggregate()
        if token.is_kw("others"):
            # bare (others => ...) handled in aggregates; here it's an error
            raise self._error("'others' is only valid inside an aggregate", token)
        raise self._error(
            f"syntax error near {_describe(token)}: expected an expression"
        )

    def _parse_paren_or_aggregate(self) -> ast.Expression:
        open_token = self._advance()  # '('
        if self._peek().is_kw("others"):
            self._advance()
            self._expect_punct("=>", "after 'others'")
            value = self.parse_expression()
            close = self._expect_punct(")", "to close the aggregate")
            return ast.Aggregate(
                span=open_token.span.merge(close.span), others=value
            )
        first = self.parse_expression()
        if self._peek().is_op(","):
            elements: list[tuple[ast.Expression | None, ast.Expression]] = [
                (None, first)
            ]
            others = None
            while self._peek().is_op(","):
                self._advance()
                if self._peek().is_kw("others"):
                    self._advance()
                    self._expect_punct("=>", "after 'others'")
                    others = self.parse_expression()
                else:
                    elements.append((None, self.parse_expression()))
            close = self._expect_punct(")", "to close the aggregate")
            return ast.Aggregate(
                span=open_token.span.merge(close.span),
                others=others,
                elements=tuple(elements),
            )
        close = self._expect_punct(")", "to close the parenthesized expression")
        return first

    def _parse_name(self) -> ast.Expression:
        name_token = self._advance()
        name = name_token.text.lower()
        result: ast.Expression
        if self._peek().is_op("("):
            self._advance()
            first = self.parse_expression()
            if self._peek().is_kw("downto", "to"):
                descending = self._advance().text == "downto"
                right = self.parse_expression()
                close = self._expect_punct(")", "to close the slice")
                result = ast.Sliced(
                    span=name_token.span.merge(close.span),
                    name=name,
                    left=first,
                    right=right,
                    descending=descending,
                )
            elif self._peek().is_op(","):
                args = [first]
                while self._peek().is_op(","):
                    self._advance()
                    args.append(self.parse_expression())
                close = self._expect_punct(")", "to close the call")
                result = ast.Call(
                    span=name_token.span.merge(close.span),
                    name=name,
                    args=tuple(args),
                )
            else:
                close = self._expect_punct(")", "to close the index or call")
                if name in KNOWN_FUNCTIONS:
                    result = ast.Call(
                        span=name_token.span.merge(close.span),
                        name=name,
                        args=(first,),
                    )
                else:
                    result = ast.Indexed(
                        span=name_token.span.merge(close.span),
                        name=name,
                        index=first,
                    )
        else:
            result = ast.Name(span=name_token.span, name=name)
        # attribute: clk'event, vec'length ...
        while self._peek().is_op("'") and self._peek(1).kind in (
            TokenKind.IDENT,
            TokenKind.KEYWORD,
        ):
            self._advance()
            attr = self._advance().text.lower()
            base = name if isinstance(result, ast.Name) else name
            result = ast.Attribute(
                span=name_token.span, name=base, attr=attr
            )
        return result


def _span(node) -> SourceSpan:
    return node.span


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
