"""Recursive-descent Verilog parser with error recovery.

The parser never raises to the caller: syntax problems become diagnostics in
the shared collector, and the parser resynchronizes (to the next ``;``,
``end``, or ``endmodule``) so that one defect does not mask the rest of the
file. This mirrors how real EDA frontends report several errors per compile —
the behaviour the paper's Review Agent depends on to batch corrections.
"""

from __future__ import annotations

from repro.hdl.cursor import ParseError as _ParseError
from repro.hdl.cursor import TokenCursor
from repro.hdl.cursor import describe as _describe
from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.source import SourceFile, SourceSpan
from repro.hdl.tokens import Token, TokenKind
from repro.sim.values import Logic
from repro.verilog import ast
from repro.verilog.lexer import VerilogLexer


def parse_number_literal(text: str) -> tuple[Logic, bool]:
    """Fold a Verilog literal's text into a Logic value.

    Returns (value, sized). Unsized literals are 32 bits wide, matching the
    IEEE default integer width. ``x``/``z``/``?`` digits become X bits.
    """
    text = text.replace("_", "")
    if "'" not in text:
        return Logic.from_int(int(text), 32), False
    size_text, rest = text.split("'", 1)
    if rest and rest[0] in "sS":
        rest = rest[1:]
    base_char = rest[0].lower()
    digits = rest[1:]
    width = int(size_text) if size_text else 32
    if not 1 <= width <= (1 << 16):
        raise ValueError(f"literal width {width} out of supported range")
    bits_per_digit = {"b": 1, "o": 3, "h": 4, "d": 0}[base_char]
    if base_char == "d":
        if any(c in "xXzZ?" for c in digits):
            return Logic.unknown(width), bool(size_text)
        return Logic.from_int(int(digits), width), bool(size_text)
    bits = 0
    xmask = 0
    for char in digits:
        bits <<= bits_per_digit
        xmask <<= bits_per_digit
        if char in "xXzZ?":
            xmask |= (1 << bits_per_digit) - 1
        else:
            bits |= int(char, 16 if base_char == "h" else 8 if base_char == "o" else 2)
    return Logic(width, bits, xmask), bool(size_text)


class VerilogParser(TokenCursor):
    """Parses a token stream into a :class:`repro.verilog.ast.SourceUnit`."""

    def __init__(self, source: SourceFile, collector: DiagnosticCollector):
        super().__init__(
            source, collector, VerilogLexer(source, collector).tokenize()
        )

    def _sync_to_semicolon(self) -> None:
        depth = 0
        while not self._at_eof():
            token = self._peek()
            if token.is_op("(") or token.is_op("["):
                depth += 1
            elif token.is_op(")") or token.is_op("]"):
                depth = max(0, depth - 1)
            elif depth == 0 and token.is_op(";"):
                self._advance()
                return
            elif depth == 0 and token.is_kw("end", "endmodule", "endcase", "module"):
                return
            self._advance()

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------

    def parse_source_unit(self) -> ast.SourceUnit:
        modules: list[ast.Module] = []
        start = self._peek().span
        while not self._at_eof():
            token = self._peek()
            if token.is_kw("module"):
                module = self._parse_module()
                if module is not None:
                    modules.append(module)
            else:
                self.collector.error(
                    self._CODE_SYNTAX,
                    f"syntax error near {_describe(token)}: "
                    "expected 'module' at top level",
                    source=self.source,
                    span=token.span,
                )
                # resync to the next design unit, one error per garbage run
                while not self._at_eof() and not self._peek().is_kw("module"):
                    self._advance()
        end = self._peek().span
        return ast.SourceUnit(span=start.merge(end), modules=tuple(modules))

    def _parse_module(self) -> ast.Module | None:
        start = self._advance()  # 'module'
        try:
            name = self._expect_ident("after 'module'").text
        except _ParseError:
            self._sync_to_endmodule()
            return None
        header_params: list[ast.ParamDecl] = []
        ports: list[ast.PortDecl] = []
        try:
            if self._peek().is_op("#"):
                self._advance()
                header_params = self._parse_parameter_port_list()
            if self._peek().is_op("("):
                ports = self._parse_port_list()
            self._expect_punct(";", "to close the module header")
        except _ParseError:
            self._sync_to_semicolon()
        items: list[ast.ModuleItem] = list(header_params)
        while not self._at_eof() and not self._peek().is_kw("endmodule"):
            if self._peek().is_kw("module"):
                # a missing endmodule: report and bail out of this module
                self.collector.error(
                    self._CODE_SYNTAX,
                    f"syntax error: expected 'endmodule' before 'module' "
                    f"(module '{name}' is unterminated)",
                    source=self.source,
                    span=self._peek().span,
                )
                break
            before = self.pos
            item = self._parse_module_item()
            if item is not None:
                items.append(item)
            elif self.pos == before:
                # error recovery consumed nothing (e.g. a stray 'end'):
                # force progress so the loop terminates
                self._advance()
        if self._peek().is_kw("endmodule"):
            end_token = self._advance()
        else:
            end_token = self._peek()
            self.collector.error(
                self._CODE_SYNTAX,
                f"syntax error: missing 'endmodule' for module '{name}'",
                source=self.source,
                span=end_token.span,
            )
        return ast.Module(
            span=start.span.merge(end_token.span),
            name=name,
            ports=tuple(ports),
            items=tuple(items),
        )

    def _sync_to_endmodule(self) -> None:
        while not self._at_eof() and not self._peek().is_kw("endmodule"):
            self._advance()
        if self._peek().is_kw("endmodule"):
            self._advance()

    def _parse_parameter_port_list(self) -> list[ast.ParamDecl]:
        self._expect_punct("(", "after '#'")
        params: list[ast.ParamDecl] = []
        while True:
            token = self._peek()
            if token.is_kw("parameter"):
                self._advance()
                token = self._peek()
            if self._peek().is_op("["):
                self._parse_range()  # parameter range: parsed, widths come from value
            name_token = self._expect_ident("in parameter list")
            self._expect_punct("=", f"after parameter '{name_token.text}'")
            value = self.parse_expression()
            params.append(
                ast.ParamDecl(
                    span=name_token.span, name=name_token.text, value=value
                )
            )
            if self._peek().is_op(","):
                self._advance()
                continue
            break
        self._expect_punct(")", "to close the parameter list")
        return params

    def _parse_port_list(self) -> list[ast.PortDecl]:
        self._expect_punct("(", "to open the port list")
        ports: list[ast.PortDecl] = []
        if self._peek().is_op(")"):
            self._advance()
            return ports
        direction = ""
        is_reg = False
        signed = False
        dims: ast.Range | None = None
        while True:
            token = self._peek()
            if token.is_kw("input", "output", "inout"):
                direction = self._advance().text
                is_reg = False
                signed = False
                dims = None
                token = self._peek()
            if token.is_kw("wire", "reg"):
                is_reg = self._advance().text == "reg"
                token = self._peek()
            if token.is_kw("signed"):
                signed = True
                self._advance()
                token = self._peek()
            if token.is_op("["):
                dims = self._parse_range()
            name_token = self._expect_ident("in port list")
            ports.append(
                ast.PortDecl(
                    span=name_token.span,
                    direction=direction or "unresolved",
                    name=name_token.text,
                    dims=dims,
                    is_reg=is_reg,
                    signed=signed,
                )
            )
            if self._peek().is_op(","):
                self._advance()
                continue
            break
        self._expect_punct(")", "to close the port list")
        return ports

    def _parse_range(self) -> ast.Range:
        open_token = self._expect_punct("[", "to open a range")
        msb = self.parse_expression()
        self._expect_punct(":", "between range bounds")
        lsb = self.parse_expression()
        close_token = self._expect_punct("]", "to close the range")
        return ast.Range(
            span=open_token.span.merge(close_token.span), msb=msb, lsb=lsb
        )

    # ------------------------------------------------------------------
    # module items
    # ------------------------------------------------------------------

    def _parse_module_item(self) -> ast.ModuleItem | None:
        token = self._peek()
        try:
            if token.is_kw("input", "output", "inout"):
                return self._parse_port_item()
            if token.is_kw("wire", "reg", "integer"):
                return self._parse_net_decl()
            if token.is_kw("parameter", "localparam"):
                return self._parse_param_decl()
            if token.is_kw("assign"):
                return self._parse_continuous_assign()
            if token.is_kw("always"):
                return self._parse_always()
            if token.is_kw("initial"):
                return self._parse_initial()
            if token.is_kw("function", "task", "generate", "genvar", "fork"):
                self.collector.error(
                    self._CODE_UNSUPPORTED,
                    f"unsupported construct '{token.text}' "
                    "(not part of the synthesizable subset)",
                    source=self.source,
                    span=token.span,
                )
                raise _ParseError(token.text)
            if token.kind is TokenKind.IDENT:
                return self._parse_instantiation()
            raise self._error(
                f"syntax error near {_describe(token)}: expected a module item"
            )
        except _ParseError:
            self._sync_to_semicolon()
            return None

    def _parse_port_item(self) -> ast.ModuleItem:
        """A directional declaration in the body (non-ANSI style).

        ``input [3:0] a, b;`` — returned as the first PortDecl; the remaining
        names become their own PortDecls folded into a synthetic NetDecl list.
        To keep the item type simple we return a NetDecl-like wrapper: each
        extra name is appended by the caller via a small trick — instead we
        just return a tuple-free representation: the analyzer accepts multiple
        PortDecl items, so we parse all names and push extras onto a pending
        queue consumed here.
        """
        direction = self._advance().text
        is_reg = False
        signed = False
        if self._peek().is_kw("wire", "reg"):
            is_reg = self._advance().text == "reg"
        if self._peek().is_kw("signed"):
            signed = True
            self._advance()
        dims = self._parse_range() if self._peek().is_op("[") else None
        decls: list[ast.PortDecl] = []
        while True:
            name_token = self._expect_ident(f"in '{direction}' declaration")
            decls.append(
                ast.PortDecl(
                    span=name_token.span,
                    direction=direction,
                    name=name_token.text,
                    dims=dims,
                    is_reg=is_reg,
                    signed=signed,
                )
            )
            if self._peek().is_op(","):
                self._advance()
                continue
            break
        self._expect_punct(";", f"after '{direction}' declaration")
        if len(decls) == 1:
            return decls[0]
        return _MultiItem(span=decls[0].span, items=tuple(decls))

    def _parse_net_decl(self) -> ast.ModuleItem:
        kind_token = self._advance()
        kind = kind_token.text
        signed = False
        if self._peek().is_kw("signed"):
            signed = True
            self._advance()
        dims = self._parse_range() if self._peek().is_op("[") else None
        decls: list[ast.NetDecl] = []
        while True:
            name_token = self._expect_ident(f"in '{kind}' declaration")
            init = None
            if self._peek().is_op("="):
                self._advance()
                init = self.parse_expression()
            if self._peek().is_op("["):
                raise self._error(
                    "memories (unpacked arrays) are not supported", self._peek()
                )
            decls.append(
                ast.NetDecl(
                    span=name_token.span,
                    kind=kind,
                    name=name_token.text,
                    dims=dims,
                    init=init,
                    signed=signed,
                )
            )
            if self._peek().is_op(","):
                self._advance()
                continue
            break
        self._expect_punct(";", f"after '{kind}' declaration")
        if len(decls) == 1:
            return decls[0]
        return _MultiItem(span=decls[0].span, items=tuple(decls))

    def _parse_param_decl(self) -> ast.ModuleItem:
        kw = self._advance()
        local = kw.text == "localparam"
        if self._peek().is_op("["):
            self._parse_range()
        decls: list[ast.ParamDecl] = []
        while True:
            name_token = self._expect_ident(f"in '{kw.text}' declaration")
            self._expect_punct("=", f"after parameter '{name_token.text}'")
            value = self.parse_expression()
            decls.append(
                ast.ParamDecl(
                    span=name_token.span,
                    name=name_token.text,
                    value=value,
                    local=local,
                )
            )
            if self._peek().is_op(","):
                self._advance()
                continue
            break
        self._expect_punct(";", f"after '{kw.text}' declaration")
        if len(decls) == 1:
            return decls[0]
        return _MultiItem(span=decls[0].span, items=tuple(decls))

    def _parse_continuous_assign(self) -> ast.ContinuousAssign:
        start = self._advance()
        assigns: list[ast.ContinuousAssign] = []
        while True:
            target = self._parse_lvalue()
            self._expect_punct("=", "in continuous assignment")
            value = self.parse_expression()
            assigns.append(
                ast.ContinuousAssign(
                    span=start.span.merge(_expr_span(value)),
                    target=target,
                    value=value,
                )
            )
            if self._peek().is_op(","):
                self._advance()
                continue
            break
        self._expect_punct(";", "after continuous assignment")
        if len(assigns) == 1:
            return assigns[0]
        return _MultiItem(span=assigns[0].span, items=tuple(assigns))

    def _parse_always(self) -> ast.AlwaysBlock:
        start = self._advance()
        sensitivity: ast.SensitivityList | None = None
        if self._peek().is_op("@"):
            self._advance()
            sensitivity = self._parse_sensitivity()
        body = self.parse_statement()
        return ast.AlwaysBlock(
            span=start.span.merge(_stmt_span(body)),
            sensitivity=sensitivity,
            body=body,
        )

    def _parse_initial(self) -> ast.InitialBlock:
        start = self._advance()
        body = self.parse_statement()
        return ast.InitialBlock(span=start.span.merge(_stmt_span(body)), body=body)

    def _parse_sensitivity(self) -> ast.SensitivityList:
        token = self._peek()
        if token.is_op("*"):
            star = self._advance()
            return ast.SensitivityList(span=star.span, items=(), star=True)
        open_token = self._expect_punct("(", "after '@'")
        if self._peek().is_op("*"):
            self._advance()
            close = self._expect_punct(")", "to close '@(*)'")
            return ast.SensitivityList(
                span=open_token.span.merge(close.span), items=(), star=True
            )
        items: list[ast.SensitivityItem] = []
        while True:
            edge = "any"
            token = self._peek()
            if token.is_kw("posedge", "negedge"):
                edge = "pos" if token.text == "posedge" else "neg"
                self._advance()
            signal = self.parse_expression()
            items.append(
                ast.SensitivityItem(span=_expr_span(signal), edge=edge, signal=signal)
            )
            if self._peek().is_kw("or") or self._peek().is_op(","):
                self._advance()
                continue
            break
        close = self._expect_punct(")", "to close the sensitivity list")
        return ast.SensitivityList(
            span=open_token.span.merge(close.span), items=tuple(items)
        )

    def _parse_instantiation(self) -> ast.Instantiation:
        module_token = self._advance()
        parameters: list[tuple[str, ast.Expression]] = []
        if self._peek().is_op("#"):
            self._advance()
            self._expect_punct("(", "after '#' in instantiation")
            position = 0
            while not self._peek().is_op(")"):
                if self._peek().is_op("."):
                    self._advance()
                    pname = self._expect_ident("in parameter override").text
                    self._expect_punct("(", f"after parameter '.{pname}'")
                    parameters.append((pname, self.parse_expression()))
                    self._expect_punct(")", f"to close parameter '.{pname}'")
                else:
                    parameters.append((f"#{position}", self.parse_expression()))
                    position += 1
                if self._peek().is_op(","):
                    self._advance()
            self._expect_punct(")", "to close the parameter overrides")
        instance_token = self._expect_ident(
            f"as instance name for module '{module_token.text}'"
        )
        self._expect_punct("(", "to open the port connections")
        connections: list[ast.PortConnection] = []
        if not self._peek().is_op(")"):
            while True:
                if self._peek().is_op("."):
                    dot = self._advance()
                    pname = self._expect_ident("after '.' in port connection").text
                    self._expect_punct("(", f"after port '.{pname}'")
                    expr = None
                    if not self._peek().is_op(")"):
                        expr = self.parse_expression()
                    close = self._expect_punct(")", f"to close port '.{pname}'")
                    connections.append(
                        ast.PortConnection(
                            span=dot.span.merge(close.span), port=pname, expr=expr
                        )
                    )
                else:
                    expr = self.parse_expression()
                    connections.append(
                        ast.PortConnection(
                            span=_expr_span(expr), port=None, expr=expr
                        )
                    )
                if self._peek().is_op(","):
                    self._advance()
                    continue
                break
        close = self._expect_punct(")", "to close the port connections")
        self._expect_punct(";", "after module instantiation")
        return ast.Instantiation(
            span=module_token.span.merge(close.span),
            module=module_token.text,
            instance=instance_token.text,
            parameters=tuple(parameters),
            connections=tuple(connections),
        )

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        skipped = self._skip_too_deep(self._skip_statement)
        if skipped is not None:
            return ast.NullStatement(span=skipped)
        depth = self._stmt_depth
        self._stmt_depth = depth + 1
        try:
            token = self.tokens[self.pos]
            if token.kind is TokenKind.IDENT or token.is_op("{"):
                return self._parse_assignment_statement()
            if token.is_kw("begin"):
                return self._parse_block()
            if token.is_kw("if"):
                return self._parse_if()
            if token.is_kw("case", "casez", "casex"):
                return self._parse_case()
            if token.is_kw("for"):
                return self._parse_for()
            if token.is_kw("repeat"):
                return self._parse_repeat()
            if token.is_kw("while"):
                return self._parse_while()
            if token.is_kw("forever"):
                start = self._advance()
                body = self.parse_statement()
                return ast.Forever(
                    span=start.span.merge(_stmt_span(body)), body=body
                )
            if token.is_op("#"):
                return self._parse_delay()
            if token.is_op("@"):
                return self._parse_event_control()
            if token.kind is TokenKind.SYSTEM_ID:
                return self._parse_system_task()
            if token.is_op(";"):
                self._advance()
                return ast.NullStatement(span=token.span)
            raise self._error(
                f"syntax error near {_describe(token)}: expected a statement"
            )
        finally:
            self._stmt_depth = depth

    def _skip_statement(self) -> None:
        """Consume one whole statement without parsing it.

        Tracks ``begin``/``end``, ``case``/``endcase`` and bracket nesting;
        the statement ends at a ``;`` or closing keyword outside all of them,
        unless an ``else`` follows that belongs to one of its open ``if``s.
        Stops before a closer it did not open and before ``endmodule``.
        """
        nesting = 0
        open_ifs = 0
        while not self._at_eof():
            token = self._peek()
            if token.is_kw("endmodule", "module"):
                return
            ends = False
            if token.is_kw("begin", "case", "casez", "casex"):
                nesting += 1
            elif token.is_kw("end", "endcase"):
                if not nesting:
                    return
                nesting -= 1
                ends = not nesting
            elif token.is_op("(", "[", "{"):
                nesting += 1
            elif token.is_op(")", "]", "}"):
                nesting = max(0, nesting - 1)
            elif token.is_op(";"):
                ends = not nesting
            elif token.is_kw("if") and not nesting:
                open_ifs += 1
            self._advance()
            if ends:
                if not (open_ifs and self._peek().is_kw("else")):
                    return
                open_ifs -= 1
                self._advance()

    def _parse_block(self) -> ast.Block:
        start = self._advance()
        label = ""
        if self._peek().is_op(":"):
            self._advance()
            label = self._expect_ident("as block label").text
        statements: list[ast.Statement] = []
        while not self._at_eof() and not self._peek().is_kw("end"):
            if self._peek().is_kw("endmodule", "endcase", "module"):
                raise self._error(
                    f"syntax error near {_describe(self._peek())}: "
                    "missing 'end' to close 'begin' block"
                )
            before = self.pos
            try:
                statements.append(self.parse_statement())
            except _ParseError:
                self._sync_to_semicolon()
                if self._peek().is_kw("endmodule", "module"):
                    raise
                if self.pos == before:
                    self._advance()  # recovery made no progress: force it
        end = self._expect_keyword("end", "to close 'begin' block")
        return ast.Block(
            span=start.span.merge(end.span), statements=tuple(statements), label=label
        )

    def _parse_if(self) -> ast.If:
        start = self._advance()
        self._expect_punct("(", "after 'if'")
        condition = self.parse_expression()
        self._expect_punct(")", "to close the 'if' condition")
        then_branch = self.parse_statement()
        else_branch = None
        if self._peek().is_kw("else"):
            self._advance()
            else_branch = self.parse_statement()
        last = else_branch if else_branch is not None else then_branch
        return ast.If(
            span=start.span.merge(_stmt_span(last)),
            condition=condition,
            then_branch=then_branch,
            else_branch=else_branch,
        )

    def _parse_case(self) -> ast.Case:
        start = self._advance()
        kind = start.text
        self._expect_punct("(", f"after '{kind}'")
        subject = self.parse_expression()
        self._expect_punct(")", f"to close the '{kind}' subject")
        items: list[ast.CaseItem] = []
        while not self._at_eof() and not self._peek().is_kw("endcase"):
            if self._peek().is_kw("endmodule", "module"):
                raise self._error(
                    f"syntax error: missing 'endcase' for '{kind}' statement"
                )
            if self._peek().is_kw("default"):
                token = self._advance()
                if self._peek().is_op(":"):
                    self._advance()
                body = self.parse_statement()
                items.append(ast.CaseItem(span=token.span, labels=(), body=body))
                continue
            labels = [self.parse_expression()]
            while self._peek().is_op(","):
                self._advance()
                labels.append(self.parse_expression())
            self._expect_punct(":", "after case label")
            body = self.parse_statement()
            items.append(
                ast.CaseItem(
                    span=_expr_span(labels[0]), labels=tuple(labels), body=body
                )
            )
        end = self._expect_keyword("endcase", f"to close '{kind}'")
        return ast.Case(
            span=start.span.merge(end.span),
            kind=kind,
            subject=subject,
            items=tuple(items),
        )

    def _parse_for(self) -> ast.For:
        start = self._advance()
        self._expect_punct("(", "after 'for'")
        init = self._parse_plain_assign("in 'for' initialization")
        self._expect_punct(";", "after 'for' initialization")
        condition = self.parse_expression()
        self._expect_punct(";", "after 'for' condition")
        step = self._parse_plain_assign("in 'for' step")
        self._expect_punct(")", "to close the 'for' header")
        body = self.parse_statement()
        return ast.For(
            span=start.span.merge(_stmt_span(body)),
            init=init,
            condition=condition,
            step=step,
            body=body,
        )

    def _parse_plain_assign(self, context: str) -> ast.Assign:
        target = self._parse_lvalue()
        token = self._peek()
        if token.is_op("="):
            self._advance()
            blocking = True
        elif token.is_op("<="):
            self._advance()
            blocking = False
        else:
            raise self._error(
                f"syntax error near {_describe(token)}: expected '=' {context}"
            )
        value = self.parse_expression()
        return ast.Assign(
            span=_expr_span(value), target=target, value=value, blocking=blocking
        )

    def _parse_repeat(self) -> ast.Repeat:
        start = self._advance()
        self._expect_punct("(", "after 'repeat'")
        count = self.parse_expression()
        self._expect_punct(")", "to close the 'repeat' count")
        body = self.parse_statement()
        return ast.Repeat(
            span=start.span.merge(_stmt_span(body)), count=count, body=body
        )

    def _parse_while(self) -> ast.While:
        start = self._advance()
        self._expect_punct("(", "after 'while'")
        condition = self.parse_expression()
        self._expect_punct(")", "to close the 'while' condition")
        body = self.parse_statement()
        return ast.While(
            span=start.span.merge(_stmt_span(body)), condition=condition, body=body
        )

    def _parse_delay(self) -> ast.DelayControl:
        start = self._advance()  # '#'
        delay = self.parse_primary()
        statement: ast.Statement | None = None
        if self._peek().is_op(";"):
            self._advance()
        else:
            statement = self.parse_statement()
        return ast.DelayControl(
            span=start.span.merge(_expr_span(delay)), delay=delay, statement=statement
        )

    def _parse_event_control(self) -> ast.EventControl:
        start = self._advance()  # '@'
        sensitivity = self._parse_sensitivity()
        statement: ast.Statement | None = None
        if self._peek().is_op(";"):
            self._advance()
        else:
            statement = self.parse_statement()
        return ast.EventControl(
            span=start.span.merge(sensitivity.span),
            sensitivity=sensitivity,
            statement=statement,
        )

    def _parse_system_task(self) -> ast.SystemTaskCall:
        token = self._advance()
        args: list[ast.Expression] = []
        if self._peek().is_op("("):
            self._advance()
            if not self._peek().is_op(")"):
                while True:
                    args.append(self.parse_expression())
                    if self._peek().is_op(","):
                        self._advance()
                        continue
                    break
            self._expect_punct(")", f"to close '{token.text}' arguments")
        self._expect_punct(";", f"after '{token.text}'")
        return ast.SystemTaskCall(span=token.span, name=token.text, args=tuple(args))

    def _parse_assignment_statement(self) -> ast.Assign:
        target = self._parse_lvalue()
        token = self._peek()
        if token.is_op("="):
            self._advance()
            blocking = True
        elif token.is_op("<="):
            self._advance()
            blocking = False
        else:
            raise self._error(
                f"syntax error near {_describe(token)}: "
                "expected '=' or '<=' in assignment"
            )
        if self._peek().is_op("#"):
            raise self._error(
                "intra-assignment delays are not supported", self._peek()
            )
        value = self.parse_expression()
        semi = self._expect_punct(";", "after assignment")
        return ast.Assign(
            span=_lvalue_span(target).merge(semi.span),
            target=target,
            value=value,
            blocking=blocking,
        )

    def _parse_lvalue(self) -> ast.LValue:
        token = self._peek()
        if token.is_op("{"):
            expr = self.parse_primary()
            if not isinstance(expr, ast.Concat):
                raise self._error("invalid left-hand side of assignment", token)
            return expr
        name_token = self._expect_ident("as assignment target")
        if self._peek().is_op("["):
            return self._parse_select(name_token)
        return ast.Identifier(span=name_token.span, name=name_token.text)

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------

    #: binding power of each binary operator; all associate to the left
    _BINARY_PREC = {
        "||": 1,
        "&&": 2,
        "|": 3,
        "^": 4,
        "&": 5,
        "==": 6, "!=": 6, "===": 6, "!==": 6,
        "<": 7, "<=": 7, ">": 7, ">=": 7,
        "<<": 8, ">>": 8, ">>>": 8, "<<<": 8,
        "+": 9, "-": 9,
        "*": 10, "/": 10, "%": 10,
        "**": 11,
    }

    def parse_expression(self) -> ast.Expression:
        start = self.pos
        depth = self._nest()
        try:
            expr = self._parse_binary(1)
            if self.tokens[self.pos].is_op("?"):
                self._advance()
                if_true = self.parse_expression()
                self._expect_punct(":", "in conditional expression")
                if_false = self.parse_expression()
                expr = ast.Ternary(
                    span=expr.span.merge(if_false.span),
                    cond=expr,
                    if_true=if_true,
                    if_false=if_false,
                )
        finally:
            self._depth = depth
        if not depth:
            self._check_tree(expr, start, ast.Node)
        return expr

    def _parse_binary(self, min_prec: int) -> ast.Expression:
        """Precedence climbing: fold operators binding at least ``min_prec``."""
        lhs = self._parse_unary()
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            if token.kind is not TokenKind.OPERATOR:
                return lhs
            prec = self._BINARY_PREC.get(token.text, 0)
            if prec < min_prec:
                return lhs
            self.pos += 1
            rhs = self._parse_binary(prec + 1)
            lhs = ast.Binary(
                span=lhs.span.merge(rhs.span), op=token.text, lhs=lhs, rhs=rhs
            )

    def _parse_unary(self) -> ast.Expression:
        token = self.tokens[self.pos]
        if token.is_op("+", "-", "!", "~", "&", "|", "^"):
            depth = self._nest()
            self._advance()
            op = token.text
            # reduction nand/nor/xnor: ~& ~| ~^ arrive as '~' followed by op
            if op == "~" and self._peek().is_op("&", "|", "^"):
                op = "~" + self._advance().text
            operand = self._parse_unary()
            self._depth = depth
            return ast.Unary(
                span=token.span.merge(operand.span), op=op, operand=operand
            )
        return self.parse_primary()

    def parse_primary(self) -> ast.Expression:
        token = self.tokens[self.pos]
        if token.kind is TokenKind.IDENT:
            self.pos += 1
            if self.tokens[self.pos].is_op("["):
                return self._parse_select(token)
            return ast.Identifier(span=token.span, name=token.text)
        if token.kind in (TokenKind.NUMBER, TokenKind.BASED_NUMBER):
            self._advance()
            try:
                value, sized = parse_number_literal(token.text)
            except (ValueError, KeyError):
                raise self._error(f"malformed numeric literal '{token.text}'", token)
            return ast.Number(span=token.span, value=value, sized=sized)
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.StringLiteral(span=token.span, value=token.text[1:-1])
        if token.kind is TokenKind.SYSTEM_ID:
            self._advance()
            args: list[ast.Expression] = []
            if self._peek().is_op("("):
                self._advance()
                if not self._peek().is_op(")"):
                    while True:
                        args.append(self.parse_expression())
                        if self._peek().is_op(","):
                            self._advance()
                            continue
                        break
                self._expect_punct(")", f"to close '{token.text}'")
            return ast.SystemFunctionCall(
                span=token.span, name=token.text, args=tuple(args)
            )
        if token.is_op("("):
            self._advance()
            inner = self.parse_expression()
            self._expect_punct(")", "to close parenthesized expression")
            return inner
        if token.is_op("{"):
            return self._parse_concat()
        raise self._error(
            f"syntax error near {_describe(token)}: expected an expression"
        )

    def _parse_select(self, name_token: Token) -> ast.Expression:
        self._expect_punct("[", "in bit/part select")
        first = self.parse_expression()
        token = self._peek()
        if token.is_op(":"):
            self._advance()
            lsb = self.parse_expression()
            close = self._expect_punct("]", "to close part select")
            return ast.PartSelect(
                span=name_token.span.merge(close.span),
                target=name_token.text,
                msb=first,
                lsb=lsb,
            )
        if token.is_op("+:", "-:"):
            ascending = self._advance().text == "+:"
            width = self.parse_expression()
            close = self._expect_punct("]", "to close indexed part select")
            return ast.IndexedPartSelect(
                span=name_token.span.merge(close.span),
                target=name_token.text,
                base=first,
                width=width,
                ascending=ascending,
            )
        close = self._expect_punct("]", "to close bit select")
        return ast.BitSelect(
            span=name_token.span.merge(close.span),
            target=name_token.text,
            index=first,
        )

    def _parse_concat(self) -> ast.Expression:
        open_token = self._advance()  # '{'
        first = self.parse_expression()
        if self._peek().is_op("{"):
            # replication: {N{expr}}
            self._advance()
            value = self.parse_expression()
            while self._peek().is_op(","):
                self._advance()
                nxt = self.parse_expression()
                value = ast.Concat(
                    span=_expr_span(value).merge(_expr_span(nxt)),
                    parts=_concat_parts(value) + (nxt,),
                )
            self._expect_punct("}", "to close replication operand")
            close = self._expect_punct("}", "to close replication")
            return ast.Replicate(
                span=open_token.span.merge(close.span), count=first, value=value
            )
        parts = [first]
        while self._peek().is_op(","):
            self._advance()
            parts.append(self.parse_expression())
        close = self._expect_punct("}", "to close concatenation")
        return ast.Concat(
            span=open_token.span.merge(close.span), parts=tuple(parts)
        )


# --------------------------------------------------------------------------
# module-level helpers
# --------------------------------------------------------------------------


class _MultiItem:
    """Internal container for `wire a, b;`-style multi-declarations.

    Flattened by :func:`parse_verilog` so the public AST only ever exposes
    single-name declarations.
    """

    def __init__(self, span: SourceSpan, items: tuple):
        self.span = span
        self.items = items


def _flatten_items(items) -> tuple:
    flat: list = []
    for item in items:
        if isinstance(item, _MultiItem):
            flat.extend(item.items)
        else:
            flat.append(item)
    return tuple(flat)


def _expr_span(expr: ast.Expression) -> SourceSpan:
    return expr.span


def _stmt_span(stmt: ast.Statement) -> SourceSpan:
    return stmt.span


def _lvalue_span(lvalue: ast.LValue) -> SourceSpan:
    return lvalue.span


def _concat_parts(expr: ast.Expression) -> tuple:
    if isinstance(expr, ast.Concat):
        return expr.parts
    return (expr,)


def parse_verilog(
    text: str,
    *,
    name: str = "design.v",
    collector: DiagnosticCollector | None = None,
) -> tuple[ast.SourceUnit, DiagnosticCollector]:
    """Parse Verilog source text; returns the AST and the diagnostics."""
    collector = collector if collector is not None else DiagnosticCollector()
    source = SourceFile(name=name, text=text)
    parser = VerilogParser(source, collector)
    unit = parser.parse_source_unit()
    modules = tuple(
        ast.Module(
            span=m.span,
            name=m.name,
            ports=m.ports,
            items=_flatten_items(m.items),
        )
        for m in unit.modules
    )
    return ast.SourceUnit(span=unit.span, modules=modules), collector
