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
from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.source import SourceFile, SourceSpan
from repro.hdl.tokens import TokenKind
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


_IDENT = TokenKind.IDENT


class VerilogParser(TokenCursor):
    """Parses a token stream into a :class:`repro.verilog.ast.SourceUnit`."""

    def __init__(self, source: SourceFile, collector: DiagnosticCollector):
        super().__init__(
            source, collector, VerilogLexer(source, collector).tokenize()
        )

    def _sync_to_semicolon(self) -> None:
        keys = self.keys
        depth = 0
        while not self._at_eof():
            key = keys[self.pos]
            if key in {"(", "["}:
                depth += 1
            elif key in {")", "]"}:
                depth = max(0, depth - 1)
            elif depth == 0 and key == ";":
                self.pos += 1
                return
            elif depth == 0 and key in {"end", "endmodule", "endcase", "module"}:
                return
            self.pos += 1

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------

    def parse_source_unit(self) -> ast.SourceUnit:
        modules: list[ast.Module] = []
        while not self._at_eof():
            pos = self.pos
            if self.keys[pos] == "module":
                module = self._parse_module()
                if module is not None:
                    modules.append(module)
            else:
                self.collector.error(
                    self._CODE_SYNTAX,
                    f"syntax error near {self._describe(pos)}: "
                    "expected 'module' at top level",
                    source=self.source,
                    span=self._span(pos),
                )
                # resync to the next design unit, one error per garbage run
                while not self._at_eof() and self.keys[self.pos] != "module":
                    self.pos += 1
        return ast.SourceUnit(
            span=self._span(0, self.pos), modules=tuple(modules)
        )

    def _parse_module(self) -> ast.Module | None:
        start = self._advance()  # 'module'
        try:
            name = self.texts[self._expect_ident("after 'module'")]
        except _ParseError:
            self._sync_to_endmodule()
            return None
        header_params: list[ast.ParamDecl] = []
        ports: list[ast.PortDecl] = []
        try:
            if self.keys[self.pos] == "#":
                self.pos += 1
                header_params = self._parse_parameter_port_list()
            if self.keys[self.pos] == "(":
                ports = self._parse_port_list()
            self._expect(";", "to close the module header")
        except _ParseError:
            self._sync_to_semicolon()
        items: list[ast.ModuleItem] = list(header_params)
        while not self._at_eof() and self.keys[self.pos] != "endmodule":
            if self.keys[self.pos] == "module":
                # a missing endmodule: report and bail out of this module
                self.collector.error(
                    self._CODE_SYNTAX,
                    f"syntax error: expected 'endmodule' before 'module' "
                    f"(module '{name}' is unterminated)",
                    source=self.source,
                    span=self._span(self.pos),
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
        if self.keys[self.pos] == "endmodule":
            end_token = self._advance()
        else:
            end_token = self.pos
            self.collector.error(
                self._CODE_SYNTAX,
                f"syntax error: missing 'endmodule' for module '{name}'",
                source=self.source,
                span=self._span(end_token),
            )
        return ast.Module(
            span=self._span(start, end_token),
            name=name,
            ports=tuple(ports),
            items=tuple(items),
        )

    def _sync_to_endmodule(self) -> None:
        while not self._at_eof() and self.keys[self.pos] != "endmodule":
            self.pos += 1
        if self.keys[self.pos] == "endmodule":
            self.pos += 1

    def _parse_parameter_port_list(self) -> list[ast.ParamDecl]:
        self._expect("(", "after '#'")
        params: list[ast.ParamDecl] = []
        while True:
            if self.keys[self.pos] == "parameter":
                self.pos += 1
            if self.keys[self.pos] == "[":
                self._parse_range()  # parameter range: parsed, widths come from value
            name_token = self._expect_ident("in parameter list")
            name = self.texts[name_token]
            self._expect("=", f"after parameter '{name}'")
            value = self.parse_expression()
            params.append(
                ast.ParamDecl(span=self._span(name_token), name=name, value=value)
            )
            if self.keys[self.pos] != ",":
                break
            self.pos += 1
        self._expect(")", "to close the parameter list")
        return params

    def _parse_port_list(self) -> list[ast.PortDecl]:
        self._expect("(", "to open the port list")
        ports: list[ast.PortDecl] = []
        if self.keys[self.pos] == ")":
            self.pos += 1
            return ports
        direction = ""
        is_reg = False
        signed = False
        dims: ast.Range | None = None
        while True:
            key = self.keys[self.pos]
            if key in {"input", "output", "inout"}:
                direction = key
                self.pos += 1
                is_reg = False
                signed = False
                dims = None
                key = self.keys[self.pos]
            if key in {"wire", "reg"}:
                is_reg = key == "reg"
                self.pos += 1
                key = self.keys[self.pos]
            if key == "signed":
                signed = True
                self.pos += 1
                key = self.keys[self.pos]
            if key == "[":
                dims = self._parse_range()
            name_token = self._expect_ident("in port list")
            ports.append(
                ast.PortDecl(
                    span=self._span(name_token),
                    direction=direction or "unresolved",
                    name=self.texts[name_token],
                    dims=dims,
                    is_reg=is_reg,
                    signed=signed,
                )
            )
            if self.keys[self.pos] != ",":
                break
            self.pos += 1
        self._expect(")", "to close the port list")
        return ports

    def _parse_range(self) -> ast.Range:
        open_token = self._expect("[", "to open a range")
        msb = self.parse_expression()
        self._expect(":", "between range bounds")
        lsb = self.parse_expression()
        close_token = self._expect("]", "to close the range")
        return ast.Range(
            span=self._span(open_token, close_token), msb=msb, lsb=lsb
        )

    # ------------------------------------------------------------------
    # module items
    # ------------------------------------------------------------------

    def _parse_module_item(self) -> ast.ModuleItem | None:
        try:
            parse = self._MODULE_ITEMS.get(self.keys[self.pos])
            if parse is None:
                raise self._error(
                    f"syntax error near {self._describe(self.pos)}: "
                    "expected a module item"
                )
            return parse(self)
        except _ParseError:
            self._sync_to_semicolon()
            return None

    def _parse_unsupported_item(self) -> ast.ModuleItem:
        pos = self.pos
        construct = self.texts[pos]
        self.collector.error(
            self._CODE_UNSUPPORTED,
            f"unsupported construct '{construct}' "
            "(not part of the synthesizable subset)",
            source=self.source,
            span=self._span(pos),
        )
        raise _ParseError(construct)

    def _parse_port_item(self) -> ast.ModuleItem:
        """A directional declaration in the body (non-ANSI style).

        ``input [3:0] a;`` returns one :class:`~repro.verilog.ast.PortDecl`.
        ``input [3:0] a, b;`` returns a :class:`_MultiItem` holding one
        PortDecl per name, all with the same direction, range and kind,
        which :func:`parse_verilog` flattens into the module's items.
        """
        direction = self.texts[self._advance()]
        is_reg = False
        signed = False
        if self.keys[self.pos] in {"wire", "reg"}:
            is_reg = self.keys[self.pos] == "reg"
            self.pos += 1
        if self.keys[self.pos] == "signed":
            signed = True
            self.pos += 1
        dims = self._parse_range() if self.keys[self.pos] == "[" else None
        decls: list[ast.PortDecl] = []
        while True:
            name_token = self._expect_ident(f"in '{direction}' declaration")
            decls.append(
                ast.PortDecl(
                    span=self._span(name_token),
                    direction=direction,
                    name=self.texts[name_token],
                    dims=dims,
                    is_reg=is_reg,
                    signed=signed,
                )
            )
            if self.keys[self.pos] != ",":
                break
            self.pos += 1
        self._expect(";", f"after '{direction}' declaration")
        if len(decls) == 1:
            return decls[0]
        return _MultiItem(span=decls[0].span, items=tuple(decls))

    def _parse_net_decl(self) -> ast.ModuleItem:
        kind = self.texts[self._advance()]
        signed = False
        if self.keys[self.pos] == "signed":
            signed = True
            self.pos += 1
        dims = self._parse_range() if self.keys[self.pos] == "[" else None
        decls: list[ast.NetDecl] = []
        while True:
            name_token = self._expect_ident(f"in '{kind}' declaration")
            init = None
            if self.keys[self.pos] == "=":
                self.pos += 1
                init = self.parse_expression()
            if self.keys[self.pos] == "[":
                raise self._error(
                    "memories (unpacked arrays) are not supported", self.pos
                )
            decls.append(
                ast.NetDecl(
                    span=self._span(name_token),
                    kind=kind,
                    name=self.texts[name_token],
                    dims=dims,
                    init=init,
                    signed=signed,
                )
            )
            if self.keys[self.pos] != ",":
                break
            self.pos += 1
        self._expect(";", f"after '{kind}' declaration")
        if len(decls) == 1:
            return decls[0]
        return _MultiItem(span=decls[0].span, items=tuple(decls))

    def _parse_param_decl(self) -> ast.ModuleItem:
        kind = self.texts[self._advance()]
        local = kind == "localparam"
        if self.keys[self.pos] == "[":
            self._parse_range()
        decls: list[ast.ParamDecl] = []
        while True:
            name_token = self._expect_ident(f"in '{kind}' declaration")
            name = self.texts[name_token]
            self._expect("=", f"after parameter '{name}'")
            value = self.parse_expression()
            decls.append(
                ast.ParamDecl(
                    span=self._span(name_token),
                    name=name,
                    value=value,
                    local=local,
                )
            )
            if self.keys[self.pos] != ",":
                break
            self.pos += 1
        self._expect(";", f"after '{kind}' declaration")
        if len(decls) == 1:
            return decls[0]
        return _MultiItem(span=decls[0].span, items=tuple(decls))

    def _parse_continuous_assign(self) -> ast.ContinuousAssign:
        start = self._advance()
        assigns: list[ast.ContinuousAssign] = []
        while True:
            target = self._parse_lvalue()
            self._expect("=", "in continuous assignment")
            value = self.parse_expression()
            assigns.append(
                ast.ContinuousAssign(
                    span=self._span_to(start, value),
                    target=target,
                    value=value,
                )
            )
            if self.keys[self.pos] != ",":
                break
            self.pos += 1
        self._expect(";", "after continuous assignment")
        if len(assigns) == 1:
            return assigns[0]
        return _MultiItem(span=assigns[0].span, items=tuple(assigns))

    def _parse_always(self) -> ast.AlwaysBlock:
        start = self._advance()
        sensitivity: ast.SensitivityList | None = None
        if self.keys[self.pos] == "@":
            self.pos += 1
            sensitivity = self._parse_sensitivity()
        body = self.parse_statement()
        return ast.AlwaysBlock(
            span=self._span_to(start, body),
            sensitivity=sensitivity,
            body=body,
        )

    def _parse_initial(self) -> ast.InitialBlock:
        start = self._advance()
        body = self.parse_statement()
        return ast.InitialBlock(span=self._span_to(start, body), body=body)

    def _parse_sensitivity(self) -> ast.SensitivityList:
        if self.keys[self.pos] == "*":
            star = self._advance()
            return ast.SensitivityList(span=self._span(star), items=(), star=True)
        open_token = self._expect("(", "after '@'")
        if self.keys[self.pos] == "*":
            self.pos += 1
            close = self._expect(")", "to close '@(*)'")
            return ast.SensitivityList(
                span=self._span(open_token, close), items=(), star=True
            )
        items: list[ast.SensitivityItem] = []
        while True:
            edge = "any"
            key = self.keys[self.pos]
            if key in {"posedge", "negedge"}:
                edge = "pos" if key == "posedge" else "neg"
                self.pos += 1
            signal = self.parse_expression()
            items.append(
                ast.SensitivityItem(span=signal.span, edge=edge, signal=signal)
            )
            if self.keys[self.pos] not in {"or", ","}:
                break
            self.pos += 1
        close = self._expect(")", "to close the sensitivity list")
        return ast.SensitivityList(
            span=self._span(open_token, close), items=tuple(items)
        )

    def _parse_instantiation(self) -> ast.Instantiation:
        module_token = self._advance()
        parameters: list[tuple[str, ast.Expression]] = []
        if self.keys[self.pos] == "#":
            self.pos += 1
            self._expect("(", "after '#' in instantiation")
            position = 0
            while self.keys[self.pos] != ")":
                if self.keys[self.pos] == ".":
                    self.pos += 1
                    pname = self.texts[self._expect_ident("in parameter override")]
                    self._expect("(", f"after parameter '.{pname}'")
                    parameters.append((pname, self.parse_expression()))
                    self._expect(")", f"to close parameter '.{pname}'")
                else:
                    parameters.append((f"#{position}", self.parse_expression()))
                    position += 1
                if self.keys[self.pos] == ",":
                    self.pos += 1
            self._expect(")", "to close the parameter overrides")
        instance_token = self._expect_ident(
            f"as instance name for module '{self.texts[module_token]}'"
        )
        self._expect("(", "to open the port connections")
        connections: list[ast.PortConnection] = []
        if self.keys[self.pos] != ")":
            while True:
                if self.keys[self.pos] == ".":
                    dot = self._advance()
                    pname = self.texts[
                        self._expect_ident("after '.' in port connection")
                    ]
                    self._expect("(", f"after port '.{pname}'")
                    expr = None
                    if self.keys[self.pos] != ")":
                        expr = self.parse_expression()
                    close = self._expect(")", f"to close port '.{pname}'")
                    connections.append(
                        ast.PortConnection(
                            span=self._span(dot, close), port=pname, expr=expr
                        )
                    )
                else:
                    expr = self.parse_expression()
                    connections.append(
                        ast.PortConnection(span=expr.span, port=None, expr=expr)
                    )
                if self.keys[self.pos] != ",":
                    break
                self.pos += 1
        close = self._expect(")", "to close the port connections")
        self._expect(";", "after module instantiation")
        return ast.Instantiation(
            span=self._span(module_token, close),
            module=self.texts[module_token],
            instance=self.texts[instance_token],
            parameters=tuple(parameters),
            connections=tuple(connections),
        )

    #: module item parsers by the key of the item's first token
    _MODULE_ITEMS = {
        **dict.fromkeys(("input", "output", "inout"), _parse_port_item),
        **dict.fromkeys(("wire", "reg", "integer"), _parse_net_decl),
        **dict.fromkeys(("parameter", "localparam"), _parse_param_decl),
        **dict.fromkeys(("function", "task", "generate", "genvar", "fork"),
                        _parse_unsupported_item),
        "assign": _parse_continuous_assign, "always": _parse_always,
        "initial": _parse_initial, _IDENT: _parse_instantiation,
    }

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
            parse = self._STATEMENTS.get(self.keys[self.pos])
            if parse is None:
                raise self._error(
                    f"syntax error near {self._describe(self.pos)}: "
                    "expected a statement"
                )
            return parse(self)
        finally:
            self._stmt_depth = depth

    def _skip_statement(self) -> None:
        """Consume one whole statement without parsing it.

        Tracks ``begin``/``end``, ``case``/``endcase`` and bracket nesting;
        the statement ends at a ``;`` or closing keyword outside all of them,
        unless an ``else`` follows that belongs to one of its open ``if``s.
        Stops before a closer it did not open and before ``endmodule``.
        """
        keys = self.keys
        nesting = 0
        open_ifs = 0
        while not self._at_eof():
            key = keys[self.pos]
            if key in {"endmodule", "module"}:
                return
            ends = False
            if key in {"begin", "case", "casez", "casex"}:
                nesting += 1
            elif key in {"end", "endcase"}:
                if not nesting:
                    return
                nesting -= 1
                ends = not nesting
            elif key in {"(", "[", "{"}:
                nesting += 1
            elif key in {")", "]", "}"}:
                nesting = max(0, nesting - 1)
            elif key == ";":
                ends = not nesting
            elif key == "if" and not nesting:
                open_ifs += 1
            self.pos += 1
            if ends:
                if not (open_ifs and keys[self.pos] == "else"):
                    return
                open_ifs -= 1
                self.pos += 1

    def _parse_block(self) -> ast.Block:
        keys = self.keys
        start = self._advance()
        label = ""
        if keys[self.pos] == ":":
            self.pos += 1
            label = self.texts[self._expect_ident("as block label")]
        statements: list[ast.Statement] = []
        while not self._at_eof() and keys[self.pos] != "end":
            if keys[self.pos] in {"endmodule", "endcase", "module"}:
                raise self._error(
                    f"syntax error near {self._describe(self.pos)}: "
                    "missing 'end' to close 'begin' block"
                )
            before = self.pos
            try:
                statements.append(self.parse_statement())
            except _ParseError:
                self._sync_to_semicolon()
                if keys[self.pos] in {"endmodule", "module"}:
                    raise
                if self.pos == before:
                    self._advance()  # recovery made no progress: force it
        end = self._expect("end", "to close 'begin' block")
        return ast.Block(
            span=self._span(start, end), statements=tuple(statements), label=label
        )

    def _parse_if(self) -> ast.If:
        start = self._advance()
        self._expect("(", "after 'if'")
        condition = self.parse_expression()
        self._expect(")", "to close the 'if' condition")
        then_branch = self.parse_statement()
        else_branch = None
        if self.keys[self.pos] == "else":
            self.pos += 1
            else_branch = self.parse_statement()
        last = else_branch if else_branch is not None else then_branch
        return ast.If(
            span=self._span_to(start, last),
            condition=condition,
            then_branch=then_branch,
            else_branch=else_branch,
        )

    def _parse_case(self) -> ast.Case:
        keys = self.keys
        start = self._advance()
        kind = self.texts[start]
        self._expect("(", f"after '{kind}'")
        subject = self.parse_expression()
        self._expect(")", f"to close the '{kind}' subject")
        items: list[ast.CaseItem] = []
        while not self._at_eof() and keys[self.pos] != "endcase":
            if keys[self.pos] in {"endmodule", "module"}:
                raise self._error(
                    f"syntax error: missing 'endcase' for '{kind}' statement"
                )
            if keys[self.pos] == "default":
                token = self._advance()
                if keys[self.pos] == ":":
                    self.pos += 1
                body = self.parse_statement()
                items.append(
                    ast.CaseItem(span=self._span(token), labels=(), body=body)
                )
                continue
            labels = [self.parse_expression()]
            while keys[self.pos] == ",":
                self.pos += 1
                labels.append(self.parse_expression())
            self._expect(":", "after case label")
            body = self.parse_statement()
            items.append(
                ast.CaseItem(span=labels[0].span, labels=tuple(labels), body=body)
            )
        end = self._expect("endcase", f"to close '{kind}'")
        return ast.Case(
            span=self._span(start, end),
            kind=kind,
            subject=subject,
            items=tuple(items),
        )

    def _parse_for(self) -> ast.For:
        start = self._advance()
        self._expect("(", "after 'for'")
        init = self._parse_plain_assign("in 'for' initialization")
        self._expect(";", "after 'for' initialization")
        condition = self.parse_expression()
        self._expect(";", "after 'for' condition")
        step = self._parse_plain_assign("in 'for' step")
        self._expect(")", "to close the 'for' header")
        body = self.parse_statement()
        return ast.For(
            span=self._span_to(start, body),
            init=init,
            condition=condition,
            step=step,
            body=body,
        )

    def _parse_plain_assign(self, context: str) -> ast.Assign:
        target = self._parse_lvalue()
        pos = self.pos
        key = self.keys[pos]
        if key != "=" and key != "<=":
            raise self._error(
                f"syntax error near {self._describe(pos)}: expected '=' {context}"
            )
        self.pos = pos + 1
        value = self.parse_expression()
        return ast.Assign(
            span=value.span, target=target, value=value, blocking=key == "="
        )

    def _parse_repeat(self) -> ast.Repeat:
        start = self._advance()
        self._expect("(", "after 'repeat'")
        count = self.parse_expression()
        self._expect(")", "to close the 'repeat' count")
        body = self.parse_statement()
        return ast.Repeat(span=self._span_to(start, body), count=count, body=body)

    def _parse_while(self) -> ast.While:
        start = self._advance()
        self._expect("(", "after 'while'")
        condition = self.parse_expression()
        self._expect(")", "to close the 'while' condition")
        body = self.parse_statement()
        return ast.While(
            span=self._span_to(start, body), condition=condition, body=body
        )

    def _parse_forever(self) -> ast.Forever:
        start = self._advance()
        body = self.parse_statement()
        return ast.Forever(span=self._span_to(start, body), body=body)

    def _parse_delay(self) -> ast.DelayControl:
        start = self._advance()  # '#'
        delay = self.parse_primary()
        statement: ast.Statement | None = None
        if self.keys[self.pos] == ";":
            self.pos += 1
        else:
            statement = self.parse_statement()
        return ast.DelayControl(
            span=self._span_to(start, delay), delay=delay, statement=statement
        )

    def _parse_event_control(self) -> ast.EventControl:
        start = self._advance()  # '@'
        sensitivity = self._parse_sensitivity()
        statement: ast.Statement | None = None
        if self.keys[self.pos] == ";":
            self.pos += 1
        else:
            statement = self.parse_statement()
        return ast.EventControl(
            span=self._span_to(start, sensitivity),
            sensitivity=sensitivity,
            statement=statement,
        )

    def _parse_system_task(self) -> ast.SystemTaskCall:
        token = self._advance()
        name = self.texts[token]
        args: tuple[ast.Expression, ...] = ()
        if self.keys[self.pos] == "(":
            args = self._parse_arguments(f"to close '{name}' arguments")
        self._expect(";", f"after '{name}'")
        return ast.SystemTaskCall(span=self._span(token), name=name, args=args)

    def _parse_null_statement(self) -> ast.NullStatement:
        return ast.NullStatement(span=self._span(self._advance()))

    def _parse_assignment_statement(self) -> ast.Assign:
        target = self._parse_lvalue()
        pos = self.pos
        key = self.keys[pos]
        if key != "=" and key != "<=":
            raise self._error(
                f"syntax error near {self._describe(pos)}: "
                "expected '=' or '<=' in assignment"
            )
        self.pos = pos + 1
        if self.keys[pos + 1] == "#":
            raise self._error("intra-assignment delays are not supported", pos + 1)
        value = self.parse_expression()
        semi = self._expect(";", "after assignment")
        return ast.Assign(
            span=target.span.merge(self._span(semi)),
            target=target,
            value=value,
            blocking=key == "=",
        )

    def _parse_lvalue(self) -> ast.LValue:
        pos = self.pos
        if self.keys[pos] == "{":
            expr = self.parse_primary()
            if not isinstance(expr, ast.Concat):
                raise self._error("invalid left-hand side of assignment", pos)
            return expr
        name_token = self._expect_ident("as assignment target")
        if self.keys[self.pos] == "[":
            return self._parse_select(name_token)
        return ast.Identifier(
            span=self._span(name_token), name=self.texts[name_token]
        )

    #: statement parsers by the key of the statement's first token
    _STATEMENTS = {
        _IDENT: _parse_assignment_statement, "{": _parse_assignment_statement,
        **dict.fromkeys(("case", "casez", "casex"), _parse_case),
        "begin": _parse_block, "if": _parse_if, "for": _parse_for,
        "repeat": _parse_repeat, "while": _parse_while,
        "forever": _parse_forever, "#": _parse_delay, "@": _parse_event_control,
        TokenKind.SYSTEM_ID: _parse_system_task, ";": _parse_null_statement,
    }

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
            if self.keys[self.pos] == "?":
                self.pos += 1
                if_true = self.parse_expression()
                self._expect(":", "in conditional expression")
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
        keys = self.keys
        binding = self._BINARY_PREC.get
        while True:
            key = keys[self.pos]
            prec = binding(key, 0)
            if prec < min_prec:
                return lhs
            self.pos += 1
            rhs = self._parse_binary(prec + 1)
            lhs = ast.Binary(lhs.span.merge(rhs.span), key, lhs, rhs)

    def _parse_unary(self) -> ast.Expression:
        pos = self.pos
        op = self.keys[pos]
        parse = self._PRIMARIES.get(op)
        if parse is not None:
            return parse(self)
        if op not in {"+", "-", "!", "~", "&", "|", "^"}:
            return self.parse_primary()  # reports the missing expression
        depth = self._nest()
        self.pos = pos + 1
        # reduction nand/nor/xnor: ~& ~| ~^ arrive as '~' followed by op
        if op == "~" and self.keys[pos + 1] in {"&", "|", "^"}:
            op += self.keys[pos + 1]
            self.pos = pos + 2
        operand = self._parse_unary()
        self._depth = depth
        return ast.Unary(span=self._span_to(pos, operand), op=op, operand=operand)

    def parse_primary(self) -> ast.Expression:
        parse = self._PRIMARIES.get(self.keys[self.pos])
        if parse is None:
            raise self._error(
                f"syntax error near {self._describe(self.pos)}: "
                "expected an expression"
            )
        return parse(self)

    def _parse_name(self) -> ast.Expression:
        pos = self.pos
        self.pos = pos + 1
        if self.keys[pos + 1] == "[":
            return self._parse_select(pos)
        return ast.Identifier(self._span(pos), self.texts[pos])

    def _parse_number(self) -> ast.Number:
        pos = self._advance()
        text = self.texts[pos]
        try:
            value, sized = parse_number_literal(text)
        except (ValueError, KeyError):
            raise self._error(f"malformed numeric literal '{text}'", pos)
        return ast.Number(self._span(pos), value, sized)

    def _parse_string(self) -> ast.StringLiteral:
        pos = self._advance()
        return ast.StringLiteral(span=self._span(pos), value=self.texts[pos][1:-1])

    def _parse_system_call(self) -> ast.SystemFunctionCall:
        pos = self._advance()
        name = self.texts[pos]
        args: tuple[ast.Expression, ...] = ()
        if self.keys[self.pos] == "(":
            args = self._parse_arguments(f"to close '{name}'")
        return ast.SystemFunctionCall(span=self._span(pos), name=name, args=args)

    def _parse_arguments(self, context: str) -> tuple[ast.Expression, ...]:
        """The parenthesized arguments of a system task or function."""
        self.pos += 1  # '('
        args: list[ast.Expression] = []
        if self.keys[self.pos] != ")":
            while True:
                args.append(self.parse_expression())
                if self.keys[self.pos] != ",":
                    break
                self.pos += 1
        self._expect(")", context)
        return tuple(args)

    def _parse_parenthesized(self) -> ast.Expression:
        self.pos += 1  # '('
        inner = self.parse_expression()
        self._expect(")", "to close parenthesized expression")
        return inner

    def _parse_select(self, name_token: int) -> ast.Expression:
        self._expect("[", "in bit/part select")
        first = self.parse_expression()
        target = self.texts[name_token]
        key = self.keys[self.pos]
        if key == ":":
            self.pos += 1
            lsb = self.parse_expression()
            close = self._expect("]", "to close part select")
            return ast.PartSelect(
                span=self._span(name_token, close),
                target=target,
                msb=first,
                lsb=lsb,
            )
        if key == "+:" or key == "-:":
            self.pos += 1
            width = self.parse_expression()
            close = self._expect("]", "to close indexed part select")
            return ast.IndexedPartSelect(
                span=self._span(name_token, close),
                target=target,
                base=first,
                width=width,
                ascending=key == "+:",
            )
        close = self._expect("]", "to close bit select")
        return ast.BitSelect(
            span=self._span(name_token, close),
            target=target,
            index=first,
        )

    def _parse_concat(self) -> ast.Expression:
        keys = self.keys
        open_token = self._advance()  # '{'
        first = self.parse_expression()
        if keys[self.pos] == "{":
            # replication: {N{expr}}
            self.pos += 1
            value = self.parse_expression()
            while keys[self.pos] == ",":
                self.pos += 1
                nxt = self.parse_expression()
                value = ast.Concat(
                    span=value.span.merge(nxt.span),
                    parts=_concat_parts(value) + (nxt,),
                )
            self._expect("}", "to close replication operand")
            close = self._expect("}", "to close replication")
            return ast.Replicate(
                span=self._span(open_token, close), count=first, value=value
            )
        parts = [first]
        while keys[self.pos] == ",":
            self.pos += 1
            parts.append(self.parse_expression())
        close = self._expect("}", "to close concatenation")
        return ast.Concat(span=self._span(open_token, close), parts=tuple(parts))

    #: primary parsers by the key of the primary's first token
    _PRIMARIES = {
        _IDENT: _parse_name, TokenKind.STRING: _parse_string,
        TokenKind.NUMBER: _parse_number, TokenKind.BASED_NUMBER: _parse_number,
        TokenKind.SYSTEM_ID: _parse_system_call,
        "(": _parse_parenthesized, "{": _parse_concat,
    }


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
