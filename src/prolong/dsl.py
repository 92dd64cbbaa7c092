"""Model-file language: declarations, expressions, printing.

A model file declares one context (a coordinate chart, a jet family over
(x, t), or a free differential graded algebra) followed by named forms,
exterior ideals, spectral families, linear connections, and section
(elimination) chains.  The expression grammar is infix with `+ - * /`,
wedge `^` (same precedence as `*`, left associative), integer powers
`**`, differentials `d(...)`, exponentials `exp(...)`, the imaginary
unit `i`, and `#` comments.  Printing emits canonical text that parses
back to the same model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

import sympy as sp

from .coeff import I, LaurentInEta, Scalar
from .forms import DerivationContext, Form
from .jets import jet, split_jet
from .su2 import AKNSSpec
from .we import ConnectionData, ExteriorIdeal

__all__ = ["DslError", "ModelFile", "parse", "parse_path", "print_model",
           "print_scalar", "print_form"]


class DslError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, column {col}: {message}" if line else message)
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<pow>\*\*)
  | (?P<arrow>->)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op>[{}\[\](),=^+\-*/])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "newline":
            tokens.append(Token("newline", value, line, col))
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append(Token(kind, value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass
class ModelFile:
    """Parsed model: one context plus the named objects defined over it."""

    kind: str | None = None  # 'chart' | 'jet' | 'dga'
    coordinates: tuple = ()
    jet_fields: tuple = ()
    scalars: tuple = ()
    params: tuple = ()
    oneforms: tuple = ()
    twoforms: tuple = ()
    rules: dict = field(default_factory=dict)  # name -> Form
    ctx: DerivationContext | None = None
    lets: dict = field(default_factory=dict)  # name -> Scalar
    forms: dict = field(default_factory=dict)  # name -> Form
    ideals: dict = field(default_factory=dict)  # name -> ExteriorIdeal
    akns: dict = field(default_factory=dict)  # name -> AKNSSpec
    connections: dict = field(default_factory=dict)  # name -> ConnectionData
    sections: dict = field(default_factory=dict)  # ideal name -> ((var, Scalar), ...)


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.model = ModelFile()
        self._pending_rules: list = []
        self._pending_defs: list = []

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            wanted = text or kind
            raise DslError(f"expected {wanted!r}, found {tok.text or tok.kind!r}",
                           tok.line, tok.col)
        return self.advance()

    def skip_newlines(self):
        while self.peek().kind == "newline":
            self.advance()

    def end_statement(self):
        tok = self.peek()
        if tok.kind in ("newline", "eof"):
            self.skip_newlines()
            return
        if tok.kind == "op" and tok.text == "}":
            return
        raise DslError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)

    # -- statements -------------------------------------------------------------

    def parse(self) -> ModelFile:
        self.skip_newlines()
        while self.peek().kind != "eof":
            tok = self.expect("name")
            handler = getattr(self, f"_stmt_{tok.text}", None)
            if handler is None:
                raise DslError(f"unknown declaration {tok.text!r}", tok.line, tok.col)
            handler()
            self.skip_newlines()
        try:
            self._build()
        except DslError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            # engine-level rejections (degree mismatches, bad families,
            # undefined divisions) surface as structured input errors
            raise DslError(str(exc)) from exc
        return self.model

    def _names_until_newline(self) -> tuple:
        names = []
        while self.peek().kind == "name":
            names.append(self.advance().text)
        self.end_statement()
        if not names:
            raise DslError("expected at least one name", self.peek().line, self.peek().col)
        return tuple(names)

    def _set_kind(self, kind: str, tok_hint: str):
        if self.model.kind is None:
            self.model.kind = kind
            return
        if self.model.kind != kind:
            raise DslError(
                f"{tok_hint} cannot be mixed with a {self.model.kind} context")
        # repeated declarations of the same kind extend it

    def _stmt_chart(self):
        self._set_kind("chart", "chart")
        names = self._names_until_newline()
        if len(names) < 2:
            raise DslError("chart needs the base pair plus fields")
        self.model.coordinates += names

    def _stmt_jet(self):
        self._set_kind("jet", "jet")
        self.model.jet_fields += self._names_until_newline()

    def _stmt_scalars(self):
        self._set_kind("dga", "scalars")
        self.model.scalars += self._names_until_newline()

    def _stmt_params(self):
        self.model.params += self._names_until_newline()

    def _stmt_oneform(self):
        self._set_kind("dga", "oneform")
        self.model.oneforms += self._names_until_newline()

    def _stmt_twoform(self):
        self._set_kind("dga", "twoform")
        self.model.twoforms += self._names_until_newline()

    def _stmt_rule(self):
        self.expect("name", "d")
        target = self.expect("name").text
        self.expect("op", "=")
        expr_tokens = self._capture_expression()
        self.end_statement()
        self._pending_rules.append((target, expr_tokens))

    def _stmt_let(self):
        name = self.expect("name").text
        self.expect("op", "=")
        self._pending_defs.append(("let", name, self._capture_expression(), None))
        self.end_statement()

    def _stmt_form(self):
        name = self.expect("name").text
        self.expect("op", "=")
        self._pending_defs.append(("form", name, self._capture_expression(), None))
        self.end_statement()

    def _block_items(self) -> list:
        self.expect("op", "{")
        self.skip_newlines()
        items = []
        while not (self.peek().kind == "op" and self.peek().text == "}"):
            name = self.expect("name").text
            sep = self.peek()
            if sep.kind == "op" and sep.text == "=":
                self.advance()
                items.append((name, "=", self._capture_expression()))
            elif sep.kind == "arrow":
                self.advance()
                items.append((name, "->", self._capture_expression()))
            else:
                raise DslError("expected '=' or '->'", sep.line, sep.col)
            self.end_statement()
            self.skip_newlines()
        self.expect("op", "}")
        return items

    def _stmt_ideal(self):
        name = self.expect("name").text
        self._pending_defs.append(("ideal", name, None, self._block_items()))
        self.end_statement()

    def _stmt_akns(self):
        name = self.expect("name").text
        self._pending_defs.append(("akns", name, None, self._block_items()))
        self.end_statement()

    def _stmt_connection(self):
        name = self.expect("name").text
        self._pending_defs.append(("connection", name, None, self._block_items()))
        self.end_statement()

    def _stmt_section(self):
        name = self.expect("name").text
        self._pending_defs.append(("section", name, None, self._block_items()))
        self.end_statement()

    def _capture_expression(self) -> list:
        """Tokens of one expression, up to newline, '}', or ','."""
        depth = 0
        out = []
        while True:
            tok = self.peek()
            if tok.kind in ("newline", "eof"):
                break
            if tok.kind == "op" and tok.text in "([{":
                depth += 1
            if tok.kind == "op" and tok.text in ")]}":
                if depth == 0:
                    break
                depth -= 1
            out.append(self.advance())
        if not out:
            raise DslError("expected an expression", tok.line, tok.col)
        return out

    # -- model assembly -------------------------------------------------------

    def _build(self):
        m = self.model
        if m.kind == "chart":
            ctx = DerivationContext()
            for name in m.coordinates:
                ctx.add_scalar(name)
            for name in m.params:
                ctx.add_parameter(name)
        elif m.kind == "jet":
            ctx = DerivationContext()
            ctx.add_scalar("x")
            ctx.add_scalar("t")
            ctx.set_jet_mode(m.jet_fields)
        elif m.kind == "dga":
            ctx = DerivationContext()
            for name in m.oneforms:
                ctx.add_generator(name, 1)
            for name in m.scalars:
                ctx.add_scalar(name)
            for name in m.params:
                ctx.add_parameter(name)
            for name in m.twoforms:
                ctx.add_generator(name, 2)
        elif self._pending_rules or self._pending_defs:
            raise DslError("definitions require a context declaration first")
        else:
            m.ctx = None
            return
        m.ctx = ctx
        for target, tokens in self._pending_rules:
            rule = self._eval_tokens(tokens, allow_jets=(m.kind == "jet"))
            if not isinstance(rule, Form):
                rule = ctx.scalar_form(rule)
            ctx.set_rule(target, rule)
            m.rules[target] = rule
        ctx.freeze()
        for kind, name, tokens, items in self._pending_defs:
            if kind == "let":
                value = self._eval_tokens(tokens, allow_jets=(m.kind == "jet"))
                if isinstance(value, Form):
                    raise DslError(f"let {name} must be a scalar")
                m.lets[name] = value
            elif kind == "form":
                value = self._eval_tokens(tokens, allow_jets=(m.kind == "jet"))
                if not isinstance(value, Form):
                    value = ctx.scalar_form(value)
                m.forms[name] = value
            elif kind == "ideal":
                self._build_ideal(name, items)
            elif kind == "akns":
                self._build_akns(name, items)
            elif kind == "connection":
                self._build_connection(name, items)
            elif kind == "section":
                self._build_section(name, items)

    def _build_ideal(self, name, items):
        m = self.model
        if m.kind != "chart":
            raise DslError("ideals need a chart context")
        gen_names, gens = [], []
        for gname, sep, tokens in items:
            if sep != "=":
                raise DslError(f"ideal {name}: use '=' for generators")
            value = self._eval_tokens(tokens, allow_jets=False)
            if not isinstance(value, Form) or value.degree < 1:
                raise DslError(f"ideal generator {gname} must be a form")
            gen_names.append(gname)
            gens.append(value)
        m.ideals[name] = ExteriorIdeal(
            ctx=m.ctx,
            names=tuple(gen_names),
            generators=tuple(gens),
            coordinates=m.coordinates,
            parameters=m.params,
        )

    def _build_akns(self, name, items):
        m = self.model
        if m.kind != "jet":
            raise DslError("spectral families need a jet context")
        fields = {}
        for fname, sep, tokens in items:
            if sep != "=" or fname not in ("r", "q", "A", "B", "C"):
                raise DslError(f"akns {name}: entries are r, q, A, B, C")
            value = self._eval_tokens(tokens, allow_jets=True)
            if isinstance(value, Form):
                raise DslError(f"akns {name}: {fname} must be a scalar")
            fields[fname] = value
        missing = {"r", "q", "A", "B", "C"} - set(fields)
        if missing:
            raise DslError(f"akns {name}: missing {sorted(missing)}")
        m.akns[name] = AKNSSpec(
            name=name,
            deps=m.jet_fields,
            r=fields["r"],
            q=fields["q"],
            A=LaurentInEta.from_scalar(fields["A"]),
            B=LaurentInEta.from_scalar(fields["B"]),
            C=LaurentInEta.from_scalar(fields["C"]),
        )

    def _build_connection(self, name, items):
        m = self.model
        mats = {}
        for fname, sep, tokens in items:
            if sep != "=" or fname not in ("F", "G"):
                raise DslError(f"connection {name}: entries are F and G")
            mats[fname] = self._eval_matrix(tokens)
        if set(mats) != {"F", "G"}:
            raise DslError(f"connection {name}: both F and G are required")
        m.connections[name] = ConnectionData(F=mats["F"], G=mats["G"])

    def _build_section(self, name, items):
        m = self.model
        if name not in m.ideals:
            raise DslError(f"section references unknown ideal {name!r}")
        chain = []
        for var, sep, tokens in items:
            if sep != "->":
                raise DslError(f"section {name}: use 'var -> expression'")
            if var not in m.coordinates:
                raise DslError(f"section {name}: {var} is not a chart coordinate")
            value = self._eval_tokens(tokens, allow_jets=True)
            if isinstance(value, Form):
                raise DslError(f"section {name}: replacement must be a jet scalar")
            chain.append((var, value))
        m.sections[name] = tuple(chain)

    # -- expression evaluation ---------------------------------------------------

    def _eval_matrix(self, tokens):
        ev = _ExprEval(self.model, tokens, allow_jets=True)
        rows = ev.matrix()
        ev.finish()
        return rows

    def _eval_tokens(self, tokens, allow_jets: bool):
        ev = _ExprEval(self.model, tokens, allow_jets=allow_jets)
        value = ev.expression()
        ev.finish()
        return value


class _ExprEval:
    def __init__(self, model: ModelFile, tokens: Sequence[Token], allow_jets: bool):
        self.model = model
        self.tokens = list(tokens) + [Token("eof", "", 0, 0)]
        self.pos = 0
        self.allow_jets = allow_jets

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect_op(self, text: str):
        tok = self.peek()
        if not (tok.kind == "op" and tok.text == text):
            raise DslError(f"expected {text!r}", tok.line, tok.col)
        return self.advance()

    def finish(self):
        tok = self.peek()
        if tok.kind != "eof":
            raise DslError(f"unexpected {tok.text!r}", tok.line, tok.col)

    # grammar: expression := term (('+'|'-') term)*
    #          term       := power (('*'|'^'|'/') power)*
    #          power      := unary ('**' unary)?
    #          unary      := '-' unary | atom

    def expression(self):
        value = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            value = self._add(value, rhs) if op == "+" else self._add(value, self._neg(rhs))
        return value

    def term(self):
        value = self.power()
        while self.peek().kind == "op" and self.peek().text in "*^/":
            op = self.advance().text
            rhs = self.power()
            if op == "/":
                value = self._div(value, rhs)
            else:
                value = self._mul(value, rhs)
        return value

    def power(self):
        value = self.unary()
        if self.peek().kind == "pow":
            tok = self.advance()
            exponent = self.unary()
            if isinstance(exponent, Form):
                raise DslError("exponent must be an integer", tok.line, tok.col)
            e = Scalar.of(exponent).expr
            if not e.is_Integer:
                raise DslError("exponent must be an integer", tok.line, tok.col)
            if isinstance(value, Form):
                raise DslError("cannot exponentiate a form", tok.line, tok.col)
            return Scalar.of(value) ** int(e)
        return value

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return self._neg(self.unary())
        return self.atom()

    def atom(self):
        tok = self.advance()
        if tok.kind == "int":
            return Scalar.of(int(tok.text))
        if tok.kind == "op" and tok.text == "(":
            value = self.expression()
            self.expect_op(")")
            return value
        if tok.kind == "name":
            if tok.text == "d" and self.peek().kind == "op" and self.peek().text == "(":
                self.advance()
                inner = self.expression()
                self.expect_op(")")
                return self._differential(inner, tok)
            if tok.text == "exp" and self.peek().kind == "op" and self.peek().text == "(":
                self.advance()
                inner = self.expression()
                self.expect_op(")")
                if isinstance(inner, Form):
                    raise DslError("exp takes a scalar", tok.line, tok.col)
                return Scalar(sp.exp(Scalar.of(inner).expr))
            return self._resolve(tok)
        raise DslError(f"unexpected {tok.text or tok.kind!r}", tok.line, tok.col)

    def matrix(self):
        self.expect_op("[")
        rows = []
        while True:
            rows.append(self._matrix_row())
            if self.peek().kind == "op" and self.peek().text == ",":
                self.advance()
                continue
            break
        self.expect_op("]")
        width = {len(r) for r in rows}
        if len(width) != 1:
            raise DslError("matrix rows must have equal length")
        return tuple(rows)

    def _matrix_row(self):
        self.expect_op("[")
        row = []
        while True:
            value = self.expression()
            if isinstance(value, Form):
                raise DslError("matrix entries must be scalars")
            row.append(Scalar.of(value))
            if self.peek().kind == "op" and self.peek().text == ",":
                self.advance()
                continue
            break
        self.expect_op("]")
        return tuple(row)

    # -- helpers ----------------------------------------------------------------

    def _differential(self, inner, tok: Token):
        ctx = self.model.ctx
        if ctx is None:
            raise DslError("no context declared", tok.line, tok.col)
        if isinstance(inner, Form):
            return inner.d()
        return ctx.d_scalar(Scalar.of(inner))

    def _resolve(self, tok: Token):
        m = self.model
        name = tok.text
        if name == "i":
            return I
        if name in m.lets:
            return m.lets[name]
        if name in m.forms:
            return m.forms[name]
        ctx = m.ctx
        if ctx is not None:
            try:
                idx = ctx.index_of(name)
            except Exception:
                idx = None
            if idx is not None:
                return ctx.gen(name)
        if name in m.params:
            return Scalar(sp.Symbol(name))
        if m.kind == "chart" and name in m.coordinates:
            return Scalar(sp.Symbol(name))
        if m.kind == "dga" and name in m.scalars:
            return Scalar(sp.Symbol(name))
        parts = split_jet(sp.Symbol(name))
        if parts is not None and self.allow_jets:
            var, nx, nt = parts
            known = var in m.jet_fields or (m.kind == "chart" and var in m.coordinates)
            if known:
                return Scalar(jet(var, nx, nt))
        raise DslError(f"unknown symbol {name!r}", tok.line, tok.col)

    def _neg(self, value):
        return -value

    def _add(self, a, b):
        if isinstance(a, Form) or isinstance(b, Form):
            a = self._as_form(a)
            b = self._as_form(b)
            return a + b
        return Scalar.of(a) + Scalar.of(b)

    def _as_form(self, value):
        if isinstance(value, Form):
            return value
        return self.model.ctx.scalar_form(Scalar.of(value))

    def _mul(self, a, b):
        if isinstance(a, Form) and isinstance(b, Form):
            return a.wedge(b)
        if isinstance(a, Form):
            return a * Scalar.of(b)
        if isinstance(b, Form):
            return b * Scalar.of(a)
        return Scalar.of(a) * Scalar.of(b)

    def _div(self, a, b):
        if isinstance(b, Form):
            if b.degree == 0:
                b = b.as_scalar()
            else:
                raise DslError("division by a form")
        if isinstance(a, Form):
            return a * (Scalar.of(1) / Scalar.of(b))
        return Scalar.of(a) / Scalar.of(b)


def parse(text: str) -> ModelFile:
    return _Parser(text).parse()


def parse_path(path) -> ModelFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


class _DslPrinter(sp.printing.str.StrPrinter):
    def _print_ImaginaryUnit(self, expr):
        return "i"


_PRINTER = _DslPrinter()


def print_scalar(value: Scalar) -> str:
    return _PRINTER.doprint(Scalar.of(value).expr)


def _coeff_prefix(coeff: Scalar) -> str:
    text = print_scalar(coeff)
    if text == "1":
        return ""
    if text == "-1":
        return "-"
    if ("+" in text[1:] or "-" in text[1:] or "/" in text or " " in text) and not (
        text.startswith("(") and text.endswith(")")
    ):
        text = f"({text})"
    return f"{text}*"


def print_form(f: Form) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for mono, coeff in f.terms.items():
        names = "^".join(f.ctx.name_of(i) for i in mono)
        if not mono:
            parts.append(print_scalar(coeff))
        else:
            parts.append(f"{_coeff_prefix(coeff)}{names}")
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += f" - {part[1:]}"
        else:
            out += f" + {part}"
    return out


def print_model(m: ModelFile) -> str:
    lines: list[str] = []
    if m.kind == "chart":
        lines.append("chart " + " ".join(m.coordinates))
    elif m.kind == "jet":
        lines.append("jet " + " ".join(m.jet_fields))
    elif m.kind == "dga":
        if m.oneforms:
            lines.append("oneform " + " ".join(m.oneforms))
        if m.scalars:
            lines.append("scalars " + " ".join(m.scalars))
        if m.twoforms:
            lines.append("twoform " + " ".join(m.twoforms))
    if m.params:
        lines.append("params " + " ".join(m.params))
    for name, rule in m.rules.items():
        lines.append(f"rule d {name} = {print_form(rule)}")
    for name, value in m.lets.items():
        lines.append(f"let {name} = {print_scalar(value)}")
    for name, value in m.forms.items():
        lines.append(f"form {name} = {print_form(value)}")
    for name, ideal in m.ideals.items():
        lines.append(f"ideal {name} {{")
        for gname, gen in zip(ideal.names, ideal.generators):
            lines.append(f"  {gname} = {print_form(gen)}")
        lines.append("}")
    for name, spec in m.akns.items():
        lines.append(f"akns {name} {{")
        lines.append(f"  r = {print_scalar(spec.r)}")
        lines.append(f"  q = {print_scalar(spec.q)}")
        for label in ("A", "B", "C"):
            lines.append(f"  {label} = {print_scalar(getattr(spec, label).to_scalar())}")
        lines.append("}")
    for name, conn in m.connections.items():
        lines.append(f"connection {name} {{")
        for label, rows in (("F", conn.F), ("G", conn.G)):
            body = ", ".join(
                "[" + ", ".join(print_scalar(c) for c in row) + "]" for row in rows
            )
            lines.append(f"  {label} = [{body}]")
        lines.append("}")
    for name, chain in m.sections.items():
        lines.append(f"section {name} {{")
        for var, value in chain:
            lines.append(f"  {var} -> {print_scalar(value)}")
        lines.append("}")
    return "\n".join(lines) + "\n"
