"""Model-file language: declarations, expressions, printing.

A model file declares one context (a coordinate chart, a jet family over
(x, t), or a free differential graded algebra), then gives the
differential rules of a free algebra, then defines named forms, exterior
ideals, spectral families, linear connections, and section (elimination)
chains.  The reader makes one pass: each statement is evaluated as it is
read, the context is rebuilt with its names at each declaration and with
its rule table at each rule, and a statement out of that order is a
DslError with its line and column.  The context owns the declared names
and the rules.  The expression grammar is infix with `+ - * /`, wedge
`^` (same precedence as `*`, left associative), integer powers `**`
(binding tighter than unary minus, so `-x**2` is `-(x**2)`),
differentials `d(...)`, exponentials `exp(...)`, the imaginary unit `i`,
and `#` comments.
Printing emits canonical text that parses back to the same model: a
scalar or form prints as its ``str``, which the scalar core writes from
the stored polynomial pairs (see ``coeff``), and ``print_scalar`` and
``print_form`` are the entry points reports call.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .coeff import I, ONE, Scalar, exp_atom, sym
from .forms import ContextError, DerivationContext, Form
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
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

Token = namedtuple("Token", "kind text line col")


def tokenize(text: str) -> list:
    tokens = []
    line, start = 1, 0  # start: the offset where the current line starts
    for m in _TOKEN_RE.finditer(text):
        kind, col = m.lastgroup, m.start() - start + 1
        if kind == "bad":
            raise DslError(f"unexpected character {m.group()!r}", line, col)
        if kind != "ws" and kind != "comment":
            tokens.append(Token(kind, m.group(), line, col))
        if kind == "newline":
            line, start = line + 1, m.end()
    tokens.append(Token("eof", "", line, len(text) - start + 1))
    return tokens


def _describe(tok: Token) -> str:
    """A token as an error message names it."""
    if tok.kind == "newline":
        return "end of line"
    if tok.kind == "eof":
        return "end of file"
    return repr(tok.text)


def _integer(value) -> int | None:
    """The integer a scalar equals, read from its stored pair (a constant,
    real, integer numerator over 1), else None."""
    if isinstance(value, Form):
        return None
    if value.den != ONE.den or not value.num.keys() <= {()}:
        return None
    c = value.num.get(())
    if c is None:
        return 0
    return None if c.y else int(c.x)


class ModelFile:
    """Parsed model: one context, which holds the declared names and the
    rules, plus the named objects defined over it.  The reader fills it in
    as it reads, so it is not immutable."""

    __slots__ = ("kind", "ctx", "lets", "forms", "ideals", "akns", "connections", "sections")

    def __init__(self):
        self.kind = None  # 'chart' | 'jet' | 'dga'
        self.ctx = DerivationContext()  # rebuilt at each declaration and rule
        self.lets = {}  # name -> Scalar
        self.forms = {}  # name -> Form
        self.ideals = {}  # name -> ExteriorIdeal
        self.akns = {}  # name -> AKNSSpec
        self.connections = {}  # name -> ConnectionData
        self.sections = {}  # ideal name -> ((var, Scalar), ...)


# Statement keyword -> (stage, context kind it declares, the context's
# declared names or the ModelFile field it fills), in the order a model
# prints.  Statements come in stage order: declarations, then rules, then
# definitions.
_DECLARATION, _RULE, _DEFINITION = range(3)
_STAGE_NAMES = ("declaration", "rule", "definition")
_STATEMENTS = {
    "chart": (_DECLARATION, "chart", "scalars"),
    "jet": (_DECLARATION, "jet", "jet_fields"),
    "oneform": (_DECLARATION, "dga", "one_forms"),
    "scalars": (_DECLARATION, "dga", "scalars"),
    "twoform": (_DECLARATION, "dga", "two_forms"),
    "params": (_DECLARATION, None, "params"),
    "rule": (_RULE, None, None),
    "let": (_DEFINITION, None, "lets"),
    "form": (_DEFINITION, None, "forms"),
    "ideal": (_DEFINITION, None, "ideals"),
    "akns": (_DEFINITION, None, "akns"),
    "connection": (_DEFINITION, None, "connections"),
    "section": (_DEFINITION, None, "sections"),
}
_AKNS_ENTRIES = ("r", "q", "A", "B", "C")


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.model = ModelFile()
        self.stage = _DECLARATION
        self.allow_jets = False
        # the statement keyword or block item being read: the position of
        # an error found after its tokens
        self.where = None

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_op(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in text

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            wanted = text or kind
            raise DslError(f"expected {wanted!r}, found {_describe(tok)}", tok.line, tok.col)
        return self.advance()

    def error(self, message: str) -> DslError:
        """A DslError at the block item being read or, outside a block, at
        the statement keyword."""
        tok = self.where
        return DslError(message, tok.line, tok.col) if tok else DslError(message)

    def skip_newlines(self):
        while self.peek().kind == "newline":
            self.advance()

    def at_end(self) -> bool:
        """At the newline, end of input or closing bracket an expression stops at."""
        return self.peek().kind in ("newline", "eof") or self.at_op(")]}")

    def end_statement(self):
        tok = self.peek()
        if tok.kind in ("newline", "eof"):
            self.skip_newlines()
            return
        if self.at_op("}"):
            return
        raise DslError(f"unexpected trailing {_describe(tok)}", tok.line, tok.col)

    # -- statements -------------------------------------------------------------

    def parse(self) -> ModelFile:
        self.skip_newlines()
        try:
            while self.peek().kind != "eof":
                self._statement()
                self.skip_newlines()
        except DslError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            # engine-level rejections (degree mismatches, bad families,
            # undefined divisions) surface as structured input errors
            raise self.error(str(exc)) from exc
        return self.model

    def _statement(self):
        tok = self.expect("name")
        self.where = tok
        if tok.text not in _STATEMENTS:
            raise DslError(f"unknown declaration {tok.text!r}", tok.line, tok.col)
        stage, kind, field_name = _STATEMENTS[tok.text]
        if stage < self.stage:
            raise self.error(
                f"{tok.text} cannot follow a {_STAGE_NAMES[self.stage]}; "
                "declarations come first, then rules, then definitions")
        if stage > _DECLARATION and self.model.kind is None:
            raise self.error("definitions require a context declaration first")
        self.stage = stage
        if stage == _DECLARATION:
            self._declaration(tok.text, kind, field_name)
            return
        m = self.model
        # chart coordinates stand for jets only where a connection or a
        # section is written in them
        self.allow_jets = m.kind == "jet" or tok.text in ("connection", "section")
        if stage == _RULE:
            self._rule()
        else:
            name, value = self._definition(tok.text)
            getattr(m, field_name)[name] = value

    def _declaration(self, keyword: str, kind: str | None, key: str):
        m = self.model
        if kind is not None:
            if m.kind not in (None, kind):
                raise self.error(f"{keyword} cannot be mixed with a {m.kind} context")
            m.kind = kind  # repeated declarations of the same kind extend it
        names = []
        while self.peek().kind == "name":
            tok = self.advance()
            if tok.text == "i":
                raise DslError("i is the imaginary unit and cannot be declared", tok.line, tok.col)
            names.append(tok.text)
        self.end_statement()
        if not names:
            raise DslError("expected at least one name", self.peek().line, self.peek().col)
        if keyword == "chart" and len(names) < 2:
            raise self.error("chart needs the base pair plus fields")
        declared = dict(m.ctx.declared)
        declared[key] += tuple(names)
        if m.kind == "jet":
            declared["scalars"] = ("x", "t")
        # rebuilt at each declaration, so a name declared twice is refused where it repeats
        m.ctx = DerivationContext(**declared)

    def _rule(self):
        self.expect("name", "d")
        target = self.expect("name").text
        self.expect("op", "=")
        rule = self._as_form(self._operand())
        ctx = self.model.ctx
        # rebuilt at each rule, so a bad rule is refused at its line and d
        # in a later rule sees the rules before it
        self.model.ctx = DerivationContext(**ctx.declared, rules={**ctx.rules, target: rule})
        self.end_statement()

    def _definition(self, keyword: str) -> tuple:
        tok = self.expect("name")
        name = tok.text
        if keyword == "let" or keyword == "form":
            if name == "i":
                raise DslError("i is the imaginary unit and cannot be defined", tok.line, tok.col)
            self.expect("op", "=")
            value = self._operand()
            if keyword == "form":
                value = self._as_form(value)
            elif isinstance(value, Form):
                raise self.error(f"let {name} must be a scalar")
        else:
            blocks = {"ideal": self._ideal, "akns": self._akns,
                      "connection": self._connection, "section": self._section}
            value = blocks[keyword](name)
        self.end_statement()
        return name, value

    def _items(self):
        """Yield (name, separator) for each `name = value` or `name -> value`
        line of a `{ ... }` block, with the cursor on the value; the caller
        reads the value before asking for the next item."""
        keyword = self.where
        self.expect("op", "{")
        self.skip_newlines()
        while not self.at_op("}"):
            self.where = self.expect("name")
            sep = self.peek()
            if not (self.at_op("=") or sep.kind == "arrow"):
                raise DslError("expected '=' or '->'", sep.line, sep.col)
            self.advance()
            yield self.where.text, sep.text
            self.end_statement()
            self.skip_newlines()
        self.expect("op", "}")
        self.where = keyword

    def _ideal(self, name: str) -> ExteriorIdeal:
        m = self.model
        if m.kind != "chart":
            raise self.error("ideals need a chart context")
        gens = {}
        for gname, sep in self._items():
            if sep != "=":
                raise self.error(f"ideal {name}: use '=' for generators")
            if gname in gens:
                raise self.error(f"ideal {name}: generator {gname} is given twice")
            value = self._operand()
            if not isinstance(value, Form) or value.degree < 1:
                raise self.error(f"ideal generator {gname} must be a form")
            gens[gname] = value
        return ExteriorIdeal(ctx=m.ctx, generators=gens)

    def _akns(self, name: str) -> AKNSSpec:
        m = self.model
        if m.kind != "jet":
            raise self.error("spectral families need a jet context")
        entries = {}
        for fname, sep in self._items():
            if sep != "=" or fname not in _AKNS_ENTRIES:
                raise self.error(f"akns {name}: entries are r, q, A, B, C")
            value = self._operand()
            if isinstance(value, Form):
                raise self.error(f"akns {name}: {fname} must be a scalar")
            entries[fname] = value
        missing = set(_AKNS_ENTRIES) - set(entries)
        if missing:
            raise self.error(f"akns {name}: missing {sorted(missing)}")
        return AKNSSpec(name=name, deps=m.ctx.declared["jet_fields"], **entries)

    def _connection(self, name: str) -> ConnectionData:
        mats = {}
        for fname, sep in self._items():
            if sep != "=" or fname not in ("F", "G"):
                raise self.error(f"connection {name}: entries are F and G")
            mats[fname] = self._operand(self.matrix)
        if set(mats) != {"F", "G"}:
            raise self.error(f"connection {name}: both F and G are required")
        return ConnectionData(**mats)

    def _section(self, name: str) -> tuple:
        m = self.model
        if name not in m.ideals:
            raise self.error(f"section references unknown ideal {name!r}")
        chain = []
        for var, sep in self._items():
            if sep != "->":
                raise self.error(f"section {name}: use 'var -> expression'")
            if var not in m.ctx.declared["scalars"]:
                raise self.error(f"section {name}: {var} is not a chart coordinate")
            if var in ("x", "t"):
                raise self.error(f"section {name}: {var} is an independent coordinate")
            value = self._operand()
            if isinstance(value, Form):
                raise self.error(f"section {name}: replacement must be a jet scalar")
            chain.append((var, value))
        return tuple(chain)

    # -- expressions ---------------------------------------------------------------

    def _operand(self, read=None):
        """The expression (or, with read=self.matrix, the matrix) that makes
        up the rest of a statement."""
        tok = self.peek()
        if self.at_end():
            raise DslError("expected an expression", tok.line, tok.col)
        value = (read or self.expression)()
        tok = self.peek()
        if not self.at_end():
            raise DslError(f"unexpected {_describe(tok)}", tok.line, tok.col)
        return value

    # grammar: expression := term (('+'|'-') term)*
    #          term       := unary (('*'|'^'|'/') unary)*
    #          unary      := '-' unary | power
    #          power      := atom ('**' unary)?

    def expression(self):
        value = self.term()
        while self.at_op("+-"):
            op = self.advance().text
            rhs = self.term()
            value = self._add(value, rhs if op == "+" else -rhs)
        return value

    def term(self):
        value = self.unary()
        while self.at_op("*^/"):
            op = self.advance().text
            rhs = self.unary()
            value = self._div(value, rhs) if op == "/" else value * rhs
        return value

    def unary(self):
        if self.at_op("-"):
            self.advance()
            return -self.unary()
        return self.power()

    def power(self):
        value = self.atom()
        if self.peek().kind == "pow":
            tok = self.advance()
            n = _integer(self.unary())
            if n is None:
                raise DslError("exponent must be an integer", tok.line, tok.col)
            if isinstance(value, Form):
                raise DslError("cannot exponentiate a form", tok.line, tok.col)
            return value**n
        return value

    def atom(self):
        tok = self.advance()
        if tok.kind == "int":
            return Scalar(int(tok.text))
        if tok.kind == "op" and tok.text == "(":
            value = self.expression()
            self.expect("op", ")")
            return value
        if tok.kind == "name":
            if tok.text in ("d", "exp") and self.at_op("("):
                self.advance()
                inner = self.expression()
                self.expect("op", ")")
                if tok.text == "d":
                    form = inner if isinstance(inner, Form) else self.model.ctx.scalar_form(inner)
                    return form.d()
                if isinstance(inner, Form):
                    raise DslError("exp takes a scalar", tok.line, tok.col)
                return exp_atom(inner)
            return self._resolve(tok)
        raise DslError(f"unexpected {_describe(tok)}", tok.line, tok.col)

    def matrix(self):
        rows = self._bracketed(lambda: self._bracketed(self._matrix_entry))
        if len({len(r) for r in rows}) != 1:
            raise self.error("matrix rows must have equal length")
        return rows

    def _matrix_entry(self):
        value = self.expression()
        if isinstance(value, Form):
            raise self.error("matrix entries must be scalars")
        return value

    def _bracketed(self, read) -> tuple:
        """The comma-separated items between '[' and ']', each taken by read."""
        self.expect("op", "[")
        items = [read()]
        while self.at_op(","):
            self.advance()
            items.append(read())
        self.expect("op", "]")
        return tuple(items)

    def _resolve(self, tok: Token):
        m = self.model
        name = tok.text
        if name == "i":
            return I
        if name in m.lets:
            return m.lets[name]
        if name in m.forms:
            return m.forms[name]
        try:
            return m.ctx.gen(name)
        except ContextError:
            pass
        declared = m.ctx.declared
        if name in declared["params"] or (m.kind != "jet" and name in declared["scalars"]):
            return sym(name)
        parts = split_jet(name)
        if parts is not None and self.allow_jets:
            var, nx, nt = parts
            if var in declared["jet_fields"] or (m.kind == "chart" and var in declared["scalars"]):
                return sym(jet(var, nx, nt))
        raise DslError(f"unknown symbol {name!r}", tok.line, tok.col)

    def _add(self, a, b):
        if isinstance(a, Form) or isinstance(b, Form):
            return self._as_form(a) + self._as_form(b)
        return a + b

    def _as_form(self, value):
        return value if isinstance(value, Form) else self.model.ctx.scalar_form(value)

    def _div(self, a, b):
        if isinstance(b, Form):
            if b.degree != 0:
                raise self.error("division by a form")
            b = b.as_scalar()
        return a * (1 / b) if isinstance(a, Form) else a / b


def parse(text: str) -> ModelFile:
    return _Parser(text).parse()


def parse_path(path) -> ModelFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def print_scalar(value: Scalar) -> str:
    """The text of a scalar (``str`` of a Scalar)."""
    return str(Scalar(value))


def print_form(f: Form) -> str:
    """The text of a form (``str`` of a Form)."""
    return str(f)


def print_model(m: ModelFile) -> str:
    lines: list[str] = []
    for keyword, (stage, kind, key) in _STATEMENTS.items():
        if stage == _DECLARATION and kind in (m.kind, None) and m.ctx.declared[key]:
            lines.append(f"{keyword} {' '.join(m.ctx.declared[key])}")
    for name, rule in m.ctx.rules.items():
        lines.append(f"rule d {name} = {print_form(rule)}")
    for name, value in m.lets.items():
        lines.append(f"let {name} = {print_scalar(value)}")
    for name, value in m.forms.items():
        lines.append(f"form {name} = {print_form(value)}")
    for name, ideal in m.ideals.items():
        lines.append(f"ideal {name} {{")
        # a zero generator is 0 times a wedge of its degree: "0" would read back as a scalar
        ones = [ideal.ctx.name_of(i) for i in ideal.ctx.one_form_indices()]
        for gname, gen in ideal.generators.items():
            zero = gen.is_zero and "0*" + "^".join(ones[k % len(ones)] for k in range(gen.degree))
            lines.append(f"  {gname} = {zero or print_form(gen)}")
        lines.append("}")
    for name, spec in m.akns.items():
        lines.append(f"akns {name} {{")
        lines.append(f"  r = {print_scalar(spec.r)}")
        lines.append(f"  q = {print_scalar(spec.q)}")
        for label in ("A", "B", "C"):
            lines.append(f"  {label} = {print_scalar(getattr(spec, label))}")
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
