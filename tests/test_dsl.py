"""Model-file language: parsing, printing, roundtrips, fuzzing."""

from __future__ import annotations

import itertools
import string

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from prolong.coeff import Scalar, eta_coefficients, exp_atom, sym
from prolong.dsl import DslError, parse, print_form, print_model, print_scalar
from prolong.jets import jet

from conftest import fixture_text
from sympy_bridge import from_sympy

FIXTURES = ("su2_dga", "akns_generic", "kdv", "kdv_ideal", "ch")


def test_parse_two_form_generator():
    model = parse(
        "chart x t u p q\n"
        "ideal a {\n"
        "  xi1 = du ^ dt - p * dx ^ dt\n"
        "}\n"
    )
    gen = model.ideals["a"].generators["xi1"]
    assert gen.degree == 2
    ctx = model.ctx
    expected = ctx.gen("du").wedge(ctx.gen("dt")) - ctx.gen("dx").wedge(ctx.gen("dt")) * from_sympy(
        sp.Symbol("p")
    )
    assert gen == expected


def test_model_values_refuse_assignment_and_deletion(kdv_spec):
    ideal = parse(fixture_text("ch")).ideals["ch"]
    generators, r = dict(ideal.generators), kdv_spec.r
    for value, field in ((ideal, "generators"), (ideal.ctx, "declared"), (kdv_spec, "r"),
                         (kdv_spec, "deps"), (kdv_spec.connection, "F")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert ideal.generators == generators and kdv_spec.r is r


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("chart x t u i\n", 1, 13),
        ("chart x t u\nparams beta i\n", 2, 13),
        ("scalars y1 i\n", 1, 12),
        ("oneform i w2\n", 1, 9),
        ("oneform w1\ntwoform i\n", 2, 9),
        ("jet q i\n", 1, 7),
        ("chart x t u\nlet i = u\n", 2, 5),
        ("chart x t u\nform i = du\n", 2, 6),
    ],
    ids=["coordinate", "parameter", "scalar", "oneform", "twoform", "jet-field", "let", "form"],
)
def test_the_imaginary_unit_is_not_a_name_to_declare(text, line, col):
    with pytest.raises(DslError, match="i is the imaginary unit") as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)
    # negative control: any other name reads
    parse(text.replace(" i", " j"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("chart x t u\nrule d du = dx^dt\n", "not 'du'"),
        ("jet q\nrule d dx = dx^dt\n", "not 'dx'"),
        ("oneform y1\nscalars y1\n", "'y1' is declared twice"),
        ("chart x t u\nparams u\n", "'u' is declared twice"),
        ("jet x\n", "'x' is declared twice"),
        ("jet q\nparams x\n", "'x' is declared twice"),
        ("jet q\nparams q\n", "'q' is declared twice"),
        ("scalars y\nparams y\n", "'y' is declared twice"),
    ],
    ids=["rule-on-a-coordinate", "rule-on-a-jet-base", "oneform-and-scalar", "coordinate-and-param",
         "jet-field-x", "jet-base-and-param", "jet-field-and-param", "scalar-and-param"],
)
def test_a_name_declared_twice_or_a_rule_on_a_differential_is_refused(text, message):
    with pytest.raises(DslError, match=message) as err:
        parse(text)
    # reported at the statement that repeats the name or gives the rule
    assert err.value.line == text.count("\n")


def test_each_rule_is_read_over_the_rules_before_it():
    model = parse("oneform a b\ntwoform th\nrule d a = th\nrule d th = d(a)^b\n")
    ctx = model.ctx
    assert ctx.rules["th"] == ctx.gen("th").wedge(ctx.gen("b"))
    assert ctx.gen("th").d() == ctx.rules["th"] and ctx.rules["a"].ctx is ctx
    with pytest.raises(DslError, match="rule for b must have degree 2") as err:
        parse("oneform a b\ntwoform th\nrule d a = th\nrule d b = a\nform f = a\n")
    assert err.value.line == 4


def test_dangling_wedge_is_syntax_error():
    with pytest.raises(DslError):
        parse("chart x t u\nform a = dx ^\n")


def test_unknown_symbol_reported_with_position():
    with pytest.raises(DslError) as err:
        parse("chart x t u\nform a = dx ^ dnope\n")
    assert "dnope" in str(err.value)


def test_degree_mismatch_in_sum():
    with pytest.raises(DslError):
        parse("chart x t u\nform a = dx + dx ^ dt\n")


def test_declaration_before_use():
    with pytest.raises(DslError):
        parse("form a = dx ^ dt\n")


@pytest.mark.parametrize(
    "text",
    [
        "chart x t u\nform a = dx\nparams beta\n",
        "oneform w1 w2\nform a = w1\nrule d w1 = w1^w2\n",
    ],
)
def test_statement_out_of_order_is_refused(text):
    with pytest.raises(DslError) as err:
        parse(text)
    assert err.value.line == 3


def test_wedge_and_product_have_equal_precedence():
    model = parse("chart x t u\nform a = 2*dx ^ u*dt\nform b = 2*u*dx ^ dt\n")
    assert model.forms["a"] == model.forms["b"]


def test_power_binds_tighter_than_product():
    model = parse("jet q\nparams eta\nlet a = -4*eta**3\nlet b = -(4*(eta**3))\n")
    assert model.lets["a"] == model.lets["b"]


def test_unary_minus_binds_looser_than_power():
    lets = parse("scalars x\nlet a = -x**2\nlet b = (-x**2)\nlet c = 2*(-x**2)\n"
                 "let d = -x**-2\nlet e = x**-1\n").lets
    x = from_sympy(sp.Symbol("x"))
    assert lets["a"] == lets["b"] == -(x**2)
    assert lets["c"] == -2 * x**2
    assert lets["d"] == -1 / x**2
    assert lets["e"] == 1 / x


def test_exp_and_imaginary_atoms():
    model = parse("scalars y5\nlet a = i*exp(y5)*exp(-y5)\n")
    assert model.lets["a"] == from_sympy(sp.I)


def test_differential_of_scalar():
    model = parse("chart x t u\nform a = d(u*u)\n")
    ctx = model.ctx
    expected = ctx.gen("du") * from_sympy(2 * sp.Symbol("u"))
    assert model.forms["a"] == expected


def test_jet_names_in_akns_block():
    model = parse(fixture_text("kdv"))
    spec = model.akns["kdv"]
    assert spec.deps == ("q",)
    assert eta_coefficients(spec.B)[2] == -4 * sym(jet("q"))


NON_LAURENT_A = ("1/(eta + 1)", "exp(eta)")


@pytest.mark.parametrize("a_text", NON_LAURENT_A)
def test_akns_refuses_a_coefficient_that_is_not_laurent_in_eta(a_text):
    text = fixture_text("kdv").replace("A = -4*eta**3 - 2*q*eta - q_x", f"A = {a_text}")
    assert f"A = {a_text}" in text
    with pytest.raises(DslError) as err:
        parse(text)
    assert "eta" in str(err.value)


def test_engine_errors_write_i_for_the_imaginary_unit():
    text = fixture_text("kdv").replace("A = -4*eta**3 - 2*q*eta - q_x", "A = i/(eta + i)")
    with pytest.raises(DslError) as err:
        parse(text)
    assert str(err.value) == "line 7, column 1: denominator is not a monomial in eta: eta + i"


def test_rule_table_builds_dga():
    model = parse(fixture_text("su2_dga"))
    assert model.kind == "dga"
    from prolong.forms import check_dd_zero

    assert check_dd_zero(model.ctx).ok


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_roundtrip_semantics(name):
    text = fixture_text(name)
    first = parse(text)
    printed = print_model(first)
    second = parse(printed)
    assert print_model(second) == printed
    assert first.kind == second.kind
    assert first.lets == second.lets
    assert first.sections == second.sections
    for a, b in ((first.forms, second.forms), (first.ctx.rules, second.ctx.rules)):
        assert a.keys() == b.keys()
        assert all((a[key] - b[key]).is_zero for key in a)
    assert set(first.ideals) == set(second.ideals)
    for key in first.ideals:
        a_gens, b_gens = first.ideals[key].generators, second.ideals[key].generators
        assert list(a_gens) == list(b_gens)
        for a, b in zip(a_gens.values(), b_gens.values()):
            assert (a - b).is_zero
    for key in first.akns:
        sa, sb = first.akns[key], second.akns[key]
        assert sa.r == sb.r and sa.q == sb.q
        for label in ("A", "B", "C"):
            assert getattr(sa, label) == getattr(sb, label)
    for key in first.connections:
        ca, cb = first.connections[key], second.connections[key]
        assert all(x == y for ra, rb in zip(ca.F, cb.F) for x, y in zip(ra, rb))
        assert all(x == y for ra, rb in zip(ca.G, cb.G) for x, y in zip(ra, rb))


_NUMBERS = ("1", "2", "-3", "1/2", "i", "(1 + i)")


def _scalar_texts(names, divisors, exp=True):
    """Scalar expression texts over names: sums, products, quotients by a
    divisor or a number, and (with exp) exponentials."""
    def grow(inner):
        parts = [st.builds("({} + {})".format, inner, inner),
                 st.builds("{}*{}".format, inner, inner),
                 st.builds("{}/{}".format, inner, st.sampled_from((*divisors, "2", "i")))]
        return st.one_of(*parts, st.builds("exp({})".format, inner)) if exp else st.one_of(*parts)
    return st.recursive(st.sampled_from((*names, *_NUMBERS)), grow, max_leaves=4)


def _monomials(generators) -> dict:
    """Degree -> the wedges of one to three distinct generators ((name,
    degree) pairs) of that degree, as texts."""
    out: dict = {}
    for k in (1, 2, 3):
        for mono in itertools.combinations(generators, k):
            out.setdefault(sum(d for _, d in mono), []).append("^".join(n for n, _ in mono))
    return out


def _form_text(draw, monomials, coefficients):
    """A sum of one to three of the monomials, each with a coefficient."""
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3, unique=True))
    return " + ".join(f"({draw(coefficients)})*{mono}" for mono in chosen)


@st.composite
def _models(draw):
    """Model text: a chart, jet or free-algebra declaration with params,
    then rules (free algebra), lets, forms and the blocks of its kind."""
    kind = draw(st.sampled_from(["chart", "jet", "dga"]))
    params = draw(st.sampled_from([(), ("beta",), ("beta", "lam")]))
    if kind == "chart":
        fields = draw(st.lists(st.sampled_from(["u", "p", "q"]), min_size=1, unique=True))
        lines = [f"chart x t {' '.join(fields)}"]
        names = ("x", "t", *fields, *params)
        jets = [f"{f}_{d}" for f in fields for d in ("x", "xt")]
        generators = [(f"d{n}", 1) for n in ("x", "t", *fields)]
    elif kind == "jet":
        fields = draw(st.lists(st.sampled_from(["q", "r"]), min_size=1, unique=True))
        params = ("eta", *params)
        lines = [f"jet {' '.join(fields)}"]
        jets = [f"{f}_{d}" for f in fields for d in ("x", "xx", "t")]
        names, generators = (*fields, *jets, *params), [("dx", 1), ("dt", 1)]
    else:
        oneforms = draw(st.lists(st.sampled_from(["w1", "w2", "w3"]), min_size=1, unique=True))
        scalars = draw(st.lists(st.sampled_from(["y1", "y2"]), unique=True))
        twoforms = draw(st.lists(st.sampled_from(["th1", "th2"]), unique=True))
        lines = [f"{keyword} {' '.join(declared)}" for keyword, declared in (
            ("oneform", oneforms), ("scalars", scalars), ("twoform", twoforms)) if declared]
        names, jets = (*scalars, *params), []
        generators = ([(n, 1) for n in oneforms] + [(f"d{n}", 1) for n in scalars]
                      + [(n, 2) for n in twoforms])
    if params:
        lines.append(f"params {' '.join(params)}")
    coefficients = _scalar_texts(names, names)
    monomials = _monomials(generators)
    degrees = [d for d in monomials if d <= 2]
    if kind == "dga":
        targets = [(n, d + 1) for n, d in generators if not n.startswith("d")]
        for target, degree in draw(st.lists(st.sampled_from(targets), unique=True)):
            if degree in monomials:
                lines.append(f"rule d {target} = "
                             f"{_form_text(draw, monomials[degree], coefficients)}")
    for k in range(draw(st.integers(0, 2))):
        lines.append(f"let a{k} = {draw(coefficients)}")
    for k in range(draw(st.integers(0, 2))):
        monos = monomials[draw(st.sampled_from(degrees))]
        lines.append(f"form f{k} = {_form_text(draw, monos, coefficients)}")
    entries = _scalar_texts((*names, *jets), names)
    if kind == "chart":
        lines.append("ideal I {")
        for k in range(draw(st.integers(1, 2))):
            monos = monomials[draw(st.sampled_from(degrees))]
            if draw(st.integers(0, 3)) == 0:  # coefficients that cancel: a zero form of a degree
                text = f"(1 + 2 + -3)*{draw(st.sampled_from(monos))}"
            else:
                text = _form_text(draw, monos, coefficients)
            lines.append(f"  xi{k} = {text}")
        lines.append("}")
        chain = draw(st.lists(st.sampled_from(fields), max_size=2, unique=True))
        lines += ["section I {", *(f"  {v} -> {draw(entries)}" for v in chain), "}"]
    if kind == "jet":
        polynomial = _scalar_texts((*fields, *jets, *params), params, exp=False)
        free_of_eta = _scalar_texts((*fields, *jets), fields, exp=False)
        lines.append("akns s {")
        lines += [f"  {label} = {draw(free_of_eta)}" for label in ("r", "q")]
        lines += [f"  {label} = {draw(polynomial)}" for label in ("A", "B", "C")]
        lines.append("}")
    if draw(st.booleans()):
        size = draw(st.integers(1, 2))
        lines.append("connection c {")
        for label in ("F", "G"):
            rows = [f"[{', '.join(draw(entries) for _ in range(size))}]" for _ in range(size)]
            lines.append(f"  {label} = [{', '.join(rows)}]")
        lines.append("}")
    return "\n".join(lines) + "\n"


@settings(max_examples=200)
@given(_models())
def test_whole_models_print_and_read_back(text):
    first = parse(text)
    printed = print_model(first)
    second = parse(printed)
    assert print_model(second) == printed
    assert first.kind == second.kind
    assert first.ctx.declared == second.ctx.declared
    assert first.ctx.signature == second.ctx.signature
    assert first.ctx.rules == second.ctx.rules
    assert first.lets == second.lets and first.forms == second.forms
    assert first.akns == second.akns and first.connections == second.connections
    assert first.sections == second.sections
    assert first.ideals.keys() == second.ideals.keys()
    for key in first.ideals:
        a, b = first.ideals[key].generators, second.ideals[key].generators
        assert list(a.items()) == list(b.items())
        assert [f.degree for f in a.values()] == [f.degree for f in b.values()]


def test_scalar_print_parse_cycle():
    q = sym(jet("q"))
    samples = [
        from_sympy(sp.Rational(-3, 4)),
        from_sympy(sp.I),
        q**2 / 2 - 4 * q + from_sympy(sp.Rational(1, 3)),
        (q + 1) / (q - 1),
        from_sympy(sp.Symbol("eta") ** -2) * q,
    ]
    header = "jet q\nparams eta\n"
    for s in samples:
        model = parse(header + f"let v = {print_scalar(s)}\n")
        assert model.lets["v"] == s


@st.composite
def _mutated_ch(draw):
    """ch.eds after 1-6 edits, each replacing, inserting or deleting one
    character, the new ones drawn from a model-text alphabet."""
    alphabet = st.sampled_from(string.ascii_letters + string.digits + " ^*+-/()[]{}=_\n#")
    text = list(fixture_text("ch"))
    for _ in range(draw(st.integers(1, 6))):
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        pos = draw(st.integers(0, len(text) - 1))
        if edit == "replace":
            text[pos] = draw(alphabet)
        elif edit == "insert":
            text.insert(pos, draw(alphabet))
        else:
            del text[pos]
    return "".join(text)


@settings(max_examples=300)
@given(_mutated_ch())
def test_fuzzed_inputs_fail_cleanly(text):
    try:
        parse(text)
    except (DslError, ZeroDivisionError):
        pass  # structured failure is acceptable; crashes are not


def test_let_and_form_names_and_division_by_a_degree_0_form():
    model = parse(
        "chart x t u\n"
        "let k = u + 1\n"
        "form s = 2*k\n"
        "form a = k*dx ^ dt/s\n"
        "let h = u/s\n"
    )
    ctx, u = model.ctx, sym("u")
    assert model.forms["s"] == ctx.scalar_form(2 * u + 2)
    assert model.forms["a"] == ctx.gen("dx").wedge(ctx.gen("dt")) * Scalar.rational(1, 2)
    assert model.lets["h"] == u / (2 * u + 2)


def test_division_by_a_one_form_is_refused_at_its_statement():
    with pytest.raises(DslError, match="division by a form") as err:
        parse("chart x t u\nform a = dx ^ dt\nform b = a/dx\n")
    assert (err.value.line, err.value.col) == (3, 1)


def test_a_generator_name_given_twice_is_refused_at_its_item():
    with pytest.raises(DslError, match="generator xi is given twice") as err:
        parse("chart x t u\nideal a {\n  xi = du ^ dt\n  xi = dx ^ dt\n}\n")
    assert (err.value.line, err.value.col) == (4, 3)


def test_print_form_signs():
    model = parse("chart x t u\nform a = -du ^ dt - 2*dx ^ dt\n")
    printed = print_form(model.forms["a"])
    # canonical monomial order may absorb signs; the text must reparse
    assert printed == "-2*dx^dt + dt^du"
    reparsed = parse(f"chart x t u\nform a = {printed}\n")
    assert reparsed.forms["a"] == model.forms["a"]


def test_form_coefficient_between_parentheses_reads_back():
    # the coefficient's text starts and ends with a parenthesis, yet is a sum
    model = parse("chart x y u\nform a = ((1 + i)*x + exp(y))*dx\n")
    printed = print_form(model.forms["a"])
    assert printed == "((1 + i)*x + exp(y))*dx"
    assert parse(f"chart x y u\nform a = {printed}\n").forms["a"] == model.forms["a"]


@pytest.mark.parametrize("name", ["ch", "su2_dga"])
def test_str_of_a_form_is_its_printed_text(name):
    model = parse(fixture_text(name))
    forms = [*model.forms.values(), *model.ctx.rules.values(),
             *(g for ideal in model.ideals.values() for g in ideal.generators.values())]
    assert len(forms) >= 3
    for f in forms:
        assert str(f) == print_form(f)


def test_exponentials_of_constants_read_back():
    model = parse("scalars y\nlet a = exp(1)\nlet b = 2*exp(1)/y\nlet c = exp(2)\n")
    back = parse(print_model(model))
    y = from_sympy(sp.Symbol("y"))
    assert back.lets == {"a": exp_atom(1), "b": 2 * exp_atom(1) / y, "c": exp_atom(2)}
    # E is an ordinary name: a declared E is a symbol, an undeclared one unknown
    assert parse("scalars E\nlet a = E\n").lets["a"] == from_sympy(sp.Symbol("E"))
    with pytest.raises(DslError, match="unknown symbol 'E'"):
        parse("scalars y\nlet a = E\n")


def test_integer_exponent_is_accepted():
    model = parse("chart x t u\nlet a = u**2\nlet b = u**-1\n")
    assert model.lets["a"] == from_sympy(sp.Symbol("u") ** 2)
    assert model.lets["b"] == from_sympy(1 / sp.Symbol("u"))


@pytest.mark.parametrize("exponent", ["(1/2)", "i", "t", "(2*i)", "dx"])
def test_non_integer_exponent_is_refused_at_its_operator(exponent):
    with pytest.raises(DslError, match="exponent must be an integer") as err:
        parse(f"chart x t u\nlet a = u**{exponent}\n")
    assert (err.value.line, err.value.col) == (2, 10)


CH_IDEAL = "chart x t u p q\nideal ch {\n  xi1 = du - p*dx\n  xi2 = dq\n}\n"


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        (CH_IDEAL.replace("xi2 = dq", "xi2 = q"), "ideal generator xi2 must be a form", 4, 3),
        (CH_IDEAL.replace("xi2 = dq", "xi2 -> dq"), "ideal ch: use '=' for generators", 4, 3),
        ("jet q\nideal ch {\n  xi1 = dq\n}\n", "ideals need a chart context", 2, 1),
        (fixture_text("kdv").replace("  C = ", "  # C = "), "akns kdv: missing ['C']", 7, 1),
        ("chart x t u\n\nform a = dx + dx ^ dt\n", "degree", 3, 1),
        (CH_IDEAL.replace("xi2 = dq", "xi2 = dq + dx ^ dt"), "degree", 4, 3),
        ("oneform w1\nchart x t u\n", "chart cannot be mixed with a dga context", 2, 1),
        ("chart x t u\nlet a = 1/(u - u)\n", "division", 2, 1),
        (CH_IDEAL + "section ch {\n  p -> u_x\n  x -> u\n}\n",
         "section ch: x is an independent coordinate", 8, 3),
        (CH_IDEAL + "section ch {\n  t -> u\n}\n", "section ch: t is an independent coordinate", 7, 3),
        (CH_IDEAL + "section ch {\n  p -> u_x\n  q -> p_x\n  p -> u_xx\n}\n",
         "section ch: p is eliminated twice", 9, 3),
        ("chart x t u\nlet a = u\nlet a = 2*u\n", "let a is defined twice", 3, 1),
        ("chart x t u\nform w = dx\nform w = dt\n", "form w is defined twice", 3, 1),
        ("chart x t u\nlet w = u\nform w = dt\n", "form w is defined twice", 3, 1),
        (CH_IDEAL + CH_IDEAL[CH_IDEAL.index("ideal"):], "ideal ch is defined twice", 6, 1),
        (fixture_text("kdv") + fixture_text("kdv")[fixture_text("kdv").index("akns"):],
         "akns kdv is defined twice", 14, 1),
        (fixture_text("kdv_ideal")
         + fixture_text("kdv_ideal")[fixture_text("kdv_ideal").index("connection lax"):],
         "connection lax is defined twice", 21, 1),
        (CH_IDEAL + "section ch {\n  p -> u_x\n}\nsection ch {\n  p -> u_xx\n}\n",
         "section ch is defined twice", 9, 1),
    ],
    ids=["generator-not-a-form", "arrow-in-ideal", "ideal-without-chart", "akns-missing-entry",
         "engine-error-in-statement", "engine-error-in-block-item", "mixed-context",
         "division-by-zero", "section-eliminates-x", "section-eliminates-t",
         "section-eliminates-a-coordinate-twice", "let-twice", "form-twice", "form-after-let",
         "ideal-twice", "akns-twice", "connection-twice", "section-twice"],
)
def test_semantic_errors_carry_the_statement_or_item_position(text, message, line, col):
    with pytest.raises(DslError) as err:
        parse(text)
    assert message in str(err.value)
    assert str(err.value).startswith(f"line {line}, column {col}: ")


@pytest.mark.parametrize(
    "text, char, line, col",
    [
        ("chart x t u\nlet a = x $ 2\n", "$", 2, 11),
        ("chart x t u @\n", "@", 1, 13),
        ("chart x t u\n# a comment\nlet \u00e9 = 1\n", "\u00e9", 3, 5),
        ("# a comment\n\t@", "@", 2, 2),
    ],
    ids=["dollar", "at", "e-acute-after-a-comment-line", "at-after-a-tab"],
)
def test_a_character_outside_the_language_is_refused_at_its_position(text, char, line, col):
    with pytest.raises(DslError) as err:
        parse(text)
    assert str(err.value) == f"line {line}, column {col}: unexpected character {char!r}"
    # negative control: the same character inside a comment is read past
    assert parse(f"chart x t u # {char}\nlet a = x  # {char}\n").lets["a"] == sym("x")


@pytest.mark.parametrize(
    "text, message",
    [
        ("chart x t u p q\nideal ch\n{\n}\n", "line 2, column 9: expected '{', found end of line"),
        ("chart x t u\nform a = dx ^\n", "line 2, column 14: unexpected end of line"),
        ("chart x t u\nform a = (dx", "line 2, column 13: expected ')', found end of file"),
        ("chart x t u\nform a = dx ^", "line 2, column 14: unexpected end of file"),
    ],
    ids=["expect", "atom-at-newline", "expect-at-eof", "atom-at-eof"],
)
def test_line_and_file_ends_are_named_in_messages(text, message):
    with pytest.raises(DslError) as err:
        parse(text)
    assert str(err.value) == message
