"""Model-file language: parsing, printing, roundtrips, fuzzing."""

from __future__ import annotations

import random
import string

import pytest
import sympy as sp

from prolong.coeff import Scalar, eta_coefficients
from prolong.dsl import DslError, parse, print_form, print_model, print_scalar
from prolong.jets import jet

from conftest import fixture_text

FIXTURES = ("su2_dga", "akns_generic", "kdv", "kdv_ideal", "ch")


def test_parse_two_form_generator():
    model = parse(
        "chart x t u p q\n"
        "ideal a {\n"
        "  xi1 = du ^ dt - p * dx ^ dt\n"
        "}\n"
    )
    gen = model.ideals["a"].generator("xi1")
    assert gen.degree == 2
    ctx = model.ctx
    expected = ctx.gen("du").wedge(ctx.gen("dt")) - ctx.gen("dx").wedge(ctx.gen("dt")) * Scalar(
        sp.Symbol("p")
    )
    assert gen == expected


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


def test_wedge_and_product_have_equal_precedence():
    model = parse("chart x t u\nform a = 2*dx ^ u*dt\nform b = 2*u*dx ^ dt\n")
    assert model.forms["a"] == model.forms["b"]


def test_power_binds_tighter_than_product():
    model = parse("jet q\nparams eta\nlet a = -4*eta**3\nlet b = -(4*(eta**3))\n")
    assert model.lets["a"] == model.lets["b"]


def test_exp_and_imaginary_atoms():
    model = parse("scalars y5\nlet a = i*exp(y5)*exp(-y5)\n")
    assert model.lets["a"] == Scalar(sp.I)


def test_differential_of_scalar():
    model = parse("chart x t u\nform a = d(u*u)\n")
    ctx = model.ctx
    expected = ctx.gen("du") * Scalar(2 * sp.Symbol("u"))
    assert model.forms["a"] == expected


def test_jet_names_in_akns_block():
    model = parse(fixture_text("kdv"))
    spec = model.akns["kdv"]
    assert spec.deps == ("q",)
    assert eta_coefficients(spec.B)[2] == Scalar(-4 * jet("q"))


NON_LAURENT_A = ("1/(eta + 1)", "exp(eta)")


@pytest.mark.parametrize("a_text", NON_LAURENT_A)
def test_akns_refuses_a_coefficient_that_is_not_laurent_in_eta(a_text):
    text = fixture_text("kdv").replace("A = -4*eta**3 - 2*q*eta - q_x", f"A = {a_text}")
    assert f"A = {a_text}" in text
    with pytest.raises(DslError) as err:
        parse(text)
    assert "eta" in str(err.value)


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
    assert set(first.ideals) == set(second.ideals)
    for key in first.ideals:
        for a, b in zip(first.ideals[key].generators, second.ideals[key].generators):
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


def test_scalar_print_parse_cycle():
    q = jet("q")
    samples = [
        Scalar(sp.Rational(-3, 4)),
        Scalar(sp.I),
        Scalar(q**2 / 2 - 4 * q + sp.Rational(1, 3)),
        Scalar((q + 1) / (q - 1)),
        Scalar(sp.Symbol("eta") ** -2 * q),
    ]
    header = "jet q\nparams eta\n"
    for s in samples:
        model = parse(header + f"let v = {print_scalar(s)}\n")
        assert model.lets["v"] == s


def test_fuzzed_inputs_fail_cleanly():
    rng = random.Random(79)
    base = fixture_text("ch")
    alphabet = string.ascii_letters + string.digits + " ^*+-/()[]{}=_\n#"
    for _ in range(300):
        text = list(base)
        for _ in range(rng.randint(1, 6)):
            op = rng.random()
            pos = rng.randrange(len(text))
            if op < 0.4:
                text[pos] = rng.choice(alphabet)
            elif op < 0.7:
                text.insert(pos, rng.choice(alphabet))
            else:
                del text[pos]
        try:
            parse("".join(text))
        except (DslError, ZeroDivisionError):
            pass  # structured failure is acceptable; crashes are not


def test_print_form_signs():
    model = parse("chart x t u\nform a = -du ^ dt - 2*dx ^ dt\n")
    printed = print_form(model.forms["a"])
    # canonical monomial order may absorb signs; the text must reparse
    assert printed == "-2*dx^dt + dt^du"
    reparsed = parse(f"chart x t u\nform a = {printed}\n")
    assert reparsed.forms["a"] == model.forms["a"]
