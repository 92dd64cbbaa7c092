"""Scalar printing: ``str`` writes a scalar's stored pair num/den itself,
in an order fixed by the generators' texts, and the model reader reads
the text back to the same scalar."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from prolong.coeff import I, ZERO, Scalar, exp_atom, sym
from prolong.dsl import parse, print_model, print_scalar

from scalar_corpus import NAMES, corpus, exponents

_SYMBOLS = [sym(name) for name in NAMES]
_ATOMS = [exp_atom(e) for e in exponents()]


def _read_back(texts: list, names) -> list:
    """The scalars texts read as, in a model that declares names."""
    model = parse(f"scalars {' '.join(names)}\n"
                  + "".join(f"let s{k} = {text}\n" for k, text in enumerate(texts)))
    return [model.lets[f"s{k}"] for k in range(len(texts))]


def _shapes(s: Scalar) -> set:
    """The shapes of s whose text differs in kind."""
    num, den = s.num, s.den
    found = set()
    if den.keys() == {()}:
        if den[()].y:
            found.add("gaussian denominator")
        elif den[()].x != 1 and len(num) > 1:
            found.add("integer denominator over a sum")
    elif len(den) == 1:
        [monom] = den.keys()
        found.add("monomial denominator")
        if any(g.startswith("exp(") for g, _ in monom):
            found.add("negative power of an exp atom")
    else:
        found.add("polynomial denominator")
    constant = num.get(())
    if len(num) > 1 and constant is not None and constant.x and constant.y:
        found.add("gaussian constant term in a sum")
    return found


def test_seeded_corpus_reads_back_and_prints_distinct_values_distinctly():
    scalars = corpus(7, 2000, _SYMBOLS, _ATOMS)
    counts = {}
    for s in scalars:
        for shape in _shapes(s):
            counts[shape] = counts.get(shape, 0) + 1
    assert len(counts) == 6 and min(counts.values()) >= 50, counts
    texts = [print_scalar(s) for s in scalars]
    names = (*NAMES, "pc_y5", "pc_y6")
    assert [k for k, (s, back) in enumerate(zip(scalars, _read_back(texts, names)))
            if back != s] == []
    assert len(set(texts)) == len(set(scalars))


# Prints the corpus, and two scalars in pc_w1 and pc_w01, whose names
# sympy's generator key does not tell apart, after making the corpus's
# atoms in the order, or the reverse order, given on the command line.
_PRINT_CORPUS = """
import sys

from prolong.coeff import exp_atom, sym
from scalar_corpus import NAMES, corpus, exponents

forward = sys.argv[1] == "forward"
found = exponents()
atoms = [exp_atom(e) for e in (found if forward else found[::-1])]
for s in corpus(7, 400, [sym(name) for name in NAMES], atoms if forward else atoms[::-1]):
    print(s)
w1, w01 = sym("pc_w1"), sym("pc_w01")
print(w01 - w1)
print((w01 + 1) / (w01 - w1))
"""


def test_text_does_not_depend_on_the_registration_order():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")) if p))
    printed = []
    for order in ("forward", "reverse"):
        result = subprocess.run([sys.executable, "-c", _PRINT_CORPUS, order], cwd=tests, env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        printed.append(result.stdout.splitlines())
    assert len(printed[0]) == 402
    assert printed[0] == printed[1]


def test_a_large_power_of_an_exponential_prints():
    x = _SYMBOLS[0]
    value = x * exp_atom(710) + 3 * x
    assert _read_back([print_scalar(value)], NAMES) == [value]


def test_a_declared_e_and_exp_1_round_trip_through_the_model_text():
    model = parse("scalars E y\nlet a = E*exp(1)\nlet b = exp(1)/E - E**2\nlet c = -exp(-1)\n")
    text = print_model(model)
    again = parse(text)
    assert again.lets == model.lets
    assert print_model(again) == text
    assert model.lets["a"] != model.lets["b"]


# -- print, parse, compare ----------------------------------------------------

_HEADER = "jet q\nparams pr_a pr_b pr_c\n"
_NAMES = ("q", "q_x", "q_xx", "pr_a", "pr_b", "pr_c")

_LETTERS = parse(_HEADER + "".join(f"let {n} = {n}\n" for n in _NAMES)).lets

# Strategies draw recipes (tuples of ints and names) rather than Scalars,
# so a failing example prints as its recipe.
_gaussians = st.tuples(st.integers(-9, 9), st.integers(1, 6), st.integers(-9, 9),
                       st.integers(1, 6))
_factors = st.one_of(
    st.tuples(st.just("power"), st.sampled_from(_NAMES), st.integers(1, 3)),
    # exp(k*name) or exp(k*i*name), k of either sign
    st.tuples(st.just("exp"), st.sampled_from(_NAMES[3:]), st.integers(-3, 3), st.booleans()),
)
_monomials = st.tuples(_gaussians, st.lists(_factors, max_size=3))
_polynomials = st.lists(_monomials, min_size=1, max_size=4)
# a polynomial denominator is kept small: the gcd that reduces top/bottom
# over the Gaussian integers, not printing, is what costs time
_scalars = st.tuples(
    _polynomials,
    st.one_of(
        _gaussians.map(lambda g: [(g, [])]),
        _monomials.map(lambda m: [m]),
        st.lists(st.tuples(_gaussians, st.lists(_factors, max_size=2)), min_size=2, max_size=3),
    ),
)


def _gaussian(a: int, b: int, c: int, d: int) -> Scalar:
    return Scalar.rational(a, b) + I * Scalar.rational(c, d)


def _polynomial(recipe) -> Scalar:
    out = ZERO
    for gaussian, factors in recipe:
        term = _gaussian(*gaussian)
        for factor in factors:
            if factor[0] == "power":
                _, name, k = factor
                term = term * _LETTERS[name] ** k
            else:
                _, name, k, twist = factor
                term = term * exp_atom(sym(name) * (I if twist else 1)) ** k
        out = out + term
    return out


@settings(max_examples=500)
@given(_scalars)
def test_printed_scalar_parses_back(recipe):
    top, bottom = _polynomial(recipe[0]), _polynomial(recipe[1])
    assume(not bottom.is_zero)
    value = top / bottom
    assert parse(_HEADER + f"let s = {print_scalar(value)}\n").lets["s"] == value
