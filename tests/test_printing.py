"""Scalar printing: print_scalar writes, from the stored polynomial pair,
exactly the text sympy's StrPrinter gives for the expression num/den, and
that text parses back to the same scalar."""

from __future__ import annotations

import random

from hypothesis import assume, given, settings, strategies as st
from sympy.printing.str import StrPrinter

from prolong.coeff import _CORE, I, ONE, ZERO, Scalar, exp_atom, sym
from prolong.dsl import parse, print_scalar

from test_golden import CASES, render


class DslPrinter(StrPrinter):
    """The printer reports used before print_scalar wrote text itself:
    sympy's StrPrinter with ``i`` for the imaginary unit."""

    def _print_ImaginaryUnit(self, expr):
        return "i"


ORACLE = DslPrinter()


def _mismatches(scalars) -> list:
    return [(ORACLE.doprint(s.expr), print_scalar(s)) for s in scalars
            if print_scalar(s) != ORACLE.doprint(s.expr)]


def test_golden_scalars_print_as_the_oracle(monkeypatch):
    printed = []
    text = Scalar.__str__

    def recording(value):
        printed.append(value)
        return text(value)

    monkeypatch.setattr(Scalar, "__str__", recording)
    for argv in CASES:
        render(argv)
    monkeypatch.undo()
    assert len(printed) > 150
    assert _mismatches(printed) == []


# The corpus's symbols and atoms are its own, so no other test's atoms
# (registered process-wide) constrain them.  Atoms are registered in an
# order that refuses none: exp(1/3) before exp(1).
_SYMBOLS = [sym(name) for name in ("pc_x", "pc_y", "pc_z", "pc_q_x", "pc_beta")]
_X, _Y, _Z = _SYMBOLS[:3]
_ATOMS = [
    exp_atom(sym("pc_y5")),
    exp_atom(sym("pc_y6") / 3),
    exp_atom(I * _X),
    exp_atom(_X / _Y),
    exp_atom(_Z / (_X + _Y)),
    exp_atom(_X * (1 + 2 * I)),
    exp_atom(exp_atom(_Z)),
    exp_atom(Scalar.rational(1, 3)),
    exp_atom(ONE),
    exp_atom(1 + I),
]
# the denominator shapes sympy evaluates differently
SHAPES = ("one", "integer", "gaussian", "monomial", "gaussian monomial", "polynomial")


def _random_gaussian(rng) -> Scalar:
    return (Scalar.rational(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
            + I * Scalar.rational(rng.randint(-3, 3), rng.choice((1, 1, 2, 5))))


def _random_monomial(rng) -> Scalar:
    m = ONE
    for _ in range(rng.randint(0, 3)):
        m = m * rng.choice(_SYMBOLS) ** rng.randint(1, 3)
    if rng.random() < 0.35:
        m = m * rng.choice(_ATOMS) ** rng.choice((-2, -1, 1, 2))
    return m


def _random_polynomial(rng, terms: int) -> Scalar:
    p = ZERO
    for _ in range(terms):
        c = _random_gaussian(rng) if rng.random() < 0.3 else Scalar.of(rng.randint(-5, 5))
        p = p + c * _random_monomial(rng)
    return p


def _denominator(rng, shape: str) -> Scalar:
    if shape == "integer":
        return Scalar.of(rng.randint(2, 7))
    if shape == "gaussian":
        return _random_gaussian(rng)
    if shape == "monomial":
        return _random_monomial(rng) * rng.randint(1, 4)
    if shape == "gaussian monomial":
        return _random_monomial(rng) * _random_gaussian(rng)
    if shape == "polynomial":
        return _random_polynomial(rng, rng.randint(2, 3))
    return ONE


def corpus(seed: int, size: int) -> list:
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        den = _denominator(rng, SHAPES[len(out) % len(SHAPES)])
        if not den.is_zero:
            out.append(_random_polynomial(rng, rng.randint(1, 4)) / den)
    return out


def _shapes(s: Scalar) -> set:
    """The evaluation shapes of s that print differently."""
    num, den = s.num, s.den
    found = set()
    if den.is_ground:
        if den.LC.y:
            found.add("gaussian denominator")
        elif den.LC.x != 1 and len(num) > 1:
            found.add("integer denominator over a sum")
    elif len(den) == 1:
        [monom] = den.keys()
        found.add("monomial denominator")
        if any(e and i in _CORE.exponents for i, e in enumerate(monom)):
            found.add("negative power of an exp atom")
    else:
        found.add("polynomial denominator")
    constant = num.get(num.ring.zero_monom)
    if len(num) > 1 and constant is not None and constant.x and constant.y:
        found.add("gaussian constant term in a sum")
    return found


def test_seeded_corpus_prints_as_the_oracle():
    scalars = corpus(7, 2000)
    counts = {}
    for s in scalars:
        for shape in _shapes(s):
            counts[shape] = counts.get(shape, 0) + 1
    assert len(counts) == 6 and min(counts.values()) >= 50, counts
    assert _mismatches(scalars) == []


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


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_scalars)
def test_printed_scalar_parses_back(recipe):
    top, bottom = _polynomial(recipe[0]), _polynomial(recipe[1])
    assume(not bottom.is_zero)
    value = top / bottom
    assert parse(_HEADER + f"let s = {print_scalar(value)}\n").lets["s"] == value
