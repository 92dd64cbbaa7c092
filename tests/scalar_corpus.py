"""A seeded corpus of scalars for the printing tests, drawn from the
symbols and atoms the caller passes."""

from __future__ import annotations

import random

from prolong.coeff import I, ONE, ZERO, Scalar, exp_atom, sym

NAMES = ("pc_x", "pc_y", "pc_z", "pc_q_x", "pc_beta")
# the denominator shapes the corpus cycles through
SHAPES = ("one", "integer", "gaussian", "monomial", "gaussian monomial", "polynomial")


def exponents() -> list:
    """The exponents of the corpus's atoms; exp(1) and exp(1/3) are powers
    of one atom."""
    x, y, z = (sym(name) for name in NAMES[:3])
    return [sym("pc_y5"), sym("pc_y6") / 3, I * x, x / y, z / (x + y), x * (1 + 2 * I),
            exp_atom(z), ONE, Scalar.rational(1, 3), 1 + I]


def _random_gaussian(rng) -> Scalar:
    return (Scalar.rational(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
            + I * Scalar.rational(rng.randint(-3, 3), rng.choice((1, 1, 2, 5))))


def _random_monomial(rng, symbols, atoms) -> Scalar:
    m = ONE
    for _ in range(rng.randint(0, 3)):
        m = m * rng.choice(symbols) ** rng.randint(1, 3)
    if rng.random() < 0.35:
        m = m * rng.choice(atoms) ** rng.choice((-2, -1, 1, 2))
    return m


def _random_polynomial(rng, terms: int, symbols, atoms) -> Scalar:
    p = ZERO
    for _ in range(terms):
        c = _random_gaussian(rng) if rng.random() < 0.3 else Scalar(rng.randint(-5, 5))
        p = p + c * _random_monomial(rng, symbols, atoms)
    return p


def _denominator(rng, shape: str, symbols, atoms) -> Scalar:
    if shape == "integer":
        return Scalar(rng.randint(2, 7))
    if shape == "gaussian":
        return _random_gaussian(rng)
    if shape == "monomial":
        return _random_monomial(rng, symbols, atoms) * rng.randint(1, 4)
    if shape == "gaussian monomial":
        return _random_monomial(rng, symbols, atoms) * _random_gaussian(rng)
    if shape == "polynomial":
        return _random_polynomial(rng, rng.randint(2, 3), symbols, atoms)
    return ONE


def corpus(seed: int, size: int, symbols: list, atoms: list) -> list:
    """size quotients of random polynomials in symbols and atoms, their
    denominators cycling through SHAPES."""
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        den = _denominator(rng, SHAPES[len(out) % len(SHAPES)], symbols, atoms)
        if not den.is_zero:
            out.append(_random_polynomial(rng, rng.randint(1, 4), symbols, atoms) / den)
    return out
