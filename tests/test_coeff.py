"""Exact scalar kernel: canonical forms, substitution, eta coefficients."""

from __future__ import annotations

import random

import pytest
import sympy as sp

from prolong.coeff import (
    ETA,
    I,
    LaurentError,
    Scalar,
    ZERO,
    eta_coefficients,
    exp_atom,
    substitute,
    sym,
)

y1, y2, y3, y5 = sym("y1"), sym("y2"), sym("y3"), sym("y5")
q, r = sym("q"), sym("r")


def test_imaginary_unit_squares_to_minus_one():
    assert I * I + 1 == ZERO
    assert (I * I).expr == -1


def test_gcd_cancellation():
    assert (y1 * y2) / y1 == y2


def test_exponential_inverse_pair():
    assert exp_atom(y5) * exp_atom(-y5) == Scalar.of(1)


def test_exponential_derivative():
    e = exp_atom(y5)
    assert e.diff(sp.Symbol("y5")) == e


def test_normalize_idempotent_on_samples():
    samples = [
        (y1 + y2) ** 2 / (y1 + y2),
        (y1**2 - y2**2) / (y1 - y2),
        exp_atom(y5) * exp_atom(-y5) * y1,
        q * r / (q * r),
        (y1 / y2 + y2 / y1),
    ]
    for s in samples:
        assert Scalar.of(s) == Scalar.of(Scalar.of(s))
        assert Scalar.of(s).expr == Scalar.of(Scalar.of(s)).expr
        # the canonical form is a fixed point, so stored scalars can be
        # moved between containers without canonicalising them again
        assert Scalar(s.expr).expr == s.expr


def test_difference_of_equal_expressions_is_zero():
    a = (y1 + y2) ** 3
    b = y1**3 + 3 * y1**2 * y2 + 3 * y1 * y2**2 + y2**3
    assert (a - b).is_zero


def test_substitute_examples():
    assert substitute(y3**2, {y3.expr: y2 / y1}) == y2**2 / y1**2
    assert substitute(q * r, {q.expr: ZERO}).is_zero
    # simultaneous swap is legal
    assert substitute(q * r**2, {q.expr: r, r.expr: q}) == r * q**2


def test_substitute_is_single_pass():
    # a self-referencing binding is applied once, never re-expanded
    assert substitute(q, {q.expr: q + 1}) == q + 1
    assert substitute(q * r, {q.expr: 2 * q, r.expr: r / 2}) == q * r


def test_substitute_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        substitute(1 / y1, {y1.expr: ZERO})


def test_division_by_zero_scalar():
    with pytest.raises(ZeroDivisionError):
        y1 / (y2 - y2)


def _random_scalar(rng: random.Random, atoms) -> Scalar:
    total = ZERO
    for _ in range(rng.randint(1, 3)):
        term = Scalar.of(rng.randint(-4, 4))
        for _ in range(rng.randint(0, 2)):
            term = term * rng.choice(atoms)
        total = total + term
    return total


def test_ring_axioms_randomized():
    rng = random.Random(71)
    atoms = [y1, y2, q, r, I]
    for _ in range(150):
        a = _random_scalar(rng, atoms)
        b = _random_scalar(rng, atoms)
        c = _random_scalar(rng, atoms)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_inverse_of_nonzero_randomized():
    rng = random.Random(72)
    atoms = [y1, y2, q]
    found = 0
    while found < 60:
        e = _random_scalar(rng, atoms)
        if e.is_zero:
            continue
        found += 1
        assert e * (1 / e) == Scalar.of(1)


def test_two_evaluation_orders_same_canonical_form():
    rng = random.Random(73)
    atoms = [y1, y2, q, r]
    for _ in range(60):
        parts = [_random_scalar(rng, atoms) for _ in range(4)]
        left = ((parts[0] + parts[1]) + parts[2]) + parts[3]
        right = parts[0] + (parts[1] + (parts[2] + parts[3]))
        assert left.expr == right.expr
        prod_left = ((parts[0] * parts[1]) * parts[2]) * parts[3]
        prod_right = parts[0] * ((parts[1] * parts[2]) * parts[3])
        assert prod_left.expr == prod_right.expr


def test_eta_coefficients_roundtrip():
    eta = Scalar(ETA)
    value = 4 * eta**2 + q * eta + y1 + y2 / eta
    coeffs = eta_coefficients(value)
    assert list(coeffs) == [-1, 0, 1, 2]
    assert coeffs[2] == Scalar.of(4)
    assert coeffs[-1] == y2
    assert 7 not in coeffs
    total = ZERO
    for n, c in coeffs.items():
        assert ETA not in c.free_symbols()
        total = total + c * eta**n
    assert total == value


def test_eta_coefficients_drop_zero_coefficients():
    assert eta_coefficients(ZERO) == {}
    assert eta_coefficients(q - q) == {}
    assert eta_coefficients(q * Scalar(ETA) ** 3) == {3: q}


def test_eta_coefficients_rejects_non_laurent():
    with pytest.raises(LaurentError):
        eta_coefficients(1 / (Scalar(ETA) + 1))
    with pytest.raises(LaurentError):
        eta_coefficients(exp_atom(Scalar(ETA)))
