"""Jet calculus: total derivatives, evolutionary reduction, Euler test."""

from __future__ import annotations

import random

import pytest
import sympy as sp

from prolong.coeff import Scalar, ZERO
from prolong.jets import (
    EvolutionSystem,
    euler_operator,
    is_total_x_derivative,
    jet,
    jet_order,
    reduce_mod_evolution,
    solve_for_t_derivative,
    split_jet,
    total_derivative,
)

u, ux, uxx, uxxx = jet("u"), jet("u", 1), jet("u", 2), jet("u", 3)
ut, uxt = jet("u", 0, 1), jet("u", 1, 1)
q, qx, r, rx = jet("q"), jet("q", 1), jet("r"), jet("r", 1)


def test_jet_symbol_names():
    assert jet("u", 2, 1).name == "u_xxt"
    assert split_jet(jet("u", 2, 1)) == ("u", 2, 1)
    assert split_jet(sp.Symbol("u_tx")) is None  # non-canonical spelling


def test_symbol_promotion():
    assert total_derivative(Scalar(r), "x", ["r"]) == Scalar(rx)


def test_leibniz():
    got = total_derivative(Scalar(q * r), "x", ["q", "r"])
    assert got == Scalar(qx * r + q * rx)


def test_chain_rule():
    got = total_derivative(Scalar(u**2 / 2), "x", ["u"])
    assert got == Scalar(u * ux)


def test_reduce_direct_rule():
    sys = EvolutionSystem.of({"u": Scalar(-u * ux)})
    assert reduce_mod_evolution(Scalar(ut), sys) == Scalar(-u * ux)


def test_reduce_prolonged_rule():
    sys = EvolutionSystem.of({"u": Scalar(-u * ux)})
    got = reduce_mod_evolution(Scalar(uxt), sys)
    assert got == Scalar(-(ux**2) - u * uxx)


def test_reduce_no_t_derivatives_is_identity():
    sys = EvolutionSystem.of({"u": Scalar(uxx)})
    assert reduce_mod_evolution(Scalar(ux), sys) == Scalar(ux)


def test_reduce_idempotent():
    sys = EvolutionSystem.of({"u": Scalar(uxxx + u * ux)})
    e = Scalar(ut * uxt + u)
    once = reduce_mod_evolution(e, sys)
    assert reduce_mod_evolution(once, sys) == once


def test_reduce_uncovered_variable():
    sys = EvolutionSystem.of({"u": Scalar(ux)})
    with pytest.raises(ValueError):
        reduce_mod_evolution(Scalar(jet("v", 0, 1)), sys)


def test_evolution_rhs_must_be_t_free():
    with pytest.raises(ValueError):
        EvolutionSystem.of({"u": Scalar(ut)})


def test_euler_examples():
    assert euler_operator(Scalar(u * ux), "u").is_zero
    assert euler_operator(Scalar(u**2), "u") == Scalar(2 * u)
    assert euler_operator(Scalar(ux**2), "u") == Scalar(-2 * uxx)


def test_euler_rejects_rational_dependence():
    with pytest.raises(ValueError):
        euler_operator(Scalar(1 / u), "u")


def test_total_derivative_certificate():
    assert is_total_x_derivative(Scalar(u * ux), ["u"]).ok
    cert = is_total_x_derivative(Scalar(ux**2), ["u"])
    assert not cert.ok
    assert cert.witness("u") == Scalar(-2 * uxx)
    assert is_total_x_derivative(ZERO, ["u"]).ok


def _random_poly(rng: random.Random, symbols) -> Scalar:
    total = ZERO
    for _ in range(rng.randint(1, 3)):
        term = Scalar.of(rng.randint(-3, 3))
        for _ in range(rng.randint(0, 2)):
            term = term * Scalar(rng.choice(symbols))
        total = total + term
    return total


def test_mixed_partials_commute_randomized():
    rng = random.Random(74)
    symbols = [u, ux, uxx, q, qx]
    for _ in range(100):
        e = _random_poly(rng, symbols)
        xt = total_derivative(total_derivative(e, "x", ["u", "q"]), "t", ["u", "q"])
        tx = total_derivative(total_derivative(e, "t", ["u", "q"]), "x", ["u", "q"])
        assert xt == tx


def test_euler_annihilates_total_derivatives_randomized():
    rng = random.Random(75)
    symbols = [u, ux, uxx]
    for _ in range(100):
        e = _random_poly(rng, symbols)
        dx_e = total_derivative(e, "x", ["u"])
        assert euler_operator(dx_e, "u").is_zero


def test_jet_order_reporting():
    assert jet_order(Scalar(u * uxxx + ux), ["u"]) == 3
    assert jet_order(Scalar(q), ["u"]) == 0


def test_solve_for_t_derivative():
    var, rhs = solve_for_t_derivative(Scalar(2 * ut + u * ux - uxxx))
    assert var == "u"
    assert rhs == Scalar((uxxx - u * ux) / 2)


def test_solve_for_t_derivative_refuses_a_second_t_derivative():
    assert solve_for_t_derivative(Scalar(ut + uxt + u * ux)) is None
    assert solve_for_t_derivative(Scalar(uxt + u)) is None


def test_solve_for_t_derivative_refuses_nonlinear_slope():
    assert solve_for_t_derivative(Scalar(ut**2 + ux)) is None
    assert solve_for_t_derivative(Scalar(u * ux)) is None
