"""Jet calculus: total derivatives, evolutionary reduction, Euler test."""

from __future__ import annotations

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from prolong.coeff import I, Scalar, ZERO, exp_atom, sym
from prolong.jets import (
    EvolutionSystem,
    euler_operator,
    is_total_x_derivative,
    jet,
    jet_order,
    reduce_mod_evolution,
    solve_evolution,
    solve_for_t_derivative,
    split_jet,
    total_derivative,
)

from sympy_bridge import from_sympy, to_sympy

u, ux, uxx, uxxx = sym(jet("u")), sym(jet("u", 1)), sym(jet("u", 2)), sym(jet("u", 3))
ut, uxt = sym(jet("u", 0, 1)), sym(jet("u", 1, 1))
q, qx, r, rx = sym(jet("q")), sym(jet("q", 1)), sym(jet("r")), sym(jet("r", 1))


def test_jet_symbol_names():
    assert jet("u", 2, 1) == "u_xxt"
    assert split_jet(jet("u", 2, 1)) == ("u", 2, 1)
    assert split_jet("u_tx") is None  # non-canonical spelling


def test_symbol_promotion():
    assert total_derivative(r, "x", ["r"]) == rx


def test_leibniz():
    got = total_derivative(q * r, "x", ["q", "r"])
    assert got == qx * r + q * rx


def test_chain_rule():
    got = total_derivative(u**2 / 2, "x", ["u"])
    assert got == u * ux


def test_reduce_direct_rule():
    sys = EvolutionSystem({"u": -u * ux})
    assert reduce_mod_evolution(ut, sys) == -u * ux


def test_reduce_prolonged_rule():
    sys = EvolutionSystem({"u": -u * ux})
    got = reduce_mod_evolution(uxt, sys)
    assert got == -(ux**2) - u * uxx


def test_reduce_second_t_derivative():
    # u_tt = D_t(u*u_x) = u_t*u_x + u*u_xt, each t-derivative reduced again
    sys = EvolutionSystem({"u": u * ux})
    assert reduce_mod_evolution(sym(jet("u", 0, 2)), sys) == u**2 * uxx + 2 * u * ux**2


def test_evolution_system_of_pairs_or_a_dict():
    assert EvolutionSystem((("u", u * ux),)) == EvolutionSystem({"u": u * ux})


def test_reduce_no_t_derivatives_is_identity():
    sys = EvolutionSystem({"u": uxx})
    assert reduce_mod_evolution(ux, sys) == ux


def test_reduce_idempotent():
    sys = EvolutionSystem({"u": uxxx + u * ux})
    e = ut * uxt + u
    once = reduce_mod_evolution(e, sys)
    assert reduce_mod_evolution(once, sys) == once


def test_reduce_uncovered_variable():
    sys = EvolutionSystem({"u": ux})
    with pytest.raises(ValueError):
        reduce_mod_evolution(sym(jet("v", 0, 1)), sys)


def test_evolution_rhs_must_be_t_free():
    with pytest.raises(ValueError):
        EvolutionSystem({"u": ut})


def test_euler_examples():
    assert euler_operator(u * ux, "u", ["u"]).is_zero
    assert euler_operator(u**2, "u", ["u"]) == 2 * u
    assert euler_operator(ux**2, "u", ["u"]) == -2 * uxx


def test_euler_rejects_rational_dependence():
    with pytest.raises(ValueError):
        euler_operator(1 / u, "u", ["u"])


def test_euler_rejects_t_derivatives_of_deps_only():
    with pytest.raises(ValueError, match="t-derivative-free input, found u_xt"):
        euler_operator(u * uxt, "u", ["u"])
    # a t-derivative of a variable outside deps is a coefficient
    assert euler_operator(u**2 * sym(jet("v", 0, 1)), "u", ["u"]) == 2 * u * sym(jet("v", 0, 1))


def test_total_derivative_certificate():
    assert is_total_x_derivative(u * ux, ["u"]).ok
    cert = is_total_x_derivative(ux**2, ["u"])
    assert not cert.ok
    assert cert.witnesses["u"] == -2 * uxx
    assert is_total_x_derivative(ZERO, ["u"]).ok


def _polys(*symbols):
    """Sums of 1-3 terms, each an integer in -3..3 times 0-2 of symbols."""
    terms = st.lists(st.tuples(st.integers(-3, 3), st.lists(st.sampled_from(symbols), max_size=2)),
                     min_size=1, max_size=3)

    def total(terms) -> Scalar:
        out = ZERO
        for c, factors in terms:
            term = Scalar(c)
            for factor in factors:
                term = term * factor
            out = out + term
        return out

    return terms.map(total)


@settings(max_examples=100)
@given(_polys(u, ux, uxx, q, qx))
def test_mixed_partials_commute_randomized(e):
    xt = total_derivative(total_derivative(e, "x", ["u", "q"]), "t", ["u", "q"])
    tx = total_derivative(total_derivative(e, "t", ["u", "q"]), "x", ["u", "q"])
    assert xt == tx


@settings(max_examples=100)
@given(_polys(u, ux, uxx))
def test_euler_annihilates_total_derivatives_randomized(e):
    dx_e = total_derivative(e, "x", ["u"])
    assert euler_operator(dx_e, "u", ["u"]).is_zero


def test_jet_order_reporting():
    assert jet_order(u * uxxx + ux, ["u"]) == 3
    assert jet_order(q, ["u"]) == 0


def test_solve_for_t_derivative():
    var, rhs = solve_for_t_derivative(2 * ut + u * ux - uxxx)
    assert var == "u"
    assert rhs == (uxxx - u * ux) / 2


def test_solve_for_t_derivative_refuses_a_second_t_derivative():
    assert solve_for_t_derivative(ut + uxt + u * ux) is None
    assert solve_for_t_derivative(uxt + u) is None


def test_solve_for_t_derivative_refuses_nonlinear_slope():
    assert solve_for_t_derivative(ut**2 + ux) is None
    assert solve_for_t_derivative(u * ux) is None


def test_solve_evolution_leaves_a_second_equation_for_a_solved_variable():
    # the first rule for u stands; the second equation is left over
    system, leftovers = solve_evolution((ut - uxxx, 2 * ut - u * ux))
    assert system.rules == {"u": uxxx}
    assert leftovers == (2 * ut - u * ux,)


def test_solve_evolution_leaves_a_right_side_that_holds_eta():
    system, leftovers = solve_evolution((ut - sym("eta") * ux,))
    assert system.rules == {}
    assert leftovers == (ut - sym("eta") * ux,)


def test_solve_evolution_keeps_the_leftovers_in_input_order():
    vt = sym(jet("v", 0, 1))
    system, leftovers = solve_evolution((u * ux, ut - uxx, uxt + u, vt - ux, ut + u, qx))
    assert system.rules == {"u": uxx, "v": ux}
    assert leftovers == (u * ux, uxt + u, ut + u, qx)


x, eta = sym("x"), sym("eta")
# Jet-dependent denominators, and exponential atoms: one at a rational
# power, one whose exponent has a denominator.
_POOL = (u, ux, uxx, q, qx, x, eta, 1 / ux, 1 / (q - I * u), 1 / (u + eta),
         exp_atom(u), exp_atom(ux / 2), exp_atom(-u), exp_atom(x), exp_atom(ux / x))
_COEFFICIENTS = st.builds(lambda a, b, c: Scalar.rational(a, c) + b * I,
                          st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3))


def _expressions():
    """Sums of 1-3 terms, each a Gaussian rational times 0-3 of _POOL."""
    terms = st.lists(st.tuples(_COEFFICIENTS, st.lists(st.sampled_from(_POOL), max_size=3)),
                     min_size=1, max_size=3)

    def total(terms) -> Scalar:
        out = ZERO
        for c, factors in terms:
            for factor in factors:
                c = c * factor
            out = out + c
        return out

    return terms.map(total)


@settings(max_examples=300)
@given(_expressions(), st.sampled_from("xt"))
def test_total_derivative_matches_sympy(e, direction):
    """D e = d e/d direction + sum over the jet symbols s of deps in e of
    d e/d s times s one derivative higher."""
    deps = ("u", "q")
    expr = to_sympy(e)
    expected = sp.diff(expr, sp.Symbol(direction))
    for s in e.free_symbols():
        parts = split_jet(s)
        if parts is not None and parts[0] in deps:
            var, nx, nt = parts
            bumped = jet(var, nx + 1, nt) if direction == "x" else jet(var, nx, nt + 1)
            expected += sp.diff(expr, sp.Symbol(s)) * sp.Symbol(bumped)
    assert from_sympy(expected) == total_derivative(e, direction, deps)


@settings(max_examples=300)
@given(_expressions(), st.sampled_from(("u", "u_x", "q", "x", "eta", "t")))
def test_diff_matches_sympy(e, name):
    assert from_sympy(sp.diff(to_sympy(e), sp.Symbol(name))) == e.diff(name)


def test_total_derivative_is_one_derivation(monkeypatch):
    """D_x takes the stored pair to its derivative in one pass, with no
    partial derivative and no Scalar product on the way."""
    e = (u * ux + exp_atom(ux / 2)) / (q - I * u) + exp_atom(ux / x) * qx
    calls = []
    for name in ("diff", "__mul__", "__rmul__"):
        original = getattr(Scalar, name)
        monkeypatch.setattr(Scalar, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    for direction in "xt":
        total_derivative(e, direction, ["u", "q"])
    assert calls == []
