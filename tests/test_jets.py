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
    split_jet,
    total_derivative,
    total_derivatives,
)

from sympy_bridge import from_sympy, to_sympy

u, ux, uxx, uxxx = sym(jet("u")), sym(jet("u", 1)), sym(jet("u", 2)), sym(jet("u", 3))
ut, uxt, uxxt = sym(jet("u", 0, 1)), sym(jet("u", 1, 1)), sym(jet("u", 2, 1))
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
    sys = EvolutionSystem({"u_t": -u * ux})
    assert reduce_mod_evolution(ut, sys) == -u * ux


def test_reduce_prolonged_rule():
    sys = EvolutionSystem({"u_t": -u * ux})
    got = reduce_mod_evolution(uxt, sys)
    assert got == -(ux**2) - u * uxx


def test_reduce_second_t_derivative():
    # u_tt = D_t(u*u_x) = u_t*u_x + u*u_xt, each t-derivative reduced again
    sys = EvolutionSystem({"u_t": u * ux})
    assert reduce_mod_evolution(sym(jet("u", 0, 2)), sys) == u**2 * uxx + 2 * u * ux**2


def test_evolution_system_of_pairs_or_a_dict():
    assert EvolutionSystem((("u_t", u * ux),)) == EvolutionSystem({"u_t": u * ux})


def test_reduce_no_t_derivatives_is_identity():
    sys = EvolutionSystem({"u_t": uxx})
    assert reduce_mod_evolution(ux, sys) == ux


def test_reduce_idempotent():
    sys = EvolutionSystem({"u_t": uxxx + u * ux})
    e = ut * uxt + u
    once = reduce_mod_evolution(e, sys)
    assert reduce_mod_evolution(once, sys) == once


def test_reduce_uncovered_variable():
    sys = EvolutionSystem({"u_t": ux})
    with pytest.raises(ValueError):
        reduce_mod_evolution(sym(jet("v", 0, 1)), sys)


def test_evolution_rhs_must_be_t_free():
    with pytest.raises(ValueError):
        EvolutionSystem({"u_t": ut})


def test_a_rule_holds_no_jet_of_its_variable_at_or_above_its_leader():
    # u_t and u_xxx lie below u_xxt in the ranking; u_xxxt lies above it
    assert EvolutionSystem({"u_xxt": ut + uxxx}).deps == ("u",)
    with pytest.raises(ValueError, match="u_xxxt"):
        EvolutionSystem({"u_xxt": sym(jet("u", 3, 1))})
    with pytest.raises(ValueError, match="p_x"):
        EvolutionSystem({"p": sym(jet("p", 1))}, ("u", "p"))


def test_a_second_rule_for_a_variable_is_refused():
    with pytest.raises(ValueError, match="a second rule for u"):
        EvolutionSystem((("u_t", uxx), ("u_xxt", ut)))
    with pytest.raises(ValueError, match="a second rule for p"):
        EvolutionSystem((("p", ux), ("p", uxx)))


def test_the_constructor_stages_each_right_side_modulo_the_rules_before_it():
    p_x = sym(jet("p", 1))
    staged = EvolutionSystem((("p", ux), ("q", p_x)), ("u", "p", "q"))
    assert staged.rules == {"p": ux, "q": uxx}
    # the first right side is reduced too: a t-derivative outside deps is refused
    with pytest.raises(ValueError, match="t-derivative of v"):
        EvolutionSystem({"u_t": sym(jet("v", 1, 1))})
    with pytest.raises(ValueError, match="t-derivative of v"):
        EvolutionSystem((("p", ux), ("u_t", p_x * sym(jet("v", 0, 1)))), ("u", "p"))


def test_a_cycle_of_rules_is_refused_at_the_rule_that_closes_it():
    p_x, q_x, r_x = sym(jet("p", 1)), sym(jet("q", 1)), sym(jet("r", 1))
    # q -> p_x becomes q -> q_xx modulo p -> q_x
    with pytest.raises(ValueError, match="the rule for q holds q_xx"):
        EvolutionSystem({"p": q_x, "q": p_x}, ("p", "q"))
    # r -> p_x becomes r -> r_xxx modulo p -> q_x and q -> r_x
    with pytest.raises(ValueError, match="the rule for r holds r_xxx"):
        EvolutionSystem({"p": q_x, "q": r_x, "r": p_x}, ("p", "q", "r"))
    # the same rules without the closing one reduce p to the far end of the chain
    chain = EvolutionSystem({"p": q_x, "q": r_x}, ("p", "q", "r"))
    assert reduce_mod_evolution(sym(jet("p", 0, 1)), chain) == sym(jet("r", 2, 1))


def test_the_staged_rules_are_read_only():
    system = EvolutionSystem({"q": sym(jet("p", 1))}, ("p", "q"))
    with pytest.raises(TypeError):
        system.rules["p"] = sym(jet("q", 1))  # would close the cycle p -> q_x -> p_xx
    assert system.rules == {"q": sym(jet("p", 1))}
    assert reduce_mod_evolution(sym("p"), system) == sym("p")


def test_reduce_modulo_a_leader_above_the_first_t_derivative():
    # u_xxt = u_t + u*u_x: u_t and u_xt stay, u_xxxt is D_x of the right side
    sys = EvolutionSystem({"u_xxt": ut + u * ux})
    assert reduce_mod_evolution(ut + uxt, sys) == ut + uxt
    assert reduce_mod_evolution(uxxt, sys) == ut + u * ux
    assert reduce_mod_evolution(sym(jet("u", 3, 1)), sys) == uxt + ux**2 + u * uxx
    # u_xxxxt = D_x^2 (u_t + u*u_x) holds u_xxt, itself reduced again
    assert reduce_mod_evolution(sym(jet("u", 4, 1)), sys) == ut + u * ux + 3 * ux * uxx + u * uxxx


def test_reduce_modulo_a_section_elimination():
    # p -> u_x at t-order 0: every jet of p becomes the total derivative of u_x
    p = sym(jet("p"))
    sys = EvolutionSystem({"p": ux}, ("u", "p"))
    assert sys.deps == ("u", "p")
    e = p * sym(jet("p", 1, 1)) + sym(jet("p", 0, 1))
    assert reduce_mod_evolution(e, sys) == ux * sym(jet("u", 2, 1)) + uxt


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


def test_a_total_derivative_certificate_refuses_t_derivatives_of_deps():
    with pytest.raises(ValueError, match="found u_t$"):
        is_total_x_derivative(ut * ux, ["u"])


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


def _rule_sets() -> dict:
    """name -> (EvolutionSystem, the jets an expression draws from): KdV,
    the peakon equation solved for u_xxt, the ch section's eliminations,
    and both of the latter, as laxcheck reduces the ch connection."""
    beta, p, q = sym("beta"), sym(jet("p")), sym(jet("q"))
    peakon = {"u_xxt": ut + u * (ux - uxxx) + beta * (u - uxx) * ux}
    section = {"p": ux, "q": uxx}
    u_jets = (u, ux, ut, uxt, uxxt, sym(jet("u", 3, 1)), sym(jet("u", 0, 2)), sym(jet("u", 2, 2)))
    chart_jets = (*u_jets[:5], p, sym(jet("p", 1)), sym(jet("p", 0, 1)), q, sym(jet("q", 1, 1)))
    return {
        "kdv": (EvolutionSystem({"u_t": -6 * u * ux - uxxx}), u_jets),
        "peakon": (EvolutionSystem(peakon), u_jets),
        "section": (EvolutionSystem(section, ("u", "p", "q")), chart_jets),
        "section+peakon": (EvolutionSystem({**section, **peakon}, ("u", "p", "q")), chart_jets),
    }


_RULE_SETS = _rule_sets()


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("name", sorted(_RULE_SETS))
@given(data=st.data(), direction=st.sampled_from("xt"))
def test_reduction_is_a_normal_form(name, data, direction):
    """Reducing twice equals reducing once, no jet at or above a leader is
    left, and reduction commutes with a total derivative."""
    sys, pool = _RULE_SETS[name]
    e = data.draw(_polys(*pool))
    once = reduce_mod_evolution(e, sys)
    assert reduce_mod_evolution(once, sys) == once
    leaders = [split_jet(leader) for leader in sys.rules]
    for var, nx, nt in filter(None, map(split_jet, once.free_symbols())):
        assert not any(var == v and nx >= a and nt >= b for v, a, b in leaders)
    derivative = total_derivative(e, direction, sys.deps)
    assert reduce_mod_evolution(derivative, sys) == reduce_mod_evolution(
        total_derivative(once, direction, sys.deps), sys)


@pytest.mark.parametrize("name", ["kdv", "peakon"])
def test_derivatives_of_an_equation_reduce_to_zero_modulo_its_own_rule(name):
    # D_x^2 of the peakon equation reaches u_xxxxt, two x-steps above u_xxt
    beta = sym("beta")
    equation = {
        "kdv": ut + 6 * u * ux + uxxx,
        "peakon": ut - uxxt + u * (ux - uxxx) + beta * (u - uxx) * ux,
    }[name]
    system, leftovers = solve_evolution((equation,), ("u",))
    assert leftovers == ()
    for nx, nt in ((0, 0), (1, 0), (2, 0), (0, 1), (2, 1)):
        derivative = total_derivatives(equation, nx, nt, ("u",))
        assert reduce_mod_evolution(derivative, system).is_zero


def test_jet_order_reporting():
    assert jet_order(u * uxxx + ux, ["u"]) == 3
    assert jet_order(q, ["u"]) == 0


def test_solve_evolution_solves_each_equation_for_its_leader():
    vt = sym(jet("v", 0, 1))
    equations = (2 * ut + u * ux - uxxx, ux + sym(jet("v", 2)) - vt)
    system, leftovers = solve_evolution(equations, ("u", "v"))
    assert system.rules == {"u_t": (uxxx - u * ux) / 2, "v_t": ux + sym(jet("v", 2))}
    assert leftovers == ()
    # the peakon equation: its leader u_xxt outranks u_t and u_xxx
    beta = sym("beta")
    peakon = ut - uxxt + u * (ux - uxxx) + beta * (u - uxx) * ux
    system, leftovers = solve_evolution((peakon,), ("u",))
    assert system.rules == {"u_xxt": peakon + uxxt} and leftovers == ()


def test_solve_evolution_refuses_a_t_derivative_of_another_variable():
    vt = sym(jet("v", 0, 1))
    system, leftovers = solve_evolution((uxt + vt + u * ux,), ("u", "v"))
    assert system.rules == {} and leftovers == (uxt + vt + u * ux,)
    # a lower t-derivative of the leader's own variable may stay beside it
    system, leftovers = solve_evolution((uxt + ut + u * ux,), ("u",))
    assert system.rules == {"u_xt": -ut - u * ux} and leftovers == ()


def test_solve_evolution_refuses_a_leader_with_a_jet_in_its_coefficient():
    beta = sym("beta")
    equations = (ut**2 + ux, u * ut + ux, uxx * uxxt - u, u * ux, beta * ut - uxx)
    system, leftovers = solve_evolution(equations, ("u",))
    assert system.rules == {"u_t": uxx / beta}
    assert leftovers == equations[:4]


def test_solve_evolution_leaves_an_equation_whose_slope_holds_a_field():
    # q*u_t - u_xx would give u_t = u_xx/q, dividing by the field q
    equation = q * ut - uxx
    system, leftovers = solve_evolution((equation,), ("u", "q"))
    assert system.rules == {} and leftovers == (equation,)
    # where q is a parameter, not a field, the same equation is a rule
    system, leftovers = solve_evolution((equation,), ("u",))
    assert system.rules == {"u_t": uxx / q} and leftovers == ()


def test_solve_evolution_keeps_every_field_a_dependent_variable():
    # v has no rule, yet D_t of u_t = v_xx is v_xxt, not zero
    system, leftovers = solve_evolution((ut - sym(jet("v", 2)),), ("u", "v"))
    assert system.deps == ("u", "v") and leftovers == ()
    assert reduce_mod_evolution(sym(jet("u", 0, 2)), system) == sym(jet("v", 2, 1))


def test_solve_evolution_leaves_a_second_equation_for_a_solved_variable():
    # the first rule for u stands; the second equation is left over, even
    # with another leader
    system, leftovers = solve_evolution((ut - uxxx, 2 * ut - u * ux, uxxt - u), ("u",))
    assert system.rules == {"u_t": uxxx}
    assert leftovers == (2 * ut - u * ux, uxxt - u)


def test_solve_evolution_leaves_a_right_side_that_holds_eta():
    system, leftovers = solve_evolution((ut - sym("eta") * ux,), ("u",))
    assert system.rules == {}
    assert leftovers == (ut - sym("eta") * ux,)


def test_solve_evolution_keeps_the_leftovers_in_input_order():
    vt = sym(jet("v", 0, 1))
    system, leftovers = solve_evolution((u * ux, ut - uxx, uxt + u, vt - ux, ut + u, qx), ("u", "v", "q"))
    assert system.rules == {"u_t": uxx, "v_t": ux}
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
