"""Exterior ideals: membership, closure, sectioning, connections."""

from __future__ import annotations

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from prolong import linsolve
from prolong.cli import main
from prolong.coeff import ETA, I, ONE, Scalar, ZERO, exp_atom, is_constant_multiple, substitute, sym
from prolong.dsl import parse
from prolong.forms import DerivationContext
from prolong.jets import EvolutionSystem, is_total_x_derivative, jet, solve_evolution
from prolong.we import (
    ConnectionData,
    ExteriorIdeal,
    closure_check,
    curvature_matrix,
    ideal_membership,
    named_equation,
    prolongation_residual,
    section,
    zero_curvature_residual,
)
from prolong.we import _peakon_family

from scalar_corpus import NAMES, corpus, exponents
from sympy_bridge import from_sympy

U, Q, P, BETA, LAM = (sp.Symbol(n) for n in ("u", "q", "p", "beta", "lam"))


def _with_beta(ideal: ExteriorIdeal, value) -> ExteriorIdeal:
    subs = {"beta": Scalar(value)}
    return ExteriorIdeal(
        ctx=ideal.ctx,
        generators={
            n: g.map_coefficients(lambda c: substitute(c, subs)) for n, g in ideal.generators.items()
        },
    )


def test_membership_contact_pair(ch_ideal):
    ctx = ch_ideal.ctx
    phi = ctx.gen("dx").wedge(ch_ideal.generators["xi2"])
    witness = ideal_membership(phi, ch_ideal)
    assert witness is not None
    assert witness.multipliers["xi2"] == ctx.gen("dx")
    assert witness.multipliers["xi1"].is_zero
    assert (witness.expand() - phi).is_zero


def test_membership_of_zero_is_empty(ch_ideal):
    witness = ideal_membership(ch_ideal.ctx.zero(3), ch_ideal)
    assert witness is not None
    assert all(m.is_zero for m in witness.multipliers.values())


def test_membership_generic_two_form_fails(ch_ideal):
    ctx = ch_ideal.ctx
    phi = ctx.gen("du").wedge(ctx.gen("dp"))
    assert ideal_membership(phi, ch_ideal) is None


def test_trivial_ideal_is_closed():
    ctx = DerivationContext(scalars=("x", "t", "u"))
    ideal = ExteriorIdeal(
        ctx=ctx,
        generators={"xi": ctx.gen("du").wedge(ctx.gen("dt"))},
    )
    assert closure_check(ideal).ok


def test_peakon_ideal_closure_with_symbolic_beta(ch_ideal):
    result = closure_check(ch_ideal)
    assert result.ok
    for name, witness in result.witnesses.items():
        d_gen = ch_ideal.generators[name].d()
        assert (witness.expand() - d_gen).is_zero


def test_first_generator_witness_matches_tabulated_form(ch_ideal):
    result = closure_check(ch_ideal)
    witness = result.witnesses["xi1"]
    assert witness.multipliers["xi2"] == ch_ideal.ctx.gen("dx")
    assert witness.multipliers["xi1"].is_zero
    assert witness.multipliers["xi3"].is_zero


def test_second_generator_witness_ideal_equivalent_to_tabulated(ch_ideal):
    # tabulated multipliers: (1/u) dx ^ (-xi3 + u*((1+beta)*u - q)*xi1);
    # their expansion differs from d(xi2) by an element of the ideal
    ctx = ch_ideal.ctx
    dx = ctx.gen("dx")
    u, q, beta = from_sympy(U), from_sympy(Q), from_sympy(BETA)
    tabulated = dx.wedge(ch_ideal.generators["xi3"]) * (-(1 / u)) + dx.wedge(
        ch_ideal.generators["xi1"]
    ) * ((1 + beta) * u - q)
    difference = tabulated - ch_ideal.generators["xi2"].d()
    witness = ideal_membership(difference, ch_ideal)
    assert witness is not None
    assert (witness.expand() - difference).is_zero


def test_third_generator_tabulated_witness_is_exact(ch_ideal):
    # (1 - beta) * ((dq - p dx) ^ xi1 + p dt ^ xi3) reproduces d(xi3)
    ctx = ch_ideal.ctx
    dq, dx, dt = ctx.gen("dq"), ctx.gen("dx"), ctx.gen("dt")
    p, beta = from_sympy(P), from_sympy(BETA)
    one_minus = Scalar(1) - beta
    tabulated = (
        (dq - dx * p).wedge(ch_ideal.generators["xi1"])
        + dt.wedge(ch_ideal.generators["xi3"]) * p
    ) * one_minus
    assert (tabulated - ch_ideal.generators["xi3"].d()).is_zero


def test_closure_failure_reported_when_generator_missing(ch_ideal):
    broken = ExteriorIdeal(
        ctx=ch_ideal.ctx,
        generators={"xi1": ch_ideal.generators["xi1"], "xi3": ch_ideal.generators["xi3"]},
    )
    result = closure_check(broken)
    assert not result.ok
    assert list(result.failures) == ["xi1"]
    assert result.failures["xi1"] == ch_ideal.generators["xi1"].d()


def test_section_raw_equations(ch_ideal):
    result = section(ch_ideal)
    u_x, p, p_x, q = sym(jet("u", 1)), sym(jet("p")), sym(jet("p", 1)), sym(jet("q"))
    assert result.raw["xi1"] == Scalar(u_x - p)
    assert result.raw["xi2"] == Scalar(p_x - q)
    u, u_t, q_t, q_x = sym(jet("u")), sym(jet("u", 0, 1)), sym(jet("q", 0, 1)), sym(jet("q", 1))
    expected = u_t - q_t + u * (u_x - q_x) + from_sympy(BETA) * (u - q) * u_x
    assert result.raw["xi3"] == expected


def test_section_elimination_chain(ch_model, ch_ideal):
    result = section(ch_ideal, ch_model.sections["ch"])
    assert [(v, str(r)) for v, r in result.eliminations.rules.items()] == [
        ("p", "u_x"),
        ("q", "u_xx"),
    ]
    assert len(result.reduced) == 1
    u, ux, uxx, uxxx = sym(jet("u")), sym(jet("u", 1)), sym(jet("u", 2)), sym(jet("u", 3))
    ut, uxxt = sym(jet("u", 0, 1)), sym(jet("u", 2, 1))
    target = (ut - uxxt) + u * (ux - uxxx) + from_sympy(BETA) * (u - uxx) * ux
    assert result.reduced[0] == target


def test_section_cyclic_elimination_rejected(ch_ideal):
    p_x, q_x = sym(jet("p", 1)), sym(jet("q", 1))
    with pytest.raises(ValueError):
        section(ch_ideal, [("p", p_x)])
    # q -> p_x becomes q -> q_xx modulo the staged p -> q_x
    with pytest.raises(ValueError, match="q_xx"):
        section(ch_ideal, [("p", q_x), ("q", p_x)])
    with pytest.raises(ValueError, match="a second rule for p"):
        section(ch_ideal, [("p", sym(jet("u", 1))), ("p", q_x)])


def test_section_reduces_modulo_a_later_elimination(ch_ideal):
    # p -> q_x is staged as it is, and q -> u_x then reaches it too
    u_x, u_xx = sym(jet("u", 1)), sym(jet("u", 2))
    result = section(ch_ideal, [("p", sym(jet("q", 1))), ("q", u_x)])
    assert result.eliminations.rules == {"p": sym(jet("q", 1)), "q": u_x}
    assert result.reduced[0] == u_x - u_xx


def test_section_generator_order_irrelevant(ch_model, ch_ideal):
    shuffled = ExteriorIdeal(
        ctx=ch_ideal.ctx,
        generators=dict(reversed(ch_ideal.generators.items())),
    )
    a = section(ch_ideal, ch_model.sections["ch"])
    b = section(shuffled, ch_model.sections["ch"])
    assert set(map(str, a.reduced)) == set(map(str, b.reduced))


def test_named_equation_labels(ch_model, ch_ideal):
    chain = ch_model.sections["ch"]
    for beta, label in ((2, "Camassa-Holm"), (3, "Degasperis-Procesi")):
        result = section(_with_beta(ch_ideal, beta), chain)
        assert tuple(map(named_equation, result.reduced)) == (label,)
    symbolic = section(ch_ideal, chain)
    assert tuple(map(named_equation, symbolic.reduced)) == (None,)


def test_named_equation_scaling_tolerated():
    f2 = _peakon_family(2)
    for scaled in (f2 * Scalar(-7), f2 * I, f2 / 9):
        assert named_equation(scaled) == "Camassa-Holm"
    # another member, a symbol factor, a shifted equation and zero are not named
    for other in (_peakon_family(5), sym("u") * f2, f2 + sym(jet("u", 1, 0)), ZERO):
        assert named_equation(other) is None


_ATOMS = [exp_atom(e) for e in exponents()]
_SCALARS = corpus(11, 40, [sym(n) for n in NAMES], _ATOMS)
# Gaussian rationals, exponentials of constants (exp(1), exp(1/3),
# exp(1 + i)) and quotients of them, and zero
_CONSTANTS = [ZERO, ONE, -I / 3, Scalar.rational(7, 2) + I, *_ATOMS[-3:],
              _ATOMS[-3] / (1 + _ATOMS[-1]), (2 - I) * _ATOMS[-2] ** 2 / 5]


@settings(max_examples=150)
@given(st.sampled_from(_SCALARS), st.sampled_from(_CONSTANTS), st.sampled_from(_SCALARS),
       st.sampled_from(("multiple", "shifted", "other", "times a symbol")))
def test_constant_multiples_are_the_quotients_without_free_symbols(target, c, other, how):
    e = {"multiple": c * target, "shifted": c * target + other, "other": other,
         "times a symbol": c * target * sym(NAMES[0])}[how]
    # the definition: e/target is defined, nonzero and free of symbols
    expected = not e.is_zero and not target.is_zero and not (e / target).free_symbols()
    assert is_constant_multiple(e, target) == expected
    if how == "multiple":
        assert expected == (not c.is_zero and not target.is_zero)


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


def test_prolongation_zero_connection(ch_ideal):
    zero = ((ZERO, ZERO), (ZERO, ZERO))
    result = prolongation_residual(ConnectionData(F=zero, G=zero), ch_ideal)
    assert result.ok
    for witness in result.witnesses.values():
        assert all(m.is_zero for m in witness.multipliers.values())


def test_prolongation_constant_commuting(ch_ideal):
    a = ((Scalar(1), Scalar(2)), (Scalar(0), Scalar(3)))
    result = prolongation_residual(ConnectionData(F=a, G=a), ch_ideal)
    assert result.ok


def test_prolongation_peakon_connection(ch_model, ch_ideal):
    conn = ch_model.connections["lax"]
    result = prolongation_residual(conn, _with_beta(ch_ideal, 2))
    assert result.ok
    witness = result.witnesses[1, 0]
    lam = from_sympy(LAM)
    u, q = from_sympy(U), from_sympy(Q)
    assert witness.multipliers["xi3"].as_scalar() == -lam
    assert witness.multipliers["xi1"].as_scalar() == lam * (u - q) + from_sympy(sp.Rational(1, 4))


def test_prolongation_fails_off_the_member(ch_model, ch_ideal):
    conn = ch_model.connections["lax"]
    assert not prolongation_residual(conn, ch_ideal).ok  # symbolic beta
    assert not prolongation_residual(conn, _with_beta(ch_ideal, 3)).ok


def test_prolongation_kdv_ideal(kdv_ideal_model):
    ideal = kdv_ideal_model.ideals["kdv"]
    conn = kdv_ideal_model.connections["lax"]
    assert closure_check(ideal).ok
    assert prolongation_residual(conn, ideal).ok


def _connection(f: sp.Matrix, g: sp.Matrix) -> ConnectionData:
    def rows(m):
        return tuple(tuple(from_sympy(m[i, j]) for j in range(m.cols)) for i in range(m.rows))

    return ConnectionData(F=rows(f), G=rows(g))


def test_prolongation_3x3_matches_hand_curvature():
    ctx = DerivationContext(scalars=("x", "t", "u"))
    du, dx, dt = ctx.gen("du"), ctx.gen("dx"), ctx.gen("dt")
    ideal = ExteriorIdeal(
        ctx=ctx,
        generators={"a": du.wedge(dx), "b": du.wedge(dt)},
    )
    f = sp.Matrix([[U, 1, 0], [0, U**2, 1], [1, 0, -U]])
    g = sp.Matrix([[0, 1, U], [U, 0, 0], [0, 3, 1]])
    comm = f * g - g * f
    result = prolongation_residual(_connection(f, g), ideal)
    for i in range(3):
        for j in range(3):
            expected = (
                du.wedge(dt) * from_sympy(sp.diff(f[i, j], U))
                + du.wedge(dx) * from_sympy(sp.diff(g[i, j], U))
                + dx.wedge(dt) * from_sympy(comm[i, j])
            )
            assert result.residuals[i, j] == expected
    assert not result.ok  # [F, G] has dx^dt parts outside the ideal
    # commuting u-dependent pair: every entry lies in the ideal
    n = sp.Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert prolongation_residual(_connection(U * n, U**2 * n), ideal).ok
    # non-commuting constant pair: the entries are [F, G] dx^dt
    e12 = sp.Matrix(3, 3, lambda i, j: int((i, j) == (0, 1)))
    constant = prolongation_residual(_connection(e12, e12.T), ideal)
    assert not constant.ok
    assert constant.witnesses[0, 0] is None
    assert constant.residuals[0, 0] == dx.wedge(dt)
    assert constant.residuals[1, 1] == -dx.wedge(dt)
    assert constant.witnesses[0, 1] is not None


def test_curvature_matrix_3x3_matches_hand_curvature():
    u, ux, uxx, ut, uxt = (sp.Symbol(jet("u", *k)) for k in ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1)))

    def d_x(e):  # chain rule over the jet variables that occur
        return sp.diff(e, u) * ux + sp.diff(e, ux) * uxx

    def d_t(e):
        return sp.diff(e, u) * ut + sp.diff(e, ux) * uxt

    f = sp.Matrix([[u, ux, 0], [0, u**2, 1], [ux, 0, -u]])
    g = sp.Matrix([[0, 1, u], [u * ux, 0, 0], [0, sp.Symbol(ETA), 1]])
    expected = f.applyfunc(d_x) - g.applyfunc(d_t) + f * g - g * f
    raw = curvature_matrix(_connection(f, g), ("u",))
    for i in range(3):
        for j in range(3):
            assert raw[i][j] == from_sympy(expected[i, j])
    # non-commuting constant pair: the curvature is [F, G] = E11 - E22
    e12 = sp.Matrix(3, 3, lambda i, j: int((i, j) == (0, 1)))
    raw = curvature_matrix(_connection(e12, e12.T), ("u",))
    assert [list(row) for row in raw] == [
        [from_sympy(e) for e in row] for row in ([1, 0, 0], [0, -1, 0], [0, 0, 0])]


def test_zero_curvature_trivial_cases():
    sys = EvolutionSystem({"u_t": sym(jet("u", 1))})
    zero = ((ZERO, ZERO), (ZERO, ZERO))
    raw = curvature_matrix(ConnectionData(F=zero, G=zero), sys.deps)
    res = zero_curvature_residual(raw, sys)
    assert all(c.is_zero for row in res for c in row)
    a = ((Scalar(2), ZERO), (ZERO, Scalar(5)))
    b = ((Scalar(1), ZERO), (ZERO, Scalar(7)))
    raw = curvature_matrix(ConnectionData(F=a, G=b), sys.deps)
    res = zero_curvature_residual(raw, sys)
    assert all(c.is_zero for row in res for c in row)


def test_zero_curvature_kdv_cross_module(kdv_ideal_model):
    ideal = kdv_ideal_model.ideals["kdv"]
    chain = kdv_ideal_model.sections["kdv"]
    sec = section(ideal, chain)
    sys, leftovers = solve_evolution(sec.reduced, sec.eliminations.deps)
    assert leftovers == ()
    u, ux, uxxx = sym(jet("u")), sym(jet("u", 1)), sym(jet("u", 3))
    assert sys.rules["u_t"] == Scalar(-uxxx - 6 * u * ux)
    # the curvature over the chart, reduced modulo the eliminations and u_t at once
    both = EvolutionSystem({**sec.eliminations.rules, **sys.rules}, sec.eliminations.deps)
    raw = curvature_matrix(kdv_ideal_model.connections["lax"], both.deps)
    res = zero_curvature_residual(raw, both)
    assert all(c.is_zero for row in res for c in row)


def test_zero_curvature_akns_connection(kdv_spec, kdv_system):
    from prolong.su2 import theta_components

    a, b, c = kdv_spec.A, kdv_spec.B, kdv_spec.C
    eta = sym(ETA)
    conn = ConnectionData(
        F=((a, b), (c, -a)),
        G=((eta, kdv_spec.q), (kdv_spec.r, -eta)),
    )
    raw = curvature_matrix(conn, kdv_spec.deps)
    res = zero_curvature_residual(raw, kdv_system)
    assert all(x.is_zero for row in res for x in row)
    assert kdv_spec.connection == conn
    # unreduced curvature entries agree with the curvature coefficients
    comps = theta_components(kdv_spec)
    assert raw[0][0] == comps.third_coeff
    assert raw[0][1] == comps.minus_coeff
    assert raw[1][0] == comps.plus_coeff
    assert (raw[1][1] + comps.third_coeff).is_zero


MIXED_DEGREE_MODEL = """\
chart x t u p
ideal contact {
  th = du - p*dx
  om = u*dp^dx
}
"""


def test_mixed_degree_ideal_closes():
    ideal = parse(MIXED_DEGREE_MODEL).ideals["contact"]
    result = closure_check(ideal)
    assert result.ok
    for name in ("th", "om"):
        witness = result.witnesses[name]
        assert (witness.expand() - ideal.generators[name].d()).is_zero
    # d(om) needs a two-form multiplier on the one-form th
    assert result.witnesses["om"].multipliers["th"].degree == 2


def test_mixed_degree_ideal_closure_verb(tmp_path, capsys):
    path = tmp_path / "contact.eds"
    path.write_text(MIXED_DEGREE_MODEL, encoding="utf-8")
    assert main(["closure", str(path)]) == 0
    assert "result: ok" in capsys.readouterr().out


def test_mixed_degree_ideal_sections():
    ideal = parse(MIXED_DEGREE_MODEL).ideals["contact"]
    result = section(ideal)
    p, u = sym(jet("p")), sym(jet("u"))
    assert tuple(result.raw) == ("th-dx", "th-dt", "om")
    assert tuple(result.raw.values()) == (
        -p + sym(jet("u", 1)),
        sym(jet("u", 0, 1)),
        -sym(jet("p", 0, 1)) * u,
    )


def test_mixed_degree_ideal_section_verb(tmp_path, capsys):
    path = tmp_path / "contact.eds"
    path.write_text(MIXED_DEGREE_MODEL, encoding="utf-8")
    assert main(["section", str(path)]) == 0
    out = capsys.readouterr().out
    assert "raw-th-dx" in out and "raw-th-dt" in out and "raw-om" in out


def test_section_needs_the_coordinates_x_and_t(tmp_path, capsys):
    text = "chart a b u\nideal e {\n  xi = du^db - u*da^db\n}\n"
    ideal = parse(text).ideals["e"]
    with pytest.raises(ValueError, match="section needs the coordinates x and t"):
        section(ideal)
    assert closure_check(ideal).ok  # closure needs no base pair
    path = tmp_path / "ab.eds"
    path.write_text(text, encoding="utf-8")
    assert main(["section", str(path)]) == 2
    assert "section needs the coordinates x and t" in capsys.readouterr().err
    # negative control: the same ideal over (x, t) sections
    path.write_text("chart x t u\nideal e {\n  xi = du^dt - u*dx^dt\n}\n", encoding="utf-8")
    assert main(["section", str(path)]) == 0


def test_prolongation_needs_the_coordinates_x_and_t():
    ideal = parse("chart a b u\nideal e {\n  xi = du^db - u*da^db\n}\n").ideals["e"]
    conn = ConnectionData(F=((ZERO,),), G=((ZERO,),))
    with pytest.raises(ValueError, match="prolong needs the coordinates x and t"):
        prolongation_residual(conn, ideal)
    assert closure_check(ideal).ok  # closure needs no base pair


def test_an_unknown_name_raises_key_error(ch_ideal):
    closure = closure_check(ch_ideal)
    assert closure.witnesses["xi1"].multipliers["xi2"] == ch_ideal.ctx.gen("dx")
    with pytest.raises(KeyError):
        closure.witnesses["xi9"]
    zero = ((ZERO, ZERO), (ZERO, ZERO))
    prolonged = prolongation_residual(ConnectionData(F=zero, G=zero), ch_ideal)
    assert prolonged.residuals[1, 1].is_zero and prolonged.witnesses[1, 1] is not None
    with pytest.raises(KeyError):
        prolonged.witnesses[5, 5]
    with pytest.raises(KeyError):
        prolonged.residuals[5, 5]
    u_x, u_xx = sym(jet("u", 1)), sym(jet("u", 2))
    certificate = is_total_x_derivative(u_x * u_x, ["u"])
    assert certificate.witnesses["u"] == -2 * u_xx
    with pytest.raises(KeyError):
        certificate.witnesses["nope"]
    system = EvolutionSystem({"u_t": u_xx})
    assert system.rules["u_t"] == u_xx
    with pytest.raises(KeyError):
        system.rules["v_t"]


def test_section_evolution_solves_the_peakon_equation_for_u_xxt(ch_model, ch_ideal):
    sec = section(ch_ideal, ch_model.sections["ch"])
    system, leftovers = solve_evolution(sec.reduced, sec.eliminations.deps)
    assert leftovers == ()
    assert system.rules == {"u_xxt": sec.reduced[0] + sym(jet("u", 2, 1))}


def test_laxcheck_on_the_peakon_section_locates_entry_10(capsys):
    # the ch connection is the beta = 2 member's: at symbolic beta only
    # entry (1, 0) is nonzero, (beta - 2)*lam*u_x*(u - u_xx)
    assert main(["laxcheck", "--fixture", "ch"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert ('"residual": ["entry-10: u*beta*lam*u_x - 2*u*lam*u_x - beta*lam*u_x*u_xx'
            ' + 2*lam*u_x*u_xx"]') in out
    assert out.endswith("result: FAILED\n")


# d(cl) = 0, a zero target beside the two-form d(th) and the three-form d(om)
MIXED_WITH_A_CLOSED_GENERATOR = MIXED_DEGREE_MODEL.replace(
    "  om = u*dp^dx\n", "  om = u*dp^dx\n  cl = du^dx\n"
)


def _without(ideal: ExteriorIdeal, name: str) -> ExteriorIdeal:
    return ExteriorIdeal(
        ctx=ideal.ctx,
        generators={n: g for n, g in ideal.generators.items() if n != name},
    )


@pytest.mark.parametrize("case", ["ch-without-xi3", "mixed-degree"])
def test_batched_closure_matches_one_membership_at_a_time(case, ch_ideal):
    if case == "ch-without-xi3":
        ideal = _without(ch_ideal, "xi3")
    else:
        ideal = parse(MIXED_WITH_A_CLOSED_GENERATOR).ideals["contact"]
    result = closure_check(ideal)
    d_gens = {name: gen.d() for name, gen in ideal.generators.items()}
    singles = {name: ideal_membership(d, ideal) for name, d in d_gens.items()}
    assert result.witnesses == singles
    assert result.failures == {name: d_gens[name] for name, w in singles.items() if w is None}
    if case == "ch-without-xi3":
        # one batch holds a closed and a failed generator
        assert list(result.failures) == ["xi2"] and singles["xi1"] is not None
    else:
        assert result.ok and {d.degree for d in d_gens.values()} == {2, 3}
        assert d_gens["cl"].is_zero
        assert all(m.is_zero for m in result.witnesses["cl"].multipliers.values())


def test_batched_prolongation_matches_one_membership_at_a_time(ch_model, ch_ideal):
    ideal = _with_beta(ch_ideal, Scalar.rational(5, 8))
    result = prolongation_residual(ch_model.connections["lax"], ideal)
    singles = {key: ideal_membership(z, ideal) for key, z in result.residuals.items()}
    assert result.witnesses == singles
    assert None in singles.values() and any(w is not None for w in singles.values())


def test_one_elimination_per_degree(monkeypatch, ch_model, ch_ideal):
    """A check solves all its targets of one degree as one system."""
    right_hand_sides = []
    solve = linsolve.solve_linear

    def counted(matrix, columns):
        right_hand_sides.append(len(columns))
        return solve(matrix, columns)

    monkeypatch.setattr(linsolve, "solve_linear", counted)
    assert closure_check(ch_ideal).ok
    assert right_hand_sides == [3]
    right_hand_sides.clear()
    prolongation_residual(ch_model.connections["lax"], ch_ideal)
    assert right_hand_sides == [4]
    right_hand_sides.clear()
    assert closure_check(parse(MIXED_WITH_A_CLOSED_GENERATOR).ideals["contact"]).ok
    assert right_hand_sides == [1, 1]
