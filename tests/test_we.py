"""Exterior ideals: membership, closure, sectioning, connections."""

from __future__ import annotations

import pytest
import sympy as sp

from prolong.cli import main
from prolong.coeff import ETA, Scalar, ZERO
from prolong.dsl import parse
from prolong.jets import EvolutionSystem, jet
from prolong.we import (
    ConnectionData,
    ExteriorIdeal,
    apply_eliminations,
    chart_context,
    closure_check,
    curvature_matrix,
    extract_section_evolution,
    ideal_membership,
    named_equation,
    prolongation_residual,
    section,
    zero_curvature_residual,
)

U, Q, P, BETA, LAM = (sp.Symbol(n) for n in ("u", "q", "p", "beta", "lam"))


def _with_beta(ideal: ExteriorIdeal, value) -> ExteriorIdeal:
    subs = {BETA: Scalar.of(value)}
    return ExteriorIdeal(
        ctx=ideal.ctx,
        names=ideal.names,
        generators=tuple(g.map_coefficients(lambda c: c.subs(subs)) for g in ideal.generators),
        coordinates=ideal.coordinates,
        parameters=ideal.parameters,
    )


def test_membership_contact_pair(ch_ideal):
    ctx = ch_ideal.ctx
    phi = ctx.gen("dx").wedge(ch_ideal.generator("xi2"))
    witness = ideal_membership(phi, ch_ideal)
    assert witness is not None
    assert witness.multiplier("xi2") == ctx.gen("dx")
    assert witness.multiplier("xi1").is_zero
    assert (witness.expand() - phi).is_zero


def test_membership_of_zero_is_empty(ch_ideal):
    witness = ideal_membership(ch_ideal.ctx.zero(3), ch_ideal)
    assert witness is not None
    assert all(m.is_zero for m in witness.multipliers)


def test_membership_generic_two_form_fails(ch_ideal):
    ctx = ch_ideal.ctx
    phi = ctx.gen("du").wedge(ctx.gen("dp"))
    assert ideal_membership(phi, ch_ideal) is None


def test_trivial_ideal_is_closed():
    ctx = chart_context(["x", "t", "u"])
    ideal = ExteriorIdeal(
        ctx=ctx,
        names=("xi",),
        generators=(ctx.gen("du").wedge(ctx.gen("dt")),),
        coordinates=("x", "t", "u"),
    )
    assert closure_check(ideal).ok


def test_peakon_ideal_closure_with_symbolic_beta(ch_ideal):
    result = closure_check(ch_ideal)
    assert result.ok
    for name, witness in result.witnesses:
        d_gen = ch_ideal.generator(name).d()
        assert (witness.expand() - d_gen).is_zero


def test_first_generator_witness_matches_tabulated_form(ch_ideal):
    result = closure_check(ch_ideal)
    witness = result.witness("xi1")
    assert witness.multiplier("xi2") == ch_ideal.ctx.gen("dx")
    assert witness.multiplier("xi1").is_zero
    assert witness.multiplier("xi3").is_zero


def test_second_generator_witness_ideal_equivalent_to_tabulated(ch_ideal):
    # tabulated multipliers: (1/u) dx ^ (-xi3 + u*((1+beta)*u - q)*xi1);
    # their expansion differs from d(xi2) by an element of the ideal
    ctx = ch_ideal.ctx
    dx = ctx.gen("dx")
    u, q, beta = Scalar(U), Scalar(Q), Scalar(BETA)
    tabulated = dx.wedge(ch_ideal.generator("xi3")) * (-(1 / u)) + dx.wedge(
        ch_ideal.generator("xi1")
    ) * ((1 + beta) * u - q)
    difference = tabulated - ch_ideal.generator("xi2").d()
    witness = ideal_membership(difference, ch_ideal)
    assert witness is not None
    assert (witness.expand() - difference).is_zero


def test_third_generator_tabulated_witness_is_exact(ch_ideal):
    # (1 - beta) * ((dq - p dx) ^ xi1 + p dt ^ xi3) reproduces d(xi3)
    ctx = ch_ideal.ctx
    dq, dx, dt = ctx.gen("dq"), ctx.gen("dx"), ctx.gen("dt")
    p, beta = Scalar(P), Scalar(BETA)
    one_minus = Scalar.of(1) - beta
    tabulated = (
        (dq - dx * p).wedge(ch_ideal.generator("xi1"))
        + dt.wedge(ch_ideal.generator("xi3")) * p
    ) * one_minus
    assert (tabulated - ch_ideal.generator("xi3").d()).is_zero


def test_closure_failure_reported_when_generator_missing(ch_ideal):
    broken = ExteriorIdeal(
        ctx=ch_ideal.ctx,
        names=("xi1", "xi3"),
        generators=(ch_ideal.generator("xi1"), ch_ideal.generator("xi3")),
        coordinates=ch_ideal.coordinates,
        parameters=ch_ideal.parameters,
    )
    result = closure_check(broken)
    assert not result.ok
    assert [n for n, _ in result.failures] == ["xi1"]
    name, residual = result.failures[0]
    assert residual == ch_ideal.generator("xi1").d()


def test_section_raw_equations(ch_ideal):
    result = section(ch_ideal)
    u_x, p, p_x, q = jet("u", 1), jet("p"), jet("p", 1), jet("q")
    assert result.raw[0] == Scalar(u_x - p)
    assert result.raw[1] == Scalar(p_x - q)
    u, u_t, q_t, q_x = jet("u"), jet("u", 0, 1), jet("q", 0, 1), jet("q", 1)
    expected = Scalar(u_t - q_t + u * (u_x - q_x) + BETA * (u - q) * u_x)
    assert result.raw[2] == expected


def test_section_elimination_chain(ch_model, ch_ideal):
    result = section(ch_ideal, ch_model.sections["ch"])
    assert [(v, str(r)) for v, r in result.eliminations] == [
        ("p", "u_x"),
        ("q", "u_xx"),
    ]
    assert len(result.reduced) == 1
    u, ux, uxx, uxxx = jet("u"), jet("u", 1), jet("u", 2), jet("u", 3)
    ut, uxxt = jet("u", 0, 1), jet("u", 2, 1)
    target = Scalar(
        (ut - uxxt) + u * (ux - uxxx) + BETA * (u - uxx) * ux
    )
    assert result.reduced[0] == target


def test_section_cyclic_elimination_rejected(ch_ideal):
    with pytest.raises(ValueError):
        section(ch_ideal, [("p", Scalar(jet("p", 1)))])


def test_section_generator_order_irrelevant(ch_model, ch_ideal):
    shuffled = ExteriorIdeal(
        ctx=ch_ideal.ctx,
        names=tuple(reversed(ch_ideal.names)),
        generators=tuple(reversed(ch_ideal.generators)),
        coordinates=ch_ideal.coordinates,
        parameters=ch_ideal.parameters,
    )
    a = section(ch_ideal, ch_model.sections["ch"])
    b = section(shuffled, ch_model.sections["ch"])
    assert set(map(str, a.reduced)) == set(map(str, b.reduced))


def test_named_equation_labels(ch_model, ch_ideal):
    chain = ch_model.sections["ch"]
    for beta, label in ((2, "Camassa-Holm"), (3, "Degasperis-Procesi")):
        result = section(_with_beta(ch_ideal, beta), chain)
        assert result.labels == (label,)
    symbolic = section(ch_ideal, chain)
    assert symbolic.labels == (None,)


def test_named_equation_scaling_tolerated():
    from prolong.we import _peakon_family

    doubled = _peakon_family(2) * Scalar.of(-7)
    assert named_equation(doubled) == "Camassa-Holm"
    assert named_equation(_peakon_family(5)) is None


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


def test_prolongation_zero_connection(ch_ideal):
    zero = ((ZERO, ZERO), (ZERO, ZERO))
    result = prolongation_residual(ConnectionData(F=zero, G=zero), ch_ideal)
    assert result.ok
    for _, _, witness, _ in result.entries:
        assert all(m.is_zero for m in witness.multipliers)


def test_prolongation_constant_commuting(ch_ideal):
    a = ((Scalar.of(1), Scalar.of(2)), (Scalar.of(0), Scalar.of(3)))
    result = prolongation_residual(ConnectionData(F=a, G=a), ch_ideal)
    assert result.ok


def test_prolongation_peakon_connection(ch_model, ch_ideal):
    conn = ch_model.connections["lax"]
    result = prolongation_residual(conn, _with_beta(ch_ideal, 2))
    assert result.ok
    witness = result.witness(1, 0)
    lam = Scalar(LAM)
    u, q = Scalar(U), Scalar(Q)
    assert witness.multiplier("xi3").as_scalar() == -lam
    assert witness.multiplier("xi1").as_scalar() == lam * (u - q) + Scalar.of(sp.Rational(1, 4))


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
        return tuple(tuple(Scalar(m[i, j]) for j in range(m.cols)) for i in range(m.rows))

    return ConnectionData(F=rows(f), G=rows(g))


def test_prolongation_3x3_matches_hand_curvature():
    ctx = chart_context(("x", "t", "u"))
    du, dx, dt = ctx.gen("du"), ctx.gen("dx"), ctx.gen("dt")
    ideal = ExteriorIdeal(
        ctx=ctx,
        names=("a", "b"),
        generators=(du.wedge(dx), du.wedge(dt)),
        coordinates=("x", "t", "u"),
    )
    f = sp.Matrix([[U, 1, 0], [0, U**2, 1], [1, 0, -U]])
    g = sp.Matrix([[0, 1, U], [U, 0, 0], [0, 3, 1]])
    comm = f * g - g * f
    result = prolongation_residual(_connection(f, g), ideal)
    for i in range(3):
        for j in range(3):
            expected = (
                du.wedge(dt) * Scalar(sp.diff(f[i, j], U))
                + du.wedge(dx) * Scalar(sp.diff(g[i, j], U))
                + dx.wedge(dt) * Scalar(comm[i, j])
            )
            assert result.residual(i, j) == expected
    assert not result.ok  # [F, G] has dx^dt parts outside the ideal
    # commuting u-dependent pair: every entry lies in the ideal
    n = sp.Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert prolongation_residual(_connection(U * n, U**2 * n), ideal).ok
    # non-commuting constant pair: the entries are [F, G] dx^dt
    e12 = sp.Matrix(3, 3, lambda i, j: int((i, j) == (0, 1)))
    constant = prolongation_residual(_connection(e12, e12.T), ideal)
    assert not constant.ok
    assert constant.witness(0, 0) is None
    assert constant.residual(0, 0) == dx.wedge(dt)
    assert constant.residual(1, 1) == -dx.wedge(dt)
    assert constant.witness(0, 1) is not None


def test_curvature_matrix_3x3_matches_hand_curvature():
    u, ux, uxx, ut, uxt = jet("u"), jet("u", 1), jet("u", 2), jet("u", 0, 1), jet("u", 1, 1)

    def d_x(e):  # chain rule over the jet variables that occur
        return sp.diff(e, u) * ux + sp.diff(e, ux) * uxx

    def d_t(e):
        return sp.diff(e, u) * ut + sp.diff(e, ux) * uxt

    f = sp.Matrix([[u, ux, 0], [0, u**2, 1], [ux, 0, -u]])
    g = sp.Matrix([[0, 1, u], [u * ux, 0, 0], [0, ETA, 1]])
    expected = f.applyfunc(d_x) - g.applyfunc(d_t) + f * g - g * f
    raw = curvature_matrix(_connection(f, g), ("u",))
    for i in range(3):
        for j in range(3):
            assert raw[i][j] == Scalar(expected[i, j])
    # non-commuting constant pair: the curvature is [F, G] = E11 - E22
    e12 = sp.Matrix(3, 3, lambda i, j: int((i, j) == (0, 1)))
    raw = curvature_matrix(_connection(e12, e12.T), ("u",))
    assert [[c.expr for c in row] for row in raw] == [[1, 0, 0], [0, -1, 0], [0, 0, 0]]


def test_zero_curvature_trivial_cases():
    sys = EvolutionSystem.of({"u": Scalar(jet("u", 1))})
    zero = ((ZERO, ZERO), (ZERO, ZERO))
    res = zero_curvature_residual(ConnectionData(F=zero, G=zero), sys)
    assert all(c.is_zero for row in res for c in row)
    a = ((Scalar.of(2), ZERO), (ZERO, Scalar.of(5)))
    b = ((Scalar.of(1), ZERO), (ZERO, Scalar.of(7)))
    res = zero_curvature_residual(ConnectionData(F=a, G=b), sys)
    assert all(c.is_zero for row in res for c in row)


def test_zero_curvature_kdv_cross_module(kdv_ideal_model):
    ideal = kdv_ideal_model.ideals["kdv"]
    chain = kdv_ideal_model.sections["kdv"]
    sec = section(ideal, chain)
    sys = extract_section_evolution(sec)
    u, ux, uxxx = jet("u"), jet("u", 1), jet("u", 3)
    assert sys.rhs("u") == Scalar(-uxxx - 6 * u * ux)
    conn = kdv_ideal_model.connections["lax"].map_entries(
        lambda c: apply_eliminations(c, sec.eliminations, sys.deps)
    )
    res = zero_curvature_residual(conn, sys)
    assert all(c.is_zero for row in res for c in row)


def test_zero_curvature_akns_connection(kdv_spec, kdv_system):
    from prolong.su2 import theta_components

    a, b, c = kdv_spec.A, kdv_spec.B, kdv_spec.C
    eta = Scalar(ETA)
    conn = ConnectionData(
        F=((a, b), (c, -a)),
        G=((eta, kdv_spec.q), (kdv_spec.r, -eta)),
    )
    res = zero_curvature_residual(conn, kdv_system)
    assert all(x.is_zero for row in res for x in row)
    # unreduced curvature entries agree with the curvature coefficients
    comps = theta_components(kdv_spec)
    raw = curvature_matrix(conn, kdv_spec.deps)
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
        witness = result.witness(name)
        assert (witness.expand() - ideal.generator(name).d()).is_zero
    # d(om) needs a two-form multiplier on the one-form th
    assert result.witness("om").multiplier("th").degree == 2


def test_mixed_degree_ideal_closure_verb(tmp_path, capsys):
    path = tmp_path / "contact.eds"
    path.write_text(MIXED_DEGREE_MODEL, encoding="utf-8")
    assert main(["closure", str(path)]) == 0
    assert "result: ok" in capsys.readouterr().out


def test_mixed_degree_ideal_sections():
    ideal = parse(MIXED_DEGREE_MODEL).ideals["contact"]
    result = section(ideal)
    p, u = jet("p"), jet("u")
    assert result.names == ("th-dx", "th-dt", "om")
    assert result.raw == (
        Scalar(-p + jet("u", 1)),
        Scalar(jet("u", 0, 1)),
        Scalar(-jet("p", 0, 1) * u),
    )


def test_mixed_degree_ideal_section_verb(tmp_path, capsys):
    path = tmp_path / "contact.eds"
    path.write_text(MIXED_DEGREE_MODEL, encoding="utf-8")
    assert main(["section", str(path)]) == 0
    out = capsys.readouterr().out
    assert "raw-th-dx" in out and "raw-th-dt" in out and "raw-om" in out


def test_section_evolution_refuses_a_second_t_derivative(ch_model, ch_ideal):
    sec = section(ch_ideal, ch_model.sections["ch"])
    with pytest.raises(ValueError, match="not evolutionary"):
        extract_section_evolution(sec)


def test_laxcheck_on_non_evolutionary_section_is_exit_2(capsys):
    assert main(["laxcheck", "--fixture", "ch"]) == 2
    assert "not evolutionary" in capsys.readouterr().err
