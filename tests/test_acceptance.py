"""Acceptance suite: one check per shipped guarantee, exact arithmetic.

Every test prints a single PASS/FAIL line so a plain `pytest -s` run reads
as a checklist.  All comparisons are canonical-form equalities; there are
no tolerances anywhere.
"""

from __future__ import annotations

from functools import reduce
from operator import mul

import sympy as sp
from hypothesis import given, settings, strategies as st

from prolong import dsl
from prolong.coeff import ETA, I, Scalar, ZERO, substitute, sym
from prolong.conservation import (
    conserved_pairs,
    recursion_densities,
    recursion_residual,
    verify_conservation,
)
from prolong.forms import DerivationContext, Form, check_dd_zero
from prolong.jets import euler_operator, jet, total_derivative
from prolong.su2 import (
    IDENTITY_NAMES,
    AKNSSpec,
    build_jet_context,
    gauge_transform,
    q_diag,
    q_upper,
    theta_components,
    verify_identity,
)
from prolong.we import (
    ConnectionData,
    ExteriorIdeal,
    closure_check,
    curvature_matrix,
    ideal_membership,
    named_equation,
    section,
    zero_curvature_residual,
)

from sympy_bridge import from_sympy


def _report(number: int, ok: bool, summary: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {summary}")


# ---------------------------------------------------------------------------
# 1. identity suite
# ---------------------------------------------------------------------------


def test_criterion_1_identity_suite(sc, su2_forms):
    failures = []
    documented = False
    for name in IDENTITY_NAMES:
        result = verify_identity(sc, name, su2_forms)
        if name == "xi4":
            dec = result.decomposition
            certified = (
                result.corrected
                and dec is not None
                and (dec.expand(sc, su2_forms) - su2_forms.xi[4].d()).is_zero
                and result.residuals[0] == sc.th[2] * (-2 * sc.y4)
            )
            documented = bool(result.note)
            if not certified:
                failures.append(name)
        elif not result.stated_ok:
            failures.append(name)
    ok = not failures and documented
    _report(1, ok, "su(2) identity suite, xi4 certified against engine decomposition")
    assert not failures, f"identities with nonzero residual: {failures}"
    assert documented, "xi4 report must document the misprinted curvature index"


# ---------------------------------------------------------------------------
# 2. gauge covariance
# ---------------------------------------------------------------------------


def test_criterion_2_gauge_covariance(sc):
    upper = gauge_transform(sc, q_upper(sc))
    diag = gauge_transform(sc, q_diag(sc))
    ok = upper.ok and diag.ok
    _report(2, ok, "conjugated curvature equals recomputed curvature for both families")
    assert upper.residual.is_zero
    assert diag.residual.is_zero


# ---------------------------------------------------------------------------
# 3. d^2 = 0 certification
# ---------------------------------------------------------------------------


def test_criterion_3_dd_zero(sc, ch_ideal, kdv_spec):
    good = [
        check_dd_zero(sc.ctx).ok,
        check_dd_zero(ch_ideal.ctx).ok,
        check_dd_zero(build_jet_context(kdv_spec.deps)).ok,
    ]
    declared = dict(one_forms=("w1", "w2", "w3"), two_forms=("th1", "th2", "th3"))
    bare = DerivationContext(**declared)
    w = [bare.gen(f"w{l}") for l in (1, 2, 3)]
    th = [bare.gen(f"th{l}") for l in (1, 2, 3)]
    corrupted = DerivationContext(**declared, rules={
        "w1": th[0],  # structure term dropped
        "w2": th[1] - w[0].wedge(w[2]) * (2 * I),
        "w3": th[2] + w[0].wedge(w[1]) * (2 * I),
        "th1": w[1].wedge(th[2]) * (2 * I) - w[2].wedge(th[1]) * (2 * I),
        "th2": w[2].wedge(th[0]) * (2 * I) - w[0].wedge(th[2]) * (2 * I),
        "th3": w[0].wedge(th[1]) * (2 * I) - w[1].wedge(th[0]) * (2 * I)})
    control = check_dd_zero(corrupted)
    ok = all(good) and not control.ok
    _report(3, ok, "rule tables certified, corrupted-rule control rejected")
    assert all(good)
    assert not control.ok
    assert not control.residuals["w1"].is_zero


# ---------------------------------------------------------------------------
# 4. density recursion
# ---------------------------------------------------------------------------


def test_criterion_4_density_recursion():
    spec = AKNSSpec(
        name="symbolic", deps=("q", "r"),
        r=sym(jet("r")), q=sym(jet("q")),
        A=ZERO, B=ZERO, C=ZERO,
    )
    seq = recursion_densities(spec, 9)
    r, rx, rxx, q = sym(jet("r")), sym(jet("r", 1)), sym(jet("r", 2)), sym(jet("q"))
    values_ok = (
        seq.w(1) == Scalar(r)
        and seq.w(2) == Scalar(-rx / 2)
        and seq.w(3) == Scalar(rxx / 4 - q * r**2 / 2)
    )
    residuals_ok = all(recursion_residual(seq, n).is_zero for n in range(1, 9))
    ok = values_ok and residuals_ok
    _report(4, ok, "first densities exact, recursion residual zero through n=8")
    assert values_ok
    assert residuals_ok


# ---------------------------------------------------------------------------
# 5. conservation certification
# ---------------------------------------------------------------------------


def test_criterion_5_conservation_certification(kdv_spec, kdv_system):
    outcomes = {}
    for pair in conserved_pairs(kdv_spec, 5):
        cert = verify_conservation(pair, kdv_system)
        outcomes[pair.n] = cert
    ok = all(cert.ok for cert in outcomes.values())
    _report(5, ok, "densities q*W_n certified conserved for n <= 5 on the KdV family")
    failing = {
        n: {var: str(w) for var, w in cert.witnesses.items()}
        for n, cert in outcomes.items()
        if not cert.ok
    }
    assert ok, (
        "exactness certificate failed with nonzero variational derivative: "
        f"{failing}; the recursion seed W_1 = r is a factor of two away from "
        "solving the projective flow's x-part, and the mismatch first becomes "
        "essential in the fifth density (seed r/2 certifies all five)"
    )


def test_criterion_5_negative_control(kdv_spec, kdv_system):
    # a density perturbed off the hierarchy must fail with a nonzero witness
    pair = conserved_pairs(kdv_spec, 1)[0]
    corrupted = type(pair)(
        n=pair.n,
        density=pair.density + sym(jet("q")) ** 3,
        current=pair.current,
        eta_trace=pair.eta_trace,
    )
    cert = verify_conservation(corrupted, kdv_system)
    ok = (not cert.ok) and bool(cert.witnesses) and not cert.witnesses["q"].is_zero
    _report(5, ok, "negative control: corrupted pair rejected with explicit witness")
    assert ok


# ---------------------------------------------------------------------------
# 6. closure of the peakon ideal
# ---------------------------------------------------------------------------


def test_criterion_6_closure_with_witnesses(ch_ideal):
    result = closure_check(ch_ideal)
    witnesses_exact = result.ok and all(
        (w.expand() - ch_ideal.generators[name].d()).is_zero
        for name, w in result.witnesses.items()
    )
    # tabulated second-generator multiplier, checked up to ideal equivalence
    ctx = ch_ideal.ctx
    u, q, beta = (sym(n) for n in ("u", "q", "beta"))
    dx = ctx.gen("dx")
    tabulated = dx.wedge(ch_ideal.generators["xi3"]) * (-(1 / u)) + dx.wedge(
        ch_ideal.generators["xi1"]
    ) * ((1 + beta) * u - q)
    difference = tabulated - ch_ideal.generators["xi2"].d()
    equivalent = ideal_membership(difference, ch_ideal) is not None
    ok = witnesses_exact and equivalent
    _report(6, ok, "ideal closed with exact witnesses, tabulated multiplier equivalent")
    assert witnesses_exact
    assert equivalent


# ---------------------------------------------------------------------------
# 7. sectioning
# ---------------------------------------------------------------------------


def test_criterion_7_sectioning(ch_model, ch_ideal):
    chain = ch_model.sections["ch"]
    raw = section(ch_ideal)
    u_x, p, p_x, q = sym(jet("u", 1)), sym(jet("p")), sym(jet("p", 1)), sym(jet("q"))
    contact_ok = raw.raw["xi1"] == Scalar(u_x - p) and raw.raw["xi2"] == Scalar(p_x - q)

    u, ux, uxx, uxxx = sym(jet("u")), sym(jet("u", 1)), sym(jet("u", 2)), sym(jet("u", 3))
    ut, uxxt = sym(jet("u", 0, 1)), sym(jet("u", 2, 1))
    beta = sym("beta")
    target = Scalar((ut - uxxt) + u * (ux - uxxx) + beta * (u - uxx) * ux)
    reduced = section(ch_ideal, chain)
    equation_ok = reduced.reduced == (target,)

    labels_ok = True
    for value, label in ((2, "Camassa-Holm"), (3, "Degasperis-Procesi")):
        member = ExteriorIdeal(
            ctx=ch_ideal.ctx,
            generators={
                n: g.map_coefficients(lambda c: substitute(c, {"beta": Scalar(value)}))
                for n, g in ch_ideal.generators.items()
            },
        )
        reduced_member = section(member, chain).reduced
        labels_ok = labels_ok and tuple(map(named_equation, reduced_member)) == (label,)
    ok = contact_ok and equation_ok and labels_ok
    _report(7, ok, "contact pair, peakon equation, and both member labels exact")
    assert contact_ok
    assert equation_ok
    assert labels_ok


# ---------------------------------------------------------------------------
# 8. Lax consistency
# ---------------------------------------------------------------------------


def test_criterion_8_lax_consistency(kdv_spec, kdv_system):
    a, b, c = kdv_spec.A, kdv_spec.B, kdv_spec.C
    eta = sym(ETA)
    conn = ConnectionData(
        F=((a, b), (c, -a)),
        G=((eta, kdv_spec.q), (kdv_spec.r, -eta)),
    )
    raw = curvature_matrix(conn, kdv_spec.deps)
    residual = zero_curvature_residual(raw, kdv_system)
    vanishes = all(x.is_zero for row in residual for x in row)
    comps = theta_components(kdv_spec)
    agrees = (
        raw[0][0] == comps.third_coeff
        and raw[0][1] == comps.minus_coeff
        and raw[1][0] == comps.plus_coeff
        and (raw[1][1] + comps.third_coeff).is_zero
    )
    ok = vanishes and agrees
    _report(8, ok, "zero-curvature residual vanishes and matches curvature components")
    assert vanishes
    assert agrees


# ---------------------------------------------------------------------------
# 9. randomized property suites (500 derandomized examples each)
# ---------------------------------------------------------------------------

N_INSTANCES = 500


def _scalars(symbols) -> st.SearchStrategy:
    """Sums of 1-2 terms, each an integer in -3..3, times i or not, times
    0-1 of symbols."""
    term = st.builds(lambda c, i, factors: reduce(mul, factors, Scalar(c) * (I if i else 1)),
                     st.integers(-3, 3), st.booleans(), st.lists(st.sampled_from(symbols), max_size=1))
    return st.lists(term, min_size=1, max_size=2).map(lambda terms: sum(terms, ZERO))


def _forms(ctx, degrees, symbols) -> st.SearchStrategy:
    """Forms of a degree drawn from degrees: sums of 1-2 pieces, each a
    scalar times the wedge of that many distinct one-forms, in any order."""
    one_forms = [ctx.gen(ctx.name_of(i)) for i in ctx.one_form_indices()]

    def of_degree(degree: int) -> st.SearchStrategy:
        piece = st.builds(lambda gens, c: reduce(Form.wedge, gens, ctx.scalar_form(c)),
                          st.lists(st.sampled_from(one_forms), min_size=degree, max_size=degree,
                                   unique=True), _scalars(symbols))
        return st.lists(piece, min_size=1, max_size=2).map(lambda pieces: sum(pieces, ctx.zero(degree)))

    by_degree = {degree: of_degree(degree) for degree in degrees}
    return st.sampled_from(degrees).flatmap(by_degree.__getitem__)


def test_criterion_9_wedge_antisymmetry():
    ctx = DerivationContext(scalars=("x", "t", "u", "p", "q"))
    forms = _forms(ctx, (0, 1, 1, 2), [from_sympy(sp.Symbol(n)) for n in ("u", "p", "q")])

    @settings(max_examples=N_INSTANCES)
    @given(forms, forms)
    def check(a, b):
        assert b.wedge(a) == a.wedge(b) * Scalar((-1) ** (a.degree * b.degree))

    check()
    _report(9, True, f"wedge antisymmetry on {N_INSTANCES} random pairs")


def test_criterion_9_graded_leibniz(sc):
    symbols = [from_sympy(sp.Symbol(n)) for n in ("y1", "y2", "y5")]

    @settings(max_examples=N_INSTANCES)
    @given(_forms(sc.ctx, (0, 1, 1), symbols), _forms(sc.ctx, (0, 1), symbols))
    def check(a, b):
        sign = Scalar((-1) ** a.degree)
        assert a.wedge(b).d() == a.d().wedge(b) + a.wedge(b.d()) * sign

    check()
    _report(9, True, f"graded Leibniz rule on {N_INSTANCES} random pairs")


def test_criterion_9_dd_zero(sc):
    @settings(max_examples=N_INSTANCES)
    @given(_forms(sc.ctx, (0, 1), [from_sympy(sp.Symbol(n)) for n in ("y1", "y2", "y5")]))
    def check(a):
        assert a.d().d().is_zero

    check()
    _report(9, True, f"d(d(form)) = 0 on {N_INSTANCES} random forms")


def test_criterion_9_euler_annihilates_derivatives():
    symbols = [sym(jet("u")), sym(jet("u", 1)), sym(jet("u", 2)), sym(jet("v")), sym(jet("v", 1))]

    @settings(max_examples=N_INSTANCES)
    @given(_scalars(symbols))
    def check(e):
        dx_e = total_derivative(e, "x", ("u", "v"))
        assert euler_operator(dx_e, "u", ("u", "v")).is_zero
        assert euler_operator(dx_e, "v", ("u", "v")).is_zero

    check()
    _report(9, True, f"euler operator kills D_x images on {N_INSTANCES} random polynomials")


def test_criterion_9_parse_print_roundtrip():
    header = "chart x t u p q\nparams beta\n"
    ctx = dsl.parse(header).ctx
    symbols = [from_sympy(sp.Symbol(n)) for n in ("u", "p", "q", "beta")]

    @settings(max_examples=N_INSTANCES)
    @given(_forms(ctx, (1, 2), symbols))
    def check(form):
        if form.is_zero:
            return
        text = dsl.print_form(form)
        model = dsl.parse(header + f"form a = {text}\n")
        assert model.forms["a"] == form
        assert dsl.print_form(model.forms["a"]) == text

    check()
    _report(9, True, f"parse/print identity on {N_INSTANCES} random forms")
