"""Acceptance suite: one check per shipped guarantee, exact arithmetic.

Every test prints a single PASS/FAIL line so a plain `pytest -s` run reads
as a checklist.  All comparisons are canonical-form equalities; there are
no tolerances anywhere.
"""

from __future__ import annotations

import random

import sympy as sp

from prolong import dsl
from prolong.coeff import ETA, I, Scalar, ZERO
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
    chart_context,
    closure_check,
    curvature_matrix,
    ideal_membership,
    section,
    zero_curvature_residual,
)

SEED = 8271


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
    corrupted = DerivationContext()
    for l in (1, 2, 3):
        corrupted.add_generator(f"w{l}", 1)
    for l in (1, 2, 3):
        corrupted.add_generator(f"th{l}", 2)
    w = [corrupted.gen(f"w{l}") for l in (1, 2, 3)]
    th = [corrupted.gen(f"th{l}") for l in (1, 2, 3)]
    corrupted.set_rule("w1", th[0])  # structure term dropped
    corrupted.set_rule("w2", th[1] - w[0].wedge(w[2]) * (2 * I))
    corrupted.set_rule("w3", th[2] + w[0].wedge(w[1]) * (2 * I))
    corrupted.set_rule("th1", w[1].wedge(th[2]) * (2 * I) - w[2].wedge(th[1]) * (2 * I))
    corrupted.set_rule("th2", w[2].wedge(th[0]) * (2 * I) - w[0].wedge(th[2]) * (2 * I))
    corrupted.set_rule("th3", w[0].wedge(th[1]) * (2 * I) - w[1].wedge(th[0]) * (2 * I))
    corrupted.freeze()
    control = check_dd_zero(corrupted)
    ok = all(good) and not control.ok
    _report(3, ok, "rule tables certified, corrupted-rule control rejected")
    assert all(good)
    assert not control.ok
    assert "w1" in [n for n, _ in control.nonzero()]


# ---------------------------------------------------------------------------
# 4. density recursion
# ---------------------------------------------------------------------------


def test_criterion_4_density_recursion():
    spec = AKNSSpec(
        name="symbolic", deps=("q", "r"),
        r=Scalar(jet("r")), q=Scalar(jet("q")),
        A=ZERO, B=ZERO, C=ZERO,
    )
    seq = recursion_densities(spec, 9)
    r, rx, rxx, q = jet("r"), jet("r", 1), jet("r", 2), jet("q")
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
        n: {var: str(w) for var, w in cert.witnesses}
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
        density=pair.density + Scalar(jet("q") ** 3),
        current=pair.current,
        eta_trace=pair.eta_trace,
    )
    cert = verify_conservation(corrupted, kdv_system)
    ok = (not cert.ok) and bool(cert.witnesses) and not cert.witness("q").is_zero
    _report(5, ok, "negative control: corrupted pair rejected with explicit witness")
    assert ok


# ---------------------------------------------------------------------------
# 6. closure of the peakon ideal
# ---------------------------------------------------------------------------


def test_criterion_6_closure_with_witnesses(ch_ideal):
    result = closure_check(ch_ideal)
    witnesses_exact = result.ok and all(
        (w.expand() - ch_ideal.generator(name).d()).is_zero
        for name, w in result.witnesses
    )
    # tabulated second-generator multiplier, checked up to ideal equivalence
    ctx = ch_ideal.ctx
    u, q, beta = (Scalar(sp.Symbol(n)) for n in ("u", "q", "beta"))
    dx = ctx.gen("dx")
    tabulated = dx.wedge(ch_ideal.generator("xi3")) * (-(1 / u)) + dx.wedge(
        ch_ideal.generator("xi1")
    ) * ((1 + beta) * u - q)
    difference = tabulated - ch_ideal.generator("xi2").d()
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
    u_x, p, p_x, q = jet("u", 1), jet("p"), jet("p", 1), jet("q")
    contact_ok = raw.raw[0] == Scalar(u_x - p) and raw.raw[1] == Scalar(p_x - q)

    u, ux, uxx, uxxx = jet("u"), jet("u", 1), jet("u", 2), jet("u", 3)
    ut, uxxt = jet("u", 0, 1), jet("u", 2, 1)
    beta = sp.Symbol("beta")
    target = Scalar((ut - uxxt) + u * (ux - uxxx) + beta * (u - uxx) * ux)
    reduced = section(ch_ideal, chain)
    equation_ok = reduced.reduced == (target,)

    labels_ok = True
    for value, label in ((2, "Camassa-Holm"), (3, "Degasperis-Procesi")):
        member = ExteriorIdeal(
            ctx=ch_ideal.ctx,
            names=ch_ideal.names,
            generators=tuple(
                g.map_coefficients(lambda c: c.subs({beta: Scalar.of(value)}))
                for g in ch_ideal.generators
            ),
            coordinates=ch_ideal.coordinates,
            parameters=ch_ideal.parameters,
        )
        labels_ok = labels_ok and section(member, chain).labels == (label,)
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
    eta = Scalar(ETA)
    conn = ConnectionData(
        F=((a, b), (c, -a)),
        G=((eta, kdv_spec.q), (kdv_spec.r, -eta)),
    )
    residual = zero_curvature_residual(conn, kdv_system)
    vanishes = all(x.is_zero for row in residual for x in row)
    comps = theta_components(kdv_spec)
    raw = curvature_matrix(conn, kdv_spec.deps)
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
# 9. randomized property suites (>= 500 instances each, fixed seed)
# ---------------------------------------------------------------------------

N_INSTANCES = 500


def _random_scalar(rng: random.Random, symbols) -> Scalar:
    total = ZERO
    for _ in range(rng.randint(1, 2)):
        term = Scalar.of(rng.randint(-3, 3))
        if rng.random() < 0.3:
            term = term * I
        for _ in range(rng.randint(0, 1)):
            term = term * Scalar(rng.choice(symbols))
        total = total + term
    return total


def _random_form(rng: random.Random, ctx, degree: int, symbols) -> Form:
    one_forms = [ctx.name_of(i) for i in ctx.one_form_indices()]
    out = ctx.zero(degree)
    for _ in range(rng.randint(1, 2)):
        if degree == 0:
            out = out + ctx.scalar_form(_random_scalar(rng, symbols))
            continue
        names = rng.sample(one_forms, degree)
        piece = ctx.gen(names[0])
        for name in names[1:]:
            piece = piece.wedge(ctx.gen(name))
        out = out + piece * _random_scalar(rng, symbols)
    return out


def test_criterion_9_wedge_antisymmetry():
    rng = random.Random(SEED)
    ctx = chart_context(["x", "t", "u", "p", "q"])
    symbols = [sp.Symbol(n) for n in ("u", "p", "q")]
    for _ in range(N_INSTANCES):
        p = rng.choice((0, 1, 1, 2))
        q = rng.choice((0, 1, 1, 2))
        a = _random_form(rng, ctx, p, symbols)
        b = _random_form(rng, ctx, q, symbols)
        sign = (-1) ** (p * q)
        assert b.wedge(a) == a.wedge(b) * Scalar.of(sign)
    _report(9, True, f"wedge antisymmetry on {N_INSTANCES} random pairs")


def test_criterion_9_graded_leibniz(sc):
    rng = random.Random(SEED + 1)
    symbols = [sp.Symbol(n) for n in ("y1", "y2", "y5")]
    for _ in range(N_INSTANCES):
        p = rng.choice((0, 1, 1))
        a = _random_form(rng, sc.ctx, p, symbols)
        b = _random_form(rng, sc.ctx, rng.choice((0, 1)), symbols)
        lhs = a.wedge(b).d()
        sign = Scalar.of((-1) ** p)
        rhs = a.d().wedge(b) + a.wedge(b.d()) * sign
        assert lhs == rhs
    _report(9, True, f"graded Leibniz rule on {N_INSTANCES} random pairs")


def test_criterion_9_dd_zero(sc):
    rng = random.Random(SEED + 2)
    symbols = [sp.Symbol(n) for n in ("y1", "y2", "y5")]
    for _ in range(N_INSTANCES):
        a = _random_form(rng, sc.ctx, rng.choice((0, 1)), symbols)
        assert a.d().d().is_zero
    _report(9, True, f"d(d(form)) = 0 on {N_INSTANCES} random forms")


def test_criterion_9_euler_annihilates_derivatives():
    rng = random.Random(SEED + 3)
    symbols = [jet("u"), jet("u", 1), jet("u", 2), jet("v"), jet("v", 1)]
    for _ in range(N_INSTANCES):
        e = _random_scalar(rng, symbols)
        dx_e = total_derivative(e, "x", ("u", "v"))
        assert euler_operator(dx_e, "u", ("u", "v")).is_zero
        assert euler_operator(dx_e, "v", ("u", "v")).is_zero
    _report(9, True, f"euler operator kills D_x images on {N_INSTANCES} random polynomials")


def test_criterion_9_parse_print_roundtrip():
    rng = random.Random(SEED + 4)
    header = "chart x t u p q\nparams beta\n"
    ctx_model = dsl.parse(header)
    ctx = ctx_model.ctx
    symbols = [sp.Symbol(n) for n in ("u", "p", "q", "beta")]
    for _ in range(N_INSTANCES):
        degree = rng.choice((1, 2))
        form = _random_form(rng, ctx, degree, symbols)
        if form.is_zero:
            continue
        text = dsl.print_form(form)
        model = dsl.parse(header + f"form a = {text}\n")
        assert model.forms["a"] == form
        assert dsl.print_form(model.forms["a"]) == text
    _report(9, True, f"parse/print identity on {N_INSTANCES} random forms")
