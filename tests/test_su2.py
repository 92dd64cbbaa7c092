"""The 2x2 prolongation structure: forms, identities, gauge, curvature."""

from __future__ import annotations

import pytest
import sympy as sp

from prolong.coeff import ETA, I, Scalar, ZERO
from prolong.forms import MatrixForm
from prolong.jets import jet
from prolong.su2 import (
    AKNSSpec,
    IDENTITY_NAMES,
    build_jet_context,
    extract_evolution,
    gauge_transform,
    q_diag,
    q_upper,
    surface_data,
    surface_from_spec,
    theta_components,
    verify_identity,
)


def test_pseudopotential_forms_as_printed(sc, su2_forms):
    w1, w2, w3 = sc.w
    wp, wm = sc.w_plus, sc.w_minus
    y1, y2, y3, y4 = sc.y[1], sc.y[2], sc.y3, sc.y4
    assert su2_forms.xi[2] == sc.dy[2] - wp * y1 + w3 * y2
    assert su2_forms.xi[3] == sc.ctx.d_scalar(y3) - wp + w3 * (2 * y3) + wm * y3**2
    assert su2_forms.beta1 == -(w3 * 2) - wm * (2 * y3)
    assert su2_forms.beta2 == w3 * 2 - wp * (2 * y4)
    assert su2_forms.xi[5] == sc.dy[5] - su2_forms.beta1
    assert su2_forms.xi[7] == sc.dy[7] - wm * sc.e5


def test_scaled_riccati_combination(sc, su2_forms):
    # y1^2 * xi3 equals y1*xi2 - y2*xi1 after eliminating d(y2/y1)
    lhs = su2_forms.xi[3] * (sc.y[1] ** 2)
    rhs = su2_forms.xi[2] * sc.y[1] - su2_forms.xi[1] * sc.y[2]
    assert lhs == rhs


@pytest.mark.parametrize("name", [n for n in IDENTITY_NAMES if n != "xi4"])
def test_identity_residual_zero(sc, su2_forms, name):
    result = verify_identity(sc, name, su2_forms)
    assert result.stated_ok, f"{name} residual: {[str(f) for f in result.residuals]}"


def test_identity_xi4_corrected(sc, su2_forms):
    result = verify_identity(sc, "xi4", su2_forms)
    assert not result.stated_ok
    assert result.corrected
    # the missing term is exactly -2*y4*th3
    expected = sc.th[2] * (-2 * sc.y4)
    assert result.residuals[0] == expected
    assert result.decomposition.theta_coeffs[2] == -2 * sc.y4
    assert "index 4" in result.note


def test_decompositions_reexpand_exactly(sc, su2_forms):
    for name in IDENTITY_NAMES:
        if name in ("xi-matrix", "bianchi"):
            continue
        result = verify_identity(sc, name, su2_forms)
        dec = result.decomposition
        assert dec is not None and dec.ok
        lhs = su2_forms.xi[int(name[2:])].d()
        assert (dec.expand(sc, su2_forms) - lhs).is_zero


def test_exchange_symmetry_xi3_xi4(sc, su2_forms):
    # swap y1 <-> y2, w2 -> -w2, w3 -> -w3 carries xi3 onto xi4
    swap = {sp.Symbol("y1"): Scalar(sp.Symbol("y2")), sp.Symbol("y2"): Scalar(sp.Symbol("y1"))}
    mapped = su2_forms.xi[3].substitute_generators(
        {
            "w2": -sc.w[1],
            "w3": -sc.w[2],
            "dy1": sc.dy[2],
            "dy2": sc.dy[1],
        }
    ).map_coefficients(lambda c: c.subs(swap))
    assert mapped == su2_forms.xi[4]


def test_gauge_identity_matrix(sc):
    ctx = sc.ctx
    one, zero = ctx.scalar_form(1), ctx.scalar_form(0)
    result = gauge_transform(sc, MatrixForm(((one, zero), (zero, one))))
    assert result.ok
    assert (result.omega_prime - sc.omega_matrix()).is_zero


def test_gauge_upper_triangular(sc):
    result = gauge_transform(sc, q_upper(sc))
    assert result.ok


def test_gauge_diagonal(sc):
    result = gauge_transform(sc, q_diag(sc))
    assert result.ok


def test_gauge_rejects_general_determinant(sc):
    ctx = sc.ctx
    two = ctx.scalar_form(2)
    zero, one = ctx.scalar_form(0), ctx.scalar_form(1)
    with pytest.raises(ValueError):
        gauge_transform(sc, MatrixForm(((two, zero), (zero, one))))


# ---------------------------------------------------------------------------
# spectral families
# ---------------------------------------------------------------------------


def test_theta_flat_family_vanishes():
    spec = AKNSSpec(
        name="flat", deps=(), r=ZERO, q=ZERO,
        A=ZERO, B=ZERO, C=ZERO,
    )
    comps = theta_components(spec)
    assert all(c.is_zero for c in comps.coeffs)
    # eta dx alone is still flat in the third component
    assert comps.third_coeff.is_zero


def test_theta_generic_components(generic_spec):
    comps = theta_components(generic_spec)
    A, B, C = jet("A"), jet("B"), jet("C")
    q, r = jet("q"), jet("r")
    third = Scalar(jet("A", 1) - q * C + r * B)
    minus = Scalar(jet("B", 1) - jet("q", 0, 1) + 2 * A * q - 2 * ETA * B)
    plus = Scalar(jet("C", 1) - jet("r", 0, 1) + 2 * ETA * C - 2 * A * r)
    assert comps.third_coeff == third
    assert comps.minus_coeff == minus
    assert comps.plus_coeff == plus


def test_theta_substitution_example(generic_spec):
    # dropping the r and B channels leaves the pure derivative part
    comps = theta_components(generic_spec)
    reducedv = comps.third_coeff.subs({jet("r"): ZERO, jet("B"): ZERO})
    assert reducedv == Scalar(jet("A", 1) - jet("q") * jet("C"))


def test_kdv_extraction(kdv_spec):
    extraction = extract_evolution(kdv_spec)
    assert extraction.consistent
    q, qx, qxxx = jet("q"), jet("q", 1), jet("q", 3)
    assert extraction.system.rhs("q") == Scalar(-qxxx - 6 * q * qx)


def test_generic_family_extracts_no_rule(generic_spec):
    # every channel keeps the spectral parameter in its solved right side
    extraction = extract_evolution(generic_spec)
    assert extraction.system.rules == ()
    assert len(extraction.constraints) == 3
    assert not extraction.consistent


def test_channel_with_a_higher_t_derivative_is_a_constraint():
    # each channel holds a first t-derivative next to r_xt, so none is an
    # evolution rule; none may become one whose right side keeps r_xt
    spec = AKNSSpec(
        name="mixed", deps=("q", "r"), r=Scalar(jet("r")), q=Scalar(jet("q")),
        A=Scalar(jet("r", 1, 1)), B=ZERO, C=ZERO,
    )
    extraction = extract_evolution(spec)
    assert extraction.system.rules == ()
    assert len(extraction.constraints) == 3


def test_kdv_eta_matching_is_exact(kdv_spec):
    comps = theta_components(kdv_spec)
    # the evolution channel must be free of the spectral parameter
    rhs = comps.minus_coeff + Scalar(jet("q", 0, 1))
    assert ETA not in rhs.free_symbols()


# ---------------------------------------------------------------------------
# surface data
# ---------------------------------------------------------------------------


def test_surface_zero_rotation_gives_flat():
    ctx = build_jet_context(("u",))
    dx, dt = ctx.gen("dx"), ctx.gen("dt")
    u = Scalar(jet("u"))
    w2 = dx * u
    w3 = dx * u
    w1 = dt * Scalar.of(1)
    data = surface_data(w1, w2, w3)
    assert not data.degenerate
    assert data.curvature == ZERO


def test_surface_degenerate_when_all_zero():
    ctx = build_jet_context(("u",))
    zero = ctx.zero(1)
    data = surface_data(zero, zero, zero)
    assert data.degenerate
    assert data.curvature is None


def test_surface_kdv_constant_curvature(kdv_spec):
    data = surface_from_spec(kdv_spec)
    assert not data.degenerate
    assert data.curvature == I
    # the closing structure equation holds by construction
    assert data.residuals[2].is_zero
    # the first two are reported, not asserted: nonzero here
    assert not data.residuals[0].is_zero
    assert not data.residuals[1].is_zero
