"""The 2x2 zero-curvature prolongation structure.

Builds the pseudopotential one-forms and their closed-ring derivative
identities in a free differential graded algebra on generators
w1, w2, w3 (connection components), th1, th2, th3 (curvature components)
and the pseudopotential differentials dy_i.  Each identity is verified
exactly: d of the left-hand form is computed from the rule table, the
stated right-hand side is subtracted, and the residual must cancel to
zero.  For each xi identity a ring decomposition of d(xi_i) (one-form
multipliers on the xi's, scalar multipliers on the curvature components)
is derived independently and re-expanded: the identity passes only if the
re-expansion is exact, and then it corrects and certifies a defective
stated form.

Also houses the spectral one-parameter family (AKNS-type data), the PDE
extraction from the vanishing curvature, gauge transformations, and the
induced surface data with its Gaussian curvature.
"""

from __future__ import annotations

from typing import Sequence

from .coeff import ETA, I, ONE, Scalar, ZERO, eta_coefficients, exp_atom, sym
from .forms import (
    DerivationContext,
    Form,
    MatrixForm,
    build_jet_context,
    epsilon,
    pauli_compose,
    pauli_decompose,
    plus_minus,
)
from . import jets
# split_jet is re-exported: bench/check_tracing.py checks the su2 binding by name.
from .jets import EvolutionSystem, split_jet  # noqa: F401
from .record import Record
from .we import ConnectionData

__all__ = [
    "Su2Context",
    "build_su2_context",
    "Su2Forms",
    "build_forms",
    "IDENTITY_NAMES",
    "IdentityResult",
    "Decomposition",
    "verify_identity",
    "decompose_over_ring",
    "GaugeResult",
    "gauge_transform",
    "q_upper",
    "q_diag",
    "AKNSSpec",
    "build_jet_context",
    "akns_forms",
    "ThetaComponents",
    "theta_components",
    "Extraction",
    "extract_evolution",
    "SurfaceData",
    "surface_data",
]


# ---------------------------------------------------------------------------
# free DGA context
# ---------------------------------------------------------------------------


class Su2Context(Record):
    """The su(2) free-DGA context, rules included, with named handles for its pieces."""

    __slots__ = (
        "ctx",
        "w",  # (w1, w2, w3) one-forms
        "th",  # (th1, th2, th3) two-forms
        "y",  # index -> Scalar: y1, y2, y5..y8 and gauge scalars
        "dy",  # index -> Form
        "y3",  # y2/y1
        "y4",  # y1/y2
        "e5",  # exp(y5)
        "e6",  # exp(y6)
        "f", "g", "df", "dg",  # the gauge scalars and their differentials
    )

    def omega_matrix(self) -> MatrixForm:
        return pauli_compose(*self.w)

    def theta_matrix(self) -> MatrixForm:
        return pauli_compose(*self.th)


def _epsilon_wedge(l: int, a: Sequence[Form], b: Sequence[Form]) -> Form:
    """sum_{m,n} eps_{lmn} a_m ^ b_n, the l-th su(2) component of [a, b]."""
    out = a[0].ctx.zero(a[0].degree + b[0].degree)
    for m in range(1, 4):
        for n in range(1, 4):
            e = epsilon(l, m, n)
            if e:
                out = out + a[m - 1].wedge(b[n - 1]) * e
    return out


_W = ("w1", "w2", "w3")
_TH = ("th1", "th2", "th3")


def _structure_rules(ctx: DerivationContext) -> dict:
    """dw_l = th_l + i eps_{lmn} w_m w_n and the induced curvature rule
    dth_l = 2 i eps_{mnl} w_m th_n (eps_{mnl} = eps_{lmn}), by target."""
    w = tuple(ctx.gen(name) for name in _W)
    th = tuple(ctx.gen(name) for name in _TH)
    rules = {f"w{l}": th[l - 1] + _epsilon_wedge(l, w, w) * I for l in range(1, 4)}
    rules.update({f"th{l}": _epsilon_wedge(l, w, th) * (I * 2) for l in range(1, 4)})
    return rules


def build_su2_context() -> Su2Context:
    indices = (1, 2, 5, 6, 7, 8)
    declared = dict(one_forms=_W, scalars=(*(f"y{k}" for k in indices), "f", "g"), two_forms=_TH)
    ctx = DerivationContext(**declared, rules=_structure_rules(DerivationContext(**declared)))
    y = {k: sym(f"y{k}") for k in indices}
    dy = {k: ctx.gen(f"dy{k}") for k in indices}
    return Su2Context(
        ctx=ctx,
        w=tuple(ctx.gen(name) for name in _W),
        th=tuple(ctx.gen(name) for name in _TH),
        y=y,
        dy=dy,
        y3=y[2] / y[1],
        y4=y[1] / y[2],
        e5=exp_atom(y[5]),
        e6=exp_atom(y[6]),
        f=sym("f"),
        g=sym("g"),
        df=ctx.gen("df"),
        dg=ctx.gen("dg"),
    )


# ---------------------------------------------------------------------------
# the pseudopotential one-forms
# ---------------------------------------------------------------------------


class Su2Forms(Record):
    """The pseudopotential one-forms, with the change of basis to the ring
    basis context (one-forms w's, xi's, df, dg; two-forms th's) and back."""

    __slots__ = (
        "xi",  # index -> Form, xi1 .. xi8
        "beta1", "beta2",
        "to_ring",  # su(2) generator name -> ring form; dy_i -> xi_i + part_i
        "from_ring",  # ring generator name -> su(2) form
    )


def _connection_parts(sc: Su2Context, w: Sequence[Form]) -> dict:
    """The connection part of dy_i in xi_i = dy_i - part_i (i = 1, 2, 5..8),
    written in the one-forms w = (w1, w2, w3) of either context."""
    w1, w2, w3 = w
    wp, wm = plus_minus(w1, w2)
    y1, y2 = sc.y[1], sc.y[2]
    return {
        1: w3 * y1 + wm * y2,
        2: wp * y1 - w3 * y2,
        5: -(w3 * 2) - wm * (2 * sc.y3),
        6: w3 * 2 - wp * (2 * sc.y4),
        7: wm * sc.e5,
        8: wp * sc.e6,
    }


def build_forms(sc: Su2Context) -> Su2Forms:
    w3 = sc.w[2]
    wp, wm = plus_minus(*sc.w[:2])
    y3, y4 = sc.y3, sc.y4
    ctx = sc.ctx
    parts = _connection_parts(sc, sc.w)
    xi = {i: sc.dy[i] - part for i, part in parts.items()}
    xi[3] = ctx.scalar_form(y3).d() - wp + w3 * (2 * y3) + wm * (y3**2)
    xi[4] = ctx.scalar_form(y4).d() - wm - w3 * (2 * y4) + wp * (y4**2)
    ring = DerivationContext(one_forms=(*_W, *(f"xi{i}" for i in range(1, 9)), "df", "dg"),
                             two_forms=_TH)
    shared = (*_W, *_TH, "df", "dg")
    to_ring = {name: ring.gen(name) for name in shared}
    ring_parts = _connection_parts(sc, [ring.gen(name) for name in _W])
    to_ring.update({f"dy{i}": ring.gen(f"xi{i}") + part for i, part in ring_parts.items()})
    from_ring = {name: ctx.gen(name) for name in shared}
    from_ring.update({f"xi{i}": xi[i] for i in range(1, 9)})
    return Su2Forms(xi=xi, beta1=parts[5], beta2=parts[6], to_ring=to_ring, from_ring=from_ring)


# ---------------------------------------------------------------------------
# ring decomposition
# ---------------------------------------------------------------------------


class Decomposition(Record):
    """Target = sum_l theta_coeffs[l] * th_l + sum_i multipliers[i] ^ xi_i.

    Multipliers live in a basis context whose one-form generators are the
    w's, the xi's themselves, and the gauge differentials; obstruction
    collects anything outside the ring (zero when the target decomposes).
    """

    __slots__ = (
        "theta_coeffs",  # three Scalars
        "multipliers",  # xi index -> ring one-form
        "obstruction",
    )

    @property
    def ok(self) -> bool:
        return self.obstruction.is_zero

    def expand(self, sc: Su2Context, forms: Su2Forms) -> Form:
        """Re-expand in the original algebra; exactness is the certificate."""
        out = sc.ctx.zero(2)
        for l, c in enumerate(self.theta_coeffs):
            out = out + sc.th[l] * c
        for i, mult in self.multipliers.items():
            out = out + mult.substitute_generators(forms.from_ring).wedge(forms.xi[i])
        return out


def decompose_over_ring(sc: Su2Context, forms: Su2Forms, target: Form) -> Decomposition:
    """Decompose a two-form over the ring spanned by the th's and xi's.

    The change of basis dy_i = xi_i + part_i is triangular, so after
    transporting to the basis context the multipliers are read off monomial
    by monomial; a two-xi monomial is assigned to the higher xi index.
    """
    transported = target.substitute_generators(forms.to_ring)
    basis = transported.ctx

    th_idx = {basis.index_of(f"th{l}"): l for l in (1, 2, 3)}
    xi_idx = {basis.index_of(f"xi{i}"): i for i in range(1, 9)}
    theta_coeffs = [ZERO, ZERO, ZERO]
    multipliers: dict[int, Form] = {}
    obstruction = basis.zero(2)

    def add_multiplier(i: int, one_form: Form):
        multipliers[i] = multipliers.get(i, basis.zero(1)) + one_form

    for mono, coeff in transported.terms.items():
        if len(mono) == 1 and mono[0] in th_idx:
            theta_coeffs[th_idx[mono[0]] - 1] = coeff
            continue
        a, b = mono
        if b in xi_idx:
            # w^xi or xi^xi; a two-xi monomial hangs on the higher index
            add_multiplier(xi_idx[b], basis.monomial((a,), coeff))
        elif a in xi_idx:
            # the partner sorts after the xi: flip to multiplier ^ xi
            add_multiplier(xi_idx[a], basis.monomial((b,), -coeff))
        else:
            obstruction = obstruction + basis.monomial(mono, coeff)

    return Decomposition(
        theta_coeffs=tuple(theta_coeffs),
        multipliers=multipliers,
        obstruction=obstruction,
    )


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

IDENTITY_NAMES = (
    "xi1",
    "xi2",
    "xi-matrix",
    "xi3",
    "xi4",
    "xi5",
    "xi6",
    "xi7",
    "xi8",
    "bianchi",
)


class IdentityResult(Record):
    __slots__ = (
        "name",
        "residuals",  # left side minus stated right side, one Form per component
        "decomposition",  # the ring decomposition of d(xi_i) for xi<i>, else None
        "reexpansions",  # the decomposition re-expanded minus d(xi_i); () without one
        "note",
    )

    @property
    def stated_ok(self) -> bool:
        """The stated right sides hold and the decomposition re-expands exactly."""
        return all(f.is_zero for f in (*self.residuals, *self.reexpansions))

    @property
    def corrected(self) -> bool:
        """Only the stated right side fails; the exact decomposition stands in."""
        return bool(self.reexpansions) and self.reexpansions[0].is_zero and not self.stated_ok


_NOTES = {
    "xi-matrix": "matrix packaging with the connection acting from the left",
    "xi4": (
        "stated right side omits the third-component curvature term; "
        "engine decomposition supplies -2*y4*th3 (the printed index 4 "
        "names a component that does not exist)"
    ),
    "bianchi": "curvature derivative stays inside the ring of the th's",
}


def _sides(sc: Su2Context, forms: Su2Forms, name: str) -> tuple:
    """(left sides, stated right sides) of identity ``name``; the left side
    of xi<i> is d(xi_i)."""
    xi = forms.xi
    if name in ("xi-matrix", "bianchi"):
        omega, theta = sc.omega_matrix(), sc.theta_matrix()
        if name == "bianchi":
            return tuple(
                tuple(f for row in m.entries for f in row)
                for m in (theta.d(), omega.wedge(theta) - theta.wedge(omega))
            )
        y = (sc.y[1], sc.y[2])
        return (xi[1].d(), xi[2].d()), tuple(
            omega.entry(i, 0).wedge(xi[1]) + omega.entry(i, 1).wedge(xi[2])
            - theta.entry(i, 0) * y[0] - theta.entry(i, 1) * y[1]
            for i in range(2)
        )
    wp, wm = plus_minus(*sc.w[:2])
    thp, thm = plus_minus(*sc.th[:2])
    w3, th3 = sc.w[2], sc.th[2]
    y1, y2, y3, y4 = sc.y[1], sc.y[2], sc.y3, sc.y4
    stated = {
        "xi1": lambda: -(thm * y2) - th3 * y1 + w3.wedge(xi[1]) + wm.wedge(xi[2]),
        "xi2": lambda: -(thp * y1) + th3 * y2 + wp.wedge(xi[1]) - w3.wedge(xi[2]),
        "xi3": lambda: -thp + thm * (y3**2) + th3 * (2 * y3)
        - (w3 + wm * y3).wedge(xi[3]) * 2,
        # the stated form's curvature term names a nonexistent fourth
        # component; only the well-defined terms are kept here
        "xi4": lambda: -thm + thp * (y4**2) + (w3 - wp * y4).wedge(xi[4]) * 2,
        "xi5": lambda: thm * (2 * y3) + th3 * 2 + xi[3].wedge(wm) * 2,
        "xi6": lambda: thp * (2 * y4) - th3 * 2 + xi[4].wedge(wp) * 2,
        "xi7": lambda: (thm + xi[5].wedge(wm)) * (-sc.e5),
        "xi8": lambda: (thp + xi[6].wedge(wp)) * (-sc.e6),
    }
    return (xi[int(name[2:])].d(),), (stated[name](),)


def verify_identity(sc: Su2Context, name: str, forms: Su2Forms) -> IdentityResult:
    """Check identity ``name``: each left side minus its stated right side
    must vanish.  The left side d(xi_i) of xi<i> is also decomposed over
    the ring, and the decomposition must re-expand to it exactly."""
    if name not in IDENTITY_NAMES:
        raise ValueError(f"unknown identity {name!r}; choose from {IDENTITY_NAMES}")
    lhs, rhs = _sides(sc, forms, name)
    decomposition = decompose_over_ring(sc, forms, lhs[0]) if name[2:].isdigit() else None
    return IdentityResult(
        name=name,
        residuals=tuple(a - b for a, b in zip(lhs, rhs)),
        decomposition=decomposition,
        reexpansions=() if decomposition is None else (decomposition.expand(sc, forms) - lhs[0],),
        note=_NOTES.get(name, ""),
    )


# ---------------------------------------------------------------------------
# gauge transformation
# ---------------------------------------------------------------------------


class GaugeResult(Record):
    __slots__ = (
        "omega_prime",
        "residual",  # d(omega') - omega'^omega' - Q theta Q^-1
    )

    @property
    def ok(self) -> bool:
        return self.residual.is_zero


def gauge_transform(sc: Su2Context, q: MatrixForm) -> GaugeResult:
    det = (
        q.entry(0, 0).wedge(q.entry(1, 1)) - q.entry(0, 1).wedge(q.entry(1, 0))
    ).as_scalar()
    if not (det - ONE).is_zero:
        raise ValueError(f"gauge matrix must have determinant one, got {det}")
    q_inv = MatrixForm(((q.entry(1, 1), -q.entry(0, 1)), (-q.entry(1, 0), q.entry(0, 0))))
    omega = sc.omega_matrix()
    omega_prime = q.wedge(omega).wedge(q_inv) + q.d().wedge(q_inv)
    theta_conj = q.wedge(omega.curvature()).wedge(q_inv)
    return GaugeResult(
        omega_prime=omega_prime,
        residual=omega_prime.curvature() - theta_conj,
    )


def q_upper(sc: Su2Context) -> MatrixForm:
    ctx = sc.ctx
    return MatrixForm(
        (
            (ctx.scalar_form(1), ctx.scalar_form(sc.f)),
            (ctx.scalar_form(0), ctx.scalar_form(1)),
        )
    )


def q_diag(sc: Su2Context) -> MatrixForm:
    ctx = sc.ctx
    return MatrixForm(
        (
            (ctx.scalar_form(sc.g), ctx.scalar_form(0)),
            (ctx.scalar_form(0), ctx.scalar_form(ONE / sc.g)),
        )
    )


# ---------------------------------------------------------------------------
# spectral families over a jet chart
# ---------------------------------------------------------------------------


class AKNSSpec(Record):
    """One-parameter family of connection coefficients over jet fields.

    r and q are jet expressions (free of the spectral parameter); A, B, C
    are Scalars that must be Laurent polynomials in the spectral parameter
    (:func:`coeff.eta_coefficients` reads their coefficients, and refuses
    anything else with LaurentError).  The associated one-forms, the Pauli
    components of :attr:`connection`, are w1 + i w2 = r dx + C dt,
    w1 - i w2 = q dx + B dt, w3 = eta dx + A dt.
    """

    __slots__ = ("name", "deps", "r", "q", "A", "B", "C")

    def __init__(self, name: str, deps, r, q, A, B, C):
        super().__init__(name, tuple(deps), *(Scalar(v) for v in (r, q, A, B, C)))
        for label in ("A", "B", "C"):
            eta_coefficients(getattr(self, label))
        for label in ("r", "q"):
            if ETA in getattr(self, label).free_symbols():
                raise ValueError(f"{label} must not contain the spectral parameter")

    @property
    def connection(self) -> ConnectionData:
        """The linear pair y_t = F y, y_x = G y of the family: dt side
        F = [[A, B], [C, -A]], dx side G = [[eta, q], [r, -eta]]."""
        eta = sym(ETA)
        return ConnectionData(
            F=((self.A, self.B), (self.C, -self.A)),
            G=((eta, self.q), (self.r, -eta)),
        )


def akns_forms(spec: AKNSSpec) -> tuple:
    """The three connection one-forms w1, w2, w3 of the family over (dx, dt)."""
    return pauli_decompose(spec.connection.one_form(build_jet_context(spec.deps)))


class ThetaComponents(Record):
    """Curvature components of the family, each a multiple of dx^dt."""

    __slots__ = (
        "w",  # the family's connection one-forms w1, w2, w3
        "coeffs",  # dx^dt coefficients of th1, th2, th3
        "plus_coeff",  # of th1 + i th2
        "minus_coeff",  # of th1 - i th2
        "third_coeff",
    )


def theta_components(spec: AKNSSpec) -> ThetaComponents:
    w = akns_forms(spec)
    coeffs = tuple(
        (w[l - 1].d() - _epsilon_wedge(l, w, w) * I).coefficient("dx", "dt")
        for l in (1, 2, 3)
    )
    plus_coeff, minus_coeff = plus_minus(coeffs[0], coeffs[1])
    return ThetaComponents(
        w=w,
        coeffs=coeffs,
        plus_coeff=plus_coeff,
        minus_coeff=minus_coeff,
        third_coeff=coeffs[2],
    )


class Extraction(Record):
    """Evolution rules solved out of the vanishing curvature, plus the
    leftover constraints that must vanish identically for a consistent
    concrete family."""

    __slots__ = (
        "components",  # the ThetaComponents the rules were solved from
        "system",  # an EvolutionSystem
        "constraints",  # Scalars
    )

    @property
    def consistent(self) -> bool:
        return all(c.is_zero for c in self.constraints)


def extract_evolution(spec: AKNSSpec) -> Extraction:
    comps = theta_components(spec)
    system, constraints = jets.solve_evolution(
        (comps.minus_coeff, comps.plus_coeff, comps.third_coeff), spec.deps)
    return Extraction(components=comps, system=system, constraints=constraints)


# ---------------------------------------------------------------------------
# induced surface data
# ---------------------------------------------------------------------------


class SurfaceData(Record):
    __slots__ = (
        "curvature",  # a Scalar, or None
        "degenerate",
        "residuals",  # three Scalars: the structure-equation residuals
    )


def surface_data(w1: Form, w2: Form, w3: Form, sys: EvolutionSystem) -> SurfaceData:
    """The frame alpha1 = w2 + w3, alpha2 = -2 w1 with connection form
    omega = w2 - w3; each dx^dt coefficient is reduced modulo sys."""
    alpha1 = w2 + w3
    alpha2 = -(w1 * 2)
    omega = w2 - w3
    d_omega, area, res1, res2 = (
        jets.reduce_mod_evolution(f.coefficient("dx", "dt"), sys)
        for f in (omega.d(), alpha1.wedge(alpha2), alpha1.d() - omega.wedge(alpha2),
                  alpha2.d() + omega.wedge(alpha1))
    )
    if area.is_zero:
        return SurfaceData(
            curvature=None,
            degenerate=True,
            residuals=(res1, res2, d_omega),
        )
    curvature = -(d_omega / area)
    res3 = d_omega + curvature * area
    return SurfaceData(
        curvature=curvature,
        degenerate=False,
        residuals=(res1, res2, res3),
    )
