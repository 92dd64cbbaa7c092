"""Exterior ideals on coordinate charts and their prolongations.

An ExteriorIdeal holds generating forms over a chart context, whose declared
scalars (u_1 .. u_m) begin with the independent pair (x, t).  Closure is checked
by finding multiplier witnesses d(xi_i) = sum_j alpha_ij ^ xi_j through an
exact linear solve over the rational-function field.  Sectioning pulls the
generators back along du -> u_x dx + u_t dt and reads off their dx, dt or
dx^dt coefficients; a user-declared elimination chain then presents the
final equation(s).  The chain is one :class:`jets.EvolutionSystem`, whose
constructor stages it, one rule per eliminated variable, and
:func:`jets.reduce_mod_evolution` replaces every jet of that variable by
the matching total derivative of its replacement.  Linear connections are
tested through the curvature d(Omega) - Omega^Omega of
Omega = F dt + G dx, either against the ideal (membership of each entry)
or, over the jets, modulo the rules of an evolution system and of a
section (zero-curvature residual).
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .coeff import Scalar, is_constant_multiple, sym
from .forms import ContextError, DerivationContext, Form, MatrixForm, build_jet_context
from .linsolve import express_in_basis
from .record import Record
from .jets import EvolutionSystem, jet, reduce_mod_evolution

__all__ = [
    "ExteriorIdeal",
    "MembershipWitness",
    "ideal_membership",
    "ClosureResult",
    "closure_check",
    "SectionResult",
    "section",
    "named_equation",
    "ConnectionData",
    "ProlongationResult",
    "prolongation_residual",
    "curvature_matrix",
    "zero_curvature_residual",
]


class ExteriorIdeal(Record):
    """Generating forms over one context; the chart is ``ctx.declared["scalars"]``."""

    __slots__ = (
        "ctx",
        "generators",  # generator name -> Form, in declaration order
    )

    def __init__(self, ctx: DerivationContext, generators):
        generators = dict(generators)
        for f in generators.values():
            if f.ctx is not ctx:
                raise ContextError("ideal generators must share one context")
        super().__init__(ctx, generators)


class MembershipWitness(Record):
    """phi = sum_j multipliers[j] ^ generators[j]; exact by construction."""

    __slots__ = (
        "ideal",
        "multipliers",  # generator name -> Form (may be degree 0), as in the ideal
    )

    def expand(self) -> Form:
        products = [
            mult.wedge(self.ideal.generators[name])
            for name, mult in self.multipliers.items()
        ]
        out = self.ideal.ctx.zero(products[0].degree if products else 0)
        for product in products:
            out = out + product
        return out


def ideal_membership(phi: Form, ideal: ExteriorIdeal) -> MembershipWitness | None:
    """Multiplier forms expressing phi in the ideal, or None.

    Multipliers have degree deg(phi) - deg(xi_j) and are spanned by the
    wedge monomials of that many one-form generators; the coefficient match
    over all wedge monomials is solved exactly with deterministic pivoting
    and zero free unknowns (minimal support under the declared order).
    """
    return _memberships([phi], ideal)[0]


def _memberships(targets: Sequence[Form], ideal: ExteriorIdeal) -> list:
    """ideal_membership of every target, with one elimination per degree;
    each witness is still re-expanded against its own target."""
    ctx = ideal.ctx
    zero = {name: ctx.zero(0) for name in ideal.generators}
    results = [MembershipWitness(ideal, dict(zero)) if phi.is_zero else None for phi in targets]
    by_degree: dict = {}
    for index, phi in enumerate(targets):
        if not phi.is_zero:
            by_degree.setdefault(phi.degree, []).append(index)
    for degree, indices in by_degree.items():
        candidates: list[Form] = []
        layout: list[tuple[str, Form]] = []  # (generator name, basis monomial)
        for name, gen in ideal.generators.items():
            mult_degree = degree - gen.degree
            if mult_degree < 0:
                continue
            for mono in itertools.combinations(ctx.one_form_indices(), mult_degree):
                basis_form = ctx.monomial(mono)
                candidates.append(basis_form.wedge(gen))
                layout.append((name, basis_form))
        solutions = express_in_basis([targets[i] for i in indices], candidates)
        zero_at_degree = {**zero, **{name: ctx.zero(b.degree) for name, b in layout}}
        for index, solution in zip(indices, solutions):
            if solution is None:
                continue
            multipliers = dict(zero_at_degree)
            for coeff, (name, basis_form) in zip(solution, layout):
                if not coeff.is_zero:
                    multipliers[name] = multipliers[name] + basis_form * coeff
            witness = MembershipWitness(ideal, multipliers)
            if (witness.expand() - targets[index]).is_zero:
                results[index] = witness
    return results


class ClosureResult(Record):
    __slots__ = (
        "ideal",
        "witnesses",  # generator name -> MembershipWitness | None
        "failures",  # generator name -> d-form, for generators without a witness
    )

    @property
    def ok(self) -> bool:
        return not self.failures


def closure_check(ideal: ExteriorIdeal) -> ClosureResult:
    d_gens = {name: gen.d() for name, gen in ideal.generators.items()}
    witnesses = dict(zip(d_gens, _memberships(list(d_gens.values()), ideal)))
    failures = {name: d_gens[name] for name, w in witnesses.items() if w is None}
    return ClosureResult(ideal=ideal, witnesses=witnesses, failures=failures)


# ---------------------------------------------------------------------------
# sectioning
# ---------------------------------------------------------------------------


class SectionResult(Record):
    __slots__ = (
        "raw",  # pulled-back jet coefficients by generator name, -dx/-dt for a one-form
        "reduced",  # the same after the elimination chain, trivial ones dropped
        "eliminations",  # EvolutionSystem: variable -> its replacement as staged
    )


def section(ideal: ExteriorIdeal, eliminations: Sequence[tuple] = ()) -> SectionResult:
    """Pull the generators back to the transversal integral manifold over
    (x, t) and present the equations after the declared elimination chain.

    A one-form generator gives its dx and dt coefficients, a two-form its
    dx^dt coefficient; a higher form pulls back to zero on the
    two-dimensional base and gives no equation.
    """
    chart = ideal.ctx.declared["scalars"]
    if not {"x", "t"} <= set(chart):
        raise ValueError("section needs the coordinates x and t")
    deps = tuple(c for c in chart if c not in ("x", "t"))
    jet_ctx = build_jet_context(deps)
    dx, dt = jet_ctx.gen("dx"), jet_ctx.gen("dt")
    images = {
        f"d{c}": jet_ctx.gen(f"d{c}") if c in ("x", "t")
        else dx * sym(jet(c, 1, 0)) + dt * sym(jet(c, 0, 1))
        for c in chart
    }
    raw = {}
    for name, gen in ideal.generators.items():
        pulled = gen.substitute_generators(images)
        for base in itertools.combinations(("dx", "dt"), gen.degree):
            key = f"{name}-{base[0]}" if gen.degree == 1 else name
            raw[key] = pulled.coefficient(*base)
    staged = EvolutionSystem(eliminations, deps)
    reduced = [
        e for e in (reduce_mod_evolution(e, staged) for e in raw.values()) if not e.is_zero
    ]
    return SectionResult(raw=raw, reduced=tuple(reduced), eliminations=staged)


def _peakon_family(beta: int) -> Scalar:
    """(u - u_xx)_t + u (u - u_xx)_x + beta (u - u_xx) u_x, expanded in jets."""
    u, ux, uxx, uxxx, ut, uxxt = (
        sym(jet("u", nx, nt)) for nx, nt in ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (2, 1))
    )
    return ut - uxxt + u * (ux - uxxx) + beta * (u - uxx) * ux


def named_equation(e: Scalar) -> str | None:
    """Recognize the two named members of the peakon family, up to a constant factor."""
    for beta, label in ((2, "Camassa-Holm"), (3, "Degasperis-Procesi")):
        if is_constant_multiple(e, _peakon_family(beta)):
            return label
    return None


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


class ConnectionData(Record):
    """Linear connection dy^k - sum_i F[k][i] y^i dt - sum_i G[k][i] y^i dx.

    On integral manifolds y_t = F y and y_x = G y; entries are functions of
    the chart (or jet) variables only, never of the fiber variables.
    """

    __slots__ = ("F", "G")  # rows of Scalars: F the dt side, G the dx side

    def __init__(self, F, G):
        f_rows = tuple(tuple(Scalar(c) for c in row) for row in F)
        g_rows = tuple(tuple(Scalar(c) for c in row) for row in G)
        n = len(f_rows)
        for rows in (f_rows, g_rows):
            if len(rows) != n or any(len(r) != n for r in rows):
                raise ValueError("connection matrices must be square and same size")
        super().__init__(f_rows, g_rows)

    @property
    def size(self) -> int:
        return len(self.F)

    def one_form(self, ctx: DerivationContext) -> MatrixForm:
        """Omega = F dt + G dx over a context declaring dx and dt."""
        dx, dt = ctx.gen("dx"), ctx.gen("dt")
        return MatrixForm(
            tuple(
                tuple(dt * f + dx * g for f, g in zip(f_row, g_row))
                for f_row, g_row in zip(self.F, self.G)
            )
        )


class ProlongationResult(Record):
    """Per-entry membership of the prolongation two-form in the ideal."""

    __slots__ = (
        "residuals",  # (i, j) -> curvature entry Form, row by row
        "witnesses",  # (i, j) -> MembershipWitness | None
    )

    @property
    def ok(self) -> bool:
        return all(w is not None for w in self.witnesses.values())


def prolongation_residual(conn: ConnectionData, ideal: ExteriorIdeal) -> ProlongationResult:
    """Each entry of the curvature d(Omega) - Omega^Omega over the chart,
    dF/du_j du_j^dt + dG/du_j du_j^dx + [F,G] dx^dt, tested for ideal
    membership; an empty witness set means failure."""
    if not {"x", "t"} <= set(ideal.ctx.declared["scalars"]):
        raise ValueError("prolong needs the coordinates x and t")
    curvature = conn.one_form(ideal.ctx).curvature()
    residuals = {
        (i, j): curvature.entry(i, j) for i in range(conn.size) for j in range(conn.size)
    }
    return ProlongationResult(
        residuals=residuals,
        witnesses=dict(zip(residuals, _memberships(list(residuals.values()), ideal))),
    )


def curvature_matrix(conn: ConnectionData, deps: Sequence[str]) -> tuple:
    """D_x F - D_t G + [F, G] with formal jet derivatives, unreduced: the
    dx^dt coefficients of d(Omega) - Omega^Omega over the jet chart."""
    curvature = conn.one_form(build_jet_context(deps)).curvature()
    return tuple(
        tuple(curvature.entry(i, j).coefficient("dx", "dt") for j in range(conn.size))
        for i in range(conn.size)
    )


def zero_curvature_residual(raw: tuple, sys: EvolutionSystem) -> tuple:
    """reduce(D_x F - D_t G + [F, G]) from the unreduced matrix that
    :func:`curvature_matrix` returns; zero certifies the linear pair
    y_t = F y, y_x = G y compatible on solutions."""
    return tuple(
        tuple(reduce_mod_evolution(entry, sys) for entry in row) for row in raw
    )

