"""Exterior ideals on coordinate charts and their prolongations.

An ExteriorIdeal holds generating forms over a chart (u_1 .. u_m) whose
first two coordinates are the independent pair (x, t).  Closure is checked
by finding multiplier witnesses d(xi_i) = sum_j alpha_ij ^ xi_j through an
exact linear solve over the rational-function field.  Sectioning pulls the
generators back along du -> u_x dx + u_t dt and reads off their dx, dt or
dx^dt coefficients; a user-declared elimination chain then presents the
final equation(s).  Each elimination replaces every jet of its variable by
the matching total derivative of the replacement, through
:func:`jets.substitute_jets`.  Linear connections are tested through the
curvature d(Omega) - Omega^Omega of Omega = F dt + G dx, either against
the ideal (membership of each entry) or against an evolution system
(zero-curvature residual).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .coeff import Scalar, ONE
from .forms import ContextError, DerivationContext, Form, MatrixForm, build_jet_context
from .linsolve import express_in_basis
from .jets import (
    EvolutionSystem,
    jet,
    reduce_mod_evolution,
    solve_for_t_derivative,
    split_jet,
    substitute_jets,
    total_derivatives,
)

__all__ = [
    "ExteriorIdeal",
    "chart_context",
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
    "apply_eliminations",
    "extract_section_evolution",
]


def chart_context(coordinates: Sequence[str]) -> DerivationContext:
    """Coordinate context; d of a coefficient is its coordinate differential."""
    ctx = DerivationContext()
    for name in coordinates:
        ctx.add_scalar(name)
    return ctx.freeze()


@dataclass(frozen=True)
class ExteriorIdeal:
    """Generating forms over a chart, with optional named parameters."""

    ctx: DerivationContext
    names: tuple
    generators: tuple  # Forms, same order as names
    coordinates: tuple
    parameters: tuple = ()

    def __post_init__(self):
        for f in self.generators:
            if f.ctx is not self.ctx:
                raise ContextError("ideal generators must share one context")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "coordinates", tuple(self.coordinates))
        object.__setattr__(self, "parameters", tuple(self.parameters))

    def generator(self, name: str) -> Form:
        return self.generators[self.names.index(name)]


@dataclass(frozen=True)
class MembershipWitness:
    """phi = sum_j multipliers[j] ^ generators[j]; exact by construction."""

    ideal: ExteriorIdeal
    multipliers: tuple  # Forms aligned with ideal.names (may be degree 0)

    def expand(self) -> Form:
        degree = next(
            (m.degree + g.degree for m, g in zip(self.multipliers, self.ideal.generators)),
            0,
        )
        out = self.ideal.ctx.zero(degree)
        for mult, gen in zip(self.multipliers, self.ideal.generators):
            out = out + mult.wedge(gen)
        return out

    def multiplier(self, name: str) -> Form:
        return self.multipliers[self.ideal.names.index(name)]


def ideal_membership(phi: Form, ideal: ExteriorIdeal) -> MembershipWitness | None:
    """Multiplier forms expressing phi in the ideal, or None.

    Multipliers have degree deg(phi) - deg(xi_j) and are spanned by the
    wedge monomials of that many one-form generators; the coefficient match
    over all wedge monomials is solved exactly with deterministic pivoting
    and zero free unknowns (minimal support under the declared order).
    """
    if phi.is_zero:
        return MembershipWitness(
            ideal, tuple(ideal.ctx.zero(0) for _ in ideal.generators)
        )
    ctx = ideal.ctx
    candidates: list[Form] = []
    layout: list[tuple[int, Form]] = []  # (generator slot, basis monomial)
    for slot, gen in enumerate(ideal.generators):
        mult_degree = phi.degree - gen.degree
        if mult_degree < 0:
            continue
        for mono in itertools.combinations(ctx.one_form_indices(), mult_degree):
            basis_form = Form(ctx, mult_degree, {mono: ONE})
            candidates.append(basis_form.wedge(gen))
            layout.append((slot, basis_form))
    solution = express_in_basis(phi, candidates)
    if solution is None:
        return None
    multipliers = [ctx.zero(0)] * len(ideal.generators)
    for coeff, (slot, basis_form) in zip(solution, layout):
        multipliers[slot] = multipliers[slot] + basis_form * coeff
    witness = MembershipWitness(ideal, tuple(multipliers))
    if not (witness.expand() - phi).is_zero:
        return None
    return witness


@dataclass(frozen=True)
class ClosureResult:
    ideal: ExteriorIdeal
    witnesses: tuple  # (name, MembershipWitness | None)
    failures: tuple  # (name, d-form) for generators without a witness

    @property
    def ok(self) -> bool:
        return not self.failures

    def witness(self, name: str) -> MembershipWitness | None:
        for n, w in self.witnesses:
            if n == name:
                return w
        return None


def closure_check(ideal: ExteriorIdeal) -> ClosureResult:
    witnesses = []
    failures = []
    for name, gen in zip(ideal.names, ideal.generators):
        d_gen = gen.d()
        witness = ideal_membership(d_gen, ideal)
        witnesses.append((name, witness))
        if witness is None:
            failures.append((name, d_gen))
    return ClosureResult(ideal=ideal, witnesses=tuple(witnesses), failures=tuple(failures))


# ---------------------------------------------------------------------------
# sectioning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectionResult:
    names: tuple  # generator name, suffixed -dx or -dt for a one-form's parts
    raw: tuple  # pulled-back coefficients aligned with names, jet expressions
    reduced: tuple  # the same after the elimination chain, trivial ones dropped
    eliminations: tuple  # (variable, substituted jet expression) as applied
    labels: tuple  # recognized equation names aligned with reduced


def _apply_elimination(e: Scalar, var: str, replacement: Scalar, deps: tuple) -> Scalar:
    """Replace each jet var_(x^nx t^nt) of e by D_x^nx D_t^nt replacement."""
    return substitute_jets(
        e,
        lambda v, nx, nt: total_derivatives(replacement, nx, nt, deps) if v == var else None,
    )


def section(ideal: ExteriorIdeal, eliminations: Sequence[tuple] = ()) -> SectionResult:
    """Pull the generators back to the transversal integral manifold over
    (x, t) and present the equations after the declared elimination chain.

    A one-form generator gives its dx and dt coefficients, a two-form its
    dx^dt coefficient; a higher form pulls back to zero on the
    two-dimensional base and gives no equation.
    """
    deps = tuple(c for c in ideal.coordinates if c not in ("x", "t"))
    jet_ctx = build_jet_context(deps)
    dx, dt = jet_ctx.gen("dx"), jet_ctx.gen("dt")
    images = {
        f"d{c}": jet_ctx.gen(f"d{c}") if c in ("x", "t")
        else dx * Scalar(jet(c, 1, 0)) + dt * Scalar(jet(c, 0, 1))
        for c in ideal.coordinates
    }
    names, raw = [], []
    for name, gen in zip(ideal.names, ideal.generators):
        pulled = gen.substitute_generators(images)
        for base in itertools.combinations(("dx", "dt"), gen.degree):
            names.append(f"{name}-{base[0]}" if gen.degree == 1 else name)
            raw.append(pulled.coefficient(*base))
    applied = []
    for var, replacement in eliminations:
        replacement = apply_eliminations(replacement, applied, deps)
        for s in replacement.free_symbols():
            parts = split_jet(s)
            if parts and parts[0] == var:
                raise ValueError(f"cyclic elimination for {var}: {replacement}")
        applied.append((var, replacement))
    reduced = [
        e for e in (apply_eliminations(e, applied, deps) for e in raw) if not e.is_zero
    ]
    labels = tuple(named_equation(e) for e in reduced)
    return SectionResult(
        names=tuple(names),
        raw=tuple(raw),
        reduced=tuple(reduced),
        eliminations=tuple(applied),
        labels=labels,
    )


def _proportional_to(e: Scalar, target: Scalar) -> bool:
    """True when e is a nonzero constant multiple of target."""
    if e.is_zero or target.is_zero:
        return False
    ratio = e / target
    return not ratio.is_zero and not ratio.free_symbols()


def _peakon_family(beta: int) -> Scalar:
    """(u - u_xx)_t + u (u - u_xx)_x + beta (u - u_xx) u_x, expanded in jets."""
    u, ux, uxx, uxxx = jet("u"), jet("u", 1), jet("u", 2), jet("u", 3)
    ut, uxxt = jet("u", 0, 1), jet("u", 2, 1)
    m_t = Scalar(ut - uxxt)
    m_x = Scalar(ux - uxxx)
    m = Scalar(u - uxx)
    return m_t + Scalar(u) * m_x + beta * m * Scalar(ux)


def named_equation(e: Scalar) -> str | None:
    """Recognize the two named members of the peakon family."""
    for beta, label in ((2, "Camassa-Holm"), (3, "Degasperis-Procesi")):
        if _proportional_to(e, _peakon_family(beta)):
            return label
    return None


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConnectionData:
    """Linear connection dy^k - sum_i F[k][i] y^i dt - sum_i G[k][i] y^i dx.

    On integral manifolds y_t = F y and y_x = G y; entries are functions of
    the chart (or jet) variables only, never of the fiber variables.
    """

    F: tuple  # rows of Scalars, the dt side
    G: tuple  # rows of Scalars, the dx side

    def __post_init__(self):
        f_rows = tuple(tuple(Scalar.of(c) for c in row) for row in self.F)
        g_rows = tuple(tuple(Scalar.of(c) for c in row) for row in self.G)
        n = len(f_rows)
        for rows in (f_rows, g_rows):
            if len(rows) != n or any(len(r) != n for r in rows):
                raise ValueError("connection matrices must be square and same size")
        object.__setattr__(self, "F", f_rows)
        object.__setattr__(self, "G", g_rows)

    @property
    def size(self) -> int:
        return len(self.F)

    def map_entries(self, fn) -> "ConnectionData":
        return ConnectionData(
            F=tuple(tuple(fn(c) for c in row) for row in self.F),
            G=tuple(tuple(fn(c) for c in row) for row in self.G),
        )

    def one_form(self, ctx: DerivationContext) -> MatrixForm:
        """Omega = F dt + G dx over a context declaring dx and dt."""
        dx, dt = ctx.gen("dx"), ctx.gen("dt")
        return MatrixForm(
            tuple(
                tuple(dt * f + dx * g for f, g in zip(f_row, g_row))
                for f_row, g_row in zip(self.F, self.G)
            )
        )


@dataclass(frozen=True)
class ProlongationResult:
    """Per-entry membership of the prolongation two-form in the ideal."""

    entries: tuple  # ((i, j, MembershipWitness | None, Form), ...)

    @property
    def ok(self) -> bool:
        return all(w is not None for _, _, w, _ in self.entries)

    def witness(self, i: int, j: int) -> MembershipWitness | None:
        for a, b, w, _ in self.entries:
            if (a, b) == (i, j):
                return w
        raise KeyError((i, j))

    def residual(self, i: int, j: int) -> Form:
        for a, b, w, form in self.entries:
            if (a, b) == (i, j):
                return form
        raise KeyError((i, j))


def prolongation_residual(conn: ConnectionData, ideal: ExteriorIdeal) -> ProlongationResult:
    """Each entry of the curvature d(Omega) - Omega^Omega over the chart,
    dF/du_j du_j^dt + dG/du_j du_j^dx + [F,G] dx^dt, tested for ideal
    membership; an empty witness set means failure."""
    curvature = conn.one_form(ideal.ctx).curvature()
    results = []
    for i in range(conn.size):
        for j in range(conn.size):
            z = curvature.entry(i, j)
            results.append((i, j, ideal_membership(z, ideal), z))
    return ProlongationResult(entries=tuple(results))


def curvature_matrix(conn: ConnectionData, deps: Sequence[str]) -> tuple:
    """D_x F - D_t G + [F, G] with formal jet derivatives, unreduced: the
    dx^dt coefficients of d(Omega) - Omega^Omega over the jet chart."""
    curvature = conn.one_form(build_jet_context(deps)).curvature()
    return tuple(
        tuple(curvature.entry(i, j).coefficient("dx", "dt") for j in range(conn.size))
        for i in range(conn.size)
    )


def zero_curvature_residual(conn: ConnectionData, sys: EvolutionSystem) -> tuple:
    """reduce(D_x F - D_t G + [F, G]); zero certifies the linear pair
    y_t = F y, y_x = G y compatible on solutions."""
    sys = EvolutionSystem.of(sys)
    raw = curvature_matrix(conn, sys.deps)
    return tuple(
        tuple(reduce_mod_evolution(entry, sys) for entry in row) for row in raw
    )


def apply_eliminations(e: Scalar, chain: Sequence[tuple], deps: Sequence[str]) -> Scalar:
    """Apply an already-staged elimination chain to a jet expression."""
    out = Scalar.of(e)
    for var, replacement in chain:
        out = _apply_elimination(out, var, Scalar.of(replacement), tuple(deps))
    return out


def extract_section_evolution(result: SectionResult) -> EvolutionSystem:
    """Solve the sectioned equations for first t-derivatives; fails when an
    equation is not evolutionary (see :func:`jets.solve_for_t_derivative`)."""
    rules: dict[str, Scalar] = {}
    for eq in result.reduced:
        solved = solve_for_t_derivative(eq)
        if solved is None:
            raise ValueError(f"equation is not evolutionary: {eq}")
        var, rhs = solved
        rules[var] = rhs
    return EvolutionSystem.of(rules)
