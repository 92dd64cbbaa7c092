"""Jet-space calculus for dependent variables of two independents (x, t).

Derivative symbols are generated on demand with canonical names like
``u_x``, ``u_xx``, ``u_xt`` (all x's before all t's).  Only x-jets are
first class; t-derivative symbols are transient and are eliminated by
:func:`reduce_mod_evolution` against an evolution system u_t = rhs; every
system read off equations is made by :func:`solve_evolution`.
Every replacement of jet symbols by expressions, here and in the section
elimination chain of :mod:`we`, runs through :func:`substitute_jets`.
Every derivative, total or partial, is the one derivation
:func:`prolong.coeff.derive` on the stored pair: :func:`total_derivative`
gives it the image of the independent variable and of each jet symbol.
"""

from __future__ import annotations

import re
from typing import Sequence

from .coeff import ETA, ONE, Scalar, ZERO, derive, substitute, sym
from .record import Record

__all__ = [
    "jet",
    "split_jet",
    "jet_order",
    "EvolutionSystem",
    "total_derivative",
    "total_derivatives",
    "substitute_jets",
    "solve_for_t_derivative",
    "solve_evolution",
    "reduce_mod_evolution",
    "euler_operator",
    "is_total_x_derivative",
    "TotalDerivativeCertificate",
]

_JET_RE = re.compile(r"^(?P<var>[A-Za-z][A-Za-z0-9]*)(?:_(?P<ord>x*t*))?$")


def jet(var: str, nx: int = 0, nt: int = 0) -> str:
    """The jet symbol's name for the (nx, nt)-th derivative of a dependent
    variable."""
    if nx == 0 and nt == 0:
        return var
    return f"{var}_{'x' * nx}{'t' * nt}"


def split_jet(name: str) -> tuple | None:
    """(var, nx, nt) for a canonical jet name, else None."""
    m = _JET_RE.match(name)
    if m is None:
        return None
    order = m.group("ord") or ""
    return (m.group("var"), order.count("x"), order.count("t"))


def jet_order(e: Scalar, deps: Sequence[str]) -> int:
    """Highest derivative count appearing for any of the given variables."""
    peak = 0
    for s in Scalar(e).free_symbols():
        parts = split_jet(s)
        if parts and parts[0] in deps:
            peak = max(peak, parts[1] + parts[2])
    return peak


def total_derivative(e: Scalar, direction: str, deps: Sequence[str]) -> Scalar:
    """Total derivative D_x or D_t: the derivation that takes the
    independent variable to 1 and each jet symbol of deps in e, inside
    exponential atoms too, to the symbol one derivative higher."""
    if direction not in ("x", "t"):
        raise ValueError(f"direction must be 'x' or 't', got {direction!r}")
    e = Scalar(e)
    images = {direction: ONE}
    for s in e.free_symbols():
        parts = split_jet(s)
        if parts is not None and parts[0] in deps:
            var, nx, nt = parts
            images[s] = sym(jet(var, nx + 1, nt) if direction == "x" else jet(var, nx, nt + 1))
    return derive(e, images)


def total_derivatives(e: Scalar, nx: int, nt: int, deps: Sequence[str]) -> Scalar:
    """D_x^nx D_t^nt e."""
    out = Scalar(e)
    for _ in range(nx):
        out = total_derivative(out, "x", deps)
    for _ in range(nt):
        out = total_derivative(out, "t", deps)
    return out


def substitute_jets(e: Scalar, image) -> Scalar:
    """Replace every jet symbol of e by image(var, nx, nt) in one
    simultaneous substitution; a symbol whose image is None stays."""
    e = Scalar(e)
    bindings = {}
    for s in e.free_symbols():
        parts = split_jet(s)
        if parts is not None and (value := image(*parts)) is not None:
            bindings[s] = value
    return substitute(e, bindings) if bindings else e


class EvolutionSystem(Record):
    """Evolution rules u_t = rhs, one per dependent variable; right-hand
    sides are x-jet expressions free of t-derivatives."""

    __slots__ = ("rules",)  # var -> Scalar; built from a dict or from (var, rhs) pairs

    def __init__(self, rules):
        frozen = {}
        for var, rhs in dict(rules).items():
            rhs = Scalar(rhs)
            for s in rhs.free_symbols():
                parts = split_jet(s)
                if parts and parts[2] > 0:
                    raise ValueError(f"evolution rhs for {var} contains a t-derivative: {s}")
            frozen[var] = rhs
        super().__init__(frozen)

    @property
    def deps(self) -> tuple:
        return tuple(self.rules)


def solve_for_t_derivative(e: Scalar) -> tuple | None:
    """(var, rhs) such that e = 0 is the evolution rule var_t = rhs, or None.

    e qualifies when it holds exactly one t-derivative symbol, that symbol
    is a first t-derivative var_t, and e is linear in it with a nonzero
    slope free of it.
    """
    e = Scalar(e)
    t_syms = [(s, parts) for s in e.free_symbols() if (parts := split_jet(s)) and parts[2] > 0]
    if len(t_syms) != 1:
        return None
    symbol, (var, nx, nt) = t_syms[0]
    if (nx, nt) != (0, 1):
        return None
    slope = e.diff(symbol)
    if slope.is_zero or symbol in slope.free_symbols():
        return None
    return var, (slope * sym(symbol) - e) / slope


def solve_evolution(equations: Sequence[Scalar]) -> tuple:
    """(EvolutionSystem, leftovers) of the equations e = 0.  An equation
    gives the rule var_t = rhs when :func:`solve_for_t_derivative` solves
    it for a variable no earlier equation solved, with rhs free of the
    spectral parameter; every other equation is left over, in input order."""
    rules, leftovers = {}, []
    for e in equations:
        solved = solve_for_t_derivative(e)
        if solved is None or solved[0] in rules or ETA in solved[1].free_symbols():
            leftovers.append(e)
        else:
            rules[solved[0]] = solved[1]
    return EvolutionSystem(rules), tuple(leftovers)


def reduce_mod_evolution(e: Scalar, sys: EvolutionSystem) -> Scalar:
    """Eliminate every t-derivative symbol by substituting the prolonged
    evolution rules; the result is t-derivative free."""
    deps = sys.deps
    cache: dict = {}

    def image(var: str, nx: int, nt: int) -> Scalar | None:
        if nt == 0:
            return None
        if var not in deps:
            raise ValueError(f"t-derivative of {var} not covered by the evolution system")
        key = (var, nx, nt)
        if key not in cache:
            if nt == 1:
                cache[key] = total_derivatives(sys.rules[var], nx, 0, deps)
            else:
                bumped = total_derivative(image(var, nx, nt - 1), "t", deps)
                cache[key] = reduce_mod_evolution(bumped, sys)
        return cache[key]

    return substitute_jets(e, image)


def euler_operator(e: Scalar, var: str, deps: Sequence[str]) -> Scalar:
    """Variational derivative sum_k (-D_x)^k d(e)/d(var_k) for x-jets of var.

    Annihilates exactly the total x-derivatives on the polynomial fragment,
    so e must be polynomial in, and free of t-derivatives of, the jets of
    var and of deps.
    """
    e, deps = Scalar(e), (*deps, var)
    below = e.denominator.free_symbols()
    order = 0
    for s in e.free_symbols():
        parts = split_jet(s)
        if parts and parts[0] in deps:
            if s in below:
                raise ValueError(f"non-polynomial dependence on jet symbol {s}")
            if parts[2] > 0:
                raise ValueError(f"euler operator requires a t-derivative-free input, found {s}")
            if parts[0] == var:
                order = max(order, parts[1])
    out = ZERO
    for k in range(order + 1):
        term = total_derivatives(e.diff(jet(var, k, 0)), k, 0, deps)
        out = out - term if k % 2 else out + term
    return out


class TotalDerivativeCertificate(Record):
    """Outcome of the exactness test: true iff every variational derivative
    vanishes; otherwise the offending nonzero derivatives are kept."""

    __slots__ = (
        "ok",
        "witnesses",  # var -> its nonzero variational derivative
        "peak_jet_order",
    )


def is_total_x_derivative(e: Scalar, deps: Sequence[str]) -> TotalDerivativeCertificate:
    e = Scalar(e)
    bad = {}
    for var in deps:
        w = euler_operator(e, var, deps)
        if not w.is_zero:
            bad[var] = w
    return TotalDerivativeCertificate(
        ok=not bad, witnesses=bad, peak_jet_order=jet_order(e, deps)
    )
