"""Jet-space calculus for dependent variables of two independents (x, t).

Derivative symbols are generated on demand with canonical names like
``u_x``, ``u_xx``, ``u_xt`` (all x's before all t's).  Only x-jets are
first class; t-derivative symbols are transient and are eliminated by
:func:`reduce_mod_evolution` against an evolution system u_t = rhs.
Every replacement of jet symbols by expressions, here and in the section
elimination chain of :mod:`we`, runs through :func:`substitute_jets`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import sympy as sp

from .coeff import Scalar, ZERO, substitute

__all__ = [
    "X",
    "T",
    "jet",
    "split_jet",
    "jet_order",
    "EvolutionSystem",
    "total_derivative",
    "total_derivatives",
    "substitute_jets",
    "solve_for_t_derivative",
    "reduce_mod_evolution",
    "euler_operator",
    "is_total_x_derivative",
    "TotalDerivativeCertificate",
]

X = sp.Symbol("x")
T = sp.Symbol("t")

_JET_RE = re.compile(r"^(?P<var>[A-Za-z][A-Za-z0-9]*)(?:_(?P<ord>x*t*))?$")


def jet(var: str, nx: int = 0, nt: int = 0) -> sp.Symbol:
    """The jet symbol for the (nx, nt)-th derivative of a dependent variable."""
    if nx == 0 and nt == 0:
        return sp.Symbol(var)
    return sp.Symbol(f"{var}_{'x' * nx}{'t' * nt}")


def split_jet(symbol: sp.Symbol) -> tuple | None:
    """(var, nx, nt) for a canonical jet name, else None."""
    m = _JET_RE.match(symbol.name)
    if m is None:
        return None
    order = m.group("ord") or ""
    return (m.group("var"), order.count("x"), order.count("t"))


def jet_order(e: Scalar, deps: Sequence[str]) -> int:
    """Highest derivative count appearing for any of the given variables."""
    peak = 0
    for s in Scalar.of(e).free_symbols():
        parts = split_jet(s)
        if parts and parts[0] in deps:
            peak = max(peak, parts[1] + parts[2])
    return peak


def total_derivative(e: Scalar, direction: str, deps: Sequence[str]) -> Scalar:
    """Chain-rule total derivative D_x or D_t, promoting jet symbols."""
    if direction not in ("x", "t"):
        raise ValueError(f"direction must be 'x' or 't', got {direction!r}")
    expr = Scalar.of(e).expr
    base = X if direction == "x" else T
    out = sp.diff(expr, base)
    for s in expr.free_symbols:
        parts = split_jet(s)
        if parts is None or parts[0] not in deps:
            continue
        var, nx, nt = parts
        bumped = jet(var, nx + 1, nt) if direction == "x" else jet(var, nx, nt + 1)
        out += sp.diff(expr, s) * bumped
    return Scalar(out)


def total_derivatives(e: Scalar, nx: int, nt: int, deps: Sequence[str]) -> Scalar:
    """D_x^nx D_t^nt e."""
    out = Scalar.of(e)
    for _ in range(nx):
        out = total_derivative(out, "x", deps)
    for _ in range(nt):
        out = total_derivative(out, "t", deps)
    return out


def substitute_jets(e: Scalar, image) -> Scalar:
    """Replace every jet symbol of e by image(var, nx, nt) in one
    simultaneous substitution; a symbol whose image is None stays."""
    e = Scalar.of(e)
    bindings = {}
    for s in e.free_symbols():
        parts = split_jet(s)
        if parts is not None and (value := image(*parts)) is not None:
            bindings[s] = value
    return substitute(e, bindings) if bindings else e


@dataclass(frozen=True)
class EvolutionSystem:
    """Evolution rules u_t = rhs, one per dependent variable; right-hand
    sides are x-jet expressions free of t-derivatives."""

    rules: tuple  # ((var, Scalar), ...)

    def __post_init__(self):
        frozen = []
        for var, rhs in dict(self.rules).items():
            rhs = Scalar.of(rhs)
            for s in rhs.free_symbols():
                parts = split_jet(s)
                if parts and parts[2] > 0:
                    raise ValueError(f"evolution rhs for {var} contains a t-derivative: {s}")
            frozen.append((var, rhs))
        object.__setattr__(self, "rules", tuple(frozen))

    @staticmethod
    def of(rules) -> "EvolutionSystem":
        if isinstance(rules, EvolutionSystem):
            return rules
        if isinstance(rules, dict):
            return EvolutionSystem(tuple(rules.items()))
        return EvolutionSystem(tuple(rules))

    @property
    def deps(self) -> tuple:
        return tuple(var for var, _ in self.rules)

    def rhs(self, var: str) -> Scalar:
        for v, r in self.rules:
            if v == var:
                return r
        raise KeyError(var)


def solve_for_t_derivative(e: Scalar) -> tuple | None:
    """(var, rhs) such that e = 0 is the evolution rule var_t = rhs, or None.

    e qualifies when it holds exactly one t-derivative symbol, that symbol
    is a first t-derivative var_t, and e is linear in it with a nonzero
    slope free of it.
    """
    e = Scalar.of(e)
    t_syms = [(s, parts) for s in e.free_symbols() if (parts := split_jet(s)) and parts[2] > 0]
    if len(t_syms) != 1:
        return None
    symbol, (var, nx, nt) = t_syms[0]
    if (nx, nt) != (0, 1):
        return None
    slope = Scalar(sp.diff(e.expr, symbol))
    if slope.is_zero or symbol in slope.free_symbols():
        return None
    return var, Scalar(-(e.expr - slope.expr * symbol)) / slope


def reduce_mod_evolution(e: Scalar, sys: EvolutionSystem) -> Scalar:
    """Eliminate every t-derivative symbol by substituting the prolonged
    evolution rules; the result is t-derivative free."""
    sys = EvolutionSystem.of(sys)
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
                cache[key] = total_derivatives(sys.rhs(var), nx, 0, deps)
            else:
                bumped = total_derivative(image(var, nx, nt - 1), "t", deps)
                cache[key] = reduce_mod_evolution(bumped, sys)
        return cache[key]

    return substitute_jets(e, image)


def _check_polynomial(e: Scalar, deps: Sequence[str]) -> None:
    den = e.denominator
    for s in sp.sympify(den).free_symbols:
        parts = split_jet(s)
        if parts and parts[0] in deps:
            raise ValueError(f"non-polynomial dependence on jet symbol {s}")


def euler_operator(e: Scalar, var: str, deps: Sequence[str] | None = None) -> Scalar:
    """Variational derivative sum_k (-D_x)^k d(e)/d(var_k) for x-jets of var.

    Annihilates exactly the total x-derivatives on the polynomial fragment.
    """
    e = Scalar.of(e)
    if deps is None:
        deps = sorted({p[0] for s in e.free_symbols() if (p := split_jet(s))})
    if var not in deps:
        deps = tuple(deps) + (var,)
    _check_polynomial(e, deps)
    for s in e.free_symbols():
        parts = split_jet(s)
        if parts and parts[2] > 0 and parts[0] in deps:
            raise ValueError(f"euler operator requires a t-derivative-free input, found {s}")
    out = ZERO
    order = jet_order(e, [var])
    for k in range(order + 1):
        term = total_derivatives(Scalar(sp.diff(e.expr, jet(var, k, 0))), k, 0, deps)
        out = out - term if k % 2 else out + term
    return out


@dataclass(frozen=True)
class TotalDerivativeCertificate:
    """Outcome of the exactness test: true iff every variational derivative
    vanishes; otherwise the offending nonzero derivatives are kept."""

    ok: bool
    witnesses: tuple  # ((var, Scalar), ...) nonzero variational derivatives
    peak_jet_order: int

    def witness(self, var: str) -> Scalar:
        for v, w in self.witnesses:
            if v == var:
                return w
        return ZERO


def is_total_x_derivative(e: Scalar, deps: Sequence[str]) -> TotalDerivativeCertificate:
    e = Scalar.of(e)
    bad = []
    for var in deps:
        w = euler_operator(e, var, deps)
        if not w.is_zero:
            bad.append((var, w))
    return TotalDerivativeCertificate(
        ok=not bad, witnesses=tuple(bad), peak_jet_order=jet_order(e, deps)
    )
