"""Jet-space calculus for dependent variables of two independents (x, t).

Derivative symbols are generated on demand with canonical names like
``u_x``, ``u_xx``, ``u_xt`` (all x's before all t's).  Jets are ranked
by t-order, then x-order, then name.  An :class:`EvolutionSystem` holds
at most one rule per variable, solved for its leader: an evolution rule
``u_t = rhs``, the peakon equation solved for ``u_xxt``, or a section's
elimination ``p -> u_x``; its constructor is the one place that stages
rules.  :func:`reduce_mod_evolution` is the one rewrite modulo them, and
:func:`solve_evolution` reads every system off equations over its fields.
Every derivative, total or partial, is the one derivation
:func:`prolong.coeff.derive` on the stored pair: :func:`total_derivative`
gives it the image of the independent variable and of each jet symbol.
"""

from __future__ import annotations

import re
from types import MappingProxyType
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
    """Rules leader = rhs, at most one per dependent variable, keyed by the
    leader's jet name: ``u_t`` for an evolution rule, ``u_xxt`` for the
    peakon equation, ``p`` for the elimination p -> u_x.  Each right side is
    staged: reduced modulo the rules before it, it may hold no jet of its
    variable at or above its leader, so a cycle fails at the rule closing it.
    Once staged, rules is a read-only mapping.
    deps lists the dependent variables: those given, then the leaders' own;
    a t-derivative of another variable on a right side is refused."""

    __slots__ = ("rules", "deps")  # rules: leader -> Scalar, from a dict or (leader, rhs) pairs

    def __init__(self, rules, deps: Sequence[str] = ()):
        pairs = tuple(getattr(rules, "items", lambda: rules)())
        variables = [split_jet(leader)[0] for leader, _ in pairs]
        super().__init__({}, tuple(dict.fromkeys((*deps, *variables))))
        for index, (leader, rhs) in enumerate(pairs):
            var, nx, nt = split_jet(leader)
            if var in variables[:index]:
                raise ValueError(f"a second rule for {var}: {leader}")
            rhs = reduce_mod_evolution(rhs, self)  # self holds the rules staged so far
            for s in rhs.free_symbols():
                parts = split_jet(s)
                if parts and parts[0] == var and parts[1] >= nx and parts[2] >= nt:
                    raise ValueError(f"the rule for {leader} holds {s} on its right side")
            self.rules[leader] = rhs
        object.__setattr__(self, "rules", MappingProxyType(self.rules))


def solve_evolution(equations: Sequence[Scalar], fields: Sequence[str]) -> tuple:
    """(EvolutionSystem, leftovers) of the equations e = 0 over the
    dependent variables fields.

    An equation's leader is its highest jet, ranked by t-order, then
    x-order, then name.  The equation gives the rule leader = rhs when the
    leader has a t-derivative, its coefficient holds no jet of a field (so
    e is linear in it and the rule divides by no field), every other
    t-derivative in e is of the leader's variable, rhs is free of the
    spectral parameter, and no earlier equation gave a rule for that
    variable.  Every other equation is left over, in input order.  The
    system's deps are the fields, with or without a rule.
    """
    rules, leftovers = {}, []
    for e in map(Scalar, equations):
        jets = {s: parts for s in e.free_symbols() if (parts := split_jet(s))}
        leader = max(jets, key=lambda s: (jets[s][2], jets[s][1], jets[s][0]), default=None)
        rhs = None
        if leader is not None and jets[leader][2] > 0:
            var = jets[leader][0]
            slope = e.diff(leader)
            if (
                all(v == var for v, _, nt in jets.values() if nt)
                and not slope.is_zero
                and all(jets[s][0] not in fields for s in slope.free_symbols() if s in jets)
                and all(split_jet(k)[0] != var for k in rules)
            ):
                rhs = (slope * sym(leader) - e) / slope
        if rhs is None or ETA in rhs.free_symbols():
            leftovers.append(e)
        else:
            rules[leader] = rhs
    return EvolutionSystem(rules, fields), tuple(leftovers)


def reduce_mod_evolution(e: Scalar, sys: EvolutionSystem) -> Scalar:
    """The normal form of e modulo the rules: a jet var_(x^i t^j) at or
    above its variable's leader var_(x^a t^b) becomes D_x^(i-a) D_t^(j-b)
    of the right side, itself reduced.  Each image is one total derivative
    of the image below it, reduced again.  A t-derivative of a variable
    outside sys.deps raises ValueError."""
    deps = sys.deps
    leaders = {}
    for leader, rhs in sys.rules.items():
        var, nx, nt = split_jet(leader)
        leaders[var] = (nx, nt, rhs)
    cache: dict = {}

    def normal(e: Scalar) -> Scalar:
        return substitute_jets(e, image)

    def image(var: str, nx: int, nt: int) -> Scalar | None:
        if var not in deps:
            if nt:
                raise ValueError(f"t-derivative of {var} not covered by the evolution system")
            return None
        rule = leaders.get(var)
        if rule is None or nx < rule[0] or nt < rule[1]:
            return None
        a, b, rhs = rule
        key = (var, nx, nt)
        if key not in cache:
            if nt > b:
                cache[key] = normal(total_derivative(image(var, nx, nt - 1), "t", deps))
            elif nx > a:
                cache[key] = normal(total_derivative(image(var, nx - 1, nt), "x", deps))
            else:
                cache[key] = normal(rhs)
        return cache[key]

    return normal(e)


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
