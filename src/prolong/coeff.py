"""Exact scalar arithmetic.

Scalars are rational functions of declared symbols over the Gaussian
rationals, optionally containing exponential atoms exp(s) of degree-0
symbols.  Everything is kept in a canonical form (expanded numerator and
denominator in lowest terms), so structural equality decides mathematical
equality on this fragment.  No floating point enters anywhere.

Scalar is the one scalar type: a spectral-family coefficient is a Scalar
too, and :func:`eta_coefficients` reads it as a Laurent polynomial in the
spectral parameter eta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import sympy as sp

__all__ = [
    "Scalar",
    "LaurentError",
    "eta_coefficients",
    "ETA",
    "I",
    "ZERO",
    "ONE",
    "sym",
    "exp_atom",
    "substitute",
]

ETA = sp.Symbol("eta")

ScalarLike = Union["Scalar", int, sp.Expr]

_BAD_ATOMS = (sp.zoo, sp.nan, sp.oo, -sp.oo)


def _canonical(expr: sp.Expr) -> sp.Expr:
    """Canonical representative: expanded p/q in lowest terms.

    Products of exponential atoms are merged first so inverse pairs like
    exp(s)*exp(-s) collapse before gcd cancellation.
    """
    e = sp.sympify(expr)
    if e.has(sp.exp):
        e = sp.powsimp(e, deep=True, combine="exp")
    e = sp.cancel(e)
    if e.has(sp.exp):
        merged = sp.powsimp(e, deep=True, combine="exp")
        if merged is not e:
            e = sp.cancel(merged)
    return e


@dataclass(frozen=True)
class Scalar:
    """Immutable exact coefficient, always stored in canonical form."""

    expr: sp.Expr

    def __post_init__(self):
        canon = _canonical(self.expr)
        if canon.has(*_BAD_ATOMS):
            raise ZeroDivisionError(f"scalar normalizes to an undefined value: {self.expr}")
        object.__setattr__(self, "expr", canon)

    # -- construction -----------------------------------------------------

    @staticmethod
    def of(value: ScalarLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(sp.sympify(value))

    @staticmethod
    def rational(p: int, q: int = 1) -> "Scalar":
        return Scalar(sp.Rational(p, q))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: ScalarLike) -> "Scalar":
        return Scalar(self.expr + Scalar.of(other).expr)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        return Scalar(self.expr - Scalar.of(other).expr)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar(Scalar.of(other).expr - self.expr)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        return Scalar(self.expr * Scalar.of(other).expr)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        divisor = Scalar.of(other)
        if divisor.is_zero:
            raise ZeroDivisionError("division by a scalar that normalizes to zero")
        return Scalar(self.expr / divisor.expr)

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) / self

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            raise TypeError("scalar exponents must be integers")
        if n < 0 and self.is_zero:
            raise ZeroDivisionError("negative power of zero scalar")
        return Scalar(self.expr**n)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.expr)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.expr == 0

    @property
    def denominator(self) -> sp.Expr:
        return sp.fraction(self.expr)[1]

    def free_symbols(self) -> set:
        return set(self.expr.free_symbols)

    def diff(self, symbol: sp.Symbol) -> "Scalar":
        return Scalar(sp.diff(self.expr, symbol))

    def subs(self, mapping: Mapping[sp.Symbol, ScalarLike]) -> "Scalar":
        return substitute(self, mapping)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Scalar, int, sp.Expr)):
            return NotImplemented
        o = Scalar.of(other)
        if self.expr == o.expr:
            return True
        return _canonical(self.expr - o.expr) == 0

    def __hash__(self) -> int:
        return hash(self.expr)

    def __repr__(self) -> str:
        return f"Scalar({self.expr})"

    def __str__(self) -> str:
        return str(self.expr)


ZERO = Scalar.of(0)
ONE = Scalar.of(1)
I = Scalar(sp.I)


def _accumulate(terms: dict, key, coeff: Scalar) -> None:
    """Add coeff under key.  Scalars are canonical by construction, so a
    coefficient is only moved unless another already sits under its key."""
    if key in terms:
        terms[key] = terms[key] + coeff
    else:
        terms[key] = coeff


def sym(name: str) -> Scalar:
    return Scalar(sp.Symbol(name))


def exp_atom(s: ScalarLike) -> Scalar:
    """Exponential atom exp(s); differentiation and inverse-pair collapse
    come from the canonical form, nothing else is simplified."""
    return Scalar(sp.exp(Scalar.of(s).expr))


def substitute(e: ScalarLike, bindings: Mapping[sp.Symbol, ScalarLike]) -> Scalar:
    """Simultaneous substitution followed by normalization.

    All bindings are applied in one pass, so swaps and rescalings like
    r -> lam*r are well defined; nothing is re-substituted afterwards.
    """
    subs_map = {s: Scalar.of(v).expr for s, v in bindings.items()}
    result = Scalar.of(e).expr.subs(subs_map, simultaneous=True)
    return Scalar(result)


class LaurentError(ValueError):
    """Raised when an expression is not a Laurent polynomial in eta."""


def eta_coefficients(e: ScalarLike) -> dict:
    """{n: coefficient of eta**n} of a Laurent polynomial in eta, in
    ascending order of n.

    The coefficients are nonzero eta-free Scalars; zero gives {}.  The
    denominator must be a monomial in eta times an eta-free part.
    """
    num, den = sp.fraction(Scalar.of(e).expr)
    try:
        num_poly, den_poly = sp.Poly(num, ETA), sp.Poly(den, ETA)
    except sp.PolynomialError:
        raise LaurentError(f"not a Laurent polynomial in eta: {e}") from None
    if len(den_poly.terms()) != 1:
        raise LaurentError(f"denominator is not a monomial in eta: {den}")
    [((shift,), den_coeff)] = den_poly.terms()
    out = {}
    for (k,), coeff in reversed(num_poly.terms()):
        c = Scalar(coeff / den_coeff)
        if not c.is_zero:
            out[k - shift] = c
    return out
