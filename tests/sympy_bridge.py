"""Conversion between sympy expressions and Scalars for the tests, whose
oracle is sympy, built only on prolong's public API.  Compare in Scalar
land where a test can, as ``from_sympy(oracle) == value``; ``to_sympy``
is for a test that needs a sympy object."""

from __future__ import annotations

from math import prod

import sympy as sp
from sympy.parsing.sympy_parser import parse_expr

from prolong.coeff import I, Scalar, exp_atom, sym


def from_sympy(expr) -> Scalar:
    """The Scalar of a sympy expression: a Symbol by its name, exp(b) as
    exp_atom of b, and sympy's E, which is what sympy makes of exp(1),
    as exp_atom(1).  zoo, nan, oo and non-integer powers are refused."""
    expr = sp.sympify(expr)
    if expr.is_Symbol:
        return sym(expr.name)
    if expr.is_Rational:
        return Scalar.rational(expr.p, expr.q)
    if expr is sp.I:
        return I
    if expr is sp.E:
        return exp_atom(1)
    if isinstance(expr, sp.exp):
        return exp_atom(from_sympy(expr.args[0]))
    if expr.is_Add:
        return sum(map(from_sympy, expr.args), Scalar(0))
    if expr.is_Mul:
        return prod(map(from_sympy, expr.args), start=Scalar(1))
    if expr.is_Pow and expr.exp.is_Integer:
        return from_sympy(expr.base) ** int(expr.exp)
    raise ValueError(f"not an exact rational scalar: {expr}")


def to_sympy(s: Scalar) -> sp.Expr:
    """s as a sympy expression, every name bound, so that none of sympy's
    own names (beta, E, I, S, N) captures a symbol."""
    names = {name: sp.Symbol(name) for name in s.free_symbols()}
    return parse_expr(str(s), local_dict={**names, "i": sp.I, "exp": sp.exp})
