"""Exact linear solving over the rational-function coefficient field.

The augmented matrix [A | b] is brought to reduced row echelon form by
sympy's ``DomainMatrix`` over the fraction field its entries generate.
The pivot columns are the leftmost independent ones, so the solution does
not depend on row order.  Underdetermined systems return the solution with
all non-pivot unknowns set to zero, which is the minimal-support choice
under the declared column order.
"""

from __future__ import annotations

from typing import Sequence

from sympy.polys.matrices import DomainMatrix

from .coeff import Scalar, ZERO
from .forms import Form

__all__ = ["solve_linear", "express_in_basis"]


def solve_linear(matrix: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]):
    """Solve A z = b exactly; returns a list of Scalars or None if
    inconsistent.  Free unknowns are set to zero."""
    ncols = len(matrix[0]) if matrix else 0
    rows = [
        [Scalar.of(c).expr for c in row] + [Scalar.of(b).expr]
        for row, b in zip(matrix, rhs)
    ]
    augmented = DomainMatrix.from_list_sympy(len(rows), ncols + 1, rows)
    reduced, pivots = augmented.to_field().rref()
    if ncols in pivots:
        return None
    solution = [ZERO] * ncols
    for row, col in enumerate(pivots):
        solution[col] = Scalar(reduced.getitem_sympy(row, ncols))
    return solution


def express_in_basis(target: Form, candidates: Sequence[Form]):
    """Scalar coefficients c with sum c_k * candidate_k == target, or None.

    Every candidate must share the target's context and degree; the
    coefficient match runs over all wedge monomials that occur.
    """
    monomials: list = sorted(
        set(target.terms) | {m for f in candidates for m in f.terms}
    )
    matrix = [
        [f.terms.get(m, ZERO) for f in candidates]
        for m in monomials
    ]
    rhs = [target.terms.get(m, ZERO) for m in monomials]
    if not monomials:
        return [ZERO] * len(candidates)
    return solve_linear(matrix, rhs)
