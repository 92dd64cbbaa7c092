"""Exact linear solving over the rational-function coefficient field.

The augmented matrix [A | b] is brought to reduced row echelon form by
Gauss-Jordan elimination on canonical Scalars, taking columns left to
right, so the pivot columns are the leftmost independent ones and the
solution does not depend on row order.  A pivot in the augmented column
means the system is inconsistent.  Underdetermined systems return the
solution with all non-pivot unknowns set to zero, which is the
minimal-support choice under the declared column order.
"""

from __future__ import annotations

from typing import Sequence

from .coeff import Scalar, ONE, ZERO
from .forms import Form

__all__ = ["solve_linear", "express_in_basis"]


def solve_linear(matrix: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]):
    """Solve A z = b exactly; returns a list of Scalars or None if
    inconsistent.  Free unknowns are set to zero."""
    ncols = len(matrix[0]) if matrix else 0
    rows = [[Scalar(c) for c in row] + [Scalar(b)] for row, b in zip(matrix, rhs)]
    pivots: list = []
    for col in range(ncols + 1):
        top = len(pivots)
        found = next((i for i in range(top, len(rows)) if not rows[i][col].is_zero), None)
        if found is None:
            continue
        if col == ncols:
            return None
        rows[top], rows[found] = rows[found], rows[top]
        # the pivot row is zero left of col, so only the rest is scaled and cleared
        inverse = ONE / rows[top][col]
        pivot = [c * inverse for c in rows[top][col:]]
        rows[top] = rows[top][:col] + pivot
        for i, row in enumerate(rows):
            factor = row[col]
            if i != top and not factor.is_zero:
                rows[i] = row[:col] + [
                    a if p.is_zero else a - factor * p for a, p in zip(row[col:], pivot)
                ]
        pivots.append(col)
    solution = [ZERO] * ncols
    for row, col in zip(rows, pivots):
        solution[col] = row[ncols]
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
