"""Exact linear solving over the rational-function coefficient field.

One elimination solves A z = b for every right-hand side b_1 .. b_k that
shares the matrix A: [A | b_1 .. b_k] is brought to reduced row echelon
form by Gauss-Jordan elimination on canonical Scalars, taking pivots on
A's columns only, left to right, so the pivot columns are the leftmost
independent ones and the solution does not depend on row order or on the
other right-hand sides.  b_j is inconsistent exactly when its column is
nonzero in a row past the last pivot row.  Underdetermined systems
return the solution with all non-pivot unknowns set to zero, which is
the minimal-support choice under the declared column order.  An ideal
membership check sends all its targets of one degree through one
elimination.
"""

from __future__ import annotations

from typing import Sequence

from .coeff import Scalar, ONE, ZERO
from .forms import Form

__all__ = ["solve_linear", "express_in_basis"]


def solve_linear(matrix: Sequence[Sequence[Scalar]], columns: Sequence[Sequence[Scalar]]):
    """Solve A z = b for each right-hand side b in columns, in one
    elimination; returns one solution per column, a list of Scalars or
    None where that system is inconsistent.  Free unknowns are zero."""
    ncols = len(matrix[0]) if matrix else 0
    rows = [
        [Scalar(c) for c in row] + [Scalar(b[i]) for b in columns]
        for i, row in enumerate(matrix)
    ]
    pivots: list = []
    for col in range(ncols):
        top = len(pivots)
        found = next((i for i in range(top, len(rows)) if not rows[i][col].is_zero), None)
        if found is None:
            continue
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
    solutions = []
    for k in range(ncols, ncols + len(columns)):
        if any(not row[k].is_zero for row in rows[len(pivots):]):
            solutions.append(None)
            continue
        solution = [ZERO] * ncols
        for row, col in zip(rows, pivots):
            solution[col] = row[k]
        solutions.append(solution)
    return solutions


def express_in_basis(targets: Sequence[Form], candidates: Sequence[Form]):
    """Per target, Scalar coefficients c with sum c_k * candidate_k ==
    target, or None; one elimination serves every target.

    Every target and candidate must share one context and degree; the
    coefficient match runs over all wedge monomials that occur.
    """
    monomials: list = sorted(
        {m for f in (*targets, *candidates) for m in f.terms}
    )
    if not monomials:
        return [[ZERO] * len(candidates) for _ in targets]
    matrix = [[f.terms.get(m, ZERO) for f in candidates] for m in monomials]
    columns = [[f.terms.get(m, ZERO) for m in monomials] for f in targets]
    return solve_linear(matrix, columns)
