"""Exact linear solving over the rational-function coefficient field.

One elimination solves A z = b for every right-hand side b_1 .. b_k that
shares the matrix A.  Each row of [A | b_1 .. b_k] is a sparse map from
column to nonzero canonical Scalar.  Forward elimination takes pivots on
A's columns only, left to right, each in the first remaining row holding
it, and clears the pivot's column in the rows below.  So the pivot
columns are the leftmost independent ones, and the solution does not
depend on row order or on the other right-hand sides.
b_j is inconsistent exactly when a row past the last pivot row holds its
column; otherwise only its column is back-substituted, and non-pivot
unknowns are zero, the minimal-support choice under the declared column
order.  A membership check sends its targets of one degree through one
elimination.
"""

from __future__ import annotations

from typing import Sequence

from .coeff import Scalar, ZERO
from .forms import Form

__all__ = ["solve_linear", "express_in_basis"]


def solve_linear(matrix: Sequence[Sequence[Scalar]], columns: Sequence[Sequence[Scalar]]):
    """Solve A z = b for each right-hand side b in columns, in one forward
    elimination; returns one solution per column, a list of Scalars or
    None where that system is inconsistent.  Free unknowns are zero."""
    ncols = len(matrix[0]) if matrix else 0
    rows = [
        {j: c for j, c in enumerate(map(Scalar, [*row, *(b[i] for b in columns)])) if not c.is_zero}
        for i, row in enumerate(matrix)
    ]
    pivots: list = []  # (pivot column, pivot entry)
    for col in range(ncols):
        top = len(pivots)
        found = next((i for i in range(top, len(rows)) if col in rows[i]), None)
        if found is None:
            continue
        rows[top], rows[found] = rows[found], rows[top]
        # the pivot row holds nothing left of col and is not scaled: each row
        # below, and each solved unknown, divides by the pivot entry once
        lead = rows[top].pop(col)
        pivots.append((col, lead))
        for row in rows[top + 1:]:
            factor = row.pop(col, None)
            if factor is None:
                continue
            factor = factor / lead
            for j, p in rows[top].items():
                row[j] = value = row.get(j, ZERO) - factor * p
                if value.is_zero:
                    del row[j]
    solutions = []
    for k in range(ncols, ncols + len(columns)):
        if any(k in row for row in rows[len(pivots):]):
            solutions.append(None)
            continue
        solved: dict = {}  # pivot column -> its nonzero value, last pivot first
        for row, (col, lead) in zip(reversed(rows[:len(pivots)]), reversed(pivots)):
            value = row.get(k, ZERO)
            for j in solved.keys() & row.keys():
                value = value - row[j] * solved[j]
            if not value.is_zero:
                solved[col] = value / lead
        solutions.append([solved.get(col, ZERO) for col in range(ncols)])
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
