"""Exact linear solving: reduced row echelon form on Scalars."""

from __future__ import annotations

import itertools

from prolong.coeff import I, ONE, ZERO, Scalar, sym
from prolong.linsolve import express_in_basis, solve_linear
from prolong.forms import DerivationContext

beta, q, u = sym("beta"), sym("q"), sym("u")


def solves(matrix, rhs, z) -> bool:
    """A z == b, by re-multiplying."""
    for row, b in zip(matrix, rhs):
        total = ZERO
        for a, x in zip(row, z):
            total = total + a * x
        if total != b:
            return False
    return True


def test_unique_solution():
    matrix = [[2, 1], [1, 3]]
    rhs = [5, 10]
    z = solve_linear(matrix, rhs)
    assert z == [1, 3]
    assert solves(matrix, rhs, z)


def test_underdetermined_sets_free_unknowns_to_zero():
    # column 1 is twice column 0, so the pivots are columns 0 and 2
    matrix = [[1, 2, 0, 1], [q, 2 * q, 1, 0]]
    rhs = [3, u]
    z = solve_linear(matrix, rhs)
    assert z == [3, 0, u - 3 * q, 0]
    assert solves(matrix, rhs, z)
    # with the columns declared in another order the pivots move with them
    swapped = [[row[1], row[0], row[2], row[3]] for row in matrix]
    z = solve_linear(swapped, rhs)
    assert z == [Scalar.rational(3, 2), 0, u - 3 * q, 0]
    assert solves(swapped, rhs, z)


def test_inconsistent_system_returns_none():
    assert solve_linear([[1, q], [2, 2 * q]], [1, 3]) is None
    assert solve_linear([[0, 0]], [u]) is None


def test_all_zero_system():
    z = solve_linear([[0, 0, 0], [0, 0, 0]], [0, 0])
    assert z == [ZERO, ZERO, ZERO]
    assert solve_linear([], []) == []


def test_more_rows_than_columns():
    matrix = [[1, 0], [0, 1], [1, 1], [q, u]]
    rhs = [u, q, u + q, 2 * q * u]
    z = solve_linear(matrix, rhs)
    assert z == [u, q]
    assert solves(matrix, rhs, z)
    rhs[3] = q * u
    assert solve_linear(matrix, rhs) is None


def test_non_monomial_denominator_and_imaginary_unit():
    w = ONE / (beta * (q - u))
    matrix = [[w, I], [1, w]]
    rhs = [I * w + 1, q]
    z = solve_linear(matrix, rhs)
    assert solves(matrix, rhs, z)
    det = w * w - I
    assert z == [(rhs[0] * w - I * rhs[1]) / det, (w * rhs[1] - rhs[0]) / det]


def test_row_order_does_not_change_the_solution():
    w = ONE / (beta * (q - u))
    matrix = [[w, 1, 0, I], [0, q, 1, 0], [w, 1 + q, 1, I], [1, 0, u, 0]]
    rhs = [u, 1, u + 1, w]
    z = solve_linear(matrix, rhs)
    assert z is not None and solves(matrix, rhs, z)
    for order in itertools.permutations(range(4)):
        permuted = solve_linear([matrix[i] for i in order], [rhs[i] for i in order])
        assert permuted == z


def test_express_in_basis():
    ctx = DerivationContext(scalars=("x", "t", "u", "q")).freeze()
    dx, dt = ctx.gen("dx"), ctx.gen("dt")
    target = dx * q + dt * (u + 1)
    assert express_in_basis(target, [dx, dt, dx + dt]) == [q, u + 1, ZERO]
    assert express_in_basis(dx, [dt]) is None
    assert express_in_basis(ctx.zero(1), [dx]) == [ZERO]
