"""Exact linear solving: forward elimination on sparse rows of Scalars,
then back-substitution of the right-hand sides."""

from __future__ import annotations

import itertools

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from prolong import coeff
from prolong.coeff import I, ONE, ZERO, Scalar, sym
from prolong.linsolve import express_in_basis, solve_linear
from prolong.forms import DerivationContext

from gaussian_pool import digest, system as gaussian_system
from sympy_bridge import to_sympy

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
    [z] = solve_linear(matrix, [rhs])
    assert z == [1, 3]
    assert solves(matrix, rhs, z)


def test_underdetermined_sets_free_unknowns_to_zero():
    # column 1 is twice column 0, so the pivots are columns 0 and 2
    matrix = [[1, 2, 0, 1], [q, 2 * q, 1, 0]]
    rhs = [3, u]
    [z] = solve_linear(matrix, [rhs])
    assert z == [3, 0, u - 3 * q, 0]
    assert solves(matrix, rhs, z)
    # with the columns declared in another order the pivots move with them
    swapped = [[row[1], row[0], row[2], row[3]] for row in matrix]
    [z] = solve_linear(swapped, [rhs])
    assert z == [Scalar.rational(3, 2), 0, u - 3 * q, 0]
    assert solves(swapped, rhs, z)


def test_inconsistent_system_returns_none():
    assert solve_linear([[1, q], [2, 2 * q]], [[1, 3]]) == [None]
    assert solve_linear([[0, 0]], [[u]]) == [None]


def test_all_zero_system():
    [z] = solve_linear([[0, 0, 0], [0, 0, 0]], [[0, 0]])
    assert z == [ZERO, ZERO, ZERO]
    assert solve_linear([], [[]]) == [[]]


def test_more_rows_than_columns():
    matrix = [[1, 0], [0, 1], [1, 1], [q, u]]
    rhs = [u, q, u + q, 2 * q * u]
    [z] = solve_linear(matrix, [rhs])
    assert z == [u, q]
    assert solves(matrix, rhs, z)
    rhs[3] = q * u
    assert solve_linear(matrix, [rhs]) == [None]


def test_non_monomial_denominator_and_imaginary_unit():
    w = ONE / (beta * (q - u))
    matrix = [[w, I], [1, w]]
    rhs = [I * w + 1, q]
    [z] = solve_linear(matrix, [rhs])
    assert solves(matrix, rhs, z)
    det = w * w - I
    assert z == [(rhs[0] * w - I * rhs[1]) / det, (w * rhs[1] - rhs[0]) / det]


def test_row_order_does_not_change_the_solution():
    w = ONE / (beta * (q - u))
    matrix = [[w, 1, 0, I], [0, q, 1, 0], [w, 1 + q, 1, I], [1, 0, u, 0]]
    rhs = [u, 1, u + 1, w]
    [z] = solve_linear(matrix, [rhs])
    assert z is not None and solves(matrix, rhs, z)
    for order in itertools.permutations(range(4)):
        permuted = solve_linear([matrix[i] for i in order], [[rhs[i] for i in order]])
        assert permuted == [z]


def test_express_in_basis():
    ctx = DerivationContext(scalars=("x", "t", "u", "q"))
    dx, dt = ctx.gen("dx"), ctx.gen("dt")
    target = dx * q + dt * (u + 1)
    assert express_in_basis([target], [dx, dt, dx + dt]) == [[q, u + 1, ZERO]]
    assert express_in_basis([dx], [dt]) == [None]
    assert express_in_basis([ctx.zero(1)], [dx]) == [[ZERO]]


# Entries with i, rationals and monomial denominators, zero weighted up so
# that ranks fall short.  Dense non-monomial denominators stay out: their
# gcds can take tens of seconds per system.
POOL = (ZERO,) * 6 + (
    ONE, -ONE, Scalar(2), Scalar.rational(1, 2), Scalar.rational(-3, 4), I, q, u, ONE / q, I / u,
)


@st.composite
def _systems(draw):
    """(A, right-hand sides): m in [2, 4] rows, n in [2, 5] columns, k in
    [1, 4] columns b, each A z for a drawn z, some with one entry perturbed."""
    entries = st.sampled_from(POOL)
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    matrix = [[draw(entries) for _ in range(n)] for _ in range(m)]
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        z = [draw(entries) for _ in range(n)]
        b = [sum((a * x for a, x in zip(row, z)), ZERO) for row in matrix]
        if draw(st.booleans()):
            b[draw(st.integers(0, m - 1))] += draw(entries)
        columns.append(b)
    return matrix, columns


@settings(max_examples=60)
@given(_systems())
def test_each_right_hand_side_solves_as_if_alone(system):
    matrix, columns = system
    m, n = len(matrix), len(matrix[0])
    # the oracle: b is inconsistent exactly when rank [A | b] > rank A
    oracle = DomainMatrix.from_Matrix(sp.Matrix(
        [[to_sympy(c) for c in row] + [to_sympy(b[i]) for b in columns] for i, row in enumerate(matrix)]
    ))
    rank = oracle.extract(range(m), range(n)).rank()
    for k, (b, z) in enumerate(zip(columns, solve_linear(matrix, columns))):
        assert solve_linear(matrix, [b]) == [z]
        inconsistent = oracle.extract(range(m), [*range(n), n + k]).rank() > rank
        assert (z is None) == inconsistent
        assert z is None or solves(matrix, b, z)


# Digests of the solutions of dense Gaussian systems drawn by
# tests/gaussian_pool.py, recorded with Gauss-Jordan elimination; the
# subresultant remainder sequence alone gives the same ones.  Seed 20 is
# inconsistent; seeds 11, 16 and 24 are 3x5 and 4x5.
GAUSSIAN_POOL_DIGESTS = {
    0: "d66bbac55784d4b3", 3: "f693632fe5236f9f", 7: "b27270afd32bc8a3", 9: "a121e47afac37daf",
    11: "aeaeba823ae562b1", 12: "2f7b554f2b3ad4c8", 13: "2ac2562d8b5e3c8f",
    16: "d7d204b3aca9a43a", 18: "0dc7fcfb9cebb746", 20: "36d191123f58c5e8",
    21: "79243bee1e4f97c6", 24: "c492e198141b1559",
}


@pytest.mark.parametrize("seed", sorted(GAUSSIAN_POOL_DIGESTS))
def test_dense_gaussian_systems_solve_without_the_prs(seed, monkeypatch):
    def refuse(f, g):
        raise AssertionError("the heuristic gcd failed and _cofactors fell back to the PRS")

    monkeypatch.setattr(coeff, "_prs_gcd", refuse)
    matrix, rhs = gaussian_system(seed)
    [z] = solve_linear(matrix, [rhs])
    assert digest(z) == GAUSSIAN_POOL_DIGESTS[seed]
    assert z is None or solves(matrix, rhs, z)
