"""Density recursion and certified conservation checks."""

from __future__ import annotations

import pytest
import sympy as sp

from prolong.coeff import Scalar, ZERO, substitute, sym
from prolong.conservation import (
    ConservedPair,
    conserved_pairs,
    recursion_densities,
    recursion_residual,
    verify_conservation,
)
from prolong.jets import EvolutionSystem, jet
from prolong.su2 import AKNSSpec

from sympy_bridge import from_sympy


@pytest.fixture(scope="module")
def symbolic_spec():
    return AKNSSpec(
        name="symbolic",
        deps=("q", "r"),
        r=sym(jet("r")),
        q=sym(jet("q")),
        A=ZERO,
        B=ZERO,
        C=ZERO,
    )


def test_first_three_densities(symbolic_spec):
    seq = recursion_densities(symbolic_spec, 3)
    r, rx, rxx, q = sym(jet("r")), sym(jet("r", 1)), sym(jet("r", 2)), sym(jet("q"))
    assert seq.w(1) == Scalar(r)
    assert seq.w(2) == Scalar(-rx / 2)
    assert seq.w(3) == Scalar(rxx / 4 - q * r**2 / 2)


def test_recursion_residual_vanishes_through_eight(symbolic_spec):
    seq = recursion_densities(symbolic_spec, 9)
    for n in range(1, 9):
        assert recursion_residual(seq, n).is_zero


def test_density_jet_order_grows_by_one(symbolic_spec):
    seq = recursion_densities(symbolic_spec, 6)
    from prolong.jets import jet_order

    for n in range(1, 7):
        assert jet_order(seq.w(n), ("q", "r")) <= n - 1


def test_scaling_invariance_of_densities(symbolic_spec):
    # r -> lam*r, q -> q/lam leaves q*W_n invariant for every n
    lam = sym("lam")
    seq = recursion_densities(symbolic_spec, 6)
    scale = {}
    for name in set().union(*(w.free_symbols() for w in seq.densities)):
        if name.startswith("r"):
            scale[name] = lam * sym(name)
        elif name.startswith("q"):
            scale[name] = sym(name) / lam
    for n in range(1, 7):
        density = symbolic_spec.q * seq.w(n)
        assert substitute(density, scale) == density


def test_currents_vanish_without_time_part(symbolic_spec):
    pairs = conserved_pairs(symbolic_spec, 4)
    for pair in pairs:
        assert pair.current.is_zero
        assert pair.density == symbolic_spec.q * recursion_densities(symbolic_spec, 4).w(pair.n)


def test_current_without_eta_content():
    # with B = 0 and A eta-free there is no eta^(-n) source at all
    spec = AKNSSpec(
        name="plain", deps=("q",), r=Scalar(-1), q=sym(jet("q")),
        A=sym(jet("q")), B=ZERO, C=ZERO,
    )
    for pair in conserved_pairs(spec, 3):
        assert pair.current.is_zero
        # B = 0 has no eta coefficients, so no density feeds the current
        assert pair.eta_trace == ()


def test_verify_linear_density():
    u, uxx = sym(jet("u")), sym(jet("u", 2))
    sys = EvolutionSystem({"u_t": sym(jet("u", 3))})
    pair = ConservedPair(n=1, density=Scalar(u), current=Scalar(uxx), eta_trace=())
    cert = verify_conservation(pair, sys)
    assert cert.ok
    assert cert.residual.is_zero


def test_verify_quadratic_density_up_to_exact_terms():
    u = sym(jet("u"))
    sys = EvolutionSystem({"u_t": sym(jet("u", 3))})
    # D_t(u^2) = 2 u u_xxx = D_x(2 u u_xx - u_x^2); current left at zero
    pair = ConservedPair(n=1, density=Scalar(u**2), current=ZERO, eta_trace=())
    cert = verify_conservation(pair, sys)
    assert cert.ok
    assert not cert.residual.is_zero  # nonzero but a total x-derivative


def test_verify_failure_carries_witness():
    u, ux = sym(jet("u")), sym(jet("u", 1))
    sys = EvolutionSystem({"u_t": sym(jet("u", 3))})
    pair = ConservedPair(n=1, density=Scalar(u**3), current=ZERO, eta_trace=())
    cert = verify_conservation(pair, sys)
    assert not cert.ok
    assert cert.witnesses and not cert.witnesses["u"].is_zero


def test_current_perturbation_cannot_flip_certification(kdv_spec, kdv_system):
    # the flux convention accepts any exact remainder, so adding a jet
    # polynomial to the current never changes the verdict
    pair = conserved_pairs(kdv_spec, 1)[0]
    bumped = ConservedPair(
        n=pair.n,
        density=pair.density,
        current=pair.current + sym(jet("q", 1)) ** 2,
        eta_trace=pair.eta_trace,
    )
    assert verify_conservation(pair, kdv_system).ok
    assert verify_conservation(bumped, kdv_system).ok


def test_kdv_densities_and_currents(kdv_spec):
    seq = recursion_densities(kdv_spec, 5)
    q, qx, qxx = sym(jet("q")), sym(jet("q", 1)), sym(jet("q", 2))
    assert seq.w(1) == Scalar(-1)
    assert seq.w(2).is_zero
    assert seq.w(3) == Scalar(-q / 2)
    assert seq.w(4) == Scalar(qx / 4)
    assert seq.w(5) == Scalar(-(q**2) / 2 - qxx / 8)
    pairs = conserved_pairs(kdv_spec, 1)
    assert pairs[0].current == Scalar(qxx + 4 * q**2)
    assert pairs[0].eta_trace == ((0, 1), (1, 2), (2, 3))


def test_kdv_certified_through_four(kdv_spec, kdv_system):
    for pair in conserved_pairs(kdv_spec, 4):
        assert verify_conservation(pair, kdv_system).ok


def test_kdv_seed_defect_at_five(kdv_spec, kdv_system):
    # the printed seed W_1 = r makes the fifth density fail the exactness
    # certificate; the witness is pinned from an independent computation
    pair = conserved_pairs(kdv_spec, 5)[4]
    cert = verify_conservation(pair, kdv_system)
    assert not cert.ok
    qx, qxx = sym(jet("q", 1)), sym(jet("q", 2))
    assert cert.witnesses["q"] == from_sympy(sp.Rational(-9, 2)) * qx * qxx


def test_halved_seed_restores_conservation(kdv_spec, kdv_system):
    # rerunning the same recursion from r/2 (the seed that actually solves
    # the x-part of the projective flow) certifies all five densities
    s = kdv_spec
    halved = AKNSSpec(s.name, s.deps, s.r * from_sympy(sp.Rational(1, 2)), s.q, s.A, s.B, s.C)
    seq = recursion_densities(halved, 5)
    for n in range(1, 6):
        pair = ConservedPair(
            n=n, density=kdv_spec.q * seq.w(n), current=ZERO, eta_trace=()
        )
        assert verify_conservation(pair, kdv_system).ok
