"""Recursive conserved densities and certified conservation checks.

The density polynomials W_n follow the quadratic recursion seeded by the
lower-left family coefficient,

    W_1 = r,    W_{n+1} = -(W_{n,x} + q * sum_{k=1}^{n-1} W_{n-k} W_k) / 2,

the n-th density is q*W_n, and the matching current is read off the
spectral expansion of the time part A + B * sum eta^{-m} W_m.  A pair is
certified conserved when D_t(density) - D_x(current), reduced modulo the
evolution system, is a total x-derivative (variational-derivative test).
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff import Scalar, ZERO, eta_coefficients
from .jets import (
    EvolutionSystem,
    TotalDerivativeCertificate,
    is_total_x_derivative,
    jet_order,
    reduce_mod_evolution,
    total_derivative,
)
from .su2 import AKNSSpec

__all__ = [
    "DensitySequence",
    "recursion_densities",
    "recursion_residual",
    "ConservedPair",
    "conserved_pairs",
    "ConservationCertificate",
    "verify_conservation",
]


@dataclass(frozen=True)
class DensitySequence:
    spec: AKNSSpec
    order: int
    densities: tuple  # W_1 .. W_order

    def w(self, n: int) -> Scalar:
        if n == 0:
            return ZERO
        return self.densities[n - 1]

    @property
    def peak_jet_order(self) -> int:
        return max(jet_order(w, self.spec.deps) for w in self.densities)


def recursion_densities(spec: AKNSSpec, order: int) -> DensitySequence:
    if order < 1:
        raise ValueError("order must be at least 1")
    deps = spec.deps
    w = [spec.r]
    for n in range(1, order):
        quad = ZERO
        for k in range(1, n):
            quad = quad + w[n - k - 1] * w[k - 1]
        nxt = (total_derivative(w[n - 1], "x", deps) + spec.q * quad) * Scalar.rational(-1, 2)
        w.append(nxt)
    return DensitySequence(spec=spec, order=order, densities=tuple(w))


def recursion_residual(seq: DensitySequence, n: int) -> Scalar:
    """W_{n,x} + 2 W_{n+1} + q * sum_{k=1}^{n-1} W_{n-k} W_k; zero when the
    recursion was applied exactly."""
    if not 1 <= n < seq.order:
        raise ValueError(f"need 1 <= n < {seq.order}")
    quad = ZERO
    for k in range(1, n):
        quad = quad + seq.w(n - k) * seq.w(k)
    return (
        total_derivative(seq.w(n), "x", seq.spec.deps)
        + 2 * seq.w(n + 1)
        + seq.spec.q * quad
    )


@dataclass(frozen=True)
class ConservedPair:
    n: int
    density: Scalar
    current: Scalar
    eta_trace: tuple  # (eta exponent of the family coefficient, density index)


def conserved_pairs(spec: AKNSSpec, order: int) -> tuple:
    """Density q*W_n with the current from the eta^(-n) coefficient of the
    time-part expansion A + B * sum_m eta^(-m) W_m."""
    a_coeffs = eta_coefficients(spec.A)
    b_coeffs = eta_coefficients(spec.B)
    seq = recursion_densities(spec, order + max(max(b_coeffs, default=0), 0))
    out = []
    for n in range(1, order + 1):
        current = a_coeffs.get(-n, ZERO)
        trace = []
        for j, b_j in b_coeffs.items():
            m = n + j
            if m >= 1:
                current = current + b_j * seq.w(m)
                trace.append((j, m))
        out.append(
            ConservedPair(
                n=n,
                density=spec.q * seq.w(n),
                current=current,
                eta_trace=tuple(trace),
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class ConservationCertificate:
    pair: ConservedPair
    residual: Scalar  # reduced D_t(density) - D_x(current)
    exactness: TotalDerivativeCertificate

    @property
    def ok(self) -> bool:
        return self.exactness.ok

    @property
    def peak_jet_order(self) -> int:
        return self.exactness.peak_jet_order

    @property
    def witnesses(self) -> tuple:
        return self.exactness.witnesses

    def witness(self, var: str) -> Scalar:
        return self.exactness.witness(var)


def verify_conservation(pair: ConservedPair, sys: EvolutionSystem) -> ConservationCertificate:
    """Certify D_t(density) - D_x(current) as a total x-derivative modulo
    the evolution system; a total derivative is accepted, not only zero,
    since currents are fixed only up to exact terms."""
    sys = EvolutionSystem.of(sys)
    deps = sys.deps
    d_t = total_derivative(pair.density, "t", deps)
    residual = reduce_mod_evolution(d_t, sys) - total_derivative(pair.current, "x", deps)
    certificate = is_total_x_derivative(residual, deps)
    return ConservationCertificate(pair=pair, residual=residual, exactness=certificate)
