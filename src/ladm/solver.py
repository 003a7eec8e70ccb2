"""Series solutions of x'' + N(x) = 0 by the decomposition recurrence.

The recurrence is executed entirely in the time domain: on a factorial-
scaled monomial the transform round-trip that sends A_n to its double
primitive is exactly a degree shift by two, so

    x_0 = alpha + beta t,
    x_{n+1} = -double_integrate(A_n).

The relativistic oscillator, built by ``IVPSpec.oscillator(beta)``, is
the frozen-coefficient linear nonlinearity N(x) = kappa x with
kappa = (1 - beta^2)^(3/2) and runs through the same loop.  Its sequence
collapses to A_m = kappa x_m, which yields the closed component formula

    x_n = beta (-kappa)^n t^(2n+1) / (2n+1)!

``oscillator_series`` builds that directly; ``solve_ivp`` runs the
recurrence; the two must agree term for term.  A solution carries only its
components: the oscillator diagnostics ``tail_bound`` and ``residual`` take
beta and the term count, the only data they depend on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .adomian import AnalyticNonlinearity, adomian_polynomials
from .errors import DomainError
from .series import TimePolynomial

MAX_TERMS = 1000  # 1000 terms on a 2001-point grid take ~1 s to evaluate on a 2-core host


def oscillator_kappa(beta: float) -> float:
    """(1 - beta^2)^(3/2), the frozen velocity factor; requires 0 < beta < 1."""
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    return (1.0 - beta * beta) ** 1.5


@dataclass(frozen=True)
class IVPSpec:
    """Initial data x(0)=alpha, x'(0)=beta plus the nonlinearity N."""

    alpha: float
    beta: float
    nonlinearity: AnalyticNonlinearity

    def __post_init__(self) -> None:
        if not isinstance(self.nonlinearity, AnalyticNonlinearity):
            raise DomainError(f"not an AnalyticNonlinearity: {self.nonlinearity!r}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError(f"alpha and beta must be finite, got {self.alpha}, {self.beta}")

    @classmethod
    def oscillator(cls, beta: float) -> "IVPSpec":
        """x(0)=0, x'(0)=beta with the frozen linear N(x) = kappa x."""
        kappa = oscillator_kappa(beta)

        def d(u: float, j: int) -> float:
            return kappa * u if j == 0 else (kappa if j == 1 else 0.0)

        return cls(0.0, beta, AnalyticNonlinearity(name="relativistic-oscillator", deriv_fn=d))


@dataclass(frozen=True)
class SeriesSolution:
    """Ordered components x_0..x_{n_terms-1} of a series solution."""

    components: tuple[TimePolynomial, ...]

    @property
    def n_terms(self) -> int:
        return len(self.components)

    def partial_sum(self, k: int) -> TimePolynomial:
        """Sum of components 0..k (inclusive)."""
        if not 0 <= k < self.n_terms:
            raise IndexError(f"k must be in [0, {self.n_terms - 1}], got {k}")
        return TimePolynomial.sum(self.components[: k + 1])

    def full_sum(self) -> TimePolynomial:
        return self.partial_sum(self.n_terms - 1)

    def eval(self, t: float) -> float:
        return self.full_sum().eval(t)


def solve_ivp(spec: IVPSpec, n_terms: int) -> SeriesSolution:
    """Run the decomposition recurrence for n_terms components."""
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    max_degree = 2 * n_terms + 1
    x0 = TimePolynomial.from_dict({0: spec.alpha, 1: spec.beta})
    components = [x0]
    for n in range(n_terms - 1):
        a_n = adomian_polynomials(spec.nonlinearity, components, n, max_degree)[n]
        components.append(-a_n.double_integrate())
    return SeriesSolution(components=tuple(components))


def oscillator_series(beta: float, n_terms: int) -> SeriesSolution:
    """Closed-form oscillator components beta (-kappa)^n t^(2n+1)/(2n+1)!."""
    kappa = oscillator_kappa(beta)
    if not 1 <= n_terms <= MAX_TERMS:
        raise DomainError(f"n_terms must be in [1, {MAX_TERMS}], got {n_terms}")
    components = []
    coeff = beta
    for n in range(n_terms):
        components.append(TimePolynomial.monomial(2 * n + 1, coeff))
        coeff *= -kappa
    return SeriesSolution(components=tuple(components))


def series_frequency(beta: float) -> float:
    """Fundamental frequency (1 - beta^2)^(3/4) of the summed series."""
    return math.sqrt(oscillator_kappa(beta))


def tail_bound(beta: float, n_terms: int, t: float) -> float:
    """Alternating-series remainder bound for the n_terms oscillator series.

    Returns beta * kappa^n_terms * |t|^(2 n_terms + 1) / (2 n_terms + 1)!,
    the magnitude of the first omitted component.  It bounds the true
    truncation error once kappa t^2 < (2 n_terms + 2)(2 n_terms + 3), i.e.
    while the omitted terms still decrease; outside that range a warning
    is emitted and the returned value is not a rigorous bound.
    """
    kappa = oscillator_kappa(beta)
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    if kappa * t * t >= (2 * n_terms + 2) * (2 * n_terms + 3):
        warnings.warn(
            f"alternating-series condition fails at t={t}; bound not rigorous",
            stacklevel=2,
        )
    # |t|^(2n+1)/(2n+1)!, accumulated by ratios to avoid overflow
    return beta * kappa**n_terms * TimePolynomial.monomial(2 * n_terms + 1, 1.0).eval(abs(t))


def residual(beta: float, n_terms: int, t: float) -> float:
    """|x'' + (1 - x'^2)^(3/2) x| for the n_terms oscillator series at time t.

    Measured against the exact nonlinear oscillator equation, not the
    frozen-coefficient linearization the recurrence actually solves, so
    this reports the honest defect of the truncated series.
    """
    p = oscillator_series(beta, n_terms).full_sum()
    dp = p.derivative()
    x = p.eval(t)
    v = dp.eval(t)
    a = dp.derivative().eval(t)
    return abs(a + (1.0 - v * v) ** 1.5 * x)
