"""Adomian polynomial sequences.

``adomian_polynomials`` builds A_0..A_k for a nonlinearity N(x), defined
by the lambda expansion A_n = (1/n!) d^n/dlambda^n N(sum_i x_i lambda^i)
at lambda = 0, with Duan's recurrence (Appl. Math. Comput. 217 (2011)
6337-6348): A_0 = N(x_0), A_n = sum_{k=1}^{n} C(k, n) N^(k)(x_0), where
C(0, 0) = 1, C(0, n) = 0 for n >= 1 and

    C(k, n) = (1/n) sum_{j=0}^{n-k} (j+1) x_{j+1} C(k-1, n-1-j).

For orders <= 4 this reproduces the classical closed forms (A_0 = N(x_0),
A_1 = x_1 N'(x_0), ...).  The relativistic oscillator of ``ladm.solver`` is
the linear case N(x) = kappa x, whose sequence is A_m = kappa x_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import DomainError
from .series import TimePolynomial


@dataclass(frozen=True)
class AnalyticNonlinearity:
    """A scalar analytic nonlinearity N with derivatives on demand.

    ``deriv_fn(u, j)`` must return N^(j)(u); ``deriv_fn(u, 0)`` is N(u).
    """

    name: str
    deriv_fn: Callable[[float, int], float]

    def deriv(self, u: float, j: int) -> float:
        if j < 0:
            raise ValueError("derivative order must be >= 0")
        return self.deriv_fn(u, j)

    # common instances used throughout the tests and the generic solver

    @classmethod
    def power(cls, p: int) -> "AnalyticNonlinearity":
        """N(x) = x**p for integer p >= 1."""

        def d(u: float, j: int) -> float:
            if j > p:
                return 0.0
            return math.perm(p, j) * u ** (p - j)

        return cls(name=f"x^{p}", deriv_fn=d)

    @classmethod
    def exp(cls) -> "AnalyticNonlinearity":
        return cls(name="exp", deriv_fn=lambda u, j: math.exp(u))


@dataclass(frozen=True)
class AdomianSequence:
    """Ordered polynomials A_0..A_k."""

    polys: tuple[TimePolynomial, ...]

    def __len__(self) -> int:
        return len(self.polys)

    def __getitem__(self, n: int) -> TimePolynomial:
        return self.polys[n]


def _compose_derivatives(
    nonlin: AnalyticNonlinearity, x0: TimePolynomial, order: int, max_degree: int
) -> list[TimePolynomial]:
    """N^(k)(x0(t)) for k = 0..order, Taylor-expanded about x0(0) on one chain of powers."""
    c0 = x0.coeff(0)
    w = x0 - TimePolynomial.constant(c0)  # no constant term
    powers = [TimePolynomial.constant(1.0)]
    for _ in range(max_degree):
        if not (pw := powers[-1].mul_truncated(w, max_degree)):
            break
        powers.append(pw)
    return [TimePolynomial.sum(pw.scale(nonlin.deriv(c0, k + j) / math.factorial(j))
                               for j, pw in enumerate(powers)) for k in range(order + 1)]


def adomian_polynomials(
    nonlin: AnalyticNonlinearity,
    components: Sequence[TimePolynomial],
    order: int,
    max_degree: int,
) -> AdomianSequence:
    """Generic Adomian polynomials A_0..A_order for N(x) by Duan's recurrence.

    All products are truncated at max_degree in t.
    """
    if not components:
        raise DomainError("components must be non-empty")
    if not 0 <= order < len(components):
        raise DomainError(
            f"order {order} needs at least {order + 1} components, got {len(components)}"
        )
    g = _compose_derivatives(nonlin, components[0], order, max_degree)

    # c[k][n] = C(k, n), filled for each n in turn; C(0, 0) = 1, C(0, n) = 0.
    # Rows past the last nonzero N^(k)(x0) never reach an A_n.  Each C(k, n)
    # and A_n is one sum over its products, skipping the zero ones.
    top = max((k for k, gk in enumerate(g) if gk), default=0)
    c = [[TimePolynomial()] * (order + 1) for _ in range(order + 1)]
    c[0][0] = TimePolynomial.constant(1.0)
    polys = [g[0]]
    for n in range(1, order + 1):
        ks = range(1, min(n, top) + 1)
        for k in ks:
            xcs = ((components[j + 1], c[k - 1][n - 1 - j], (j + 1) / n) for j in range(n - k + 1))
            c[k][n] = TimePolynomial.sum(
                x.mul_truncated(prev, max_degree).scale(s) for x, prev, s in xcs if x and prev
            )
        gcs = ((g[k], c[k][n]) for k in ks)
        polys.append(TimePolynomial.sum(a.mul_truncated(b, max_degree) for a, b in gcs if a and b))
    return AdomianSequence(polys=tuple(polys))
