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


def _compose_derivative(
    nonlin: AnalyticNonlinearity, k: int, x0: TimePolynomial, max_degree: int
) -> TimePolynomial:
    """N^(k)(x0(t)) as a TimePolynomial, Taylor-expanded about x0(0)."""
    c0 = x0.coeff(0)
    w = x0 - TimePolynomial.constant(c0)  # no constant term
    result = TimePolynomial.constant(nonlin.deriv(c0, k))
    pw = TimePolynomial.constant(1.0)
    for j in range(1, max_degree + 1):
        pw = pw.mul_truncated(w, max_degree)
        if not pw:
            break
        result = result + pw.scale(nonlin.deriv(c0, k + j) / math.factorial(j))
    return result


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
    x0 = components[0]

    # N^(k)(x0) for k = 0..order, as truncated series in t
    g = [_compose_derivative(nonlin, k, x0, max_degree) for k in range(order + 1)]

    # c[k][n] = C(k, n), filled for each n in turn; C(0, 0) = 1, C(0, n) = 0.
    # Rows past the last nonzero N^(k)(x0) never reach an A_n.
    top = max((k for k, gk in enumerate(g) if gk), default=0)
    zero = TimePolynomial.zero()
    c = [[zero] * (order + 1) for _ in range(order + 1)]
    c[0][0] = TimePolynomial.constant(1.0)
    polys = [g[0]]
    for n in range(1, order + 1):
        a_n = zero
        for k in range(1, min(n, top) + 1):
            for j in range(n - k + 1):
                x, prev = components[j + 1], c[k - 1][n - 1 - j]
                if x and prev:
                    c[k][n] = c[k][n] + x.mul_truncated(prev, max_degree).scale((j + 1) / n)
            if g[k] and c[k][n]:
                a_n = a_n + g[k].mul_truncated(c[k][n], max_degree)
        polys.append(a_n)
    return AdomianSequence(polys=tuple(polys))

