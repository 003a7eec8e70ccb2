"""Adomian polynomial sequences.

``adomian_polynomials`` builds A_0..A_k for a nonlinearity N(x), defined
by the lambda expansion A_n = (1/n!) d^n/dlambda^n N(sum_i x_i lambda^i)
at lambda = 0, with Duan's recurrence (Appl. Math. Comput. 217 (2011)
6337-6348): A_0 = N(x_0), A_n = sum_{k=1}^{n} C(k, n) N^(k)(x_0), where
C(0, 0) = 1, C(0, n) = 0 for n >= 1 and

    C(k, n) = (1/n) sum_{j=0}^{n-k} (j+1) x_{j+1} C(k-1, n-1-j).

Each thread keeps the table of its last call, keyed by (N, x_0, max_degree)
compared with ==.  C(k, n) depends on x_1..x_n alone and A_n on x_0..x_n,
so a call cuts the table back to its first component that differs from the
call's and extends it by the orders it lacks: the n orders of one
``solve_ivp`` make each N^(k)(x_0), C(k, n) and A_n once.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import DomainError
from .series import TimePolynomial


@dataclass(frozen=True)
class AnalyticNonlinearity:
    """A scalar analytic nonlinearity N with derivatives on demand.

    ``deriv_fn(u, j)`` must return N^(j)(u), so N(u) at j = 0, the same for the same (u, j).
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
        """N(x) = x**p for integer p >= 0."""
        if not isinstance(p, numbers.Integral) or p < 0:
            raise DomainError(f"power needs an integer p >= 0, got {p!r}")

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


class _DuanTable:
    """Duan's recurrence for one (N, x_0, max_degree); each entry is made once, on first need."""

    def __init__(self, nonlin: AnalyticNonlinearity, x0: TimePolynomial, max_degree: int):
        self.key = (nonlin, x0, max_degree)
        w = x0 - TimePolynomial.constant(x0.coeff(0))  # no constant term
        self.powers = powers = [TimePolynomial.constant(1.0)]
        while len(powers) <= max_degree and (pw := powers[-1].mul_truncated(w, max_degree)):
            powers.append(pw)
        self.xs, self.g, self.c = [x0], [], [{0: TimePolynomial.constant(1.0)}]  # c[n][k] = C(k, n)
        self.a = [self.deriv(0)]  # A_0..A_n

    def deriv(self, k: int) -> TimePolynomial:
        """N^(k)(x_0(t)), Taylor-expanded about x_0(0) on the powers of x_0 - x_0(0)."""
        nonlin, c0 = self.key[0], self.key[1].coeff(0)
        while (j0 := len(self.g)) <= k:
            self.g.append(TimePolynomial.sum(pw.scale(nonlin.deriv(c0, j0 + j) / math.factorial(j))
                                             for j, pw in enumerate(self.powers)))
        return self.g[k]

    def coeff(self, k: int, n: int) -> TimePolynomial:
        """C(k, n) as one sum over its nonzero products."""
        if k not in (col := self.c[n]):
            col[k] = TimePolynomial.sum(
                x.mul_truncated(prev, self.key[2]).scale((j + 1) / n) for j in range(n - k + 1)
                if (x := self.xs[j + 1]) and (prev := self.coeff(k - 1, n - 1 - j)))
        return col[k]

    def extend(self, components: Sequence[TimePolynomial], order: int) -> list[TimePolynomial]:
        """A_0..A_order, after cutting back to the first x_i that differs from ``components``."""
        diff = (i for i in range(1, min(len(self.xs), order + 1)) if self.xs[i] != components[i])
        del self.xs[(i := next(diff, len(self.xs))):], self.c[i:], self.a[i:]
        self.xs += components[len(self.xs) : order + 1]
        self.c += ({0: TimePolynomial()} for _ in range(len(self.c), len(self.xs)))  # C(0, n) = 0
        for n in range(len(self.a), order + 1):
            self.a.append(TimePolynomial.sum(g.mul_truncated(c, self.key[2]) for k in range(1, n + 1)
                                             if (g := self.deriv(k)) and (c := self.coeff(k, n))))
        return self.a[: order + 1]


_tables = threading.local()  # the last _DuanTable of each thread


def adomian_polynomials(
    nonlin: AnalyticNonlinearity,
    components: Sequence[TimePolynomial],
    order: int,
    max_degree: int,
) -> AdomianSequence:
    """A_0..A_order for N(x) by Duan's recurrence, every product truncated at max_degree in t."""
    if not 0 <= order < len(components) or max_degree < 0:
        raise DomainError(f"need 0 <= order < len(components) = {len(components)} and "
                          f"max_degree >= 0, got order {order} and max_degree {max_degree}")
    table = getattr(_tables, "table", None)
    if table is None or table.key != (nonlin, components[0], max_degree):
        table = _tables.table = _DuanTable(nonlin, components[0], max_degree)
    return AdomianSequence(polys=tuple(table.extend(components, order)))
