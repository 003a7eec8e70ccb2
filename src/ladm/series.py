"""Sparse truncated power series in time with factorial-scaled coefficients.

A :class:`TimePolynomial` stores pairs (k, c_k) representing the sum

    p(t) = sum_k  c_k * t**k / k!

Storing the coefficient of ``t**k / k!`` instead of ``t**k`` keeps every
stored value O(1) for the series handled here and turns repeated
integration/differentiation from zero into pure degree shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping


def _canonical(pairs: Iterable[tuple[int, float]]) -> tuple[tuple[int, float], ...]:
    acc: dict[int, float] = {}
    for k, c in pairs:
        if k < 0:
            raise ValueError(f"negative degree {k}")
        acc[k] = acc.get(k, 0.0) + float(c)
    # drop exact zeros only; epsilon pruning would silently change tail bounds
    return tuple(sorted((k, c) for k, c in acc.items() if c != 0.0))


@dataclass(frozen=True)
class TimePolynomial:
    """Immutable sparse polynomial sum_k c_k * t^k / k!."""

    terms: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", _canonical(self.terms))

    # -- constructors -------------------------------------------------

    @classmethod
    def _made(cls, terms: tuple[tuple[int, float], ...]) -> "TimePolynomial":
        """Wrap terms already canonical (ascending unique degrees, float coefficients, no 0.0)."""
        object.__setattr__(p := object.__new__(cls), "terms", terms)
        return p

    @classmethod
    def from_dict(cls, coeffs: Mapping[int, float]) -> "TimePolynomial":
        return cls(tuple(coeffs.items()))

    @classmethod
    def sum(cls, polys: Iterable["TimePolynomial"]) -> "TimePolynomial":
        """p0 + p1 + ... in one construction, bit for bit: _canonical adds left to right."""
        return cls(tuple(term for p in polys for term in p.terms))

    @classmethod
    def constant(cls, c: float) -> "TimePolynomial":
        return cls(((0, c),))

    @classmethod
    def monomial(cls, degree: int, scaled_coeff: float) -> "TimePolynomial":
        """The single term scaled_coeff * t^degree / degree!."""
        return cls(((degree, scaled_coeff),))

    # -- accessors ----------------------------------------------------

    @property
    def max_degree(self) -> int:
        """Highest stored degree; -1 for the zero polynomial."""
        return self.terms[-1][0] if self.terms else -1

    def coeff(self, degree: int) -> float:
        """Scaled coefficient c_degree (0.0 if absent)."""
        return dict(self.terms).get(degree, 0.0)

    def as_dict(self) -> dict[int, float]:
        return dict(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- evaluation ---------------------------------------------------

    def eval(self, t):
        """Evaluate at t (a float or an array), accumulating t^k/k! by term ratios t/k."""
        total = 0.0
        power = 1.0  # running t^k / k!
        last_k = 0
        for k, c in self.terms:
            for j in range(last_k + 1, k + 1):
                power *= t / j
            last_k = k
            total += c * power
        return total

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "TimePolynomial") -> "TimePolynomial":
        return TimePolynomial(self.terms + other.terms)

    def scale(self, s: float) -> "TimePolynomial":
        s = float(s)
        return TimePolynomial._made(tuple((k, p) for k, c in self.terms if (p := c * s) != 0.0))

    def __neg__(self) -> "TimePolynomial":
        return self.scale(-1.0)

    def __sub__(self, other: "TimePolynomial") -> "TimePolynomial":
        return self + other.scale(-1.0)

    def double_integrate(self) -> "TimePolynomial":
        """Integrate twice from 0 with zero constants: degree shift by 2."""
        return TimePolynomial._made(tuple((k + 2, c) for k, c in self.terms))

    def derivative(self) -> "TimePolynomial":
        return TimePolynomial._made(tuple((k - 1, c) for k, c in self.terms if k > 0))

    def mul_truncated(self, other: "TimePolynomial", max_degree: int) -> "TimePolynomial":
        """Cauchy product truncated above max_degree.

        On factorial-scaled coefficients the product picks up binomial
        weights: result_n = sum_k C(n, k) a_k b_{n-k}, summed in ascending k.
        """
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        out = [0.0] * (min(max_degree, self.max_degree + other.max_degree) + 1)
        for ka, a in self.terms:
            if ka > max_degree:
                break
            for kb, b in other.terms:
                n = ka + kb
                if n > max_degree:
                    break
                out[n] += math.comb(n, ka) * a * b
        return TimePolynomial._made(tuple((n, c) for n, c in enumerate(out) if c != 0.0))

    def __repr__(self) -> str:
        if not self.terms:
            return "TimePolynomial(0)"
        parts = [f"{c:g}*t^{k}/{k}!" for k, c in self.terms]
        return "TimePolynomial(" + " + ".join(parts) + ")"
