"""Closed-form periodic approximants used as comparison baselines.

The harmonic-balance approximant is parametric in beta; the DTM/HPM/HBM
instances for beta = 0.1 and beta = 0.2 are stored exactly as printed in
the literature, with no re-derivation of the underlying methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NotTabulatedError


@dataclass(frozen=True)
class SinusoidSum:
    """x(t) = sum_j a_j sin(w_j t); odd in t, zero at t = 0."""

    terms: tuple[tuple[float, float], ...]  # (amplitude, angular frequency)

    def __post_init__(self) -> None:
        if any(w <= 0 for _, w in self.terms):
            raise ValueError("angular frequencies must be positive")

    def eval(self, t):
        """x at t (a float or an array), the terms added left to right."""
        import numpy as np
        total = 0.0
        for a, w in self.terms:
            total = total + a * np.sin(w * t)
        return total


def hbm_frequency(beta: float) -> float:
    """Harmonic-balance frequency ((2 - 2 beta^2) / (2 - beta^2))^(1/4)."""
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    return ((2.0 - 2.0 * beta * beta) / (2.0 - beta * beta)) ** 0.25


def hbm(beta: float) -> SinusoidSum:
    """Parametric three-harmonic HBM approximant, valid for 0 < beta < 1."""
    w = hbm_frequency(beta)
    b2 = beta * beta
    a1 = (beta / w) * (3.0 * b2 * b2 + 8.0 * b2 + 64.0) / 64.0
    a3 = -(beta**3 / (24.0 * w)) * (3.0 * b2 + 128.0) / 128.0
    a5 = 3.0 * beta**5 / (640.0 * w)
    return SinusoidSum(terms=((a1, w), (a3, 3.0 * w), (a5, 5.0 * w)))


# Printed coefficients transcribed verbatim from the literature.  The third
# DTM frequency at beta=0.1 (4.841) breaks the odd-harmonic pattern of the
# other entries; it is kept as printed.
_TABULATED: dict[tuple[str, float], tuple[tuple[float, float], ...]] = {
    ("DTM", 0.1): ((0.10033, 0.998), (-0.000047097, 2.997), (0.00000008254, 4.841)),
    ("HPM", 0.1): ((0.10010, 0.999), (-0.00004689, 2.997), (0.00000005062, 4.995)),
    ("HBM", 0.1): ((0.10025, 0.998), (-0.00004173, 2.996), (0.00000004369, 4.944)),
    ("DTM", 0.2): ((0.203, 0.992), (-0.0003695, 3.051), (0.000009257, 4.29)),
    ("HPM", 0.2): ((0.201, 0.995), (-0.0003768, 2.985), (0.000001652, 4.974)),
    ("HBM", 0.2): ((0.202, 0.995), (-0.0003354, 2.985), (0.000001508, 4.974)),
}


def tabulated(method: str, beta: float) -> SinusoidSum:
    """Printed approximant for (method, beta); beta matches 0.1 or 0.2 to a relative 1e-12."""
    for (m, b), terms in _TABULATED.items():
        if m == method.upper() and math.isclose(beta, b, rel_tol=1e-12):
            return SinusoidSum(terms=terms)
    raise NotTabulatedError(
        f"no tabulated {method} approximant at beta={beta}; available: {sorted(_TABULATED)}"
    )
