"""Reference values computed without the ``ladm`` package.

Every check in the benchmark compares the program's output with one of
these. They use only numpy, scipy and the formulas restated here, so a
defect in ``ladm`` cannot hide in its own reference.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)

# LSODA, not the DOP853 pair the program uses; its error against DOP853 at
# these tolerances is below 1e-8 over t in [0, 20] for beta <= 0.9.
_RTOL, _ATOL = 1e-12, 1e-14

NONLINEARITIES = {
    "x2": lambda x: x * x,
    "x3": lambda x: x * x * x,
    "exp": math.exp,
}


def quadrature_period(beta: float) -> float:
    """Exact period from energy conservation, by 64-node Gauss-Legendre.

    With A^2 = 2((1 - beta^2)^(-1/2) - 1) and x = A sin(theta), the period
    is T = 4 int_0^{pi/2} g sqrt(2 / (g + 1)) dtheta, g = 1 + (A^2/2) cos^2.
    The integrand is smooth, so the rule converges to machine precision.
    """
    a2 = 2.0 * ((1.0 - beta * beta) ** -0.5 - 1.0)
    theta = (_GL_X + 1.0) * (math.pi / 4.0)
    g = 1.0 + 0.5 * a2 * np.cos(theta) ** 2
    return math.pi * float(np.sum(_GL_W * g * np.sqrt(2.0 / (g + 1.0))))


def _oscillator_rhs(t, y):
    return [y[1], -((1.0 - y[1] * y[1]) ** 1.5) * y[0]]


def oscillator_trajectory(beta: float, ts: np.ndarray) -> np.ndarray:
    """x(t) of the exact oscillator at the sorted times ts, by LSODA."""
    res = solve_ivp(
        _oscillator_rhs, (0.0, float(ts[-1])), [0.0, beta], method="LSODA",
        rtol=_RTOL, atol=_ATOL, t_eval=ts,
    )
    if not res.success:
        raise RuntimeError(f"reference integration failed at beta={beta}: {res.message}")
    return res.y[0]


def generic_solution(name: str, alpha: float, beta: float, t: float) -> float:
    """x(t) for x'' = -N(x), x(0) = alpha, x'(0) = beta, by LSODA."""
    n = NONLINEARITIES[name]
    res = solve_ivp(
        lambda _, y: [y[1], -n(y[0])], (0.0, t), [alpha, beta], method="LSODA",
        rtol=_RTOL, atol=_ATOL,
    )
    if not res.success:
        raise RuntimeError(f"reference integration failed: {res.message}")
    return float(res.y[0, -1])


def kappa(beta: float) -> float:
    return (1.0 - beta * beta) ** 1.5


def series_terms(beta: float, n_terms: int, ts: np.ndarray) -> np.ndarray:
    """Rows n = 0..n_terms-1 of beta (-kappa)^n t^(2n+1) / (2n+1)!."""
    k = kappa(beta)
    rows = [
        beta * (-k) ** n * ts ** (2 * n + 1) / math.factorial(2 * n + 1)
        for n in range(n_terms)
    ]
    return np.array(rows)


def hbm_frequency(beta: float) -> float:
    return ((2.0 - 2.0 * beta * beta) / (2.0 - beta * beta)) ** 0.25


def hbm_curve(beta: float, ts: np.ndarray) -> np.ndarray:
    """Three-harmonic balance approximant of the oscillator."""
    w = hbm_frequency(beta)
    b2 = beta * beta
    a1 = (beta / w) * (3.0 * b2 * b2 + 8.0 * b2 + 64.0) / 64.0
    a3 = -(beta**3 / (24.0 * w)) * (3.0 * b2 + 128.0) / 128.0
    a5 = 3.0 * beta**5 / (640.0 * w)
    return a1 * np.sin(w * ts) + a3 * np.sin(3 * w * ts) + a5 * np.sin(5 * w * ts)
