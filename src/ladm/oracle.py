"""Reference integration of the exact oscillator equation.

Solves x'' + (1 - x'^2)^(3/2) x = 0 through Hamilton's equations for the
relativistic energy H = sqrt(1 + p^2) + x^2/2,

    x' = p / sqrt(1 + p^2),    p' = -x,

in units of the initial speed beta, (u, q) = (x, p) / beta, with a
high-order embedded adaptive pair and dense output: scipy's DOP853, run on
Python floats by ``DOP853`` below, within 4e-15 of scipy's periods (relative)
and 1e-12 * beta of its positions up to t = 1000 for beta <= 0.999.  So the
tolerance is relative to the amplitude for every beta, subnormal ones
included.  The speed x' = p / sqrt(1 + p^2) stays below 1 for every
momentum p, and H is an exact first integral, tracked relative to H - 1 as
a correctness monitor and never enforced.  scipy supplies the tableau, the
step interpolants, ``OdeSolution`` and ``brentq``, imported on the first
``integrate``, so importing this module costs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from math import fsum
from operator import mul, sub, truediv
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, OracleError

_MONITOR_SAMPLES = 2048  # uniform refinement used for the energy monitor
MAX_T_END = 1e4  # the solver's bound and the last time sample_on_grid accepts
TOL = 1e-12  # DOP853 relative and absolute tolerance on (u, q) = (x, p) / beta


@cache
def _tableau() -> SimpleNamespace:
    """The coefficients of scipy's ``DOP853`` class as lists of floats, and its step interpolant."""
    from scipy.integrate import DOP853 as dop
    from scipy.integrate._ivp.rk import Dop853DenseOutput
    t = SimpleNamespace(**{k: getattr(dop, k).tolist() for k in ("A", "B", "C", "E3", "E5", "D")})
    t.stages, t.interpolant = [*zip(t.A[1:], t.C[1:])], Dop853DenseOutput
    t.extra = [*zip(dop.A_EXTRA.tolist(), dop.C_EXTRA.tolist())]
    return t


class DOP853:
    """scipy's ``DOP853(fun, t0, y0, t_bound, rtol=, atol=)`` stepping two equations forward on
    Python floats, each stage sum one ``math.fsum``, correctly rounded on every Python."""

    def __init__(self, fun, t0, y0, t_bound, rtol, atol):
        self.fun, self.t, self.y, self.t_bound, self.status = fun, t0, list(y0), t_bound, "running"
        self.rtol, self.atol, self.tab, self.f = rtol, atol, _tableau(), fun(t0, self.y)
        scale = [atol + abs(v) * rtol for v in self.y]  # select_initial_step, error order 7
        rms = lambda v: math.hypot(*map(truediv, v, scale)) / 2**0.5
        d0, d1, length = rms(self.y), rms(self.f), t_bound - t0
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
        d2 = rms(map(sub, fun(t0 + h0, [v + h0 * d for v, d in zip(self.y, self.f)]), self.f)) / h0
        h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
        self.h_abs = min(100 * h0, h1, length)

    def _stage(self, t, y, h, K, a, c) -> list[float]:
        """Append fun(t + c h, z) to the stage columns K, for z = y + h sum_j a_j K_j; return z."""
        z = [y[0] + fsum(map(mul, a, K[0])) * h, y[1] + fsum(map(mul, a, K[1])) * h]
        for k, v in zip(K, self.fun(t + c * h, z)):
            k.append(v)
        return z

    def step(self):
        """Take one accepted step, or fail with scipy's message below 10 ulps of t."""
        tab, t, y, min_step, rejected = self.tab, self.t, self.y, 10.0 * math.ulp(self.t), False
        h_abs = max(self.h_abs, min_step)
        while h_abs >= min_step:
            t_new = min(t + h_abs, self.t_bound)
            h = h_abs = t_new - t
            K = [[self.f[0]], [self.f[1]]]  # K[i][j]: stage j of component i
            for a, c in tab.stages:
                self._stage(t, y, h, K, a, c)
            y_new = self._stage(t, y, h, K, tab.B, 1.0)  # the last stage is f at y_new
            sc = [self.atol + max(abs(a), abs(b)) * self.rtol for a, b in zip(y, y_new)]
            e5, e3 = ([fsum(map(mul, E, k)) / s for k, s in zip(K, sc)] for E in (tab.E5, tab.E3))
            n5, n3 = e5[0] * e5[0] + e5[1] * e5[1], e3[0] * e3[0] + e3[1] * e3[1]
            error = 0.0 if n5 == n3 == 0.0 else h * n5 / math.sqrt((n5 + 0.01 * n3) * 2)
            if error < 1.0:
                factor = 0.9 * error**-0.125 if error else 10.0
                self.h_abs = h_abs * min(1.0 if rejected else 10.0, factor)
                self.t_old, self.y_old, self.h_previous, self.K = t, y, h, K
                self.t, self.y, self.f = t_new, y_new, [K[0][-1], K[1][-1]]
                self.status = "finished" if t_new >= self.t_bound else "running"
                return None
            h_abs, rejected = h_abs * max(0.2, 0.9 * error**-0.125), True
        self.status = "failed"
        return "Required step size is less than spacing between numbers."

    def dense_output(self):
        """scipy's interpolant of the last step, after its three extra stages."""
        tab, h, y_old, K = self.tab, self.h_previous, self.y_old, [list(k) for k in self.K]
        for a, c in tab.extra:
            self._stage(self.t_old, y_old, h, K, a, c)
        dy = [v - v_old for v, v_old in zip(self.y, y_old)]
        F = [dy, [h * k[0] - d for k, d in zip(K, dy)],  # scipy's rows F[0], F[1], F[2] and F[3:]
             [2 * d - h * (k[12] + k[0]) for k, d in zip(K, dy)],
             *([h * fsum(map(mul, r, k)) for k in K] for r in tab.D)]
        return tab.interpolant(self.t_old, self.t, np.array(y_old), np.array(F))


def _excess_energy(beta, u, q):
    """(H - 1) / beta^2 = q^2 / (1 + sqrt(1 + (beta q)^2)) + u^2 / 2, free of cancellation."""
    return q * q / (1.0 + np.hypot(1.0, beta * q)) + 0.5 * u * u


@dataclass(frozen=True)
class OracleTrajectory:
    beta: float
    samples: tuple[tuple[float, float, float], ...]  # (t, u, q) at accepted steps
    interpolant: object = field(repr=False)  # scipy OdeSolution of (u, q)

    @cached_property
    def energy_drift(self) -> float:
        """max |h - h(0)| / h(0), h = (H - 1)/beta^2, on the steps and a uniform refinement."""
        ts = self.interpolant.ts
        u, q = _dense(self.interpolant, np.union1d(ts, np.linspace(0.0, ts[-1], _MONITOR_SAMPLES)))
        h, h0 = _excess_energy(self.beta, u, q), _excess_energy(self.beta, 0.0, self.samples[0][2])
        return float(np.max(np.abs(h - h0)) / h0)

    @cached_property
    def turning_time(self) -> float:
        """The first turn (p = 0), bracketed by the first accepted steps where q goes
        from > 0 to <= 0 and found there by Brent's method on the dense output to 2.5e-13."""
        from scipy.optimize import brentq  # loaded with scipy.integrate
        ts, _, qs = np.array(self.samples).T
        down = np.flatnonzero((qs[:-1] > 0.0) & (qs[1:] <= 0.0))
        if not down.size:
            raise OracleError(f"no turning point in (0, {ts[-1]}]")
        lo, hi = ts[down[0]], ts[down[0] + 1]
        return brentq(lambda t: self.interpolant(t)[1], lo, hi, xtol=2.5e-13)

    def sample_on_grid(self, ts) -> list[float]:
        """Positions x(t) = (-1)^k beta u(min(s, 2 tau - s)), s = t - 2 tau k, k = floor(t / 2 tau).

        H is even in x and in p, so the first quarter orbit, up to the turning time
        tau, fixes every t; on [0, tau] this is the interpolant bit for bit.  A batch that is
        not 1-D is refused, naming its shape, and one with a NaN or a time outside
        [0, MAX_T_END] naming the first.
        """
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1:
            raise DomainError(f"times must form a 1-D sequence, got shape {ts.shape}")
        bad = np.flatnonzero(~((ts >= 0.0) & (ts <= MAX_T_END)))
        if bad.size:
            raise DomainError(f"t={ts[bad[0]]} outside [0, {MAX_T_END}]")
        half = 2.0 * self.turning_time
        s = ts - half * (k := np.floor(ts / half))
        u = _dense(self.interpolant, np.minimum(s, half - s))[0]
        return (self.beta * np.where(k % 2.0 == 0.0, u, -u)).tolist()


def _dense(sol, ts) -> np.ndarray:
    """``sol(ts)`` for a DOP853 OdeSolution, all steps evaluated at once.

    Each point takes the step OdeSolution gives it (the lower one on a step
    boundary) and runs the Horner loop of ``Dop853DenseOutput`` on that
    step's degree-7 polynomial, so the result equals ``sol(ts)`` bit for bit
    without scipy's Python loop over steps.
    """
    ts = np.asarray(ts, dtype=float)
    steps = sol.interpolants
    seg = np.clip(np.searchsorted(sol.ts, ts, side="left") - 1, 0, len(steps) - 1)
    t_old, h = (np.array([getattr(d, a) for d in steps])[seg] for a in ("t_old", "h"))
    x = ((ts - t_old) / h)[:, None]
    F = np.array([d.F for d in steps])  # (steps, 7, 2); one row is gathered at a time
    y = np.zeros((ts.size, F.shape[2]))
    for i, k in enumerate(reversed(range(F.shape[1]))):
        y += F[seg, k]
        y *= x if i % 2 == 0 else 1 - x
    y += np.array([d.y_old for d in steps])[seg]
    return y.T


def integrate(beta: float, until: float = 0.0) -> OracleTrajectory:
    """Integrate the oscillator from x = 0 at speed beta, at tolerance TOL.

    The initial momentum is beta / sqrt((1 - beta)(1 + beta)).  Stepping
    stops at the first accepted step at or past ``until`` once the samples
    bracket the first turning point, q > 0 then <= 0, so the trajectory
    covers [0, until] and the quarter period that ``sample_on_grid`` reads.
    The solver's bound is always MAX_T_END, so a trajectory is a bit-for-bit
    prefix of any that reaches further.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    if not until <= MAX_T_END:
        raise DomainError(f"oracle horizon must be finite and at most {MAX_T_END:g}, got {until}")

    def rhs(t, y):  # (u, q)' = (q / sqrt(1 + (beta q)^2), -u)
        return [y[1] / math.hypot(1.0, beta * y[1]), -y[0]]

    y0 = [0.0, 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))]
    try:
        solver = DOP853(rhs, 0.0, y0, MAX_T_END, rtol=TOL, atol=TOL)
        ts, ys, steps, turned = [0.0], [y0], [], False
        while solver.status == "running" and not (turned and ts[-1] >= until):
            message = solver.step()
            if solver.status == "failed":
                raise OracleError(f"integration failed for beta={beta}: {message}")
            ts.append(solver.t)
            ys.append(solver.y)
            steps.append(solver.dense_output())
            turned = turned or ys[-2][1] > 0.0 >= ys[-1][1]
    except (ValueError, FloatingPointError) as exc:
        raise OracleError(f"integration failed for beta={beta}: {exc}") from exc

    from scipy.integrate import OdeSolution
    samples = tuple((float(t), float(u), float(q)) for t, (u, q) in zip(ts, ys))
    return OracleTrajectory(beta=beta, samples=samples, interpolant=OdeSolution(ts, steps))


def period(traj: OracleTrajectory) -> float:
    """Oscillation period of ``traj``: four times its turning time, H being even in x and p."""
    return 4.0 * traj.turning_time
