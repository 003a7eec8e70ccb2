"""Reference integration of the exact oscillator equation.

Solves x'' + (1 - x'^2)^(3/2) x = 0 as the first-order system
(x, v)' = (v, -(1 - v^2)^(3/2) x) with a high-order embedded adaptive
pair (scipy's DOP853) and dense output.  The relativistic energy

    E = (1 - v^2)^(-1/2) + x^2 / 2

is an exact first integral and is tracked as a correctness monitor, never
enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import DOP853, OdeSolution

from .errors import DomainError, InsufficientHorizonError, OracleError

_MONITOR_SAMPLES = 2048  # uniform refinement used for the energy/speed monitor
MAX_T_END = 1e4  # at beta 0.5 this horizon takes ~20 s and ~200 MB on a 2-core host
TOL = 1e-12  # DOP853 relative and absolute tolerance
PERIOD_HORIZON = 20.0  # default horizon for a period: one period is at most 20 up to beta ~0.9967


def energy(x: float, v: float) -> float:
    """Dimensionless relativistic energy (1 - v^2)^(-1/2) + x^2/2."""
    if abs(v) >= 1.0:
        raise DomainError(f"|v| must be < 1, got {v}")
    return 1.0 / math.sqrt(1.0 - v * v) + 0.5 * x * x


@dataclass(frozen=True)
class OracleTrajectory:
    samples: tuple[tuple[float, float, float], ...]  # (t, x, v) at accepted steps
    interpolant: object = field(repr=False)  # scipy OdeSolution
    energy_drift: float = 0.0

    @property
    def t_end(self) -> float:
        return self.samples[-1][0]

    def sample_on_grid(self, ts) -> list[float]:
        """Dense-output positions at each requested time, in one interpolant call.

        The whole batch is rejected if any time is NaN or outside
        [0, t_end]; the error names the first such time in input order.
        """
        ts = np.asarray(ts, dtype=float)
        bad = np.flatnonzero(~((ts >= 0.0) & (ts <= self.t_end)))
        if bad.size:
            raise DomainError(f"t={ts[bad[0]]} outside [0, {self.t_end}]")
        return _dense(self.interpolant, ts)[0].tolist()


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


def _rhs(t, y):
    x, v = y
    return [v, -((1.0 - v * v) ** 1.5) * x]


def integrate(beta: float, t_end: float, until: float | None = None) -> OracleTrajectory:
    """Integrate the oscillator from (x, v) = (0, beta) towards t_end at tolerance TOL.

    Stepping stops at the first accepted step at or past ``until`` (default
    t_end) once the samples bracket the first upward zero crossing, x < 0
    then >= 0.  The solver's bound stays t_end, so the samples are a
    prefix of the full run's, bit for bit.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    if not 0 < t_end <= MAX_T_END:
        raise DomainError(f"oracle horizon t_end must be finite and in (0, {MAX_T_END:g}]")
    until = t_end if until is None else until
    try:
        solver = DOP853(_rhs, 0.0, [0.0, beta], float(t_end), rtol=TOL, atol=TOL)
        ts, ys, steps, closed = [0.0], [[0.0, beta]], [], False
        while solver.status == "running" and not (closed and ts[-1] >= until):
            message = solver.step()
            if solver.status == "failed":
                raise OracleError(f"integration failed for beta={beta}: {message}")
            ts.append(solver.t)
            ys.append(solver.y)
            steps.append(solver.dense_output())
            closed = closed or ys[-2][0] < 0.0 <= ys[-1][0]
    except (ValueError, FloatingPointError) as exc:
        raise OracleError(f"integration failed for beta={beta}: {exc}") from exc
    xs, vs = np.array(ys).T
    if np.any(np.abs(vs) >= 1.0):
        i = int(np.argmax(np.abs(vs)))
        raise OracleError(f"speed bound violated at t={ts[i]}: v={vs[i]}")

    # energy drift on accepted steps plus a uniform refinement of the integrated span
    sol = OdeSolution(ts, steps)
    dense = _dense(sol, np.union1d(ts, np.linspace(0.0, ts[-1], _MONITOR_SAMPLES)))
    e = 1.0 / np.sqrt(1.0 - dense[1] ** 2) + 0.5 * dense[0] ** 2
    drift = float(np.max(np.abs(e - energy(0.0, beta))))

    samples = tuple((float(t), float(x), float(v)) for t, x, v in zip(ts, xs, vs))
    return OracleTrajectory(samples=samples, interpolant=sol, energy_drift=drift)


def period(traj: OracleTrajectory) -> float:
    """Oscillation period of ``traj``: the time of its first upward zero crossing after t = 0.

    x(0) = 0 and x'(0) = beta > 0, so x first returns upward through zero
    after one period.  The crossing is bracketed by the first pair of
    accepted steps where x goes from < 0 to >= 0 (x(0) = 0 opens none) and
    refined by scalar bisection of the dense output to 1e-12 in t.
    """
    ts, xs, _ = np.array(traj.samples).T
    up = np.flatnonzero((xs[:-1] < 0.0) & (xs[1:] >= 0.0))
    if not up.size:
        raise InsufficientHorizonError(f"no upward zero crossing in (0, {traj.t_end}]")
    lo, hi = ts[up[0]], ts[up[0] + 1]
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if traj.interpolant(mid)[0] < 0.0:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))
