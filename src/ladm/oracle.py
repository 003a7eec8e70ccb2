"""Exact trajectory of the oscillator x'' + (1 - x'^2)^(3/2) x = 0 from x = 0 at speed beta.

H = sqrt(1 + p^2) + x^2/2 is conserved, so with g = 1/sqrt((1-beta)(1+beta)), x = A sin(psi),
A^2 = 2 (g - 1) and m = (g - 1)/(g + 1), t(psi) = sqrt(2) [sqrt(1+g) E(psi|m) - F(psi|m)/sqrt(1+g)]
(R. E. Mickens, J. Sound Vib. 212 (1998) 905-908).  The period is 4 t(pi/2); other times fold onto
the first quarter orbit.  Values are in units of beta, (u, q) = (x, p) / beta.
"""

import math
from functools import cached_property

from .errors import DomainError, OracleError

_NEWTON_CAP = 40  # Newton steps before a position is given up with an OracleError
MAX_T_END = 1e4  # the largest time sample_on_grid accepts; integrate refuses an until past it


def _rf_rd(x, y, z, steps=None, sqrt=None):
    """Carlson's R_F(x, y, z), R_D(x, y, z) (Numer. Algorithms 10 (1995) 13-26) and the number of
    duplications before the fifth-order series: ``steps``, or until every argument lies within
    1e-3 of the running mean, each duplication dividing every distance to it by exactly 4.
    ``sqrt`` is math.sqrt for floats; left out, numpy's serves arrays, with the same bits."""
    maximum, anyof = max, bool
    if sqrt is None:
        from numpy import any as anyof, maximum, sqrt
    tail, scale, n = 0.0, 1.0, 0
    if steps is None:
        mean = (x + y + 3.0 * z) / 5.0
        spread = maximum(maximum(abs(x - mean), abs(y - mean)), abs(z - mean)) * 1e3
    while n < steps if steps is not None else anyof(scale * spread > mean):
        sx, sy, sz = sqrt(x), sqrt(y), sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        tail, scale = tail + scale / (sz * (z + lam)), scale / 4.0
        if steps is None:
            mean = (mean + lam) / 4.0
        x, y, z, n = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0, n + 1
    mf, md = (x + y + z) / 3.0, (x + y + 3.0 * z) / 5.0
    X, Y, Z = 1.0 - x / mf, 1.0 - y / mf, 1.0 - z / mf
    e2, e3 = X * Y - Z * Z, X * Y * Z
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / sqrt(mf)
    X, Y, Z = 1.0 - x / md, 1.0 - y / md, 1.0 - z / md
    xy, zz = X * Y, Z * Z
    e2, e3, e4, e5 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * Z, 3.0 * (xy - zz) * zz, xy * zz * Z
    rd = 1 - 3 / 14 * e2 + e3 / 6 + 9 / 88 * e2 * e2 - 3 / 22 * e4 - 9 / 52 * e2 * e3 + 3 / 26 * e5
    return rf, 3.0 * tail + scale * rd / (md * sqrt(md)), n


def _excess_energy(beta, u, q):
    """(H - 1) / beta^2 = q^2 / (1 + sqrt(1 + (beta q)^2)) + u^2 / 2, free of cancellation."""
    import numpy as np
    return q * q / (1.0 + np.hypot(1.0, beta * q)) + 0.5 * u * u


class OracleTrajectory:
    """Exact at every time; ``samples`` is for perfbench's oracle.integrate.steps counter."""

    def __init__(self, beta: float):
        g = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
        self.beta, self.g, self.a = beta, g, math.sqrt(1.0 + g)
        self.m, self.mc = (g * beta / (1.0 + g)) ** 2, 2.0 / (1.0 + g)  # m, 1 - m: no cancellation
        # the duplications of the hardest arguments, at psi = pi/2, for all: same bits in any batch
        self.steps = _rf_rd(0.0, 1.0, self.mc, sqrt=math.sqrt)[2]
        self.turning_time = self._time(1.0, 0.0, math.sqrt)[0]  # tau = t(pi/2)
        self.samples = (0.0, 0.0, g), (self.turning_time, g * math.sqrt(2.0) / self.a, 0.0)

    def _time(self, s, c, sqrt=None):
        """t(psi) and t'(psi) from s = sin(psi), c = cos(psi) on [0, pi/2], with D^2 = 1 - m s^2:
        t = sqrt(2) s [R_F / a + (2 m / 3 a) s^2 R_D + a m c / D], R_F and R_D at (c^2, 1, D^2)
        (DLMF 19.25.10, all terms positive), and t' = sqrt(2) (a^2 D^2 - 1) / (a D).  ``sqrt``
        as in _rf_rd: math.sqrt for floats, numpy's, the default, for arrays."""
        if sqrt is None:
            from numpy import sqrt
        a, m, d2 = self.a, self.m, self.mc + self.m * c * c
        d = sqrt(d2)
        rf, rd, _ = _rf_rd(c * c, 1.0, d2, self.steps, sqrt)
        t = math.sqrt(2.0) * s * (rf / a + 2.0 * m / (3.0 * a) * s * s * rd + a * m * c / d)
        return t, math.sqrt(2.0) * (a * a * d2 - 1.0) / (a * d)

    def interpolant(self, ts) -> "tuple[np.ndarray, np.ndarray]":
        """(u, q) at the 1-D ts; another shape and a time that is not finite are refused.  Each
        time folds onto s in [0, tau], where Newton's method solves |t(psi) - s| <= 4 eps tau from
        psi(s) by cubic Hermite at 65 nodes (slopes 1/t', clamped to its bracket).  t is concave,
        so after the first step, clipped to [0, pi/2], every iterate lies below its root."""
        import numpy as np
        ts, tau = np.asarray(ts, dtype=float), self.turning_time
        if ts.ndim != 1:
            raise DomainError(f"times must form a 1-D sequence, got shape {ts.shape}")
        if (bad := ts[~np.isfinite(ts)]).size:
            raise DomainError(f"t={bad[0]} is not finite")
        s = ts - 2.0 * tau * (k := np.floor(ts / (2.0 * tau)))
        fold = np.minimum(s, 2.0 * tau - s)
        nodes, todo = np.linspace(0.0, np.pi / 2.0, 65), np.arange(fold.size)
        t, dt = self._time(np.sin(nodes), np.cos(nodes))
        i = np.clip(np.searchsorted(t, fold, side="right") - 1, 0, nodes.size - 2)
        p0, p1, h = nodes[i], nodes[i + 1], t[i + 1] - t[i]
        w, m0, m1, dp = (fold - t[i]) / h, h / dt[i], h / dt[i + 1], p1 - p0
        psi = p0 + w * (m0 + w * (3.0 * dp - 2.0 * m0 - m1 + w * (m0 + m1 - 2.0 * dp)))
        psi, tol = np.clip(psi, p0, p1), 4.0 * np.finfo(float).eps * tau
        for _ in range(_NEWTON_CAP):
            p, f = psi[todo], fold[todo]
            t, dt = self._time(np.sin(p), np.cos(p))
            left = np.abs(t - f) > tol
            if not left.any():
                break
            todo = todo[left]
            psi[todo] = np.clip(p[left] - (t[left] - f[left]) / dt[left], 0.0, np.pi / 2.0)
        else:
            raise OracleError(f"Newton's method did not converge for beta={self.beta}")
        sign, c = np.where(k % 2.0 == 0.0, self.g, -self.g), np.cos(psi)
        q = np.where(s <= fold, sign, -sign) * c * np.sqrt(self.mc + self.m * c * c)
        return sign * math.sqrt(2.0) / self.a * np.sin(psi), q

    @cached_property
    def energy_drift(self) -> float:
        """max |h - h(0)| / h(0), h = (H - 1)/beta^2, over a quarter orbit: rounding only."""
        import numpy as np
        u, q = self.interpolant(np.linspace(0.0, self.turning_time, 2048))
        h, h0 = _excess_energy(self.beta, u, q), _excess_energy(self.beta, 0.0, self.g)
        return float(np.max(np.abs(h - h0)) / h0)

    def sample_on_grid(self, ts) -> list[float]:
        """beta u(t) at the 1-D ts; refuses a t outside [0, MAX_T_END], interpolant other shapes."""
        import numpy as np
        ts = np.asarray(ts, dtype=float)
        if (bad := ts[~((ts >= 0.0) & (ts <= MAX_T_END))]).size:  # NaN fails both tests
            raise DomainError(f"t={bad[0]} outside [0, {MAX_T_END}]")
        return (self.beta * self.interpolant(ts)[0]).tolist()


def integrate(beta: float, until: float = 0.0) -> OracleTrajectory:
    """The exact trajectory from x = 0 at speed beta; ``until`` is only checked, not a horizon."""
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    if not until <= MAX_T_END:
        raise DomainError(f"until must be finite and at most {MAX_T_END:g}, got {until}")
    return OracleTrajectory(beta)


def period(traj: OracleTrajectory) -> float:
    """Oscillation period of ``traj``: four times its turning time, H being even in x and p."""
    return 4.0 * traj.turning_time
