import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp as scipy_ivp

from ladm import (
    DomainError,
    InsufficientHorizonError,
    OracleError,
    energy,
    hbm_frequency,
    integrate,
    oracle,
    period,
)
from ladm.oracle import _MONITOR_SAMPLES, MAX_T_END, PERIOD_HORIZON, TOL, _dense, _rhs

BETAS = [0.1, 0.2, 0.5, 0.9]


@pytest.fixture(scope="module")
def long_trajectories():
    return {beta: integrate(beta, 100.0) for beta in BETAS}


def _dop853_positions(beta, t_end, tol, ts):
    """Positions at ts from scipy's DOP853 on the oracle's own system at tolerance tol."""
    sol = scipy_ivp(_rhs, (0.0, t_end), [0.0, beta], method="DOP853",
                    rtol=tol, atol=tol, dense_output=True).sol
    return sol(ts)[0]


class TestEnergy:
    def test_rest_energy(self):
        assert energy(0.0, 0.0) == 1.0

    def test_initial_energy(self):
        assert energy(0.0, 0.1) == pytest.approx(1.005037815, abs=1e-9)

    def test_symmetry(self):
        assert energy(0.3, 0.4) == energy(-0.3, -0.4)

    @pytest.mark.parametrize("v", [1.0, -1.0, 1.5])
    def test_speed_domain(self, v):
        with pytest.raises(DomainError):
            energy(0.0, v)


class TestIntegrate:
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_beta_domain(self, beta):
        with pytest.raises(DomainError):
            integrate(beta, 10.0)

    def test_initial_condition_exact(self, long_trajectories):
        t0, x0, v0 = long_trajectories[0.1].samples[0]
        assert (t0, x0, v0) == (0.0, 0.0, 0.1)

    @pytest.mark.parametrize("beta", BETAS)
    def test_energy_drift(self, long_trajectories, beta):
        assert long_trajectories[beta].energy_drift <= 1e-9

    @pytest.mark.parametrize("beta", BETAS)
    def test_speed_bound(self, long_trajectories, beta):
        # v is extremal at x=0 by energy conservation, so |v| <= beta
        traj = long_trajectories[beta]
        ts = np.linspace(0.0, 100.0, 4001)
        vs = traj.interpolant(ts)[1]
        assert np.max(np.abs(vs)) <= beta + 1e-9

    @pytest.mark.parametrize("beta, t_end", [(0.1, 20.0), (0.5, 30.0), (0.9, 100.0)])
    def test_energy_drift_matches_scipy_dense_output(self, beta, t_end):
        # the monitor as it was computed from scipy's own OdeSolution call
        res = scipy_ivp(_rhs, (0.0, t_end), [0.0, beta], method="DOP853",
                        rtol=TOL, atol=TOL, dense_output=True)
        x, v = res.sol(np.union1d(res.t, np.linspace(0.0, t_end, _MONITOR_SAMPLES)))
        e = 1.0 / np.sqrt(1.0 - v**2) + 0.5 * x**2
        assert integrate(beta, t_end).energy_drift == float(np.max(np.abs(e - energy(0.0, beta))))

    def test_samples_strictly_increasing(self, long_trajectories):
        ts = [t for t, _, _ in long_trajectories[0.2].samples]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_nonrelativistic_limit(self):
        beta = 1e-6
        traj = integrate(beta, 10.0)
        ts = np.linspace(0.0, 10.0, 500)
        xs = traj.sample_on_grid(ts)
        for t, x in zip(ts, xs):
            assert x == pytest.approx(beta * math.sin(t), abs=1e-9)

    def test_tolerance_self_consistency(self):
        # tightening the tolerance from 1e-10 to TOL = 1e-12 must not move the
        # solution by more than the looser tolerance's error level
        grid = np.linspace(0.0, 100.0, 401)
        a = _dop853_positions(0.5, 100.0, 1e-10, grid)
        b = integrate(0.5, 100.0).sample_on_grid(grid)
        assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-8

    def test_time_reversal_symmetry(self):
        beta, t_end = 0.3, 17.0
        kw = dict(method="DOP853", rtol=1e-12, atol=1e-12)
        fwd = scipy_ivp(_rhs, (0.0, t_end), [0.0, beta], **kw)
        x1, v1 = fwd.y[:, -1]
        back = scipy_ivp(_rhs, (0.0, t_end), [x1, -v1], **kw)
        x2, v2 = back.y[:, -1]
        assert x2 == pytest.approx(0.0, abs=1e-8)
        assert v2 == pytest.approx(-beta, abs=1e-8)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan], ids=["inf-t_end", "nan-t_end"])
    def test_config_rejects_non_finite(self, t_end):
        with pytest.raises(DomainError, match="finite"):
            integrate(0.5, t_end)

    @pytest.mark.parametrize("t_end", [0.0, -1.0])
    def test_rejects_nonpositive_horizon(self, t_end):
        with pytest.raises(DomainError, match="t_end"):
            integrate(0.5, t_end)

    def test_config_caps_horizon(self, monkeypatch):
        with pytest.raises(DomainError, match="t_end"):
            integrate(0.5, 1e300)  # used to integrate without end
        with pytest.raises(DomainError, match="t_end"):
            integrate(0.5, np.nextafter(MAX_T_END, math.inf))

        # the cap itself passes the check and reaches the integrator as its bound
        bounds = []

        def dop853_reached(fun, t0, y0, t_bound, **kwargs):
            bounds.append(t_bound)
            raise ValueError("integrator reached")

        monkeypatch.setattr(oracle, "DOP853", dop853_reached)
        with pytest.raises(OracleError, match="integrator reached"):
            integrate(0.5, MAX_T_END)
        assert bounds == [MAX_T_END]


class TestStopRule:
    """``integrate(..., until=u)`` stops at the first accepted step at or past u
    once the samples bracket the first upward zero crossing."""

    @staticmethod
    def _first_up(samples):
        xs = [x for _, x, _ in samples]
        return next(i for i in range(len(xs) - 1) if xs[i] < 0.0 <= xs[i + 1])

    @pytest.mark.parametrize("beta, until", [(1e-6, 0.0), (0.1, 0.0), (0.5, 3.0), (0.9, 0.0),
                                             (0.99, 5.0), (0.2, 10.0), (0.5, 17.3)])
    def test_samples_are_a_prefix_of_the_full_run(self, beta, until):
        full, part = integrate(beta, PERIOD_HORIZON), integrate(beta, PERIOD_HORIZON, until)
        n = len(part.samples)
        assert n < len(full.samples)
        assert part.samples == full.samples[:n]
        assert part.interpolant.ts.tobytes() == full.interpolant.ts[:n].tobytes()
        i = self._first_up(part.samples)
        assert part.t_end >= until
        if until < part.samples[i + 1][0]:
            # the last two samples are the bracket that period bisects
            assert i == n - 2
        else:
            # the first step at or past until, with the crossing already closed
            assert part.samples[-2][0] < until

    @pytest.mark.parametrize("beta", [1e-6, 0.05, 0.1, 0.5, 0.9, 0.99, 0.996])
    def test_period_at_until_zero_is_the_full_horizon_period(self, beta):
        assert period(integrate(beta, PERIOD_HORIZON, until=0.0)) == period(
            integrate(beta, PERIOD_HORIZON)
        )

    def test_without_a_crossing_runs_to_t_end(self):
        traj = integrate(0.1, 3.0, until=0.0)
        assert traj.samples == integrate(0.1, 3.0).samples
        assert traj.t_end == 3.0

    @pytest.mark.parametrize("beta", [1e-6, 0.1, 0.5, 0.9])
    def test_energy_drift_covers_the_integrated_span(self, beta):
        # scipy's own OdeSolution of the full run, over the span that was integrated
        traj = integrate(beta, PERIOD_HORIZON, until=0.0)
        ts = traj.interpolant.ts
        full = scipy_ivp(_rhs, (0.0, PERIOD_HORIZON), [0.0, beta], method="DOP853",
                         rtol=TOL, atol=TOL, dense_output=True)
        x, v = full.sol(np.union1d(ts, np.linspace(0.0, ts[-1], _MONITOR_SAMPLES)))
        e = 1.0 / np.sqrt(1.0 - v**2) + 0.5 * x**2
        assert traj.energy_drift == float(np.max(np.abs(e - energy(0.0, beta))))


class TestSampling:
    def test_origin(self, long_trajectories):
        assert long_trajectories[0.1].sample_on_grid([0.0]) == [0.0]

    def test_accepted_step_matches_stored_sample(self, long_trajectories):
        traj = long_trajectories[0.2]
        t, x, _ = traj.samples[len(traj.samples) // 2]
        assert traj.sample_on_grid([t])[0] == pytest.approx(x, rel=1e-13, abs=1e-15)

    def test_out_of_range(self, long_trajectories):
        with pytest.raises(DomainError):
            long_trajectories[0.1].sample_on_grid([101.0])
        with pytest.raises(DomainError):
            long_trajectories[0.1].sample_on_grid([-0.5])

    @pytest.mark.parametrize(
        "ts, first",
        [
            ([1.0, math.nan, -0.5], "nan"),
            ([1.0, -0.5, math.nan], "-0.5"),
            ([2.0, 101.0, -0.5], "101.0"),
        ],
    )
    def test_rejects_batch_naming_first_offender(self, long_trajectories, ts, first):
        with pytest.raises(DomainError, match=rf"^t={first} outside \[0, 100\.0\]$"):
            long_trajectories[0.1].sample_on_grid(ts)

    def test_empty(self, long_trajectories):
        assert long_trajectories[0.1].sample_on_grid([]) == []

    @pytest.mark.parametrize("kind", ["unsorted", "step_times"])
    def test_matches_scalar_interpolant_bit_for_bit(self, long_trajectories, kind):
        traj = long_trajectories[0.5]
        steps = [t for t, _, _ in traj.samples]  # segment boundaries
        if kind == "unsorted":
            rng = np.random.default_rng(7)
            ts = rng.permutation(np.concatenate([rng.uniform(0.0, 100.0, 997), steps[::10]]))
        else:
            ts = steps
        expected = [float(traj.interpolant(t)[0]) for t in ts]
        got = traj.sample_on_grid(ts)
        assert all(type(x) is float for x in got)
        assert got == expected

    def test_midpoint_interpolation_accuracy(self):
        # dense output between accepted steps agrees with a direct
        # integration at the tighter tolerance 1e-13
        traj = integrate(0.2, 10.0)
        ts = np.linspace(0.1, 9.9, 333)
        a = traj.sample_on_grid(ts)
        b = _dop853_positions(0.2, 10.0, 1e-13, ts)
        assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-9


class TestDense:
    @pytest.mark.parametrize("t_end", [3.0, 20.0, 100.0])
    @pytest.mark.parametrize("beta", [1e-6, 0.1, 0.5, 0.77, 0.9])
    def test_matches_interpolant_bit_for_bit(self, beta, t_end):
        traj = integrate(beta, t_end)
        steps = traj.interpolant.ts
        rng = np.random.default_rng(11)
        ts = np.concatenate([rng.uniform(0.0, t_end, 500), steps, steps[::4],  # repeats
                             [0.0, t_end, 0.0, t_end]])
        ts = rng.permutation(ts)
        got, want = _dense(traj.interpolant, ts), traj.interpolant(ts)
        assert got.shape == want.shape == (2, ts.size)
        assert got.tobytes() == want.tobytes()

    def test_single_and_empty(self, long_trajectories):
        sol = long_trajectories[0.2].interpolant
        for t in (0.0, sol.ts[5], 37.25, 100.0):
            assert _dense(sol, [t])[:, 0].tobytes() == sol(t).tobytes()
        assert _dense(sol, []).shape == (2, 0)


class TestPeriod:
    def test_nonrelativistic_limit(self):
        assert period(integrate(1e-6, 20.0)) == pytest.approx(
            2.0 * math.pi, abs=1e-6
        )

    def test_beta_01_vs_hbm(self, long_trajectories):
        p = period(long_trajectories[0.1])
        assert p == pytest.approx(2.0 * math.pi / hbm_frequency(0.1), abs=1e-2)

    def test_monotone_in_beta(self, long_trajectories):
        # relativistic slowing: the period grows with the initial speed
        periods = [period(long_trajectories[b]) for b in BETAS]
        assert all(a < b for a, b in zip(periods, periods[1:]))

    def test_insufficient_horizon(self):
        with pytest.raises(InsufficientHorizonError, match=r"no upward zero crossing in \(0, 3\.0\]"):
            period(integrate(0.1, 3.0))

    def test_one_period_of_horizon_suffices(self):
        # the old two-crossing rule needed 2T ~ 12.6 inside the horizon
        assert period(integrate(0.1, 8.0)) == period(integrate(0.1, 20.0))

    @pytest.mark.parametrize("t_end", [20.0, 30.0])
    @pytest.mark.parametrize("beta", [1e-6, 0.05, 0.1, 0.5, 0.9])
    def test_matches_scalar_scan_bit_for_bit(self, beta, t_end):
        traj = integrate(beta, t_end)
        assert period(traj) == _scalar_first_crossing(traj)
        # the oracle's absolute tolerance TOL is a relative error of about
        # TOL/beta in x, so at beta = 1e-6 both rules carry the tiny-beta
        # period error (~1e-7 relative) and agree only to that level
        rel = 1e-11 if beta >= 0.05 else TOL / beta
        assert period(traj) == pytest.approx(_scalar_two_crossing_period(traj), rel=rel)

    @pytest.mark.parametrize("beta", [1e-6, *BETAS, 0.99])
    def test_independent_of_horizon(self, beta):
        # the DOP853 steps before the first crossing do not depend on t_end
        assert len({period(integrate(beta, t_end)) for t_end in (20.0, 30.0, 100.0)}) == 1

    @settings(max_examples=15, deadline=None)
    @given(beta=st.floats(min_value=0.05, max_value=0.996))
    def test_matches_energy_quadrature(self, beta):
        # Independent oracle: R. E. Mickens, J. Sound Vib. 212 (1998) 905-908.
        assert period(integrate(beta, PERIOD_HORIZON)) == pytest.approx(
            _quadrature_period(beta), rel=1e-9
        )


def _bisect(x, lo, hi):
    """The zero of x in [lo, hi] with x(lo) < 0 <= x(hi), bisected to 1e-12."""
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if x(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scalar_first_crossing(traj):
    """Reference: the first upward crossing between accepted steps after t = 0,
    bisected with one scalar dense-output call per step."""
    x = lambda t: float(traj.interpolant(t)[0])
    for (a, xa, _), (b, xb, _) in zip(traj.samples[1:], traj.samples[2:]):
        if xa < 0.0 <= xb:
            return _bisect(x, a, b)
    raise AssertionError("no upward crossing")


def _scalar_two_crossing_period(traj):
    """The earlier rule: the gap between the first two upward crossings found
    by scanning 40 points per time unit, bisected with scalar calls."""
    x = lambda t: float(traj.interpolant(t)[0])
    ts = np.linspace(0.0, traj.t_end, max(64, int(traj.t_end * 40)))
    crossings = [_bisect(x, a, b) for a, b in zip(ts[:-1], ts[1:]) if a and x(a) < 0.0 <= x(b)]
    return float(crossings[1] - crossings[0])


def _quadrature_period(beta):
    """Period from energy conservation, T = 4 int_0^{pi/2} g sqrt(2/(g+1)) dtheta.

    g = 1 + (A^2/2) cos^2(theta) with amplitude A^2 = 2((1-beta^2)^(-1/2) - 1);
    the substitution x = A sin(theta) leaves a smooth integrand, so 64-node
    Gauss-Legendre is exact to rounding.
    """
    a2 = 2.0 * (1.0 / math.sqrt(1.0 - beta * beta) - 1.0)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    theta = 0.25 * math.pi * (nodes + 1.0)  # [-1, 1] -> [0, pi/2]
    g = 1.0 + 0.5 * a2 * np.cos(theta) ** 2
    return float(4.0 * 0.25 * math.pi * np.sum(weights * g * np.sqrt(2.0 / (g + 1.0))))
