import math
import sys
import time

import inspect

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp as scipy_ivp
from scipy.optimize import brentq
from scipy.special import ellipe, ellipk

from ladm import DomainError, OracleError, build_report, hbm_frequency, integrate, oracle, period
from ladm.oracle import (_MONITOR_SAMPLES, MAX_T_END, TOL, OracleTrajectory, _dense, _dop853,
                         _excess_energy, _tableau)

BETAS = [0.1, 0.2, 0.5, 0.9]


@pytest.fixture(scope="module")
def long_trajectories():
    return {beta: integrate(beta, 100.0) for beta in BETAS}


def _gamma(beta):
    """The initial momentum in units of beta, 1/sqrt((1 - beta)(1 + beta))."""
    return 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))


def _speed(p):
    return p / np.hypot(1.0, p)


def _rhs(beta):
    """Hamilton's equations in units of beta: (u, q)' = (q / sqrt(1 + (beta q)^2), -u)."""
    return lambda t, y: [y[1] / math.hypot(1.0, beta * y[1]), -y[0]]


def _relative_drift(beta, sol, ts):
    """max |h - h(0)| / h(0) of h = (H - 1)/beta^2 from scipy's own OdeSolution call at
    the accepted steps ts and a uniform refinement of [0, ts[-1]]."""
    u, q = sol(np.union1d(ts, np.linspace(0.0, ts[-1], _MONITOR_SAMPLES)))
    h = q * q / (1.0 + np.hypot(1.0, beta * q)) + 0.5 * u * u
    q0 = _gamma(beta)
    h0 = q0 * q0 / (1.0 + np.hypot(1.0, beta * q0))
    return float(np.max(np.abs(h - h0)) / h0)


def _dop853_positions(beta, t_end, tol, ts):
    """Positions at ts from scipy's DOP853 on the oracle's own system at tolerance tol."""
    sol = scipy_ivp(_rhs(beta), (0.0, t_end), [0.0, _gamma(beta)], method="DOP853",
                    rtol=tol, atol=tol, dense_output=True).sol
    return beta * sol(ts)[0]


class TestEnergy:
    """The excess energy h = (H - 1)/beta^2 in units of beta, for H = sqrt(1 + p^2) + x^2/2."""

    def test_rest_energy(self):
        assert _excess_energy(0.5, 0.0, 0.0) == 0.0

    def test_initial_energy(self):
        # H - 1 = gamma - 1 with gamma = (1 - beta^2)^(-1/2) at beta = 0.1
        assert 0.01 * _excess_energy(0.1, 0.0, _gamma(0.1)) == pytest.approx(
            1.0 / math.sqrt(0.99) - 1.0, rel=1e-12)

    def test_symmetry(self):
        assert _excess_energy(0.5, 0.3, 0.4) == _excess_energy(0.5, -0.3, -0.4)

    @pytest.mark.parametrize("p", [1.0, -1.0, 1.5])
    def test_speed_domain(self, p):
        # every momentum is allowed: its speed p / sqrt(1 + p^2) is below 1
        assert abs(_speed(p)) < 1.0
        assert _excess_energy(1.0, 0.0, p) == pytest.approx(math.hypot(1.0, p) - 1.0, rel=1e-15)

    def test_arrays(self):
        u, q = np.array([0.0, 0.3, -2.0]), np.array([0.0, -0.4, 1e8])
        assert _excess_energy(0.5, u, q).tolist() == [_excess_energy(0.5, a, b) for a, b in zip(u, q)]

    @pytest.mark.parametrize("beta", [5e-324, 1e-300, 1e-12])
    def test_no_cancellation_at_tiny_beta(self, beta):
        # H - 1 = beta^2 h is below the resolution of H = 1 + ... here
        assert math.hypot(1.0, beta * 2.0) + 0.5 * (beta * 0.5) ** 2 == 1.0
        assert _excess_energy(beta, 0.5, 2.0) == 2.125


class TestIntegrate:
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_beta_domain(self, beta):
        with pytest.raises(DomainError):
            integrate(beta, 10.0)

    def test_initial_condition_exact(self, long_trajectories):
        t0, u0, q0 = long_trajectories[0.1].samples[0]
        assert (t0, u0, q0) == (0.0, 0.0, _gamma(0.1))
        assert _speed(0.1 * q0) == pytest.approx(0.1, rel=1e-15)

    @pytest.mark.parametrize("beta", BETAS)
    def test_energy_drift(self, long_trajectories, beta):
        assert long_trajectories[beta].energy_drift <= 1e-9

    @pytest.mark.parametrize("beta", BETAS)
    def test_speed_bound(self, long_trajectories, beta):
        # v is extremal at x=0 by energy conservation, so |v| <= beta
        traj = long_trajectories[beta]
        ts = np.linspace(0.0, 100.0, 4001)
        vs = _speed(beta * traj.interpolant(ts)[1])
        assert np.max(np.abs(vs)) <= beta + 1e-9

    @pytest.mark.parametrize("beta, until", [(0.1, 20.0), (0.5, 30.0), (0.9, 100.0)])
    def test_energy_drift_matches_scipy_dense_output(self, beta, until):
        # the monitor as computed from scipy's own OdeSolution call
        traj = integrate(beta, until)
        assert traj.energy_drift == _relative_drift(beta, traj.interpolant, traj.interpolant.ts)

    @pytest.mark.parametrize("beta", [1e-300, 1e-12, 0.5, 0.9])
    def test_energy_drift_is_relative_at_every_beta(self, beta):
        # the same trajectory in units of beta gives the same drift at every small beta,
        # and a looser tolerance shows at every beta
        assert 1e-13 < integrate(beta).energy_drift <= 1e-10
        sol = scipy_ivp(_rhs(beta), (0.0, 10.0), [0.0, _gamma(beta)], method="DOP853",
                        rtol=1e-6, atol=1e-6, dense_output=True).sol
        loose = OracleTrajectory(beta=beta, samples=((0.0, 0.0, _gamma(beta)),), interpolant=sol)
        assert loose.energy_drift > 1e-9

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
        fwd = scipy_ivp(_rhs(beta), (0.0, t_end), [0.0, _gamma(beta)], **kw)
        u1, q1 = fwd.y[:, -1]
        back = scipy_ivp(_rhs(beta), (0.0, t_end), [u1, -q1], **kw)
        u2, q2 = back.y[:, -1]
        assert beta * u2 == pytest.approx(0.0, abs=1e-8)
        assert beta * q2 == pytest.approx(-beta * _gamma(beta), abs=1e-8)

    @pytest.mark.parametrize("until", [math.inf, math.nan], ids=["inf-t_end", "nan-t_end"])
    def test_config_rejects_non_finite(self, until):
        with pytest.raises(DomainError, match="finite"):
            integrate(0.5, until)

    @pytest.mark.parametrize("until", [-1.0, 0.0, 1.0])
    def test_until_inside_the_first_quarter_stops_at_the_turn(self, until):
        # at beta = 0.5 the orbit turns at t ~ 1.66
        traj = integrate(0.5, until)
        assert traj.samples == integrate(0.5).samples
        (_, _, q_prev), (_, _, q_last) = traj.samples[-2:]
        assert q_prev > 0.0 >= q_last

    def test_config_caps_horizon(self, monkeypatch):
        with pytest.raises(DomainError, match="at most 10000"):
            integrate(0.5, 1e300)  # used to integrate without end
        with pytest.raises(DomainError, match="at most 10000"):
            integrate(0.5, np.nextafter(MAX_T_END, math.inf))

        # the cap itself passes the check, and every until reaches the stepper
        def dop853_reached(fun, y0):
            raise ValueError("integrator reached")

        monkeypatch.setattr(oracle, "_dop853", dop853_reached)
        for until in (MAX_T_END, 20.0, 0.0):
            with pytest.raises(OracleError, match="integrator reached"):
                integrate(0.5, until)

    def test_stepper_failure_names_beta(self, monkeypatch):
        # no step may cross t = 1, short of the turn at t ~ 1.66, so the stepper fails there
        stepper = oracle._dop853
        monkeypatch.setattr(oracle, "_dop853", lambda fun, y0: stepper(
            lambda t, y: fun(t, y) if t <= 1.0 else [math.nan, math.nan], y0))
        with pytest.raises(OracleError, match=r"^integration failed for beta=0\.5: Required step "
                                              r"size is less than spacing between numbers\.$"):
            integrate(0.5)

    def test_missing_scipy_is_not_an_oracle_error(self, monkeypatch):
        # a missing scipy raises ImportError, never the OracleError of exit 4
        monkeypatch.setitem(sys.modules, "scipy.integrate", None)
        with pytest.raises(ImportError, match="scipy.integrate"):
            integrate(0.5)


def _scipy_dop853(fun, y0):
    """scipy's ``DOP853`` class behind the generator interface of ``oracle._dop853``."""
    solver = scipy.integrate.DOP853(fun, 0.0, y0, oracle.MAX_T_END, rtol=TOL, atol=TOL)
    while solver.status == "running":
        if message := solver.step():
            raise OracleError(message)
        yield solver.t, solver.y.tolist(), solver.dense_output()


class TestStepper:
    """``oracle._dop853`` against scipy's ``DOP853`` class, its test oracle, on the same system.

    Each stage sum is one ``math.fsum`` where scipy takes a numpy dot product.  The embedded
    error estimate cancels about seven digits, so those last-bit differences move each step
    size by about 1e-8 relative (2e-6 by the turn at beta = 0.99); the steps are the same
    ones, and the trajectory through them agrees to rounding."""

    @staticmethod
    def _with_scipy(beta, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(oracle, "_dop853", _scipy_dop853)
            return integrate(beta)

    @pytest.mark.parametrize("beta", [1e-300, 0.1, 0.5, 0.9, 0.99])
    def test_same_steps_and_trajectory_as_scipy(self, beta, monkeypatch):
        ref, own = self._with_scipy(beta, monkeypatch), integrate(beta)
        assert len(own.samples) == len(ref.samples)
        ts, us, qs = np.array(own.samples).T
        assert np.allclose(ts, np.array(ref.samples)[:, 0], rtol=1e-5, atol=0.0)
        ts = ts[ts <= ref.samples[-1][0]]
        u_ref, q_ref = ref.interpolant(ts)
        assert np.max(np.abs(us[:ts.size] - u_ref)) <= 1e-13
        assert np.max(np.abs(qs[:ts.size] - q_ref)) <= 1e-13
        assert period(own) == pytest.approx(period(ref), rel=1e-12)

    def test_period_near_light_speed_matches_scipy(self, monkeypatch):
        beta = 0.9999999
        assert period(integrate(beta)) == pytest.approx(
            period(self._with_scipy(beta, monkeypatch)), rel=1e-12)

    def test_interpolant_is_scipys(self):
        traj = integrate(0.5)
        steps = traj.interpolant.interpolants
        assert {type(d) for d in steps} == {_tableau().interpolant}
        assert all(d.F.shape == (7, 2) and d.y_old.shape == (2,) for d in steps)

    def test_finishes_at_the_bound_like_scipy(self, monkeypatch):
        # the harmonic oscillator to t = 1: the last step is cut to land on the bound
        monkeypatch.setattr(oracle, "MAX_T_END", 1.0)
        rhs = lambda t, y: [y[1], -y[0]]
        own, ref = (list(stepper(rhs, [0.0, 1.0])) for stepper in (_dop853, _scipy_dop853))
        assert own[-1][0] == ref[-1][0] == 1.0
        assert own[-1][1] == pytest.approx(ref[-1][1], abs=1e-15)
        assert own[-1][1] == pytest.approx([math.sin(1.0), math.cos(1.0)], abs=1e-12)

    def test_fails_below_ten_ulps_like_scipy(self, monkeypatch):
        # no step may cross t = 1, so the steps shrink onto it until they fall below 10 ulps
        monkeypatch.setattr(oracle, "MAX_T_END", 10.0)
        rhs = lambda t, y: [y[1], -y[0]] if t <= 1.0 else [math.nan, math.nan]
        for stepper in (_dop853, _scipy_dop853):
            ts = []
            with pytest.raises(OracleError, match=r"^Required step size is less than spacing "
                                                  r"between numbers\.$"):
                for t, _, _ in stepper(rhs, [0.0, 1.0]):
                    ts.append(t)
            assert 1.0 - 1e-12 < ts[-1] <= 1.0

    def test_tableau_is_read_from_scipys_class(self, monkeypatch):
        S = scipy.integrate.DOP853
        tab = _tableau()
        assert tab.B == S.B.tolist() and tab.E5 == S.E5.tolist() and tab.E3 == S.E3.tolist()
        assert tab.D == S.D.tolist()
        assert tab.stages == list(zip(S.A[1:].tolist(), S.C[1:].tolist()))
        assert tab.extra == list(zip(S.A_EXTRA.tolist(), S.C_EXTRA.tolist()))
        # no coefficient is written out in the module
        source = inspect.getsource(oracle)
        digits = [repr(float(c))[:12] for c in (*S.B, *S.C, *S.E5, *S.E3, *S.D.ravel())]
        assert not [d for d in digits if len(d) == 12 and d in source]
        # and a changed class attribute reaches the stepper once the cache is cleared
        doubled = 2.0 * S.B
        monkeypatch.setattr(S, "B", doubled)
        _tableau.cache_clear()
        try:
            assert _tableau().B == doubled.tolist()
        finally:
            monkeypatch.undo()
            _tableau.cache_clear()
        assert _tableau().B == S.B.tolist()


class TestStopRule:
    """``integrate(beta, u)`` stops at the first accepted step at or past u
    once the samples bracket the first turning point, q > 0 then <= 0."""

    @staticmethod
    def _first_turn(samples):
        qs = [q for _, _, q in samples]
        return next(i for i in range(len(qs) - 1) if qs[i] > 0.0 >= qs[i + 1])

    @pytest.mark.parametrize("beta, until", [(1e-6, 0.0), (0.1, 0.0), (0.5, 1.0), (0.5, 3.0),
                                             (0.9, 0.0), (0.99, 5.0), (0.2, 10.0), (0.5, 17.3)])
    def test_samples_are_a_prefix_of_the_full_run(self, beta, until):
        full, part = integrate(beta, 20.0), integrate(beta, until)
        n = len(part.samples)
        assert n < len(full.samples)
        assert part.samples == full.samples[:n]
        assert part.interpolant.ts.tobytes() == full.interpolant.ts[:n].tobytes()
        i = self._first_turn(part.samples)
        assert part.samples[-1][0] >= until
        if until < part.samples[i + 1][0]:
            # until falls inside the first quarter: the last two samples bracket the turn
            assert i == n - 2
        else:
            # the first step at or past until, with the turn already bracketed
            assert part.samples[-2][0] < until

    @pytest.mark.parametrize("beta", [1e-6, 0.05, 0.1, 0.5, 0.9, 0.99, 0.996])
    def test_period_at_until_zero_is_the_full_horizon_period(self, beta):
        assert period(integrate(beta)) == period(integrate(beta, 20.0))

    def test_without_a_crossing_runs_to_t_end(self, monkeypatch):
        # the solver's bound MAX_T_END, here lowered below a quarter period, ends the trajectory
        monkeypatch.setattr(oracle, "MAX_T_END", 1.0)
        traj = integrate(0.1)
        assert traj.samples[-1][0] == 1.0
        assert all(q > 0.0 for _, _, q in traj.samples)

    def test_a_period_past_the_bound_stops_at_the_turn(self):
        # T ~ 10061 > MAX_T_END, yet the turn at T/4 ends the trajectory, far before the bound
        traj = integrate(0.99999999999995)
        (t_prev, _, q_prev), (t_last, _, q_last) = traj.samples[-2:]
        assert q_prev > 0.0 >= q_last
        assert t_prev < period(traj) / 4.0 <= t_last < MAX_T_END / 2.0

    @pytest.mark.parametrize("beta", [1e-6, 0.1, 0.5, 0.9])
    def test_energy_drift_covers_the_integrated_span(self, beta):
        # scipy's own OdeSolution of a longer run, over the span that was integrated
        traj = integrate(beta)
        full = integrate(beta, 20.0).interpolant
        assert traj.energy_drift == _relative_drift(beta, full, traj.interpolant.ts)


class TestSampling:
    def test_origin(self, long_trajectories):
        assert long_trajectories[0.1].sample_on_grid([0.0]) == [0.0]

    def test_accepted_step_matches_stored_sample(self, long_trajectories):
        # a step before the turn, where the positions are the interpolant's own
        traj = long_trajectories[0.2]
        before = [s for s in traj.samples if s[0] <= traj.turning_time]
        t, u, _ = before[len(before) // 2]
        assert 0.0 < t < traj.turning_time
        assert traj.sample_on_grid([t])[0] == pytest.approx(0.2 * u, rel=1e-13, abs=1e-15)

    def test_out_of_range(self, long_trajectories):
        # any time in [0, MAX_T_END] folds onto the first quarter orbit
        traj = long_trajectories[0.1]
        assert len(traj.sample_on_grid([101.0, MAX_T_END])) == 2
        for t in (np.nextafter(MAX_T_END, math.inf), 2.0 * MAX_T_END, -0.5):
            with pytest.raises(DomainError):
                traj.sample_on_grid([t])

    @pytest.mark.parametrize(
        "ts, first",
        [
            ([1.0, math.nan, -0.5], "nan"),
            ([1.0, -0.5, math.nan], "-0.5"),
            ([2.0, 10001.0, -0.5], "10001.0"),
        ],
    )
    def test_rejects_batch_naming_first_offender(self, long_trajectories, ts, first):
        traj = long_trajectories[0.1]
        with pytest.raises(DomainError, match=rf"^t={first} outside \[0, 10000\.0\]$"):
            traj.sample_on_grid(ts)

    @pytest.mark.parametrize("ts, shape", [(0.3, r"\(\)"), ([[0.1, 0.2]], r"\(1, 2\)"),
                                           (np.zeros((2, 0)), r"\(2, 0\)")])
    def test_refuses_times_that_are_not_1d(self, long_trajectories, ts, shape):
        # a scalar used to raise IndexError in _dense, and a 2-D array numpy's ValueError
        with pytest.raises(DomainError,
                           match=rf"^times must form a 1-D sequence, got shape {shape}$"):
            long_trajectories[0.1].sample_on_grid(ts)

    def test_empty(self, long_trajectories):
        assert long_trajectories[0.1].sample_on_grid([]) == []

    @pytest.mark.parametrize("kind", ["unsorted", "step_times"])
    def test_matches_scalar_interpolant_bit_for_bit(self, long_trajectories, kind):
        # the interpolant itself up to the turning time tau, and past it the fold
        # x(t) = (-1)^k beta u(min(s, 2 tau - s)) with s = t - 2 tau k, k = floor(t / 2 tau)
        traj = long_trajectories[0.5]
        tau = traj.turning_time
        steps = [t for t, _, _ in traj.samples]  # segment boundaries
        if kind == "unsorted":
            rng = np.random.default_rng(7)
            ts = rng.permutation(np.concatenate([rng.uniform(0.0, tau, 200), [tau],
                                                 rng.uniform(0.0, 100.0, 797), steps[::10]]))
        else:
            ts = steps

        def fold(t):
            k = math.floor(t / (2.0 * tau))
            s = t - 2.0 * tau * k
            return (-1.0) ** k * float(0.5 * traj.interpolant(min(s, 2.0 * tau - s))[0])

        expected = [float(0.5 * traj.interpolant(t)[0]) if t <= tau else fold(t) for t in ts]
        got = traj.sample_on_grid(ts)
        assert all(type(x) is float for x in got)
        assert got == expected
        assert sum(t <= tau for t in ts) >= 8

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
    def test_matches_elliptic_inversion(self, beta):
        # the folded quarter orbit keeps the phase error of one quarter period, so it
        # stays near the exact position far past where stepping on would drift
        # (1.9e-9 beta at beta = 0.5 and 2.2e-8 beta at 0.9 by t = 1000)
        for t_max, dt, bound in ((20.0, 0.5, 2e-11), (1000.0, 40.0, 1e-9)):
            rep = build_report(beta, t_max=t_max, dt=dt, methods=("oracle",))
            err = np.abs(np.subtract(rep.columns["oracle"], _elliptic_positions(beta, rep.grid)))
            assert np.max(err) <= bound * beta, (t_max, np.max(err) / beta)

    def test_midpoint_interpolation_accuracy(self):
        # dense output between accepted steps agrees with a direct
        # integration at the tighter tolerance 1e-13
        traj = integrate(0.2, 10.0)
        ts = np.linspace(0.1, 9.9, 333)
        a = traj.sample_on_grid(ts)
        b = _dop853_positions(0.2, 10.0, 1e-13, ts)
        assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-9


class TestDense:
    @pytest.mark.parametrize("until", [3.0, 20.0, 100.0])
    @pytest.mark.parametrize("beta", [1e-6, 0.1, 0.5, 0.77, 0.9])
    def test_matches_interpolant_bit_for_bit(self, beta, until):
        traj = integrate(beta, until)
        steps = traj.interpolant.ts
        rng = np.random.default_rng(11)
        ts = np.concatenate([rng.uniform(0.0, until, 500), steps, steps[::4],  # repeats
                             [0.0, until, 0.0, until]])
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

    def test_insufficient_horizon(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_T_END", 1.0)  # the solver's bound, below a quarter period
        with pytest.raises(OracleError, match=r"no turning point in \(0, 1\.0\]"):
            period(integrate(0.1))

    def test_a_quarter_period_of_horizon_suffices(self, monkeypatch):
        # a bound below half a period still holds the turning point, where stepping stops
        full = period(integrate(0.1, 20.0))
        monkeypatch.setattr(oracle, "MAX_T_END", 3.0)
        assert period(integrate(0.1)) == full

    def test_one_period_of_horizon_suffices(self):
        # the old two-crossing rule needed 2T ~ 12.6 inside the horizon
        assert period(integrate(0.1, 8.0)) == period(integrate(0.1, 20.0))

    @pytest.mark.parametrize("until", [20.0, 30.0])
    @pytest.mark.parametrize("beta", [1e-6, 0.05, 0.1, 0.5, 0.9])
    def test_matches_scalar_scan_bit_for_bit(self, beta, until):
        traj = integrate(beta, until)
        assert period(traj) == _scalar_turning_period(traj)
        assert period(traj) == pytest.approx(_scalar_first_crossing(traj), rel=1e-11)

    @pytest.mark.parametrize("beta", [1e-300, 0.1, 0.5, 0.9, 0.99999999999995])
    def test_call_budget(self, beta, monkeypatch):
        # Brent's method converges in a handful of OdeSolution calls; at least one, because
        # perfbench's oracle.interp_calls counts the root finder's calls on the interpolant
        traj = integrate(beta)
        calls, call = [], type(traj.interpolant).__call__
        monkeypatch.setattr(type(traj.interpolant), "__call__",
                            lambda sol, t: calls.append(t) or call(sol, t))
        period(traj)
        assert 1 <= len(calls) <= 8

    def test_interpolant_returns_the_samples_at_the_bracket_ends(self):
        # brentq evaluates both ends and needs q > 0 at the first and q <= 0 at the second
        misses = []
        for beta in [1e-300, *np.linspace(0.01, 0.99, 50).tolist(), 0.99999999999995]:
            traj = integrate(beta)
            i = next(i for i, (a, b) in enumerate(zip(traj.samples, traj.samples[1:]))
                     if a[2] > 0.0 >= b[2])
            for t, _, q in traj.samples[i:i + 2]:
                if np.float64(traj.interpolant(t)[1]).tobytes() != np.float64(q).tobytes():
                    misses.append((beta, t))
        assert not misses

    @pytest.mark.parametrize("beta", [1e-6, *BETAS, 0.99])
    def test_independent_of_horizon(self, beta):
        # the DOP853 steps before the first turn do not depend on how far stepping goes
        assert len({period(integrate(beta, until)) for until in (0.0, 20.0, 30.0, 100.0)}) == 1

    @settings(max_examples=15, deadline=None)
    @given(beta=st.floats(min_value=0.05, max_value=0.996))
    def test_matches_energy_quadrature(self, beta):
        # Independent oracle: R. E. Mickens, J. Sound Vib. 212 (1998) 905-908.
        assert period(integrate(beta)) == pytest.approx(
            _quadrature_period(beta), rel=1e-9
        )


class TestWholeBetaRange:
    """The period against the closed form from beta = 1e-300 to 1 - 1e-13."""

    @settings(max_examples=25, deadline=None)
    @given(exponent=st.floats(min_value=-300.0, max_value=math.log10(0.5)))
    def test_small_beta(self, exponent):
        beta = 10.0**exponent
        assert period(integrate(beta)) == pytest.approx(_closed_form_period(beta), rel=1e-11)

    @settings(max_examples=25, deadline=None)
    @given(exponent=st.floats(min_value=-13.0, max_value=math.log10(0.5)))
    @example(exponent=-11.504231847944919)  # the first-return period was 1.15e-11 off here
    def test_near_light_speed(self, exponent):
        beta = 1.0 - 10.0**exponent
        assert period(integrate(beta)) == pytest.approx(_closed_form_period(beta), rel=1e-11)

    @pytest.mark.parametrize("beta", [5e-324, 1e-315, 2.2e-308])
    def test_subnormal_beta(self, beta):
        # an absolute tolerance TOL * beta would underflow to 0 and DOP853 would never finish a step
        assert period(integrate(beta)) == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_closed_form_matches_quadrature(self):
        for beta in (1e-300, 1e-6, 0.1, 0.5, 0.9, 0.99, 0.9999):
            assert _closed_form_period(beta) == pytest.approx(_quadrature_period(beta), rel=1e-13)

    def test_long_period_bisection_ends(self):
        # past T = 8192 the float spacing exceeds 1e-12, where an earlier bisection hung
        beta = 0.9999999999999
        t0 = time.perf_counter()
        p = period(integrate(beta))
        assert time.perf_counter() - t0 < 1.0
        assert p == pytest.approx(8458.312666279, rel=1e-11)
        assert p == pytest.approx(_closed_form_period(beta), rel=1e-11)


def _bisect(x, lo, hi, tol=1e-12):
    """The zero of x in [lo, hi] with x(lo) < 0 <= x(hi), bisected to tol."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if x(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scalar_turning_period(traj):
    """Reference: four times the first turning time, where q goes from > 0 to <= 0
    between accepted steps, found by Brent's method with scalar dense-output calls."""
    q = lambda t: float(traj.interpolant(t)[1])
    for (a, _, qa), (b, _, qb) in zip(traj.samples, traj.samples[1:]):
        if qa > 0.0 >= qb:
            return 4.0 * brentq(q, a, b, xtol=2.5e-13)
    raise AssertionError("no turning point")


def _scalar_first_crossing(traj):
    """The earlier rule: the first upward crossing between accepted steps after
    t = 0, bisected with one scalar dense-output call per step."""
    x = lambda t: float(traj.interpolant(t)[0])
    for (a, xa, _), (b, xb, _) in zip(traj.samples[1:], traj.samples[2:]):
        if xa < 0.0 <= xb:
            return _bisect(x, a, b)
    raise AssertionError("no upward crossing")


def _closed_form_period(beta):
    """Period in closed form, T = 4 sqrt(2) [sqrt(1+g) E(m) - K(m)/sqrt(1+g)].

    g = 1/sqrt((1-beta)(1+beta)), the same gamma as the oracle's initial
    momentum (1 - beta^2 loses about 5e-5 relative at beta = 1 - 1e-12),
    and m = (g-1)/(g+1); R. E. Mickens, J. Sound Vib. 212 (1998) 905-908.
    """
    g = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
    m, s = (g - 1.0) / (g + 1.0), math.sqrt(1.0 + g)
    return float(4.0 * math.sqrt(2.0) * (s * ellipe(m) - ellipk(m) / s))


def _elliptic_positions(beta, ts):
    """Exact x(t) at 40 digits, by inverting t = sqrt(2) [sqrt(1+g) E(psi|m) - F(psi|m)/sqrt(1+g)]
    for x = A sin(psi), A = sqrt(2(g-1)), with Newton's method after reducing t modulo
    T/2, since t(psi + pi) = t(psi) + T/2; g and m as in ``_closed_form_period``."""
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        g = 1 / mpmath.sqrt((1 - b) * (1 + b))
        m, s = (g - 1) / (g + 1), mpmath.sqrt(1 + g)
        t_of = lambda psi: mpmath.sqrt(2) * (s * mpmath.ellipe(psi, m) - mpmath.ellipf(psi, m) / s)

        def dt_of(psi):
            r = mpmath.sqrt(1 - m * mpmath.sin(psi) ** 2)
            return mpmath.sqrt(2) * (s * r - 1 / (s * r))

        half = 2 * t_of(mpmath.pi / 2)
        xs = []
        for t in ts:
            k = mpmath.floor(mpmath.mpf(t) / half)
            t = mpmath.mpf(t) - k * half
            psi = mpmath.pi * t / half
            for _ in range(50):
                step = (t_of(psi) - t) / dt_of(psi)
                psi -= step
                if abs(step) < mpmath.mpf("1e-25"):  # Newton: what is left is below 1e-40
                    break
            xs.append(float(mpmath.sqrt(2 * (g - 1)) * mpmath.sin(psi + k * mpmath.pi)))
        return np.array(xs)


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
