"""The exact oracle, each property asserted in one place.

Test names from the DOP853 oracle are kept, so the suite's ids stay stable.  ``integrate(beta,
until)`` checks ``until`` and ignores it: the tests named after a horizon or a stop rule are cases
of ``_assert_until_changes_nothing`` and ``_assert_max_t_end_bounds_only_sampling``.  Only
perfbench's step counter reads ``samples``: ``TestIntegrate::test_initial_condition_exact`` pins
it, ``TestPeriod::test_interpolant_returns_the_samples_at_the_bracket_ends`` pins its bits, and
the other tests read ``turning_time`` and the amplitude ``interpolant([turning_time])[0][0]``.
"""

import math
import re
import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp as scipy_ivp
from scipy.special import ellipe, ellipk

from ladm import DomainError, OracleError, build_report, hbm_frequency, integrate, oracle, period
from ladm.oracle import MAX_T_END, _excess_energy, _rf_rd
from ladm.report import make_grid

BETAS = [0.1, 0.2, 0.5, 0.9]
NOT_1D = [(0.3, r"\(\)"), ([[0.1, 0.2]], r"\(1, 2\)"), (np.zeros((2, 0)), r"\(2, 0\)")]


@pytest.fixture(scope="module")
def trajectories():
    return {beta: integrate(beta) for beta in BETAS}


def _gamma(beta):
    """The initial momentum in units of beta, 1/sqrt((1 - beta)(1 + beta))."""
    return 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))


def _speed(p):
    return p / np.hypot(1.0, p)


def _rhs(beta):
    """Hamilton's equations in units of beta: (u, q)' = (q / sqrt(1 + (beta q)^2), -u)."""
    return lambda t, y: [y[1] / math.hypot(1.0, beta * y[1]), -y[0]]


def _relative_drift(beta, sol, ts):
    """max |h - h(0)| / h(0) of h = (H - 1)/beta^2 from a trajectory's (u, q) = sol(ts)."""
    u, q = sol(ts)
    h = q * q / (1.0 + np.hypot(1.0, beta * q)) + 0.5 * u * u
    q0 = _gamma(beta)
    h0 = q0 * q0 / (1.0 + np.hypot(1.0, beta * q0))
    return float(np.max(np.abs(h - h0)) / h0)


def _amplitude(traj):
    """u at the turning time, A / beta."""
    return traj.interpolant([traj.turning_time])[0][0]


def _assert_until_changes_nothing(beta, until):
    """integrate(beta, until) is, bit for bit, integrate(beta): until is checked, not a horizon."""
    traj, ref = integrate(beta, until), integrate(beta)
    assert (traj.samples, traj.turning_time) == (ref.samples, ref.turning_time)
    assert period(traj) == period(ref)
    grid = np.linspace(0.0, MAX_T_END, 201)
    assert traj.sample_on_grid(grid) == ref.sample_on_grid(grid)


def _assert_max_t_end_bounds_only_sampling(monkeypatch, bound):
    """A smaller MAX_T_END, here below a quarter period or half of one at beta = 0.1, leaves the
    period as it was and bounds the times that sample_on_grid accepts."""
    want = period(integrate(0.1))
    monkeypatch.setattr(oracle, "MAX_T_END", bound)
    traj = integrate(0.1)
    assert period(traj) == want
    message = f"t={1.5 * bound} outside [0, {bound}]"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        traj.sample_on_grid([1.5 * bound])


def _time_calls(monkeypatch, beta, ts):
    """The batch size of each _time call that sample_on_grid(ts) makes at beta."""
    traj = integrate(beta)
    calls, time_of = [], traj._time
    monkeypatch.setattr(traj, "_time", lambda s, c: calls.append(s.size) or time_of(s, c))
    traj.sample_on_grid(ts)
    return calls


def _assert_drift_is_rounding(beta):
    """The exact trajectory conserves h, so in units of beta only rounding is left at every beta,
    and it is the drift of the independent monitor on the first quarter orbit."""
    traj = integrate(beta)
    assert 0.0 < traj.energy_drift <= 4e-15
    ts = np.linspace(0.0, traj.turning_time, 2048)
    assert traj.energy_drift == _relative_drift(beta, traj.interpolant, ts)


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


class TestCarlson:
    """``oracle._rf_rd`` against mpmath's R_F and R_D at 30 digits and Carlson's own test values."""

    def test_against_mpmath(self):
        rng = np.random.default_rng(4)
        x = np.concatenate([[0.0, 5e-324, 1e-30], rng.uniform(0.0, 1.0, 200)])
        z = np.concatenate([[1e-8, 1.0, 0.5], 10.0 ** rng.uniform(-9.0, 0.0, 200)])
        rf, rd, _ = _rf_rd(x, 1.0, z)
        with mpmath.workdps(30):
            want_f = np.array([float(mpmath.elliprf(a, 1, c)) for a, c in zip(x, z)])
            want_d = np.array([float(mpmath.elliprd(a, 1, c)) for a, c in zip(x, z)])
        assert np.max(np.abs(rf / want_f - 1.0)) <= 1e-15
        assert np.max(np.abs(rd / want_d - 1.0)) <= 1e-15

    def test_carlsons_values(self):
        # B. C. Carlson, Numer. Algorithms 10 (1995) 13-26, section 3
        rf, _, _ = _rf_rd(np.array([0.0, 2.0]), np.array([1.0, 3.0]), np.array([2.0, 4.0]))
        assert rf.tolist() == pytest.approx([1.3110287771461, 0.58408284167715], rel=1e-13)
        _, rd, _ = _rf_rd(np.array([0.0, 2.0]), np.array([2.0, 3.0]), np.array([1.0, 4.0]))
        assert rd.tolist() == pytest.approx([1.7972103521034, 0.16510527294261], rel=1e-13)

    def test_empty(self):
        assert [np.shape(v) for v in _rf_rd(np.zeros(0), 1.0, np.ones(0))] == [(0,), (0,), ()]


class TestIntegrate:
    """The trajectory's domain and refusals, its samples and what the exact solution conserves."""

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_beta_domain(self, beta):
        with pytest.raises(DomainError):
            integrate(beta)

    def test_initial_condition_exact(self):
        # samples are the start (0, 0, g) and the turn (tau, A / beta, 0), A = sqrt(2 (g - 1)),
        # and the start moves at speed beta
        for beta in (1e-6, 0.1, 0.2, 0.5, 0.9, 0.99):
            traj, g = integrate(beta), _gamma(beta)
            (t0, u0, q0), (tau, amplitude, q_turn) = traj.samples
            assert (t0, u0, q0, tau, q_turn) == (0.0, 0.0, g, traj.turning_time, 0.0)
            assert beta * amplitude == pytest.approx(
                math.sqrt(2.0 * (g - 1.0)) if beta > 1e-3 else beta, rel=1e-9)
            assert _speed(beta * q0) == pytest.approx(beta, rel=1e-15)

    @pytest.mark.parametrize("beta", BETAS)
    def test_energy_drift(self, beta):
        _assert_drift_is_rounding(beta)

    @pytest.mark.parametrize("beta", BETAS)
    def test_speed_bound(self, trajectories, beta):
        # v is extremal at x=0 by energy conservation, so |v| <= beta
        traj = trajectories[beta]
        ts = np.linspace(0.0, 100.0, 4001)
        vs = _speed(beta * traj.interpolant(ts)[1])
        assert np.max(np.abs(vs)) <= beta + 1e-9

    @pytest.mark.parametrize("beta", [1e-300, 1e-12, 0.5, 0.9])
    def test_energy_drift_is_relative_at_every_beta(self, beta):
        _assert_drift_is_rounding(beta)

    def test_samples_strictly_increasing(self, trajectories):
        ts = [t for t, _, _ in trajectories[0.2].samples]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_nonrelativistic_limit(self):
        beta = 1e-6
        traj = integrate(beta)
        ts = np.linspace(0.0, 10.0, 500)
        xs = traj.sample_on_grid(ts)
        for t, x in zip(ts, xs):
            assert x == pytest.approx(beta * math.sin(t), abs=1e-9)

    def test_time_reversal_symmetry(self):
        # x is odd with period P and p = x'/sqrt(1 - x'^2) even, so u(P - t) = -u(t) and
        # q(P - t) = q(t): within 1e-14 of the amplitude and of g over one period (1.7e-15 seen)
        for beta in (1e-6, 0.3, 0.9, 0.99999999999995):
            traj = integrate(beta)
            big_p = period(traj)
            ts = np.linspace(0.0, big_p, 1001)
            (u, q), (u_back, q_back) = traj.interpolant(ts), traj.interpolant(big_p - ts)
            assert np.max(np.abs(u_back + u)) <= 1e-14 * _amplitude(traj), beta
            assert np.max(np.abs(q_back - q)) <= 1e-14 * _gamma(beta), beta

    @pytest.mark.parametrize("until", [math.inf, math.nan], ids=["inf-t_end", "nan-t_end"])
    def test_config_rejects_non_finite(self, until):
        with pytest.raises(DomainError, match="finite"):
            integrate(0.5, until)

    @pytest.mark.parametrize("until", [-1.0, 0.0, 1.0])
    def test_until_inside_the_first_quarter_stops_at_the_turn(self, until):
        _assert_until_changes_nothing(0.5, until)

    def test_config_caps_horizon(self):
        # an until past MAX_T_END is refused; the cap itself is a case of the until tests
        with pytest.raises(DomainError, match=r"^until must be finite and at most 10000, got "):
            integrate(0.5, 1e300)  # used to integrate without end
        with pytest.raises(DomainError, match="at most 10000"):
            integrate(0.5, np.nextafter(MAX_T_END, math.inf))

    def test_missing_scipy_is_not_an_oracle_error(self, monkeypatch):
        # the oracle needs numpy alone: a missing scipy raises nothing
        for name in ("scipy", "scipy.integrate", "scipy.optimize", "scipy.special"):
            monkeypatch.setitem(sys.modules, name, None)
        traj = integrate(0.5)
        assert period(traj) == pytest.approx(6.639256215828, rel=1e-12)
        assert traj.sample_on_grid([0.0, 1000.0])[0] == 0.0

    def test_newton_cap_names_beta(self, monkeypatch):
        # a position whose Newton iteration does not meet the stop rule is an OracleError
        monkeypatch.setattr(oracle, "_NEWTON_CAP", 1)
        with pytest.raises(OracleError, match=r"^Newton's method did not converge for beta=0\.5$"):
            integrate(0.5).sample_on_grid([1.0])


class TestStepper:
    """The exact trajectory against an independent reference: scipy's DOP853 at rtol = atol =
    1e-13 on the same system in units of beta."""

    @pytest.mark.parametrize("beta", [1e-300, 0.1, 0.2, 0.5, 0.9, 0.99])
    def test_same_steps_and_trajectory_as_scipy(self, beta):
        # at scipy's own accepted steps on [0, 100], and between them through its dense output
        sol = scipy_ivp(_rhs(beta), (0.0, 100.0), [0.0, _gamma(beta)], method="DOP853",
                        rtol=1e-13, atol=1e-13, dense_output=True)
        traj = integrate(beta)
        u, q = traj.interpolant(sol.t)
        assert np.max(np.abs(u - sol.y[0])) <= 1e-9
        assert np.max(np.abs(q - sol.y[1])) <= 1e-9
        ts = np.linspace(0.0, 100.0, 1001)
        assert np.max(np.abs(np.subtract(traj.sample_on_grid(ts), beta * sol.sol(ts)[0]))) <= (
            1e-9 * beta)

    def test_period_near_light_speed_matches_scipy(self):
        # four times the first turn, where q falls through 0, located by DOP853's event search
        beta = 0.9999999
        turn = lambda t, y: y[1]
        turn.terminal, turn.direction = True, -1
        sol = scipy_ivp(_rhs(beta), (0.0, 1e3), [0.0, _gamma(beta)], method="DOP853",
                        rtol=1e-13, atol=1e-13, events=turn)
        assert period(integrate(beta)) == pytest.approx(4.0 * sol.t_events[0][0], rel=1e-12)


class TestStopRule:
    """Cases of the until and drift checks, and Newton's stop rule |t(psi) - s| <= 4 eps tau."""

    @pytest.mark.parametrize("beta, until", [(1e-6, 0.0), (0.1, 0.0), (0.5, 1.0), (0.5, 3.0),
                                             (0.9, 0.0), (0.99, 5.0), (0.2, 10.0), (0.5, 17.3)])
    def test_samples_are_a_prefix_of_the_full_run(self, beta, until):
        _assert_until_changes_nothing(beta, until)

    @pytest.mark.parametrize("beta", [1e-6, 0.05, 0.1, 0.5, 0.9, 0.99, 0.996])
    def test_period_at_until_zero_is_the_full_horizon_period(self, beta):
        _assert_until_changes_nothing(beta, 20.0)

    def test_a_period_past_the_bound_stops_at_the_turn(self):
        # T ~ 10061 > MAX_T_END
        _assert_until_changes_nothing(0.99999999999995, MAX_T_END)

    @pytest.mark.parametrize("beta", [1e-6, 0.1, 0.5, 0.9])
    def test_energy_drift_covers_the_integrated_span(self, beta):
        _assert_drift_is_rounding(beta)

    @pytest.mark.parametrize("beta", [0.1, 0.9, 0.999, 0.99999999999995, 0.9999999999999999])
    def test_residual_rule(self, beta, monkeypatch):
        # each position, read back as psi from u = U sin(psi) and q = g cos(psi) D(psi), lies
        # within the 4 eps tau of the rule, and rounding, of its time; a step rule |dpsi| <= 1e-14
        # stalls near beta = 1, where dt/dpsi -> 1 while tau ~ 1e4
        traj = integrate(beta)
        amplitude, calls, time_of = _amplitude(traj), [], traj._time
        monkeypatch.setattr(traj, "_time", lambda s, c: calls.append(s.size) or time_of(s, c))
        folded = np.linspace(0.0, traj.turning_time, 2001)
        u, q = traj.interpolant(folded)
        r = q / traj.g  # c D(psi), and c^2 solves m c^4 + (1 - m) c^2 = r^2
        c = np.sqrt(2.0 * r * r / (traj.mc + np.sqrt(traj.mc**2 + 4.0 * traj.m * r * r)))
        psi = np.arctan2(u / amplitude, c)
        t, _ = time_of(np.sin(psi), np.cos(psi))
        assert np.max(np.abs(t - folded)) <= 8.0 * np.finfo(float).eps * traj.turning_time
        assert len(calls) <= 14


class TestSampling:
    """``sample_on_grid``: its domain, the fold, and the 40-digit mpmath inversion."""

    def test_origin(self, trajectories):
        assert trajectories[0.1].sample_on_grid([0.0]) == [0.0]

    def test_accepted_step_matches_stored_sample(self, trajectories):
        # at the turning time the position is beta times the amplitude and the momentum is 0
        traj = trajectories[0.2]
        (u,), (q,) = traj.interpolant([traj.turning_time])
        assert traj.sample_on_grid([traj.turning_time]) == [0.2 * u] and abs(q) <= 1e-15

    def test_out_of_range(self, trajectories):
        # any time in [0, MAX_T_END] folds onto the first quarter orbit
        traj = trajectories[0.1]
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
    def test_rejects_batch_naming_first_offender(self, trajectories, ts, first):
        traj = trajectories[0.1]
        with pytest.raises(DomainError, match=rf"^t={first} outside \[0, 10000\.0\]$"):
            traj.sample_on_grid(ts)

    @pytest.mark.parametrize("ts, shape", NOT_1D)
    def test_refuses_times_that_are_not_1d(self, trajectories, ts, shape):
        with pytest.raises(DomainError,
                           match=rf"^times must form a 1-D sequence, got shape {shape}$"):
            trajectories[0.1].sample_on_grid(ts)

    def test_empty(self, trajectories):
        assert trajectories[0.1].sample_on_grid([]) == []

    @pytest.mark.parametrize("kind", ["unsorted", "step_times"])
    def test_matches_scalar_interpolant_bit_for_bit(self, trajectories, kind):
        # one time at a time, and past the turning time tau the fold
        # x(t) = (-1)^k x(min(s, 2 tau - s)) with s = t - 2 tau k, k = floor(t / 2 tau);
        # "step_times" are the ends of the first quarter orbit, 0 and tau
        traj = trajectories[0.5]
        tau = traj.turning_time
        ends = [0.0, tau]
        if kind == "unsorted":
            rng = np.random.default_rng(7)
            ts = rng.permutation(np.concatenate([rng.uniform(0.0, tau, 200), [tau],
                                                 rng.uniform(0.0, 100.0, 797), ends]))
        else:
            ts = ends

        def fold(t):
            k = math.floor(t / (2.0 * tau))
            s = t - 2.0 * tau * k
            return (-1.0) ** k * traj.sample_on_grid([min(s, 2.0 * tau - s)])[0]

        expected = [traj.sample_on_grid([t])[0] if t <= tau else fold(t) for t in ts]
        got = traj.sample_on_grid(ts)
        assert all(type(x) is float for x in got)
        assert got == expected
        assert sum(t <= tau for t in ts) >= 2

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.999, 0.99999999999995])
    def test_matches_elliptic_inversion(self, beta):
        # within 1e-12 of the amplitude up to t = 1000: the fold multiplies the period's
        # rounding by t / T, 3e-13 at most
        amplitude = beta * _amplitude(integrate(beta))
        for t_max, dt in ((20.0, 0.5), (1000.0, 40.0)):
            rep = build_report(beta, t_max=t_max, dt=dt, methods=("oracle",))
            err = np.abs(np.subtract(rep.columns["oracle"], _elliptic_positions(beta, rep.grid)))
            assert np.max(err) <= 1e-12 * amplitude, (t_max, np.max(err) / amplitude)


class TestDense:
    """Batch bit-identity of ``interpolant``: a batch of times gives, bit for bit, what each time
    gives alone, since a position stops iterating once it meets the stop rule; and its refusals."""

    @pytest.mark.parametrize("t_max", [3.0, 20.0, 100.0])
    @pytest.mark.parametrize("beta", [1e-6, 0.1, 0.5, 0.77, 0.9])
    def test_matches_interpolant_bit_for_bit(self, beta, t_max):
        traj = integrate(beta)
        rng = np.random.default_rng(11)
        ts = rng.uniform(0.0, t_max, 100)
        ts = rng.permutation(np.concatenate([ts, ts[::4], [0.0, t_max, traj.turning_time]]))
        got = np.array(traj.interpolant(ts))
        want = np.array([np.array(traj.interpolant([t]))[:, 0] for t in ts]).T
        assert got.shape == want.shape == (2, ts.size)
        assert got.tobytes() == want.tobytes()

    def test_single_and_empty(self, trajectories):
        traj = trajectories[0.2]
        for t in (0.0, traj.turning_time, 37.25, 100.0):
            u, q = traj.interpolant([t])
            assert u.shape == q.shape == (1,)
        assert [v.shape for v in traj.interpolant([])] == [(0,), (0,)]

    @pytest.mark.parametrize("ts, shape", NOT_1D)
    def test_refuses_times_that_are_not_1d(self, trajectories, ts, shape):
        with pytest.raises(DomainError,
                           match=rf"^times must form a 1-D sequence, got shape {shape}$"):
            trajectories[0.1].interpolant(ts)

    @pytest.mark.parametrize("ts, first", [
        ([math.nan], "nan"), ([1.0, math.inf, math.nan], "inf"), ([-2.0, -math.inf], "-inf")])
    def test_refuses_a_time_that_is_not_finite(self, trajectories, ts, first):
        # a NaN used to come back as a NaN position; times of either sign are folded
        with pytest.raises(DomainError, match=rf"^t={first} is not finite$"):
            trajectories[0.1].interpolant(ts)


class TestPeriod:
    """The period, four times the turning time, against independent references; the cost of a
    grid; and cases of the until and MAX_T_END checks."""

    def test_nonrelativistic_limit(self):
        assert period(integrate(1e-6)) == pytest.approx(
            2.0 * math.pi, abs=1e-6
        )

    def test_beta_01_vs_hbm(self, trajectories):
        p = period(trajectories[0.1])
        assert p == pytest.approx(2.0 * math.pi / hbm_frequency(0.1), abs=1e-2)

    def test_monotone_in_beta(self, trajectories):
        # relativistic slowing: the period grows with the initial speed
        periods = [period(trajectories[b]) for b in BETAS]
        assert all(a < b for a, b in zip(periods, periods[1:]))

    def test_insufficient_horizon(self, monkeypatch):
        _assert_max_t_end_bounds_only_sampling(monkeypatch, 1.0)

    def test_a_quarter_period_of_horizon_suffices(self, monkeypatch):
        _assert_max_t_end_bounds_only_sampling(monkeypatch, 3.0)

    def test_one_period_of_horizon_suffices(self):
        _assert_until_changes_nothing(0.1, 8.0)

    @pytest.mark.parametrize("until", [20.0, 30.0])
    @pytest.mark.parametrize("beta", [1e-6, 0.05, 0.1, 0.5, 0.9])
    def test_matches_scalar_scan_bit_for_bit(self, beta, until):
        # t(pi/2) on Python floats gives the bits of the array evaluation, and the first
        # upward zero of x, bisected on one-time calls, lies at the period
        traj = integrate(beta, until)
        assert period(traj) == 4.0 * float(traj._time(1.0, 0.0)[0])
        assert traj.turning_time == float(traj._time(np.ones(1), np.zeros(1))[0][0])
        assert period(traj) == pytest.approx(_scalar_first_crossing(traj), rel=1e-11)

    @pytest.mark.parametrize("beta", [1e-300, 0.1, 0.5, 0.9, 0.99999999999995])
    def test_call_budget(self, beta, monkeypatch):
        # t(psi) on the 65 starting nodes, then a handful of Newton passes over a 20001-point grid
        calls = _time_calls(monkeypatch, beta, np.linspace(0.0, MAX_T_END, 20001))
        assert calls[0] == 65 and 2 <= len(calls) <= 9
        assert sum(calls[1:]) <= 4 * 20001

    @pytest.mark.parametrize("beta", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("grid", ["sweep", "t_max-20"])
    def test_hermite_start_takes_two_newton_passes(self, beta, grid, monkeypatch):
        # the 65 nodes, one Newton step and the pass that finds every point within the rule, on
        # sweep_csv's 51 points to t = 5 and on 2001 points to t = 20; a linear start took four
        ts = make_grid(5.0, 0.1) if grid == "sweep" else np.linspace(0.0, 20.0, 2001)
        calls = _time_calls(monkeypatch, beta, ts)
        assert len(calls) == 3 and calls[0] == 65

    def test_hermite_start_stays_in_its_node_bracket(self, monkeypatch):
        # near beta = 1 an unclamped cubic start overshoots its bracket and costs a ninth pass
        ts = np.linspace(0.0, MAX_T_END, 20001)
        assert len(_time_calls(monkeypatch, 0.99999999999995, ts)) <= 8

    def test_float_constructor_matches_the_array_path(self):
        # steps and tau on Python floats are, bit for bit, _rf_rd's and _time's on numpy arrays,
        # so every period print stays as it was, from 5e-324 to the largest float below 1
        betas = [5e-324, *np.logspace(-323, -1, 300), *np.linspace(0.1, 0.99, 200),
                 *(1.0 - np.logspace(-2, -16, 99)), 0.9999999999999999]
        misses = []
        for beta in map(float, betas):
            traj = integrate(beta)
            steps = _rf_rd(np.zeros(1), np.ones(1), np.full(1, traj.mc))[2]
            tau = traj._time(np.ones(1), np.zeros(1))[0][0]
            if (type(traj.turning_time), traj.steps, traj.turning_time) != (float, steps, tau):
                misses.append(beta)
        assert not misses

    def test_interpolant_returns_the_samples_at_the_bracket_ends(self):
        # the start and the turn, the ends of the first quarter orbit, from 1e-300 to 1 - 1e-16
        misses = []
        for beta in [1e-300, *BETAS, *np.linspace(0.01, 0.99, 50).tolist(), 0.99999999999995,
                     0.9999999999999999]:
            traj = integrate(beta)
            (t0, u0, q0), (tau, u1, _) = traj.samples
            (u_start, u_turn), (q_start, q_turn) = traj.interpolant([t0, tau])
            if not (u_start == 0.0 and q_start == pytest.approx(q0, rel=1e-15) and u_turn == u1
                    and abs(q_turn) <= 1e-15 * q0):
                misses.append(beta)
        assert not misses

    @pytest.mark.parametrize("beta", [1e-6, *BETAS, 0.99])
    def test_independent_of_horizon(self, beta):
        for until in (-1.0, 0.0, 20.0, 30.0, 100.0, MAX_T_END):
            _assert_until_changes_nothing(beta, until)

    @settings(max_examples=15, deadline=None)
    @given(beta=st.floats(min_value=0.05, max_value=0.996))
    def test_matches_energy_quadrature(self, beta):
        # Independent oracle: R. E. Mickens, J. Sound Vib. 212 (1998) 905-908.
        assert period(integrate(beta)) == pytest.approx(
            _quadrature_period(beta), rel=1e-12
        )


class TestWholeBetaRange:
    """The period against the closed form from beta = 1e-300 to 1 - 1.1e-16, the largest below 1."""

    @settings(max_examples=25, deadline=None)
    @given(exponent=st.floats(min_value=-300.0, max_value=math.log10(0.5)))
    @example(exponent=-1.0)
    def test_small_beta(self, exponent):
        beta = 10.0**exponent
        assert period(integrate(beta)) == pytest.approx(_closed_form_period(beta), rel=4e-15)

    @settings(max_examples=25, deadline=None)
    @given(exponent=st.floats(min_value=-15.92, max_value=math.log10(0.5)))
    @example(exponent=-11.504231847944919)  # the first-return period was 1.15e-11 off here
    @example(exponent=math.log10(1.0 - 0.9999999999999999))
    def test_near_light_speed(self, exponent):
        beta = 1.0 - 10.0**exponent
        assert period(integrate(beta)) == pytest.approx(_closed_form_period(beta), rel=4e-15)

    @pytest.mark.parametrize("beta", [5e-324, 1e-315, 2.2e-308])
    def test_subnormal_beta(self, beta):
        # in units of beta the subnormal amplitude loses nothing
        assert period(integrate(beta)) == pytest.approx(2.0 * math.pi, rel=4e-15)

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
        assert p == pytest.approx(_closed_form_period(beta), rel=4e-15)


def _bisect(x, lo, hi, tol=1e-12):
    """The zero of x in [lo, hi] with x(lo) < 0 <= x(hi), bisected to tol."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if x(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scalar_first_crossing(traj):
    """The first upward zero of x after t = 0, between three and five turning times (x is
    -A and A there), bisected with one-time calls of sample_on_grid."""
    tau = traj.turning_time
    return _bisect(lambda t: traj.sample_on_grid([t])[0], 3.0 * tau, 5.0 * tau)


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
            else:
                raise AssertionError(f"no 40-digit inversion at t={t}")
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
