import math

import pytest

from ladm import (
    AnalyticNonlinearity as NL,
    DomainError,
    IVPSpec,
    TimePolynomial as TP,
    oscillator_kappa,
    oscillator_series,
    residual,
    series_frequency,
    solve_ivp,
    tail_bound,
)
from ladm.solver import MAX_TERMS

BETAS = [0.1, 0.2, 0.5, 0.9]


class TestIVPSpec:
    def test_oscillator_requires_zero_alpha(self):
        spec = IVPSpec.oscillator(0.1)
        assert (spec.alpha, spec.beta) == (0.0, 0.1)
        assert solve_ivp(spec, 1).components[0].as_dict() == {1: 0.1}

    def test_tag_string_rejected(self):
        with pytest.raises(DomainError):
            IVPSpec(0.0, 0.1, "relativistic-oscillator")

    def test_oscillator_is_frozen_linear(self):
        nonlin = IVPSpec.oscillator(0.5).nonlinearity
        kappa = oscillator_kappa(0.5)
        assert [nonlin.deriv(2.0, j) for j in range(4)] == [2.0 * kappa, kappa, 0.0, 0.0]

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.2])
    def test_oscillator_beta_domain(self, beta):
        with pytest.raises(DomainError):
            IVPSpec.oscillator(beta)

    def test_unknown_tag(self):
        with pytest.raises(DomainError):
            IVPSpec(alpha=0.0, beta=0.1, nonlinearity="bogus")

    @pytest.mark.parametrize("alpha, beta", [(math.nan, 0.5), (0.3, math.nan), (math.inf, 0.5),
                                             (0.3, -math.inf)])
    def test_non_finite_initial_data(self, alpha, beta):
        with pytest.raises(DomainError):
            IVPSpec(alpha, beta, NL.exp())


class TestSolveIVP:
    def test_oscillator_beta_01_first_components(self):
        sol = solve_ivp(IVPSpec.oscillator(0.1), 3)
        assert sol.components[0].as_dict() == {1: 0.1}
        assert sol.components[1].coeff(3) == pytest.approx(-0.0985037, abs=5e-7)
        assert sol.components[2].coeff(5) == pytest.approx(0.0970299, abs=5e-7)

    def test_oscillator_beta_02_first_components(self):
        sol = solve_ivp(IVPSpec.oscillator(0.2), 2)
        assert sol.components[0].as_dict() == {1: 0.2}
        assert sol.components[1].coeff(3) == pytest.approx(-0.1881208, abs=5e-7)

    def test_linear_gives_sine_series(self):
        sol = solve_ivp(IVPSpec(0.0, 1.0, NL.power(1)), 4)
        assert [c.as_dict() for c in sol.components] == [
            {1: 1.0},
            {3: -1.0},
            {5: 1.0},
            {7: -1.0},
        ]

    def test_linear_scaled_by_beta(self):
        # generic-engine path: beta sin(t) Taylor components, exactly
        beta = 0.37
        sol = solve_ivp(IVPSpec(0.0, beta, NL.power(1)), 6)
        for n, comp in enumerate(sol.components):
            assert comp.as_dict() == {2 * n + 1: beta * (-1.0) ** n}

    def test_n_terms_validation(self):
        with pytest.raises(DomainError):
            solve_ivp(IVPSpec.oscillator(0.1), 0)

    @pytest.mark.parametrize("beta", BETAS)
    def test_cross_validation_with_closed_form(self, beta):
        recursed = solve_ivp(IVPSpec.oscillator(beta), 14)
        closed = oscillator_series(beta, 14)
        # the generic loop reproduces the closed form bit for bit
        assert recursed.components == closed.components
        assert recursed.n_terms == closed.n_terms == 14


class TestOscillatorSeries:
    def test_component_formula(self):
        beta = 0.1
        kappa = oscillator_kappa(beta)
        sol = oscillator_series(beta, 14)
        for n, comp in enumerate(sol.components):
            assert comp.max_degree == 2 * n + 1
            assert comp.coeff(2 * n + 1) == pytest.approx(
                beta * (-kappa) ** n, rel=1e-13
            )
        assert abs(sol.components[13].coeff(27)) == pytest.approx(0.0822027, abs=5e-7)

    def test_beta_02_last_coefficient(self):
        sol = oscillator_series(0.2, 14)
        assert abs(sol.components[13].coeff(27)) == pytest.approx(0.0902233, abs=5e-7)

    def test_beta_05_second_coefficient(self):
        sol = oscillator_series(0.5, 2)
        assert sol.components[1].coeff(3) == pytest.approx(-0.5 * 0.75**1.5, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            oscillator_series(1.0, 5)

    def test_term_cap(self):
        assert oscillator_series(0.5, MAX_TERMS).n_terms == MAX_TERMS
        with pytest.raises(DomainError, match=str(MAX_TERMS)):
            oscillator_series(0.5, MAX_TERMS + 1)
        with pytest.raises(DomainError):
            oscillator_series(0.5, 10**18)  # refused before any component is built

    def test_oddness(self):
        p = oscillator_series(0.3, 10).full_sum()
        assert all(k % 2 == 1 for k, _ in p.terms)
        for t in (0.5, 1.7, 4.0):
            assert p.eval(-t) == pytest.approx(-p.eval(t), rel=1e-14)

    @pytest.mark.parametrize("beta", BETAS)
    def test_alternating_decay(self, beta):
        sol = oscillator_series(beta, 14)
        mags = [abs(c.coeff(2 * n + 1)) for n, c in enumerate(sol.components)]
        assert all(a > b for a, b in zip(mags, mags[1:]))
        signs = [math.copysign(1, c.coeff(2 * n + 1)) for n, c in enumerate(sol.components)]
        assert signs == [(-1.0) ** n for n in range(14)]


class TestPartialSum:
    def test_k0(self):
        sol = oscillator_series(0.4, 5)
        assert sol.partial_sum(0).as_dict() == {1: 0.4}

    def test_full_equals_last_partial(self):
        sol = oscillator_series(0.2, 14)
        assert sol.partial_sum(13) == sol.full_sum()
        assert sol.full_sum().max_degree == 27

    @pytest.mark.parametrize("nonlin", [NL.power(2), NL.exp()], ids=["x^2", "exp"])
    def test_equals_componentwise_addition(self, nonlin):
        # generic components overlap in degree, so the summation order shows
        sol = solve_ivp(IVPSpec(0.3, 0.7, nonlin), 6)
        for k in range(sol.n_terms):
            total = TP()
            for comp in sol.components[: k + 1]:
                total = total + comp
            assert sol.partial_sum(k).terms == total.terms

    def test_index_errors(self):
        sol = oscillator_series(0.2, 5)
        with pytest.raises(IndexError):
            sol.partial_sum(5)
        with pytest.raises(IndexError):
            sol.partial_sum(-1)


class TestTailBound:
    def test_zero_at_origin(self):
        assert tail_bound(0.1, 14, 0.0) == 0.0

    def test_frozen_value(self):
        # beta kappa^14 5^29 / 29!, computed directly
        expect = 0.1 * oscillator_kappa(0.1) ** 14 * 5.0**29 / math.factorial(29)
        got = tail_bound(0.1, 14, 5.0)
        assert got == pytest.approx(expect, rel=1e-13)
        assert got == pytest.approx(1.7058089632e-12, rel=1e-9)

    def test_monotone_in_t(self):
        vals = [tail_bound(0.2, 14, t) for t in (0.5, 1.0, 2.0, 5.0, 10.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_warns_outside_alternation_range(self):
        with pytest.warns(UserWarning):
            tail_bound(0.2, 2, 10.0)  # needs kappa t^2 < 6*7

    @pytest.mark.parametrize("beta, n_terms", [(0.0, 3), (1.0, 3), (0.5, 0)])
    def test_domain(self, beta, n_terms):
        with pytest.raises(DomainError):
            tail_bound(beta, n_terms, 1.0)

    def test_bounds_true_truncation_error(self):
        # the first omitted component bounds |sum_3 - sum_14| at beta = 0.5
        for t in (0.5, 1.0, 2.0):
            err = abs(oscillator_series(0.5, 3).eval(t) - oscillator_series(0.5, 14).eval(t))
            assert tail_bound(0.5, 3, t) * 0.9 < err <= tail_bound(0.5, 3, t)


class TestClosedFormIdentity:
    @pytest.mark.parametrize("beta", [0.1, 0.2])
    def test_series_sums_to_scaled_sine(self, beta):
        # sum = (beta/w) sin(w t) with w = (1-beta^2)^(3/4); verified
        # numerically against the alternating-series remainder bound plus
        # double-precision rounding slack
        p = oscillator_series(beta, 14).full_sum()
        w = series_frequency(beta)
        for i in range(101):
            t = 0.1 * i
            diff = abs(p.eval(t) - (beta / w) * math.sin(w * t))
            assert diff <= tail_bound(beta, 14, t) + 1e-13

    def test_frequency_value(self):
        assert series_frequency(0.1) == pytest.approx((1 - 0.01) ** 0.75, rel=1e-15)


class TestResidual:
    def test_zero_at_origin(self):
        assert residual(0.1, 14, 0.0) == 0.0

    def test_regression_values_beta_01(self):
        # The truncated series solves the frozen-coefficient linearization,
        # not the exact nonlinear equation, so its honest residual is
        # O(beta^3), far above integrator-level error.  Frozen from a
        # direct high-resolution evaluation at build time.
        assert residual(0.1, 14, 1.0) == pytest.approx(8.845718847e-4, rel=1e-6)
        peak = max(residual(0.1, 14, 0.01 * i) for i in range(301))
        assert peak == pytest.approx(1.5075486e-3, rel=1e-5)
