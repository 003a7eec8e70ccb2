import math

import numpy as np
import pytest

from ladm import (
    DomainError,
    NotTabulatedError,
    SinusoidSum,
    hbm,
    hbm_frequency,
    tabulated,
)


class TestHBM:
    def test_beta_01_instance(self):
        s = hbm(0.1)
        assert s.terms[0][1] == pytest.approx((1.98 / 1.99) ** 0.25, rel=1e-15)
        assert s.terms[0][0] == pytest.approx(0.10025, abs=5e-4)

    def test_beta_02_instance(self):
        s = hbm(0.2)
        assert s.terms[0][0] == pytest.approx(0.202, abs=5e-4)
        assert s.terms[0][1] == pytest.approx(0.995, abs=2e-3)

    def test_nonrelativistic_limit(self):
        beta = 1e-5
        s = hbm(beta)
        assert s.terms[0][1] == pytest.approx(1.0, abs=1e-9)
        assert s.terms[0][0] == pytest.approx(beta, rel=1e-8)
        assert abs(s.terms[1][0]) < beta**3
        for t in (0.5, 2.0):
            assert s.eval(t) == pytest.approx(beta * math.sin(t), rel=1e-8)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.1])
    def test_domain(self, beta):
        with pytest.raises(DomainError):
            hbm(beta)


class TestTabulated:
    def test_dtm_01(self):
        s = tabulated("DTM", 0.1)
        assert s.terms == (
            (0.10033, 0.998),
            (-0.000047097, 2.997),
            (0.00000008254, 4.841),
        )

    def test_hpm_02(self):
        s = tabulated("HPM", 0.2)
        assert s.terms == ((0.201, 0.995), (-0.0003768, 2.985), (0.000001652, 4.974))

    def test_hbm_02(self):
        s = tabulated("HBM", 0.2)
        assert s.terms == ((0.202, 0.995), (-0.0003354, 2.985), (0.000001508, 4.974))

    def test_untabulated_pairs(self):
        with pytest.raises(NotTabulatedError):
            tabulated("DTM", 0.3)
        with pytest.raises(NotTabulatedError):
            tabulated("XYZ", 0.1)

    @pytest.mark.parametrize("method", ["DTM", "HPM", "HBM"])
    @pytest.mark.parametrize("beta, printed", [(0.1 + 0.2 - 0.2, 0.1), (0.3 - 0.1, 0.2),
                                               (0.1 * (1 + 1e-13), 0.1)])
    def test_beta_matches_to_rounding(self, method, beta, printed):
        # 0.1 + 0.2 - 0.2 == 0.10000000000000003 used to be untabulated
        assert tabulated(method, beta) == tabulated(method, printed)

    @pytest.mark.parametrize("beta", [0.1 * (1 + 1e-11), 0.2 * (1 - 1e-11), math.nan])
    def test_beta_off_by_more_than_rounding(self, beta):
        with pytest.raises(NotTabulatedError):
            tabulated("DTM", beta)

    def test_error_message_is_plain(self):
        with pytest.raises(NotTabulatedError) as exc:
            tabulated("DTM", 0.3)
        assert isinstance(exc.value, KeyError)  # the hierarchy is kept
        assert str(exc.value).startswith("no tabulated DTM approximant at beta=0.3;")


class TestEval:
    def test_zero_at_origin(self):
        for method in ("DTM", "HPM", "HBM"):
            assert tabulated(method, 0.1).eval(0.0) == 0.0

    def test_single_term(self):
        s = SinusoidSum(terms=((1.0, 1.0),))
        assert s.eval(math.pi / 2) == pytest.approx(1.0, rel=1e-15)

    def test_dtm_01_regression_at_1(self):
        # direct arithmetic from the printed coefficients, frozen
        assert tabulated("DTM", 0.1).eval(1.0) == pytest.approx(
            0.08430933003361425, rel=1e-12
        )

    @pytest.mark.parametrize("method, beta", [("hbm", 0.1), ("hbm", 0.5), ("hbm", 0.9),
                                              ("DTM", 0.1), ("HPM", 0.2)])
    def test_array_matches_left_to_right_math_sin(self, method, beta):
        # explicit sums, not sum(): Python >= 3.12 compensates sum() of floats
        s = hbm(beta) if method == "hbm" else tabulated(method, beta)
        ts = np.concatenate([np.linspace(0.0, 20.0, 2001),
                             np.random.default_rng(5).uniform(-1e3, 1e3, 2000)])
        want = []
        for t in ts.tolist():
            total = 0.0
            for a, w in s.terms:
                total = total + a * math.sin(w * t)
            want.append(total)
        assert s.eval(ts).tolist() == want

    def test_odd_in_t(self):
        s = hbm(0.3)
        for t in (0.3, 1.1, 7.0):
            assert s.eval(-t) == pytest.approx(-s.eval(t), rel=1e-14)


class TestConsistency:
    @pytest.mark.parametrize("beta", [0.1, 0.2])
    def test_parametric_vs_tabulated_amplitudes(self, beta):
        par, tab = hbm(beta), tabulated("HBM", beta)
        for (a_p, _), (a_t, _) in zip(par.terms, tab.terms):
            assert a_p == pytest.approx(a_t, abs=5e-4)

    @pytest.mark.parametrize("beta", [0.1, 0.2])
    def test_parametric_vs_tabulated_frequencies(self, beta):
        par, tab = hbm(beta), tabulated("HBM", beta)
        for j, ((_, w_p), (_, w_t)) in enumerate(zip(par.terms, tab.terms)):
            if (beta, j) == (0.1, 2):
                # the printed fifth-harmonic frequency (4.944) is
                # inconsistent with five times the printed fundamental
                # (5 * 0.998 = 4.99); the parametric value 4.9937 is the
                # self-consistent one
                assert abs(w_p - w_t) == pytest.approx(0.0497, abs=1e-3)
                continue
            assert w_p == pytest.approx(w_t, abs=2e-3)

    def test_pairwise_method_agreement(self):
        # all three tabulated methods approximate the same trajectory;
        # the beta=0.2 budget is set by the printed DTM coefficient spread
        # (amplitude 0.203 vs 0.201, frequencies 0.992 vs 0.995)
        grid = [0.01 * i for i in range(1001)]
        budget = {0.1: 5e-3, 0.2: 7e-3}
        for beta in (0.1, 0.2):
            methods = ("DTM", "HPM", "HBM")
            for i, m1 in enumerate(methods):
                for m2 in methods[i + 1 :]:
                    s1, s2 = tabulated(m1, beta), tabulated(m2, beta)
                    worst = max(abs(s1.eval(t) - s2.eval(t)) for t in grid)
                    assert worst <= budget[beta], (beta, m1, m2, worst)


def test_nonpositive_frequency_rejected():
    with pytest.raises(ValueError):
        SinusoidSum(terms=((1.0, -1.0),))
