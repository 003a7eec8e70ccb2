import math

import pytest
from hypothesis import given, strategies as st

import numpy as np

from ladm import TimePolynomial as TP, oscillator_series


def poly_strategy(max_deg=8):
    coeff = st.floats(
        min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
    )
    return st.dictionaries(st.integers(0, max_deg), coeff, max_size=6).map(TP.from_dict)


class TestEval:
    def test_single_linear_term(self):
        assert TP.from_dict({1: 0.1}).eval(2.0) == pytest.approx(0.2)

    def test_two_term_polynomial(self):
        p = TP.from_dict({1: 0.1, 3: -0.0985037})
        assert p.eval(1.0) == pytest.approx(0.1 - 0.0985037 / 6, rel=1e-15)

    def test_constant(self):
        assert TP.from_dict({0: 5.0}).eval(123.4) == 5.0

    def test_eval_at_zero_returns_c0(self):
        assert TP.from_dict({0: 3.5, 2: 1.0, 7: -2.0}).eval(0.0) == 3.5

    def test_high_degree_no_overflow(self):
        # t^27/27! evaluated by term ratios, never raw factorials
        p = TP.monomial(27, 1.0)
        assert p.eval(5.0) == pytest.approx(5.0**27 / math.factorial(27), rel=1e-12)

    @pytest.mark.parametrize("beta, n_terms", [(0.1, 14), (0.5, 14), (0.9, 1000)])
    def test_array_matches_scalar_loop(self, beta, n_terms):
        p = oscillator_series(beta, n_terms).full_sum()
        ts = np.concatenate([np.linspace(0.0, 20.0, 1001),
                             np.random.default_rng(3).uniform(-30.0, 30.0, 500)])
        got = p.eval(ts)
        assert got.tolist() == [p.eval(t) for t in ts.tolist()]

    @given(poly_strategy(12), st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=20))
    def test_array_matches_scalar_loop_sparse(self, p, ts):
        got = np.broadcast_to(p.eval(np.array(ts)), (len(ts),))
        assert got.tolist() == [p.eval(t) for t in ts]


class TestAlgebra:
    def test_add_cancellation(self):
        assert (TP.from_dict({1: 1.0}) + TP.from_dict({1: -1.0})).terms == ()

    def test_add_disjoint(self):
        s = TP.from_dict({1: 0.1}) + TP.from_dict({3: -0.0985037})
        assert s.as_dict() == {1: 0.1, 3: -0.0985037}

    def test_add_overlapping(self):
        s = TP.from_dict({0: 2.0, 2: 3.0}) + TP.from_dict({2: 4.0})
        assert s.as_dict() == {0: 2.0, 2: 7.0}

    def test_sum_equals_chain_of_adds(self):
        # a degree that cancels midway is dropped by the chain and not by the sum,
        # and the next addend still lands on the same bits: 0.0 + c == c
        ps = [TP.from_dict({0: 0.1, 2: 0.7}), TP.from_dict({0: -0.1, 1: 1e-300}),
              TP.from_dict({0: 0.2, 2: 0.3}), TP.from_dict({1: -1e-300})]
        chain = TP()
        for p in ps:
            chain = chain + p
        assert TP.sum(ps).terms == chain.terms == ((0, 0.2), (2, 0.7 + 0.3))
        assert TP.sum([]) == TP()

    def test_scale(self):
        assert TP.from_dict({1: 1.0}).scale(0.2).as_dict() == {1: 0.2}

    def test_scale_identity_and_zero(self):
        p = TP.from_dict({1: 2.0, 4: -3.0})
        assert p.scale(1.0) == p
        assert not p.scale(0.0)

    def test_double_integrate_shifts_degree(self):
        assert TP.from_dict({1: 0.5}).double_integrate().as_dict() == {3: 0.5}
        assert not TP().double_integrate()
        assert TP.constant(1.0).double_integrate().as_dict() == {2: 1.0}

    def test_derivative(self):
        assert TP.from_dict({1: 0.1}).derivative().as_dict() == {0: 0.1}
        assert not TP.constant(7.0).derivative()

    def test_mul_binomial_reweighting(self):
        t = TP.from_dict({1: 1.0})
        # t * t = t^2 = 2 * t^2/2!
        assert t.mul_truncated(t, 4).as_dict() == {2: 2.0}

    def test_mul_annihilator(self):
        assert not TP.from_dict({1: 1.0, 5: 2.0}).mul_truncated(TP(), 9)

    def test_mul_square_of_one_plus_t(self):
        p = TP.from_dict({0: 1.0, 1: 1.0})
        # (1+t)^2 = 1 + 2t + t^2 -> scaled {0:1, 1:2, 2:2}
        assert p.mul_truncated(p, 2).as_dict() == {0: 1.0, 1: 2.0, 2: 2.0}

    def test_mul_truncation_drops_high_degrees(self):
        p = TP.from_dict({3: 1.0})
        assert not p.mul_truncated(p, 5)


class TestProperties:
    @given(poly_strategy())
    def test_derivative_inverts_double_integrate(self, p):
        assert p.double_integrate().derivative().derivative() == p

    @given(poly_strategy(), poly_strategy(), st.floats(-5, 5), st.floats(-5, 5))
    def test_double_integrate_linear(self, p, q, a, b):
        lhs = (p.scale(a) + q.scale(b)).double_integrate()
        rhs = p.double_integrate().scale(a) + q.double_integrate().scale(b)
        for k in set(lhs.as_dict()) | set(rhs.as_dict()):
            assert lhs.coeff(k) == pytest.approx(rhs.coeff(k), rel=1e-12, abs=1e-12)

    @given(poly_strategy(), poly_strategy(), st.floats(-10, 10))
    def test_eval_additive(self, p, q, t):
        scale = sum(abs(c) for _, c in p.terms) + sum(abs(c) for _, c in q.terms) + 1.0
        bound = 1e-12 * scale * max(1.0, abs(t)) ** 10
        assert abs((p + q).eval(t) - (p.eval(t) + q.eval(t))) <= bound

    @given(poly_strategy(4), poly_strategy(4), st.floats(-3, 3))
    def test_mul_agrees_with_eval(self, p, q, t):
        prod = p.mul_truncated(q, 8)  # deg p + deg q <= 8, so exact
        expect = p.eval(t) * q.eval(t)
        assert prod.eval(t) == pytest.approx(expect, rel=1e-9, abs=1e-9 * max(1, abs(expect)))

    @given(poly_strategy(), poly_strategy())
    def test_canonical_no_stored_zeros(self, p, q):
        for result in (p + q, p - q, -p, p.scale(0.5), p.scale(np.float64(-3.0)),
                       p.mul_truncated(q, 10), p.derivative(), p.double_integrate()):
            assert all(c != 0.0 and type(c) is float for _, c in result.terms)
            degs = [k for k, _ in result.terms]
            assert degs == sorted(set(degs))
            assert TP(result.terms) == result  # the public constructor changes nothing

    @given(poly_strategy(12), poly_strategy(12), st.integers(0, 30))
    def test_mul_bit_identical_to_dict_accumulation(self, p, q, max_degree):
        """The product sums each degree in ascending k, as a dict accumulated in the same loop."""
        out = {}
        for ka, a in p.terms:
            for kb, b in q.terms:
                if (n := ka + kb) <= max_degree:
                    out[n] = out.get(n, 0.0) + math.comb(n, ka) * a * b
        assert p.mul_truncated(q, max_degree).terms == TP.from_dict(out).terms


class TestCanonicalForm:
    """What each operation keeps and drops when it builds its result without re-sorting it."""

    def test_exact_cancellation_in_a_product(self):
        # (1 + t)(1 - t) = 1 - t^2 = 1 - 2 t^2/2!, and the t terms cancel exactly
        p = TP.from_dict({0: 1.0, 1: 1.0}).mul_truncated(TP.from_dict({0: 1.0, 1: -1.0}), 4)
        assert p.terms == ((0, 1.0), (2, -2.0))

    def test_scale_that_underflows_drops_the_term(self):
        assert TP.from_dict({1: 1e-200, 2: 1.0}).scale(1e-200).terms == ((2, 1e-200),)
        assert TP.from_dict({1: 5e-324}).scale(-0.5).terms == ()  # -0.0 is a zero too

    def test_scale_by_a_numpy_scalar_stores_floats(self):
        p = TP.from_dict({0: 1.0, 3: -2.0}).scale(np.float64(0.5))
        assert p.terms == ((0, 0.5), (3, -1.0))
        assert [type(c) for _, c in p.terms] == [float, float]

    def test_nan_coefficients_are_kept(self):
        p = TP.from_dict({0: 1.0, 3: math.nan})
        for result in (p.scale(2.0), p.mul_truncated(TP.constant(1.0), 5), p.derivative(),
                       p.double_integrate()):
            assert math.isnan(result.terms[-1][1])
        assert all(math.isnan(c) for _, c in TP.from_dict({1: 1.0, 2: -1.0}).scale(math.nan).terms)

    def test_huge_max_degree_allocates_by_the_operands(self):
        p = TP.from_dict({0: 1.0, 1: 2.0}).mul_truncated(TP.from_dict({0: 3.0, 2: 1.0}), 10**18)
        assert p.terms == ((0, 3.0), (1, 6.0), (2, 1.0), (3, 6.0))
        assert not TP().mul_truncated(TP.constant(1.0), 10**18)


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        TP(((-1, 1.0),))


def test_mul_negative_max_degree_rejected():
    with pytest.raises(ValueError):
        TP.constant(1.0).mul_truncated(TP.constant(1.0), -1)


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
def test_partial_sum_rounding_within_a_priori_bound(beta):
    """The 14-term ladm column on [0, 20] against a 50-digit sum of the same float coefficients.

    ``TimePolynomial.eval`` builds t^k/k! by k divisions t/j and k products,
    multiplies by c_k and adds the n terms left to right.  With unit
    roundoff u = 2^-53 and gamma_m = m u / (1 - m u), each computed term is
    c_k t^k/k! (1 + theta) with |theta| <= gamma_{2k+1} (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Lemma 3.1), and recursive
    summation adds at most gamma_{n-1} times the sum of |terms| (ibid.,
    section 4.2).  So for the highest degree K

        |computed - exact| <= gamma_{2K+1+n-1} * sum_k |c_k| t^k / k!,

    which bounds the cancellation at large t, where the absolute sum far
    exceeds the result.
    """
    import mpmath

    from ladm.report import ladm_column

    n = 14
    terms = oscillator_series(beta, n).full_sum().terms
    ts = np.linspace(0.0, 20.0, 201)
    got = ladm_column(beta, n, ts)
    u = 2.0**-53
    m = 2 * terms[-1][0] + 1 + (n - 1)
    gamma = m * u / (1 - m * u)
    with mpmath.workdps(50):
        for t, x in zip(ts, got):
            parts = [mpmath.mpf(c) * mpmath.mpf(t) ** k / mpmath.factorial(k) for k, c in terms]
            exact, magnitude = mpmath.fsum(parts), mpmath.fsum(abs(v) for v in parts)
            assert abs(mpmath.mpf(x) - exact) <= gamma * magnitude, (t, x, exact)
