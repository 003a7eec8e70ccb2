import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladm import (
    AnalyticNonlinearity as NL,
    DomainError,
    IVPSpec,
    TimePolynomial as TP,
    adomian_polynomials,
    oscillator_kappa,
    solve_ivp,
)
from ladm.adomian import _DuanTable

MAX_DEG = 12
NONLINEARITIES = [NL.power(2), NL.power(3), NL.exp()]

# finite-difference step per derivative order; rounding error ~eps/h^n makes
# the 1e-4 default unusable above order 2
ORACLE_H = {0: 1e-4, 1: 1e-4, 2: 1e-4, 3: 1e-2, 4: 1e-2}

# Central finite-difference stencils for d^n/dh^n, O(h^4) accurate.
# Keys: order n -> list of (offset multiple of h, weight); divide by h^n.
_STENCILS = {
    0: [(0.0, 1.0)],
    1: [(-2.0, 1 / 12), (-1.0, -8 / 12), (1.0, 8 / 12), (2.0, -1 / 12)],
    2: [(-2.0, -1 / 12), (-1.0, 16 / 12), (0.0, -30 / 12), (1.0, 16 / 12), (2.0, -1 / 12)],
    3: [(-3.0, 1 / 8), (-2.0, -1.0), (-1.0, 13 / 8), (1.0, -13 / 8), (2.0, 1.0), (3.0, -1 / 8)],
    4: [(-3.0, -1 / 6), (-2.0, 2.0), (-1.0, -13 / 2), (0.0, 28 / 3), (1.0, -13 / 2), (2.0, 2.0),
        (3.0, -1 / 6)],
}


def lambda_expansion_oracle(nonlin, components, order, t_probe, h=1e-4):
    """Estimate A_0(t_probe)..A_order(t_probe) by finite differences in lambda.

    Differentiates g(lambda) = N(sum_i x_i(t_probe) lambda^i) with central
    stencils; independent of the series-composition machinery, so it serves
    as a ground-truth check for ``adomian_polynomials``.  Rounding limits
    the usable h: orders 3-4 need h around 1e-2 rather than the 1e-4 that
    suits orders <= 2.
    """
    if h <= 0:
        raise DomainError("h must be positive")
    vals = [p.eval(t_probe) for p in components]

    def g(lam):
        return nonlin.deriv(sum(v * lam**i for i, v in enumerate(vals)), 0)

    out = []
    for n in range(order + 1):
        if n not in _STENCILS:
            raise DomainError("oracle supports orders 0..4")
        dn = sum(w * g(off * h) for off, w in _STENCILS[n]) / h**n
        out.append(dn / math.factorial(n))
    return out


def closed_form_sequence(nonlin, comps, max_degree):
    """The classical A_0..A_4 formulas, built independently of the engine."""
    x0, x1, x2, x3, x4 = comps
    table = _DuanTable(nonlin, x0, max_degree)
    g = [table.deriv(k) for k in range(5)]
    mul = lambda a, b: a.mul_truncated(b, max_degree)
    a0 = g[0]
    a1 = mul(x1, g[1])
    a2 = mul(x2, g[1]) + mul(mul(x1, x1), g[2]).scale(0.5)
    a3 = (
        mul(x3, g[1])
        + mul(mul(x1, x2), g[2])
        + mul(mul(mul(x1, x1), x1), g[3]).scale(1 / 6)
    )
    a4 = (
        mul(x4, g[1])
        + (mul(mul(x2, x2), g[2]).scale(0.5) + mul(mul(x1, x3), g[2]))
        + mul(mul(mul(x1, x1), x2), g[3]).scale(0.5)
        + mul(mul(mul(mul(x1, x1), x1), x1), g[4]).scale(1 / 24)
    )
    return [a0, a1, a2, a3, a4]


def lambda_power_coefficients(comps, p, max_degree):
    """[lambda^n] (sum_i x_i lambda^i)^p for n < len(comps), by Cauchy products only."""
    out = [TP.constant(1.0)] + [TP()] * (len(comps) - 1)
    for _ in range(p):
        out = [
            sum((comps[i].mul_truncated(out[n - i], max_degree) for i in range(n + 1)), TP())
            for n in range(len(comps))
        ]
    return out


def oscillator_a(m, x_m, beta):
    """A_m of the oscillator's N(x) = kappa x from the generic engine.

    The components before x_m are deliberately nonzero: A_m must not
    depend on them for m >= 1.
    """
    fill = [TP.from_dict({0: 0.3, 1: 0.7 / (i + 1)}) for i in range(m)]
    nonlin = IVPSpec.oscillator(beta).nonlinearity
    return adomian_polynomials(nonlin, fill + [x_m], m, MAX_DEG)[m]


def random_components(rng, n=5, max_deg=3, scale=0.2):
    # kept small: the finite-difference oracle's high-order lambda
    # derivatives grow combinatorially with component magnitude
    out = []
    for _ in range(n):
        out.append(
            TP.from_dict(
                {k: rng.uniform(-scale, scale) for k in rng.sample(range(max_deg + 1), 2)}
            )
        )
    return out


class TestGenericEngine:
    def test_square_worked_example(self):
        comps = [TP.from_dict({1: 1.0}), TP.monomial(2, 2.0), TP()]
        seq = adomian_polynomials(NL.power(2), comps, 2, 8)
        assert seq[0].as_dict() == {2: 2.0}  # t^2
        assert seq[1].as_dict() == {3: 12.0}  # 2 t^3
        assert seq[2].as_dict() == {4: 24.0}  # t^4

    def test_linear_passthrough(self):
        comps = [TP.from_dict({1: 0.3}), TP.monomial(3, -0.2), TP.monomial(5, 0.1)]
        seq = adomian_polynomials(NL.power(1), comps, 2, 10)
        for a, x in zip(seq.polys, comps):
            assert a == x

    def test_cube_of_constants(self):
        c, d = 2.0, 3.0
        comps = [TP.constant(c), TP.constant(d), TP(), TP()]
        seq = adomian_polynomials(NL.power(3), comps, 3, 4)
        assert [a.coeff(0) for a in seq.polys] == pytest.approx(
            [c**3, 3 * c**2 * d, 3 * c * d**2, d**3]
        )

    @pytest.mark.parametrize("nonlin", NONLINEARITIES, ids=lambda n: n.name)
    def test_matches_classical_closed_forms(self, nonlin):
        rng = random.Random(7)
        for _ in range(3):
            comps = random_components(rng)
            seq = adomian_polynomials(nonlin, comps, 4, MAX_DEG)
            expected = closed_form_sequence(nonlin, comps, MAX_DEG)
            for n, (got, want) in enumerate(zip(seq.polys, expected)):
                diff = got - want
                scale = max(abs(c) for _, c in want.terms) if want else 1.0
                assert all(
                    abs(c) < 1e-12 * max(1.0, scale) for _, c in diff.terms
                ), f"A_{n} mismatch for {nonlin.name}"

    @pytest.mark.parametrize("nonlin", NONLINEARITIES, ids=lambda n: n.name)
    def test_matches_finite_difference_oracle(self, nonlin):
        rng = random.Random(11)
        comps = random_components(rng)
        probes = [0.1, 0.3, 0.5, 0.8, 1.0]
        for order in range(5):
            for t in probes:
                want = lambda_expansion_oracle(
                    nonlin, comps, order, t, h=ORACLE_H[order]
                )
                seq = adomian_polynomials(nonlin, comps, order, MAX_DEG)
                for n in range(order + 1):
                    got = seq[n].eval(t)
                    assert got == pytest.approx(want[n], rel=1e-5, abs=2e-6)

    def test_sum_reconstructs_nonlinearity(self):
        # polynomial N of degree d with k components: sum of A_n over
        # n <= d*k recovers N(sum x_i) exactly at every probe
        rng = random.Random(3)
        comps = random_components(rng, n=3)
        comps += [TP()] * 4  # allow order up to 6 = deg 2 * 3 comps
        nonlin = NL.power(2)
        seq = adomian_polynomials(nonlin, comps, 6, MAX_DEG)
        for t in (0.2, 0.7, 1.3):
            total = sum(a.eval(t) for a in seq.polys)
            direct = nonlin.deriv(sum(x.eval(t) for x in comps), 0)
            assert total == pytest.approx(direct, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("p", [2, 3])
    def test_orders_above_four_match_lambda_power(self, p):
        # the finite-difference oracle stops at order 4; for N = x^p the
        # lambda-expansion definition is a plain power of a lambda-series
        rng = random.Random(19 + p)
        comps = random_components(rng, n=11, scale=1.0)
        comps[0] = comps[0] + TP.constant(0.5)
        seq = adomian_polynomials(NL.power(p), comps, 10, MAX_DEG)
        want = lambda_power_coefficients(comps, p, MAX_DEG)
        for n in range(5, 11):
            assert want[n], f"A_{n} reference is zero"
            scale = max(abs(c) for _, c in want[n].terms)
            diff = seq[n] - want[n]
            assert all(abs(c) <= 1e-12 * scale for _, c in diff.terms), f"A_{n} mismatch"

    def test_order_exceeds_components(self):
        with pytest.raises(DomainError):
            adomian_polynomials(NL.power(2), [TP.constant(1.0)], 1, 4)

    def test_empty_components(self):
        with pytest.raises(DomainError):
            adomian_polynomials(NL.power(2), [], 0, 4)

    @pytest.mark.parametrize("order", [0, 1])
    def test_negative_max_degree(self, order):
        with pytest.raises(DomainError):
            adomian_polynomials(NL.power(2), [TP.constant(1.0)] * 2, order, -1)


class TestPower:
    @pytest.mark.parametrize("p", [-1, 2.5, 2.0, "2"])
    def test_refuses_negative_or_non_integer(self, p):
        with pytest.raises(DomainError):
            NL.power(p)

    def test_power_zero_is_one(self):
        sol = solve_ivp(IVPSpec(0.3, 0.7, NL.power(0)), 3)
        assert [c.as_dict() for c in sol.components] == [{0: 0.3, 1: 0.7}, {2: -1.0}, {}]


def bits(polys):
    """Every (degree, coefficient) of every polynomial, the coefficients as exact hex."""
    return [[(k, c.hex()) for k, c in p.terms] for p in polys]


def fresh(nonlin, components, order, max_degree):
    """adomian_polynomials on a new thread, which starts with no remembered table."""
    out = []
    worker = threading.Thread(
        target=lambda: out.append(adomian_polynomials(nonlin, components, order, max_degree)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(out) == 1
    return out[0]


@pytest.fixture
def products(monkeypatch):
    """A list that gains one entry per TimePolynomial.mul_truncated call, on any thread."""
    calls = []
    mul = TP.mul_truncated
    monkeypatch.setattr(TP, "mul_truncated", lambda p, q, d: calls.append(1) or mul(p, q, d))
    return calls


MAKE_NONLINEARITY = {"x^2": lambda: NL.power(2), "x^3": lambda: NL.power(3), "exp": NL.exp}
SHARED = [NL.power(2), NL.power(3), NL.exp()]  # one object each, so calls can share a table
POLYS = st.dictionaries(st.integers(0, 6), st.floats(-1.0, 1.0), max_size=3).map(TP.from_dict)


class TestCrossOrderTable:
    """The table behind adomian_polynomials, which one thread keeps across calls."""

    @pytest.mark.parametrize("name, rebuilt", [("x^3", 751), ("exp", 1045)])
    def test_solve_makes_a_third_of_the_products(self, products, name, rebuilt):
        # rebuilt: the count when every order recomposes N^(k)(x_0) and rebuilds A_0..A_n
        solve_ivp(IVPSpec(0.3, 0.7, MAKE_NONLINEARITY[name]()), 12)
        assert len(products) <= rebuilt // 3

    @pytest.mark.parametrize("name", sorted(MAKE_NONLINEARITY))
    def test_each_order_adds_one_column_bit_for_bit(self, products, name):
        nonlin, n_terms = MAKE_NONLINEARITY[name](), 10
        max_degree = 2 * n_terms + 1
        comps = [TP.from_dict({0: 0.3, 1: 0.7})]
        for n in range(n_terms - 1):
            products.clear()
            seq = adomian_polynomials(nonlin, comps, n, max_degree)
            warm = len(products)
            assert bits(seq.polys) == bits(fresh(nonlin, comps, n, max_degree).polys), n
            # column n alone: at most n - k + 1 products per C(k, n) and one per term of A_n
            assert n == 0 or warm <= n * (n + 1) // 2 + n, (n, warm)
            comps.append(-seq[n].double_integrate())

    @settings(max_examples=40, deadline=None)
    @given(nonlin=st.sampled_from(SHARED), x0=POLYS, base=st.lists(POLYS, min_size=6, max_size=6),
           swaps=st.lists(st.tuples(st.integers(1, 6), POLYS), min_size=1, max_size=3),
           calls=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6), st.sampled_from([5, 8])),
                          min_size=1, max_size=8))
    def test_interleaved_calls_match_a_fresh_thread(self, nonlin, x0, base, swaps, calls):
        variants = [[x0] + base]
        for i, poly in swaps:  # each variant shares x_0 with the base and may differ at x_i
            variants.append(variants[0][:i] + [poly] + variants[0][i + 1:])
        for v, order, max_degree in calls:
            comps = variants[v % len(variants)]
            got = adomian_polynomials(nonlin, comps, order, max_degree)
            assert bits(got.polys) == bits(fresh(nonlin, comps, order, max_degree).polys)

    @pytest.mark.parametrize("i", range(1, 6))
    def test_cut_back_at_each_index(self, i):
        # a call whose last component is the first that differs, then longer calls both ways
        comps = random_components(random.Random(17), n=6)
        changed = comps[:i] + [comps[i].scale(-1.5)] + comps[i + 1:]
        nonlin = NL.exp()
        for c, order in ((comps, 5), (changed, i), (changed, 5), (comps, i), (comps, 5)):
            got = adomian_polynomials(nonlin, c, order, 8)
            assert bits(got.polys) == bits(fresh(nonlin, c, order, 8).polys), (order, c is comps)

    def test_a_raising_deriv_fn_leaves_no_stale_state(self):
        comps = random_components(random.Random(5), n=6)
        changed = comps[:3] + [comps[3].scale(2.0)] + comps[4:]
        fail_at, calls = 0, 0

        def d(u, j):
            nonlocal calls
            calls += 1
            if calls == fail_at:
                raise RuntimeError("once")
            return math.exp(u)

        for order in (1, 5):  # count the deriv_fn calls of the two calls below
            adomian_polynomials(NL("exp-counted", d), comps, order, 8)
        assert calls > 20
        for fail_at in range(1, calls + 1):  # fail in the table's creation, then in each order
            nonlin, raised, calls = NL(f"flaky-exp-{fail_at}", d), 0, 0
            for order in (1, 5):
                try:
                    adomian_polynomials(nonlin, comps, order, 8)
                except RuntimeError:
                    raised += 1
            assert raised == 1, fail_at
            for c in (comps, changed, comps):
                got = adomian_polynomials(nonlin, c, 5, 8)
                assert bits(got.polys) == bits(fresh(nonlin, c, 5, 8).polys), fail_at

    def test_threads_keep_their_own_tables(self):
        # one nonlinearity and one x_0 for all threads, and other later components in
        # each: a table shared between threads would be cut back under another's feet
        base = random_components(random.Random(13), n=7)
        variants = [base[:2] + [base[2].scale(1.0 + i)] + base[3:] for i in range(4)]
        want = [[bits(fresh(SHARED[2], v, order, 9).polys) for order in range(7)] for v in variants]
        got = {i: [] for i in range(len(variants))}

        def call_often(i):
            for r in range(40):
                order = r % 7
                got[i].append(bits(adomian_polynomials(SHARED[2], variants[i], order, 9).polys)
                              == want[i][order])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=call_often, args=(i,)) for i in got]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert got == {i: [True] * 40 for i in got}


class TestOscillatorSequence:
    def test_scales_by_kappa(self):
        x0 = TP.from_dict({1: 0.1})
        a0 = oscillator_a(0, x0, 0.1)
        assert a0.as_dict() == {1: pytest.approx(0.1 * 0.99**1.5)}

    def test_second_component(self):
        beta = 0.3
        kappa = oscillator_kappa(beta)
        x1 = TP.monomial(3, -beta * kappa)
        a1 = oscillator_a(1, x1, beta)
        assert a1.coeff(3) == pytest.approx(-beta * kappa**2, rel=1e-15)

    def test_zero_component(self):
        assert not oscillator_a(5, TP(), 0.4)

    def test_linear_in_component_and_independent_of_m(self):
        p = TP.from_dict({1: 0.2, 5: -0.7})
        q = TP.from_dict({3: 1.1})
        beta = 0.5
        lhs = oscillator_a(2, p + q.scale(3.0), beta)
        rhs = oscillator_a(9, p, beta) + oscillator_a(0, q, beta).scale(3.0)
        for k in set(lhs.as_dict()) | set(rhs.as_dict()):
            assert lhs.coeff(k) == pytest.approx(rhs.coeff(k), rel=1e-15)
        assert lhs == (p + q.scale(3.0)).scale(oscillator_kappa(beta))

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.5, 1.5])
    def test_beta_domain(self, beta):
        with pytest.raises(DomainError):
            IVPSpec.oscillator(beta)


class TestOracle:
    def test_square_first_order(self):
        comps = [TP.constant(1.0), TP.constant(1.0)]
        vals = lambda_expansion_oracle(NL.power(2), comps, 1, 1.0, h=1e-4)
        assert vals[1] == pytest.approx(2.0, abs=1e-6)

    def test_order_zero_exact(self):
        comps = [TP.from_dict({1: 0.7})]
        vals = lambda_expansion_oracle(NL.power(3), comps, 0, 2.0)
        assert vals[0] == NL.power(3).deriv(1.4, 0)

    def test_exp_second_order(self):
        comps = [TP(), TP.constant(1.0), TP()]
        vals = lambda_expansion_oracle(NL.exp(), comps, 2, 0.5)
        assert vals[2] == pytest.approx(0.5, abs=1e-5)

    def test_bad_step(self):
        with pytest.raises(DomainError):
            lambda_expansion_oracle(NL.exp(), [TP()], 0, 0.0, h=0.0)

    def test_order_above_stencils(self):
        comps = [TP()] * 6
        with pytest.raises(DomainError):
            lambda_expansion_oracle(NL.exp(), comps, 5, 0.0)
