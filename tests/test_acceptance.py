"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Two sub-assertions are strict expected failures: a printed series
coefficient and a printed fifth-harmonic frequency in the published
baselines are each inconsistent with their own printed generating
formula, so reproducing both the formula and those digits is impossible.
The formula-faithful values are asserted instead, and the inconsistent
digits are kept as xfail tests so any change in behavior is flagged.
"""

import json
import math
import xml.dom.minidom

import mpmath
import pytest

from ladm import (
    AnalyticNonlinearity as NL,
    IVPSpec,
    TimePolynomial as TP,
    adomian_polynomials,
    build_report,
    hbm,
    hbm_frequency,
    integrate,
    oscillator_series,
    series_frequency,
    solve_ivp,
    tabulated,
    tail_bound,
)
from ladm.cli import main

BETAS = [0.1, 0.2, 0.5, 0.9]

# printed coefficient magnitudes: (term index, value)
PRINTED_COEFFS = {
    0.1: [(0, 0.1), (1, 0.0985037), (2, 0.0970299), (3, 0.095578),
          (4, 0.094148), (5, 0.0927393), (13, 0.0822027)],
    # the n=5 print (0.1472253) disagrees with 0.2 * 0.940604^5 = 0.1472530
    # from the same formula; checked separately as an expected failure
    0.2: [(0, 0.2), (1, 0.1881208), (2, 0.1769472), (3, 0.1664372),
          (4, 0.1565515), (13, 0.0902233)],
}


def _series_coeffs(beta, terms=14):
    sol = oscillator_series(beta, terms)
    return [c.coeff(2 * n + 1) for n, c in enumerate(sol.components)]


def _report_pass(n, name):
    print(f"ACCEPTANCE {n:2d} {name}: PASS")


def test_criterion_01_series_coefficients_beta_01(capsys):
    with capsys.disabled():
        coeffs = _series_coeffs(0.1)
        for n, printed in PRINTED_COEFFS[0.1]:
            assert abs(abs(coeffs[n]) - printed) <= 5e-7, (n, coeffs[n], printed)
            assert math.copysign(1, coeffs[n]) == (-1.0) ** n
        _report_pass(1, "series coefficients beta=0.1")


def test_criterion_02_series_coefficients_beta_02(capsys):
    with capsys.disabled():
        coeffs = _series_coeffs(0.2)
        for n, printed in PRINTED_COEFFS[0.2]:
            assert abs(abs(coeffs[n]) - printed) <= 5e-7, (n, coeffs[n], printed)
        # the formula-faithful n=5 value
        assert abs(coeffs[5]) == pytest.approx(0.2 * 0.940604**5, rel=1e-5)
        _report_pass(2, "series coefficients beta=0.2 (formula-faithful)")


@pytest.mark.xfail(
    strict=True,
    reason="printed n=5 coefficient 0.1472253 contradicts the printed "
    "formula 0.2*(0.940604)^5 = 0.1472530 in the same equation",
)
def test_criterion_02_printed_n5_digit():
    assert abs(_series_coeffs(0.2)[5]) == pytest.approx(0.1472253, abs=5e-7)


def test_criterion_03_solver_formula_cross_validation(capsys):
    with capsys.disabled():
        for beta in BETAS:
            recursed = solve_ivp(IVPSpec.oscillator(beta), 14)
            closed = oscillator_series(beta, 14)
            for a, b in zip(recursed.components, closed.components):
                assert a.terms[0][0] == b.terms[0][0]
                assert a.terms[0][1] == pytest.approx(b.terms[0][1], rel=5e-15)
        _report_pass(3, "solve_ivp vs closed-form series, term for term")


def test_criterion_04_generic_adomian_engine(capsys):
    with capsys.disabled():
        import random

        from test_adomian import ORACLE_H, closed_form_sequence, lambda_expansion_oracle

        rng = random.Random(42)
        max_deg = 12
        for nonlin in (NL.power(2), NL.power(3), NL.exp()):
            comps = [
                TP.from_dict({k: rng.uniform(-0.2, 0.2) for k in (0, 1, 2)})
                for _ in range(5)
            ]
            seq = adomian_polynomials(nonlin, comps, 4, max_deg)
            # (a) symbolic match against the classical A_0..A_4 forms
            for n, (got, want) in enumerate(
                zip(seq.polys, closed_form_sequence(nonlin, comps, max_deg))
            ):
                diff = got - want
                assert all(abs(c) < 1e-10 for _, c in diff.terms), (nonlin.name, n)
            # (b) finite-difference lambda-oracle at 5 probe points
            for t in (0.1, 0.25, 0.5, 0.75, 1.0):
                for order in range(5):
                    want = lambda_expansion_oracle(nonlin, comps, order, t, ORACLE_H[order])
                    assert seq[order].eval(t) == pytest.approx(
                        want[order], rel=1e-5, abs=2e-6
                    )
        _report_pass(4, "generic Adomian engine vs closed forms and FD oracle")


def test_criterion_05_closed_form_identity(capsys):
    with capsys.disabled():
        # verified in 100-digit arithmetic so the alternating-series bound
        # is checked against the true remainder, not rounding; the bound
        # drops to ~1e-61 at t=0.1, so 50 digits would not be enough
        mpmath.mp.dps = 100
        for beta in (0.1, 0.2):
            b = mpmath.mpf(beta)
            kappa = (1 - b * b) ** mpmath.mpf("1.5")
            w = mpmath.sqrt(kappa)
            for i in range(101):
                t = mpmath.mpf(i) / 10
                psum = sum(
                    b * (-kappa) ** n * t ** (2 * n + 1) / mpmath.factorial(2 * n + 1)
                    for n in range(14)
                )
                diff = abs(psum - (b / w) * mpmath.sin(w * t))
                assert diff <= tail_bound(beta, 14, float(t)) * (1 + 1e-12)
        _report_pass(5, "14-term sum vs (beta/w) sin(w t) within tail bound")


def test_criterion_06_oracle_integrity(capsys):
    with capsys.disabled():
        import numpy as np

        for beta in BETAS:
            traj = integrate(beta, 100.0)
            assert traj.energy_drift <= 1e-9, beta
            p = beta * traj.interpolant(np.linspace(0, 100, 4001))[1]  # momentum
            vs = p / np.hypot(1.0, p)
            assert np.max(np.abs(vs)) <= beta + 1e-9, beta
        small = integrate(1e-6, 10.0)
        ts = np.linspace(0.0, 10.0, 401)
        for t, x in zip(ts, small.sample_on_grid(ts)):
            assert abs(x - 1e-6 * math.sin(t)) <= 1e-9
        _report_pass(6, "oracle energy drift, speed bound, small-beta limit")


def test_criterion_07_series_vs_oracle_error(capsys):
    with capsys.disabled():
        # regression constants frozen from the first oracle run:
        # 1.784e-3 (beta=0.1) and 1.469e-2 (beta=0.2) on a 0.01-spaced grid
        frozen = {0.1: (5e-3, 1.9e-3), 0.2: (2e-2, 1.5e-2)}
        for beta, (criterion, pinned) in frozen.items():
            traj = integrate(beta, 5.0)
            p = oscillator_series(beta, 14).full_sum()
            grid = [0.01 * i for i in range(501)]
            worst = max(
                abs(p.eval(t) - x) for t, x in zip(grid, traj.sample_on_grid(grid))
            )
            assert worst <= criterion, (beta, worst)
            assert worst <= pinned, f"regression: beta={beta} error grew to {worst}"
        _report_pass(7, "LADM vs oracle max error on [0, 5]")


def test_criterion_08_hbm_consistency(capsys):
    with capsys.disabled():
        for beta in (0.1, 0.2):
            par, tab = hbm(beta), tabulated("HBM", beta)
            for j, ((a_p, w_p), (a_t, w_t)) in enumerate(zip(par.terms, tab.terms)):
                assert abs(a_p - a_t) <= 5e-4, (beta, j)
                if (beta, j) == (0.1, 2):
                    continue  # printed 4.944; see xfail below
                assert abs(w_p - w_t) <= 2e-3, (beta, j)
        _report_pass(8, "parametric HBM vs printed instances (ex known typo)")


@pytest.mark.xfail(
    strict=True,
    reason="printed fifth-harmonic frequency 4.944 at beta=0.1 contradicts "
    "5*omega = 4.9937 from the printed formula (and the printed "
    "fundamental 0.998)",
)
def test_criterion_08_printed_fifth_harmonic_frequency():
    assert abs(hbm(0.1).terms[2][1] - tabulated("HBM", 0.1).terms[2][1]) <= 2e-3


def test_criterion_09_frequency_report(capsys):
    with capsys.disabled():
        rep = build_report(0.1, t_max=5.0, dt=0.5)
        fs = rep.frequency_summary
        assert fs["omega_series"] == pytest.approx((1 - 0.01) ** 0.75, rel=1e-12)
        assert fs["omega_hbm"] == pytest.approx(hbm_frequency(0.1), rel=1e-12)
        assert abs(2 * math.pi / fs["oracle_period"] - fs["omega_hbm"]) <= 5e-3
        _report_pass(9, "frequency summary: series, HBM, oracle period")


def test_criterion_10_determinism_and_formats(capsys, tmp_path):
    with capsys.disabled():
        args = ["compare", "--beta", "0.1", "--t-max", "3", "--dt", "0.5"]
        files = {}
        for tag in ("a", "b"):
            csv_p, json_p = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
            assert main(args + ["--out", str(csv_p), "--json", str(json_p)]) == 0
            files[tag] = (csv_p.read_bytes(), json_p.read_bytes())
        assert files["a"] == files["b"]
        json.loads(files["a"][1])  # JSON parses

        rep_json = tmp_path / "rep.json"
        rep_json.write_bytes(files["a"][1])
        svg = tmp_path / "fig.svg"
        assert main(["plot", "--in", str(rep_json), "--out", str(svg)]) == 0
        xml.dom.minidom.parse(str(svg))  # well-formed XML
        _report_pass(10, "byte-identical CSV/JSON, well-formed SVG")
