"""Write the golden outputs: hashes to ``golden_generic.json`` and ``golden_report.json``,
values to ``golden_oracle.json``.

``golden_generic.json`` holds the generic Adomian engine.  Each case is a
sequence of TimePolynomials: the components of ``solve_ivp`` or the
polynomials of ``adomian_polynomials``.  Its hash is the sha256 of every
polynomial's term count and packed ``(degree, coefficient)`` pairs, so a
change of one ulp in any coefficient changes it.

``golden_report.json`` holds the sha256 of the CSV, the JSON and the
``ladm plot`` SVG of each report in REPORTS, built on each of
REPORT_GRIDS without the oracle column.  The JSON writes every value's
shortest round-trip repr, so a change of one ulp in any column changes its
hash.

``golden_oracle.json`` holds outputs that read the DOP853 oracle, as values:
the period at each of ORACLE_BETAS and the numbers of every row of
``sweep_csv(*SWEEP)``.  They may move in their last digits when the
oracle's arithmetic changes, so ``test_golden.py`` compares them to a
relative 1e-10 and the hashes exactly.

Run from the repository root after a change that is meant to move these
outputs, and name the cases that changed:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ladm import AnalyticNonlinearity as NL
from ladm import IVPSpec, adomian_polynomials, build_report, integrate, period, solve_ivp, sweep_csv
from ladm import TimePolynomial as TP
from ladm.cli import main
from test_adomian import random_components

GOLDEN = Path(__file__).with_name("golden_generic.json")
GOLDEN_ORACLE = Path(__file__).with_name("golden_oracle.json")
GOLDEN_REPORT = Path(__file__).with_name("golden_report.json")
NONLINEARITIES = {"x^2": NL.power(2), "x^3": NL.power(3), "exp": NL.exp()}
INITIAL_DATA = [(0.0, 0.5), (0.3, 0.7), (-0.4, 0.2)]  # (alpha, beta)
TERM_COUNTS = [6, 9, 12]
ORACLE_BETAS = [1e-300, 0.1, 0.5, 0.9, 0.99, 0.9999999]
SWEEP = (0.05, 0.9, 6)  # beta_min, beta_max, steps
REPORTS = [(0.1, "ladm,hbm,dtm,hpm"), (0.2, "ladm,hbm,dtm,hpm"), (0.77, "ladm,hbm")]
REPORT_GRIDS = [(10.0, 0.01), (10.0, 0.05), (20.0, 0.01), (20.0, 0.05), (0.1, 0.5)]  # (t_max, dt)


def digest(polys) -> str:
    h = hashlib.sha256()
    for p in polys:
        h.update(struct.pack("<q", len(p.terms)))
        for k, c in p.terms:
            h.update(struct.pack("<qd", k, c))
    return h.hexdigest()


def _criterion_04():
    """The inputs of acceptance criterion 04: A_0..A_4 at degree 12."""
    rng = random.Random(42)
    for name, nonlin in NONLINEARITIES.items():
        comps = [TP.from_dict({k: rng.uniform(-0.2, 0.2) for k in (0, 1, 2)}) for _ in range(5)]
        yield f"criterion04/{name}", adomian_polynomials(nonlin, comps, 4, 12).polys


def _lambda_power():
    """The inputs of ``test_orders_above_four_match_lambda_power``: A_0..A_10."""
    for p in (2, 3):
        comps = random_components(random.Random(19 + p), n=11, scale=1.0)
        comps[0] = comps[0] + TP.constant(0.5)
        yield f"lambda_power/x^{p}", adomian_polynomials(NL.power(p), comps, 10, 12).polys


def _solve_ivp():
    for name, nonlin in NONLINEARITIES.items():
        for alpha, beta in INITIAL_DATA:
            for n in TERM_COUNTS:
                sol = solve_ivp(IVPSpec(alpha, beta, nonlin), n)
                yield f"solve_ivp/{name}/{alpha}/{beta}/{n}", sol.components


def cases():
    """(name, polynomials) for every golden case."""
    yield from _criterion_04()
    yield from _lambda_power()
    yield from _solve_ivp()


def hashes() -> dict[str, str]:
    return {name: digest(polys) for name, polys in cases()}


def report_outputs():
    """(name, text) of the CSV, JSON and ``ladm plot`` SVG of every golden report."""
    with tempfile.TemporaryDirectory() as d:
        src, svg = Path(d, "report.json"), Path(d, "report.svg")
        for beta, methods in REPORTS:
            for t_max, dt in REPORT_GRIDS:
                rep = build_report(beta, t_max=t_max, dt=dt, methods=tuple(methods.split(",")))
                name = f"report/{methods}/{beta!r}/{t_max!r}/{dt!r}"
                src.write_text(text := rep.to_json())
                if main(["plot", "--in", str(src), "--out", str(svg)]) != 0:
                    raise RuntimeError(f"ladm plot failed on {name}")
                yield f"{name}/csv", rep.to_csv()
                yield f"{name}/json", text
                yield f"{name}/svg", svg.read_text()


def report_hashes() -> dict[str, str]:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in report_outputs()}


def oracle_values() -> dict[str, list[float]]:
    """The periods and the sweep rows, each a list of floats."""
    values = {f"period/{beta!r}": [period(integrate(beta))] for beta in ORACLE_BETAS}
    rows = sweep_csv(*SWEEP).splitlines()[1:]
    values.update((f"sweep/{i}", [float(v) for v in row.split(",")]) for i, row in enumerate(rows))
    return values


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(hashes(), indent=1) + "\n")
    GOLDEN_ORACLE.write_text(json.dumps(oracle_values(), indent=1) + "\n")
    GOLDEN_REPORT.write_text(json.dumps(report_hashes(), indent=1) + "\n")
    print(f"wrote {GOLDEN}, {GOLDEN_ORACLE} and {GOLDEN_REPORT}")
