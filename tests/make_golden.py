"""Write the golden hashes of the generic Adomian engine to ``golden_generic.json``.

Each case is a sequence of TimePolynomials: the components of ``solve_ivp``
or the polynomials of ``adomian_polynomials``.  Its hash is the sha256 of
every polynomial's term count and packed ``(degree, coefficient)`` pairs, so
a change of one ulp in any coefficient changes it.  ``test_golden.py``
recomputes the hashes and compares.

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
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ladm import AnalyticNonlinearity as NL
from ladm import IVPSpec, adomian_polynomials, solve_ivp
from ladm import TimePolynomial as TP
from test_adomian import random_components

GOLDEN = Path(__file__).with_name("golden_generic.json")
NONLINEARITIES = {"x^2": NL.power(2), "x^3": NL.power(3), "exp": NL.exp()}
INITIAL_DATA = [(0.0, 0.5), (0.3, 0.7), (-0.4, 0.2)]  # (alpha, beta)
TERM_COUNTS = [6, 9, 12]


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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(hashes(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
