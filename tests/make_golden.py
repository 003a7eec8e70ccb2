"""Write the golden outputs: hashes to ``golden_generic.json`` and ``golden_report.json``,
values to ``golden_oracle.json``.

``golden_generic.json`` holds the generic Adomian engine.  Each case is a
sequence of TimePolynomials: the components of ``solve_ivp`` or the
polynomials of ``adomian_polynomials``.  Its hash is the sha256 of every
polynomial's term count and packed ``(degree, coefficient)`` pairs, so a
change of one ulp in any coefficient changes it.

``golden_report.json`` holds the sha256 of the CSV, the JSON and the
``ladm plot`` SVG of each report in REPORTS, built on each of
REPORT_GRIDS without the oracle column, of the stdout of each
``ladm`` command in COMMANDS (``series`` and ``dimensional``, which read no
oracle either), and of the exit code and stderr of each command in
ERROR_COMMANDS, the documented error cases.  The JSON writes every value's
shortest round-trip repr, so a change of one ulp in any column changes its
hash.

``golden_oracle.json`` holds outputs that read the DOP853 oracle, as values:
the period at each of ORACLE_BETAS, the numbers of every row of
``sweep_csv(*SWEEP)``, and of each ``ladm compare`` in ORACLE_COMPARES its
oracle column, its ``err_*`` columns, its ``errors`` and its
``omega_oracle``.  They may move in their last digits when the oracle's
arithmetic changes, so ``test_golden.py`` compares the periods and rows to
a relative 1e-10, the ``compare/*`` values to an absolute 1e-10 times the
largest |oracle| of their report (the columns pass through zero), and the
hashes exactly.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

It writes only the keys that a golden file lacks, and prints, but never
overwrites, each pinned key whose current value differs and each pinned key
that is no longer computed.  So a moved value stays pinned until you re-pin
it on purpose: delete its key from the golden file, run the script again,
and name the cases that changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import struct
import sys
import tempfile
from itertools import chain
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
COMMANDS = [
    *(f"series --beta {beta} --terms {n} --format {fmt}"
      for beta in (0.1, 0.5, 0.9) for n in (1, 14, 60) for fmt in ("csv", "json")),
    "dimensional --beta 0.1 --omega0 2 --c 3",
    "dimensional --beta 0.5 --omega0 1 --c 1 --t-max 20 --dt 0.05 --terms 20",
    "dimensional --beta 0.77 --omega0 0.5 --c 299792458 --t-max 5 --dt 0.1 --terms 6",
]
ERROR_COMMANDS = [
    "period --beta 1.5",
    "period --beta nan",
    "dimensional --beta 0.1 --omega0 1 --c 1 --t-max 1e300 --dt 1e300",
    "dimensional --beta 0.1 --omega0 1e-310 --c 1 --t-max 1 --dt 0.5",
    "period --beta 0.9999999999999999",
    "compare --beta 0.5 --t-max 1000 --dt 1 --terms 100 --methods ladm,oracle"
    " --out {d}/x.csv --json {d}/y.json",
    "sweep --beta-min 0.05 --beta-max 0.99 --steps 1000001 --out {d}/s.csv",
]
ORACLE_COMPARES = [
    "--beta 0.1 --t-max 20 --dt 0.5",
    "--beta 0.5 --t-max 20 --dt 0.5 --methods ladm,hbm,oracle",
    "--beta 0.9 --t-max 20 --dt 0.5 --methods ladm,hbm,oracle",
    "--beta 0.9 --t-max 1000 --dt 1 --methods hbm,oracle",
]


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


def command_outputs():
    """(name, stdout) of every command in COMMANDS, run through ``cli.main``."""
    for command in COMMANDS:
        with contextlib.redirect_stdout(out := io.StringIO()):
            code = main(command.split())
        if code != 0:
            raise RuntimeError(f"ladm {command} exited {code}")
        yield f"cli/{command}", out.getvalue()


def error_outputs():
    """(name, exit code and stderr) of every command in ERROR_COMMANDS, run through ``cli.main``
    with its output paths ``{d}/...`` in a temporary directory, which must stay empty."""
    with tempfile.TemporaryDirectory() as d:
        for command in ERROR_COMMANDS:
            with contextlib.redirect_stderr(err := io.StringIO()):
                code = main(command.format(d=d).split())
            if code == 0 or any(Path(d).iterdir()):
                raise RuntimeError(f"ladm {command} exited {code} or wrote a file")
            yield f"error/{command}", f"exit {code}\n{err.getvalue()}"


def report_hashes() -> dict[str, str]:
    outputs = chain(report_outputs(), command_outputs(), error_outputs())
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in outputs}


def compare_values():
    """(name, floats) of what each ``ladm compare`` in ORACLE_COMPARES writes from the oracle:
    the oracle column and ``errors`` of its JSON, the ``err_*`` columns of its CSV and
    ``omega_oracle``."""
    with tempfile.TemporaryDirectory() as d:
        csv, js = Path(d, "report.csv"), Path(d, "report.json")
        for args in ORACLE_COMPARES:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["compare", *args.split(), "--out", str(csv), "--json", str(js)])
            if code != 0:
                raise RuntimeError(f"ladm compare {args} failed")
            rep, (header, *rows) = json.loads(js.read_text()), csv.read_text().splitlines()
            yield f"compare/{args}/oracle", rep["columns"]["oracle"]
            for i, name in enumerate(header.split(",")):
                if name.startswith("err_"):
                    yield f"compare/{args}/{name}", [float(row.split(",")[i]) for row in rows]
            for m, e in rep["errors"].items():
                yield f"compare/{args}/errors.{m}", [e["max_abs"], e["rms"]]
            yield f"compare/{args}/omega_oracle", [rep["frequency_summary"]["omega_oracle"]]


def oracle_values() -> dict[str, list[float]]:
    """The periods, the sweep rows and the oracle outputs of ``compare``, each a list of floats."""
    values = {f"period/{beta!r}": [period(integrate(beta))] for beta in ORACLE_BETAS}
    rows = sweep_csv(*SWEEP).splitlines()[1:]
    values.update((f"sweep/{i}", [float(v) for v in row.split(",")]) for i, row in enumerate(rows))
    values.update(compare_values())
    return values


def pin(path: Path, current: dict) -> None:
    """Add to ``path`` the keys of ``current`` that it lacks; name each pinned key that moved."""
    pinned = json.loads(path.read_text()) if path.exists() else {}
    for key, value in pinned.items():
        if key not in current:
            print(f"{path.name}: {key} is pinned but no longer computed")
        elif current[key] != value:
            print(f"{path.name}: {key} differs from its pinned value, which is kept")
    missing = [key for key in current if key not in pinned]
    if missing:
        path.write_text(json.dumps(current | pinned, indent=1) + "\n")
        print(f"{path.name}: pinned {len(missing)} new keys")


if __name__ == "__main__":
    pin(GOLDEN, hashes())
    pin(GOLDEN_ORACLE, oracle_values())
    pin(GOLDEN_REPORT, report_hashes())
