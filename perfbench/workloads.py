"""The benchmark's three workloads: inputs, timed operations and checks.

Each workload draws its inputs from a ``random.Random`` seeded on the
command line and hands them out in cycles. A cycle covers the workload's
input strata once, in a seeded order, so a run of whole cycles has the
same mix of cheap and expensive operations whatever the seed; that is
what keeps medians comparable between runs with different seeds.

``run`` is the timed part of an operation and reaches ``ladm`` only
through ``ladm.cli.main`` or ``ladm.solver.solve_ivp``, looked up as
module attributes at call time so that the traced run's wrappers apply.
``check`` runs outside the timed region, compares the outputs with
``refs`` and raises ``CheckFailed`` on any mismatch; it returns the
largest deviation from an independent reference (absolute for positions,
relative for periods).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import refs

BETA_MIN, BETA_MAX = 0.05, 0.9  # the README's sweep range
N_TERMS = 14  # the CLI default, passed explicitly so the checks know it
TAB_METHODS = "ladm,hbm,dtm,hpm,oracle"  # only tabulated at beta 0.1, 0.2
GRID_METHODS = "ladm,hbm,oracle"
ALL_METHODS = ("ladm", "hbm", "dtm", "hpm", "oracle")  # CSV column order

# Tolerances, each well above the agreement measured at the seed commit and
# well below the perturbations the self-test applies.
PERIOD_RTOL = 1e-9  # ODE period vs quadrature: <= 5.3e-12 seen
ORACLE_ATOL = 1e-7  # DOP853 vs LSODA over t <= 20: <= 5.3e-9 seen
# Generic series at t = 0.3 vs LSODA: truncation at 6 terms reaches 4.6e-10
# at the range corner N = exp, alpha = 0.5, beta = 0.9.
SERIES_ATOL = 5e-9
SUM_RTOL = 1e-12  # re-summed closed form, relative to sum of |terms|
FORMULA_RTOL = 1e-11  # closed-form frequencies and values rounded to %.12e


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def _fmt(x: float) -> str:
    return "%.12e" % x


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _close(a: float, b: float, rtol: float, what: str) -> None:
    _expect(abs(a - b) <= rtol * max(abs(b), 1e-300), f"{what}: {a!r} != {b!r}")


def stratified(rng, n: int) -> list[float]:
    """One seeded beta in each of n equal strata of [BETA_MIN, BETA_MAX]."""
    return [BETA_MIN + (BETA_MAX - BETA_MIN) * (i + rng.uniform(0.02, 0.98)) / n
            for i in range(n)]


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def cli(argv: list[str]) -> CliResult:
    """One ``ladm`` command through ``ladm.cli.main``, output captured."""
    import ladm.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ladm.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def _expect_ok(res: CliResult, what: str) -> None:
    _expect(res.code == 0, f"{what} exited {res.code}: {res.stderr.strip()}")


class Sweep:
    """Oracle-bound: ``ladm sweep --steps 2`` alternating with ``ladm period``.

    Each operation integrates the exact equation and scans it for zero
    crossings with scalar interpolant calls, a fixed cost per operation
    that series, report and serialisation work barely touches. A run uses
    a pool of POOL stratified betas; every cycle permutes the pool into
    POOL/3 sweeps over two betas and POOL/3 periods of one beta, so each
    beta appears once per cycle and references are computed once per beta.
    """

    name = "sweep"
    POOL = 24
    GRID = np.array([i * 0.1 for i in range(51)])  # sweep_csv's t_max=5, dt=0.1

    def __init__(self, rng, workdir: Path):
        self.rng = rng
        self.out = str(workdir / "sweep.csv")
        self.pool = stratified(rng, self.POOL)
        self.period = {b: refs.quadrature_period(b) for b in self.pool}
        self.max_err = {}
        for b in self.pool:
            series = refs.series_terms(b, N_TERMS, self.GRID).sum(axis=0)
            exact = refs.oscillator_trajectory(b, self.GRID)
            self.max_err[b] = float(np.max(np.abs(series - exact)))

    def cycle(self) -> list[tuple]:
        p = self.pool[:]
        self.rng.shuffle(p)
        ops = []
        for i in range(0, len(p), 3):
            ops.append(("sweep", min(p[i], p[i + 1]), max(p[i], p[i + 1])))
            ops.append(("period", p[i + 2]))
        return ops

    def run(self, op):
        if op[0] == "sweep":
            return cli(["sweep", "--beta-min", repr(op[1]), "--beta-max", repr(op[2]),
                        "--steps", "2", "--out", self.out])
        return cli(["period", "--beta", repr(op[1])])

    def outputs(self, op) -> list[str]:
        return [self.out] if op[0] == "sweep" else []

    def check(self, op, res: CliResult) -> float:
        _expect_ok(res, op[0])
        if op[0] == "period":
            b = op[1]
            got = float(res.stdout)
            _close(got, self.period[b], PERIOD_RTOL, f"period at beta={b}")
            return abs(got / self.period[b] - 1.0)
        _expect(res.stdout == f"wrote 2 rows to {self.out}\n", f"sweep stdout {res.stdout!r}")
        lines = Path(self.out).read_text().splitlines()
        _expect(lines[0] == "beta,max_abs_err_ladm,omega_series,omega_hbm,oracle_period",
                f"sweep header {lines[0]!r}")
        _expect(len(lines) == 3, f"sweep wrote {len(lines) - 1} rows")
        worst = 0.0
        for b, line in zip(op[1:], lines[1:]):
            beta, err, w_series, w_hbm, period = (float(v) for v in line.split(","))
            _close(beta, b, FORMULA_RTOL, "sweep beta")
            _close(w_series, refs.kappa(b) ** 0.5, FORMULA_RTOL, f"omega_series at {b}")
            _close(w_hbm, refs.hbm_frequency(b), FORMULA_RTOL, f"omega_hbm at {b}")
            _close(period, self.period[b], PERIOD_RTOL, f"oracle_period at {b}")
            _expect(abs(err - self.max_err[b]) <= ORACLE_ATOL,
                    f"max_abs_err_ladm at {b}: {err!r} != {self.max_err[b]!r}")
            worst = max(worst, abs(period / self.period[b] - 1.0), abs(err - self.max_err[b]))
        return worst


class Compare:
    """Grid-bound, write then read: ``ladm compare`` then ``ladm plot``.

    Work per grid point (oracle sampling, series and sinusoid evaluation,
    CSV/JSON writing, SVG rendering) outweighs the fixed oracle cost. A
    cycle covers each of the six (t_max, dt) grids twice: once at beta 0.1
    or 0.2 with all five methods, once at a beta from a run-wide pool of
    six stratified betas with the methods that exist at every beta. t_max
    stays at or below 20, the oracle's minimum horizon (see README.md).
    """

    name = "compare"
    GRIDS = [(t_max, dt) for t_max in (10, 20) for dt in (0.01, 0.02, 0.05)]

    def __init__(self, rng, workdir: Path):
        self.rng = rng
        self.csv = str(workdir / "compare.csv")
        self.json = str(workdir / "compare.json")
        self.svg = str(workdir / "compare.svg")
        self.pool = stratified(rng, len(self.GRIDS))
        grids = {dt: np.array([i * dt for i in range(int(round(20 / dt)) + 1)])
                 for dt in sorted({dt for _, dt in self.GRIDS})}
        union = np.unique(np.concatenate(list(grids.values())))
        betas = self.pool + [0.1, 0.2]
        self.exact = {}  # (beta, dt) -> LSODA x on the t_max=20 grid of dt
        for b in betas:
            x = refs.oscillator_trajectory(b, union)
            for dt, ts in grids.items():
                self.exact[b, dt] = x[np.searchsorted(union, ts)]
        self.period = {b: refs.quadrature_period(b) for b in betas}

    def cycle(self) -> list[tuple]:
        p = self.pool[:]
        self.rng.shuffle(p)
        ops = []
        for (t_max, dt), b in zip(self.GRIDS, p):
            ops.append((self.rng.choice((0.1, 0.2)), t_max, dt, TAB_METHODS))
            ops.append((b, t_max, dt, GRID_METHODS))
        self.rng.shuffle(ops)
        return ops

    def run(self, op):
        beta, t_max, dt, methods = op
        res = cli(["compare", "--beta", repr(beta), "--t-max", repr(t_max), "--dt", repr(dt),
                   "--methods", methods, "--terms", str(N_TERMS),
                   "--out", self.csv, "--json", self.json])
        if res.code != 0:
            return res, None
        return res, cli(["plot", "--in", self.json, "--out", self.svg])

    def outputs(self, op) -> list[str]:
        return [self.csv, self.json, self.svg]

    def check(self, op, results) -> float:
        beta, t_max, dt, methods = op
        compare, plot = results
        _expect_ok(compare, "compare")
        _expect_ok(plot, "plot")
        requested = methods.split(",")
        names = [m for m in ALL_METHODS if m in requested]
        others = [m for m in names if m != "oracle"]

        d = json.loads(Path(self.json).read_text())
        n = int(round(t_max / dt)) + 1
        grid = np.array(d["grid"])
        _expect(d["beta"] == beta, f"json beta {d['beta']!r}")
        _expect(np.array_equal(grid, [i * dt for i in range(n)]), "json grid")
        _expect(sorted(d["columns"]) == sorted(names), f"json columns {sorted(d['columns'])}")
        cols = {m: np.array(d["columns"][m]) for m in names}
        _expect(all(len(c) == n for c in cols.values()), "json column length")

        # CSV: every value is the JSON value rendered %.12e, and every
        # err_<m> is |<m> - oracle| recomputed from the JSON values.
        lines = Path(self.csv).read_text().splitlines()
        _expect(lines[0] == ",".join(["t"] + names + [f"err_{m}" for m in others]),
                f"csv header {lines[0]!r}")
        _expect(len(lines) == n + 1, f"csv has {len(lines) - 1} rows, want {n}")
        diffs = {m: np.abs(cols[m] - cols["oracle"]) for m in others}
        columns = [grid] + [cols[m] for m in names] + [diffs[m] for m in others]
        for i, line in enumerate(lines[1:]):
            want = ",".join(_fmt(float(c[i])) for c in columns)
            _expect(line == want, f"csv row {i}: {line!r} != {want!r}")

        # ladm: re-summed closed-form components, relative to the size of
        # the terms because past the series horizon they cancel heavily.
        terms = refs.series_terms(beta, N_TERMS, grid)
        scale = np.abs(terms).sum(axis=0)
        ladm_dev = np.abs(cols["ladm"] - terms.sum(axis=0))
        _expect(bool(np.all(ladm_dev <= SUM_RTOL * scale + 1e-300)), "ladm column vs closed form")
        _expect(bool(np.all(np.abs(cols["hbm"] - refs.hbm_curve(beta, grid)) <= 1e-12)),
                "hbm column vs closed form")
        oracle_err = float(np.max(np.abs(cols["oracle"] - self.exact[beta, dt][:n])))
        _expect(oracle_err <= ORACLE_ATOL, f"oracle column vs LSODA: {oracle_err!r}")

        for m in others:
            e = d["errors"][m]
            _expect(e["max_abs"] == float(diffs[m].max()), f"errors.{m}.max_abs")
            rms = math.sqrt(float(np.mean(diffs[m] ** 2)))
            _close(e["rms"], rms, FORMULA_RTOL, f"errors.{m}.rms")
        want_stdout = "".join(
            f"{m}: max_abs={_fmt(d['errors'][m]['max_abs'])} rms={_fmt(d['errors'][m]['rms'])}\n"
            for m in sorted(others)
        )
        _expect(compare.stdout == want_stdout, f"compare stdout {compare.stdout!r}")
        f = d["frequency_summary"]
        _close(f["omega_series"], refs.kappa(beta) ** 0.5, FORMULA_RTOL, "omega_series")
        _close(f["omega_hbm"], refs.hbm_frequency(beta), FORMULA_RTOL, "omega_hbm")
        _close(f["oracle_period"], self.period[beta], PERIOD_RTOL, "oracle_period")
        _close(f["omega_oracle"], 2 * math.pi / f["oracle_period"], FORMULA_RTOL, "omega_oracle")

        svg = Path(self.svg).read_text()
        root = ET.fromstring(svg.encode())
        lines_drawn = root.findall("{http://www.w3.org/2000/svg}polyline")
        _expect(len(lines_drawn) == len(names), f"svg has {len(lines_drawn)} polylines")
        return max(oracle_err, abs(f["oracle_period"] / self.period[beta] - 1.0))


class Generic:
    """Series-algebra-bound: ``solve_ivp`` for x'' + N(x) = 0, no oracle, no CLI.

    Adomian polynomials and truncated products dominate and grow as
    O(order^3), so the slowest strata set ``p90_ms``. A cycle covers every
    (N, n_terms) pair once with fresh alpha and beta; the sum is evaluated
    at PROBE_T, well inside every series' radius of convergence.
    """

    name = "generic"
    PROBE_T = 0.3
    TERMS = range(6, 13)

    def __init__(self, rng, workdir: Path):
        from ladm.adomian import AnalyticNonlinearity

        self.rng = rng
        self.nonlin = {
            "x2": AnalyticNonlinearity.power(2),
            "x3": AnalyticNonlinearity.power(3),
            "exp": AnalyticNonlinearity.exp(),
        }

    def cycle(self) -> list[tuple]:
        ops = [(name, self.rng.uniform(-0.5, 0.5), self.rng.uniform(BETA_MIN, BETA_MAX), n)
               for name in self.nonlin for n in self.TERMS]
        self.rng.shuffle(ops)
        return ops

    def run(self, op):
        import ladm.solver

        name, alpha, beta, n = op
        sol = ladm.solver.solve_ivp(ladm.solver.IVPSpec(alpha, beta, self.nonlin[name]), n)
        return len(sol.components), sol.eval(self.PROBE_T)

    def outputs(self, op) -> list[str]:
        return []

    def check(self, op, result) -> float:
        name, alpha, beta, n = op
        count, value = result
        _expect(count == n, f"{count} components, want {n}")
        want = refs.generic_solution(name, alpha, beta, self.PROBE_T)
        err = abs(value - want)
        _expect(err <= SERIES_ATOL, f"{name} series at t={self.PROBE_T}: {value!r} != {want!r}")
        return err


WORKLOADS = {w.name: w for w in (Sweep, Compare, Generic)}
