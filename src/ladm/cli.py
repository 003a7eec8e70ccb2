"""Benchmark CLI for the oscillator series solver.

Exit codes: 0 success, 1 file error (a path that cannot be read or
written), 2 usage error (argparse), 3 domain / tabulation error or a
malformed JSON report, 4 oracle failure; the reason goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

from . import oracle, report, svgplot
from .errors import DomainError, NotTabulatedError, OracleError
from .report import _fmt
from .solver import oscillator_series


def cmd_series(args) -> int:
    sol = oscillator_series(args.beta, args.terms)
    rows = [(n, 2 * n + 1, comp.coeff(2 * n + 1)) for n, comp in enumerate(sol.components)]
    if args.format == "json":
        payload = {
            "beta": args.beta,
            "n_terms": args.terms,
            "components": [
                {"n": n, "degree": d, "scaled_coefficient": c} for n, d, c in rows
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("n,degree,scaled_coefficient")
        for n, d, c in rows:
            print(f"{n},{d},{_fmt(c)}")
    return 0


def cmd_compare(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    rep = report.build_report(
        args.beta, t_max=args.t_max, dt=args.dt, methods=methods, n_terms=args.terms
    )
    csv, text = rep.to_csv(), rep.to_json() if args.json else None  # a refused report writes nothing
    # open --json without emptying it, then --out, and write neither until both are open
    json_fd = args.json and os.open(args.json, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(json_fd, "w") if args.json else contextlib.nullcontext() as j:
        with open(args.out, "w", newline="") as f:
            f.write(csv)
        if j:  # from offset 0 once the CSV is closed, and cut at its end: --out may name this file
            j.write(text)
            if j.seekable():
                j.truncate()
    for m, (max_abs, rms) in sorted(rep.errors.items()):
        print(f"{m}: max_abs={_fmt(max_abs)} rms={_fmt(rms)}")
    return 0


def cmd_sweep(args) -> int:
    csv = report.sweep_csv(args.beta_min, args.beta_max, args.steps)
    with open(args.out, "w", newline="") as f:
        f.write(csv)
    print(f"wrote {args.steps} rows to {args.out}")
    return 0


def cmd_plot(args) -> int:
    with open(args.infile, "rb") as f:  # bytes: bad encodings are malformed JSON
        rep = report.ComparisonReport.from_json(f.read())
    columns = {m: rep.columns[m] for m in rep.method_names()}
    svg = svgplot.render_lines(rep.grid, columns, title=f"Oscillator comparison, beta={rep.beta}")
    with open(args.out, "w") as f:
        f.write(svg)
    return 0


def cmd_period(args) -> int:
    print(_fmt(oracle.period(oracle.integrate(args.beta))))
    return 0


def cmd_dimensional(args) -> int:
    if not (0 < args.omega0 < math.inf and 0 < args.c < math.inf):
        raise DomainError("omega0 and c must be positive and finite")
    grid = report.make_grid(args.t_max, args.dt)
    xs = report.ladm_column(args.beta, args.terms, grid).tolist()
    rows = [(t, x, t / args.omega0, args.c * x / args.omega0) for t, x in zip(grid, xs)]
    for row in rows:
        if not all(map(math.isfinite, row)):
            raise DomainError(f"the dimensional values overflow at t={row[0]}")
    print("t,x,t_dimensional,x_dimensional")
    for row in rows:
        print(",".join(map(_fmt, row)))
    return 0


@functools.cache  # one parser per process, built on the first call and reused by every main
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ladm",
        description="Series solutions of the relativistic harmonic oscillator "
        "and comparisons against closed-form approximants and a "
        "high-order reference integrator.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="print the series coefficients")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--terms", type=int, default=report.DEFAULT_N_TERMS)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("compare", help="method-vs-method table against the oracle")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=0.5)
    p.add_argument("--methods", default=",".join(report.ALL_METHODS))
    p.add_argument("--terms", type=int, default=report.DEFAULT_N_TERMS)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--json", help="optional JSON report path")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sweep", help="accuracy sweep over beta")
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("plot", help="render a JSON report as SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_plot)

    p = sub.add_parser("period", help="oscillation period from the oracle")
    p.add_argument("--beta", type=float, required=True)
    p.set_defaults(fn=cmd_period)

    p = sub.add_parser("dimensional", help="map dimensionless samples to physical units")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--omega0", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=0.5)
    p.add_argument("--terms", type=int, default=report.DEFAULT_N_TERMS)
    p.set_defaults(fn=cmd_dimensional)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, NotTabulatedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OracleError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
