"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

1. Runs one cycle of every workload unchanged and expects no failure.
2. Injects a fault into one ``ladm`` layer at a time, so that the program
   writes a wrong but self-consistent output, and expects the operation
   that exercises it to be counted as failed.
3. Runs a tiny benchmark of every workload with tracing off and on, and
   expects exactly the metric names and units declared in BENCHMARK.json.

Exits 0 when every case passes.
"""

from __future__ import annotations

import contextlib
import json
import random
import re
import shutil
import subprocess
import sys

from run import ROOT, SRC, WORKDIR, Loop

sys.path.insert(0, str(SRC))

import ladm.adomian  # noqa: E402
import ladm.approximants  # noqa: E402
import ladm.cli  # noqa: E402
import ladm.oracle  # noqa: E402
import ladm.report  # noqa: E402
import ladm.series  # noqa: E402
import ladm.solver  # noqa: E402
import ladm.svgplot  # noqa: E402
from ladm.errors import DomainError  # noqa: E402

import workloads  # noqa: E402


@contextlib.contextmanager
def patched(owner, attr, make):
    """owner.attr replaced by make(original) for the duration."""
    old = owner.__dict__[attr]
    setattr(owner, attr, make(getattr(owner, attr)))
    try:
        yield
    finally:
        setattr(owner, attr, old)


def shifted(delta):
    return lambda f: lambda *a, **k: f(*a, **k) + delta


def scaled(factor):
    return lambda f: lambda *a, **k: f(*a, **k) * factor


def raising(exc):
    def make(f):
        def g(*a, **k):
            raise exc
        return g
    return make


def _json_rounded(f):
    def g(self):
        d = json.loads(f(self))
        d["columns"] = {m: [float("%.9e" % v) for v in vs] for m, vs in d["columns"].items()}
        return json.dumps(d)
    return g


def _csv_digit_changed(f):
    def g(self):
        lines = f(self).split("\n")
        lines[3] = lines[3][:-1] + ("1" if lines[3][-1] != "1" else "2")
        return "\n".join(lines)
    return g


def _svg_line_dropped(f):
    def g(*a, **k):
        return re.sub(r"<polyline[^\n]*\n", "", f(*a, **k), count=1)
    return g


def _adomian_scaled(f):
    def g(*a, **k):
        seq = f(*a, **k)
        return ladm.adomian.AdomianSequence(polys=tuple(p.scale(1 + 1e-4) for p in seq.polys))
    return g


TP = ladm.series.TimePolynomial
CR = ladm.report.ComparisonReport
# workload, op kind (first field of the op, or None for any), fault, (owner, attr, make)
FAULTS = [
    ("sweep", "period", "period off by 1e-6", (ladm.oracle, "period", scaled(1 + 1e-6))),
    ("sweep", "sweep", "oracle_period off by 1e-6", (ladm.oracle, "period", scaled(1 + 1e-6))),
    ("sweep", "sweep", "series value off by 1e-6", (TP, "eval", shifted(1e-6))),
    ("sweep", "sweep", "domain error, exit 3",
     (ladm.report, "sweep_csv", raising(DomainError("injected")))),
    ("sweep", "period", "uncaught exception",
     (ladm.oracle, "integrate", raising(RuntimeError("injected")))),
    ("compare", None, "oracle column off by 1e-6",
     (ladm.oracle.OracleTrajectory, "sample_on_grid",
      lambda f: lambda *a: [v + 1e-6 for v in f(*a)])),
    ("compare", None, "ladm column off by 1e-9", (TP, "eval", shifted(1e-9))),
    ("compare", None, "hbm column off by 1e-9",
     (ladm.approximants.SinusoidSum, "eval", shifted(1e-9))),
    ("compare", None, "oracle_period off by 1e-6", (ladm.oracle, "period", scaled(1 + 1e-6))),
    ("compare", None, "CSV digit changed", (CR, "to_csv", _csv_digit_changed)),
    ("compare", None, "JSON rounded to 10 digits", (CR, "to_json", _json_rounded)),
    ("compare", None, "SVG polyline missing", (ladm.svgplot, "render_lines", _svg_line_dropped)),
    ("compare", None, "oracle failure, exit 4",
     (ladm.oracle, "integrate", raising(ladm.oracle.OracleError("injected")))),
    ("generic", None, "series value off by 1e-6", (TP, "eval", shifted(1e-6))),
    ("generic", None, "Adomian polynomials off by 1e-4",
     (ladm.solver, "adomian_polynomials", _adomian_scaled)),
    ("generic", None, "uncaught exception",
     (ladm.solver, "solve_ivp", raising(ValueError("injected")))),
]


def check_faults() -> list[str]:
    problems = []
    made = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = made[name] = cls(random.Random(0), WORKDIR)
        loop = Loop(wl)
        loop.run(wl.cycle())
        if loop.failed:
            problems.append(f"{name}: {loop.failed} failures without a fault")
    for name, kind, fault, (owner, attr, make) in FAULTS:
        wl = made[name]
        op = next(op for op in wl.cycle() if kind is None or op[0] == kind)
        loop = Loop(wl)
        with patched(owner, attr, make):
            loop.run([op])
        status = "caught" if loop.failed == 1 else "MISSED"
        print(f"{status}: {name} {kind or ''} {fault}")
        if loop.failed != 1:
            problems.append(f"{name}: fault not caught: {fault}")
    return problems


def check_metric_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w["name"], "--seed", "1",
                 "--seconds", "0.2", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout.splitlines()[-1]
            result = json.loads(out)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            ok = got == want and result["correct"] and result["failed"] == 0
            print(f"{'ok' if ok else 'WRONG'}: {w['name']} --trace {trace}: {len(got)} metrics")
            if not ok:
                problems.append(f"{w['name']} --trace {trace}: {sorted(set(got) ^ set(want))} "
                                f"{result['failed']} failed")
    return problems


def main() -> int:
    WORKDIR.mkdir(exist_ok=True)
    try:
        problems = check_faults()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    problems += check_metric_names()
    for p in problems:
        print("FAIL:", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
