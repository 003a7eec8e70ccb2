"""Per-layer spans and counters for the traced run.

``Tracer.installed()`` replaces the public functions and methods of each
``ladm`` layer, where the callers look them up, with wrappers that record
a span (calls, total time, self time) and counters, and puts the
originals back on exit. Nothing inside ``ladm`` is edited. A span's self
time is its duration minus the time covered by the spans it caused;
counter bookkeeping is charged to neither.
"""

from __future__ import annotations

import bisect
import contextlib
import time
from collections import Counter, defaultdict

import numpy as np


def _term_pairs(args, kwargs, result) -> int:
    """Coefficient pairs a truncated product multiplies."""
    a, b = args[0], args[1]
    max_degree = args[2] if len(args) > 2 else kwargs["max_degree"]
    kb = [k for k, _ in b.terms]
    return sum(bisect.bisect_right(kb, max_degree - k) for k, _ in a.terms if k <= max_degree)


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total s, self s
        self.counts = Counter()
        self._children = []  # per open span: seconds covered by its children

    def wrap(self, name, fn, counters=()):
        """fn recorded as span ``name``; counters are (key, f(args, kwargs, result))."""
        spans, counts, children = self.spans, self.counts, self._children
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                covered = children.pop()
                s = spans[name]
                s[0] += 1
                s[1] += t1 - t0
                s[2] += t1 - t0 - covered
            for key, f in counters:
                counts[key] += f(args, kwargs, result)
            if children:
                children[-1] += clock() - t0
            return result

        return wrapper

    def count(self, fn, counters):
        """fn with counters only, no span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            for key, f in counters:
                counts[key] += f(args, kwargs, result)
            return result

        return wrapper

    def _patches(self):
        """(owner, attribute, replacement) for every traced entry point."""
        import scipy.integrate

        import ladm.adomian
        import ladm.approximants
        import ladm.cli
        import ladm.oracle
        import ladm.report
        import ladm.series
        import ladm.solver
        import ladm.svgplot

        one = lambda a, k, r: 1
        size = lambda a, k, r: len(r)
        TP = ladm.series.TimePolynomial
        CR = ladm.report.ComparisonReport
        w = self.wrap
        adomian = w("adomian.adomian_polynomials", ladm.adomian.adomian_polynomials)
        osc = w("solver.oscillator_series", ladm.solver.oscillator_series)
        return [
            (ladm.cli, "main", w("cli.main", ladm.cli.main)),
            (ladm.report, "sweep_csv", w("report.sweep_csv", ladm.report.sweep_csv)),
            (ladm.report, "build_report",
             w("report.build_report", ladm.report.build_report,
               [("report.grid_points", lambda a, k, r: len(r.grid))])),
            (CR, "to_csv", w("report.to_csv", CR.to_csv)),
            (CR, "to_json", w("report.to_json", CR.to_json)),
            (CR, "from_json", classmethod(w("report.from_json", CR.from_json.__func__))),
            (ladm.svgplot, "render_lines",
             w("svgplot.render_lines", ladm.svgplot.render_lines,
               [("svgplot.render_lines.bytes", size)])),
            (ladm.oracle, "integrate",
             w("oracle.integrate", ladm.oracle.integrate,
               [("oracle.integrate.steps", lambda a, k, r: len(r.samples))])),
            (ladm.oracle, "period", w("oracle.period", ladm.oracle.period)),
            (ladm.oracle.OracleTrajectory, "sample_on_grid",
             w("oracle.sample_on_grid", ladm.oracle.OracleTrajectory.sample_on_grid,
               [("oracle.sample_on_grid.points", size)])),
            (scipy.integrate.OdeSolution, "__call__",
             self.count(scipy.integrate.OdeSolution.__call__,
                        [("oracle.interp_calls", one),
                         ("oracle.interp_points", lambda a, k, r: int(np.size(a[1])))])),
            (ladm.approximants.SinusoidSum, "eval",
             w("approximants.eval", ladm.approximants.SinusoidSum.eval)),
            (TP, "eval", w("series.eval", TP.eval)),
            (TP, "mul_truncated", w("series.mul_truncated", TP.mul_truncated,
                                    [("series.mul_truncated.term_pairs", _term_pairs)])),
            (TP, "__post_init__", self.count(TP.__post_init__, [("series.construct.calls", one)])),
            (ladm.adomian, "adomian_polynomials", adomian),
            (ladm.solver, "adomian_polynomials", adomian),
            (ladm.solver, "solve_ivp", w("solver.solve_ivp", ladm.solver.solve_ivp,
                                         [("solver.solve_ivp.terms", lambda a, k, r: r.n_terms)])),
            (ladm.solver, "oscillator_series", osc),
            (ladm.report, "oscillator_series", osc),
            (ladm.cli, "oscillator_series", osc),
        ]

    @contextlib.contextmanager
    def installed(self):
        patches = self._patches()
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, per operation: name -> (value, unit)."""

        def calls(name):
            return self.spans[name][0] / ops, "count/op"

        def total_ms(name):
            return self.spans[name][1] * 1e3 / ops, "ms/op"

        def self_ms(name):
            return self.spans[name][2] * 1e3 / ops, "ms/op"

        def count(name, unit="count/op"):
            return self.counts[name] / ops, unit

        out = {}
        for name in ("oracle.integrate", "oracle.period", "oracle.sample_on_grid",
                     "adomian.adomian_polynomials", "solver.solve_ivp",
                     "solver.oscillator_series", "report.build_report", "report.sweep_csv",
                     "cli.main"):
            out[name + ".calls"] = calls(name)
            out[name + ".self_ms"] = self_ms(name)
        for name in ("series.eval", "series.mul_truncated", "approximants.eval",
                     "svgplot.render_lines"):
            out[name + ".calls"] = calls(name)
            out[name + ".ms"] = total_ms(name)
        for name in ("report.to_csv", "report.to_json", "report.from_json"):
            out[name + ".ms"] = total_ms(name)
        for name in ("oracle.integrate.steps", "oracle.sample_on_grid.points",
                     "oracle.interp_calls", "oracle.interp_points",
                     "series.mul_truncated.term_pairs", "series.construct.calls",
                     "solver.solve_ivp.terms", "report.grid_points"):
            out[name] = count(name)
        out["svgplot.render_lines.bytes"] = count("svgplot.render_lines.bytes", "B/op")
        out["cli.bytes_out"] = count("cli.bytes_out", "B/op")
        return out
