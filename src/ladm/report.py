"""Comparison reports: method-vs-method tables and error summaries.

All file output is deterministic, with no timestamps: CSV values render as
%.12e and JSON values as their shortest round-trip repr.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from . import approximants
from .errors import DomainError
from .solver import oscillator_series, series_frequency

ALL_METHODS = ("ladm", "hbm", "dtm", "hpm", "oracle")
DEFAULT_N_TERMS = 14
MAX_GRID_POINTS = 1_000_000
_FMT = "%.12e"


def _fmt(x: float) -> str:
    return _FMT % x


@dataclass(frozen=True)
class ComparisonReport:
    beta: float
    grid: tuple[float, ...]
    columns: dict[str, tuple[float, ...]]  # method -> x values on grid
    oracle_period: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:  # the frequencies are derived from it
            raise DomainError(f"beta must lie in (0, 1), got {self.beta}")
        if not self.columns:
            raise DomainError(f"no method requested; choose from {ALL_METHODS}")
        bad = [m for m, v in self.columns.items() if m not in ALL_METHODS or len(v) != len(self.grid)]
        if bad or not self.grid:
            raise DomainError(f"need a grid and method columns of its length, got {bad}")

    def method_names(self) -> list[str]:
        return [m for m in ALL_METHODS if m in self.columns]

    @cached_property
    def frequency_summary(self) -> dict[str, float]:
        """Series and HBM frequencies of beta, plus the oracle's when it was run."""
        freq = {"omega_series": series_frequency(self.beta),
                "omega_hbm": approximants.hbm_frequency(self.beta)}
        if (p := self.oracle_period) is not None:
            freq.update(oracle_period=p, omega_oracle=2.0 * math.pi / p)
        return freq

    @cached_property
    def _abs_errors(self) -> dict[str, list[float]]:
        """method -> |x - x_oracle| on the grid; empty without an oracle column."""
        import numpy as np
        ref = self.columns.get("oracle")
        others = [m for m in self.columns if m != "oracle"] if ref else []
        return {m: np.abs(np.subtract(self.columns[m], ref)).tolist() for m in others}

    @cached_property
    def errors(self) -> dict[str, tuple[float, float]]:
        """method -> (max_abs, rms) against the oracle column; hypot keeps the rms of huge
        errors finite, where their sum of squares would overflow."""
        return {
            m: (max(d), math.hypot(*d) / math.sqrt(len(d)))
            for m, d in self._abs_errors.items()
        }

    # -- serialization ------------------------------------------------

    def to_csv(self) -> str:
        methods = self.method_names()
        err_methods = [m for m in methods if m in self._abs_errors]
        header = ["t"] + methods + [f"err_{m}" for m in err_methods]
        cols = [self.grid, *(self.columns[m] for m in methods),
                *(self._abs_errors[m] for m in err_methods)]
        row = ",".join([_FMT] * len(cols))
        return "\n".join([",".join(header), *(row % r for r in zip(*cols))]) + "\n"

    def to_json(self) -> str:
        """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, made by the C encoder:
        the scalars are dumped indented around one placeholder per float list, and each list
        is dumped flat and spliced in with its ", " turned into the indented line breaks."""
        payload = {
            "beta": self.beta,
            "grid": "\0grid",
            "columns": {m: f"\0{m}" for m in self.columns},
            "errors": {m: {"max_abs": e[0], "rms": e[1]} for m, e in self.errors.items()},
            "frequency_summary": self.frequency_summary,
        }
        try:  # NaN and Infinity are not JSON, and from_json refuses them
            text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
            for key, vals in {"grid": self.grid, **self.columns}.items():  # keys from ALL_METHODS
                pad = "\n" + "  " * (2 if key == "grid" else 3)  # float text holds no ", "
                body = json.dumps(list(vals), allow_nan=False)[1:-1].replace(", ", "," + pad)
                text = text.replace(f'"\\u0000{key}"', f"[{pad}{body}{pad[:-2]}]")
        except ValueError as exc:
            raise DomainError(f"a report holding NaN or inf has no JSON: {exc}") from exc
        return text + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "ComparisonReport":
        """Parse ``to_json`` output; the stored errors and omegas are recomputed, not read."""
        try:
            d = json.loads(text)
            period = d["frequency_summary"].get("oracle_period")
            numbers = chain(d["grid"], *d["columns"].values(), [] if period is None else [period])
            if not set(map(type, numbers)) <= {float, int}:  # float() reads "0.5" and True
                raise ValueError("grid, columns and oracle_period must hold JSON numbers")
            grid = tuple(map(float, d["grid"]))
            columns = {m: tuple(map(float, v)) for m, v in d["columns"].items()}
            finite = all(map(math.isfinite, [*grid, *(x for v in columns.values() for x in v)]))
            if not finite or period is not None and not 0 < period < math.inf:
                raise ValueError("grid, columns and a positive oracle_period must be finite")
            period = None if period is None else float(period)  # to_json writes 7.0, not 7
            return cls(beta=d["beta"], grid=grid, columns=columns, oracle_period=period)
        except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise DomainError(f"not a comparison report: {exc!r}") from exc


def make_grid(t_max: float, dt: float) -> tuple[float, ...]:
    """Uniform grid 0, dt, 2*dt, ... that stops at t_max.

    The point count is floor(t_max/dt + 1e-9) + 1, so a ratio within 1e-9
    of an integer still reaches t_max (0.3/0.1 gives 4 points) and any
    other ratio stops at the last multiple of dt below t_max.  Rounding in
    i*dt can still put the last point a few ulps past t_max.  Grids of more
    than MAX_GRID_POINTS points are refused before any is built.
    """
    if not (math.isfinite(t_max) and math.isfinite(dt)):
        raise DomainError("t_max and dt must be finite")
    if t_max <= 0 or dt <= 0:
        raise DomainError("t_max and dt must be positive")
    ratio = t_max / dt + 1e-9
    if not ratio < MAX_GRID_POINTS:
        raise DomainError(f"t_max/dt = {ratio:.3g} exceeds {MAX_GRID_POINTS} grid points")
    return tuple(i * dt for i in range(math.floor(ratio) + 1))


def build_report(
    beta: float,
    t_max: float = 10.0,
    dt: float = 0.5,
    methods: tuple[str, ...] = ALL_METHODS,
    n_terms: int = DEFAULT_N_TERMS,
) -> ComparisonReport:
    """Evaluate the requested methods on a uniform grid against the oracle."""
    import numpy as np
    methods = tuple(m.lower() for m in methods)
    for m in methods:
        if m not in ALL_METHODS:
            raise DomainError(f"unknown method {m!r}; choose from {ALL_METHODS}")
    grid = make_grid(t_max, dt)
    ts = np.array(grid)

    columns = {}
    if "ladm" in methods:
        columns["ladm"] = ladm_column(beta, n_terms, ts)
    if "hbm" in methods:
        columns["hbm"] = approximants.hbm(beta).eval(ts)
    for m in ("dtm", "hpm"):
        if m in methods:
            columns[m] = approximants.tabulated(m.upper(), beta).eval(ts)

    period = None
    if "oracle" in methods:
        from . import oracle
        traj = oracle.integrate(beta)
        columns["oracle"] = traj.sample_on_grid(np.minimum(ts, t_max))  # t_max, not its rounding
        period = oracle.period(traj)

    columns = {m: tuple(np.asarray(v).tolist()) for m, v in columns.items()}
    return ComparisonReport(beta=beta, grid=grid, columns=columns, oracle_period=period)


def ladm_column(beta: float, n_terms: int, ts) -> np.ndarray:
    """The n_terms oscillator series at each time in ts, as an array.

    Past some t the terms t^k/k! overflow and the sum turns to inf or nan;
    that is refused with a DomainError naming the first such t.
    """
    import numpy as np
    p = oscillator_series(beta, n_terms).full_sum()
    ts = np.asarray(ts, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        xs = p.eval(ts)
    bad = np.flatnonzero(~np.isfinite(xs))
    if bad.size:
        raise DomainError(f"the {n_terms}-term series overflows at t={ts[bad[0]]}")
    return xs


def sweep_csv(beta_min: float, beta_max: float, steps: int) -> str:
    """Per-beta accuracy summary, one CSV row per beta, for 2 to MAX_GRID_POINTS steps.

    Each row comes from a ladm/oracle report on the grid t_max = 5, dt = 0.1.
    """
    if not 0.0 < beta_min < beta_max < 1.0:
        raise DomainError("require 0 < beta_min < beta_max < 1")
    if not 2 <= steps <= MAX_GRID_POINTS:  # refused before any row is built
        raise DomainError(f"steps must lie in [2, {MAX_GRID_POINTS}], got {steps}")
    lines = ["beta,max_abs_err_ladm,omega_series,omega_hbm,oracle_period"]
    for i in range(steps):
        beta = min(beta_min + (beta_max - beta_min) * i / (steps - 1), beta_max)  # may round up
        rep = build_report(beta, t_max=5.0, dt=0.1, methods=("ladm", "oracle"))
        f = rep.frequency_summary
        row = (beta, rep.errors["ladm"][0], f["omega_series"], f["omega_hbm"], f["oracle_period"])
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"
