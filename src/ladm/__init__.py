"""Series solver for the relativistic harmonic oscillator.

Public surface: truncated power-series algebra (TimePolynomial), Adomian
polynomial generation, the decomposition recurrence and its closed-form
oscillator series, closed-form periodic approximants, the exact
reference trajectory, and report builders behind the ``ladm`` CLI.
"""

from .adomian import AdomianSequence, AnalyticNonlinearity, adomian_polynomials
from .approximants import SinusoidSum, hbm, hbm_frequency, tabulated
from .errors import DomainError, LadmError, NotTabulatedError, OracleError
from .report import ComparisonReport, build_report, sweep_csv
from .series import TimePolynomial
from .solver import (
    IVPSpec,
    SeriesSolution,
    oscillator_kappa,
    oscillator_series,
    residual,
    series_frequency,
    solve_ivp,
    tail_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AdomianSequence",
    "AnalyticNonlinearity",
    "ComparisonReport",
    "DomainError",
    "IVPSpec",
    "LadmError",
    "NotTabulatedError",
    "OracleError",
    "OracleTrajectory",
    "SeriesSolution",
    "SinusoidSum",
    "TimePolynomial",
    "adomian_polynomials",
    "build_report",
    "hbm",
    "hbm_frequency",
    "integrate",
    "oscillator_kappa",
    "oscillator_series",
    "period",
    "residual",
    "series_frequency",
    "solve_ivp",
    "sweep_csv",
    "tabulated",
    "tail_bound",
]


def __getattr__(name):  # PEP 562: the oracle loads on first use
    if name in ("OracleTrajectory", "integrate", "period"):
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
