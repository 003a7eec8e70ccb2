"""``ComparisonReport.to_json`` against the indented dump it splices together.

``to_json`` dumps each float list with the C encoder and splices it into the
indented scalar part.  These tests build the payload dict that the pure-Python
encoder used to dump whole and require the same text, for every set of method
columns, one-point grids and the floats whose text is easiest to get wrong.
A report whose dump would hold NaN or Infinity, which are not JSON and which
``from_json`` refuses, is refused with a DomainError instead.
"""

import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladm import ComparisonReport, DomainError, build_report
from ladm.report import ALL_METHODS

SPECIAL = [-0.0, 5e-324, 1e22, 1.0, 1e16]
NONFINITE = [math.nan, math.inf, -math.inf]
SUBSETS = [c for r in range(1, len(ALL_METHODS) + 1) for c in itertools.combinations(ALL_METHODS, r)]

# an inf or nan in a column makes inf - inf or nan in the error columns
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")


def indented_dump(rep: ComparisonReport) -> str:
    """Reference: the whole payload through ``json.dumps(indent=2)``, the pure-Python encoder."""
    payload = {
        "beta": rep.beta,
        "grid": list(rep.grid),
        "columns": {m: list(v) for m, v in rep.columns.items()},
        "errors": {m: {"max_abs": e[0], "rms": e[1]} for m, e in rep.errors.items()},
        "frequency_summary": rep.frequency_summary,
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


@pytest.mark.parametrize("period", [None, 6.295046049810176])
@pytest.mark.parametrize("methods", SUBSETS, ids=",".join)
def test_every_method_set(methods, period):
    n = len(SPECIAL)
    for size in (1, n):  # a one-point grid, then every special value in every column
        grid = tuple(SPECIAL[::-1][:size])
        columns = {m: tuple((SPECIAL[i:] + SPECIAL[:i])[:size]) for i, m in enumerate(methods)}
        rep = ComparisonReport(beta=0.1, grid=grid, columns=columns, oracle_period=period)
        assert rep.to_json() == indented_dump(rep)


_VALUES = st.one_of(st.sampled_from(SPECIAL + NONFINITE + [-1e-300, 1e300]), st.floats(),
                    st.integers(-10**20, 10**20))


@st.composite
def _reports(draw):
    n = draw(st.sampled_from([1, 1, 2, 3, 17]))
    column = st.lists(_VALUES, min_size=n, max_size=n).map(tuple)
    return ComparisonReport(
        beta=draw(st.floats(1e-300, 0.999999)),
        grid=draw(column),
        columns={m: draw(column) for m in draw(st.sampled_from(SUBSETS))},
        oracle_period=draw(st.one_of(st.none(), st.floats(1e-3, 1e6))),
    )


@settings(max_examples=200, deadline=None)
@given(rep=_reports())
def test_splice_matches_the_indented_dump(rep):
    try:
        want = indented_dump(rep)
    except ValueError:  # the dump holds NaN or Infinity
        with pytest.raises(DomainError, match="NaN or inf"):
            rep.to_json()
    else:
        assert rep.to_json() == want


@pytest.mark.parametrize("where", ["grid", "ladm", "oracle", "oracle_period"])
@pytest.mark.parametrize("value", NONFINITE, ids=["nan", "inf", "-inf"])
def test_values_that_are_not_finite_are_refused(where, value):
    # to_json wrote NaN and Infinity tokens, which from_json then refused
    values = {"grid": [0.0, 0.5], "ladm": [0.0, 0.05], "oracle": [0.0, 0.05], "oracle_period": [6.3]}
    values[where][-1] = value
    rep = ComparisonReport(beta=0.1, grid=tuple(values["grid"]),
                           columns={m: tuple(values[m]) for m in ("ladm", "oracle")},
                           oracle_period=values["oracle_period"][0])
    with pytest.raises(DomainError, match="NaN or inf"):
        rep.to_json()


def test_the_rms_of_huge_finite_errors_is_finite():
    # the sum of the squares overflows, and the rms used to be inf, a report with no JSON
    rep = ComparisonReport(beta=0.1, grid=(0.0, 1.0), columns={"hbm": (1e300, 0.0), "oracle": (-1e300, 0.0)})
    assert rep.errors["hbm"] == (2e300, 2e300 / math.sqrt(2.0))
    assert json.loads(rep.to_json())["errors"]["hbm"] == {"max_abs": 2e300, "rms": 2e300 / math.sqrt(2.0)}


def _two_digits(x):
    return float(f"{x:.1e}")


def test_frequency_ledger():
    # beta^2 coefficients of 1 - omega: 3/16 for the exact 2 pi / period, 3/4 for the series'
    # (1 - beta^2)^(3/4), which keeps the stiffness of the top speed all orbit long, and 1/8 for HBM
    f = build_report(1e-3, t_max=1.0, dt=0.5, methods=("oracle",)).frequency_summary
    shifts = [(1.0 - f[w]) / 1e-6 for w in ("omega_oracle", "omega_series", "omega_hbm")]
    assert shifts == pytest.approx([3 / 16, 3 / 4, 1 / 8], rel=5e-3)
    # the relative errors of omega_series and omega_hbm against omega_oracle
    ledger = {0.1: (-0.0056, 0.00063), 0.2: (-0.023, 0.0025), 0.5: (-0.15, 0.017),
              0.9: (-0.59, 0.062), 0.99: (-0.87, 0.072)}
    for beta, want in ledger.items():
        f = build_report(beta, t_max=1.0, dt=0.5, methods=("oracle",)).frequency_summary
        got = [_two_digits(f[w] / f["omega_oracle"] - 1.0) for w in ("omega_series", "omega_hbm")]
        assert tuple(got) == want, beta


def test_integer_oracle_period_reads_back_as_a_float():
    # from_json kept the int, so to_json wrote "oracle_period": 6 back
    rep = ComparisonReport(beta=0.1, grid=(0.0, 0.5), columns={"hbm": (0.0, 0.05)}, oracle_period=6.0)
    text = rep.to_json()
    edited = text.replace('"oracle_period": 6.0', '"oracle_period": 6')
    assert edited != text
    back = ComparisonReport.from_json(edited)
    assert type(back.oracle_period) is float
    assert back.to_json() == text
