"""``ComparisonReport.to_json`` against the indented dump it splices together.

``to_json`` dumps each float list with the C encoder and splices it into the
indented scalar part.  These tests build the payload dict that the pure-Python
encoder used to dump whole and require the same text, for every set of method
columns, one-point grids and the floats whose text is easiest to get wrong.
"""

import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladm import ComparisonReport
from ladm.report import ALL_METHODS

SPECIAL = [-0.0, 5e-324, 1e22, 1.0, 1e16, math.nan, math.inf]
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
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("period", [None, 6.295046049810176])
@pytest.mark.parametrize("methods", SUBSETS, ids=",".join)
def test_every_method_set(methods, period):
    n = len(SPECIAL)
    for size in (1, n):  # a one-point grid, then every special value in every column
        grid = tuple(SPECIAL[::-1][:size])
        columns = {m: tuple((SPECIAL[i:] + SPECIAL[:i])[:size]) for i, m in enumerate(methods)}
        rep = ComparisonReport(beta=0.1, grid=grid, columns=columns, oracle_period=period)
        assert rep.to_json() == indented_dump(rep)


_VALUES = st.one_of(st.sampled_from(SPECIAL + [-math.inf, -1e-300, 1e300]), st.floats(),
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
    assert rep.to_json() == indented_dump(rep)
