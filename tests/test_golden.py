"""The outputs against the golden files that ``make_golden.py`` writes.

The generic Adomian engine's float operations are meant to stay in the same
order, so its outputs are compared with the hashes in ``golden_generic.json``
bit for bit, and the CSV, JSON and SVG of the reports without an oracle
column and the stdout of ``ladm series`` and ``ladm dimensional`` byte for
byte with the hashes in ``golden_report.json``.  The
outputs that read the oracle are compared with the values
in ``golden_oracle.json`` to a relative 1e-10.  ``make_golden.py`` documents
the cases and rewrites all three files when a change is meant to move them.
"""

import json

import pytest

from make_golden import (GOLDEN, GOLDEN_ORACLE, GOLDEN_REPORT, cases, digest, oracle_values,
                         report_hashes)

EXPECTED = json.loads(GOLDEN.read_text())
EXPECTED_ORACLE = json.loads(GOLDEN_ORACLE.read_text())
EXPECTED_REPORT = json.loads(GOLDEN_REPORT.read_text())


@pytest.fixture(scope="module")
def computed():
    return dict(cases())


@pytest.fixture(scope="module")
def computed_oracle():
    return oracle_values()


@pytest.fixture(scope="module")
def computed_report():
    return report_hashes()


def test_same_cases(computed):
    assert sorted(computed) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_bit_identical(computed, name):
    assert digest(computed[name]) == EXPECTED[name]


def test_same_oracle_cases(computed_oracle):
    assert sorted(computed_oracle) == sorted(EXPECTED_ORACLE)


@pytest.mark.parametrize("name", sorted(EXPECTED_ORACLE))
def test_oracle_values_within_1e_10(computed_oracle, name):
    got, want = computed_oracle[name], EXPECTED_ORACLE[name]
    assert len(got) == len(want)
    assert all(abs(g - w) <= 1e-10 * abs(w) for g, w in zip(got, want)), (got, want)


def test_same_report_cases(computed_report):
    assert sorted(computed_report) == sorted(EXPECTED_REPORT)


@pytest.mark.parametrize("name", sorted(EXPECTED_REPORT))
def test_report_byte_identical(computed_report, name):
    assert computed_report[name] == EXPECTED_REPORT[name]
