"""The outputs against the golden files that ``make_golden.py`` writes.

The generic Adomian engine's float operations are meant to stay in the same
order, so its outputs are compared with the hashes in ``golden_generic.json``
bit for bit, and the CSV, JSON and SVG of the reports without an oracle
column and the stdout of ``ladm series`` and ``ladm dimensional`` byte for
byte with the hashes in ``golden_report.json``, as are the exit code and
stderr of each documented error case.  The outputs that read the oracle are
compared with the values in ``golden_oracle.json``: the periods and sweep
rows to a relative 1e-10, and the oracle outputs of each ``compare`` to an
absolute 1e-10 times the largest |oracle| of that report, since its columns
and errors pass through zero.  ``make_golden.py`` documents the cases and
pins the keys that a golden file lacks; a value is re-pinned by deleting its key.
"""

import json

import pytest

from make_golden import (GOLDEN, GOLDEN_ORACLE, GOLDEN_REPORT, cases, digest, oracle_values, pin,
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


def _tolerances(name, want):
    """1e-10 of each value, or for a ``compare/*`` value 1e-10 of its report's largest |oracle|."""
    if name.startswith("compare/"):
        scale = max(map(abs, EXPECTED_ORACLE[name.rsplit("/", 1)[0] + "/oracle"]))
        return [1e-10 * scale] * len(want)
    return [1e-10 * abs(w) for w in want]


@pytest.mark.parametrize("name", sorted(EXPECTED_ORACLE))
def test_oracle_values_within_1e_10(computed_oracle, name):
    got, want = computed_oracle[name], EXPECTED_ORACLE[name]
    assert len(got) == len(want)
    bad = [(i, g, w) for i, (g, w, tol) in enumerate(zip(got, want, _tolerances(name, want)))
           if not abs(g - w) <= tol]
    assert not bad, bad[:5]


def test_same_report_cases(computed_report):
    assert sorted(computed_report) == sorted(EXPECTED_REPORT)


@pytest.mark.parametrize("name", sorted(EXPECTED_REPORT))
def test_report_byte_identical(computed_report, name):
    assert computed_report[name] == EXPECTED_REPORT[name]


def test_pin_adds_missing_keys_and_keeps_moved_ones(tmp_path, capsys):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"b": [1.0], "gone": [0.0]}, indent=1) + "\n")
    pin(path, {"a": [2.0], "b": [1.5]})
    assert list(json.loads(path.read_text()).items()) == [("a", [2.0]), ("b", [1.0]),
                                                          ("gone", [0.0])]
    out = capsys.readouterr().out
    assert "b differs from its pinned value" in out and "gone is pinned but no longer" in out
    # with no key missing, the file is left as it is
    text = path.read_text()
    pin(path, {"a": [3.0], "b": [1.0], "gone": [0.0]})
    assert path.read_text() == text
    assert "a differs from its pinned value" in capsys.readouterr().out
