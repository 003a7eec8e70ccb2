"""The generic Adomian engine's outputs against the hashes in ``golden_generic.json``.

The engine's float operations are meant to stay in the same order, so its
outputs stay bit for bit the same; ``make_golden.py`` documents the cases
and rewrites the file when a change is meant to move them.
"""

import json

import pytest

from make_golden import GOLDEN, cases, digest

EXPECTED = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def computed():
    return dict(cases())


def test_same_cases(computed):
    assert sorted(computed) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_bit_identical(computed, name):
    assert digest(computed[name]) == EXPECTED[name]
