"""What each command loads, each checked in a fresh interpreter.

The package needs numpy alone, scipy only its tests: importing ladm, building
the parser and every command, the oracle's included, load no scipy, and none
of them loads the networking packages either. numpy is imported by the
functions that use arrays, so importing ladm, building the parser, ``ladm
series`` and ``ladm period``, whose trajectory is built on Python floats, load
no numpy; the oracle's exports load the oracle on first use, and no numpy.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ladm import build_report

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = {"scipy", "http", "email", "ssl"}


def _modules_after(code: str) -> set[str]:
    """The names in sys.modules after a fresh interpreter with src/ on its path runs code."""
    script = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\nprint(*sys.modules)"
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    return set(run.stdout.splitlines()[-1].split())


def _heavy(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] in HEAVY}


def test_import_and_parser_load_no_scipy():
    assert _heavy(_modules_after("import ladm, ladm.cli\nladm.cli.build_parser()")) == set()


@pytest.mark.parametrize("code", [
    "import ladm, ladm.cli\nladm.cli.build_parser()",
    *(f"from ladm import cli\nassert cli.main({json.dumps(argv)}) == 0" for argv in (
        ["series", "--beta", "0.1"], ["series", "--beta", "0.1", "--format", "json"],
        ["period", "--beta", "0.5"])),
], ids=["parser", "series-csv", "series-json", "period"])
def test_parser_and_series_load_no_numpy(code):
    assert {m for m in _modules_after(code) if m.split(".")[0] == "numpy"} == set()


def test_oracle_exports_load_the_oracle_on_first_use():
    code = """import ladm
assert "numpy" not in sys.modules and "ladm.oracle" not in sys.modules
from ladm import *
from ladm import oracle
assert (OracleTrajectory, integrate, period) == (oracle.OracleTrajectory, oracle.integrate,
                                                 oracle.period)
assert not hasattr(ladm, "nope")"""
    modules = _modules_after(code)
    assert "ladm.oracle" in modules and not any(m.split(".")[0] == "numpy" for m in modules)


@pytest.fixture()
def report_json(tmp_path):
    path = tmp_path / "rep.json"
    path.write_text(build_report(0.1, t_max=1.0, dt=0.5).to_json())
    return path


@pytest.mark.parametrize("argv", [
    ["series", "--beta", "0.1"],
    ["dimensional", "--beta", "0.1", "--omega0", "2", "--c", "3"],
    ["plot", "--in", "{report}", "--out", "{svg}"],
])
def test_commands_without_the_oracle_load_no_scipy(argv, report_json, tmp_path):
    argv = [a.format(report=report_json, svg=tmp_path / "fig.svg") for a in argv]
    modules = _modules_after(f"from ladm import cli\nassert cli.main({json.dumps(argv)}) == 0")
    assert _heavy(modules) == set()


@pytest.mark.parametrize("argv", [
    ["period", "--beta", "0.5"],
    ["sweep", "--beta-min", "0.1", "--beta-max", "0.9", "--steps", "2", "--out", "{csv}"],
    ["compare", "--beta", "0.5", "--t-max", "20", "--dt", "0.5", "--methods", "ladm,hbm,oracle",
     "--out", "{csv}", "--json", "{json}"],
], ids=["period", "sweep", "compare"])
def test_commands_with_the_oracle_load_no_scipy(argv, tmp_path):
    argv = [a.format(csv=tmp_path / "out.csv", json=tmp_path / "out.json") for a in argv]
    modules = _modules_after(f"from ladm import cli\nassert cli.main({json.dumps(argv)}) == 0")
    assert _heavy(modules) == set()
