"""What each command loads, each checked in a fresh interpreter.

Only the oracle's integration needs scipy, so importing ladm, building the
parser and the commands that never integrate load numpy alone; none of them
loads the networking packages either.
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


def test_period_loads_scipy_integrate():
    assert "scipy.integrate" in _modules_after('from ladm import cli\ncli.main(["period", "--beta", "0.5"])')
