import json
import math
import subprocess
import sys
import time
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ladm import ComparisonReport, DomainError, build_report, integrate, oracle, period, sweep_csv
from ladm import report, svgplot
from ladm.cli import build_parser, main
from ladm.report import ALL_METHODS, MAX_GRID_POINTS, make_grid
from ladm.solver import MAX_TERMS
from test_oracle import _closed_form_period, _quadrature_period

SRC = Path(__file__).resolve().parents[1] / "src"

EXIT_CODES = {0, 1, 2, 3, 4}  # as documented in ladm.cli


class TestSeriesCommand:
    def test_csv_output(self, capsys):
        assert main(["series", "--beta", "0.1", "--terms", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,degree,scaled_coefficient"
        assert len(lines) == 4
        n, deg, coeff = lines[1].split(",")
        assert (n, deg) == ("0", "1")
        assert float(coeff) == 0.1

    def test_json_output(self, capsys):
        assert main(["series", "--beta", "0.2", "--terms", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["beta"] == 0.2
        assert payload["components"][0] == {"n": 0, "degree": 1, "scaled_coefficient": 0.2}

    def test_domain_error_exit_3(self, capsys):
        assert main(["series", "--beta", "0"]) == 3
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize("beta, terms", [("0.9", 301), ("0.999", 81),
                                             ("0.9999999999999999", 15)])
    def test_underflowed_component_prints_zero(self, beta, terms, capsys):
        # the first term counts whose last component underflows to an empty
        # polynomial; each used to end in an IndexError traceback
        assert main(["series", "--beta", beta, "--terms", str(terms)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == terms + 1
        assert lines[-1] == f"{terms - 1},{2 * terms - 1},0.000000000000e+00"
        assert main(["series", "--beta", beta, "--terms", str(terms), "--format", "json"]) == 0
        last = json.loads(capsys.readouterr().out)["components"][-1]
        assert last == {"n": terms - 1, "degree": 2 * terms - 1, "scaled_coefficient": 0.0}

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["series"])  # missing --beta
        assert exc.value.code == 2


class TestCompareCommand:
    def test_column_contract(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main([
            "compare", "--beta", "0.2", "--t-max", "2", "--dt", "0.5",
            "--methods", "hbm,oracle", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,hbm,oracle,err_hbm"
        assert len(lines) == 6  # header + t=0,0.5,...,2.0

    def test_zero_row_all_zero(self, tmp_path):
        out = tmp_path / "cmp.csv"
        main(["compare", "--beta", "0.1", "--t-max", "1", "--dt", "0.5",
              "--out", str(out)])
        row0 = out.read_text().splitlines()[1].split(",")
        assert all(float(v) == 0.0 for v in row0)

    def test_determinism_and_renders_roundtrip(self, tmp_path):
        args = ["compare", "--beta", "0.1", "--t-max", "3", "--dt", "0.5",
                "--methods", "ladm,oracle"]
        a_csv, a_json = tmp_path / "a.csv", tmp_path / "a.json"
        b_csv, b_json = tmp_path / "b.csv", tmp_path / "b.json"
        main(args + ["--out", str(a_csv), "--json", str(a_json)])
        main(args + ["--out", str(b_csv), "--json", str(b_json)])
        assert a_csv.read_bytes() == b_csv.read_bytes()
        assert a_json.read_bytes() == b_json.read_bytes()
        # re-rendering the parsed CSV reproduces the file byte for byte
        lines = a_csv.read_text().splitlines()
        rebuilt = [lines[0]]
        for line in lines[1:]:
            rebuilt.append(",".join("%.12e" % float(v) for v in line.split(",")))
        assert "\n".join(rebuilt) + "\n" == a_csv.read_text()

    def test_json_report_parses_back(self, tmp_path):
        out_json = tmp_path / "r.json"
        main(["compare", "--beta", "0.1", "--t-max", "2", "--dt", "1",
              "--out", str(tmp_path / "r.csv"), "--json", str(out_json)])
        rep = ComparisonReport.from_json(out_json.read_text())
        assert rep.beta == 0.1
        assert set(rep.columns) == {"ladm", "hbm", "dtm", "hpm", "oracle"}
        assert "omega_series" in rep.frequency_summary
        assert "omega_hbm" in rep.frequency_summary
        assert "oracle_period" in rep.frequency_summary

    @pytest.mark.parametrize("t_max, dt", [("20.9", "0.6"), ("20.2", "0.1")])
    def test_grid_stays_inside_oracle_horizon(self, t_max, dt, tmp_path):
        # 20.9/0.6 used to round up to a point at 21.0; 20.2/0.1 ends at
        # 20.200000000000003 through rounding in i*dt
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--beta", "0.1", "--t-max", t_max, "--dt", dt,
                     "--methods", "ladm,oracle", "--out", str(out)]) == 0
        assert float(out.read_text().splitlines()[-1].split(",")[0]) <= float(t_max) + 1e-9

    @pytest.mark.parametrize("t_max", ["nan", "inf"])
    def test_non_finite_t_max_exit_3(self, t_max, tmp_path, capsys):
        assert main(["compare", "--beta", "0.1", "--t-max", t_max,
                     "--out", str(tmp_path / "x.csv")]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "finite" in err

    def test_huge_horizon_exit_3(self, tmp_path, capsys):
        # a two-point grid to t = 1e300, past MAX_T_END, which used to integrate without end
        assert main(["compare", "--beta", "0.1", "--t-max", "1e300", "--dt", "1e300",
                     "--methods", "hbm,oracle", "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().out == ""

    def test_grid_rounded_past_the_cap(self, tmp_path, capsys):
        # t_max is the cap, and rounding in i*dt puts the last point two ulps past it;
        # this used to exit 3 naming the time 10000.000000000002
        assert make_grid(1e4, 9.578544061302683)[-1] > oracle.MAX_T_END
        out = tmp_path / "x.csv"
        assert main(["compare", "--beta", "0.5", "--t-max", "10000", "--dt", "9.578544061302683",
                     "--methods", "hbm,oracle", "--out", str(out)]) == 0
        t, _, x, _ = out.read_text().splitlines()[-1].split(",")
        assert t == "1.000000000000e+04"
        assert x == "%.12e" % integrate(0.5).sample_on_grid([1e4])[0]  # sampled at t_max

    def test_grid_past_the_cap_exit_3(self, tmp_path, capsys):
        assert main(["compare", "--beta", "0.5", "--t-max", "2e4", "--dt", "1",
                     "--methods", "hbm,oracle", "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr() == ("", "error: t=10001.0 outside [0, 10000.0]\n")

    def test_series_overflow_exit_3(self, tmp_path, capsys):
        # t^k/k! overflows; this used to write nan columns with exit 0
        out = tmp_path / "x.csv"
        argv = ["compare", "--beta", "0.5", "--t-max", "10000", "--dt", "5000",
                "--terms", "1000", "--methods", "ladm,hbm", "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", "error: the 1000-term series overflows at t=5000.0\n")
        assert not out.exists()

    @pytest.mark.parametrize("methods", [",", "", " , "])
    def test_no_method_exit_3(self, methods, tmp_path, capsys):
        # this used to write a t-only CSV and a JSON report that plot refuses
        out, js = tmp_path / "x.csv", tmp_path / "x.json"
        assert main(["compare", "--beta", "0.1", "--methods", methods,
                     "--out", str(out), "--json", str(js)]) == 3
        assert capsys.readouterr().err.startswith("error: no method requested;")
        assert not out.exists() and not js.exists()

    def test_refused_report_writes_nothing(self, tmp_path, capsys):
        # a report refused while it is built, here at an oracle time past the cap, leaves
        # neither --out nor --json behind
        out, js = tmp_path / "x.csv", tmp_path / "y.json"
        assert main(["compare", "--beta", "0.5", "--t-max", "2e4", "--dt", "1", "--methods",
                     "hbm,oracle", "--out", str(out), "--json", str(js)]) == 3
        assert capsys.readouterr().err == "error: t=10001.0 outside [0, 10000.0]\n"
        assert not out.exists() and not js.exists()

    def test_rms_of_huge_errors_is_finite(self, tmp_path, capsys):
        # every value is finite (up to 3.3e205), and so is the rms, though the sum of the
        # squares overflows; this used to exit 3 and write nothing
        out, js = tmp_path / "x.csv", tmp_path / "y.json"
        assert main(["compare", "--beta", "0.5", "--t-max", "1000", "--dt", "1", "--terms", "100",
                     "--methods", "ladm,oracle", "--out", str(out), "--json", str(js)]) == 0
        errors = json.loads(js.read_text())["errors"]["ladm"]
        assert 1e204 < errors["rms"] < errors["max_abs"] < math.inf
        assert capsys.readouterr().err == "" and len(out.read_text().splitlines()) == 1002

    @pytest.mark.parametrize("out, js", [("pp.csv", "missing_dir/y.json"),
                                         ("missing_dir/pp.csv", "y.json")],
                             ids=["json-dir-missing", "out-dir-missing"])
    def test_unopenable_path_writes_nothing(self, out, js, tmp_path, capsys):
        # both paths are opened before either is written; json-dir-missing used to leave the
        # full CSV behind, and out-dir-missing leaves only the --json file opening it created
        assert main(["compare", "--beta", "0.1", "--t-max", "2", "--dt", "0.5",
                     "--methods", "ladm,hbm", "--out", str(tmp_path / out),
                     "--json", str(tmp_path / js)]) == 1
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.startswith("error: ") and "missing_dir" in err
        left = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert left == ({} if js.startswith("missing_dir") else {"y.json": b""})

    def test_unopenable_out_keeps_an_existing_json(self, tmp_path):
        # --json is opened first but not emptied, so a failed --out leaves its contents
        js = tmp_path / "y.json"
        js.write_text("{}")
        assert main(["compare", "--beta", "0.1", "--t-max", "2", "--dt", "0.5",
                     "--out", str(tmp_path / "missing_dir" / "pp.csv"), "--json", str(js)]) == 1
        assert js.read_text() == "{}"

    def test_one_path_for_both_holds_the_json(self, tmp_path):
        # on this grid the CSV is longer than the JSON, whose end the CSV's tail must not follow
        argv = ["compare", "--beta", "0.1", "--t-max", "20", "--dt", "0.01"]
        assert main(argv + ["--out", str(tmp_path / "a.csv"), "--json", str(tmp_path / "a.json")]) == 0
        assert (tmp_path / "a.csv").stat().st_size > (tmp_path / "a.json").stat().st_size
        assert main(argv + ["--out", str(tmp_path / "both"), "--json", str(tmp_path / "both")]) == 0
        assert (tmp_path / "both").read_bytes() == (tmp_path / "a.json").read_bytes()

    def test_json_to_a_pipe(self, tmp_path):
        code = f"import sys; sys.path.insert(0, {str(SRC)!r}); from ladm.cli import main; sys.exit(main(sys.argv[1:]))"
        run = subprocess.run([sys.executable, "-c", code, "compare", "--beta", "0.1", "--t-max", "1",
                              "--out", str(tmp_path / "a.csv"), "--json", "/dev/stdout"],
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout[:run.stdout.rindex("}") + 1])["beta"] == 0.1

    def test_untabulated_method_exit_3(self, tmp_path, capsys):
        code = main(["compare", "--beta", "0.3", "--t-max", "1", "--dt", "0.5",
                     "--methods", "dtm,oracle", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        # the plain message, not KeyError's quoted repr of it
        assert capsys.readouterr().err.startswith("error: no tabulated DTM approximant at beta=0.3;")


class TestSweepCommand:
    def test_row_count(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--beta-min", "0.1", "--beta-max", "0.3",
                     "--steps", "3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_degenerate_near_equal_range(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--beta-min", "0.1999", "--beta-max", "0.2001",
              "--steps", "2", "--out", str(out)])
        r1, r2 = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert abs(float(r1[1]) - float(r2[1])) < 1e-4

    def test_range_violation_exit_3(self, tmp_path):
        assert main(["sweep", "--beta-min", "0.5", "--beta-max", "0.2",
                     "--steps", "3", "--out", str(tmp_path / "x.csv")]) == 3

    @pytest.mark.parametrize("beta_max", ["0.9999999999999997", "0.9999999999999999"])
    def test_last_beta_is_beta_max(self, beta_max, tmp_path, monkeypatch):
        # beta_min + (beta_max - beta_min) * i / (steps - 1) rounds up here: the last row was
        # computed at 0.9999999999999998, or at 1.0, which exited 3
        betas, build = [], report.build_report
        monkeypatch.setattr(report, "build_report",
                            lambda beta, **kwargs: betas.append(beta) or build(beta, **kwargs))
        assert main(["sweep", "--beta-min", "0.3", "--beta-max", beta_max, "--steps", "2",
                     "--out", str(tmp_path / "e.csv")]) == 0
        assert betas == [0.3, float(beta_max)]


    @pytest.mark.parametrize("steps", [MAX_GRID_POINTS + 1, 10**9])
    def test_steps_past_the_grid_cap_exit_3(self, steps, tmp_path, capsys, monkeypatch):
        # refused before any row is built; this used to build rows until memory ran out
        monkeypatch.setattr(report, "build_report", None)  # a row would raise TypeError
        out = tmp_path / "x.csv"
        assert main(["sweep", "--beta-min", "0.1", "--beta-max", "0.3",
                     "--steps", str(steps), "--out", str(out)]) == 3
        assert capsys.readouterr() == (
            "", f"error: steps must lie in [2, {MAX_GRID_POINTS}], got {steps}\n")
        assert not out.exists()

    def test_steps_at_the_grid_cap_are_accepted(self, monkeypatch):
        def first_row(*args, **kwargs):
            raise RuntimeError("first row")
        monkeypatch.setattr(report, "build_report", first_row)
        with pytest.raises(RuntimeError, match="first row"):
            sweep_csv(0.1, 0.3, MAX_GRID_POINTS)


class TestPlotCommand:
    @pytest.fixture()
    def report_json(self, tmp_path):
        rep = build_report(0.1, t_max=1.0, dt=1.0, methods=("ladm", "oracle"))
        path = tmp_path / "rep.json"
        path.write_text(rep.to_json())
        return path

    def test_two_point_report_renders(self, report_json, tmp_path):
        out = tmp_path / "fig.svg"
        assert main(["plot", "--in", str(report_json), "--out", str(out)]) == 0
        doc = xml.dom.minidom.parse(str(out))  # well-formed XML
        polylines = doc.getElementsByTagName("polyline")
        assert len(polylines) == 2  # one per method, nothing else
        for pl in polylines:
            assert len(pl.getAttribute("points").split()) == 2

    def test_title_carries_beta(self, report_json, tmp_path):
        out = tmp_path / "fig.svg"
        main(["plot", "--in", str(report_json), "--out", str(out)])
        assert "beta=0.1" in out.read_text()

    def test_single_point_grid_renders(self, tmp_path):
        # t_max < dt gives the grid (0,); its plot used to divide by zero
        rep_json, svg = tmp_path / "r.json", tmp_path / "fig.svg"
        assert main(["compare", "--beta", "0.1", "--t-max", "0.1", "--dt", "0.5",
                     "--out", str(tmp_path / "r.csv"), "--json", str(rep_json)]) == 0
        assert main(["plot", "--in", str(rep_json), "--out", str(svg)]) == 0
        assert len(xml.dom.minidom.parse(str(svg)).getElementsByTagName("polyline")) == 5

    def test_title_and_labels_escape_markup_only(self):
        # &, < and > are escaped; quotes stay as they are, outside any attribute
        svg = svgplot.render_lines([0.0, 1.0], {"x & <y> \"q\" 's'": [0.0, 1.0]},
                                   title="a & <b> \"c\" 'd'").splitlines()
        assert svg[3] == ('<text x="360.0" y="28" text-anchor="middle" font-family="sans-serif" '
                          'font-size="16">a &amp; &lt;b&gt; "c" \'d\'</text>')
        assert svg[-2] == ('<text x="608" y="64" font-family="sans-serif" '
                           'font-size="12">x &amp; &lt;y&gt; "q" \'s\'</text>')

    @pytest.mark.parametrize("xs, columns", [
        ([0, 1, 2], {"a": [1, math.nan, 2]}),
        ([0, 1, 2], {"a": [math.nan, 1, 2]}),
        ([0, math.inf, 2], {"a": [0, 1, 2]}),
        ([0, 1, 2], {"a": [0, 1, 2], "b": [0, -math.inf, 2]}),
        ([0, 1, 2], {}),
        ([], {"a": []}),
        ([0, 1, 2], {"a": [0, 1]}),
        ([0, 1, 2], {"a": [0, 1, 2], "b": [0, 1, 2, 3]}),
    ], ids=["nan-inside", "nan-first", "x-inf", "neg-inf-second-series", "no-series",
            "no-points", "short-ys", "long-ys"])
    def test_render_lines_refuses_bad_data(self, xs, columns):
        # nan-inside wrote "nan" coordinates (min and max skip a NaN that is not
        # first), no-series raised ValueError, and zip truncated short-ys and long-ys
        with pytest.raises(DomainError):
            svgplot.render_lines(xs, columns, title="t")

    def test_unwritable_output_fails_nonzero(self, report_json, tmp_path):
        code = main(["plot", "--in", str(report_json),
                     "--out", str(tmp_path / "nodir" / "fig.svg")])
        assert code != 0


class TestPeriodCommand:
    def test_prints_period(self, capsys):
        assert main(["period", "--beta", "0.1"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(6.295, abs=1e-2)

    @pytest.mark.parametrize("beta", ["nan", "inf", "1.5", "1", "0", "-0.5"])
    def test_beta_outside_domain_exit_3(self, beta, capsys):
        assert main(["period", "--beta", beta]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: beta must lie in (0, 1)")

    @pytest.mark.parametrize("beta", ["1e-300", "1e-12", "0.9999999"])
    def test_whole_beta_range(self, beta, capsys):
        # with an absolute tolerance of 1e-12 whatever the amplitude, 1e-12 printed 18.4
        assert main(["period", "--beta", beta]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(_closed_form_period(float(beta)),
                                                                rel=1e-11)

    def test_period_past_four_times_the_solver_bound(self, capsys):
        # T ~ 46000, at the largest beta below 1: this exited 4 while a DOP853 integration
        # reached its bound MAX_T_END before the first turn
        assert _closed_form_period(0.9999999999999999) > 4.0 * oracle.MAX_T_END
        t0 = time.perf_counter()
        assert main(["period", "--beta", "0.9999999999999999"]) == 0
        assert time.perf_counter() - t0 < 1.0
        out = capsys.readouterr().out
        assert out == "4.634095001184e+04\n"
        assert float(out) == pytest.approx(_closed_form_period(0.9999999999999999), rel=1e-11)

    def test_oracle_failure_exit_4(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(oracle, "_NEWTON_CAP", 1)  # a Newton iteration that cannot converge
        assert main(["compare", "--beta", "0.5", "--methods", "hbm,oracle",
                     "--out", str(tmp_path / "x.csv")]) == 4
        assert capsys.readouterr() == (
            "", "oracle error: Newton's method did not converge for beta=0.5\n")
        assert not (tmp_path / "x.csv").exists()

    def test_period_longer_than_the_solver_bound(self, capsys):
        # T ~ 10061 > MAX_T_END: the period comes from its first quarter
        assert _closed_form_period(0.99999999999995) > oracle.MAX_T_END
        t0 = time.perf_counter()
        assert main(["period", "--beta", "0.99999999999995"]) == 0
        assert time.perf_counter() - t0 < 1.0
        out = capsys.readouterr().out
        assert out == "1.006147851954e+04\n"
        assert float(out) == pytest.approx(_closed_form_period(0.99999999999995), rel=1e-11)


@pytest.mark.parametrize("beta", ["0.945", "0.97", "0.99", "0.999"])
class TestNearLightSpeed:
    """The first three used to exit 4 because a stepper had to fit two periods
    into t <= 20; 0.999 (T ~ 26.8) exited 4 while that bound stayed 20."""

    def test_period(self, beta, capsys):
        assert main(["period", "--beta", beta]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(_quadrature_period(float(beta)), rel=1e-10)

    def test_compare(self, beta, tmp_path):
        out, js = tmp_path / "c.csv", tmp_path / "c.json"
        assert main(["compare", "--beta", beta, "--t-max", "5", "--dt", "0.1", "--methods",
                     "ladm,oracle", "--out", str(out), "--json", str(js)]) == 0
        p = json.loads(js.read_text())["frequency_summary"]["oracle_period"]
        assert p == pytest.approx(_quadrature_period(float(beta)), rel=1e-10)

    def test_sweep(self, beta, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--beta-min", "0.9", "--beta-max", beta, "--steps", "2",
                     "--out", str(out)]) == 0
        p = float(out.read_text().splitlines()[-1].split(",")[-1])
        assert p == pytest.approx(_quadrature_period(float(beta)), rel=1e-10)


class TestDimensionalCommand:
    def test_identity_mapping(self, capsys):
        main(["dimensional", "--beta", "0.1", "--omega0", "1", "--c", "1",
              "--t-max", "1", "--dt", "0.5"])
        for line in capsys.readouterr().out.strip().splitlines()[1:]:
            t, x, tbar, xbar = map(float, line.split(","))
            assert (tbar, xbar) == (t, x)

    def test_scaling(self, capsys):
        main(["dimensional", "--beta", "0.1", "--omega0", "2", "--c", "3",
              "--t-max", "4", "--dt", "4"])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        t, x, tbar, xbar = map(float, last.split(","))
        assert t == 4.0
        assert tbar == pytest.approx(2.0)
        assert xbar == pytest.approx(1.5 * x)

    def test_roundtrip(self, capsys):
        omega0, c = 2.7, 1.9
        main(["dimensional", "--beta", "0.2", "--omega0", str(omega0), "--c", str(c),
              "--t-max", "2", "--dt", "1"])
        for line in capsys.readouterr().out.strip().splitlines()[1:]:
            t, x, tbar, xbar = map(float, line.split(","))
            assert tbar * omega0 == pytest.approx(t, rel=1e-12, abs=1e-15)
            assert xbar * omega0 / c == pytest.approx(x, rel=1e-12, abs=1e-15)

    def test_nonpositive_params_exit_3(self):
        assert main(["dimensional", "--beta", "0.1", "--omega0", "0", "--c", "1"]) == 3

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--omega0", "--c"])
    def test_non_finite_params_exit_3(self, flag, value, capsys):
        # both used to print nan/inf columns with exit 0
        argv = ["dimensional", "--beta", "0.1", "--omega0", "1", "--c", "1", flag, value]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and "finite" in err

    def test_series_overflow_exit_3(self, capsys):
        # this used to print nan in the x columns with exit 0
        argv = ["dimensional", "--beta", "0.1", "--omega0", "1", "--c", "1",
                "--t-max", "1e300", "--dt", "1e300"]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", "error: the 14-term series overflows at t=1e+300\n")

    @pytest.mark.parametrize("omega0, c", [("1e-310", "1"), ("1e-3", "1e308")],
                             ids=["t_dimensional", "x_dimensional"])
    def test_dimensional_overflow_exit_3(self, omega0, c, capsys):
        # t / omega0 and c x / omega0 used to print inf with exit 0
        argv = ["dimensional", "--beta", "0.1", "--omega0", omega0, "--c", c,
                "--t-max", "1", "--dt", "0.5"]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", "error: the dimensional values overflow at t=0.5\n")

    @pytest.mark.parametrize("dt", ["0", "-0.5"])
    def test_nonpositive_dt_exit_3(self, dt, capsys):
        argv = ["dimensional", "--beta", "0.1", "--omega0", "1", "--c", "1", "--dt", dt]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and "dt must be positive" in err


class TestTermsCap:
    @pytest.mark.parametrize("argv", [
        ["series", "--beta", "0.5"],
        ["compare", "--beta", "0.5", "--out", "{d}/x.csv"],
        ["dimensional", "--beta", "0.5", "--omega0", "1", "--c", "1"],
    ], ids=["series", "compare", "dimensional"])
    def test_over_cap_exit_3(self, argv, tmp_path, capsys):
        # --terms 1000001 used to run for hours (quadratic partial sum)
        argv = [a.format(d=tmp_path) for a in argv] + ["--terms", "1000001"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"[1, {MAX_TERMS}]" in err
        assert not (tmp_path / "x.csv").exists()


class TestReportHelpers:
    def test_make_grid(self):
        assert make_grid(1.0, 0.5) == (0.0, 0.5, 1.0)

    def test_make_grid_never_rounds_past_t_max(self):
        assert make_grid(1.0, 0.6) == (0.0, 0.6)
        assert len(make_grid(0.3, 0.1)) == 4  # 0.3/0.1 = 2.9999999999999996

    @pytest.mark.parametrize(
        "t_max, dt", [(math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf)]
    )
    def test_make_grid_rejects_non_finite(self, t_max, dt):
        with pytest.raises(DomainError, match="finite"):
            make_grid(t_max, dt)

    def test_make_grid_caps_point_count(self):
        with pytest.raises(DomainError, match="grid points"):
            make_grid(1e9, 1e-9)  # 1e18 points, refused before any is built
        with pytest.raises(DomainError, match="grid points"):
            make_grid(1e300, 1e-300)  # the ratio overflows to inf
        with pytest.raises(DomainError, match="grid points"):
            make_grid(float(MAX_GRID_POINTS), 1.0)
        assert len(make_grid(MAX_GRID_POINTS - 1.0, 1.0)) == MAX_GRID_POINTS

    def test_report_round_trip(self):
        rep = build_report(0.1, t_max=3.0, dt=0.5)
        back = ComparisonReport.from_json(rep.to_json())
        assert set(rep.errors) == {"ladm", "hbm", "dtm", "hpm"}
        assert back.to_json() == rep.to_json()
        assert back.to_csv() == rep.to_csv()
        assert back.errors == rep.errors

    @pytest.mark.parametrize("beta, methods", [(0.1, ALL_METHODS), (0.5, ("ladm", "hbm", "oracle")),
                                               (0.2, ("ladm", "dtm"))])
    def test_csv_and_errors_match_row_loop(self, beta, methods):
        rep = build_report(beta, t_max=20.0, dt=0.05, methods=methods)
        assert all(type(x) is float for v in rep.columns.values() for x in v)
        assert rep.to_csv() == _row_loop_csv(rep)
        ref = rep.columns.get("oracle")
        diffs = {m: [abs(a - b) for a, b in zip(v, ref)]
                 for m, v in rep.columns.items() if ref and m != "oracle"}
        assert rep.errors == {m: (max(d), math.hypot(*d) / math.sqrt(len(d)))
                              for m, d in diffs.items()}
        # the rms, taken through hypot, is within rounding of the root of the mean square
        assert all(rep.errors[m][1] == pytest.approx(math.sqrt(sum(e * e for e in d) / len(d)),
                                                     rel=1e-15) for m, d in diffs.items())

    @settings(max_examples=15, deadline=None)
    @given(beta=st.floats(0.05, 0.996), t_max=st.floats(0.05, 25.0), dt=st.floats(0.05, 5.0))
    def test_oracle_matches_full_horizon_trajectory(self, beta, t_max, dt):
        _assert_oracle_column_is_the_trajectory(beta, t_max, dt)

    @pytest.mark.parametrize("beta", [0.05, 0.5, 0.9, 0.99])
    def test_oracle_steps_one_quarter_orbit_whatever_the_grid(self, beta):
        for t_max in (5.0, 1000.0):
            _assert_oracle_column_is_the_trajectory(beta, t_max, 0.5)

    def test_from_json_recomputes_errors(self):
        rep = build_report(0.1, t_max=3.0, dt=0.5, methods=("ladm", "oracle"))
        payload = json.loads(rep.to_json())
        payload["errors"]["ladm"]["max_abs"] = 1.0
        assert ComparisonReport.from_json(json.dumps(payload)).errors == rep.errors

    def test_from_json_derives_frequencies(self):
        # an edited beta used to keep the omegas stored for the old one
        rep = build_report(0.1, t_max=1.0, dt=0.5, methods=("ladm", "oracle"))
        payload = json.loads(rep.to_json())
        payload["beta"] = 0.2
        payload["frequency_summary"]["omega_series"] = 123.0
        back = ComparisonReport.from_json(json.dumps(payload))
        want = build_report(0.2, t_max=1.0, dt=0.5, methods=("hbm",)).frequency_summary
        assert {k: back.frequency_summary[k] for k in want} == want
        assert back.frequency_summary["oracle_period"] == rep.oracle_period
        assert back.frequency_summary["omega_oracle"] == 2.0 * math.pi / rep.oracle_period

    def test_frequency_summary_without_oracle(self):
        rep = build_report(0.1, t_max=1.0, dt=0.5, methods=("ladm",))
        assert sorted(rep.frequency_summary) == ["omega_hbm", "omega_series"]
        assert ComparisonReport.from_json(rep.to_json()).to_json() == rep.to_json()

    @pytest.mark.parametrize("beta", [0.0, 1.0, math.nan])
    def test_report_rejects_beta_outside_domain(self, beta):
        # the frequencies are derived from beta, even with no method column
        with pytest.raises(DomainError, match="beta"):
            build_report(beta, t_max=1.0, dt=0.5, methods=())

    @pytest.mark.parametrize("grid, columns", [
        ((0.0, 0.5), {"ladm": (0.0,)}),
        ((0.0, 0.5), {"LADM": (0.0, 1.0)}),
        ((0.0, 0.5), {"ladm": (0.0, 1.0), "oracle": (0.0, 1.0, 2.0)}),
        ((), {"ladm": ()}),
    ], ids=["short-column", "unknown-method", "long-column", "empty-grid"])
    def test_report_checks_its_own_shape(self, grid, columns):
        # to_csv would truncate or drop such a column and to_json write what from_json refuses
        with pytest.raises(DomainError, match="need a grid and method columns of its length"):
            ComparisonReport(beta=0.1, grid=grid, columns=columns)

    def test_sweep_csv_validation(self):
        import ladm.errors as errors

        with pytest.raises(errors.DomainError):
            sweep_csv(0.2, 0.1, 5)
        with pytest.raises(errors.DomainError):
            sweep_csv(0.1, 0.2, 1)


def _assert_oracle_column_is_the_trajectory(beta, t_max, dt):
    """build_report's oracle column is integrate(beta) sampled at the grid, at most at t_max, and
    its period that trajectory's, whatever the grid."""
    rep = build_report(beta, t_max=t_max, dt=dt, methods=("oracle",))
    traj = integrate(beta)
    assert rep.columns["oracle"] == tuple(traj.sample_on_grid(np.minimum(rep.grid, t_max)))
    assert rep.oracle_period == period(traj)


def _row_loop_csv(rep):
    """Reference: the CSV built one row and one formatted value at a time."""
    methods = rep.method_names()
    ref = rep.columns.get("oracle")
    err = {m: [abs(a - b) for a, b in zip(rep.columns[m], ref)]
           for m in methods if ref and m != "oracle"}
    lines = [",".join(["t"] + methods + [f"err_{m}" for m in err])]
    for i, t in enumerate(rep.grid):
        row = ["%.12e" % t] + ["%.12e" % rep.columns[m][i] for m in methods]
        row += ["%.12e" % err[m][i] for m in err]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestFileErrors:
    REPORT = "{d}/rep.json"

    @pytest.mark.parametrize(
        "argv, content, code",
        [
            (["compare", "--beta", "0.1", "--t-max", "1", "--out", "{d}/nodir/x.csv"], None, 1),
            (["sweep", "--beta-min", "0.1", "--beta-max", "0.2", "--steps", "2",
              "--out", "{d}/nodir/x.csv"], None, 1),
            (["plot", "--in", "{d}/missing.json", "--out", "{d}/fig.svg"], None, 1),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "columns": {}, "frequency_summary": {}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"], b"not json", 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"], b"\x80 not utf-8", 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "grid": [0, 1], "columns": {"ladm": ["a", "b"]}, '
             b'"frequency_summary": {}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "grid": [0, 1], "columns": {"ladm": [0]}, '
             b'"frequency_summary": {}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "grid": [0, 1], "columns": {"xyz": [0, 1]}, '
             b'"frequency_summary": {}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "grid": [], "columns": {}, "frequency_summary": {}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "grid": [0, NaN], "columns": {"ladm": [0, 1]}, '
             b'"frequency_summary": {}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "grid": [0, Infinity], "columns": {"ladm": [0, 1]}, '
             b'"frequency_summary": {}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "grid": [0, 1], "columns": {"ladm": [0, 1e400]}, '
             b'"frequency_summary": {}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "grid": [0, 1], "columns": {"ladm": [0, 1], "oracle": [NaN, 1]}, '
             b'"frequency_summary": {}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "grid": [0, 1], "columns": {"ladm": [0, -Infinity]}, '
             b'"frequency_summary": {}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "grid": [0, 1], "columns": {"oracle": [0, 1]}, '
             b'"frequency_summary": {"oracle_period": Infinity}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "grid": [0, 1], "columns": {"oracle": [0, 1]}, '
             b'"frequency_summary": {"oracle_period": NaN}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "grid": [0, 1], "columns": {"oracle": [0, 1]}, '
             b'"frequency_summary": {"oracle_period": 0}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 2.0, "grid": [0, 1], "columns": {"ladm": [0, 1]}, '
             b'"frequency_summary": {}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": "0.1", "grid": [0, 1], "columns": {"ladm": [0, 1]}, '
             b'"frequency_summary": {}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "grid": [0, 1], "columns": {"ladm": [1.7e308, -1.7e308]}, '
             b'"frequency_summary": {}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "grid": [1e300], "columns": {"ladm": [0.5]}, '
             b'"frequency_summary": {}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "grid": ["0.0", "0.5"], "columns": {"ladm": [0, 1]}, '
             b'"frequency_summary": {}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "grid": [0, 1], "columns": {"ladm": [false, true]}, '
             b'"frequency_summary": {}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "grid": [0, 1], "columns": {"oracle": [0, 1]}, '
             b'"frequency_summary": {"oracle_period": true}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "grid": [0, 1], "columns": {"oracle": [0, 1]}, '
             b'"frequency_summary": {"oracle_period": "6.3"}}', 3),
            (["plot", "--in", REPORT, "--out", "{d}/fig.svg"],
             b'{"beta": 0.1, "grid": [0, 1' + b"0" * 400 + b'], "columns": {"ladm": [0, 1]}, '
             b'"frequency_summary": {}}', 3),
        ],
        ids=["compare-out-dir", "sweep-out-dir", "plot-in-missing", "plot-no-grid",
             "plot-not-json", "plot-not-utf8", "plot-non-numeric", "plot-short-column",
             "plot-unknown-method", "plot-empty", "plot-grid-nan", "plot-grid-inf",
             "plot-column-overflow", "plot-column-nan", "plot-column-neg-inf",
             "plot-period-inf", "plot-period-nan", "plot-period-zero", "plot-beta-2",
             "plot-beta-string", "plot-span-overflow", "plot-span-zero", "plot-grid-strings",
             "plot-column-bools", "plot-period-true", "plot-period-string",
             "plot-grid-int-overflow"],
    )
    def test_exit_code_and_message(self, argv, content, code, tmp_path, capsys):
        # the first four, plot-span-zero and plot-grid-int-overflow used to exit
        # 1 with a traceback; the non-finite values and plot-span-overflow used
        # to render nan coordinates with exit 0; float() read the strings and
        # bools as numbers, and to_json wrote oracle_period true back
        if content is not None:
            (tmp_path / "rep.json").write_bytes(content)
        assert main([a.format(d=tmp_path) for a in argv]) == code
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert not (tmp_path / "fig.svg").exists()


_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-300, 1e300]


def _floats(lo, hi):
    """Special values (non-finite, zero, negative, extreme) or a finite draw."""
    return st.one_of(st.sampled_from(_SPECIAL), st.floats(lo, hi))


@st.composite
def _reports(draw):
    """Report payloads: about half finite with beta in (0, 1), the rest with special values."""
    special = draw(st.booleans())
    num = _floats(-5.0, 5.0) if special else st.floats(-5.0, 5.0)
    n = draw(st.integers(1, 3))
    values = st.lists(num, min_size=n, max_size=draw(st.sampled_from([n, n, n + 1])))
    period = draw(st.one_of(st.none(), _floats(-1.0, 10.0) if special else st.floats(1.0, 10.0)))
    return {
        "beta": draw(_floats(-0.5, 1.5) if special else st.floats(0.01, 0.99)),
        "grid": draw(values),
        "columns": draw(st.dictionaries(st.sampled_from(ALL_METHODS + ("xyz",)), values,
                                        min_size=1, max_size=3)),
        "frequency_summary": {} if period is None else {"oracle_period": period},
    }


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


class TestExitCodesProperty:
    """Every input ends in a documented exit code, never an uncaught exception.

    Finite draws keep t_max at most 25, dt at least 0.05
    and sweeps at most 3 steps, so each example stays small; the special
    values cover the rest of the range through the domain checks.
    """

    @settings(max_examples=40, deadline=None)
    @given(beta=_floats(-0.5, 1.5),
           terms=st.one_of(st.integers(-3, 30), st.sampled_from([301, 1000, 1001, 10**9])),
           fmt=st.sampled_from(["csv", "json"]))
    def test_series(self, beta, terms, fmt):
        argv = ["series", f"--beta={beta!r}", f"--terms={terms}", f"--format={fmt}"]
        assert _exit_code(argv) in EXIT_CODES

    @settings(max_examples=40, deadline=None)
    @given(beta=_floats(-0.5, 1.5), omega0=_floats(-5.0, 5.0), c=_floats(-5.0, 5.0),
           t_max=_floats(-1.0, 25.0), dt=_floats(0.05, 5.0), terms=st.integers(-3, 30))
    def test_dimensional(self, beta, omega0, c, t_max, dt, terms):
        argv = ["dimensional", f"--beta={beta!r}", f"--omega0={omega0!r}", f"--c={c!r}",
                f"--t-max={t_max!r}", f"--dt={dt!r}", f"--terms={terms}"]
        assert _exit_code(argv) in EXIT_CODES

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(beta=_floats(-0.5, 1.5), t_max=_floats(-1.0, 25.0), dt=_floats(0.05, 5.0),
           methods=st.sampled_from(["ladm", "hbm,oracle", "ladm,hbm,oracle", "dtm,hpm",
                                    "bogus", ""]))
    def test_compare(self, beta, t_max, dt, methods, tmp_path):
        argv = ["compare", f"--beta={beta!r}", f"--t-max={t_max!r}", f"--dt={dt!r}",
                f"--methods={methods}", "--out", str(tmp_path / "x.csv")]
        assert _exit_code(argv) in EXIT_CODES

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(beta_min=_floats(0.0, 0.5), beta_max=_floats(0.5, 1.0), steps=st.integers(-1, 3))
    def test_sweep(self, beta_min, beta_max, steps, tmp_path):
        argv = ["sweep", f"--beta-min={beta_min!r}", f"--beta-max={beta_max!r}",
                f"--steps={steps}", "--out", str(tmp_path / "x.csv")]
        assert _exit_code(argv) in EXIT_CODES

    @settings(max_examples=30, deadline=None)
    @given(beta=_floats(0.0, 1.0))
    def test_period(self, beta):
        assert _exit_code(["period", f"--beta={beta!r}"]) in EXIT_CODES

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payload=_reports())
    def test_plot(self, payload, tmp_path):
        # json.dumps writes NaN and Infinity tokens, which json.loads reads back
        (tmp_path / "r.json").write_text(json.dumps(payload))
        argv = ["plot", "--in", str(tmp_path / "r.json"), "--out", str(tmp_path / "fig.svg")]
        assert _exit_code(argv) in EXIT_CODES


class TestOneParserPerProcess:
    """``main`` parses with one parser per process, and a parse leaves nothing for the next."""

    SEQUENCE = [
        ["period", "--beta", "0.5"],
        ["sweep", "--beta-min", "0.1", "--beta-max", "0.5", "--steps", "2", "--out", "{tmp}/s.csv"],
        ["period"],  # usage error
        ["period", "--beta", "1.5"],  # domain error
        ["dimensional", "--beta", "0.1", "--omega0", "2", "--c", "3", "--t-max", "3"],
        ["compare", "--beta", "0.1", "--out", "{tmp}/c.csv"],  # the default --t-max
        ["period", "--beta", "0.5"],
    ]

    @staticmethod
    def _files(argv):
        return [Path(a).read_text() for a in argv if a.endswith(".csv")]

    def _alone(self, argv):
        """Exit code, stdout, stderr and written files of argv run in a fresh interpreter."""
        code = f"import sys; sys.path.insert(0, {str(SRC)!r}); from ladm.cli import main; sys.exit(main(sys.argv[1:]))"
        run = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
        return run.returncode, run.stdout, run.stderr, self._files(argv)

    def test_cached_parser_holds_no_state(self, tmp_path, capsys):
        seq = [[a.format(tmp=tmp_path) for a in argv] for argv in self.SEQUENCE]
        alone = {tuple(argv): self._alone(argv) for argv in seq}
        assert [alone[tuple(argv)][0] for argv in seq] == [0, 0, 2, 3, 0, 0, 0]

        main(["period", "--beta", "0.1"])  # the parser is built before the sequence
        capsys.readouterr()
        for argv in seq:
            code = _exit_code(argv)
            out, err = capsys.readouterr()
            assert (code, out, err, self._files(argv)) == alone[tuple(argv)], argv
        assert build_parser() is build_parser()
