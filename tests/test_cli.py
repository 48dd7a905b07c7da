import json
import math
import os
import subprocess
import sys

import pytest

import roughbound
from roughbound.cli import build_parser, main


def test_phi_direct(capsys):
    assert main(["phi", "--x", "10", "--y", "2"]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_phi_degenerate(capsys):
    assert main(["phi", "--x", "10", "--y", "1"]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_phi_all_methods_agree(capsys):
    assert main(["phi", "--x", "613", "--y", "11", "--method", "all"]) == 0
    assert capsys.readouterr().out.strip() == "128"


def test_phi_negative_x_is_domain_error(capsys):
    assert main(["phi", "--x", "-5", "--y", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: x must be >= 0")


def test_phi_resource_exit(capsys):
    assert main(["phi", "--x", "10000", "--y", "3", "--cap", "100"]) == 3
    assert "resource" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["phi", "--x", "100", "--y", "1e10"],
    ["phi", "--x", "100", "--y", "5000000", "--method", "all"],
])
def test_phi_table_sized_by_x_when_y_above_x(argv, capsys):
    # every prime above x strikes nothing, so the table stops at x, not y
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_usage_error_exit():
    with pytest.raises(SystemExit) as exc:
        main(["phi", "--x", "10"])  # missing --y
    assert exc.value.code == 2


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["phi", "--x", "10", "--y", "2", "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["phi", "--x", "100", "--y", "nan"],
    ["phi", "--x", "100", "--y", "inf"],
    ["omega", "--u", "nan"],
    ["omega", "--u", "2", "--u-max=-inf"],
    ["bound", "--kind", "large-y", "--y", "nan"],
    ["bound", "--kind", "selberg", "--x", "1e30", "--y", "300", "--epsilon", "inf"],
    ["verify", "--region", "iteration", "--target", "nan"],
    ["plot-data", "--kind", "ratio-map", "--y-set", "3,inf"],
])
def test_non_finite_number_exit(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected a finite number" in capsys.readouterr().err


def test_pipeline_rejects_non_finite_target():
    from roughbound.errors import DomainError
    from roughbound.pipeline import ITERATION, PipelineConfig, run_full_pipeline
    for target in (math.nan, math.inf):
        with pytest.raises(DomainError, match="target must be finite"):
            run_full_pipeline(PipelineConfig(target=target, regions=(ITERATION,)))


def test_omega_value(capsys):
    assert main(["omega", "--u", "2", "--u-max", "4"]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.5


def test_omega_extremum(capsys):
    assert main(["omega", "--u", "3", "--extremum"]) == 0
    out = capsys.readouterr().out
    assert "0.5671432904" in out


def test_plot_data_omega_header(capsys):
    assert main(["plot-data", "--kind", "omega", "--u-hi", "2.0", "--step", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "u,omega"
    u, w = lines[-1].split(",")
    assert float(u) == 2.0
    assert float(w) == pytest.approx(0.5, abs=1e-9)


def test_plot_data_ratio_map(capsys):
    assert main(["plot-data", "--kind", "ratio-map", "--y-set", "3,5", "--u-step", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "y,u,ratio"
    assert len(lines) > 4


@pytest.mark.parametrize("argv", [
    ["plot-data", "--kind", "ratio-map", "--u-step", "1e-300"],   # u += step leaves u at 2
    ["plot-data", "--kind", "ratio-map", "--y-set", "3,5", "--u-step", "2e-6"],
    ["plot-data", "--kind", "omega", "--step", "1e-9"],
    ["plot-data", "--kind", "omega", "--step", "1e-320"],
    ["plot-data", "--kind", "omega", "--u-hi", "101"],
    ["omega", "--u", "2", "--u-max", "1e6"],
])
def test_oversized_grid_or_table_exit_writes_nothing(argv, capsys, tmp_path):
    out = tmp_path / "out.csv"
    assert main(argv + (["--out", str(out)] if argv[0] == "plot-data" else [])) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource error:")
    assert not out.exists()


def test_ratio_map_past_the_cap_exits_before_writing(capsys, tmp_path):
    out = tmp_path / "out.csv"
    argv = ["plot-data", "--kind", "ratio-map", "--y-set", "3,1000"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the largest y allowed is 310.72" in captured.err
    assert main(argv + ["--out", str(out)]) == 3
    assert not out.exists()
    # the named y fits; the next one up does not
    assert main(["plot-data", "--kind", "ratio-map", "--y-set", "310.73"]) == 3
    assert main(["plot-data", "--kind", "ratio-map", "--y-set", "310.72"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("310.72,3.0000,")


@pytest.mark.parametrize("y_set", ["3,1", "1.5", "0,5"])
def test_ratio_map_y_below_2_exits_2(y_set, capsys):
    assert main(["plot-data", "--kind", "ratio-map", "--y-set", y_set]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs every y >= 2" in captured.err


@pytest.mark.parametrize("argv, rows", [
    (["plot-data", "--kind", "ratio-map", "--y-set", "3,5", "--u-step", "0.25"], 10),
    (["plot-data", "--kind", "omega", "--u-lo", "1", "--u-hi", "2", "--step", "0.5"], 3),
])
def test_plot_data_row_limit_is_exact(argv, rows, capsys, monkeypatch):
    import roughbound.cli as cli
    monkeypatch.setattr(cli, "PLOT_ROW_LIMIT", rows)
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == rows + 1   # the header
    monkeypatch.setattr(cli, "PLOT_ROW_LIMIT", rows - 1)
    assert main(argv) == 3
    assert capsys.readouterr().out == ""


def test_bound_elementary(capsys):
    assert main(["bound", "--kind", "elementary", "--x", "613", "--y", "11"]) == 0
    out = capsys.readouterr().out
    assert "x_bound 613" in out


def test_bound_elementary_past_2_53_exit():
    # the crossover lies near 3e30; a search stepping by 1 there never ends: run it apart
    src = os.path.dirname(os.path.dirname(roughbound.__file__))
    run = subprocess.run([sys.executable, "-m", "roughbound.cli", "bound", "--kind", "elementary",
                          "--x", "1e6", "--y", "500"], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 2
    assert "past 2^53" in run.stderr
    assert run.stdout == ""  # the bound is not printed without its x-bound


def test_bound_bonferroni_infeasible_prints_nothing(capsys):
    assert main(["bound", "--kind", "bonferroni", "--x", "1e6", "--y", "5000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "never beats the density" in captured.err


def test_phi_two_prime_huge_y_is_domain_error(capsys):
    # y^2 > x is refused before looking for a prime above y past the table
    assert main(["phi", "--method", "two-prime", "--x", "100", "--y", "1e10"]) == 2
    assert "needs y^2 <= x" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["plot-data", "--kind", "ratio-map", "--u-step", "0"],
    ["plot-data", "--kind", "ratio-map", "--u-step", "-0.25"],
    ["plot-data", "--kind", "omega", "--step", "0"],
    ["plot-data", "--kind", "omega", "--step", "-1"],
])
def test_plot_data_nonpositive_step_exit(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected a number above 0" in capsys.readouterr().err


def test_bound_large_y(capsys):
    assert main(["bound", "--kind", "large-y", "--y", "500000"]) == 0
    out = capsys.readouterr().out
    assert "factor 1.056" in out


def test_bound_sweep_csv(capsys):
    assert main(["bound", "--kind", "selberg-sweep", "--y-lo", "241", "--y-hi", "300"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "y,epsilon,f_value,coefficient,margin"
    assert lines[1].startswith("241,")


def test_bound_sweep_below_method_range_exit(capsys):
    # the explicit sieve bound holds only from y = 241; an empty range is not an error
    assert main(["bound", "--kind", "selberg-sweep", "--y-lo", "2", "--y-hi", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs y >= 241" in captured.err
    assert main(["bound", "--kind", "selberg-sweep", "--y-lo", "300", "--y-hi", "250"]) == 0
    assert capsys.readouterr().out == "y,epsilon,f_value,coefficient,margin\n"


def test_verify_iteration_json(capsys):
    assert main(["verify", "--region", "iteration", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] is True
    cert = data["certificates"][0]
    assert cert["region"] == "iteration"
    assert cert["margin"] > 0


@pytest.mark.parametrize("region", ["small-y", "mid-y"])
def test_verify_scan_region_alone(capsys, region):
    # the run's table stops at 300 when no region needs the small-u primes
    assert main(["verify", "--region", region, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith(f"{region},True,")


def test_verify_paper_scale_sets_small_u_cap():
    assert build_parser().parse_args(["verify", "--paper-scale"]).small_u_cap == 1100
    assert build_parser().parse_args(["verify"]).small_u_cap == 500


@pytest.mark.parametrize("argv", [
    ["verify", "--exhaustive-cap", "1"],
    ["verify", "--small-u-cap", "600"],
    ["table1", "--cap", "1"],
])
def test_scan_caps_are_not_options(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_verify_nonpositive_parallelism_exit(capsys):
    assert main(["verify", "--region", "iteration", "--parallelism", "0"]) == 2
    assert "parallelism" in capsys.readouterr().err


def test_verify_failure_exit(capsys):
    # an impossible target: every region must fail
    code = main(["verify", "--region", "iteration", "--target", "0.5", "--format", "json"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] is False
    assert data["certificates"][0]["failures"]


def test_table1_csv(capsys, monkeypatch):
    # limit the run to a cheap subset by patching the reference rows
    import roughbound.pipeline as pl
    monkeypatch.setattr(pl, "REFERENCE_SMALL_Y_ROWS", pl.REFERENCE_SMALL_Y_ROWS[:4])
    assert main(["table1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "y_lo,y_hi,x_bound,max"
    assert lines[1] == "2,3,22,0.61034"
    assert lines[4].startswith("7,11,370,")
