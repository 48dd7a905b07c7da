import json
import math
import os
import subprocess
import sys
import tracemalloc

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


@pytest.mark.parametrize("method", ["direct", "legendre", "two-prime"])
def test_phi_at_zero(method, capsys):
    assert main(["phi", "--x", "0", "--y", "0", "--method", method]) == 0
    assert capsys.readouterr().out == "0\n"


def test_phi_negative_x_is_domain_error(capsys):
    assert main(["phi", "--x", "-5", "--y", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: x must be >= 0")


def test_phi_resource_exit(capsys):
    assert main(["phi", "--x", "10000", "--y", "3", "--cap", "100"]) == 3
    assert "resource" in capsys.readouterr().err


def test_phi_past_the_sieve_ceiling_exits_3_before_allocating(capsys):
    # a raised --cap does not lift the sieve's own ceiling: [0, 3e9] would
    # take a 100 MB presieve
    tracemalloc.start()
    try:
        assert main(["phi", "--x", "3000000000", "--y", "100", "--cap", "3000000000"]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource error:")
    assert "exceeds the exhaustive cap 2147483648" in captured.err


def traced_peak(argv):
    """main(argv)'s exit status and its traced peak allocation in bytes."""
    tracemalloc.start()
    try:
        status = main(argv)
        return status, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("x, y, method, message", [
    # direct refuses x first
    (10**24, 3, "all", f"x={10**24} exceeds the exhaustive cap 30000000"),
    # 1291^2 <= x < 1297^3: the prime-pair identity applies and needs pi(x)
    (2_150_000_000, 1291, "two-prime", "sieve limit 2150000000 exceeds the cap 2147483648"),
], ids=["all", "two-prime"])
def test_phi_table_past_the_ceiling_exits_3_before_allocating(x, y, method, message, capsys):
    # a table sized by x itself would start with a presieve of [0, sqrt(x)]
    status, peak = traced_peak(["phi", "--x", str(x), "--y", str(y), "--method", method])
    assert status == 3
    assert peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource error:")
    assert message in captured.err


def test_phi_two_prime_off_its_domain_exits_2_before_allocating(capsys):
    # x >= q^3 = 125: the identity does not apply, and a table of the primes
    # up to 2y decides that before any table sized by x
    status, peak = traced_peak(["phi", "--x", str(10**24), "--y", "3", "--method", "two-prime"])
    assert status == 2
    assert peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: prime-pair identity needs y^2 <= x < q^3 (q=5")


def test_phi_two_prime_off_its_domain_builds_no_table_to_x(monkeypatch, capsys):
    import roughbound.cli as cli
    limits = []
    build = cli.build_prime_table

    def recorded(limit):
        limits.append(limit)
        return build(limit)

    monkeypatch.setattr(cli, "build_prime_table", recorded)
    assert main(["phi", "--x", "100000000", "--y", "3", "--method", "two-prime"]) == 2
    assert main(["phi", "--x", "100000000", "--y", "3", "--method", "all",
                 "--cap", "100000000"]) == 0
    assert capsys.readouterr().out.strip() == "33333333"
    assert max(limits) <= 6
    assert main(["phi", "--x", "2000", "--y", "11", "--method", "all"]) == 0
    assert limits[-1] == 2000      # 11^2 <= 2000 < 13^3: the identity runs


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
    ["omega", "--u=-inf"],
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
    assert main(["omega", "--u", "2"]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.5


def test_omega_past_the_default_table(capsys):
    # the table reaches max(16, u)
    assert main(["omega", "--u", "20"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.5614594835668851, abs=1e-12)


def test_omega_value_and_extremum_below_3(capsys):
    # the table reaches 16 whatever u is, so the extremum on [2, 3] is always bracketed
    assert main(["omega", "--u", "2", "--extremum"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["0.5", "max 0.5671432904097838 at u = 2.7632228343518968"]
    assert captured.err == ""


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
    ["omega", "--u", "1e6"],
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


@pytest.mark.parametrize("y_set, x", [("1e300", "10^900"), ("3,1e103", "10^309")])
def test_ratio_map_past_a_float_exits_3(y_set, x, capsys):
    # y^u overflows a float: the cap is checked in logs first
    assert main(["plot-data", "--kind", "ratio-map", "--y-set", y_set]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"needs x={x}, past the exhaustive cap" in captured.err
    assert "the largest y allowed is 310.72" in captured.err


@pytest.mark.parametrize("y_set", ["3,1", "1.5", "0,5"])
def test_ratio_map_y_below_2_exits_2(y_set, capsys):
    assert main(["plot-data", "--kind", "ratio-map", "--y-set", y_set]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs every y >= 2" in captured.err


def test_plot_data_reversed_omega_range_exits_2_before_writing(capsys, tmp_path):
    out = tmp_path / "out.csv"
    assert main(["plot-data", "--kind", "omega", "--u-lo", "3", "--u-hi", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs --u-lo <= --u-hi, got 3 > 2" in captured.err
    assert not out.exists()


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


@pytest.mark.parametrize("y", ["1", "0.5", "-3", "499999"])
def test_bound_large_y_below_its_domain_exits_2(y, capsys):
    assert main(["bound", "--kind", "large-y", "--y", y]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: closed form asserted for y >= 500000")


@pytest.mark.parametrize("argv", [
    ["--x", "0", "--y", "241"],
    ["--x", "-5", "--y", "241"],
    ["--x", "10", "--y", "1", "--epsilon", "0.1"],
    ["--x", "1e10", "--y", "0.5", "--epsilon", "0.1"],
])
def test_bound_selberg_without_a_positive_sieve_level_exits_2(argv, capsys):
    assert main(["bound", "--kind", "selberg", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the sieve level needs x > 0 and y > 1")
    assert len(captured.err.splitlines()) == 1


def test_bound_selberg_overflowing_rankin_factor_exits_2(capsys):
    # the Rankin factor's exponent passes the float range: f is inf, and refused
    assert main(["bound", "--kind", "selberg", "--x", "1e20", "--y", "1000",
                 "--epsilon", "0.9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Rankin factor f=inf >= 1")


def test_bound_bonferroni_below_x_1_exits_2(capsys):
    assert main(["bound", "--kind", "bonferroni", "--x=-1e9", "--y", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs x >= 1" in captured.err


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
    # no prime lies in [300, 306]
    assert main(["bound", "--kind", "selberg-sweep", "--y-lo", "300", "--y-hi", "306"]) == 0
    assert capsys.readouterr().out == "y,epsilon,f_value,coefficient,margin\n"


def test_bound_sweep_reversed_range_exits_2_before_writing(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["bound", "--kind", "selberg-sweep", "--y-lo", "500", "--y-hi", "300",
                 "--out", str(out)]) == 2
    assert "needs lo <= hi" in capsys.readouterr().err
    assert not out.exists()


def test_verify_iteration_json(capsys):
    assert main(["verify", "--region", "iteration", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] is True
    cert = data["certificates"][0]
    assert cert["region"] == "iteration"
    assert cert["margin"] > 0


@pytest.mark.parametrize("region", ["small-y", "mid-y"])
def test_verify_scan_region_alone(capsys, region):
    # a run reads the same table whichever regions it runs
    assert main(["verify", "--region", region, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith(f"{region},True,")


def test_verify_region_choices_are_the_records():
    from roughbound.pipeline import REGION_ORDER, REGIONS
    names = [r.name for r in REGIONS]
    assert len(set(names)) == len(names)
    assert REGION_ORDER == tuple(names)
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    region = next(a for a in commands.choices["verify"]._actions if a.dest == "region")
    assert region.choices == [*REGION_ORDER, "all"]


def test_verify_paper_scale_sets_small_u_cap():
    assert build_parser().parse_args(["verify", "--paper-scale"]).small_u_cap == 1100
    assert build_parser().parse_args(["verify"]).small_u_cap == 500


@pytest.mark.parametrize("argv", [
    ["verify", "--exhaustive-cap", "1"],
    ["verify", "--small-u-cap", "600"],
    ["table1", "--cap", "1"],
    ["table1", "--parallelism", "2"],   # small-y alone is one task: no pool to size
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


def test_table1_out_writes_the_stdout_csv(capsys, monkeypatch, tmp_path):
    import roughbound.pipeline as pl
    monkeypatch.setattr(pl, "REFERENCE_SMALL_Y_ROWS", pl.REFERENCE_SMALL_Y_ROWS[:4])
    assert main(["table1"]) == 0
    csv = capsys.readouterr().out
    data = tmp_path / "data"
    data.mkdir()
    monkeypatch.setenv("ROUGHBOUND_DATA_DIR", str(data))
    # a relative --out lands in ROUGHBOUND_DATA_DIR, an absolute one where it names
    assert main(["table1", "--out", "t.csv"]) == 0
    assert main(["table1", "--out", str(tmp_path / "abs.csv")]) == 0
    assert capsys.readouterr().out == ""
    assert (data / "t.csv").read_text() == (tmp_path / "abs.csv").read_text() == csv
    # "-" is stdout
    assert main(["table1", "--out", "-"]) == 0
    assert capsys.readouterr().out == csv
    assert sorted(os.listdir(data)) == ["t.csv"]


@pytest.mark.parametrize("argv", [
    ["table1"],
    ["plot-data", "--kind", "omega", "--u-lo", "1", "--u-hi", "2", "--step", "0.5"],
    ["bound", "--kind", "selberg-sweep", "--y-lo", "300", "--y-hi", "306"],
    ["verify", "--region", "iteration"],
])
@pytest.mark.parametrize("where", ["missing-dir", "dir"])
def test_unwritable_out_exits_2(argv, where, capsys, monkeypatch, tmp_path):
    # a usage error, not a failed verification (exit 1) or a traceback
    import roughbound.pipeline as pl
    monkeypatch.setattr(pl, "REFERENCE_SMALL_Y_ROWS", pl.REFERENCE_SMALL_Y_ROWS[:4])
    out = tmp_path / "missing" / "t.csv" if where == "missing-dir" else tmp_path
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write --out {out}: ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "missing").exists()
