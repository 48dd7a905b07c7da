import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
import weakref
from concurrent.futures import Future, ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special
from scipy.integrate import quad

import roughbound
from roughbound.analytic import BETA0, BETA1_SMALL, RECIP_SUM_COEFF, THETA_DEFECT_SMALL
from roughbound.errors import DomainError, OutOfRangeError, ResourceError
from roughbound.phi import scan_rough_interval
from roughbound.pipeline import (
    AFTER_CAP,
    BoundReport,
    C3_SMALL_U,
    ITERATION,
    MID_Y,
    PipelineConfig,
    REFERENCE_SMALL_Y_ROWS,
    REGION_ORDER,
    REGIONS,
    SELBERG_CLOSED,
    SELBERG_FINITE,
    SMALL_U,
    SMALL_U_GRID_YS,
    SMALL_Y,
    epsilon_k,
    iteration_tail_epsilon,
    run_full_pipeline,
    small_u_coefficient,
    small_u_grid_max,
    verify_iteration,
    verify_small_y,
)
from roughbound.primes import Presieve, build_prime_table

_T = build_prime_table(10_100)


def test_epsilon_k_brute():
    q0 = 241
    cap = q0 ** (4 / 3)
    best = -math.inf
    best_q1 = None
    for q1 in map(int, _T.primes_between(q0, cap)):
        s = sum(1.0 / (int(p) * math.log(int(p)))
                for p in _T.primes_between(q0 - 1, q1))
        val = -1.0 / math.log(q0) + 1.0 / math.log(q1) + s
        if val > best:
            best, best_q1 = val, q1
    eps, q1 = epsilon_k(_T, q0, 3)
    assert eps == pytest.approx(best, abs=1e-15)
    assert q1 == best_q1


def test_epsilon_k_nonincreasing_in_k():
    rng = np.random.default_rng(17)
    qs = [int(p) for p in _T.primes_between(241, 1000)]
    for q0 in rng.choice(qs, size=20, replace=False):
        values = [epsilon_k(_T, int(q0), k)[0] for k in (3, 4, 5, 6)]
        assert all(a >= b - 1e-18 for a, b in zip(values, values[1:]))


def test_epsilon_k_out_of_range():
    assert epsilon_k(_T, 467, 2)[1] <= 467 ** 1.5 < 10_100
    with pytest.raises(OutOfRangeError):
        epsilon_k(_T, 479, 2)  # 479^1.5 is about 10,483
    with pytest.raises(OutOfRangeError):
        epsilon_k(_T, 101, 1)


def test_chain_bracket_consistency():
    # the bracket 1/log q1 + sum 1/(p log p) never exceeds the uniform form
    for q0 in (251, 433, 883):
        eps3, _ = epsilon_k(_T, q0, 3)
        rhs = (1.0 / math.log(q0)) * (1.0 + eps3 * math.log(q0))
        for q1 in map(int, _T.primes_between(q0, q0 ** (4 / 3))):
            s = sum(1.0 / (int(p) * math.log(int(p)))
                    for p in _T.primes_between(q0 - 1, q1))
            bracket = 1.0 / math.log(q1) + s
            assert bracket <= rhs + 1e-15


def test_iteration_certificate():
    cert = verify_iteration(build_prime_table(17_300))  # 1499^(4/3) is about 17,155
    assert cert.verified
    assert cert.margin > 0
    assert cert.params["assumes"] == {"C3_SMALL_U": C3_SMALL_U}
    assert cert.params["exact_range"] == [241, 1499]
    # the tail value at the first probe already sits below the target
    eps = iteration_tail_epsilon(1511)
    assert C3_SMALL_U * (1 + eps * math.log(1511)) ** 5 < 0.6
    with pytest.raises(DomainError):
        iteration_tail_epsilon(1499)
    with pytest.raises(OutOfRangeError):
        verify_iteration(_T)  # the exact range needs primes past 10,100


def test_theta_defect_holds_where_the_tail_applies():
    # the tail's q - theta(q-) < 1.95 sqrt(q) on every prime in (1500, 3e6];
    # it fails at 1423 and 1427, below the tail.  theta(q-) is a float64
    # cumsum of at most 216,816 logs, off by less than 1e-4 absolute, and the
    # largest ratio, 1.9372 at q = 19373, is 0.0128 sqrt(q) >= 0.49 below 1.95.
    ps = build_prime_table(3_000_000).primes.astype(np.float64)
    theta_before = np.cumsum(np.log(ps)) - np.log(ps)
    ratio = (ps - theta_before) / np.sqrt(ps)
    tail = ps > 1500
    assert ratio[tail].max() < THETA_DEFECT_SMALL
    assert ps[tail][np.argmax(ratio[tail])] == 19373
    assert ratio[ps == 1423][0] > 2.05 and ratio[ps == 1427][0] > THETA_DEFECT_SMALL


def test_small_y_fast_rows():
    cert = verify_small_y(_T)
    assert len(cert.rows) == len(REFERENCE_SMALL_Y_ROWS)
    assert cert.verified
    assert cert.margin == pytest.approx(0.6 - 0.579398, abs=1e-4)
    by_interval = {r["y_lo"]: r for r in cert.rows}
    assert by_interval[2]["x_bound"] == 22
    assert by_interval[11]["x_bound_match"] is True
    assert by_interval[2]["violations"] == 1  # x = 9 only


def test_small_y_lowered_target_fails_with_witnesses():
    cert = verify_small_y(_T, target=0.55)
    assert not cert.verified
    issues = {f["issue"] for f in cert.failures}
    assert "target violated" in issues
    witnessed = [f for f in cert.failures if f["issue"] == "target violated"]
    assert witnessed and witnessed[0]["witnesses"]


def test_small_u_coefficient_domain():
    with pytest.raises(DomainError):
        small_u_coefficient(2000.0, 3.2)
    with pytest.raises(DomainError):
        small_u_coefficient(500.0, 2.5)  # below the window validity
    with pytest.raises(DomainError):
        small_u_coefficient(2000.0, np.array([2.0, 2.5, 3.2]))
    with pytest.raises(DomainError):
        small_u_coefficient(np.array([1100.0, 500.0]), 2.5)


def _window(t):
    """The Mertens-sum error window of roughbound.analytic, one float at a time."""
    if t < 1e4:
        return 0.0, BETA1_SMALL
    if t < 1e6:
        return 0.0, 0.00161
    w = RECIP_SUM_COEFF / math.log(t) ** 3
    return -w, w


def _li(x):
    """li as Ei(log x) by scipy's expi, with roughbound.analytic.li's rounding
    residual and math's log and exp, one float at a time."""
    big_l = math.log(x)
    return float(special.expi(big_l)) + math.log1p(x / math.exp(big_l) - 1.0) * x / big_l


def _r_ratio(t):
    return (1.0 + BETA0) * _li(t) * math.log(t) / t


def reference_small_u_coefficient(y, u):
    """The small-u coefficient with its credit integral by adaptive
    quadrature (scipy quad, absolute tolerance 1e-12 x, split at the same
    points), one float at a time."""
    log_y = math.log(y)
    x = y ** u
    rx = y ** (u / 2.0)
    lo_y, hi_y = _window(y)
    _, hi_rx = _window(rx)

    main = _r_ratio(x) / u
    second = _r_ratio(rx) * (2.0 / u) * (math.log(u / 2.0) + hi_rx - lo_y)

    credit_int = 0.0
    if u > 2.0:
        def integrand(s):
            z = y ** (u - s)
            t = y ** s
            lo_t, _ = _window(t)
            f_lower = math.log(s) + lo_t - hi_y
            return (_li(z) - z / ((u - s) * log_y)) * f_lower * t * log_y

        pts = sorted(
            s for s in (math.log(1e4) / log_y, math.log(1e6) / log_y, math.exp(hi_y))
            if 1.0 < s < u / 2.0
        )
        val, _ = quad(integrand, 1.0, u / 2.0, epsabs=1e-12 * x, epsrel=1e-10, limit=200,
                      points=pts or None)
        credit_int = (1.0 + BETA0) * val * log_y / x

    sqrt_x = math.sqrt(x)
    big_l = sqrt_x / math.log(sqrt_x) + sqrt_x / math.log(sqrt_x) ** 2
    a_low = 0.5 * big_l * (big_l - 1.0)
    big_w = _r_ratio(y) * y / log_y
    b_up = 0.5 * (big_w - 1.0) * (big_w - 2.0)
    credit_m = (a_low - b_up) * log_y / x

    return main + second - credit_int - credit_m


@pytest.fixture(scope="module")
def small_u_grid():
    """Each grid y with its u values, as small_u_grid_max builds them, and
    the reference coefficient at every point."""
    grid = []
    for y in map(float, SMALL_U_GRID_YS):
        crossings = [2.0 * math.log(b) / math.log(y) for b in (1e4, 1e6)]
        us = sorted([*np.linspace(2.0, 3.0, 101).tolist(),
                     *(v for c in crossings if 2.0 < c < 3.0 for v in (c - 1e-9, c))])
        grid.append((y, us, [reference_small_u_coefficient(y, u) for u in us]))
    return grid


def test_small_u_coefficient_matches_quadrature_on_the_grid(small_u_grid):
    assert sum(len(us) for _, us, _ in small_u_grid) == 3280
    for y, us, want in small_u_grid:
        got = small_u_coefficient(y, np.array(us))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_small_u_grid_max_picks_the_reference_maxima(small_u_grid):
    best, rows = small_u_grid_max()
    ref_best = (-math.inf, None, None)
    for (y, us, values), row in zip(small_u_grid, rows):
        i = max(range(len(us)), key=lambda k: (values[k], -k))   # first maximum
        assert (row["y"], row["at_u"]) == (y, us[i])
        assert row["max_coefficient"] == pytest.approx(values[i], abs=1e-13)
        if values[i] > ref_best[0]:
            ref_best = (values[i], y, us[i])
    assert best[1:] == ref_best[1:] == (1100.0, 2.89)
    assert best[0] == pytest.approx(ref_best[0], abs=1e-13)


def test_small_u_grid_max_equals_one_call_per_y(small_u_grid):
    # the grid is one batched call; each y's row is what a call of its own gives
    best, rows = small_u_grid_max()
    want_best, want_rows = (-math.inf, None, None), []
    for y, us, _ in small_u_grid:
        values = small_u_coefficient(y, np.array(us))
        i = int(np.argmax(values))
        want_rows.append({"y": y, "max_coefficient": float(values[i]), "at_u": us[i]})
        if values[i] > want_best[0]:
            want_best = (float(values[i]), y, us[i])
    assert rows == want_rows
    assert best == want_best


# quad warns on a credit interval a few ulps wide (u just above 2), where the credit is about 0
@pytest.mark.filterwarnings("ignore:Extremely bad integrand behavior")
@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1100.0, max_value=1e12), st.floats(min_value=2.0, max_value=3.0))
@example(1e6, 3.0)
@example(1100.0, 2.0000000000000004)   # the rounded midpoint of [1, u/2] lies below 1
@example(999999.0, 2.0 * math.log(1e6) / math.log(999999.0) - 1e-9)
def test_small_u_coefficient_matches_quadrature(y, u):
    want = reference_small_u_coefficient(y, u)
    assert small_u_coefficient(y, u) == pytest.approx(want, abs=1e-13)
    assert small_u_coefficient(np.array([y, y]), u)[1] == small_u_coefficient(y, u)


def test_import_loads_no_scipy():
    # scipy is a test oracle only: neither the import nor omega's table and queries load it
    src = os.path.dirname(os.path.dirname(roughbound.__file__))
    code = ("import sys, roughbound, roughbound.cli\n"
            "from roughbound.buchstab import omega_samples\n"
            "table = roughbound.build_omega()\n"
            "table.omega(7.3), table.omega_many([2.5, 7.3]), roughbound.mu_y(7.3, 1e3, table)\n"
            "roughbound.locate_extremum(table), omega_samples(table)\n"
            "print([m for m in sys.modules if m.startswith('scipy')])")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.strip() == "[]"


def test_small_u_coefficient_spot():
    # at u=3 and huge y the coefficient must still dominate the limiting
    # density at u=3, which is (1 + log 2)/3 = .56438
    val = small_u_coefficient(1e12, 3.0)
    assert (1 + math.log(2)) / 3 < val < C3_SMALL_U
    assert val == pytest.approx(0.565185, abs=1e-5)  # regression pin
    assert small_u_coefficient(1100.0, 2.9) < C3_SMALL_U


def test_report_roundtrip_and_filter():
    config = PipelineConfig(regions=(ITERATION,))
    report = run_full_pipeline(config)
    assert len(report.certificates) == 1
    assert report.certificates[0].region == ITERATION
    assert report.verdict
    back = BoundReport.from_json(report.to_json())
    assert back == report
    assert "iteration" in report.to_text()
    assert report.to_csv().splitlines()[0] == "region,verified,margin,method"
    data = json.loads(report.to_json())
    assert isinstance(data["certificates"][0]["margin"], float)


def test_unknown_region_rejected():
    with pytest.raises(DomainError):
        run_full_pipeline(PipelineConfig(regions=("nowhere",)))


@pytest.mark.parametrize("regions", [(), (ITERATION, ITERATION)])
def test_empty_or_repeated_region_selection_rejected(regions):
    # an empty selection would certify nothing and still read "verified"
    with pytest.raises(DomainError, match="region"):
        run_full_pipeline(PipelineConfig(regions=regions))


@pytest.mark.parametrize("cap, refused", [(1289, False), (1290, True), (5_000_000, True)])
def test_small_u_cap_past_the_sieve_refused_before_the_table(monkeypatch, cap, refused):
    # small-u scans x < q^3, q > cap: from cap 1290 on that passes the sieve's
    # cap, and the run stops before it sieves its table
    import roughbound.pipeline as pl

    class Built(Exception):
        pass

    def build(limit):
        raise Built(limit)

    monkeypatch.setattr(pl, "build_prime_table", build)
    expected = (ResourceError, "small_u_cap") if refused else (Built, None)
    with pytest.raises(expected[0], match=expected[1]):
        run_full_pipeline(PipelineConfig(small_u_cap=cap, regions=(SMALL_U,)))


def _record_calls(monkeypatch):
    """Wrap every region's verifier on the module, as the benchmark's tracer
    does, and return the list of the names the run calls."""
    import roughbound.pipeline as pl

    calls = []
    for region in REGIONS:
        verify = getattr(pl, region.verifier)

        def wrapper(*args, _verify=verify, _name=region.verifier, **kwargs):
            calls.append(_name)
            return _verify(*args, **kwargs)

        monkeypatch.setattr(pl, region.verifier, wrapper)
    return calls


def test_every_verifier_is_a_package_export():
    import roughbound.pipeline as pl
    for region in REGIONS:
        assert getattr(roughbound, region.verifier) is getattr(pl, region.verifier)


@pytest.mark.parametrize("name, verifier", [(SELBERG_FINITE, "verify_selberg"),
                                            (SELBERG_CLOSED, "verify_selberg_closed")])
def test_one_selberg_certificate_runs_only_its_verifier(monkeypatch, name, verifier):
    calls = _record_calls(monkeypatch)
    report = run_full_pipeline(PipelineConfig(regions=(name,)))
    assert calls == [verifier]
    assert [c.region for c in report.certificates] == report.config["regions"] == [name]


@pytest.mark.parametrize("name", REGION_ORDER)
def test_each_region_alone_gives_its_certificate_of_the_full_run(serial_270, name):
    report = _region_run(name, 1, small_u_cap=270)
    assert report.certificates == [c for c in serial_270.certificates if c.region == name]


def _stated(region, after_cap):
    """The boxes and constants the certificate of `region` must state."""
    import roughbound.pipeline as pl
    return {"boxes": [{"y": [after_cap if end == AFTER_CAP else end for end in y], "u": list(u)}
                      for y, u in region.boxes],
            "assumes": {name: getattr(pl, name) for name in region.assumes},
            "establishes": {name: getattr(pl, name) for name in region.establishes}}


def test_certificates_state_their_records_boxes_and_constants(serial_270):
    assert [c.region for c in serial_270.certificates] == [region.name for region in REGIONS]
    for cert, region in zip(serial_270.certificates, REGIONS):
        stated = {key: cert.params[key] for key in ("boxes", "assumes", "establishes")}
        assert stated == _stated(region, 271)
    # nothing else states them by hand
    for cert in serial_270.certificates:
        assert not {"c3", "exhaustive_cap_y", "analytic_y_range", "exhaustive_milestone",
                    "analytic_milestone", "factor_limit", "coefficient_limit"} & set(cert.params)


@pytest.mark.parametrize("cap, end", [(270, 271), (500, 503)])
def test_small_u_boxes_show_the_gap_below_the_grid(cap, end):
    # the exhaustive box ends at the first prime above the cap, and the
    # analytic one starts at 1100: at the default cap 503 <= y < 1100 is in neither
    cert = _region_run(SMALL_U, 1, small_u_cap=cap).certificates[0]
    assert cert.params["boxes"] == [{"y": [241, end, "[)"], "u": [2, 3, "[)"]},
                                    {"y": [1100, None, "[)"], "u": [2, 3, "[)"]}]


def test_run_calls_each_verifier_by_its_module_name(monkeypatch):
    # a wrapper installed on the module, as the benchmark's tracer installs
    # one, is what the run calls
    calls = _record_calls(monkeypatch)
    run_full_pipeline(PipelineConfig(small_u_cap=240))
    assert sorted(calls) == sorted(region.verifier for region in REGIONS)


def _box_text(box, after_cap):
    """A (y, u) box as the README's region table writes it."""
    def side(var, lo, hi, ends):
        lo_op = "<=" if ends[0] == "[" else "<"
        if hi is None:
            return f"`{var} {'>=' if lo_op == '<=' else '>'} {lo:g}`"
        return f"`{lo:g} {lo_op} {var} {'<=' if ends[1] == ']' else '<'} {hi:g}`"
    y, u = box
    return f"{side('y', *(after_cap if end == AFTER_CAP else end for end in y))}, {side('u', *u)}"


def test_readme_region_table_states_the_records():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    rows = {cells[0]: cells[1:4] for line in readme.splitlines() if line.startswith("| ")
            for cells in [[cell.strip() for cell in line.split("|")[1:]]]}
    for region in REGIONS:
        assert rows[region.name] == [
            "; ".join(_box_text(box, 503) for box in region.boxes),   # at the default cap
            ", ".join(f"`{name}`" for name in region.assumes),
            ", ".join(f"`{name}`" for name in region.establishes)]


def test_config_has_only_the_set_knobs():
    assert [f.name for f in dataclasses.fields(PipelineConfig)] == [
        "target", "small_u_cap", "parallelism", "regions"]


@pytest.mark.parametrize("parallelism", [0, -3])
def test_nonpositive_parallelism_rejected(monkeypatch, parallelism):
    import roughbound.pipeline as pl

    def build(limit):
        raise AssertionError("the table was built before the parallelism was refused")

    monkeypatch.setattr(pl, "build_prime_table", build)
    with pytest.raises(DomainError, match="parallelism"):
        run_full_pipeline(PipelineConfig(regions=(ITERATION,), parallelism=parallelism))


@pytest.mark.parametrize("parallelism", [math.nan, 2.5, 2.0, "2"])
def test_non_integer_parallelism_refused_before_the_table(monkeypatch, parallelism):
    import roughbound.pipeline as pl

    def build(limit):
        raise AssertionError("the table was built before the parallelism was refused")

    monkeypatch.setattr(pl, "build_prime_table", build)
    with pytest.raises(DomainError, match="parallelism must be an integer"):
        run_full_pipeline(PipelineConfig(regions=REGION_ORDER, parallelism=parallelism))


@pytest.fixture
def fake_pool(monkeypatch):
    """Stands in for ProcessPoolExecutor on a machine with 64 usable CPUs and
    starts no process: records each pool's size and every task's arguments,
    and runs each task here when it is submitted, after the initializer, as
    a worker would."""
    import roughbound.pipeline as pl

    class FakePool:
        sizes = []
        task_args = []

        def __init__(self, max_workers, initializer, initargs):
            self.sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            self.task_args.append(args)
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(pl, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(pl, "_worker_table", None)   # restored after the initializer sets it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    return FakePool


def _region_run(region, parallelism, **config):
    return run_full_pipeline(PipelineConfig(regions=(region,), parallelism=parallelism, **config))


def test_pool_clamped_to_task_count(fake_pool):
    # one task per region
    pair = (SMALL_Y, ITERATION)
    serial = run_full_pipeline(PipelineConfig(regions=pair))
    assert run_full_pipeline(PipelineConfig(regions=pair, parallelism=5000)).certificates \
        == serial.certificates
    assert fake_pool.sizes == [2]
    _region_run(SMALL_Y, 5000)
    assert fake_pool.sizes == [2]  # one task runs in this process


def test_pool_clamped_to_usable_cpus(fake_pool, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    run_full_pipeline(PipelineConfig(small_u_cap=240, parallelism=5000))
    assert fake_pool.sizes == [3]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {4}, raising=False)
    run_full_pipeline(PipelineConfig(small_u_cap=240, parallelism=5000))
    assert fake_pool.sizes == [3]  # one usable CPU: the regions run in this process


@pytest.mark.parametrize("region", list(REGION_ORDER) + ["all"])
def test_pool_sized_to_the_tasks_the_run_submits(fake_pool, region):
    # one task per part of a selected region, and one per other selected region:
    # small-u alone is two tasks, any other region alone runs in this process
    regions = REGION_ORDER if region == "all" else (region,)
    run_full_pipeline(PipelineConfig(regions=regions, small_u_cap=270, parallelism=5000))
    if region in ("all", SMALL_U):
        tasks = len(REGIONS) + 1 if region == "all" else 2
        assert fake_pool.sizes == [len(fake_pool.task_args)] == [tasks]
    else:
        assert fake_pool.sizes == [] and fake_pool.task_args == []


@pytest.fixture(scope="module")
def serial_270():
    return run_full_pipeline(PipelineConfig(small_u_cap=270))


def test_run_opens_one_pool_and_sends_no_table(fake_pool, serial_270):
    config = PipelineConfig(small_u_cap=270, parallelism=2)
    report = run_full_pipeline(config)
    assert fake_pool.sizes == [2]
    # small-u's parts first, then one task per other region in record order,
    # each sent its record, its part and the run's config: neither a
    # PrimeTable nor a Presieve
    small_u = next(region for region in REGIONS if region.name == SMALL_U)
    assert fake_pool.task_args == [(small_u, part, config) for part in small_u.parts] + [
        (region, None, config) for region in REGIONS if region.name != SMALL_U]
    assert report.certificates == serial_270.certificates


def test_small_u_submits_its_scans_first_and_its_grid_second(fake_pool):
    config = PipelineConfig(regions=(SMALL_U,), small_u_cap=270, parallelism=5000)
    run_full_pipeline(config)
    small_u = next(region for region in REGIONS if region.name == SMALL_U)
    assert fake_pool.sizes == [2]
    assert fake_pool.task_args == [(small_u, ("small_u_scans", True), config),
                                   (small_u, ("small_u_grid_max", False), config)]


def test_small_u_alone_opens_a_pool_of_two_and_gives_the_serial_certificate(monkeypatch,
                                                                            serial_270):
    import roughbound.pipeline as pl

    sizes = []

    class Sized(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(pl, "ProcessPoolExecutor", Sized)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    report = _region_run(SMALL_U, 2, small_u_cap=270)
    assert sizes == [2]
    assert report.certificates == [c for c in serial_270.certificates if c.region == SMALL_U]


def test_a_killed_pool_worker_raises_resource_error_naming_its_task(monkeypatch):
    import roughbound.pipeline as pl

    caller = os.getpid()

    def killed(table, *, target):
        if os.getpid() != caller:     # only in a pool worker
            os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("selberg-closed ran in the calling process")

    monkeypatch.setattr(pl, "verify_selberg_closed", killed)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(ResourceError, match="task selberg-closed"):
        run_full_pipeline(PipelineConfig(regions=(SELBERG_CLOSED, ITERATION), parallelism=2))


def test_run_parallel_report_equals_serial(serial_270):
    report = run_full_pipeline(PipelineConfig(small_u_cap=270, parallelism=2))
    assert report.certificates == serial_270.certificates
    assert report.table1 == serial_270.table1
    assert report.verdict is serial_270.verdict is True
    assert {**report.config, "parallelism": 1} == serial_270.config


def test_small_u_reduced_deterministic_parallel():
    # two regions, so that parallelism 2 starts a pool
    pair = (SMALL_U, ITERATION)
    serial = run_full_pipeline(PipelineConfig(regions=pair, small_u_cap=270))
    twice = run_full_pipeline(PipelineConfig(regions=pair, small_u_cap=270, parallelism=2))
    assert serial.certificates == twice.certificates
    assert serial.certificates[0].params["exhaustive_max"] < 0.56404


def test_presieve_built_once_per_region_and_dropped_with_it(monkeypatch):
    import roughbound.pipeline as pl

    built, advanced = [], []

    class Recorded(Presieve):
        def __init__(self, strike, x_cap):
            super().__init__(strike, x_cap)
            built.append((int(strike[-1]), x_cap, weakref.ref(self)))

        def advance(self, strike):
            super().advance(strike)
            advanced.append(int(strike[-1]))

    monkeypatch.setattr(pl, "Presieve", Recorded)
    report = run_full_pipeline(PipelineConfig(regions=(MID_Y, SMALL_U), small_u_cap=270))
    mid_y_cover = report.certificates[0].params["max_x_bound"] - 1
    # one presieve per region, at its first scan, over the region's largest x cap
    assert [(y, x_cap) for y, x_cap, _ in built] == [(71, mid_y_cover), (241, 271 ** 3 - 1)]
    # built to its first scan's primes, then advanced to each later scan's
    # (the constructor strikes its own primes by `advance`)
    assert advanced == [int(p) for p in _T.primes_between(70, 270)]
    assert all(ref() is None for *_, ref in built)


def test_rolling_presieve_scans_equal_fresh_scans(monkeypatch):
    # each mid-y and small-u scan reads its region's one presieve, advanced
    # from scan to scan, and gives what a scan building its own would
    import roughbound.pipeline as pl

    calls = []

    def recorded(table, y_lo, y_hi, x_cap, *, target, presieve):
        scan = scan_rough_interval(table, y_lo, y_hi, x_cap, target=target, presieve=presieve)
        calls.append(((y_lo, y_hi, x_cap), target, presieve is not None, scan))
        return scan

    monkeypatch.setattr(pl, "scan_rough_interval", recorded)
    pl.verify_mid_y(_T)
    pl.verify_small_u(_T, y_exhaustive_cap=270)
    assert len(calls) == 33 + 5 and all(rolled for _, _, rolled, _ in calls)
    for interval, target, _, scan in calls:
        assert scan_rough_interval(_T, *interval, target=target) == scan


def test_small_y_parallel_deterministic():
    # two regions, so that parallelism 3 starts a pool
    pair = (SMALL_Y, MID_Y)
    serial = run_full_pipeline(PipelineConfig(regions=pair))
    par = run_full_pipeline(PipelineConfig(regions=pair, parallelism=3))
    assert serial.certificates == par.certificates
    assert serial.table1 == par.table1
