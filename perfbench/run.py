#!/usr/bin/env python3
"""Benchmark of the roughbound library, one workload per run.

    python3 perfbench/run.py --workload verify-serial --seed 1 --seconds 20 --trace 0

Workloads:
  verify-serial    run_full_pipeline(PipelineConfig()) with parallelism 1
  verify-parallel  the same with parallelism 2 (refused above nproc)
  query-mix        seeded point queries from one client (see querymix.py)

A request is one full verification on the verify workloads and one point
query on query-mix.  With ``--trace 0`` the run measures requests for about
``--seconds`` (at least one verification) and reports the end-to-end metrics;
with ``--trace 1`` it runs the workload untraced and then traced (see
spans.py) and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it show every metric
by name and unit.  The run also writes that result, the environment stamp and
any spans to ``.perfbench_out/`` in the checkout.  Exit status: 0 when every
correctness check passed, 1 when one failed, 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import prepare
import querymix
import spans as tracing
import verify
from forked import run_forked

HERE = Path(__file__).resolve().parent
OUT_DIR = prepare.ROOT / ".perfbench_out"
PARALLELISM = {"verify-serial": 1, "verify-parallel": 2}
SETUP_PROBES = 8      # cold set-ups in fresh interpreters, besides the run's own
QUERY_OPS_PER_SECOND = 4000   # generated per second of run time, ~10x what is answered


def environment() -> dict:
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append(" ".join((index / f).read_text().strip() for f in ("level", "type", "size")))
        except OSError:
            pass
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        **{name: getattr(sys.modules.get(name), "__version__", None) for name in ("numpy", "scipy")},
        "start_method": multiprocessing.get_start_method(),
    }


def _cpu_s() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def setup_samples(workload: str, count: int) -> list[float]:
    """Seconds of `count` cold set-ups, each in a fresh interpreter."""
    out = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, str(HERE / "prepare.py"), workload],
                              capture_output=True, text=True, timeout=120, cwd=prepare.ROOT)
        if proc.returncode != 0:
            raise prepare.SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def run_verify(ready, workload, seconds, trace, info):
    info["seed_used"] = False
    info["notes"].append("verify workloads are deterministic: --seed is ignored")
    par = PARALLELISM[workload]
    reference = verify.load_reference()
    failures = []
    if trace:
        plain = verify.verify_request(ready, par, reference)
        traced = verify.verify_request(ready, par, reference, trace=True)
        failures = [o.failures for o in (plain, traced) if o.failures]
        metrics = tracing.layer_metrics(traced.spans, traced.seconds - plain.seconds, traced.scans)
        info.update(untraced_verify_s=plain.seconds, traced_verify_s=traced.seconds,
                    spans=len(traced.spans),
                    scan_share_of_verify=metrics["phi.scan_s"] / traced.seconds)
        if par > 1:
            info["notes"].append(
                "pool-worker spans are not collected: only the spans of the process that "
                "calls run_full_pipeline are reported, so the phi scan metrics read 0 and a "
                "region's self time includes the time it waited for the pool; "
                "pipeline.scan_tasks counts the workers' scans too")
        return 2, failures, traced.spans, metrics

    outcomes = []
    cpu0 = _cpu_s()
    start = time.perf_counter()
    while True:
        outcome = verify.verify_request(ready, par, reference)
        outcomes.append(outcome)
        if outcome.failures:
            failures.append(outcome.failures)
        wall = time.perf_counter() - start
        if outcome.failures or wall + outcome.seconds > seconds:   # the next one would overrun
            break
    cpu = _cpu_s() - cpu0
    times = [o.seconds for o in outcomes]
    info.update(requests=len(times), verify_s=times)
    return len(times), failures, None, {
        "latency_p50_ms": 1e3 * tracing.percentile(times, 50),
        "latency_p99_ms": 1e3 * tracing.percentile(times, 99),
        "throughput_per_s": len(times) / wall,
        "cpu_ms_per_request": 1e3 * cpu / len(times),
        "peak_rss_mb": max(o.peak_rss_mb for o in outcomes),
    }


def _plain_queries(ready, ops, seconds):
    answers, _, wall = querymix.run_ops(querymix.bind(ready), ops, seconds)
    return len(answers), wall


def _traced_queries(ready, ops, limit):
    tracer = tracing.Tracer()
    tracer.install(ready.lib)
    answers, _, wall = querymix.run_ops(querymix.bind(ready, tracer.wrap), ops,
                                        float("inf"), limit)
    tracer.uninstall()
    return answers, wall, tracer.spans


def run_querymix(ready, seed, seconds, trace, info, setup_spans):
    ops = querymix.generate(seed, max(int(seconds * QUERY_OPS_PER_SECOND), querymix.BLOCK))
    info.update(seed_used=True, generated=len(ops),
                stated_repeat_share=querymix.STATED_REPEAT_SHARE)
    if trace:
        # untraced and traced passes over the same queries, each from the
        # post-set-up state, so neither can reuse the other's work
        n, plain_wall = run_forked(lambda: _plain_queries(ready, ops, seconds / 2), 170)
        answers, traced_wall, spans = run_forked(lambda: _traced_queries(ready, ops, n), 170)
        spans = _concat(setup_spans, spans)
        info.update(untraced_s=plain_wall, traced_s=traced_wall, spans=len(spans))
        metrics = tracing.layer_metrics(spans, traced_wall - plain_wall)
    else:
        calls = querymix.bind(ready)
        cpu0 = _cpu_s()
        answers, latencies, wall = querymix.run_ops(calls, ops, seconds)
        cpu = _cpu_s() - cpu0
        spans = None
        metrics = {
            "latency_p50_ms": 1e3 * tracing.percentile(latencies, 50),
            "latency_p99_ms": 1e3 * tracing.percentile(latencies, 99),
            "throughput_per_s": len(answers) / wall,
            "cpu_ms_per_request": 1e3 * cpu / len(answers),
            # the queries run in this process; ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info["samples_beyond_p99"] = sum(1 for t in latencies if 1e3 * t > metrics["latency_p99_ms"])
    done = ops[:len(answers)]
    kinds = {}
    for kind, _, _ in done:
        kinds[kind] = kinds.get(kind, 0) + 1
    seen, repeats = set(), 0
    for kind, args, _ in done:
        repeats += (kind, args) in seen
        seen.add((kind, args))
    info.update(queries=len(done), exhausted=len(done) == len(ops),
                kind_shares={k: v / len(done) for k, v in sorted(kinds.items())},
                measured_repeat_share=repeats / len(done))
    bad, checked = querymix.check(ready, ops, answers)
    info["checked"] = checked
    failures = [f"op {i}: {why}" for i, why in sorted(bad.items())]
    return len(answers), failures, spans, metrics


def _concat(a, b):
    base = len(a)
    return a + [[n, s, e, None if p is None else p + base, w, err] for n, s, e, p, w, err in b]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=prepare.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup_tracer = tracing.Tracer() if args.trace else None
    t0 = time.perf_counter()
    try:
        ready = prepare.setup(args.workload,
                              setup_tracer.install if setup_tracer else None)
    except (prepare.SetupError, ImportError) as exc:
        print(f"perfbench: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - t0
    if setup_tracer:
        setup_tracer.uninstall()

    env = environment()
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "notes": []}
    par = PARALLELISM.get(args.workload, 1)
    if par > env["nproc"]:
        print(f"perfbench: parallelism {par} exceeds nproc {env['nproc']}; refused",
              file=sys.stderr)
        return 2
    if args.workload == "query-mix":
        attempted, failures, spans, metrics = run_querymix(
            ready, args.seed, args.seconds, args.trace, info,
            setup_tracer.spans if setup_tracer else [])
    else:
        attempted, failures, spans, metrics = run_verify(
            ready, args.workload, args.seconds, args.trace, info)

    if not args.trace:
        samples = [setup_s] + setup_samples(args.workload, SETUP_PROBES)
        info["setup_samples_s"] = samples
        metrics = {"setup_s": statistics.median(samples), **metrics}
    units = _units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump({"env": env, "info": info, "failures": failures[:50], "result": result,
                   "spans": spans}, fh)

    print(json.dumps({"env": env}))
    print(json.dumps({"info": info}))
    for f in failures[:20]:
        print(f"FAILED: {f}")
    for name, value in metrics.items():
        print(f"{name:<30} {value:>16.6g} {units[name]}")
    print(json.dumps(result))
    return 0 if not failures else 1


def _units(section: str) -> dict:
    with open(prepare.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


if __name__ == "__main__":
    sys.exit(main())
