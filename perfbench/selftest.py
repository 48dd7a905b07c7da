#!/usr/bin/env python3
"""Self-test of the benchmark harness (about three minutes on two cores).

    python3 perfbench/selftest.py

1. A minimal run of each workload (one verification; one second of queries)
   and a traced query-mix run print a last line with exactly the keys and
   metric names BENCHMARK.json asks for, and exit 0.
2. The verify gate reports a corrupted witness, violation count, margin,
   verdict, scan extent and rough count, and a full run whose mid-y scans
   stop just past their witnesses, which leaves every witness, violation
   count and margin of the report as it was, exits 1 on the scan extents.
3. The query-mix checks flag a corrupted answer of every operation kind, a
   refused query and a repeat that changed its answer, and a full run with a
   wrong phi_direct exits 1.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import subprocess
import sys
from pathlib import Path

import prepare
import querymix
import run
import verify
from spans import rebind

BENCH = json.loads((prepare.ROOT / "BENCHMARK.json").read_text())
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_schema(workload: str, trace: int) -> None:
    proc = subprocess.run([sys.executable, str(Path(run.__file__)), "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300, cwd=prepare.ROOT)
    what = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{what}: exit 0 (got {proc.returncode}) {proc.stderr[-300:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        expect(False, f"{what}: last line is JSON")
        return
    section = BENCH["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    expect(result["correct"] is True and result["failed"] == 0, f"{what}: correct")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{what}: attempted")
    metrics = result["metrics"]
    expect(set(metrics) == set(units), f"{what}: metric names match BENCHMARK.json")
    expect(all(isinstance(m["value"], (int, float)) and m["unit"] == units[name]
               for name, m in metrics.items()), f"{what}: values are numbers with their units")
    if not trace:
        expect(all(m["value"] > 0 for m in metrics.values()), f"{what}: end-to-end values > 0")


def run_in_process(argv, patch) -> tuple[int, dict, str]:
    """run.main(argv) with `patch(lib)` applied to the imported library;
    returns the exit code, the result line and the whole standard output."""
    lib = prepare.import_library()
    undo = patch(lib)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(argv)
    finally:
        undo()
    return code, json.loads(out.getvalue().strip().splitlines()[-1]), out.getvalue()


def verify_gate() -> None:
    ref = verify.load_reference()
    expect(verify.mismatches(copy.deepcopy(ref), ref) == [], "verify gate: reference matches itself")
    corruptions = {
        "witness n": lambda r: r["scan_rows"]["small-u"][5].__setitem__(3, r["scan_rows"]["small-u"][5][3] + 1),
        "witness j": lambda r: r["scan_rows"]["mid-y"][0].__setitem__(4, r["scan_rows"]["mid-y"][0][4] - 1),
        "row extent": lambda r: r["scan_rows"]["mid-y"][0].__setitem__(2, r["scan_rows"]["mid-y"][0][2] - 1),
        "violations": lambda r: r["table1"][0].__setitem__("violations", 2),
        "margin": lambda r: r["margins"].__setitem__("selberg-finite", r["margins"]["selberg-finite"] * (1 + 1e-6)),
        "verdict": lambda r: r.__setitem__("verdict", False),
        "missing row": lambda r: r["scan_rows"]["small-u"].pop(),
        "scan extent": lambda r: r["scans"][40].__setitem__(2, r["scans"][40][2] - 1),
        "rough count": lambda r: r["scans"][40].__setitem__(3, r["scans"][40][3] - 1),
        "missing scan": lambda r: r["scans"].pop(),
    }
    for name, corrupt in corruptions.items():
        bad = copy.deepcopy(ref)
        corrupt(bad)
        expect(len(verify.mismatches(bad, ref)) >= 1, f"verify gate fires on a corrupted {name}")

    # each mid-y scan stops 1000 past its witness instead of at its x-bound
    witness = {row[0]: row[3] for row in ref["scan_rows"]["mid-y"]}

    def truncate_mid_y(lib):
        original = sys.modules[f"{lib.__name__}.phi"].scan_rough_interval

        def short(table, y_lo, y_hi, x_cap, **kw):
            if y_lo in witness:
                x_cap = min(x_cap, witness[y_lo] + 1000)
            return original(table, y_lo, y_hi, x_cap, **kw)

        undo = rebind(lib, original, short)
        return lambda: [setattr(m, name, fn) for m, name, fn in undo]

    code, result, out = run_in_process(["--workload", "verify-parallel", "--seconds", "1"],
                                       truncate_mid_y)
    expect(code == 1 and result["correct"] is False and result["failed"] == 1,
           "verify run with mid-y scans cut past their witnesses exits 1")
    expect("report.scans[" in out and "report.scan_rows" not in out and "margins" not in out,
           "... and fails on the scan extents alone")


def querymix_gate() -> None:
    ready = prepare.setup("query-mix")
    ops = querymix.generate(3, 2 * querymix.BLOCK)
    calls = querymix.bind(ready)
    answers, _, _ = querymix.run_ops(calls, ops, float("inf"))
    bad, _ = querymix.check(ready, ops, answers)
    expect(not bad, f"query checks pass on true answers {list(bad.values())[:3]}")

    def corrupt(answer):
        if isinstance(answer, tuple):
            return (answer[0], answer[1], answer[2] + 1)
        if isinstance(answer, int):
            return answer + 1
        return answer * 1.01 + 1e-3

    firsts = {}
    for i, (kind, _, src) in enumerate(ops):
        if src < 0:
            firsts.setdefault(kind, i)
    for kind, i in sorted(firsts.items()):
        wrong = list(answers)
        wrong[i] = corrupt(wrong[i])
        bad, _ = querymix.check(ready, ops, wrong)
        expect(i in bad, f"query check fires on a corrupted {kind} answer")
    refused = list(answers)
    refused[0] = querymix.Failed("ResourceError: refused")
    expect(0 in querymix.check(ready, ops, refused)[0], "query check counts a refused query")
    rep = next(i for i, (_, _, src) in enumerate(ops) if src >= 0)
    changed = list(answers)
    changed[rep] = corrupt(changed[rep])
    expect(rep in querymix.check(ready, ops, changed)[0], "query check fires on a changed repeat")

    def wrong_phi(lib):
        original = lib.phi_direct
        lib.phi_direct = lambda *a, **k: original(*a, **k) + 1
        return lambda: setattr(lib, "phi_direct", original)

    code, result, _ = run_in_process(["--workload", "query-mix", "--seconds", "1"], wrong_phi)
    expect(code == 1 and result["correct"] is False and result["failed"] >= 1,
           "query-mix run with a wrong phi_direct exits 1 and reports the failures")


def main() -> int:
    for workload in prepare.WORKLOADS:
        check_schema(workload, 0)
    check_schema("query-mix", 1)
    verify_gate()
    querymix_gate()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
