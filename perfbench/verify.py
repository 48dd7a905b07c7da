"""The verify workloads: `run_full_pipeline(PipelineConfig())` end to end.

Every request runs one full pipeline in a forked copy of the set-up process
(see forked.py).  The correctness gate compares each report with values
recorded from the unmodified pipeline in ``reference/verify_default.json``:
the verdict, every region's verdict and margin, table1, each scan row's
extent (x-bound or x cap), witness ``(n, j)`` and violation count, and the
extent of every scan the pipeline made.  A wrapper on
``phi.scan_rough_interval``, installed in the request process and inherited
by pool workers, appends ``(y_lo, y_hi, x_cap, rough_count)`` of each scan to
a file that the request reads when the pipeline returns, so a scan that is
skipped, or stops before its x cap even past its witness, fails the gate.
Integers and booleans must match exactly, floats to a relative 1e-9 (far
below every margin).

    python3 perfbench/verify.py --record    # rewrite the reference

records the reference from the library in the checkout, at parallelism 1 and
2, and refuses to write it unless the two agree.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import prepare
from forked import RequestError, run_forked
from spans import Tracer, rebind

REFERENCE = Path(__file__).resolve().parent / "reference" / "verify_default.json"
SCAN_LOG_DIR = prepare.ROOT / ".perfbench_out"
REQUEST_TIMEOUT_S = 170.0
FLOAT_RTOL = 1e-9


@dataclass
class Outcome:
    seconds: float
    peak_rss_mb: float = math.nan
    failures: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    scans: int = 0


def extract(report: dict, scans: list) -> dict:
    """The parts of a report the gate compares, and the sorted scan extents."""
    certs = {c["region"]: c for c in report["certificates"]}
    return {
        "verdict": report["verdict"],
        "verified": {r: c["verified"] for r, c in certs.items()},
        "margins": {r: c["margin"] for r, c in certs.items()},
        "table1": report["table1"],
        "scan_rows": {
            r: [[row["y_lo"], row["y_hi"], row.get("x_cap", row.get("x_bound")),
                 row["witness_n"], row["witness_j"], row["violations"]]
                for row in c["rows"] if "witness_n" in row]
            for r, c in certs.items()
        },
        "scans": sorted(scans),
    }


def mismatches(found, expected, path="report") -> list[str]:
    """Every place where `found` differs from `expected`, as readable paths."""
    if isinstance(expected, dict):
        if not isinstance(found, dict) or set(found) != set(expected):
            return [f"{path}: keys {sorted(found) if isinstance(found, dict) else found!r} "
                    f"!= {sorted(expected)}"]
        return [m for k in expected for m in mismatches(found[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(found, list) or len(found) != len(expected):
            return [f"{path}: {found!r} != {expected!r}"]
        return [m for i, (f, e) in enumerate(zip(found, expected))
                for m in mismatches(f, e, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(found, (int, float)) \
            and not isinstance(found, bool):
        if math.isclose(found, expected, rel_tol=FLOAT_RTOL, abs_tol=1e-15):
            return []
    elif type(found) is type(expected) and found == expected:
        return []
    return [f"{path}: {found!r} != {expected!r}"]


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def _record_scans(lib, log: Path) -> None:
    """Append [y_lo, y_hi, x_cap, rough_count] of every scan to `log`, from
    whichever process makes it."""
    original = sys.modules[f"{lib.__name__}.phi"].scan_rough_interval

    def recorded(*args, **kwargs):
        scan = original(*args, **kwargs)
        with open(log, "a") as fh:
            fh.write(json.dumps([scan.y_lo, scan.y_hi, scan.x_cap, scan.rough_count]) + "\n")
        return scan

    rebind(lib, original, recorded)


def _request(ready, parallelism: int, trace: bool):
    """Body of one forked request: run the pipeline, optionally traced.

    Returns (seconds, peak RSS in MB of this process plus its largest pool
    worker, report, scan extents, spans)."""
    lib = ready.lib
    SCAN_LOG_DIR.mkdir(exist_ok=True)
    log = SCAN_LOG_DIR / f"scans-{os.getpid()}.jsonl"
    log.unlink(missing_ok=True)
    _record_scans(lib, log)        # before the tracer, so the tracer wraps it
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(lib)
    try:
        config = lib.PipelineConfig(parallelism=parallelism)
        t0 = time.perf_counter()
        report = lib.run_full_pipeline(config)
        elapsed = time.perf_counter() - t0
        # the pool has been shut down, so its workers are reaped children;
        # ru_maxrss is in KiB on Linux
        rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        scans = [json.loads(line) for line in log.read_text().splitlines()] \
            if log.exists() else []
    finally:
        log.unlink(missing_ok=True)
    return elapsed, rss_kib / 1024.0, json.loads(report.to_json()), scans, \
        tracer.spans if tracer else []


def verify_request(ready, parallelism: int, reference: dict, trace: bool = False) -> Outcome:
    """Run one verification and compare it with `reference`."""
    try:
        elapsed, rss, report, scans, spans = run_forked(
            lambda: _request(ready, parallelism, trace), REQUEST_TIMEOUT_S)
    except RequestError as exc:
        return Outcome(math.nan, failures=[f"request failed: {exc}"])
    return Outcome(elapsed, rss, mismatches(extract(report, scans), reference), spans, len(scans))


def record() -> int:
    """Write the reference from the library in this checkout."""
    ready = prepare.setup("verify-serial")
    found = []
    for parallelism in (1, 2):
        _, _, report, scans, _ = run_forked(lambda: _request(ready, parallelism, False),
                                            REQUEST_TIMEOUT_S)
        found.append(extract(report, scans))
    if mismatches(found[1], found[0]):
        print("parallelism 1 and 2 disagree:", *mismatches(found[1], found[0])[:10], sep="\n")
        return 1
    REFERENCE.write_text(json.dumps(found[0], indent=1) + "\n")
    print(f"wrote {REFERENCE} ({len(found[0]['scans'])} scans)")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    sys.exit(record())
