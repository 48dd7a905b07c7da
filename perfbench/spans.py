"""Span tracing of the library's public functions, from outside the library.

`Tracer.install` rebinds each traced function to a wrapper in every loaded
``roughbound`` module that holds it, including names one module imported
from another (``roughbound.pipeline.scan_rough_interval``) and the package
namespace.  A wrapper records one span per call: name, start, end, parent
and an optional work count.  Spans stay in memory until the run ends.

Pool workers forked after `install` inherit the wrappers, but the spans they
record stay in the workers and are not collected: with a process pool only
the spans seen from the calling process are reported.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time


def _scan_ints(args, kwargs, result):
    # scan_rough_interval(table, y_lo, y_hi, x_cap, ...) streams 1..x_cap
    return int(kwargs["x_cap"] if "x_cap" in kwargs else args[3])


def _row_count(args, kwargs, result):
    return len(result)


# (layer, module, function, work count taken from the call or None)
TARGETS = (
    ("primes", "primes", "build_prime_table", None),
    ("phi", "phi", "scan_rough_interval", _scan_ints),
    ("phi", "phi", "phi_direct", None),
    ("phi", "phi", "phi_legendre", None),
    ("phi", "phi", "phi_two_prime", None),
    ("phi", "phi", "max_statistic", None),
    ("sieve_bounds", "sieve_bounds", "elementary_x_bound", None),
    ("sieve_bounds", "sieve_bounds", "bonferroni_x_bound", None),
    ("sieve_bounds", "sieve_bounds", "selberg_sweep", _row_count),
    ("sieve_bounds", "sieve_bounds", "optimize_epsilon", None),
    ("sieve_bounds", "sieve_bounds", "make_sieve_config", None),
    ("sieve_bounds", "sieve_bounds", "selberg_upper", None),
    ("sieve_bounds", "sieve_bounds", "closed_form_factor", None),
    ("sieve_bounds", "sieve_bounds", "final_large_y_bound", None),
    ("gss", "gss", "golden_section_min", None),
    ("gss", "gss", "golden_section_max", None),
    ("buchstab", "buchstab", "build_omega", None),
    ("buchstab", "buchstab", "mu_y", None),
    ("pipeline", "pipeline", "run_full_pipeline", None),
    ("pipeline", "pipeline", "verify_small_y", None),
    ("pipeline", "pipeline", "verify_mid_y", None),
    ("pipeline", "pipeline", "verify_selberg", None),
    ("pipeline", "pipeline", "verify_small_u", None),
    ("pipeline", "pipeline", "small_u_grid_max", None),
    ("pipeline", "pipeline", "verify_iteration", None),
)
LAYERS = ("primes", "phi", "sieve_bounds", "gss", "buchstab", "pipeline")


def rebind(package, original, replacement) -> list[tuple[object, str, object]]:
    """Point every name that holds `original` in a loaded module of `package`
    at `replacement`; returns (module, name, original) for each name rebound."""
    prefix = package.__name__ + "."
    done = []
    for n, m in list(sys.modules.items()):
        if m is None or not (n == package.__name__ or n.startswith(prefix)):
            continue
        for name, value in list(vars(m).items()):
            if value is original:
                setattr(m, name, replacement)
                done.append((m, name, original))
    return done


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, work, error]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, work=None):
        """Return `fn` wrapped so that each call records a span named `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, None, None]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[2] = time.perf_counter()
                if work is not None:
                    span[4] = work(args, kwargs, result)
                return result
            except BaseException as exc:
                span[2] = time.perf_counter()
                span[5] = type(exc).__name__
                raise
            finally:
                self._stack.pop()

        return traced

    # -- installation ----------------------------------------------------

    def install(self, package) -> None:
        """Rebind every target in every loaded module of `package`."""
        for layer, module, attr, work in TARGETS:
            home = sys.modules.get(f"{package.__name__}.{module}")
            original = getattr(home, attr, None)
            if original is None:      # renamed or removed: its metrics read 0
                continue
            wrapper = self.wrap(f"{layer}.{attr}", original, work)
            self._rebound += rebind(package, original, wrapper)

    def uninstall(self) -> None:
        for m, name, original in reversed(self._rebound):
            setattr(m, name, original)
        self._rebound = []


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def percentile(values, q):
    """q-th percentile (1..99) as statistics.quantiles gives it; 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    if q == 50:
        return float(statistics.median(values))
    return float(statistics.quantiles(values, n=100)[q - 1])


def self_times(spans) -> dict[str, float]:
    """Seconds each layer spent in its own code: span duration minus the time
    its child spans cover, summed by the layer prefix of the span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child[parent] += end - start
    out = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, *_rest) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += max(0.0, (end - start) - child[i])
    return out


def layer_metrics(spans, overhead_s: float, scan_tasks: int = 0) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one run's spans and
    the number of scans the pipeline made (counted by the verify gate, which
    also sees the scans of pool workers)."""
    dur: dict[str, list[float]] = {}
    work: dict[str, int] = {}
    errors: dict[str, int] = {}
    for name, start, end, parent, w, error in spans:
        dur.setdefault(name, []).append(end - start)
        if w is not None:
            work[name] = work.get(name, 0) + w
        if error is not None:
            errors[f"{name}:{error}"] = errors.get(f"{name}:{error}", 0) + 1

    def d(name):
        return dur.get(name, [])

    def ms(name):
        return [1e3 * t for t in d(name)]

    scans = d("phi.scan_rough_interval")
    scan_s = sum(scans)
    scan_ints = work.get("phi.scan_rough_interval", 0)
    x_bounds = ms("sieve_bounds.elementary_x_bound") + ms("sieve_bounds.bonferroni_x_bound")
    selfs = self_times(spans)

    m = {
        "primes.build_s": sum(d("primes.build_prime_table")),
        "primes.build_calls": len(d("primes.build_prime_table")),
        "phi.scan_s": scan_s,
        "phi.scan_calls": len(scans),
        "phi.scan_ints": scan_ints,
        "phi.scan_mints_per_s": scan_ints / scan_s / 1e6 if scan_s else 0.0,
        "phi.scan_max_share": max(scans) / scan_s if scan_s else 0.0,
        "phi.direct_ms.p50": percentile(ms("phi.phi_direct"), 50),
        "phi.direct_ms.p99": percentile(ms("phi.phi_direct"), 99),
        "phi.legendre_ms.p50": percentile(ms("phi.phi_legendre"), 50),
        "phi.legendre_ms.p99": percentile(ms("phi.phi_legendre"), 99),
        "phi.two_prime_ms.p50": percentile(ms("phi.phi_two_prime"), 50),
        "phi.two_prime_ms.p99": percentile(ms("phi.phi_two_prime"), 99),
        "phi.legendre_refused": errors.get("phi.phi_legendre:ResourceError", 0),
        "sieve_bounds.sweep_s": sum(d("sieve_bounds.selberg_sweep")),
        "sieve_bounds.sweep_pairs": work.get("sieve_bounds.selberg_sweep", 0),
        "sieve_bounds.x_bound_ms": percentile(x_bounds, 50),
        "sieve_bounds.selberg_ms.p50": percentile(ms("query.selberg"), 50),
        "sieve_bounds.selberg_ms.p99": percentile(ms("query.selberg"), 99),
        "sieve_bounds.closed_form_ms": percentile(ms("sieve_bounds.final_large_y_bound"), 50),
        "buchstab.build_ms": 1e3 * sum(d("buchstab.build_omega")),
        "buchstab.omega_us.p50": 1e3 * percentile(ms("buchstab.omega"), 50),
        "buchstab.mu_y_ms.p50": percentile(ms("buchstab.mu_y"), 50),
        "buchstab.mu_y_ms.p99": percentile(ms("buchstab.mu_y"), 99),
        "pipeline.small_y_s": sum(d("pipeline.verify_small_y")),
        "pipeline.mid_y_s": sum(d("pipeline.verify_mid_y")),
        "pipeline.selberg_s": sum(d("pipeline.verify_selberg")),
        "pipeline.small_u_s": sum(d("pipeline.verify_small_u")),
        "pipeline.small_u_grid_s": sum(d("pipeline.small_u_grid_max")),
        "pipeline.iteration_s": sum(d("pipeline.verify_iteration")),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs[layer]
    m["pipeline.scan_tasks"] = scan_tasks
    m["trace.overhead_s"] = overhead_s
    return m
