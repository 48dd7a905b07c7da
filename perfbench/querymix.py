"""The query-mix workload: independent point queries against shared tables.

One client sends the next query when the previous one returns (a closed
loop).  `generate` builds the whole operation list from the seed before
timing starts; the library receives only the generated inputs.

The list is a sequence of blocks.  Each block holds the same number of fresh
queries of every kind the workload covers (FRESH_PER_KIND), with inputs
stratified over that kind's range, so that the cost of a block barely depends
on the seed, plus one repeat for every four fresh queries of a kind: a copy
of a query of the same kind from the previous block (from the same block,
placed after it, in the first block).  Stated repeat share: 0.2.  The repo
has no traffic data, so both the equal weighting of the kinds and the repeat
share are assumed, not measured: equal weights favour no operation, and the
repeats give a result cache something to show.  Small integer domains (the
x-bound kinds) also repeat by chance, so the measured share is reported next
to the stated one.

`check` runs after timing.  It cross-checks phi answers between methods
wherever more than one applies, tests each x-bound's defining inequality,
minimality and dominance over the exact count, recomputes the Selberg bound
from its definition and the closed-form coefficient from its factor, holds
both below .6, compares omega and mu_y with an independent integration of the
delay equation, compares max statistics with the reference table, and
requires every repeat to return exactly the earlier answer.
"""

from __future__ import annotations

import bisect
import math
import random
import time

TARGET = 0.6
EULER_GAMMA = 0.5772156649015329

KINDS = ("phi_direct", "phi_legendre", "phi_two_prime", "elementary_x_bound",
         "bonferroni_x_bound", "selberg", "final_large_y_bound", "omega", "mu_y",
         "max_statistic")
FRESH_PER_KIND = 8
REPEAT_ONE_IN = 4
STATED_REPEAT_SHARE = 1.0 / (REPEAT_ONE_IN + 1)
BLOCK = len(KINDS) * (FRESH_PER_KIND + FRESH_PER_KIND // REPEAT_ONE_IN)

# Reference rows (y_lo, y_hi, x_bound, bound_is_rounded, max statistic) of the
# small-y table; rows with x_bound <= 160000 are the short max_statistic scans.
TABLE1 = (
    (2, 3, 22, False, 0.61035), (3, 5, 51, False, 0.57940), (5, 7, 96, False, 0.55598),
    (7, 11, 370, False, 0.56634), (11, 13, 613, False, 0.55424),
    (13, 17, 1603, False, 0.56085), (17, 19, 2753, False, 0.54854),
    (19, 23, 6296, False, 0.55124), (23, 29, 17539, False, 0.55806),
    (29, 31, 30519, False, 0.55253), (31, 37, 76932, False, 0.55707),
    (37, 41, 160000, True, 0.55955), (41, 43, 290000, True, 0.55648),
    (43, 47, 590000, True, 0.55369), (47, 53, 1400000, True, 0.55972),
    (53, 59, 3000000, True, 0.55650), (59, 61, 5400000, True, 0.55743),
    (61, 67, 12000000, True, 0.55685), (67, 71, 24000000, True, 0.55641),
)
SHORT_ROWS = tuple(r for r in TABLE1 if r[2] <= 160_000)

CROSS_CHECKS_PER_KIND = 20
DOMINANCE_CHECKS = 6


def small_primes(n: int) -> list[int]:
    """Primes <= n by a plain bytearray sieve, independent of the library."""
    mask = bytearray([1]) * (n + 1)
    mask[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if mask[i]]


PRIMES = small_primes(500_100)


def next_prime(y: float) -> int:
    return PRIMES[bisect.bisect_right(PRIMES, y)]


def prev_prime(y: float) -> int:
    return PRIMES[bisect.bisect_right(PRIMES, y) - 1]


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def _loguni(lo: float, hi: float, t: float) -> float:
    return lo * (hi / lo) ** t


def _fresh(kind: str, t: float, rng: random.Random) -> tuple:
    """Inputs of one fresh query; `t` in [0, 1) picks its stratum position."""
    r = rng.random()
    if kind == "phi_direct":
        x = int(_loguni(1e3, 3e7, t))
        return x, max(2, int(_loguni(2, min(math.isqrt(x), 1000), r)))
    if kind == "phi_legendre":
        x = int(_loguni(1e3, 1e7, t))
        return x, max(2, int(_loguni(2, min(math.isqrt(x), 100), r)))
    if kind == "phi_two_prime":
        # on y^2 <= x < q^3 with q the first prime above y
        y = int(_loguni(2, 5000, t))
        q = next_prime(y)
        return int(_loguni(y * y, min(q ** 3 - 1, 30_000_000), r)), y
    if kind == "elementary_x_bound":
        return (2 + int(t * 69),)                      # 2 <= y <= 70
    if kind == "bonferroni_x_bound":
        return (71 + int(t * 170),)                    # 71 <= y <= 240
    if kind == "selberg":
        y = _loguni(241, 5e5, t)                       # u = log x / log y >= 7.5
        return y ** (7.5 + 4.5 * r), y
    if kind == "final_large_y_bound":
        return (_loguni(5e5, 1e15, t),)
    if kind == "omega":
        return (1.0 + 15.0 * t,)
    if kind == "mu_y":
        return 1.0 + 15.0 * t, _loguni(2, 1e9, r)
    if kind == "max_statistic":
        return SHORT_ROWS[int(t * len(SHORT_ROWS))][:3]
    raise ValueError(kind)


def generate(seed: int, count: int) -> list[tuple]:
    """At least `count` operations (kind, args, source) in whole blocks;
    `source` is the index of the operation a repeat copies, else -1."""
    rng = random.Random(seed)
    ops: list[tuple] = []
    prev: dict[str, list[int]] = {}   # kind -> fresh indices in the previous block
    while len(ops) < count:
        fresh = []
        n = FRESH_PER_KIND
        for kind in KINDS:
            strata = list(range(n))
            rng.shuffle(strata)
            fresh += [(kind, _fresh(kind, (s + rng.random()) / n, rng), -1) for s in strata]
        rng.shuffle(fresh)
        base = len(ops)
        sources = prev or {}
        if not prev:  # first block: repeats copy this block and follow it
            for i, (kind, _, _) in enumerate(fresh):
                sources.setdefault(kind, []).append(base + i)
        repeats = []
        for kind in KINDS:
            for _ in range(n // REPEAT_ONE_IN):
                src = rng.choice(sources[kind])
                args = fresh[src - base][1] if src >= base else ops[src][1]
                repeats.append((kind, args, src))
        if prev:
            block = list(fresh)
            for op in repeats:
                block.insert(rng.randint(0, len(block)), op)
        else:
            rng.shuffle(repeats)
            block = fresh + repeats
        ops += block
        prev = {}
        for i in range(base, len(ops)):
            if ops[i][2] < 0:
                prev.setdefault(ops[i][0], []).append(i)
    return ops


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def bind(ready, wrap=None) -> dict:
    """Map each kind to a call into the library.  Names are looked up on every
    call, so wrappers a tracer installed in the library are used.  `wrap(name,
    fn)` wraps each call site, for a traced run."""
    lib, table, om = ready.lib, ready.table, ready.omega

    def omega(u):
        return om.omega(u)

    if wrap is not None:
        omega = wrap("buchstab.omega", omega)

    def selberg(x, y):
        eps = lib.optimize_epsilon(x, y, table)
        return lib.selberg_upper(x, y, lib.make_sieve_config(x, y, table, eps), table)

    def max_statistic(y_lo, y_hi, x_bound):
        row = lib.max_statistic(y_lo, y_hi, x_bound, table)
        return row.max_stat, row.witness_n, row.witness_j

    calls = {
        "phi_direct": lambda x, y: lib.phi_direct(x, y, table),
        "phi_legendre": lambda x, y: lib.phi_legendre(x, y, table),
        "phi_two_prime": lambda x, y: lib.phi_two_prime(x, y, table),
        "elementary_x_bound": lambda y: lib.elementary_x_bound(y, TARGET, table),
        "bonferroni_x_bound": lambda y: lib.bonferroni_x_bound(y, TARGET, table),
        "selberg": selberg,
        "final_large_y_bound": lambda y: lib.final_large_y_bound(y),
        "omega": omega,
        "mu_y": lambda u, y: lib.mu_y(u, y, om),
        "max_statistic": max_statistic,
    }
    if wrap is not None:
        calls = {kind: wrap(f"query.{kind}", fn) for kind, fn in calls.items()}
    return calls


class Failed:
    """Stands in for the answer of a query that raised."""

    def __init__(self, error: str):
        self.error = error

    def __repr__(self):
        return f"Failed({self.error})"


def run_ops(calls: dict, ops: list, seconds: float, limit: int | None = None):
    """Answer ops in order until `seconds` pass or `limit` ops are done.

    Returns (answers, per-query latencies in seconds, wall seconds)."""
    answers, latencies = [], []
    n = len(ops) if limit is None else min(limit, len(ops))
    perf = time.perf_counter
    start = perf()
    stop = start + seconds
    for kind, args, _ in ops[:n]:
        t0 = perf()
        try:
            answer = calls[kind](*args)
        except Exception as exc:  # a refused or failed query is counted, not fatal
            answer = Failed(f"{type(exc).__name__}: {exc}")
        t1 = perf()
        answers.append(answer)
        latencies.append(t1 - t0)
        if t1 >= stop:
            break
    return answers, latencies, perf() - start


# ---------------------------------------------------------------------------
# correctness checks (after timing)
# ---------------------------------------------------------------------------

class _Omega:
    """omega(u) on [1, 16] by trapezoidal integration of (u w)' = w(u - 1),
    independent of the library's spline construction (error ~1e-8)."""

    N = 2000  # grid points per unit, so the integers are grid points

    def __init__(self, u_max: int = 16):
        n, h = self.N, 1.0 / self.N
        w = [1.0 / (1.0 + i * h) for i in range(n + 1)]
        for i in range(n + 1, (u_max - 1) * n + 1):
            u = 1.0 + i * h
            w.append(((u - h) * w[i - 1] + 0.5 * h * (w[i - 1 - n] + w[i - n])) / u)
        self.w = w

    def __call__(self, u: float) -> float:
        pos = (u - 1.0) * self.N
        i = min(int(pos), len(self.w) - 2)
        f = pos - i
        return self.w[i] * (1.0 - f) + self.w[i + 1] * f

    def mu_y(self, u: float, y: float) -> float:
        """Trapezoidal integral of omega(t) y^-(u - t) over t in [1, u]."""
        if u <= 1.0:
            return 0.0
        m = max(2, math.ceil((u - 1.0) * self.N))
        h = (u - 1.0) / m
        log_y = math.log(y)
        total = 0.0
        for k in range(m + 1):
            t = 1.0 + k * h
            v = self(t) * math.exp(-(u - t) * log_y)
            total += 0.5 * v if k in (0, m) else v
        return total * h


def _selberg_reference(x: float, y: float) -> float:
    """The explicit Selberg bound recomputed from its definition: mod-30
    pre-sieve, sieving primes in (5, y], D = .03 x / (log y)^3, and epsilon
    minimizing the Rankin factor by scipy's bounded search."""
    import numpy as np
    from scipy.optimize import minimize_scalar

    ps = np.array(PRIMES[3:bisect.bisect_right(PRIMES, y)], dtype=np.float64)
    log_y = math.log(y)
    d = 0.03 * x / log_y ** 3

    def log_f(eps):
        return float(np.sum(np.log1p((ps ** (2.0 * eps) - 1.0) / ps))) - eps * math.log(d)

    eps = minimize_scalar(log_f, bounds=(1e-3, 0.5), method="bounded",
                          options={"xatol": 1e-10}).x
    v = math.exp(float(np.sum(np.log1p(-1.0 / ps))))
    return 4.0 / 15.0 * x * v / (1.0 - math.exp(log_f(eps))) \
        + 14.0 / 15.0 * d * log_y ** 2 * 3.0 / 14.0


def _ceil_two_sig(n: int) -> int:
    unit = 10 ** (int(math.floor(math.log10(n))) - 1)
    return int(math.ceil(n / unit)) * unit


def check(ready, ops: list, answers: list) -> tuple[dict, dict]:
    """Check the answers of the first len(answers) ops.

    Returns ({op index: reason} for every failed op, {check name: count})."""
    lib, table = ready.lib, ready.table
    bad: dict[int, str] = {}
    done: dict[str, int] = {}
    ref_omega = _Omega()

    def take(name, limit=None):
        """Count one check of `name` if `limit` allows another."""
        if limit is not None and done.get(name, 0) >= limit:
            return False
        done[name] = done.get(name, 0) + 1
        return True

    def fail(i, why):
        bad.setdefault(i, f"{ops[i][0]}{ops[i][1]}: {why}")

    for i, answer in enumerate(answers):
        kind, args, src = ops[i]
        if isinstance(answer, Failed):
            fail(i, answer.error)
            continue
        if src >= 0:
            take("repeat")
            if not (answer == answers[src] and type(answer) is type(answers[src])):
                fail(i, f"repeat answered {answer!r}, earlier {answers[src]!r}")
            continue

        if kind == "phi_direct":
            x, y = args
            if y * y <= x < next_prime(y) ** 3:
                method = lib.phi_two_prime
            elif y <= 100 and x <= 10_000_000:
                method = lib.phi_legendre
            else:
                continue                   # only the sieve applies here
            if take(kind, CROSS_CHECKS_PER_KIND) and method(x, y, table) != answer:
                fail(i, f"{answer} != {method.__name__} {method(x, y, table)}")
        elif kind in ("phi_legendre", "phi_two_prime") and take(kind, CROSS_CHECKS_PER_KIND):
            other = lib.phi_direct(*args, table)
            if other != answer:
                fail(i, f"{answer} != phi_direct {other}")
        elif kind == "elementary_x_bound":
            take(kind)
            (y,) = args
            p, q = prev_prime(y), next_prime(y)

            def beats(x):
                return lib.elementary_bound(x, y, table) < TARGET * x / math.log(q)

            row = next(r for r in TABLE1 if r[0] == p)
            printed = _ceil_two_sig(answer) if row[3] else answer
            if printed != row[2] or not beats(answer) or (answer > 1 and beats(answer - 1)):
                fail(i, f"x-bound {answer} is not the least x beating the target "
                        f"(reference {row[2]})")
            elif take("dominance", DOMINANCE_CHECKS) and \
                    lib.phi_direct(answer, y, table) > lib.elementary_bound(answer, y, table):
                fail(i, "elementary bound below the exact count")
        elif kind == "bonferroni_x_bound":
            take(kind)
            (y,) = args
            q = next_prime(y)
            _, data = lib.bonferroni_bound(1.0, y, table)

            def beats(x):
                return data.s_y * x + 14.0 / 15.0 * data.b_y < TARGET * x / math.log(q)

            if not (answer < 30_000_000 and beats(answer) and not beats(answer - 1)):
                fail(i, f"x-bound {answer} is not the least x below 3e7 beating the target")
            elif take("dominance", DOMINANCE_CHECKS) and \
                    lib.phi_direct(answer, y, table) > data.s_y * answer + data.b_y:
                fail(i, "truncation bound below the exact count")
        elif kind == "selberg" and take(kind, CROSS_CHECKS_PER_KIND):
            other = _selberg_reference(*args)
            if not (math.isclose(answer, other, rel_tol=1e-9)
                    and answer * math.log(args[1]) / args[0] < TARGET):
                fail(i, f"bound {answer!r} != {other!r} recomputed, or not below .6 x / log y")
        elif kind == "final_large_y_bound":
            take(kind)
            (y,) = args
            other = (1 + 2.1e-5) * math.exp(-EULER_GAMMA) * lib.closed_form_factor(y) + 0.006
            if not (math.isclose(answer, other, rel_tol=1e-12) and answer < TARGET):
                fail(i, f"coefficient {answer!r} != {other!r} from closed_form_factor, "
                        "or not below .6")
        elif kind == "omega":
            take(kind)
            if abs(answer - ref_omega(args[0])) > 1e-6:
                fail(i, f"{answer} != {ref_omega(args[0])} by direct integration")
        elif kind == "mu_y" and take(kind, CROSS_CHECKS_PER_KIND):
            other = ref_omega.mu_y(*args)
            if abs(answer - other) > 1e-4 * other + 1e-12:
                fail(i, f"{answer} != {other} by direct integration")
        elif kind == "max_statistic":
            take(kind)
            y_lo, y_hi, x_bound = args
            stat, n, j = answer
            printed = next(r[4] for r in TABLE1 if r[0] == y_lo)
            if abs(stat - printed) > 1e-5 or not math.isclose(stat, j * math.log(y_hi) / n,
                                                              rel_tol=1e-12) \
                    or lib.phi_legendre(n, y_lo, table) != j:
                fail(i, f"max statistic {answer} disagrees with reference {printed}")
    return bad, done
