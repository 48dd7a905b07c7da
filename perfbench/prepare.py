"""Library set-up for one workload, and a probe that times a cold set-up.

Set-up runs from before ``import roughbound`` until the first timed operation
can start: the import (numpy and scipy included) on every workload, plus the
shared prime table and the omega table on query-mix.  The verify workloads
build nothing here: `run_full_pipeline` builds its own prime table, so that
build is part of each verification.

Run as a script (``python3 perfbench/prepare.py <workload>``), it sets up
once in a fresh interpreter and prints the seconds taken; run.py takes the
median over several such cold set-ups.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-serial", "verify-parallel", "query-mix")
# One table serves every query: phi_direct's exhaustive cap is 3e7, and
# phi_two_prime needs pi(x) up to the largest generated x.
QUERY_TABLE_LIMIT = 30_000_000


class SetupError(RuntimeError):
    """The library cannot be loaded from this checkout."""


@dataclass
class Ready:
    lib: object
    table: object = None
    omega: object = None


def import_library():
    """Import roughbound from this checkout's ``src`` and nowhere else."""
    if not (SRC / "roughbound" / "__init__.py").is_file():
        raise SetupError(f"no roughbound package under {SRC}")
    sys.path.insert(0, str(SRC))
    import roughbound

    if Path(roughbound.__file__).resolve().parent.parent != SRC.resolve():
        raise SetupError(f"roughbound imported from {roughbound.__file__}, not {SRC}")
    return roughbound


def setup(workload: str, before_build=None) -> Ready:
    """Import the library and build what `workload` needs.

    `before_build(lib)` runs between the import and the builds, so a tracer
    can see the builds.
    """
    if workload not in WORKLOADS:
        raise SetupError(f"unknown workload {workload!r}")
    lib = import_library()
    if before_build is not None:
        before_build(lib)
    if workload != "query-mix":
        return Ready(lib)
    return Ready(lib, lib.build_prime_table(QUERY_TABLE_LIMIT), lib.build_omega())


if __name__ == "__main__":
    t0 = time.perf_counter()
    setup(sys.argv[1])
    print(repr(time.perf_counter() - t0))
