"""Run one request in a forked copy of the set-up process.

Each request starts from the same post-set-up state and cannot reuse
anything an earlier request left in memory, so repeating a deterministic
request in one run measures the same work every time.  The child leads its
own process group; on timeout the whole group, pool workers included, is
killed and reaped.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
import time
import traceback


class RequestError(RuntimeError):
    """The forked request raised, crashed or timed out."""


def run_forked(fn, timeout: float):
    """Return ``fn()`` computed in a forked child; `fn`'s result must pickle."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(rfd)
        os.setpgid(0, 0)
        try:
            payload = pickle.dumps(("ok", fn()))
        except BaseException:
            payload = pickle.dumps(("error", traceback.format_exc()))
        try:
            with os.fdopen(wfd, "wb") as fh:
                fh.write(payload)
        finally:
            os._exit(0)

    os.close(wfd)
    try:
        os.setpgid(pid, pid)  # also set here, so a kill cannot race the child
    except OSError:
        pass
    chunks = []
    deadline = time.monotonic() + timeout
    try:
        with os.fdopen(rfd, "rb") as fh:
            while True:
                left = deadline - time.monotonic()
                if left <= 0 or not select.select([fh], [], [], left)[0]:
                    raise RequestError(f"request exceeded {timeout:.0f} s")
                chunk = os.read(fh.fileno(), 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    except BaseException:
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(pid, 0)
        raise
    _, status = os.waitpid(pid, 0)
    if not chunks:
        raise RequestError(f"request process ended with status {status} and no result")
    kind, value = pickle.loads(b"".join(chunks))
    if kind != "ok":
        raise RequestError(value)
    return value
