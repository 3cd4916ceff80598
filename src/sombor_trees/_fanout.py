"""A map over forked worker processes, the fan-out behind ``verify --jobs``.

Only a run that fans out imports this module, so no other start compiles it:
under ``PYTHONDONTWRITEBYTECODE`` every start compiles what it imports.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from collections.abc import Callable

from .errors import WorkerError


def fan_out(fn: Callable[[int], object], shares: list[list[int]]) -> list:
    """fn over every item of each share in a forked child; the results in share
    order.  A child pickles its results down its own pipe and leaves only through
    os._exit, so it never flushes the parent's buffers.  A failed or dead child
    raises WorkerError once every child still running is killed and reaped."""
    running, pipes, results = [], [], []
    try:
        for share in shares:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as sink:  # the parent's end closes before the next fork
                if (pid := os.fork()) == 0:
                    code = 1
                    try:
                        pickle.dump([fn(x) for x in share], sink)
                        sink.flush()
                        code = 0
                    except Exception:
                        sys.excepthook(*sys.exc_info())  # the traceback, to stderr
                    finally:  # never unwinds into the parent's code, not even on exit
                        os._exit(code)
            running.append(pid)
        for pid, pipe, share in zip(list(running), pipes, shares):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.remove(pid)
            if code or not data:  # an error, never a violation
                raise WorkerError(f"worker process failed: share {share}, exit code {code}")
            results += pickle.loads(data)
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
