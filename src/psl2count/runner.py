"""One ordered runner over forked worker processes, for the search's block
shares, the Heath-Brown scan's segments and the Euler product's windows.
A fork costs a few ms where a spawned worker imports the package again,
and fn needs no pickling, so it may be a closure.
"""

from __future__ import annotations

import os
import pickle
import time


def default_jobs() -> int:
    return os.cpu_count() or 1


def run(fn, calls: list[tuple], jobs: int = 1) -> list:
    """[fn(*args) for args in calls], in call order, on w = min(jobs, default_jobs(), len(calls)) processes.

    Worker k runs calls[k::w]: worker 0 is this process, and each other a
    child forked for its share, w - 1 forks in all and none where os.fork
    is missing.  A child sends back its share's pickled (True, results), or
    (False, exception) for an Exception, through a pipe, and leaves by
    os._exit, so it runs no exit handler and never flushes this process's
    stdio.  Here the exception is raised again with its own type; a child
    that ends without a result raises RuntimeError.  Every child is killed,
    if still running, and reaped on every path, errors and KeyboardInterrupt
    here included.  The children run only Python and numpy arithmetic, so
    no lock that another thread holds at the fork is ever taken in them.
    """
    w = min(jobs, default_jobs(), len(calls)) if hasattr(os, "fork") else 1
    if w <= 1:
        return [fn(*args) for args in calls]
    import signal  # here, not at the top: every command would pay for it at start-up

    children = []  # (pid, read end of its pipe)
    try:
        for k in range(1, w):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _child(fn, calls[k::w], write)
            os.close(write)
            children.append((pid, open(read, "rb")))
        results = [None] * len(calls)
        results[::w] = [fn(*args) for args in calls[::w]]
        for k, (pid, pipe) in enumerate(children, 1):
            try:
                ok, value = pickle.load(pipe)  # bytes from our own child
            except Exception:
                raise RuntimeError(f"worker {pid} ended without a result") from None
            if not ok:
                raise value
            results[k::w] = value
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # safe on an ended child: its pid stays its own until reaped
            os.waitpid(pid, 0)


def _child(fn, calls: list[tuple], write: int):
    """In a forked child: send [fn(*args) for args in calls] down the pipe write, as run reads it, and exit."""
    code = 1
    try:
        try:
            result = (True, [fn(*args) for args in calls])
        except Exception as exc:
            result = (False, exc)
        with open(write, "wb") as pipe:
            pickle.dump(result, pipe)  # if exc cannot be pickled, the child ends without a result
        code = 0
    finally:
        os._exit(code)


def progress_line(label: str, done: int, total: int, started: float) -> str:
    """One progress line: the t done, the mean rate so far and the time left at it.

    >>> progress_line("scan a", 5, 10, time.monotonic() - 2.0)
    'scan a: t 5/10, 2.5e0 t/s, ETA 2 s'
    """
    rate = done / max(time.monotonic() - started, 1e-9)
    mantissa, exponent = f"{rate:.1e}".split("e")
    return f"{label}: t {done}/{total}, {mantissa}e{int(exponent)} t/s, ETA {(total - done) / rate:.0f} s"
