"""One ordered, streaming runner over forked worker processes, for the search's
block shares, the Heath-Brown scan's segments, the Euler product's windows and
the oracle's class representatives, one level of the subgroup lattice at a time.
A fork costs a few ms where a spawned worker imports the package again, and
fn needs no pickling, so it may be a closure.
"""

from __future__ import annotations

import itertools
import os
import pickle
import time


def default_jobs() -> int:
    return os.cpu_count() or 1


def imap(fn, calls, jobs: int = 1):
    """fn(*args) for args in calls, yielded in call order, on w = min(jobs, default_jobs(), the number of calls) processes.

    calls is any iterable, read lazily, an endless one too.  On the first next(),
    the first w calls fix w and worker k gets calls k, k + w, ...: worker 0 is this
    process, and each other a child forked once for its share of the calls it
    inherited, none where os.fork is missing.  A child sends each result as soon as
    it is done, pickled as (True, result), or (False, exception) for an Exception,
    through a pipe that holds it back when full, and leaves by os._exit, so it runs
    no exit handler and never flushes this process's stdio.  Here the exception is
    raised again with its own type; a child that ends without a result raises
    RuntimeError.  Every child is reaped, and SIGKILLed first unless the calls ran
    out (close() and KeyboardInterrupt here included).  The children run only Python
    and numpy arithmetic, so no lock that another thread holds at the fork is taken.
    """
    calls = iter(calls)
    head = list(itertools.islice(calls, min(jobs, default_jobs()) if hasattr(os, "fork") else 1))
    w, calls = max(len(head), 1), itertools.chain(head, calls)
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
                _child(fn, itertools.islice(calls, k, None, w), write)
            os.close(write)
            children.append((pid, open(read, "rb")))
        for j, args in enumerate(calls):  # this process walks every call, so a child's result is read only if it is due
            if not j % w:
                yield fn(*args)
                continue
            pid, pipe = children[j % w - 1]
            try:
                ok, value = pickle.load(pipe)  # bytes from our own child
            except Exception:
                raise RuntimeError(f"worker {pid} ended without a result") from None
            if not ok:
                raise value
            yield value
    except BaseException:
        import signal  # here, not at the top: only a failure needs it
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)  # safe on an ended child: its pid stays its own until reaped
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)


def _child(fn, calls, write: int):
    """In a forked child: send each fn(*args) for args in calls down the pipe write as it is done, as imap reads them, and exit."""
    code = 1
    try:
        with open(write, "wb") as pipe:
            try:
                for args in calls:
                    pipe.write(pickle.dumps((True, fn(*args))))
                    pipe.flush()
            except Exception as exc:
                pipe.write(pickle.dumps((False, exc)))  # if exc cannot be pickled, the child ends without a result
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
