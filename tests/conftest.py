"""Shared test set-up: a test marked slow runs only when PSL2COUNT_SLOW=1,
and the force_wheel_min fixture sends the sieve windows under test through
the wheel (or past it) while their base primes come the default way.  For
the forked runner's users: the cores fixture sets the machine's reported
cores, forks counts real forks, and _assert_no_child_left checks that every
child was reaped."""

import os

import pytest

from psl2count import arith


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cores(monkeypatch):
    """A function that makes os.cpu_count(), and so runner.default_jobs(), report n."""
    return lambda n: monkeypatch.setattr(os, "cpu_count", lambda: n)


@pytest.fixture
def forks(monkeypatch):
    """The pids that called os.fork from now on; the counted fork is real."""
    pids = []
    fork = os.fork

    def counted_fork():
        pids.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def pytest_collection_modifyitems(config, items):
    if os.environ.get("PSL2COUNT_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="slow; set PSL2COUNT_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def force_wheel_min(monkeypatch):
    """A function that sets arith._WHEEL_MIN for the windows under test, while
    arith.prime_array, which fetches their base primes, runs at the default.

    prime_array re-enters itself from inside its walk (prime_segments ->
    sieve_forms -> prime_array), so each call restores the value it found,
    not the forced one: else the rest of the outer walk would take the wheel.
    """
    default, prime_array = arith._WHEEL_MIN, arith.prime_array

    def at_default(n):
        found = arith._WHEEL_MIN
        arith._WHEEL_MIN = default
        try:
            return prime_array(n)
        finally:
            arith._WHEEL_MIN = found

    def force(wheel_min):
        monkeypatch.setattr(arith, "_WHEEL_MIN", wheel_min)
        monkeypatch.setattr(arith, "prime_array", at_default)

    return force
