"""The ordered forked runner, and its users hb and the Euler product: results
independent of the number of processes, errors with their own types, and no
child left behind on any path."""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import time

import pytest

from psl2count import arith, bhc, cli, heathbrown, runner, search


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cores(monkeypatch):
    """A function that makes os.cpu_count(), and so search.default_jobs(), report n."""
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


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _pid_and_square(x):
    return os.getpid(), x * x


class TestRun:
    @pytest.fixture(autouse=True)
    def _three_cores(self, cores):
        cores(3)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 7])
    def test_results_in_call_order(self, n, forks):
        want = [x * x for x in range(n)]
        for jobs in (1, 2, 3, 10**6):
            got = runner.run(_pid_and_square, [(x,) for x in range(n)], jobs)
            assert [r for _, r in got] == want, jobs
            w = min(jobs, 3, n)
            # call i ran in worker i mod w, this process being worker 0
            assert [pid == os.getpid() for pid, _ in got] == [i % max(w, 1) == 0 for i in range(n)], jobs
            _assert_no_child_left()
        assert len(forks) == sum(max(min(jobs, 3, n) - 1, 0) for jobs in (2, 3, 10**6))

    def test_without_fork_one_process(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert runner.run(_pid_and_square, [(x,) for x in range(5)], 3) == [(os.getpid(), x * x) for x in range(5)]

    def test_child_error_keeps_its_type(self):
        def fail_at_4(x):
            if x == 4:
                raise arith.ResourceLimitError("call 4 over a cap")
            return x

        with pytest.raises(arith.ResourceLimitError, match="call 4 over a cap"):
            runner.run(fail_at_4, [(x,) for x in range(9)], 3)  # call 4 runs in child 1
        _assert_no_child_left()

    def test_child_without_a_result_is_a_runtime_error(self):
        def vanish_at_2(x):
            if x == 2:
                os._exit(1)
            return x

        with pytest.raises(RuntimeError, match="without a result"):
            runner.run(vanish_at_2, [(x,) for x in range(6)], 3)
        _assert_no_child_left()

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_error_here_kills_and_reaps_every_child(self, error):
        def fail_here(x):
            if x == 3:  # this process's second call, with both children still working
                raise error("call 3")
            time.sleep(60 if x > 3 else 0)
            return x

        start = time.monotonic()
        with pytest.raises(error, match="call 3"):
            runner.run(fail_here, [(x,) for x in range(12)], 3)
        assert time.monotonic() - start < 30
        _assert_no_child_left()

    def test_children_run_no_exit_handler_and_never_flush_stdio(self):
        # stdout to a pipe is block-buffered, so a child that flushed it on
        # its way out would repeat the text not yet written
        code = ("import atexit, os; os.cpu_count = lambda: 3\n"
                "from psl2count import runner\n"
                "atexit.register(os.write, 2, b'exit handler\\n')\n"
                "print('before', end='')\n"
                "assert runner.run(abs, [(-x,) for x in range(7)], 3) == list(range(7))\n"
                "print(' after')\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("PYTHONUNBUFFERED", None)  # else stdout holds nothing to flush
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "before after\n", "exit handler\n")


class TestHbJobs:
    @pytest.mark.parametrize("limit", ["1e5", "1e6", "1e7"])
    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_stdout_independent_of_jobs(self, limit, fmt, cores):
        outs = set()
        for jobs in (1, 2, 3):
            cores(jobs)
            outs.add(_stdout(["hb", "--limit", limit, "--format", fmt]))
            _assert_no_child_left()
        assert len(outs) == 1 and outs.pop()[0] == cli.EXIT_OK

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_many_segments_on_three_workers(self, fmt, cores, monkeypatch):
        argv = ["hb", "--limit", "1e6", "--format", fmt, "--show", "1000"]  # the first 1000 rows span 4 segments
        cores(1)
        want = _stdout(argv)
        monkeypatch.setattr(arith, "_PRIME_SEGMENT", 2**10)  # 14 segments to 1e6
        cores(3)
        assert _stdout(argv) == want
        _assert_no_child_left()

    def test_a_failing_segment_leaves_stdout_empty(self, cores, monkeypatch, capsys):
        cores(2)
        scan_segment = heathbrown.scan_segment

        def fail_in_the_child(lo, hi):
            if lo:  # the second of the two segments to 1e7, sieved in the child
                raise AssertionError(f"segment at {lo} failed")
            return scan_segment(lo, hi)

        monkeypatch.setattr(heathbrown, "scan_segment", fail_in_the_child)
        assert cli.main(["hb", "--limit", "1e7", "--format", "json"]) == cli.EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert out == ""
        assert "AssertionError: segment at 69445 failed" in err
        _assert_no_child_left()

    def test_one_segment_forks_nothing(self, cores, forks):
        cores(3)
        assert _stdout(["hb", "--limit", "1e6", "--format", "csv"])[0] == cli.EXIT_OK
        assert forks == []

    def test_limit_past_the_prime_cap_exits_before_any_fork(self, cores, forks, capsys):
        cores(3)
        assert cli.main(["hb", "--limit", "1e17"]) == cli.EXIT_RESOURCE
        assert capsys.readouterr().out == ""
        assert forks == []


class TestHlConstantJobs:
    @pytest.mark.parametrize("case_id", search.CASE_IDS)
    @pytest.mark.parametrize("truncation", [10**5, 10**7])
    def test_constant_independent_of_jobs(self, case_id, truncation, cores):
        fam = search.case_spec(case_id).polys
        got = set()
        for jobs in (1, 2, 3):
            cores(jobs)
            hc = bhc.hl_constant(fam, truncation)
            got.add((hc.value.hex(), hc.tail_bound.hex()))
            _assert_no_child_left()
        assert len(got) == 1

    def test_one_window_forks_nothing(self, cores, forks):
        cores(3)
        bhc.hl_constant(search.case_spec("a").polys, 2 * arith._PRIME_SEGMENT)
        assert forks == []
        bhc.hl_constant(search.case_spec("a").polys, 2 * arith._PRIME_SEGMENT + 2)
        assert len(forks) == 1


def _hb_digest(jobs: int) -> str:
    code = f"import os; os.cpu_count = lambda: {jobs}\nfrom psl2count.cli import entry; entry()"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = [sys.executable, "-c", code, "hb", "--limit", "1e9", "--format", "csv"]
    digest = hashlib.sha256()
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE) as proc:
        for block in iter(lambda: proc.stdout.read(2**20), b""):
            digest.update(block)
    assert proc.returncode == 0
    return digest.hexdigest()


@pytest.mark.slow
def test_hb_1e9_independent_of_jobs():
    assert _hb_digest(1) == _hb_digest(2)
