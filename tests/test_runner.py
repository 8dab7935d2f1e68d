"""The ordered forked runner, and its users hb, the Euler product and the
oracle: results independent of the number of processes, errors with their
own types, and no child left behind on any path."""

import contextlib
import hashlib
import io
import itertools
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from conftest import _assert_no_child_left
from psl2count import arith, bhc, cli, heathbrown, oracle, runner, search


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
            got = list(runner.imap(_pid_and_square, [(x,) for x in range(n)], jobs))
            assert [r for _, r in got] == want, jobs
            w = min(jobs, 3, n)
            # call i ran in worker i mod w, this process being worker 0
            assert [pid == os.getpid() for pid, _ in got] == [i % max(w, 1) == 0 for i in range(n)], jobs
            _assert_no_child_left()
        assert len(forks) == sum(max(min(jobs, 3, n) - 1, 0) for jobs in (2, 3, 10**6))

    def test_without_fork_one_process(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert list(runner.imap(_pid_and_square, [(x,) for x in range(5)], 3)) == [(os.getpid(), x * x) for x in range(5)]

    def test_child_error_keeps_its_type(self):
        def fail_at_4(x):
            if x == 4:
                raise arith.ResourceLimitError("call 4 over a cap")
            return x

        with pytest.raises(arith.ResourceLimitError, match="call 4 over a cap"):
            list(runner.imap(fail_at_4, [(x,) for x in range(9)], 3))  # call 4 runs in child 1
        _assert_no_child_left()

    def test_child_without_a_result_is_a_runtime_error(self):
        def vanish_at_2(x):
            if x == 2:
                os._exit(1)
            return x

        with pytest.raises(RuntimeError, match="without a result"):
            list(runner.imap(vanish_at_2, [(x,) for x in range(6)], 3))
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
            list(runner.imap(fail_here, [(x,) for x in range(12)], 3))
        assert time.monotonic() - start < 30
        _assert_no_child_left()

    def test_results_stream(self, cores, tmp_path):
        # call 3 runs in the child after call 1: call 1 must arrive while call 3 waits
        gate = tmp_path / "gate"

        def wait_at_3(x):
            deadline = time.monotonic() + 20
            while x == 3 and not gate.exists():
                if time.monotonic() > deadline:
                    raise TimeoutError("call 3 waited 20 s for the gate")
                time.sleep(0.01)
            return x

        cores(2)
        results = runner.imap(wait_at_3, [(x,) for x in range(4)], 2)
        assert [next(results), next(results)] == [0, 1]
        gate.touch()
        assert list(results) == [2, 3]
        _assert_no_child_left()

    def test_endless_calls_then_close(self, forks):
        results = runner.imap(abs, ((x,) for x in itertools.count()), 3)
        assert list(itertools.islice(results, 10)) == list(range(10))
        results.close()
        assert len(forks) == 2
        _assert_no_child_left()

    def test_success_sends_no_signal(self):
        # a child that has sent its result is exiting: it is reaped, not killed,
        # and only a failure loads the signal module
        code = ("import contextlib, io, os, sys; os.cpu_count = lambda: 2\n"
                "forks, kills, fork, kill = [], [], os.fork, os.kill\n"
                "os.fork = lambda: forks.append(1) or fork()\n"
                "os.kill = lambda *args: kills.append(args) or kill(*args)\n"
                "from psl2count import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    status = cli.main(['hb', '--limit', '1e7', '--format', 'json'])\n"
                "print(status, len(forks), kills, 'signal' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "0 1 [] False\n", "")

    def test_children_run_no_exit_handler_and_never_flush_stdio(self):
        # stdout to a pipe is block-buffered, so a child that flushed it on
        # its way out would repeat the text not yet written
        code = ("import atexit, os; os.cpu_count = lambda: 3\n"
                "from psl2count import runner\n"
                "atexit.register(os.write, 2, b'exit handler\\n')\n"
                "print('before', end='')\n"
                "assert list(runner.imap(abs, [(-x,) for x in range(7)], 3)) == list(range(7))\n"
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

    @staticmethod
    def _cut_before_segment_1(fmt):
        """hb --limit 1e7's stdout up to just before the first row of its second segment, t from 69445.

        Table shows only the first 10 rows, all in the first segment: its cut is the bounds line and those rows.
        """
        first = next(p for p in heathbrown.scan_hb(10**7).p.tolist() if p > 72 * 69445)
        full = _stdout(["hb", "--limit", "1e7", "--format", fmt])[1]
        if fmt == "table":
            return full[: full.index("  ... ")]
        return full[: full.index(f', {{"p": {first},' if fmt == "json" else f"\n{first},") + (fmt == "csv")]

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_a_failing_segment_keeps_the_rows_before_it(self, fmt, cores, monkeypatch, capsys):
        cores(2)
        want = self._cut_before_segment_1(fmt)  # json with no closing ]}, table with no count line
        scan_segment = heathbrown.scan_segment

        def fail_in_the_child(lo, hi):
            if lo:  # the second of the two segments to 1e7, sieved in the child
                raise AssertionError(f"segment at {lo} failed")
            return scan_segment(lo, hi)

        monkeypatch.setattr(heathbrown, "scan_segment", fail_in_the_child)
        assert cli.main(["hb", "--limit", "1e7", "--format", fmt]) == cli.EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert out == want
        assert "AssertionError: segment at 69445 failed" in err
        _assert_no_child_left()

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_a_usage_error_leaves_stdout_empty(self, fmt, capsys):
        assert cli.main(["hb", "--limit", "76", "--format", fmt]) == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_each_segment_is_written_before_the_next_is_sieved(self, fmt, cores, monkeypatch):
        cores(1)
        want = self._cut_before_segment_1(fmt)
        events = []
        scan_segment = heathbrown.scan_segment

        def recorded(lo, hi):
            events.append(("sieve", lo))
            return scan_segment(lo, hi)

        class Sink(io.StringIO):
            def write(self, text):
                events.append(("write", text))
                return super().write(text)

        monkeypatch.setattr(heathbrown, "scan_segment", recorded)
        with contextlib.redirect_stdout(Sink()):
            assert cli.main(["hb", "--limit", "1e7", "--format", fmt]) == cli.EXIT_OK
        before = events[: events.index(("sieve", 69445))]
        assert "".join(text for kind, text in before if kind == "write") == want

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_memory_stays_flat_in_the_limit(self, fmt, cores, monkeypatch):
        # 106 segments to 1e9 of about 0.9 MiB of text each, 3.6 MiB in table: about 94 MiB, or 380 MiB, if they were
        # held; at most two segments' texts are alive at once, the one written and the next
        cores(1)
        row = "  p=5          Omega(p-1)=2 Omega(p+1)=2 i=7 c=7 s=3 n=4\n" if fmt == "table" else "5,2,2,7,7,3,4\n"
        monkeypatch.setattr(heathbrown, "scan_segment", lambda lo, hi: None)
        monkeypatch.setattr(cli, "_hb_rows", lambda found, bounds, fmt, cap: (2**16, 0, row * 2**16))
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert cli.main(["hb", "--limit", "1e9", "--format", fmt, "--show", str(10**12)]) == cli.EXIT_OK
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < (16 if fmt == "table" else 8) * 2**20

    def test_a_closed_pipe_kills_and_reaps_the_children(self, cores, forks, monkeypatch):
        # the first segment's rows meet the closed pipe while the children still sieve theirs
        cores(3)
        here, sieved_here, scan_segment = os.getpid(), [], heathbrown.scan_segment

        def recorded(lo, hi):
            if os.getpid() == here:
                sieved_here.append(lo)
            return scan_segment(lo, hi)

        waits, dup2 = [], os.dup2

        def dup2_once_reaped(fd, fd2):  # main's broken-pipe handler: every child must be gone by then
            with contextlib.suppress(ChildProcessError):
                waits.append(os.waitpid(-1, os.WNOHANG))
            return dup2(fd, fd2)

        monkeypatch.setattr(heathbrown, "scan_segment", recorded)
        monkeypatch.setattr(os, "dup2", dup2_once_reaped)
        read, write = os.pipe()
        os.close(read)
        with io.TextIOWrapper(open(write, "wb")) as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            assert cli.main(["hb", "--limit", "1e8", "--format", "csv"]) == cli.EXIT_BROKEN_PIPE
        assert (len(forks), sieved_here, waits) == (2, [0], [])
        _assert_no_child_left()

    def test_segments_are_read_lazily(self, cores, monkeypatch):
        # the 105,964 windows to 1e12 as a list would trace about 14 MiB
        cores(1)
        monkeypatch.setattr(heathbrown, "scan_segment", lambda lo, hi: None)
        tracemalloc.start()
        try:
            count = sum(1 for _ in heathbrown.map_hb(10**12, lambda found: found))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 105_964
        assert peak < 2**20

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
    @pytest.mark.parametrize("case_id", search.CASES)
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
        bhc.hl_constant(search.case_spec("a").polys, 2 * arith._PRIME_SEGMENT + 2)  # p = 2t + 1 for t in [1, 2**17]
        assert forks == []
        bhc.hl_constant(search.case_spec("a").polys, 2 * arith._PRIME_SEGMENT + 3)  # 2**17 + 1 t: two windows
        assert len(forks) == 1


class TestOracleJobs:
    @pytest.mark.parametrize("p", [7, 13, 19])
    def test_subgroups_independent_of_jobs(self, p, cores):
        group = oracle.build_psl2(p)
        got = []
        for jobs in (1, 2, 3):
            cores(jobs)
            got.append(oracle.enumerate_subgroups(group))  # members, class_id and normaliser_order
            _assert_no_child_left()
        assert got[0] == got[1] == got[2]

    def test_forks_only_from_the_shared_order(self, cores, forks):
        group = oracle.build_psl2(13)
        cores(1)
        oracle.enumerate_subgroups(group)
        assert forks == []
        cores(2)
        oracle.enumerate_subgroups(group)
        assert len(forks) == 2  # one per level of more than one class: 1, 4 and 11 classes
        assert oracle.build_psl2(11).order < oracle._SHARED_ORDER <= group.order
        oracle.enumerate_subgroups(oracle.build_psl2(11))
        assert len(forks) == 2

    @pytest.mark.parametrize("cap", [20, 500])
    def test_cap_still_raises(self, cap, cores, forks, monkeypatch):
        # p = 13 holds 275 subgroups up to its first level and 942 in all, so
        # a cap of 500 is passed only after that level was shared out
        monkeypatch.setattr(oracle, "_MAX_SUBGROUPS", cap)
        cores(2)
        with pytest.raises(arith.ResourceLimitError, match=f"exceeded {cap}"):
            oracle.enumerate_subgroups(oracle.build_psl2(13))
        assert len(forks) == (cap == 500)
        _assert_no_child_left()

    def test_child_error_keeps_its_type(self, cores, forks, monkeypatch):
        here, joins = os.getpid(), oracle._joins

        def fail_in_a_child(*args):
            if os.getpid() != here:
                raise AssertionError("join failed in a child")
            return joins(*args)

        monkeypatch.setattr(oracle, "_joins", fail_in_a_child)
        cores(2)
        with pytest.raises(AssertionError, match="join failed in a child"):
            oracle.enumerate_subgroups(oracle.build_psl2(13))
        assert len(forks) == 1
        _assert_no_child_left()


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
