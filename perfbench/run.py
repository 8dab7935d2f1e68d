#!/usr/bin/env python3
"""Benchmark for the psl2count CLI.

    python3 perfbench/run.py --workload {scan,estimate,hb,oracle} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the package is taken from the
checkout's src/ directory, never from an installed copy.

--trace 0 (end to end): one client in a closed loop runs the workload's
command as a subprocess, one command in flight at a time, until S seconds
have passed (at least one command).  Each command's answer is checked
outside the timed region.  Reported: the median wall time per command, the
median start-up time of a CLI process that only imports the CLI and builds
its parser, and the median peak resident set of a command's process tree.

--trace 1 (per layer): runs the command once as a subprocess for its CPU
time, then once in-process untraced and once in-process traced (jobs=1, so
every call stays in one process), with the public functions of each module
wrapped from outside (see tracer.py).  Reported: calls and self time per
layer, the ratios measured at the layers, and the tracing overhead.

The last line of standard output is one JSON object with keys correct,
attempted, failed and metrics.  A fuller record (machine context, every
command, error_rate) is written to .perfbench_out/ at the checkout root, with
the spans of a traced run next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import signal
import statistics
import sys
import time
import types
from pathlib import Path

import numpy

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

NPROC = os.cpu_count() or 1
SCAN_JOBS = min(2, NPROC)

# Input sizes are fixed: the checks compare against frozen answers.
WORKLOADS = {
    "scan": ["search", "a", "--t-max", "1e8", "--threads", str(SCAN_JOBS), "--format", "json"],
    "estimate": ["bhc", "a", "--x", "1e9", "--trunc", "1e7", "--format", "json"],
    "hb": ["hb", "--limit", "1e7", "--format", "json"],
    "oracle": ["census", "13", "--oracle", "--format", "json"],
}
# The traced run stays in one process so the wrappers see every call.
TRACED_ARGV = dict(WORKLOADS, scan=["search", "a", "--t-max", "1e8", "--threads", "1",
                                    "--format", "json"])

CLI = "from psl2count.cli import entry; entry()"
STARTUP = "import psl2count.cli as cli; cli.build_parser()"
# On a shared host single start-ups (~0.2 s) fall into a fast and a slow mode
# whose mix drifts; a median of single start-ups jumps between the modes, a
# median of batch means moves with the mix.
STARTUP_BATCH = 4
STARTUP_MIN = 5
RUN_DEADLINE_S = 170  # a run must end well inside three minutes


class CommandTimeout(Exception):
    pass


def child_env() -> dict:
    """The caller's environment, minus PSL2_* presets, with src/ first on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PSL2_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _on_alarm(signum, frame):
    raise CommandTimeout


def spawn(code: str, args: list[str], env: dict, timeout: float) -> dict:
    """Run `python -c code args...` to completion.

    Wall time runs from spawn to exit.  wait4 reports the rusage of the
    process together with its reaped descendants (pool workers included), so
    ru_maxrss is the largest resident set in the tree and utime + stime the
    CPU time of the whole tree.
    """
    out_path, err_path = OUT / "stdout.txt", OUT / "stderr.txt"
    argv = [sys.executable, "-c", code] + args
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        old = signal.signal(signal.SIGALRM, _on_alarm)
        timed_out = False
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions, setsid=True)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.1))
        try:
            _, status, ru = os.wait4(pid, 0)
        except CommandTimeout:
            timed_out = True
            os.killpg(pid, signal.SIGKILL)
            _, status, ru = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "exit": -1 if timed_out else os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text(),
    }


def run_in_process(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli(argv)
        wall = time.perf_counter() - t0
    return {"wall_s": wall, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def import_package():
    """Import psl2count from the checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import psl2count
    from psl2count import arith, bhc, cli, heathbrown, invariants, oracle, search

    if Path(psl2count.__file__).resolve().parent != SRC / "psl2count":
        raise SystemExit(f"perfbench: imported psl2count from {psl2count.__file__}, not {SRC}")
    return types.SimpleNamespace(arith=arith, bhc=bhc, cli=cli, heathbrown=heathbrown,
                                 invariants=invariants, oracle=oracle, search=search)


def machine_context() -> dict:
    caches = {}
    for index in range(8):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            level = (base / "level").read_text().strip()
            kind = (base / "type").read_text().strip()
            size = (base / "size").read_text().strip()
        except OSError:
            break
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "caches_per_instance": caches or "unknown",
    }


def check(c: dict, workload: str, rng: random.Random, pkg) -> None:
    """Record the problems with one command's answer; a failure is kept, not raised."""
    c["problems"] = checks.check(workload, c["exit"], c["stdout"], c["stderr"], rng, pkg)
    if c["problems"]:
        print(f"perfbench: {workload} check failed: {'; '.join(c['problems'])}", file=sys.stderr)


def startup_time(env: dict, deadline: float, repeats: int = 1) -> float:
    """Mean wall time of `repeats` back-to-back CLI processes that each import
    the CLI and build its parser."""
    total = 0.0
    for _ in range(repeats):
        r = spawn(STARTUP, [], env, deadline - time.perf_counter())
        if r["exit"] != 0:
            raise SystemExit(f"perfbench: CLI start-up failed: {r['stderr'].strip()[-300:]}")
        total += r["wall_s"]
    return total / repeats


def end_to_end(workload: str, seconds: int, rng: random.Random, pkg, deadline: float):
    env = child_env()
    startup_time(env, deadline)  # warm-up: byte-compile, fill the page cache
    startup: list[float] = []
    cmds = []
    t_start = time.perf_counter()
    while not cmds or time.perf_counter() - t_start < seconds:
        c = spawn(CLI, WORKLOADS[workload], env, deadline - time.perf_counter())
        cmds.append(c)
        check(c, workload, rng, pkg)  # outside the timed region
        if c["timed_out"]:
            break
        # Start-up samples are spread over the run, so that a slow spell of
        # the shared host weighs on setup_s as it does on wall_s.
        startup.append(startup_time(env, deadline, STARTUP_BATCH))
    while len(startup) < STARTUP_MIN:
        startup.append(startup_time(env, deadline, STARTUP_BATCH))
    ok = [c for c in cmds if not c["timed_out"]] or cmds
    metrics = {
        "wall_s": {"value": statistics.median(c["wall_s"] for c in ok), "unit": "s"},
        "setup_s": {"value": statistics.median(startup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(c["peak_rss_mb"] for c in ok), "unit": "MiB"},
    }
    extra = {"startup_s": startup}
    return cmds, metrics, extra


def per_layer(workload: str, seed: int, rng: random.Random, pkg, deadline: float):
    untraced = spawn(CLI, WORKLOADS[workload], child_env(), deadline - time.perf_counter())
    argv = TRACED_ARGV[workload]
    plain = run_in_process(pkg.cli.main, argv)

    t = tracer.Tracer(run_id=seed)
    uninstall = t.install(vars(pkg))
    try:
        traced = run_in_process(t.wrap(tracer.ROOT_SPAN, pkg.cli.main), argv)
    finally:
        uninstall()
    cmds = [untraced, plain, traced]
    for c in cmds:
        check(c, workload, rng, pkg)

    values = t.layer_metrics()
    values["cli.cpu_s"] = untraced["cpu_s"]
    values["cli.cpu_per_wall"] = untraced["cpu_s"] / untraced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    units = {m["name"]: m["unit"] for m in tracer.per_layer_metric_specs()}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    span_file = OUT / f"{workload}-seed{seed}-spans.npz"
    t.save(span_file)
    extra = {"spans": span_file.name, "span_count": len(t.end),
             "traced_wall_s": traced["wall_s"], "untraced_in_process_wall_s": plain["wall_s"]}
    return cmds, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "psl2count" / "cli.py").is_file():
        print(f"perfbench: no psl2count source under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    pkg = import_package()
    OUT.mkdir(exist_ok=True)
    rng = random.Random(args.seed)

    if args.trace:
        cmds, metrics, extra = per_layer(args.workload, args.seed, rng, pkg, deadline)
    else:
        cmds, metrics, extra = end_to_end(args.workload, args.seconds, rng, pkg, deadline)
    failed = sum(1 for c in cmds if c["problems"])
    error_rate = failed / len(cmds)

    report = {
        "workload": args.workload,
        "command": ["psl2count"] + WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": machine_context(),
        "error_rate": error_rate,
        "metrics": metrics,
        "commands": [{k: v for k, v in c.items() if k not in ("stdout", "stderr")} for c in cmds],
        **extra,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate = {error_rate:.6g} ratio ({failed}/{len(cmds)} commands)")
    print(json.dumps({"correct": failed == 0, "attempted": len(cmds), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
