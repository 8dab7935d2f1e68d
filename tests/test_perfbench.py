"""The benchmark's tracer names only functions that the package has, and the
benchmark's answer checks pass on the package's answers."""

import contextlib
import importlib
import importlib.util
import io
import pathlib
import random
import types

import pytest

from psl2count import arith, cli, invariants, search

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
CHECKS = PERFBENCH / "checks.py"

# perfbench/run.py's workloads as its traced run gives them: scan at one
# worker, so every block runs in this process
WORKLOADS = {
    "scan": ["search", "a", "--t-max", "1e8", "--threads", "1", "--format", "json"],
    "estimate": ["bhc", "a", "--x", "1e9", "--trunc", "1e7", "--format", "json"],
    "hb": ["hb", "--limit", "1e7", "--format", "json"],
    "oracle": ["census", "13", "--oracle", "--format", "json"],
}


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    # Tracer.install raises AttributeError on a missing name, so a rename in
    # the package would otherwise break only the benchmark's traced run
    tracer = _load("perfbench_tracer", TRACER)
    assert tracer.LAYERS
    for module, attr in tracer.LAYERS:
        owner = importlib.import_module(f"psl2count.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_answers_pass_the_benchmark_checks(workload):
    # the checks re-derive sampled answers through search.case_spec(...).value,
    # search.TripleHit and verify_attainment, so a change to those would
    # otherwise fail only in the benchmark
    checks = _load("perfbench_checks", CHECKS)
    pkg = types.SimpleNamespace(arith=arith, invariants=invariants, search=search)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(WORKLOADS[workload])
    assert checks.check(workload, code, out.getvalue(), err.getvalue(), random.Random(1), pkg) == []
