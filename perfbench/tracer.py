"""Outside-in tracing of the psl2count layers, for the benchmark's traced run.

The package source is left untouched: each public function named in LAYERS
is replaced, by attribute on every psl2count module that binds it, with a
wrapper that records one span per call.  Spans are (name, start, end,
parent, run id), stored column-wise in typed arrays so that the ~1.3 million
calls of the `estimate` workload fit in a few tens of MB, and written out
once the run is over.  A span's self time is its duration minus the part
covered by its direct children; calls nest strictly because the traced run
is single-threaded and in-process (jobs=1), which is also why spans cannot
follow a call into a worker process.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (module, attribute) pairs; "Class.method" names a method on a module class.
LAYERS = (
    ("search", "scan"),
    ("arith", "is_prime"),
    ("arith", "factorize"),
    ("arith", "primes_in_range"),
    ("invariants", "profile"),
    ("invariants", "counts"),
    ("invariants", "census"),
    ("bhc", "hl_constant"),
    ("bhc", "omega_roots"),
    ("bhc", "estimate_E"),
    ("bhc", "integrate_adaptive"),
    ("heathbrown", "scan_hb"),
    ("heathbrown", "qualifies"),
    ("oracle", "build_psl2"),
    ("oracle", "PermGroup.table"),
    ("oracle", "enumerate_subgroups"),
    ("oracle", "classify"),
)

ROOT_SPAN = "cli.main"


def layer_names() -> list[str]:
    return [f"{mod}.{attr}" for mod, attr in LAYERS]


def per_layer_metric_specs() -> list[dict]:
    """Every per-layer metric the traced run reports, with unit and direction."""
    specs = []
    for name in layer_names():
        specs.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        specs.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    specs += [
        {"name": "search.triples_per_primality_test", "unit": "ratio", "better": "higher"},
        {"name": "arith.primes_in_range.primes", "unit": "count", "better": "lower"},
        {"name": "arith.primes_in_range.bytes", "unit": "bytes-computed", "better": "lower"},
        {"name": "bhc.integrand_evals", "unit": "count", "better": "lower"},
        {"name": "heathbrown.qualify_yield", "unit": "ratio", "better": "higher"},
        {"name": "oracle.subgroups", "unit": "count", "better": "lower"},
        {"name": "oracle.classes", "unit": "count", "better": "lower"},
        {"name": "cli.cpu_s", "unit": "s", "better": "lower"},
        {"name": "cli.cpu_per_wall", "unit": "ratio", "better": "higher"},
        {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
    ]
    return specs


class Tracer:
    """Span store plus the counters taken from arguments and return values."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.q_count = 0
        self.primes = 0
        self.prime_bytes = 0
        self.integrand_evals = 0
        self.hb_candidates = 0
        self.subgroups = 0
        self.classes = 0

    def wrap(self, name: str, fn, on_args=None, on_result=None):
        """Return fn wrapped so that each call records a span named name."""
        nid = len(self.names)
        self.names.append(name)
        name_append = self.name.append
        parent_append = self.parent.append
        start_append = self.start.append
        end_append = self.end.append
        end = self.end
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_args is not None:
                args = on_args(args)
            idx = len(end)
            name_append(nid)
            parent_append(stack[-1])
            end_append(0.0)
            stack.append(idx)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- counters fed by the wrappers ------------------------------------

    def _count_scan(self, summary) -> None:
        self.q_count += summary.q_count

    def _count_primes(self, primes) -> None:
        self.primes += len(primes)
        # Computed, not measured: list header plus one int object per prime.
        self.prime_bytes += sys.getsizeof(primes) + sum(map(sys.getsizeof, primes))

    def _count_integrand(self, args):
        f = args[0]

        def counted(ts):
            self.integrand_evals += ts.size
            return f(ts)

        return (counted,) + tuple(args[1:])

    def _count_hb(self, cands) -> None:
        self.hb_candidates += len(cands)

    def _count_subgroups(self, subs) -> None:
        self.subgroups += len(subs)

    def _count_classes(self, classes) -> None:
        self.classes += len(classes)

    def install(self, modules: dict):
        """Wrap every layer in LAYERS; returns a function that undoes it.

        modules maps short names ("arith", ...) to the imported psl2count
        modules.  A function imported by name into another psl2count module
        is rebound there too, so no call path skips its wrapper.
        """
        hooks = {
            "search.scan": (None, self._count_scan),
            "arith.primes_in_range": (None, self._count_primes),
            "bhc.integrate_adaptive": (self._count_integrand, None),
            "heathbrown.scan_hb": (None, self._count_hb),
            "oracle.enumerate_subgroups": (None, self._count_subgroups),
            "oracle.classify": (None, self._count_classes),
        }
        package = [m for key, m in sys.modules.items()
                   if m is not None and (key == "psl2count" or key.startswith("psl2count."))]
        undo = []
        for mod_name, attr in LAYERS:
            name = f"{mod_name}.{attr}"
            owner = modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            on_args, on_result = hooks.get(name, (None, None))
            wrapped = self.wrap(name, original, on_args, on_result)
            for target in [owner] if path else package:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapped)
                        undo.append((target, key, original))

        def uninstall() -> None:
            for target, key, original in reversed(undo):
                setattr(target, key, original)

        return uninstall

    # -- results ---------------------------------------------------------

    def columns(self):
        return (
            np.frombuffer(self.name, dtype=np.uint16),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int64),
        )

    def layer_metrics(self) -> dict[str, float]:
        """calls and self time per layer, plus the ratios measured at the layers."""
        name, start, end, parent = self.columns()
        n_names = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(name, minlength=n_names)
        self_by_name = np.bincount(name, weights=self_time, minlength=n_names)
        index = {n: i for i, n in enumerate(self.names)}

        out: dict[str, float] = {}
        for layer in layer_names():
            i = index[layer]
            out[f"{layer}.calls"] = int(calls[i])
            out[f"{layer}.self_s"] = float(self_by_name[i])

        is_prime = name == index["arith.is_prime"]
        under_scan = is_prime & has_parent
        under_scan[under_scan] = name[parent[under_scan]] == index["search.scan"]
        tests = int(under_scan.sum())
        out["search.triples_per_primality_test"] = self.q_count / tests if tests else 0.0
        out["arith.primes_in_range.primes"] = self.primes
        out["arith.primes_in_range.bytes"] = self.prime_bytes
        out["bhc.integrand_evals"] = self.integrand_evals
        qualifies = out["heathbrown.qualifies.calls"]
        out["heathbrown.qualify_yield"] = self.hb_candidates / qualifies if qualifies else 0.0
        out["oracle.subgroups"] = self.subgroups
        out["oracle.classes"] = self.classes
        return out

    def save(self, path) -> None:
        """Write the spans as columns (name id, start, end, parent, run id)."""
        name, start, end, parent = self.columns()
        np.savez(
            path,
            names=np.array(self.names),
            name=name,
            start=start,
            end=end,
            parent=parent,
            run_id=np.full(len(name), self.run_id, dtype=np.uint32),
        )
