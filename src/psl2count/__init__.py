"""Subgroup-class invariants of PSL(2, p) and the prime searches built on them.

The package computes four counts attached to G = PSL(2, p) for odd primes
p >= 5: isomorphism types, conjugacy classes, self-normalising classes and
non-self-normalising classes of proper nontrivial subgroups.  Around that
core sit a brute-force census for small p, scans for prime triples (p, s, r)
that drive the counts to their minima, Bateman-Horn style estimates for how
often such triples occur, and a scan for the primes relevant to the
conditional upper-bound argument.

Importing the package imports none of its modules: a module is imported when
one of its public names, or the module itself, is first read, so
``import psl2count`` does not load numpy.  The command-line front end,
``psl2count.cli``, imports every module when it starts.
"""

import importlib

# Each public name under the module that defines it.
_PUBLIC = {
    "arith": ("is_prime", "factorize", "tau", "big_omega", "divisors", "two_adic_valuation", "primes_in_range",
              "PolynomialFamily", "ResourceLimitError"),
    "invariants": ("InvariantProfile", "profile", "counts", "census", "ClassCensus", "ClassEntry", "GoldenRow",
                   "golden_table", "verify_golden"),
    "oracle": ("PermGroup", "Subgroup", "OracleClass", "build_psl2", "enumerate_subgroups", "classify",
               "oracle_census"),
    "search": ("CaseSpec", "TripleHit", "SearchSummary", "case_spec", "scan", "verify_attainment"),
    "bhc": ("HlConstant", "BhcEstimate", "family", "check_sh", "omega_roots", "hl_constant", "estimate_E"),
    "heathbrown": ("HbCandidate", "HbScan", "qualifies", "scan_hb", "derive_upper_bounds"),
    "runner": (),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name or module of the package, imported on its first read."""
    if name not in _HOME and name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME.get(name, name)}", __name__)
    return module if name in _PUBLIC else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_PUBLIC})
