"""Subgroup-class invariants of PSL(2, p) and the prime searches built on them.

The package computes four counts attached to G = PSL(2, p) for odd primes
p >= 5: isomorphism types, conjugacy classes, self-normalising classes and
non-self-normalising classes of proper nontrivial subgroups.  Around that
core sit a brute-force census for small p, scans for prime triples (p, s, r)
that drive the counts to their minima, Bateman-Horn style estimates for how
often such triples occur, and a scan for the primes relevant to the
conditional upper-bound argument.
"""

from .arith import PolynomialFamily, big_omega, divisors, factorize, is_prime, primes_in_range, tau, two_adic_valuation
from .invariants import (
    ClassCensus,
    ClassEntry,
    GoldenRow,
    InvariantProfile,
    census,
    counts,
    golden_table,
    profile,
    verify_golden,
)
from .oracle import OracleClass, PermGroup, ResourceLimitError, Subgroup, build_psl2, classify, enumerate_subgroups, oracle_census
from .search import CaseSpec, SearchSummary, TripleHit, case_spec, scan, verify_attainment
from .bhc import BhcEstimate, HlConstant, check_sh, estimate_E, family, hl_constant, omega_roots
from .heathbrown import HbCandidate, HbScan, derive_upper_bounds, qualifies, scan_hb

__all__ = [
    "is_prime",
    "factorize",
    "tau",
    "big_omega",
    "divisors",
    "two_adic_valuation",
    "primes_in_range",
    "InvariantProfile",
    "profile",
    "counts",
    "census",
    "ClassCensus",
    "ClassEntry",
    "GoldenRow",
    "golden_table",
    "verify_golden",
    "PermGroup",
    "Subgroup",
    "OracleClass",
    "ResourceLimitError",
    "build_psl2",
    "enumerate_subgroups",
    "classify",
    "oracle_census",
    "CaseSpec",
    "TripleHit",
    "SearchSummary",
    "case_spec",
    "scan",
    "verify_attainment",
    "PolynomialFamily",
    "HlConstant",
    "BhcEstimate",
    "family",
    "check_sh",
    "omega_roots",
    "hl_constant",
    "estimate_E",
    "HbCandidate",
    "HbScan",
    "qualifies",
    "scan_hb",
    "derive_upper_bounds",
]

__version__ = "0.1.0"
