"""Scans for prime triples (p, s, r) that drive the subgroup-class counts down.

The minimising shapes require (p + 1)/2 and (p - 1)/2 to split as a small
fixed factor times a prime, which confines p to four linear progressions:

  case a:  p = 12t + 5,   (p+1)/2 = 3s with s = 2t + 1,  (p-1)/2 = 2r with r = 3t + 1
  case b:  p = 12t + 7,   (p+1)/2 = 2s with s = 3t + 2,  (p-1)/2 = 3r with r = 2t + 1
  case c:  p = 12t + 11,  (p+1)/2 = 6s with s = t + 1,   (p-1)/2 = r  with r = 6t + 5
  case d:  p = 12t + 1,   (p+1)/2 = s  with s = 6t + 1,  (p-1)/2 = 6r with r = t

A t where all three values are prime is counted; it is recorded as a hit
when additionally s and r avoid 2 and 3, so that |G| = 12 p s r is a
product of six primes with the split parameters at their minima.  In cases
(a) and (b) every hit with p > 37 attains the least possible counts
(i, c, s, n) = (17, 18, 6, 12); smaller p and the other two cases can
miss one or more of them, which the attainment flags record.

Each case is kept as the forms (a, b), value a*t + b, of p, s and r, the
pair order of arith and bhc, and scanning hands them unchanged to
arith.sieve_forms, in blocks of t.  Each block's wheel classes are shared
out over worker processes by runner.run, and the shares' results are
merged so the scan stays bit-for-bit independent of the process count.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from . import arith, invariants, runner
from .bhc import PolynomialFamily
from .runner import default_jobs

CASE_IDS = ("a", "b", "c", "d")

TARGET_COUNTS = (17, 18, 6, 12)

# Per case: the forms (a, b), value a*t + b, of p, s and r, in that order.
_CASE_FORMS = {
    "a": ((12, 5), (2, 1), (3, 1)),
    "b": ((12, 7), (3, 2), (2, 1)),
    "c": ((12, 11), (1, 1), (6, 5)),
    "d": ((12, 1), (6, 1), (1, 0)),
}

# At most this many hits are built, about 1 KB each: a cap of 10**6 is about 1 GiB.
MAX_HITS = 10**6


@dataclass(frozen=True)
class CaseSpec:
    """One of the four linear progressions: the forms of p, s and r, in that order."""

    case_id: str
    polys: PolynomialFamily

    def value(self, role: str, t: int) -> int:
        return self.polys.value("psr".index(role), t)


def case_spec(case_id: str) -> CaseSpec:
    """Build a CaseSpec and check its split identities for every t.

    With p = a_p*t + b_p and m = a_m*t + b_m, (p -+ 1)/2 = mult * m holds for
    every t exactly when a_p = 2*mult*a_m and b_p -+ 1 = 2*mult*b_m.
    """
    if case_id not in CASE_IDS:
        raise ValueError(f"case must be one of {CASE_IDS}, got {case_id!r}")
    forms = _CASE_FORMS[case_id]
    (a_p, b_p), *halves = forms
    for sign, role, (a_m, b_m) in zip((1, -1), "sr", halves):
        mult = a_p // (2 * a_m)
        if (a_p, b_p + sign) != (2 * mult * a_m, 2 * mult * b_m):
            raise AssertionError(f"case {case_id}: (p{sign:+d})/2 = {mult}*{role} fails")
    return CaseSpec(case_id, PolynomialFamily(forms))


@dataclass(frozen=True)
class TripleHit:
    """A t where p, s, r are all prime and s, r >= 5."""

    case_id: str
    t: int
    p: int
    s: int
    r: int
    profile: invariants.InvariantProfile
    attains: tuple[bool, bool, bool, bool]

    def __post_init__(self):
        order = self.p * (self.p * self.p - 1) // 2
        if order != 12 * self.p * self.s * self.r:
            raise AssertionError(f"|G| != 12psr at t={self.t}")


@dataclass(frozen=True)
class SearchSummary:
    case_id: str
    t_max: int
    q_count: int
    sigma_alpha_zero_count: int
    hits: tuple[TripleHit, ...]  # truncated at the hit cap; q_count stays exact

    def to_json_dict(self) -> dict:
        return {
            "case": self.case_id,
            "t_max": self.t_max,
            "q_count": self.q_count,
            "sigma_alpha_zero": self.sigma_alpha_zero_count,
            "first_hits": [
                {"t": h.t, "p": h.p, "s": h.s, "r": h.r, "attains": list(h.attains)}
                for h in self.hits
            ],
        }


def _make_hit(spec: CaseSpec, t: int) -> TripleHit:
    """The hit at t, its profile in closed form: (p + 1)/2 = mult_plus * s and
    (p - 1)/2 = mult_minus * r, mult = a_p/(2 a_m), with s and r primes of at
    least 5, prime to the multipliers (which divide 6), so delta = 2 tau(mult_plus)
    and epsilon = 2 tau(mult_minus).  verify_attainment factors p -+ 1 instead.
    """
    (a_p, _), (a_s, _), (a_r, _) = spec.polys.polys
    p, s, r = spec.polys.values(t)
    prof = invariants.assemble_profile(p, 2 * arith.tau(a_p // (2 * a_s)), 2 * arith.tau(a_p // (2 * a_r)))
    attains = tuple(got == want for got, want in zip(invariants.counts(prof), TARGET_COUNTS))
    return TripleHit(spec.case_id, t, p, s, r, prof, attains)


def verify_attainment(hit: TripleHit) -> tuple[bool, bool, bool, bool]:
    """Recompute the four counts for a hit from scratch and compare to the minima.

    For cases (a) and (b) with s and r prime and at least 7, both square
    parts and both exceptional embeddings are forced, so sigma = alpha = 0
    is asserted along the way.
    """
    prof = invariants.profile(hit.p)
    if hit.case_id in ("a", "b") and hit.s >= 7 and hit.r >= 7:
        if prof.sigma != 0 or prof.alpha != 0:
            raise AssertionError(f"sigma/alpha nonzero at p={hit.p}")
    return tuple(got == want for got, want in zip(invariants.counts(prof), TARGET_COUNTS))


_BLOCK = 210 * 2**20  # t per block of scan: 2**20 t per class of the wheel in arith.sieve_forms


def _scan_block(args, share: tuple[int, int] = (0, 1)) -> tuple[int, int, list[int]]:
    """Scan [lo, hi] for one case; returns (q_count, sz_count, hit ts).

    One arith.sieve_forms call, on the share (k, m) of its wheel classes,
    gives the offsets of the prime triples.  The values grow with t, so the
    hits (s and r above 3) are the triples from the first t where both pass
    3, and the first hit_cap become hit ts.  p mod 40 follows from t mod 40,
    and so does sigma = alpha = 0.
    """
    case_id, lo, hi, hit_cap = args
    forms = _CASE_FORMS[case_id]
    (a_p, b_p), *halves = forms
    offsets = arith.sieve_forms(forms, lo, hi, share=share)
    t_hit = max((3 - b) // a + 1 for a, b in halves)
    hits = offsets[np.searchsorted(offsets, t_hit - lo) :]
    zero = np.array([invariants.sigma_alpha(a_p * (lo + c) + b_p) == (0, 0) for c in range(40)])  # t = lo + c mod 40
    sz_count = int(np.count_nonzero(zero[hits % 40]))
    return offsets.size, sz_count, (hits[:hit_cap].astype(np.int64) + lo).tolist()


def scan(
    spec: CaseSpec,
    t_max: int,
    *,
    hit_cap: int = 10000,
    jobs: int = 1,
    progress: bool = False,
) -> SearchSummary:
    """Count prime triples for t in [1, t_max] and record hits.

    q_count is exact regardless of hit_cap.  Each block's wheel classes
    (arith.wheel_classes) are split into one share per worker, run by
    runner.run: this process sieves share 0, and a child forked for the
    block each of the others.  workers is the least of jobs, default_jobs()
    and the block's classes (at least 1).  The shares' counts are
    summed and their hit ts merged, and blocks are merged in order, so the
    result is identical for every jobs value.  A hit_cap above MAX_HITS or a t_max
    whose base primes would pass arith.PRIME_CAP raises ResourceLimitError
    before the first block.  With progress, each merged block prints the t
    done, the rate and an ETA on stderr.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if 12 * t_max + 11 > arith.U64_MAX:
        raise ValueError("t_max too large for 64-bit polynomial values")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if hit_cap < 0:
        raise ValueError("hit_cap must be at least 0")
    if hit_cap > MAX_HITS:
        raise arith.ResourceLimitError(f"hit_cap {hit_cap} exceeds the cap {MAX_HITS} on the hits built")
    forms = spec.polys.polys
    arith.check_prime_cap(max(a * t_max + b for a, b in forms))

    q_count = 0
    sz_count = 0
    hit_ts: list[int] = []
    started = time.monotonic()
    for lo in range(1, t_max + 1, _BLOCK):
        hi = min(lo + _BLOCK - 1, t_max)
        workers = min(jobs, default_jobs(), max(1, len(arith.wheel_classes(forms, lo, hi)[1])))  # share 0 holds the special t
        args = (spec.case_id, lo, hi, hit_cap)
        shares = runner.run(_scan_block, [(args, (k, workers)) for k in range(workers)], workers)
        q_count += sum(q for q, _, _ in shares)
        sz_count += sum(sz for _, sz, _ in shares)
        hit_ts.extend(sorted(t for _, _, ts in shares for t in ts)[: hit_cap - len(hit_ts)])
        if progress:
            print(runner.progress_line(f"scan {spec.case_id}", hi, t_max, started), file=sys.stderr)
    hits = tuple(_make_hit(spec, t) for t in hit_ts)
    return SearchSummary(
        case_id=spec.case_id,
        t_max=t_max,
        q_count=q_count,
        sigma_alpha_zero_count=sz_count,
        hits=hits,
    )
