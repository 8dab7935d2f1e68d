"""Scans for prime triples (p, s, r) that drive the subgroup-class counts down.

The minimising shapes are splits: (p + 1)/2 = m+ * s and (p - 1)/2 = m- * r
with s and r prime and m+, m- coprime.  split_forms derives the linear forms
of p, s and r from (m+, m-).  A case is named M+:M- or by a row of CASES:

  case  (m+, m-)   p         s        r
  a     (3, 2)     12t + 5   2t + 1   3t + 1
  b     (2, 3)     12t + 7   3t + 2   2t + 1
  c     (6, 1)     12t + 11  t + 1    6t + 5
  d     (1, 6)     12t + 1   6t + 1   t

A t where all three values are prime is counted; it is recorded as a hit
when additionally s and r pass the floor, the largest prime of m+ m- (1 for
1:1), so that |G| = 2 m+ m- p s r with s and r prime to m+ m-, and the
profile follows from (m+, m-) alone.  In cases (a) and (b) every hit with p > 37
attains the least possible counts (i, c, s, n) = (17, 18, 6, 12); smaller p and the
other splits can miss one or more of them, which the attainment flags record.

case_spec(name) is the case as one CaseSpec: its label and split and, worked out once,
the forms (a, b), value a*t + b, of p, s and r (the pair order of arith and bhc), the
floor and the least hit value, below which no hit's s or r lies (5 in cases a-d).  A
scan sieves the forms by arith.sieve_forms in blocks of t and keeps the hits past the
floor; each block's wheel classes are shared out over workers that runner.imap forks once
per scan, and the shares' results are merged as they arrive, so the scan is bit-for-bit
the same at any process count.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import arith, invariants, runner

# Per case: the split (m+, m-) with (p + 1)/2 = m+ * s and (p - 1)/2 = m- * r.
CASES = {"a": (3, 2), "b": (2, 3), "c": (6, 1), "d": (1, 6)}

TARGET_COUNTS = (17, 18, 6, 12)

# At most this many hits are built, about 1 KB each: a cap of 10**6 is about 1 GiB.
MAX_HITS = 10**6


def split_forms(m_plus: int, m_minus: int) -> tuple[tuple[int, int], ...]:
    """The forms (a, b), value a*t + b, of p, s and r with (p + 1)/2 = m_plus * s
    and (p - 1)/2 = m_minus * r for every t.

    p = 2 m_plus m_minus t + p0, where p0 is the least value in [1, 2 m_plus m_minus]
    with 2 m_plus | p0 + 1 and 2 m_minus | p0 - 1 (one exists, by the Chinese
    remainder theorem, exactly when m_plus and m_minus are coprime); then
    s = m_minus t + (p0 + 1)/(2 m_plus) and r = m_plus t + (p0 - 1)/(2 m_minus).
    """
    if min(m_plus, m_minus) < 1 or math.gcd(m_plus, m_minus) != 1:
        raise ValueError(f"a split needs coprime m+, m- >= 1, got ({m_plus}, {m_minus})")
    p0 = 2 * m_plus * (pow(m_plus, -1, m_minus) or m_minus) - 1  # k = 1/m_plus mod m_minus in [1, m_minus]
    return (2 * m_plus * m_minus, p0), (m_minus, (p0 + 1) // (2 * m_plus)), (m_plus, (p0 - 1) // (2 * m_minus))


def split_of(name: str) -> tuple[int, int]:
    """The split (m+, m-) a case name stands for: its row of CASES for a letter,
    the pair for M+:M- in ASCII digits.  split_forms checks the pair."""
    plus, colon, minus = name.partition(":")
    if colon and name.isascii() and plus.isdigit() and minus.isdigit():
        return int(plus), int(minus)
    if name not in CASES:
        raise ValueError(f"case must be one of {', '.join(CASES)} or a split M+:M- such as 4:3, got {name!r}")
    return CASES[name]


@dataclass(frozen=True)
class CaseSpec:
    """A case: its label, its split (m+, m-) and, worked out once from it, the forms of p, s and r (split_forms
    checks the pair), the floor (the largest prime of m+ m-, or 1) and the least hit value, the next prime past it."""

    case_id: str
    split: tuple[int, int]
    polys: arith.PolynomialFamily = field(init=False)
    floor: int = field(init=False)
    least_hit: int = field(init=False)  # in (floor, 2 floor], by Bertrand's postulate

    def __post_init__(self):
        object.__setattr__(self, "polys", arith.PolynomialFamily(split_forms(*self.split)))
        object.__setattr__(self, "floor", max((q for m in self.split for q, _ in arith.factorize(m)), default=1))
        object.__setattr__(self, "least_hit", next(n for n in range(self.floor + 1, 2 * self.floor + 1) if arith.is_prime(n)))

    def value(self, role: str, t: int) -> int:
        return self.polys.value("psr".index(role), t)


def case_spec(case_id: str) -> CaseSpec:
    """The case named a, b, c, d or M+:M-, with the split split_of(case_id)."""
    return CaseSpec(case_id, split_of(case_id))


@dataclass(frozen=True)
class TripleHit:
    """A t where p, s, r are all prime, s and r past every prime of the case's m+ m-."""

    case_id: str
    t: int
    p: int
    s: int
    r: int
    profile: invariants.InvariantProfile
    attains: tuple[bool, bool, bool, bool]

    def __post_init__(self):
        m_plus, m_minus = split_of(self.case_id)
        if self.p * (self.p * self.p - 1) // 2 != 2 * m_plus * m_minus * self.p * self.s * self.r:
            raise AssertionError(f"|G| != 2 m+ m- psr at t={self.t}")


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
    """The hit at t, its profile in closed form: (p + 1)/2 = m+ * s and (p - 1)/2 = m- * r with s and r
    primes past the floor, so delta = 2 tau(m+) and epsilon = 2 tau(m-).  verify_attainment factors p -+ 1 instead.
    """
    p, s, r = spec.polys.values(t)
    prof = invariants.assemble_profile(p, *(2 * arith.tau(m) for m in spec.split))
    attains = tuple(got == want for got, want in zip(invariants.counts(prof), TARGET_COUNTS))
    return TripleHit(spec.case_id, t, p, s, r, prof, attains)


def verify_attainment(hit: TripleHit) -> tuple[bool, bool, bool, bool]:
    """Recompute the four counts for a hit from scratch and compare to the minima.

    With s and r prime and at least 7, p -+ 1 = 2 m+ s, 2 m- r fix p mod 8
    and mod 5 by the split alone, so sigma = [4 | m+ m-] and
    alpha = [5 | m+ m-] are asserted along the way.
    """
    m = math.prod(split_of(hit.case_id))
    prof = invariants.profile(hit.p)
    if min(hit.s, hit.r) >= 7 and (prof.sigma, prof.alpha) != (m % 4 == 0, m % 5 == 0):
        raise AssertionError(f"sigma/alpha at p={hit.p} differ from those of case {hit.case_id}")
    return tuple(got == want for got, want in zip(invariants.counts(prof), TARGET_COUNTS))


_BLOCK = 210 * 2**20  # at most this many t per block of scan (arith.windows): 2**20 t per class of the wheel in arith.sieve_forms


def _scan_block(args, share: tuple[int, int] = (0, 1)) -> tuple[int, int, list[int]]:
    """Scan [lo, hi] along the forms of p, s and r; returns (q_count, sz_count, hit ts).

    args is (forms, floor, lo, hi, hit_cap), with the case's forms and floor.  One
    arith.sieve_forms call, on the share (k, m) of its wheel classes, gives the offsets
    of the prime triples.  The values of s and r grow with t, so the hits (s and r past
    the floor) are the triples from the first t where both pass it, and the first
    hit_cap become hit ts.  p mod 40 follows from t mod 40, and so does sigma = alpha = 0.
    """
    forms, floor, lo, hi, hit_cap = args
    (a_p, b_p), *halves = forms
    offsets = arith.sieve_forms(forms, lo, hi, share=share)
    t_hit = max((floor - b) // a + 1 for a, b in halves)
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

    q_count is exact regardless of hit_cap.  The blocks are the equal windows of
    at most 210 * 2**20 t of arith.windows, read lazily.  Each block's wheel
    classes are split into one share per worker, and one runner.imap runs every
    block's shares: this process sieves share 0, and a child forked once per scan
    each of the others.  workers is the least of jobs, runner.default_jobs() and
    the first block's classes (at least 1).  The shares are merged in order as
    they arrive, so the result is identical for every jobs value.  A hit_cap above
    MAX_HITS or a t_max whose base primes would pass arith.PRIME_CAP raises
    ResourceLimitError, and a case with 2 m+ m- >= 2**32 ValueError, before the first
    block.  With progress, each merged block prints the t done, the rate and an ETA on stderr.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    forms = spec.polys.polys
    if forms[0][0] >= 2**32:  # the sieve's bound on a leading coefficient
        raise ValueError(f"case {spec.case_id}: the sieve needs p = a*t + b with a = 2 m+ m- < 2**32, got a = {forms[0][0]}")
    top = max(a * t_max + b for a, b in forms)
    if top > arith.U64_MAX:
        raise ValueError("t_max too large for 64-bit polynomial values")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if hit_cap < 0:
        raise ValueError("hit_cap must be at least 0")
    if hit_cap > MAX_HITS:
        raise arith.ResourceLimitError(f"hit_cap {hit_cap} exceeds the cap {MAX_HITS} on the hits built")
    arith.check_prime_cap(top)

    q_count = 0
    sz_count = 0
    hit_ts: list[int] = []
    started = time.monotonic()
    lo, hi = next(arith.windows(1, t_max, _BLOCK))  # every block but the last has its classes
    workers = min(jobs, runner.default_jobs(), max(1, len(arith.wheel_classes(forms, lo, hi)[1])))  # share 0 holds the special t
    calls = (((forms, spec.floor, a, b, hit_cap), (k, workers)) for a, b in arith.windows(1, t_max, _BLOCK) for k in range(workers))
    with contextlib.closing(runner.imap(_scan_block, calls, workers)) as shares:
        # a block's shares come before its window, so past the last block the runner finds its calls ran out
        for *block, (_, hi) in zip(*[shares] * workers, arith.windows(1, t_max, _BLOCK)):
            q_count += sum(q for q, _, _ in block)
            sz_count += sum(sz for _, sz, _ in block)
            hit_ts.extend(sorted(t for _, _, ts in block for t in ts)[: hit_cap - len(hit_ts)])
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
