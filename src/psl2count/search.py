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

Scanning runs the exact sieve of linear forms, arith.sieve_forms, over t
for the three polynomials at once, so the survivors are exactly the prime
triples.  The sieve runs in blocks so the work can spread over processes
while staying bit-for-bit independent of the process count.
"""

from __future__ import annotations

import collections
import contextlib
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import arith, invariants
from .bhc import PolynomialFamily

CASE_IDS = ("a", "b", "c", "d")

TARGET_COUNTS = (17, 18, 6, 12)

# Per case: polynomial coefficient pairs (ascending) ordered p first, then
# the remaining two by descending leading coefficient; role map into that
# tuple; and the split multipliers (p+1)/2 = mult_plus * role, etc.
_CASE_DEFS = {
    "a": (((5, 12), (1, 3), (1, 2)), {"p": 0, "r": 1, "s": 2}, (3, "s"), (2, "r")),
    "b": (((7, 12), (2, 3), (1, 2)), {"p": 0, "s": 1, "r": 2}, (2, "s"), (3, "r")),
    "c": (((11, 12), (5, 6), (1, 1)), {"p": 0, "r": 1, "s": 2}, (6, "s"), (1, "r")),
    "d": (((1, 12), (1, 6), (0, 1)), {"p": 0, "s": 1, "r": 2}, (1, "s"), (6, "r")),
}


@dataclass(frozen=True)
class CaseSpec:
    """One of the four linear progressions, with its role bookkeeping."""

    case_id: str
    polys: PolynomialFamily
    roles: dict[str, int]

    def value(self, role: str, t: int) -> int:
        return self.polys.value(self.roles[role], t)


def case_spec(case_id: str) -> CaseSpec:
    """Build a CaseSpec and self-check its split identities on t = 0..1000."""
    if case_id not in CASE_IDS:
        raise ValueError(f"case must be one of {CASE_IDS}, got {case_id!r}")
    coeffs, roles, plus, minus = _CASE_DEFS[case_id]
    spec = CaseSpec(case_id, PolynomialFamily(coeffs), dict(roles))
    for t in range(1001):
        p = spec.value("p", t)
        if (p + 1) // 2 != plus[0] * spec.value(plus[1], t):
            raise AssertionError(f"case {case_id}: (p+1)/2 split fails at t={t}")
        if (p - 1) // 2 != minus[0] * spec.value(minus[1], t):
            raise AssertionError(f"case {case_id}: (p-1)/2 split fails at t={t}")
    return spec


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

    def to_json_dict(self, *, max_hits: int | None = None) -> dict:
        shown = self.hits if max_hits is None else self.hits[:max_hits]
        return {
            "case": self.case_id,
            "t_max": self.t_max,
            "q_count": self.q_count,
            "sigma_alpha_zero": self.sigma_alpha_zero_count,
            "first_hits": [
                {"t": h.t, "p": h.p, "s": h.s, "r": h.r, "attains": list(h.attains)}
                for h in shown
            ],
        }


def _make_hit(spec: CaseSpec, t: int) -> TripleHit:
    p = spec.value("p", t)
    s = spec.value("s", t)
    r = spec.value("r", t)
    prof = invariants.profile(p)
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


def _sigma_alpha_zero(p: int) -> bool:
    return p % 8 in (3, 5) and p % 5 in (2, 3, 0)


def _scan_block(args) -> tuple[int, int, list[int]]:
    """Scan [lo, hi] for one case; returns (q_count, sz_count, hit ts).

    arith.sieve_forms leaves exactly the t where all three values are
    prime; each is counted, and the first hit_cap with s and r at least 5
    are kept as hits.
    """
    case_id, lo, hi, hit_cap = args
    coeffs, roles, _, _ = _CASE_DEFS[case_id]
    polys = [(c[1], c[0]) for c in coeffs]  # (a, b) with value a*t + b
    survivors = np.flatnonzero(arith.sieve_forms(polys, lo, hi)).tolist()
    sz_count = 0
    hit_ts: list[int] = []
    p_idx, s_idx, r_idx = roles["p"], roles["s"], roles["r"]
    for off in survivors:
        t = lo + off
        p = polys[p_idx][0] * t + polys[p_idx][1]
        s = polys[s_idx][0] * t + polys[s_idx][1]
        r = polys[r_idx][0] * t + polys[r_idx][1]
        if s in (2, 3) or r in (2, 3):
            continue
        if _sigma_alpha_zero(p):
            sz_count += 1
        if len(hit_ts) < hit_cap:
            hit_ts.append(t)
    return len(survivors), sz_count, hit_ts


def _in_order(pool, block_args, depth: int):
    """_scan_block over block_args on pool, results in order, at most depth blocks in flight."""
    pending: collections.deque = collections.deque()
    for args in block_args:
        pending.append(pool.submit(_scan_block, args))
        if len(pending) == depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def scan(
    spec: CaseSpec,
    t_max: int,
    *,
    hit_cap: int = 10000,
    jobs: int = 1,
    block_size: int = 4_000_000,
    progress: bool = False,
) -> SearchSummary:
    """Count prime triples for t in [1, t_max] and record hits.

    q_count is exact regardless of hit_cap.  Blocks are merged in index
    order, so the result is identical for every jobs value.  Blocks are made
    as the pool takes them, and a t_max whose base primes would pass
    arith.PRIME_CAP raises ResourceLimitError before the first.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if 12 * t_max + 11 > arith.U64_MAX:
        raise ValueError("t_max too large for 64-bit polynomial values")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if hit_cap < 0:
        raise ValueError("hit_cap must be at least 0")
    if block_size < 1:
        raise ValueError("block_size must be at least 1")
    coeffs = _CASE_DEFS[spec.case_id][0]
    arith.check_prime_cap(max(a * t_max + b for b, a in coeffs))

    n_blocks = -(-t_max // block_size)
    block_args = (
        (spec.case_id, lo, min(lo + block_size - 1, t_max), hit_cap)
        for lo in range(1, t_max + 1, block_size)
    )
    q_count = 0
    sz_count = 0
    hit_ts: list[int] = []
    workers = min(jobs, n_blocks)  # a single block runs in-process
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext() as pool:
        blocks = _in_order(pool, block_args, 2 * workers) if pool else map(_scan_block, block_args)
        for i, (q, sz, ts) in enumerate(blocks, 1):
            q_count += q
            sz_count += sz
            hit_ts.extend(ts[: hit_cap - len(hit_ts)])
            if progress:
                print(f"scan {spec.case_id}: block {i}/{n_blocks}", file=sys.stderr)
    hits = tuple(_make_hit(spec, t) for t in hit_ts)
    return SearchSummary(
        case_id=spec.case_id,
        t_max=t_max,
        q_count=q_count,
        sigma_alpha_zero_count=sz_count,
        hits=hits,
    )


def default_jobs() -> int:
    return os.cpu_count() or 1
