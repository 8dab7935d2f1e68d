"""Scan for the primes behind the unconditional upper bounds.

Heath-Brown's sieve result gives, with no unproved hypothesis, infinitely
many primes p = 5 mod 72 for which p - 1 and p + 1 together carry at most 11
prime factors (with multiplicity), at most 8 on either side.  For every
such prime the divisor-split profile is pinned down far enough (k = 0,
l = 1, sigma = 0) that the four subgroup-class counts admit absolute upper
bounds.  Those bounds are derived here by pushing the extremal admissible
profiles through invariants.counts rather than by quoting numbers.

The scan runs along t with p = 72t + 5, where p - 1 = 4(18t + 1) and
p + 1 = 6(12t + 1) with both linear forms prime to 6: one factor-count
sieve per form gives Omega(p -+ 1) and the divisor counts of (p -+ 1)/2
for a whole segment of t at once, and the exact prime sieve picks the t
where p is prime.  The result is columnar, one int64 array per quantity,
so that the bounds check downstream runs on whole columns.  map_hb shares
the segments out over runner.run, and each worker reduces its own segment.
qualifies() is the one-prime reference path, by factorisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import arith, invariants, runner

HB_MODULUS = 72
HB_RESIDUE = 5
HB_TOTAL_LIMIT = 11   # Omega(p-1) + Omega(p+1)
HB_SIDE_LIMIT = 8     # Omega on either side


@dataclass(frozen=True)
class HbCandidate:
    """A prime with its factor-count data and qualification verdict."""

    p: int
    omega_minus: int  # Omega(p - 1)
    omega_plus: int   # Omega(p + 1)
    qualifies: bool
    profile: invariants.InvariantProfile | None


def qualifies(p: int) -> HbCandidate:
    """Check one prime against the congruence and factor-count conditions."""
    if not arith.is_prime(p):
        raise ValueError(f"qualifies requires a prime, got {p}")
    om = arith.big_omega(p - 1) if p > 2 else 0
    op = arith.big_omega(p + 1)
    ok = (
        p % HB_MODULUS == HB_RESIDUE
        and om + op <= HB_TOTAL_LIMIT
        and om <= HB_SIDE_LIMIT
        and op <= HB_SIDE_LIMIT
    )
    prof = invariants.profile(p) if p >= 5 else None
    return HbCandidate(p=p, omega_minus=om, omega_plus=op, qualifies=ok, profile=prof)


@dataclass(frozen=True, eq=False)
class HbScan:
    """The qualifying primes up to a limit, ascending, as int64 columns.

    Row j is the prime p[j] with Omega(p - 1) and Omega(p + 1); profile is
    the column profile the scan checked, whose delta and epsilon are the
    divisor counts of (p + 1)/2 and (p - 1)/2.  qualifies(p[j]) gives the
    same numbers one prime at a time.
    """

    p: np.ndarray
    omega_minus: np.ndarray  # Omega(p - 1)
    omega_plus: np.ndarray   # Omega(p + 1)
    profile: invariants.InvariantProfile

    def __len__(self) -> int:
        return len(self.p)


def scan_segment(lo: int, hi: int) -> HbScan:
    """The qualifying primes p = 72t + 5 with t in [lo, hi], ascending.

    arith.factor_counts sieves 18t + 1 and 12t + 1 over the segment, and
    arith.sieve_forms gives the t where p is prime, so no p -+ 1 is factored
    one at a time.  Every candidate's profile must show k = 0, l = 1 and
    sigma = 0; the congruence forces that, so a violation means a bug and
    raises.
    """
    # p - 1 = 4(18t + 1) and p + 1 = 6(12t + 1): Omega(4) = Omega(6) = 2,
    # and tau((p -+ 1)/2) = 2 tau(18t + 1 | 12t + 1), as 2 and 3 are prime to both forms.
    odd_minus, tau_minus = arith.factor_counts(18, 1, lo, hi)
    odd_plus, tau_plus = arith.factor_counts(12, 1, lo, hi)
    idx = arith.sieve_forms([(HB_MODULUS, HB_RESIDUE)], lo, hi)  # offsets of the t with p prime
    om = odd_minus[idx].astype(np.int64) + 2
    op = odd_plus[idx].astype(np.int64) + 2
    keep = (om + op <= HB_TOTAL_LIMIT) & (om <= HB_SIDE_LIMIT) & (op <= HB_SIDE_LIMIT)
    idx = idx[keep]
    p = HB_MODULUS * (idx.astype(np.int64) + lo) + HB_RESIDUE
    prof = invariants.assemble_profile(p, 2 * tau_plus[idx].astype(np.int64), 2 * tau_minus[idx].astype(np.int64))
    bad = (prof.k != 0) | (prof.l != 1) | (prof.sigma != 0)
    if np.count_nonzero(bad):
        raise AssertionError(
            f"residue 5 mod 72 must force (k, l, sigma) = (0, 1, 0); p={p[bad][:3].tolist()}")
    return HbScan(p=p, omega_minus=om[keep], omega_plus=op[keep], profile=prof)


def map_hb(limit: int, fn, *, jobs: int = 1) -> list:
    """[fn(scan_segment(lo, hi)) for each segment [lo, hi] of t], in order, over runner.run.

    The segments cover p = 72t + 5 <= limit in equal parts of at most
    arith._PRIME_SEGMENT t (69,445 and 69,444 t to 1e7); each fn runs where
    its segment was sieved.  A limit whose sieve needs base primes past
    arith.PRIME_CAP raises ResourceLimitError before any segment.
    """
    if limit < HB_MODULUS + HB_RESIDUE:
        raise ValueError(f"limit below {HB_MODULUS + HB_RESIDUE} cannot contain a candidate beyond p=5")
    t_max = (limit - HB_RESIDUE) // HB_MODULUS
    arith.check_prime_cap(HB_MODULUS * t_max + HB_RESIDUE)
    count = -(-(t_max + 1) // arith._PRIME_SEGMENT)
    size = -(-(t_max + 1) // count)
    segments = [(lo, min(lo + size - 1, t_max)) for lo in range(0, t_max + 1, size)]
    return runner.run(lambda lo, hi: fn(scan_segment(lo, hi)), segments, jobs)


def scan_hb(limit: int) -> HbScan:
    """All qualifying primes up to limit, ascending, as qualifies(p) finds them: map_hb's segments joined.

    >>> found = scan_hb(300)
    >>> len(found), found.p.tolist(), found.omega_plus.tolist()
    (3, [5, 149, 293], [2, 4, 4])
    """
    parts = map_hb(limit, lambda found: found)
    prof = invariants.InvariantProfile(*map(np.concatenate, zip(*(vars(s.profile).values() for s in parts))))
    om, op = (np.concatenate([getattr(s, n) for s in parts]) for n in ("omega_minus", "omega_plus"))
    return HbScan(p=prof.p, omega_minus=om, omega_plus=op, profile=prof)


def derive_upper_bounds() -> tuple[int, int, int, int]:
    """Upper bounds for (i, c, s, n) over all qualifying primes.

    A qualifying prime has k = 0, l = 1, sigma = 0 and alpha at most 1.
    The 2-adic parts of p - 1 and p + 1 eat 3 of the 11 allowed prime
    factors, leaving an odd budget of 8 split across the two sides, with
    neither side's total exceeding its cap of 8.  tau of a number with
    Omega = j is at most 2**j, so pushing the whole odd budget onto one
    side gives delta <= 4, epsilon <= 2 * 2**6 = 128 (or the mirror
    split delta <= 128, epsilon <= 4).  The counts i, c and n weight
    epsilon more heavily than delta, so their extremes load the minus
    side; s weights the sides the other way round.  The numbers come out
    of invariants.counts, not a table.
    """
    shared = dict(k=0, l=1, sigma=0, alpha=1)
    # p is a placeholder: these extremal profiles do not belong to a
    # specific prime, they bound every admissible one.
    wide_minus = invariants.InvariantProfile(p=0, delta=2**2, epsilon=2**7, **shared)
    wide_plus = invariants.InvariantProfile(p=0, delta=2**7, epsilon=2**2, **shared)
    i, c, _, n = invariants.counts(wide_minus)
    s = invariants.counts(wide_plus)[2]
    return i, c, s, n
