"""Integer arithmetic helpers: primality, factorization, divisor counts, families of
linear forms (PolynomialFamily), two sieves of such forms with one input check and one
root set-up (sieve_forms for primes, by a wheel mod 210 or 1 from the window length,
and factor_counts), the one cut of t, windows, and the one source of primes, prime_segments.

Everything here is exact and deterministic.  Primality testing uses a fixed
witness set that is proven correct for all inputs below 2**64, so no function
in this module accepts larger arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

U64_MAX = 2**64 - 1

# The largest prime any prime list or array here reaches: check_prime_cap
# refuses a sieve window whose base primes would pass it, and
# bhc.hl_constant a truncation above it (it walks the primes in segments,
# so the cap bounds its time, not its memory).  prime_array(PRIME_CAP)
# would be a 46 MB uint64 array.
PRIME_CAP = 10**8

# The default of windows(), read only here: at most this many t per window of prime_segments (p = 2t + 1),
# bhc.hl_constant and heathbrown.map_hb, where it makes a 1 MiB uint64 residual per form.  Measured through
# bhc.hl_constant on case a, 2 cores, at 2**16, 2**17 and 2**18: the traced
# peak at a truncation of 10**7 is 0.8, 1.6 and 3.0 MiB (ru_maxrss of the
# whole bhc command 31.9, 32.1 and 34.4 MiB), and 10**8 takes 0.61, 0.59
# and 0.54 s (best of 3), as each window strikes with every base prime again.
_PRIME_SEGMENT = 2**17

# sieve_forms sieves a window of at least _WHEEL_MIN t by classes mod
# _WHEEL = 2*3*5*7, and a shorter one as its one class mod 1.  prime_segments
# and heathbrown windows (at most 2**17 t) are shorter; a scan block is not.
_WHEEL, _WHEEL_MIN = 210, 2**20

# strike_form has every prime with at most this many hits in its window (J)
# strike in one vector round, and each shorter prime by a strided slice,
# splitting the sieving primes by size against the window as Oliveira e
# Silva, Herzog and Pardi (Math. Comp. 83, 2014) do; factor_counts does not.
_VECTOR_HITS = 64

# Strong-pseudoprime witnesses covering every n < 2**64 (the seven-base set
# found by Sinclair; verified minimal for this range).
_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class ResourceLimitError(RuntimeError):
    """Raised before a computation whose working set would pass a fixed cap."""


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n <= 2**64 - 1.

    >>> is_prime(1), is_prime(43), is_prime(8191)
    (False, True, True)
    """
    if n < 0 or n > U64_MAX:
        raise ValueError("is_prime is only deterministic for 0 <= n < 2**64")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime_cap(top: int) -> None:
    """Raise ResourceLimitError if sieving values up to top needs base primes past PRIME_CAP."""
    if math.isqrt(max(top, 0)) > PRIME_CAP:
        raise ResourceLimitError(f"values up to {top} need base primes above the cap {PRIME_CAP}")


def prime_array(n: int) -> np.ndarray:
    """The primes up to n, ascending, as a uint64 array.

    Up to _TABLE_TOP a slice of a fixed table; above it the windows of
    prime_segments(2, n) joined, whose own base primes come from the table
    for n below 2**32.
    """
    if n <= _TABLE_TOP:
        return _TABLE[: np.searchsorted(_TABLE, n, side="right")]
    return np.concatenate(list(prime_segments(2, n)))


def inverse_mod(a: int, primes: np.ndarray) -> np.ndarray:
    """a**-1 mod q for every uint64 prime q in primes, and 0 where q divides a.

    For 1 <= a < 2**32.  x = (k*q + 1)/a is the inverse when k = -q**-1 mod
    a, and k depends only on q mod a: so Python inverts each residue mod a
    (or, when a passes the number of primes, each prime's residue) once,
    and the rest is a few vector operations.  k < 2**32 and q < 2**27 keep
    k*q + 1 below 2**59.  Where q divides a, gcd(q mod a, a) = q, so k = 0
    and x = 0.
    """
    residue = primes % np.uint64(a)
    tabled = a <= primes.size
    k = np.array(
        [-pow(r, -1, a) % a if math.gcd(r, a) == 1 else 0 for r in (range(a) if tabled else residue.tolist())],
        dtype=np.uint64,
    )
    if tabled:
        k = k[residue]
    return (k * primes + np.uint64(1)) // np.uint64(a)


@dataclass(frozen=True)
class PolynomialFamily:
    """A finite family of linear integer polynomials, each a pair (a, b) for a*t + b with a >= 1."""

    polys: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.polys:
            raise ValueError("family must contain at least one polynomial")
        for coeffs in self.polys:
            if len(coeffs) != 2:
                raise ValueError(f"members are coefficient pairs (a, b) for a*t + b, got {coeffs}")
            if coeffs[0] < 1:
                raise ValueError(f"leading coefficients must be positive, got {coeffs}")
            if any(abs(c) > U64_MAX for c in coeffs):
                raise ValueError("coefficients must fit in 64 bits")

    @property
    def m(self) -> int:
        return len(self.polys)

    def value(self, index: int, t: int) -> int:
        a, b = self.polys[index]
        return a * t + b

    def values(self, t: int) -> tuple[int, ...]:
        return tuple(self.value(i, t) for i in range(self.m))


def _check_forms(forms, lo: int, hi: int) -> int:
    """What both sieves accept; returns the largest value, max(a*hi + b) over forms.

    ValueError for no forms, lo > hi, or a form without 1 <= a < 2**32,
    gcd(a, b) = 1 and every |a*t + b| < 2**64; then, before any base prime
    is fetched, check_prime_cap.
    """
    if not forms:
        raise ValueError("a sieve of linear forms requires at least one form")
    if lo > hi:
        raise ValueError(f"a sieve of linear forms requires lo <= hi, got [{lo}, {hi}]")
    for a, b in forms:
        if not 1 <= a < 2**32 or math.gcd(a, b) != 1:
            raise ValueError(f"a sieve of linear forms requires 1 <= a < 2**32 and gcd(a, b) = 1, got ({a}, {b})")
        if a * hi + b > U64_MAX or a * lo + b < -U64_MAX:
            raise ValueError("a sieve of linear forms requires every value below 2**64 in absolute value")
    top = max(a * hi + b for a, b in forms)
    check_prime_cap(top)
    return top


def _roots(a: int, v: int, n: int, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, inv, off): each q in primes with a root in a window of n t, a**-1 mod q, and the least such offset.

    v = a*lo + b, |v| < 2**64, and off is the least o >= 0 with v + a*o = 0
    mod q.  A prime dividing a (inverse 0) divides no value, as gcd(a, b) = 1,
    and is dropped with every prime whose first root lies past the window.
    """
    inv = inverse_mod(a, primes)
    neg = np.uint64(abs(v)) % primes  # -v mod q
    if v > 0:
        neg = primes - neg  # in [1, q]: off is still below q
    off = neg * inv % primes
    keep = (inv != 0) & (off < n)
    return primes[keep], inv[keep], off[keep]


def strike_form(mask: np.ndarray, lo: int, a: int, b: int, primes: np.ndarray, roots: np.ndarray) -> None:
    """Clear mask, over t in [lo, lo + mask.size), wherever a*t + b is below 2 or composite.

    primes holds, as ascending uint64, every prime not dividing a up to
    isqrt of the largest value that divides some a*t + b in the window (any
    other prime never strikes), and roots their first roots' offsets from
    lo, as _roots gives them.  Each q strikes the t with a*t + b = 0 mod q
    and a*t + b >= q*q, from the first such t.  Primes whose first such t lies
    past the window are dropped.  Of the rest, in a window of n t, a prime
    q < n/_VECTOR_HITS strikes one strided slice, and every longer prime has
    at most _VECTOR_HITS such t in the window, which _hits lists for all of
    them at once, so they strike in one fancy-index assignment.
    """
    n = mask.size
    d = min(max(0, (1 - b) // a - lo + 1), n)  # the first d values are below 2
    mask[:d] = False
    if d == n:
        return
    v = a * (lo + d) + b  # 2 <= v < 2**64
    start = roots.copy() if d == 0 else (roots + primes - np.uint64(d) % primes) % primes
    j = int(np.searchsorted(primes, math.isqrt(v), side="right"))  # from j on, q*q > v
    if j < primes.size:
        q = primes[j:]
        f = (q * q - np.uint64(v + 1)) // np.uint64(a) + np.uint64(1)  # first offset with value >= q*q
        start[j:] = f + (start[j:] + q - f % q) % q
    n -= d
    live = start < n  # the rest have no t to strike in the window
    start, primes = start[live] + np.uint64(d), primes[live]
    k = int(np.searchsorted(primes, -(-n // _VECTOR_HITS)))  # from k on, q*_VECTOR_HITS >= n
    for s, q in zip(start[:k].tolist(), primes[:k].tolist()):
        mask[s::q] = False
    if k < primes.size:
        mask[_hits(start[k:], primes[k:], mask.size)[0]] = False


def _hits(start: np.ndarray, step: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(idx, count): every s + i*q below n, i >= 0, for each s < n in start and q in
    step, and how many for each q.  idx is the strides repeated, each q's first
    stride replaced by the gap from the previous q's last hit, and summed up.  The
    int64 cast is exact: a q is at most a sieved value, below (PRIME_CAP + 1)**2 < 2**63.

    >>> [x.tolist() for x in _hits(np.array([1, 0], dtype=np.uint64), np.array([4, 7], dtype=np.uint64), 10)]
    [[1, 5, 9, 0, 7], [3, 2]]
    """
    s, q = start.astype(np.int64), step.astype(np.int64)
    count = (n - 1 - s) // q + 1
    last = s + (count - 1) * q
    idx = np.repeat(q, count)
    idx[np.cumsum(count) - count] = s - np.append(0, last[:-1])  # at each q's first hit
    return np.cumsum(idx, out=idx), count


def wheel_classes(forms, lo: int, hi: int) -> tuple[int, list[int]]:
    """(w, classes): the modulus sieve_forms takes on [lo, hi] and the classes r mod w it sieves.

    w = _WHEEL on a window of at least _WHEEL_MIN t, else 1; the classes are
    those with a t in the window where every value a*t + b is prime to w.
    """
    w = _WHEEL if hi - lo + 1 >= _WHEEL_MIN else 1
    return w, [
        r for r in range(w)
        if -((r - lo) // w) <= (hi - r) // w and all(math.gcd(a * r + b, w) == 1 for a, b in forms)
    ]


def sieve_forms(forms, lo: int, hi: int, *, share: tuple[int, int] = (0, 1)) -> np.ndarray:
    """The offsets t - lo, ascending, of the t in [lo, hi] where every a*t + b in forms is prime.

    forms holds (a, b) pairs that pass _check_forms.  Exact sieve:
    strike_form has each prime q <= isqrt(largest value) strike, per form,
    the t with a*t + b = 0 mod q and a*t + b >= q*q.  A composite value is
    at least the square of its least prime factor, so it is struck; a prime
    value q is below q*q, so it never is, and values below 2 are masked.
    One loop sieves the classes r mod w of wheel_classes, where every value
    is prime to w (a wheel: Pritchard, Acta Informatica 17, 1982), each as
    the forms (w*a, a*r + b) in u with t = w*u + r, whose roots come from
    those of _roots in t through 1/w mod q (0 at the primes dividing w:
    dropped).  w = 210 on a window of at least _WHEEL_MIN t, where a t in
    any other class survives only if a value is 2, 3, 5 or 7 and is tested
    by is_prime; else w = 1, one class and no such t.  share = (k, m) sieves
    only every m-th class from the k-th, and only share 0 tests those t, so
    the m shares' offsets together are the whole window's.  A stable sort
    merges the classes' offsets: one linear pass on a single class.
    """
    top = _check_forms(forms, lo, hi)
    n = hi - lo + 1
    w, classes = wheel_classes(forms, lo, hi)
    k, m = share
    primes = prime_array(math.isqrt(max(top, 0)))  # max(top, 0) admits all-negative values
    roots = [_roots(a, a * lo + b, n, primes) for a, b in forms]
    roots = [(q, off, inverse_mod(w, q)) for q, _, off in roots]
    roots = [(q[inv != 0], off[inv != 0], inv[inv != 0]) for q, off, inv in roots]  # q | w divides no value in a class
    special = () if k else {
        (v - b) // a for a, b in forms for v in (2, 3, 5, 7) if w % v == 0 and (v - b) % a == 0}
    parts = [np.array([t - lo for t in special if lo <= t <= hi and all(
        a * t + b >= 2 and is_prime(a * t + b) for a, b in forms)], dtype=np.intp)]
    for r in classes[k::m]:
        u_lo, u_hi = -((r - lo) // w), (hi - r) // w
        mask = np.ones(u_hi - u_lo + 1, dtype=bool)
        shift = w * u_lo + r - lo  # t at u_lo, less lo
        for (a, b), (q, off, inv) in zip(forms, roots):
            strike_form(mask, u_lo, w * a, a * r + b, q, (off + q - np.uint64(shift) % q) * inv % q)  # < 2q*q
        idx = np.flatnonzero(mask)
        idx *= w
        idx += shift
        parts.append(idx)
    out = np.concatenate(parts)
    out.sort(kind="stable")
    return out


def factor_counts(a: int, b: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Omega (int8) and tau (int32) of a*t + b for every t in [lo, hi].

    The window passes _check_forms and every value is at least 1.  Each prime
    power q**e up to the largest value, with q <= isqrt(largest value),
    strikes the t with a*t + b = 0 mod q**e from lo on: one more prime
    factor, tau times (e + 1)/e, and the value's uint64 residual divided by
    q.  A residual above 1 at the end has no prime factor up to the square
    root of its value, so it is one more prime.  The roots mod q come from
    _roots, and the first multiple of q**e from the one of q**(e - 1) by a
    Hensel step; a window with none has none of q**(e + 1) either, so the
    powers of q stop there.  Each level strikes all its powers in one round
    of ufunc.at on _hits (two powers can hit one t), so a window costs about
    its number of hits, n*log log of its values.  Numpy-typed scalars keep
    ufunc.at on its indexed fast path: a Python int is some 30 times slower.

    >>> [w.tolist() for w in factor_counts(1, 0, 1, 12)]
    [[0, 1, 1, 2, 1, 2, 1, 3, 2, 2, 1, 3], [1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6]]
    """
    first = a * lo + b
    if first < 1:
        raise ValueError("factor_counts requires every value to be at least 1")
    top = _check_forms([(a, b)], lo, hi)
    n = hi - lo + 1
    residual = np.arange(n, dtype=np.uint64)
    residual *= np.uint64(a)
    residual += np.uint64(first)
    omega = np.zeros(n, dtype=np.int8)
    tau = np.ones(n, dtype=np.int32)
    q, inv, off = _roots(a, first, n, prime_array(math.isqrt(top)))
    qe, e = q, 1  # off: offset of the first multiple of qe
    while q.size:
        hit, count = _hits(off, qe, n)
        np.add.at(omega, hit, np.int8(1))
        if e > 1:  # each hit's tau holds a factor e for its own q; at e = 1 the division is by one
            np.floor_divide.at(tau, hit, np.int32(e))
        np.multiply.at(tau, hit, np.int32(e + 1))
        np.floor_divide.at(residual, hit, np.repeat(q, count))
        # Hensel: the value at off is a multiple w of qe, and off + qe*c is
        # a multiple of qe*q when w/qe + a*c = 0 mod q.
        w = (off * np.uint64(a) + np.uint64(first)) // qe % q
        off = off + qe * ((q - w) % q * inv % q)
        keep = (qe <= np.uint64(top) // q) & (off < n)  # off may wrap where qe*q passes top
        qe = qe * q
        e += 1
        q, inv, qe, off = q[keep], inv[keep], qe[keep], off[keep]
    rest = residual > 1
    omega[rest] += 1
    tau[rest] *= 2
    return omega, tau


def windows(lo: int, hi: int, size: int | None = None):
    """The fewest windows (a, b) of at most size t (_PRIME_SEGMENT, read at the call, by default) that cover
    [lo, hi], ascending, lazily and all of one length but the last: the one cut of every walk over t."""
    n = max(hi - lo + 1, 1)
    step = -(-n // -(-n // (_PRIME_SEGMENT if size is None else size)))
    return ((a, min(a + step - 1, hi)) for a in range(lo, hi + 1, step))


def prime_segments(lo: int, hi: int):
    """The primes p with lo <= p <= hi, ascending, as uint64 arrays.

    2 first when it is in range, then the odd primes 2t + 1 of one window of windows() per
    array, equal windows of at most 2**17 t, each sieved by sieve_forms with its own base
    primes, so memory stays flat in the length of the range.  This is the one walk over a
    range of primes; prime_array and primes_in_range are views of it.  The checks run on the
    first next(): lo > hi or hi past 2**64 raise ValueError, and a window whose base primes
    would pass PRIME_CAP raises ResourceLimitError before it is sieved.
    """
    if lo > hi:
        raise ValueError("prime_segments requires lo <= hi")
    if hi > U64_MAX:
        raise ValueError("prime_segments requires hi < 2**64")
    if lo <= 2 <= hi:
        yield np.array([2], dtype=np.uint64)
    for t_lo, t_hi in windows(max(lo, 2) // 2, (hi - 1) // 2):
        # in place: a suspended generator keeps its locals alive
        primes = sieve_forms([(2, 1)], t_lo, t_hi).astype(np.uint64)
        primes *= np.uint64(2)
        primes += np.uint64(2 * t_lo + 1)
        yield primes


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending: prime_segments as one list."""
    out: list[int] = []
    for primes in prime_segments(lo, hi):
        out += primes.tolist()
    return out


# The primes prime_array slices: seeded with those up to 40, then
# extended to 2**16 by prime_array itself.
_TABLE_TOP, _TABLE = 40, np.array(_SMALL_PRIMES, dtype=np.uint64)
_TABLE_TOP, _TABLE = 2**16, prime_array(2**16)

_TRIAL = tuple(prime_array(1000).tolist())


def _brent_rho(n: int) -> int:
    """Return a nontrivial factor of odd composite n (Brent's cycle variant).

    The polynomial offset c is retried deterministically, so the whole
    factorization pipeline is reproducible run to run.
    """
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # unreachable for n < 2**64


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Factor a positive 64-bit integer into its (prime, exponent) pairs, sorted by prime.

    Trial division peels small primes, Brent's rho splits what remains.
    factorize(1) is the empty tuple.

    >>> factorize(18)
    ((2, 1), (3, 2))
    """
    if n < 1 or n > U64_MAX:
        raise ValueError("factorize requires 1 <= n < 2**64")
    counts: dict[int, int] = {}
    m = n
    for p in _TRIAL:
        if p * p > m:
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            counts[v] = counts.get(v, 0) + 1
            continue
        d = _brent_rho(v)
        stack.append(d)
        stack.append(v // d)
    return tuple(sorted(counts.items()))


def tau(n: int) -> int:
    """Number of positive divisors of n."""
    out = 1
    for _, e in factorize(n):
        out *= e + 1
    return out


def big_omega(n: int) -> int:
    """Number of prime factors of n counted with multiplicity."""
    return sum(e for _, e in factorize(n))


def divisors(n: int) -> list[int]:
    """Sorted list of all positive divisors of n."""
    divs = [1]
    for p, e in factorize(n):
        pk = 1
        ext = []
        for _ in range(e):
            pk *= p
            ext.extend(d * pk for d in divs)
        divs.extend(ext)
    divs.sort()
    return divs


def two_adic_valuation(n):
    """Exponent of the largest power of two dividing n (n >= 1).

    Elementwise on an int64 array, giving an int64 array; an int gives an int.

    >>> two_adic_valuation(96), two_adic_valuation(np.array([1, 2, 96])).tolist()
    (5, [0, 1, 5])
    """
    column = isinstance(n, np.ndarray)
    if (n < 1).any() if column else n < 1:
        raise ValueError("two_adic_valuation requires n >= 1")
    low = n & -n  # the lowest set bit
    return np.bitwise_count(low - 1).astype(np.int64) if column else low.bit_length() - 1
