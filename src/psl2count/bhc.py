"""Bateman-Horn style estimates for families of linear integer polynomials.

For a family f_1, ..., f_m satisfying the usual hypotheses (positive
leading coefficients, irreducible, product with no fixed prime divisor),
the predicted count of t <= x at which every f_i(t) is prime is

    E(x) = C * integral from a to x of dt / prod_i ln f_i(t),

where a is the first integer at which all values reach 2 and C is the
Hardy-Littlewood product over primes of
(1 - 1/p)^(-m) * (1 - omega(p)/p), with omega(p) the number of roots of
the product modulo p.  The integral is bracketed by midpoint and
trapezoid sums (integrate_bracket), so its error comes with a bound.

Each member is a pair (a, b) for a*t + b with a >= 1, the pair order of
arith, so (12, 5) is 12*t + 5.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import arith, runner
from .arith import PolynomialFamily


def family(*polys: tuple[int, int]) -> PolynomialFamily:
    return PolynomialFamily(tuple(tuple(c) for c in polys))


def check_sh(fam: PolynomialFamily) -> int | None:
    """The least fixed prime divisor of the family product, or None when it has none.

    Every member is linear with a positive leading coefficient, so irreducible.
    A prime q is a fixed divisor of the product when the product vanishes
    at every residue, omega_roots(fam, q) == q.  That can only arise from
    q at most m (the m members have at most m roots mod q between them
    unless one vanishes identically) or from q dividing both coefficients
    of one member, so those two finite sets of candidates decide the
    matter.
    """
    candidates = set(arith.prime_array(fam.m).tolist())
    for coeffs in fam.polys:
        content = math.gcd(*coeffs)
        if content > 1:
            candidates.update(q for q, _ in arith.factorize(content))
    return next((q for q in sorted(candidates) if omega_roots(fam, q) == q), None)


def omega_roots(fam: PolynomialFamily, p: int) -> int:
    """Number of t mod p at which the family product vanishes.

    A member a*t + b has the one root -b/a when p does not divide a, none
    when p divides a but not b, and vanishes at every t (omega is then p)
    when p divides both.
    """
    if p < 2 or not arith.is_prime(p):
        raise ValueError("omega_roots requires a prime modulus")
    roots: set[int] = set()
    for a, b in fam.polys:
        if a % p:
            roots.add(-b * pow(a, -1, p) % p)
        elif b % p == 0:
            return p
    return len(roots)


def _primitive(a: int, b: int) -> tuple[int, int]:
    """The member a*t + b divided by its content."""
    content = math.gcd(a, b)
    return a // content, b // content


def _mod_primes(n: int, primes: np.ndarray) -> np.ndarray:
    """n mod p for every p in a uint64 array of primes below 2**32, for any integer n.

    Horner over the 32-bit limbs of |n|: the remainder stays below p < 2**32,
    so remainder * 2**32 + limb fits in uint64.
    """
    rem = np.zeros_like(primes)
    mag = abs(n)
    for shift in range(32 * ((mag.bit_length() - 1) // 32), -1, -32):
        rem <<= np.uint64(32)
        rem |= np.uint64((mag >> shift) & 0xFFFFFFFF)
        rem %= primes
    return rem if n >= 0 else (primes - rem) % primes


def _omega(fam: PolynomialFamily, primes: np.ndarray) -> np.ndarray:
    """omega(p) for every p in a uint64 array of primes below 2**32.

    Let g_1, ..., g_k be the distinct primitive parts a_i*t + b_i of the
    members.  At a prime dividing no member's leading coefficient and no
    resultant a_i*b_j - a_j*b_i, no member vanishes mod p and the g_i have
    k distinct roots, so omega(p) = k.
    Only those finitely many exceptional primes are counted by omega_roots.
    Distinct g_i are not proportional, so every resultant is nonzero.
    An array whose least prime exceeds every exceptional |n|, as every
    Euler window of hl_constant past the first few, takes omega = k at once.
    """
    primitive = sorted({_primitive(a, b) for a, b in fam.polys})
    exceptional = [a for a, _ in fam.polys]
    exceptional += [a_i * b_j - a_j * b_i for i, (a_i, b_i) in enumerate(primitive) for a_j, b_j in primitive[:i]]
    omega = np.full(len(primes), len(primitive), dtype=np.int64)
    if not len(primes) or int(primes[0]) > max(map(abs, exceptional)):
        return omega
    exact = np.zeros(len(primes), dtype=bool)
    for n in exceptional:
        # primes ascend, and a nonzero n has no prime divisor above |n|
        end = int(np.searchsorted(primes, min(abs(n), 2**32), side="right"))
        exact[:end] |= _mod_primes(n, primes[:end]) == 0
    for i in np.flatnonzero(exact):
        omega[i] = omega_roots(fam, int(primes[i]))
    return omega


# Every finite float64 is an integer multiple of 2**-_SUM_SCALE: frexp
# gives it as M * 2**(e - 53) with an integer |M| < 2**53 and e >= -1073.
_SUM_SCALE = 1126
_BAND = 10  # frexp exponents summed at once: M * 2**(e - least e) stays below 2**62


def _band_sum(terms: np.ndarray, e: int, out: np.ndarray) -> int:
    """The exact sum of float64 terms with frexp exponents in [e, e + _BAND), in units of 2**(e - 53).

    Scaled by 2**(53 - e), each term is an integer v, M of _SUM_SCALE shifted left
    by at most 9 bits, so |v| < 2**62.  Its halves v >> 31 and v & (2**31 - 1) lie in
    [-2**31, 2**31), so under _exact_sum's cap of 2**26 terms each half sums within
    2**57, exactly in int64.  out, a float64 array of len(terms), is overwritten
    (it may be terms itself); writing in place spares two fresh temporaries.
    """
    scaled = np.ldexp(terms, 53 - e, out=out)
    whole = scaled.astype(np.int64)
    high = np.right_shift(whole, 31, out=scaled.view(np.int64))
    whole &= 2**31 - 1
    return (int(np.add.reduce(high)) << 31) + int(np.add.reduce(whole))


def _exact_sum(terms: np.ndarray) -> int:
    """The exact sum of a float64 array, as a Python int in units of 2**-_SUM_SCALE.

    The frexp exponents are cut into bands of _BAND from the least nonzero
    magnitude's up, and _band_sum sums each band exactly.  An array spanning
    fewer than _BAND exponents, as every Euler window of hl_constant past the
    first few and most quadrature blocks, is one band, summed with no sort.
    A wider one is sorted once by band, a radix sort on a uint8 key, so each
    term is read once whatever the span.  The cap of 2**26 terms per call
    keeps each band's int64 half sums exact (see _band_sum).  Sums of the
    returned ints are exact too, and int true division by 2**_SUM_SCALE
    rounds the total correctly, as math.fsum does (a zero total is +0.0).

    >>> _exact_sum(np.array([1e100, 1.0, -1e100])) == 2**_SUM_SCALE
    True
    """
    if len(terms) > 2**26:
        raise ValueError(f"_exact_sum takes at most 2**26 terms per call, got {len(terms)}")
    mag = np.abs(terms)
    top = float(mag.max()) if len(mag) else 0.0
    if not math.isfinite(top):
        raise ValueError("cannot sum a non-finite term exactly")
    if not top:
        return 0
    lo = math.frexp(float(mag.min()) or float(mag.min(where=mag > 0, initial=top)))[1]
    if math.frexp(top)[1] - lo < _BAND:
        return _band_sum(terms, lo, out=mag) << (lo + _SUM_SCALE - 53)
    # exponents span under 2**11, so band indices fit a uint8; a zero (exponent 0) adds nothing in any band
    band = ((np.frexp(mag)[1] - lo) // _BAND).clip(0).astype(np.uint8)
    ends = np.cumsum(np.bincount(band)).tolist()
    terms = terms[np.argsort(band, kind="stable")]  # a copy, so each band is summed in place
    total = 0
    for e, start, end in zip(range(lo, lo + _BAND * len(ends), _BAND), [0, *ends], ends):
        if end > start:
            total += _band_sum(terms[start:end], e, out=terms[start:end]) << (e + _SUM_SCALE - 53)
    return total


@dataclass(frozen=True)
class HlConstant:
    """Truncated Hardy-Littlewood product with its truncation point and a
    heuristic bound on the neglected tail."""

    value: float
    truncation: int
    tail_bound: float


def _log_window(fam: PolynomialFamily, lo: int, hi: int) -> int:
    """The exact sum (_exact_sum) of the log factors of the primes in [lo, hi], formed in place."""
    total = 0
    for primes in arith.prime_segments(lo, hi):
        p = primes.astype(float)
        # -m * log1p(-1/p) + log1p(-omega/p), operation for operation, in two buffers:
        # each fresh window-sized temporary costs its page faults
        terms = np.divide(-1.0, p)
        np.log1p(terms, out=terms)
        terms *= -fam.m
        np.divide(-_omega(fam, primes), p, out=p)
        terms += np.log1p(p, out=p)
        total += _exact_sum(terms)
    return total


def hl_constant(fam: PolynomialFamily, truncation: int) -> HlConstant:
    """Product over primes p <= truncation of (1-1/p)^(-m) * (1-omega(p)/p).

    omega(p) is closed-form at all but finitely many primes (see _omega),
    which counts only the exceptional primes one at a time, and a window
    past them all at once.  runner.imap shares the windows of arith.windows
    (p = 2t + 1, equal windows of at most 2**17 t), read lazily, out over every core,
    one fork per worker, so memory stays flat in the truncation; the windows' exact
    sums (_log_window) are added and rounded once at the end, so the result depends
    neither on the window size, nor on the sieve, nor on the number of cores.  A truncation above arith.PRIME_CAP raises ResourceLimitError before any sieving;
    that cap, below 2**32, also keeps every product in _mod_primes inside
    uint64.

    The tail bound comes from the second-order expansion of the log factor:
    for all but finitely many p the product of the m linear members has
    exactly m distinct roots, making the 1/p terms cancel and leaving
    (m - m^2)/(2 p^2) + O(1/p^3); summed over p > P this is about
    m(m-1)/2 * 1/(P ln P), and a factor of two is folded in for safety.
    """
    if truncation < 1000:
        raise ValueError("truncation below 1000 gives meaningless constants")
    if truncation > arith.PRIME_CAP:
        raise arith.ResourceLimitError(
            f"truncation {truncation} exceeds the cap {arith.PRIME_CAP} on the Euler product's primes"
        )
    failing = check_sh(fam)
    if failing is not None:
        raise ValueError(f"the family product has the fixed prime divisor {failing}")
    windows = ((fam, 2 * a, 2 * b + 1) for a, b in arith.windows(1, (truncation - 1) // 2))  # one prime_segments array each
    value = math.exp(sum(runner.imap(_log_window, windows, runner.default_jobs())) / 2**_SUM_SCALE)
    tail = value * fam.m * (fam.m - 1) / (truncation * math.log(truncation))
    return HlConstant(value=value, truncation=truncation, tail_bound=tail)


# ---------------------------------------------------------------------------
# Quadrature

_PANELS = 10**5
_BLOCK = 10**4  # panels evaluated at once, so the arrays stay smaller than the Euler product's


def integrate_bracket(f, lo: float, hi: float) -> tuple[float, float]:
    """The integral of a vectorised f over [lo, hi], and a bound on its error.

    Each of the _PANELS panels [a, b], geometric in t - lo + 1, has a midpoint sum
    M = (b - a) f((a + b)/2) and a trapezoid sum T = (b - a)(f(a) + f(b))/2, which
    bracket its integral where f is convex or concave.  The value, Simpson's (2M + T)/3,
    lies in each bracket, so the error, sum |T - M| plus 2**-46 sum (b - a)(|f(mid)| +
    (|f(a)| + |f(b)|)/2) for rounding (exact sums, f within 32 ulps), bounds |value - integral|.

    estimate_E's f = 1/prod log u_i, u_i = a_i t + b_i, is convex where every u_i >= 2:
    with f = exp(-L), L'' = -sum a_i**2 (1 + log u_i)/(u_i log u_i)**2 < 0, so
    f'' = exp(-L)(L'**2 - L'') > 0.  A non-finite f raises ValueError, and so does T - M
    of both signs beyond rounding: f is then neither convex nor concave, as across a pole.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError(f"integrate_bracket needs finite lo < hi, got [{lo}, {hi}]")
    step = math.log(hi - lo + 1.0) / _PANELS
    value = error = 0
    up = down = False
    for start in range(0, _PANELS, _BLOCK):
        ends = lo + np.expm1(np.arange(start, min(start + _BLOCK, _PANELS) + 1) * step)
        if start + _BLOCK >= _PANELS:
            ends[-1] = hi
        width = np.diff(ends)
        f_ends = f(ends)
        mid = width * f(ends[:-1] + 0.5 * width)
        trap = 0.5 * width * (f_ends[:-1] + f_ends[1:])
        gap = trap - mid
        if not np.isfinite(gap).all():
            raise ValueError(f"the integrand is not finite everywhere on [{lo}, {hi}]")
        slack = 2.0**-46 * (np.abs(mid) + 0.5 * width * (np.abs(f_ends[:-1]) + np.abs(f_ends[1:])))
        up |= bool((gap > slack).any())
        down |= bool((gap < -slack).any())
        if up and down:
            raise ValueError(f"the integrand is neither convex nor concave on [{lo}, {hi}]")
        value += _exact_sum((2.0 * mid + trap) / 3.0)
        error += _exact_sum(np.abs(gap) + slack)
    return value / 2**_SUM_SCALE, error / 2**_SUM_SCALE


# perfbench/tracer.py wraps the quadrature layer under this name, as PermGroup.table is kept for mul
integrate_adaptive = integrate_bracket


@dataclass(frozen=True)
class BhcEstimate:
    """Predicted prime-tuple count E(x) with its ingredients; quadrature_error is C times the integral's bound."""

    x: float
    a: int
    integral: float
    e_value: float
    quadrature_error: float


def integration_lower_limit(fam: PolynomialFamily) -> int:
    """Smallest integer t >= 0 at which every family value is at least 2: every
    member rises, so that is the least t >= ceil((2 - b)/a) for every (a, b).
    """
    return max(0, *(-((b - 2) // a) for a, b in fam.polys))


def check_x(fam: PolynomialFamily, x: float) -> int:
    """The integration lower limit a of the family, after checking that x is finite and above
    it and that no member's value a*x + b overflows, which would make the integrand a wrong 0.

    Cheap, so a caller can refuse a bad x before building the constant.
    """
    if not abs(x) <= sys.float_info.max:  # also an int past the float range, which math.isfinite cannot take
        raise ValueError(f"x must be finite, got {x}")
    a = integration_lower_limit(fam)
    if x <= a:
        raise ValueError(f"x must exceed the integration lower limit {a}")
    for c, b in fam.polys:
        if not math.isfinite(float(c) * x + float(b)):
            raise ValueError(f"x must keep every member a*x + b a finite float, but {c}*x + {b} overflows at x = {x}")
    return a


def estimate_E(fam: PolynomialFamily, x: float, constant: HlConstant) -> BhcEstimate:
    """Evaluate E(x) = C * integral from a to x of dt / prod ln f_i(t)."""
    a = check_x(fam, x)

    pairs = [(float(a), float(b)) for a, b in fam.polys]

    def integrand(ts):
        acc = np.ones_like(ts)
        for a, b in pairs:
            acc = acc * np.log(a * ts + b)
        return 1.0 / acc

    integral, err = integrate_bracket(integrand, float(a), float(x))
    return BhcEstimate(
        x=float(x),
        a=a,
        integral=integral,
        e_value=constant.value * integral,
        quadrature_error=constant.value * err,
    )


def compare(q_count: int, estimate: BhcEstimate) -> float:
    """Relative error (E - Q) / Q of the estimate against an observed count."""
    if q_count <= 0:
        raise ValueError("q_count must be positive")
    return (estimate.e_value - q_count) / q_count
