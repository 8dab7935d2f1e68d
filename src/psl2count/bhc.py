"""Bateman-Horn style estimates for families of linear integer polynomials.

For a family f_1, ..., f_m satisfying the usual hypotheses (positive
leading coefficients, irreducible, product with no fixed prime divisor),
the predicted count of t <= x at which every f_i(t) is prime is

    E(x) = C * integral from a to x of dt / prod_i ln f_i(t),

where a is the first integer at which all values reach 2 and C is the
Hardy-Littlewood product over primes of
(1 - 1/p)^(-m) * (1 - omega(p)/p), with omega(p) the number of roots of
the product modulo p.

Polynomials are dense coefficient tuples in ascending order, so (5, 12)
is 5 + 12*t.  Degrees above 1 are not supported.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import arith


@dataclass(frozen=True)
class PolynomialFamily:
    """A finite family of constant or linear integer polynomials, coefficients ascending."""

    polys: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.polys:
            raise ValueError("family must contain at least one polynomial")
        for coeffs in self.polys:
            if not coeffs or not any(coeffs):
                raise ValueError("zero polynomial in family")
            if any(abs(c) > arith.U64_MAX for c in coeffs):
                raise ValueError("coefficients must fit in 64 bits")
            if _degree(coeffs) > 1:
                raise ValueError(f"degree {_degree(coeffs)} polynomials are not supported, only linear ones")

    @property
    def m(self) -> int:
        return len(self.polys)

    def degrees(self) -> tuple[int, ...]:
        return tuple(_degree(c) for c in self.polys)

    def value(self, index: int, t: int) -> int:
        acc = 0
        for c in reversed(self.polys[index]):
            acc = acc * t + c
        return acc

    def values(self, t: int) -> tuple[int, ...]:
        return tuple(self.value(i, t) for i in range(self.m))


def family(*polys: tuple[int, ...]) -> PolynomialFamily:
    return PolynomialFamily(tuple(tuple(c) for c in polys))


def _degree(coeffs: tuple[int, ...]) -> int:
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i]:
            return i
    return 0


def _leading(coeffs: tuple[int, ...]) -> int:
    return coeffs[_degree(coeffs)]


@dataclass(frozen=True)
class ShReport:
    """Outcome of the three admissibility checks for a polynomial family."""

    positive_leading: bool
    all_irreducible: bool
    no_fixed_prime_divisor: bool
    failing_prime: int | None

    @property
    def ok(self) -> bool:
        return self.positive_leading and self.all_irreducible and self.no_fixed_prime_divisor


def check_sh(fam: PolynomialFamily) -> ShReport:
    """Admissibility checks: leading signs, irreducibility, fixed divisors.

    Members are constant or linear: linear polynomials are irreducible, and
    constants fail (they take a single value).

    A fixed prime divisor q of the product can only arise from q at most
    the product's degree (a nonzero polynomial mod q of smaller degree
    cannot vanish at all residues) or from q dividing every coefficient of
    one polynomial (the product's content is the product of the contents),
    so those two finite checks decide the matter.  The smallest offender
    is reported.
    """
    positive = all(_leading(c) > 0 for c in fam.polys)
    irreducible = all(_degree(c) == 1 for c in fam.polys)

    total_degree = sum(fam.degrees())
    candidates = set(arith.primes_in_range(2, max(2, total_degree)))
    for coeffs in fam.polys:
        content = math.gcd(*coeffs)
        if content > 1:
            candidates.update(q for q, _ in arith.factorize(content).factors)

    failing = None
    for q in sorted(candidates):
        if all(_product_mod(fam, t, q) == 0 for t in range(q)):
            failing = q
            break

    return ShReport(
        positive_leading=positive,
        all_irreducible=irreducible,
        no_fixed_prime_divisor=failing is None,
        failing_prime=failing,
    )


def _product_mod(fam: PolynomialFamily, t: int, q: int) -> int:
    prod = 1
    for i in range(fam.m):
        prod = prod * (fam.value(i, t) % q) % q
        if prod == 0:
            return 0
    return prod


def omega_roots(fam: PolynomialFamily, p: int) -> int:
    """Number of t mod p at which the family product vanishes.

    A member b + a*t has the one root -b/a when p does not divide a, none
    when p divides a but not b, and vanishes at every t (omega is then p)
    when p divides both.
    """
    if p < 2 or not arith.is_prime(p):
        raise ValueError("omega_roots requires a prime modulus")
    roots: set[int] = set()
    for coeffs in fam.polys:
        b, a, *_ = (*coeffs, 0)
        if a % p:
            roots.add(-b * pow(a, -1, p) % p)
        elif b % p == 0:
            return p
    return len(roots)


def _primitive(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The polynomial divided by its content, degree-trimmed, with a positive leading coefficient."""
    trimmed = coeffs[: _degree(coeffs) + 1]
    content = math.gcd(*trimmed) if trimmed[-1] > 0 else -math.gcd(*trimmed)
    return tuple(c // content for c in trimmed)


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

    Let g_1, ..., g_k be the distinct primitive parts b_i + a_i*t of the
    linear members, each with a_i > 0.  At a prime dividing no member's
    leading coefficient and no resultant a_i*b_j - a_j*b_i, no member
    vanishes mod p and the g_i have k distinct roots, so omega(p) = k.
    Only those finitely many exceptional primes are counted by omega_roots.
    Distinct g_i are not proportional, so every resultant is nonzero.
    """
    linear = sorted({_primitive(c) for c in fam.polys if _degree(c) == 1})
    exceptional = [_leading(c) for c in fam.polys]
    exceptional += [a_i * b_j - a_j * b_i for i, (b_i, a_i) in enumerate(linear) for b_j, a_j in linear[:i]]
    exact = np.zeros(len(primes), dtype=bool)
    for n in exceptional:
        # primes ascend, and a nonzero n has no prime divisor above |n|
        end = int(np.searchsorted(primes, min(abs(n), 2**32), side="right"))
        exact[:end] |= _mod_primes(n, primes[:end]) == 0
    omega = np.full(len(primes), len(linear), dtype=np.int64)
    for i in np.flatnonzero(exact):
        omega[i] = omega_roots(fam, int(primes[i]))
    return omega


# t per segment of the odd sieve (p = 2t + 1) in hl_constant.  Measured on
# case a, 2 cores, at 2**16, 2**17 and 2**18: the traced peak at a truncation
# of 10**7 is 0.8, 1.6 and 3.0 MiB (ru_maxrss of the whole bhc command 31.9,
# 32.1 and 34.4 MiB), and 10**8 takes 0.61, 0.59 and 0.54 s (best of 3), as
# each segment strikes with every base prime again.
_PRIME_SEGMENT = 2**17

# Every finite float64 is an integer multiple of 2**-_SUM_SCALE: frexp
# gives it as M * 2**(e - 53) with an integer |M| < 2**53 and e >= -1073.
_SUM_SCALE = 1126


def _exact_sum(terms: np.ndarray) -> int:
    """The exact sum of a float64 array, as a Python int in units of 2**-_SUM_SCALE.

    Each term is M * 2**(e - 53) (see _SUM_SCALE), and M splits into
    hi * 2**26 + lo with 0 <= lo < 2**26 and |hi| <= 2**27.  bincount sums
    the halves per exponent in float64, exactly, since with at most 2**26
    terms every partial sum is an integer within 2**53.  Sums of the
    returned ints are exact too, and int true division by 2**_SUM_SCALE
    rounds the total correctly, as math.fsum does (a zero total is +0.0).

    >>> _exact_sum(np.array([1e100, 1.0, -1e100])) == 2**_SUM_SCALE
    True
    """
    if len(terms) > 2**26:
        raise ValueError(f"_exact_sum takes at most 2**26 terms per call, got {len(terms)}")
    if not np.isfinite(terms).all():
        raise ValueError("cannot sum a non-finite term exactly")
    if not len(terms):
        return 0
    mant, exp = np.frexp(terms)
    whole = (mant * 2.0**53).astype(np.int64)
    shift = exp + (_SUM_SCALE - 53)
    base = int(shift.min())
    shift -= base
    hi = np.bincount(shift, weights=whole >> 26).tolist()
    lo = np.bincount(shift, weights=whole & (2**26 - 1)).tolist()
    return sum(((int(h) << 26) + int(l)) << s for s, (h, l) in enumerate(zip(hi, lo))) << base


def _prime_segments(n: int):
    """The primes up to n, ascending, as uint64 arrays: [2], then the odd
    primes 2t + 1 of _PRIME_SEGMENT values of t at a time."""
    yield arith.prime_array(2)
    top = (n - 1) // 2
    for lo in range(1, top + 1, _PRIME_SEGMENT):
        yield arith.primes_of_form(2, 1, lo, min(lo + _PRIME_SEGMENT - 1, top))


@dataclass(frozen=True)
class HlConstant:
    """Truncated Hardy-Littlewood product with its truncation point and a
    heuristic bound on the neglected tail."""

    value: float
    truncation: int
    tail_bound: float


def hl_constant(fam: PolynomialFamily, truncation: int) -> HlConstant:
    """Product over primes p <= truncation of (1-1/p)^(-m) * (1-omega(p)/p).

    omega(p) is closed-form at all but finitely many primes (see _omega),
    which counts only the exceptional primes one at a time.  The primes
    come in segments (_prime_segments), so memory stays flat in the
    truncation; each segment's log factors go into one exact sum
    (_exact_sum), rounded once at the end, so the result depends neither
    on the segment size nor on how the primes were sieved.  A truncation
    above arith.PRIME_CAP raises ResourceLimitError before any sieving;
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
    report = check_sh(fam)
    if not report.ok:
        raise ValueError(f"family fails admissibility checks: {report}")
    total = 0
    for primes in _prime_segments(truncation):
        p = primes.astype(float)
        total += _exact_sum(-fam.m * np.log1p(-1.0 / p) + np.log1p(-_omega(fam, primes) / p))
    value = math.exp(total / 2**_SUM_SCALE)
    tail = value * fam.m * (fam.m - 1) / (truncation * math.log(truncation))
    return HlConstant(value=value, truncation=truncation, tail_bound=tail)


# ---------------------------------------------------------------------------
# Quadrature

@functools.cache
def _gl7():
    """7-point Gauss-Legendre rule, built on first use: start-up skips numpy.polynomial."""
    return np.polynomial.legendre.leggauss(7)


def _panel(f, lo: float, hi: float) -> float:
    nodes, weights = _gl7()
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return half * float((weights * f(mid + half * nodes)).sum())


def integrate_adaptive(f, lo: float, hi: float, *, rel_tol: float = 1e-8, max_panels: int = 200000):
    """Adaptive composite quadrature with a posteriori error accounting.

    Panels start on a geometric subdivision (the integrands here live on
    ranges spanning many decades), each panel compares a 7-point Gauss rule
    against its bisected refinement, and panels are split until the local
    estimate fits a width-proportional share of the global budget.  Returns
    (integral, error_estimate); raises if the panel budget is exhausted.

    f must accept a numpy array of abscissae.
    """
    if not hi > lo:
        raise ValueError("integrate_adaptive requires hi > lo")
    bounds = [lo]
    width = 1.0
    while bounds[-1] + width < hi:
        bounds.append(bounds[-1] + width)
        width *= 2.0
    bounds.append(hi)

    rough = math.fsum(_panel(f, a, b) for a, b in zip(bounds, bounds[1:]))
    budget = max(abs(rough), 1e-300) * rel_tol
    span = hi - lo

    total = []
    err_total = []
    stack = list(zip(bounds, bounds[1:]))
    panels = 0
    while stack:
        a, b = stack.pop()
        panels += 1
        if panels > max_panels:
            raise RuntimeError(
                f"quadrature did not converge within {max_panels} panels (rel_tol={rel_tol})"
            )
        mid = 0.5 * (a + b)
        coarse = _panel(f, a, b)
        fine = _panel(f, a, mid) + _panel(f, mid, b)
        err = abs(fine - coarse)
        if err <= budget * (b - a) / span or (b - a) <= abs(mid) * 1e-14:
            total.append(fine)
            err_total.append(err)
        else:
            stack.append((a, mid))
            stack.append((mid, b))
    return math.fsum(total), math.fsum(err_total)


@dataclass(frozen=True)
class BhcEstimate:
    """Predicted prime-tuple count E(x) with its ingredients."""

    x: float
    a: int
    constant: HlConstant
    integral: float
    e_value: float
    quadrature_error: float


def integration_lower_limit(fam: PolynomialFamily) -> int:
    """Smallest integer t >= 0 at which every family value is at least 2."""
    t = 0
    while True:
        if all(v >= 2 for v in fam.values(t)):
            return t
        t += 1
        if t > 10**6:
            raise ValueError("no integration lower limit below 10**6")


def check_x(fam: PolynomialFamily, x: float) -> int:
    """The integration lower limit a of the family, after checking that x is finite and above it.

    Cheap, so a caller can refuse a bad x before building the constant.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    a = integration_lower_limit(fam)
    if x <= a:
        raise ValueError(f"x must exceed the integration lower limit {a}")
    return a


def estimate_E(fam: PolynomialFamily, x: float, constant: HlConstant, *, rel_tol: float = 1e-8) -> BhcEstimate:
    """Evaluate E(x) = C * integral from a to x of dt / prod ln f_i(t)."""
    a = check_x(fam, x)

    coeff_arrays = [np.array(c, dtype=float) for c in fam.polys]

    def integrand(ts):
        acc = np.ones_like(ts)
        for coeffs in coeff_arrays:
            vals = np.zeros_like(ts)
            for c in coeffs[::-1]:
                vals = vals * ts + c
            acc = acc * np.log(vals)
        return 1.0 / acc

    integral, err = integrate_adaptive(integrand, float(a), float(x), rel_tol=rel_tol)
    return BhcEstimate(
        x=float(x),
        a=a,
        constant=constant,
        integral=integral,
        e_value=constant.value * integral,
        quadrature_error=constant.value * err,
    )


def compare(q_count: int, estimate: BhcEstimate) -> float:
    """Relative error (E - Q) / Q of the estimate against an observed count."""
    if q_count <= 0:
        raise ValueError("q_count must be positive")
    return (estimate.e_value - q_count) / q_count
