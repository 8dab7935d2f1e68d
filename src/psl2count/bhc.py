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

Each member is a coefficient pair (b, a), the polynomial b + a*t, so
(5, 12) is 5 + 12*t; a = 0 gives a constant member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import arith


@dataclass(frozen=True)
class PolynomialFamily:
    """A finite family of constant or linear integer polynomials, each a pair (b, a) for b + a*t."""

    polys: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.polys:
            raise ValueError("family must contain at least one polynomial")
        for coeffs in self.polys:
            if len(coeffs) != 2:
                raise ValueError(f"members are coefficient pairs (b, a) for b + a*t, got {coeffs}")
            if not any(coeffs):
                raise ValueError("zero polynomial in family")
            if any(abs(c) > arith.U64_MAX for c in coeffs):
                raise ValueError("coefficients must fit in 64 bits")

    @property
    def m(self) -> int:
        return len(self.polys)

    def value(self, index: int, t: int) -> int:
        b, a = self.polys[index]
        return a * t + b

    def values(self, t: int) -> tuple[int, ...]:
        return tuple(self.value(i, t) for i in range(self.m))


def family(*polys: tuple[int, int]) -> PolynomialFamily:
    return PolynomialFamily(tuple(tuple(c) for c in polys))


@dataclass(frozen=True)
class ShReport:
    """Outcome of the three admissibility checks for a polynomial family."""

    leading_positive: bool
    all_irreducible: bool
    no_fixed_prime_divisor: bool
    failing_prime: int | None

    @property
    def ok(self) -> bool:
        return self.leading_positive and self.all_irreducible and self.no_fixed_prime_divisor


def check_sh(fam: PolynomialFamily) -> ShReport:
    """Admissibility checks: leading signs, irreducibility, fixed divisors.

    Members are constant or linear: linear polynomials are irreducible, and
    constants fail (they take a single value).  A constant member's leading
    coefficient is its value b.

    A prime q is a fixed divisor of the product when the product vanishes
    at every residue, omega_roots(fam, q) == q.  That can only arise from
    q at most m (the m members have at most m roots mod q between them
    unless one vanishes identically) or from q dividing both coefficients
    of one member, so those two finite sets of candidates decide the
    matter.  The smallest offender is reported.
    """
    positive = all((a or b) > 0 for b, a in fam.polys)
    irreducible = all(a != 0 for _, a in fam.polys)

    candidates = set(arith.prime_array(fam.m).tolist())
    for coeffs in fam.polys:
        content = math.gcd(*coeffs)
        if content > 1:
            candidates.update(q for q, _ in arith.factorize(content).factors)
    failing = next((q for q in sorted(candidates) if omega_roots(fam, q) == q), None)

    return ShReport(
        leading_positive=positive,
        all_irreducible=irreducible,
        no_fixed_prime_divisor=failing is None,
        failing_prime=failing,
    )


def omega_roots(fam: PolynomialFamily, p: int) -> int:
    """Number of t mod p at which the family product vanishes.

    A member b + a*t has the one root -b/a when p does not divide a, none
    when p divides a but not b, and vanishes at every t (omega is then p)
    when p divides both.
    """
    if p < 2 or not arith.is_prime(p):
        raise ValueError("omega_roots requires a prime modulus")
    roots: set[int] = set()
    for b, a in fam.polys:
        if a % p:
            roots.add(-b * pow(a, -1, p) % p)
        elif b % p == 0:
            return p
    return len(roots)


def _primitive(b: int, a: int) -> tuple[int, int]:
    """The linear member b + a*t divided by its content, with a positive leading coefficient."""
    content = math.gcd(b, a) if a > 0 else -math.gcd(b, a)
    return b // content, a // content


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
    linear = sorted({_primitive(b, a) for b, a in fam.polys if a})
    exceptional = [a or b for b, a in fam.polys]  # a constant member's leading coefficient is b
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
    come in segments (arith.prime_segments), so memory stays flat in the
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
    for primes in arith.prime_segments(2, truncation):
        p = primes.astype(float)
        total += _exact_sum(-fam.m * np.log1p(-1.0 / p) + np.log1p(-_omega(fam, primes) / p))
    value = math.exp(total / 2**_SUM_SCALE)
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
    """Smallest integer t >= 0 at which every family value is at least 2.

    That is the least t with every rising member b + a*t at least 2, t >= ceil((2 - b)/a),
    if the constant and falling members, which never grow, are at least 2 there.
    """
    t = max([0] + [-((b - 2) // a) for b, a in fam.polys if a > 0])
    if any(v < 2 for v in fam.values(t)):
        raise ValueError(f"no t >= 0 at which every value of the family {fam.polys} is at least 2")
    return t


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


def estimate_E(fam: PolynomialFamily, x: float, constant: HlConstant) -> BhcEstimate:
    """Evaluate E(x) = C * integral from a to x of dt / prod ln f_i(t)."""
    a = check_x(fam, x)

    pairs = [(float(a), float(b)) for b, a in fam.polys]

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
