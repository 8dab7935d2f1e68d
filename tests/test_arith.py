"""Number-theory helpers checked against sieve-built oracles."""

import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl2count import arith, search

LIMIT = 10**5


def _spf_table(limit: int) -> list[int]:
    """Smallest-prime-factor table, the independent reference for everything here."""
    spf = list(range(limit + 1))
    i = 2
    while i * i <= limit:
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
        i += 1
    return spf


SPF = _spf_table(LIMIT)


def _ref_factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    while n > 1:
        p = SPF[n]
        out[p] = out.get(p, 0) + 1
        n //= p
    return out


class TestIsPrime:
    def test_against_sieve(self):
        for n in range(2, LIMIT + 1):
            assert arith.is_prime(n) == (SPF[n] == n), n

    def test_small_edge_cases(self):
        assert not arith.is_prime(0)
        assert not arith.is_prime(1)
        assert arith.is_prime(2)

    def test_large_known_values(self):
        assert arith.is_prime(2**61 - 1)  # Mersenne prime
        assert arith.is_prime(2**64 - 59)  # largest prime below 2**64
        assert not arith.is_prime(2**64 - 1)
        # strong-pseudoprime stress values for common witness sets
        for n in (3215031751, 3474749660383, 341550071728321):
            assert not arith.is_prime(n), n

    def test_range_errors(self):
        with pytest.raises(ValueError):
            arith.is_prime(-1)
        with pytest.raises(ValueError):
            arith.is_prime(2**64)


class TestFactorize:
    def test_against_reference(self):
        for n in range(2, 2000):
            assert dict(arith.factorize(n).factors) == _ref_factor(n), n

    def test_random_roundtrip(self):
        rng = random.Random(20260815)
        for _ in range(10**4):
            n = rng.randrange(2, 2**63)
            fac = arith.factorize(n)
            prod = 1
            for p, e in fac.factors:
                assert arith.is_prime(p)
                prod *= p**e
            assert prod == n

    def test_prime_powers_and_squares(self):
        assert arith.factorize(2**40).factors == ((2, 40),)
        assert arith.factorize(10**18).factors == ((2, 18), (5, 18))
        p = 1_000_003
        assert arith.factorize(p * p).factors == ((p, 2),)

    def test_semiprime_of_large_primes(self):
        a, b = 2147483647, 2147483629
        assert arith.factorize(a * b).factors == ((b, 1), (a, 1))

    def test_one(self):
        assert arith.factorize(1).factors == ()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            arith.factorize(0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=2, max_value=10**12))
    def test_roundtrip_property(self, n):
        fac = arith.factorize(n)
        prod = 1
        for p, e in fac.factors:
            prod *= p**e
        assert prod == n
        assert all(fac.factors[i][0] < fac.factors[i + 1][0] for i in range(len(fac.factors) - 1))


class TestDivisorCounting:
    def test_tau_against_sieve(self):
        for n in range(1, LIMIT + 1):
            expect = 1
            for e in _ref_factor(n).values():
                expect *= e + 1
            assert arith.tau(n) == expect, n

    def test_big_omega_against_sieve(self):
        for n in range(1, 20000):
            assert arith.big_omega(n) == sum(_ref_factor(n).values()), n

    def test_big_omega_examples(self):
        assert arith.big_omega(1) == 0
        assert arith.big_omega(524286) == 7
        assert arith.big_omega(2**10) == 10

    def test_divisors_sorted_and_complete(self):
        assert arith.divisors(1) == [1]
        assert arith.divisors(12) == [1, 2, 3, 4, 6, 12]
        for n in (360, 9973, 2**16):
            divs = arith.divisors(n)
            assert divs == sorted(divs)
            assert all(n % d == 0 for d in divs)
            assert len(divs) == arith.tau(n)


class TestTwoAdic:
    def test_examples(self):
        assert arith.two_adic_valuation(1) == 0
        assert arith.two_adic_valuation(2) == 1
        assert arith.two_adic_valuation(96) == 5

    def test_matches_factorization(self):
        for n in range(1, 4096):
            k = arith.two_adic_valuation(n)
            assert n % (1 << k) == 0 and (n >> k) % 2 == 1

    def test_elementwise_on_int64(self):
        ns = list(range(1, 4096)) + [2**62, 3 << 40, 2**63 - 1]
        got = arith.two_adic_valuation(np.array(ns, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == [arith.two_adic_valuation(n) for n in ns]
        with pytest.raises(ValueError):
            arith.two_adic_valuation(np.array([4, 0, 2], dtype=np.int64))


class TestPrimesInRange:
    def test_against_sieve(self):
        expect = [n for n in range(2, LIMIT + 1) if SPF[n] == n]
        assert arith.primes_in_range(2, LIMIT) == expect

    def test_interior_window(self):
        assert arith.primes_in_range(90, 130) == [97, 101, 103, 107, 109, 113, 127]

    def test_segment_boundaries(self, monkeypatch):
        # force several windows of prime_segments with a tiny window
        monkeypatch.setattr(arith, "_PRIME_SEGMENT", 64)
        got = arith.primes_in_range(2, 10**4)
        assert got == [n for n in range(2, 10**4 + 1) if SPF[n] == n]

    def test_empty_and_edge(self):
        assert arith.primes_in_range(24, 28) == []
        assert arith.primes_in_range(2, 2) == [2]
        assert arith.primes_in_range(3, 3) == [3]

    def test_every_small_window(self):
        for lo in range(70):
            for hi in range(lo, 70):
                assert arith.primes_in_range(lo, hi) == [n for n in range(max(lo, 2), hi + 1) if SPF[n] == n], (lo, hi)


# (2, 1) gives the odd primes, (1, 0) every prime, (72, 5) the primes 5 mod 72,
# the fourth is the triple family of search case a: p = 12t + 5, r = 3t + 1,
# s = 2t + 1, and the last has negative b, so its value at t = 0 is below 2
# and its class 0 mod 210 holds the value -1.
SIEVE_FORMS = ([(2, 1)], [(1, 0)], [(72, 5)], [(12, 5), (3, 1), (2, 1)], [(6, -1), (4, -1)])


def _plain_offsets(forms, lo, hi):
    """Reference for arith.sieve_forms: a plain primality loop over t."""
    return [t - lo for t in range(lo, hi + 1) if all(a * t + b >= 2 and arith.is_prime(a * t + b) for a, b in forms)]


class TestSieveForms:
    """Against the plain loop at the default wheel threshold, where every
    window here is one class mod 1; the subclass below reruns every case
    with the wheel mod 210 on every window."""

    wheel_min = None  # None keeps arith._WHEEL_MIN

    @pytest.fixture(autouse=True)
    def _wheel_min(self, force_wheel_min):
        if self.wheel_min is not None:
            force_wheel_min(self.wheel_min)

    @pytest.mark.parametrize("forms", SIEVE_FORMS)
    def test_random_windows_match_plain_loop(self, forms):
        rng = random.Random(f"forms-{forms}")
        for _ in range(10):
            lo = rng.randint(0, 10**9)
            hi = lo + rng.randint(0, 3000)
            assert arith.sieve_forms(forms, lo, hi).tolist() == _plain_offsets(forms, lo, hi), (lo, hi)

    @pytest.mark.parametrize("forms", SIEVE_FORMS)
    def test_low_windows_match_plain_loop(self, forms):
        # values equal to a sieving prime (the wheel's 2, 3, 5 and 7 among
        # them) must survive, values below 2 must not; windows from one t
        # to past 210 t
        for lo in range(61):
            for hi in (lo, lo + 9, 300):
                assert arith.sieve_forms(forms, lo, hi).tolist() == _plain_offsets(forms, lo, hi), (lo, hi)

    @pytest.mark.parametrize("forms", [[(12, 5), (2, 1)], [(12, 1), (1, 0)]])
    def test_forms_of_mismatched_size(self, forms):
        # the base primes reach isqrt of the larger form, so most of them
        # cannot strike the smaller one anywhere in the window
        for lo in range(61):
            assert arith.sieve_forms(forms, lo, 400).tolist() == _plain_offsets(forms, lo, 400), lo
        rng = random.Random(f"forms-mismatched-{forms}")
        for _ in range(10):
            lo = rng.randint(0, 10**6)
            hi = lo + rng.randint(0, 3000)
            assert arith.sieve_forms(forms, lo, hi).tolist() == _plain_offsets(forms, lo, hi), (lo, hi)

    @pytest.mark.parametrize("forms", SIEVE_FORMS)
    def test_windows_near_2_44_and_2_50(self, forms):
        # base primes up to 2**25: far more of them than the window is long
        rng = random.Random(f"forms-high-{forms}")
        for k in (44, 50):
            lo = 2**k // max(a for a, _ in forms) - rng.randint(0, 10**6)
            hi = lo + rng.randint(0, 3000)
            assert arith.sieve_forms(forms, lo, hi).tolist() == _plain_offsets(forms, lo, hi), (lo, hi)

    def test_inverse_mod(self):
        primes = arith.prime_array(10**4)
        assert primes.dtype == np.uint64
        for a in (1, 2, 12, 210, 2520, 2**31 - 1):  # residues tabled, then one per prime
            expect = [pow(a, -1, q) if a % q else 0 for q in primes.tolist()]
            assert arith.inverse_mod(a, primes).tolist() == expect, a

    def test_validation(self):
        for forms, lo, hi in (
            ([(0, 1)], 0, 10),          # a = 0
            ([(2**32, 1)], 0, 10),      # a = 2**32
            ([(6, 3)], 0, 10),          # gcd(a, b) = 3
            ([(2, 1)], 5, 4),           # lo > hi
            ([(1, 0)], 2**64 - 5, 2**64),  # a value of 2**64
            ([], 0, 10),                # no forms
        ):
            with pytest.raises(ValueError):
                arith.sieve_forms(forms, lo, hi)

    def test_base_prime_cap(self):
        # every base prime below 2**31 would be fetched; the cap refuses first
        start = time.perf_counter()
        with pytest.raises(arith.ResourceLimitError):
            arith.primes_in_range(2**62, 2**62 + 200)
        assert time.perf_counter() - start < 1.0


class TestSieveFormsWheelEverywhere(TestSieveForms):
    wheel_min = 1


class TestSieveFormsWheelNowhere(TestSieveForms):
    wheel_min = 2**62


class TestWheelThreshold:
    def test_traffic_split(self):
        # prime windows and hb segments (both _PRIME_SEGMENT) stay in t; a full scan block takes the wheel
        assert arith._PRIME_SEGMENT < arith._WHEEL_MIN
        assert search._BLOCK >= arith._WHEEL_MIN

    def test_offsets_across_the_threshold(self, monkeypatch):
        # the same window in one class mod 1 and in 210 classes, with the
        # threshold at its length; intp offsets on both sides
        lo, hi = 10**9, 10**9 + 5000
        expect = _plain_offsets(SIEVE_FORMS[3], lo, hi)
        for wheel_min in (hi - lo + 2, hi - lo + 1):
            monkeypatch.setattr(arith, "_WHEEL_MIN", wheel_min)
            got = arith.sieve_forms(SIEVE_FORMS[3], lo, hi)
            assert got.dtype == np.intp and got.tolist() == expect, wheel_min


def _checked_windows(lo, hi):
    """The arrays of prime_segments(lo, hi), each checked to be a uint64 array ascending past the last."""
    windows = list(arith.prime_segments(lo, hi))
    flat = np.concatenate([np.empty(0, dtype=np.uint64), *windows])
    assert all(w.dtype == np.uint64 for w in windows)
    assert (np.diff(flat.astype(np.int64)) > 0).all(), (lo, hi)
    return windows, flat.tolist()


# every size of window, from one t to one window for the whole range
WINDOW_SIZES = (1, 7, 2**10, 10**9)


class TestPrimeSegments:
    # the references are is_prime and SPF, never primes_in_range, which is a view of prime_segments

    @pytest.mark.parametrize("size", WINDOW_SIZES)
    def test_random_windows_match_is_prime(self, size, monkeypatch):
        monkeypatch.setattr(arith, "_PRIME_SEGMENT", size)
        rng = random.Random("prime-segments")
        for _ in range(20):
            lo = rng.randint(0, 10**9 - 2000)
            hi = lo + rng.randint(0, 2000)
            _, got = _checked_windows(lo, hi)
            assert got == [n for n in range(lo, hi + 1) if arith.is_prime(n)], (lo, hi)

    @pytest.mark.parametrize("size", WINDOW_SIZES)
    def test_every_small_window(self, size, monkeypatch):
        monkeypatch.setattr(arith, "_PRIME_SEGMENT", size)
        for lo in range(70):
            for hi in range(lo, 70):
                _, got = _checked_windows(lo, hi)
                assert got == [n for n in range(max(lo, 2), hi + 1) if SPF[n] == n], (lo, hi)

    @pytest.mark.parametrize("size,lo,hi", [
        (1, 2, 5), (7, 2, 17), (2**10, 2, 4099), (10**9, 10**9 + 7, 10**9 + 7),
    ])
    def test_last_window_of_one_t_holding_a_prime(self, size, lo, hi, monkeypatch):
        # hi = 2t + 1 with t the first of its window
        monkeypatch.setattr(arith, "_PRIME_SEGMENT", size)
        assert (hi // 2 - max(lo, 2) // 2) % size == 0
        windows, got = _checked_windows(lo, hi)
        assert windows[-1].tolist() == [hi]
        assert got == [n for n in range(lo, hi + 1) if arith.is_prime(n)]

    def test_two_leads_in_its_own_array(self):
        assert [w.tolist() for w in arith.prime_segments(0, 2)] == [[2]]
        assert [w.tolist() for w in arith.prime_segments(0, 1)] == []
        assert [w.tolist() for w in arith.prime_segments(2, 11)] == [[2], [3, 5, 7, 11]]

    def test_validation(self):
        for lo, hi in ((5, 4), (0, 2**64)):
            with pytest.raises(ValueError):
                next(arith.prime_segments(lo, hi))

    def test_prime_array_above_the_table(self):
        # prime_array joins the windows past the 2**16 table
        for n in (2**16 + 1, LIMIT):
            assert arith.prime_array(n).tolist() == [m for m in range(2, n + 1) if SPF[m] == m]


FACTOR_FORMS = ((18, 1), (12, 1), (2, 1), (1, 0))


def _plain_counts(a, b, lo, hi):
    """Reference for arith.factor_counts: Omega and tau by arith.factorize."""
    facts = [arith.factorize(a * t + b) for t in range(lo, hi + 1)]
    return [f.big_omega() for f in facts], [f.tau() for f in facts]


class TestFactorCounts:
    @pytest.mark.parametrize("form", FACTOR_FORMS)
    def test_random_windows_match_factorize(self, form):
        # values near 2**40, then log-uniform below it; isqrt(2**60) = 2**30
        # is past PRIME_CAP, so 2**60 itself is the cap test below
        a, b = form
        rng = random.Random(f"factor-counts-{form}")
        for i in range(10):
            lo = max(1, 2 ** (40 if i == 0 else rng.randint(0, 40)) // a)
            hi = lo + rng.randint(0, 3000)
            omega, tau = arith.factor_counts(a, b, lo, hi)
            assert (omega.dtype, tau.dtype) == (np.int8, np.int32)
            assert [omega.tolist(), tau.tolist()] == list(_plain_counts(a, b, lo, hi)), (lo, hi)

    @pytest.mark.parametrize("form", FACTOR_FORMS)
    def test_every_small_window(self, form):
        # a value equal to a sieving prime (or its square) counts it; 1 has no factor
        a, b = form
        first = 1 if b == 0 else 0
        omegas, taus = _plain_counts(a, b, first, 69)
        for lo in range(first, 70):
            for hi in range(lo, 70):
                omega, tau = arith.factor_counts(a, b, lo, hi)
                assert omega.tolist() == omegas[lo - first : hi - first + 1], (lo, hi)
                assert tau.tolist() == taus[lo - first : hi - first + 1], (lo, hi)

    @pytest.mark.parametrize("form", FACTOR_FORMS)
    def test_windows_near_2_44_and_2_50(self, form):
        # prime powers past the window length strike together, and two of
        # them can hit one t
        a, b = form
        rng = random.Random(f"factor-counts-high-{form}")
        for k in (44, 50):
            lo = 2**k // a - rng.randint(0, 10**6)
            hi = lo + rng.randint(0, 1000)
            omega, tau = arith.factor_counts(a, b, lo, hi)
            assert [omega.tolist(), tau.tolist()] == list(_plain_counts(a, b, lo, hi)), (lo, hi)

    def test_validation(self):
        for a, b, lo, hi in (
            (0, 1, 0, 10),              # a = 0
            (2**32, 1, 0, 10),          # a = 2**32
            (6, 3, 0, 10),              # gcd(a, b) = 3
            (2, 1, 5, 4),               # lo > hi
            (1, 0, 0, 10),              # the value 0
            (2, -5, 1, 10),             # a negative value
            (1, 0, 2**64 - 5, 2**64),   # a value of 2**64
        ):
            with pytest.raises(ValueError):
                arith.factor_counts(a, b, lo, hi)

    def test_base_prime_cap(self):
        start = time.perf_counter()
        with pytest.raises(arith.ResourceLimitError):
            arith.factor_counts(1, 0, 2**60, 2**60 + 200)
        assert time.perf_counter() - start < 1.0


class TestStrikeSplit:
    """Windows of n = q - 1, q and q + 1 t (of one class, for the wheel)
    where a base prime (power) q has its first root at offset 0.  Below n, q
    strikes a strided slice and can hit offsets 0 and q; from n on it has at
    most one hit and strikes with the rest at once."""

    @pytest.mark.parametrize("w", [1, 210])
    @pytest.mark.parametrize("form", [(1, 0), (2, 1), (12, 5)])
    @pytest.mark.parametrize("q", [11, 37])
    def test_sieve_forms(self, w, form, q, force_wheel_min):
        # class r of t = w*u + r from u0, where the value at u0 is a multiple
        # of q above q*q and the one at u0 + q is q times a prime above q,
        # so q alone strikes it
        a, b = form
        if w > 1:
            force_wheel_min(1)
        r = next(r for r in range(w) if math.gcd(a * r + b, w) == 1)
        u0 = 10**4 // q * q + (-(a * r + b) * pow(w * a, -1, q)) % q
        while not arith.is_prime((a * (w * u0 + r) + b) // q + w * a):
            u0 += q
        lo = w * u0 + r
        for n in (q - 1, q, q + 1):
            hi = lo + w * (n - 1)
            assert arith.sieve_forms([form], lo, hi).tolist() == _plain_offsets([form], lo, hi), (lo, n)

    @pytest.mark.parametrize("j", [1, 2, 64])
    @pytest.mark.parametrize("w", [1, 210])
    @pytest.mark.parametrize("form", [(1, 0), (2, 1), (12, 5)])
    def test_sieve_forms_at_j_and_j_plus_1_hits(self, j, w, form, monkeypatch, force_wheel_min):
        # class r from u0, where q = 37 has its first root at offset 0:
        # windows of j*q - 1, j*q and j*q + 1 t give q exactly j, j and j + 1
        # hits, the last on the slice side of the split at _VECTOR_HITS = j,
        # and the value at its last hit is q times a prime above q, so q
        # alone strikes it
        a, b = form
        q = 37
        monkeypatch.setattr(arith, "_VECTOR_HITS", j)
        if w > 1:
            force_wheel_min(1)
        r = next(r for r in range(w) if math.gcd(a * r + b, w) == 1)
        for n in (j * q - 1, j * q, j * q + 1):
            last = (n - 1) // q * q
            u0 = 10**4 // q * q + (-(a * r + b) * pow(w * a, -1, q)) % q
            while not arith.is_prime((a * (w * (u0 + last) + r) + b) // q):
                u0 += q
            lo, hi = w * u0 + r, w * (u0 + n - 1) + r
            got = [o for o in arith.sieve_forms([form], lo, hi).tolist() if o % w == 0]  # class r
            assert got == [o for o in range(0, w * n, w) if arith.is_prime(a * (lo + o) + b)], (lo, n)

    @pytest.mark.parametrize("form", FACTOR_FORMS)
    @pytest.mark.parametrize("qe", [5, 125, 7, 49])
    def test_factor_counts(self, form, qe):
        a, b = form
        lo = 10**4 * qe + (-b * pow(a, -1, qe)) % qe  # a*lo + b = 0 mod qe
        for n in (qe - 1, qe, qe + 1):
            omega, tau = arith.factor_counts(a, b, lo, lo + n - 1)
            assert [omega.tolist(), tau.tolist()] == list(_plain_counts(a, b, lo, lo + n - 1)), (lo, n)


def _slice_strike(mask, lo, a, b, primes, roots):
    """The slice-only strike, the reference for arith.strike_form: each prime
    q strikes one slice, from its first t with a*t + b = 0 mod q (at or past
    its root) that is past the values below 2 and has a*t + b >= q*q."""
    n = mask.size
    d = min(max(0, (1 - b) // a - lo + 1), n)  # the first d values are below 2
    mask[:d] = False
    near = roots < n  # a prime strikes nothing before its root
    for q, root in zip(primes[near].tolist(), roots[near].tolist()):
        f = max(d, -((b - q * q) // a) - lo)  # the first offset past both bounds
        mask[f + (root - f) % q :: q] = False


class TestVectorStrike:
    """sieve_forms against the slice-only strike, at w = 1 and 210 (every
    window through the wheel), with _VECTOR_HITS at 1, 2, 64 and past every
    window, where every prime strikes in the vector round."""

    @pytest.mark.parametrize("j", [1, 2, 64, 2**62], ids=["1", "2", "64", "inf"])
    @pytest.mark.parametrize("w", [1, 210])
    def test_random_windows_match_slice_strike(self, j, w, monkeypatch, force_wheel_min):
        if w > 1:
            force_wheel_min(1)
        strike_form = arith.strike_form
        rng = random.Random(f"vector-{j}-{w}")
        for forms in SIEVE_FORMS:
            for _ in range(3):
                lo = rng.randint(0, 10 ** rng.randint(1, 12))
                hi = lo + rng.randint(0, 30000 if w == 1 else 300000)  # up to about 1400 t per class at w = 210
                monkeypatch.setattr(arith, "strike_form", _slice_strike)
                expect = arith.sieve_forms(forms, lo, hi).tolist()
                monkeypatch.setattr(arith, "strike_form", strike_form)
                monkeypatch.setattr(arith, "_VECTOR_HITS", j)
                assert arith.sieve_forms(forms, lo, hi).tolist() == expect, (forms, lo, hi)
                monkeypatch.setattr(arith, "_VECTOR_HITS", 64)
