"""Density constants, admissibility checks and the main-term integral."""

import math
import os
import random
import time
import tracemalloc

import numpy as np
import pytest

from psl2count import arith, bhc, oracle, search

FAMS = {c: search.case_spec(c).polys for c in search.CASES}


def _brute_omega(fam, p):
    """omega(p) by trying every residue: the reference for the root formula."""
    return sum(any(v % p == 0 for v in fam.values(t)) for t in range(p))


class TestFamily:
    def test_value_and_values(self):
        fam = bhc.family((12, 5), (3, 1), (2, 1))
        assert fam.value(0, 2) == 29
        assert fam.values(2) == (29, 7, 5)
        assert fam.m == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            bhc.family()
        with pytest.raises(ValueError):
            bhc.family((0, 0))  # leading coefficient 0, here the zero polynomial
        with pytest.raises(ValueError):
            bhc.family((2**70, 0))  # coefficient overflow
        with pytest.raises(ValueError):
            bhc.family((7,))  # a member is a pair (a, b)

    def test_cubics_refused_by_admissibility_check(self):
        # refused on construction, before any check can run
        with pytest.raises(ValueError):
            bhc.family((1, 1, 1, 1))


class TestAdmissibility:
    def test_consecutive_integers_fail_at_two(self):
        assert bhc.check_sh(bhc.family((1, 0), (1, 1))) == 2

    def test_twin_pattern_passes(self):
        assert bhc.check_sh(bhc.family((1, 0), (1, 2))) is None

    def test_case_families_pass(self):
        for case_id, fam in FAMS.items():
            assert bhc.check_sh(fam) is None, case_id

    def test_quadratic_handling(self):
        # members are linear pairs; a quadratic is refused on construction
        for coeffs in ((1, 0, 1), (2, 1, 1), (-1, 0, 1)):
            with pytest.raises(ValueError):
                bhc.family((1, 0), coeffs)
        with pytest.raises(ValueError):
            bhc.family((0, 12, 5))  # three coefficients, even with a zero leading one

    def test_fixed_divisor_of_one_member(self):
        # 3 divides every value of 3t + 3, though not every coefficient of the family
        assert bhc.check_sh(bhc.family((1, 1), (3, 3))) == 3
        with pytest.raises(ValueError, match="fixed prime divisor 3"):
            bhc.hl_constant(bhc.family((1, 1), (3, 3)), 10**4)

    def test_constant_polynomial_rejected(self):
        # every member rises: a constant or falling one is refused on construction
        for member in ((0, 7), (0, -7), (-1, 1), (-12, -5)):
            with pytest.raises(ValueError, match="leading coefficients must be positive"):
                bhc.family((12, 5), member)

    def test_fixed_divisor_from_a_large_content(self):
        # 2**61 - 1 divides both coefficients of the second member; omega_roots
        # decides it at once, where trying every residue would not finish
        q = 2**61 - 1
        assert bhc.check_sh(bhc.family((2, 1), (q, q))) == q


class TestRootCounting:
    def test_examples(self):
        fam = FAMS["a"]
        assert bhc.omega_roots(fam, 5) == 3
        assert bhc.omega_roots(fam, 2) == 1
        assert bhc.omega_roots(fam, 13) == 3

    def test_brute_matches_formula_all_small_primes(self):
        # 3t + 3 vanishes identically mod 3, and 5t + 10 mod 5
        fams = {**FAMS, "vanishing members": bhc.family((1, 1), (3, 3), (5, 10))}
        for name, fam in fams.items():
            for p in arith.primes_in_range(2, 97):
                assert bhc.omega_roots(fam, p) == _brute_omega(fam, p), (name, p)
        assert [bhc.omega_roots(fams["vanishing members"], p) for p in (3, 5)] == [3, 5]

    def test_bounded_by_degree_sum(self):
        for fam in FAMS.values():
            for p in arith.primes_in_range(2, 500):
                assert 0 <= bhc.omega_roots(fam, p) <= min(3, p)


class TestConstant:
    def test_identity_family_telescopes(self):
        hc = bhc.hl_constant(bhc.family((1, 0)), 10**4)
        assert abs(hc.value - 1.0) < 1e-12

    def test_twin_constant(self):
        # 2 * prod (1 - 1/(p-1)^2) = 1.32032...
        hc = bhc.hl_constant(bhc.family((1, 0), (1, 2)), 10**6)
        assert abs(hc.value - 1.3203236316) < 2e-6

    def test_case_constants_agree(self):
        ha = bhc.hl_constant(FAMS["a"], 10**5)
        hb = bhc.hl_constant(FAMS["b"], 10**5)
        # both families share the local root counts at every prime
        assert math.isclose(ha.value, hb.value, rel_tol=1e-12)

    def test_stabilisation_within_tail_bound(self):
        fam = FAMS["a"]
        for trunc in (10**4, 10**5, 10**6):
            here = bhc.hl_constant(fam, trunc)
            there = bhc.hl_constant(fam, 2 * trunc)
            assert abs(there.value - here.value) < here.tail_bound, trunc

    def test_per_prime_factor_near_one(self):
        fam = FAMS["a"]
        for p in arith.primes_in_range(101, 1000):
            w = bhc.omega_roots(fam, p)
            factor = (1 - 1 / p) ** (-fam.m) * (1 - w / p)
            assert 0.9 < factor < 1.1, p

    def test_truncation_floor(self):
        with pytest.raises(ValueError):
            bhc.hl_constant(FAMS["a"], 999)

    def test_inadmissible_family_rejected(self):
        with pytest.raises(ValueError):
            bhc.hl_constant(bhc.family((1, 0), (1, 1)), 10**4)


# Families for the closed-form omega: the paper's cases, an exceptional prime
# from a resultant, members that repeat up to a constant factor, and a split
# (m+, m-) = (5, 6), whose leading coefficients 60, 6 and 5 make 5 exceptional.
CLOSED_FORM_FAMS = {
    **{f"case {c}": fam for c, fam in FAMS.items()},
    "twin": bhc.family((1, 0), (1, 2)),
    "linear pair, resultant 1999": bhc.family((2, 1), (1, 1000)),
    "repeated and rescaled": bhc.family((1, 0), (1, 2), (1, 0), (3, 6)),
    "split (5, 6)": bhc.PolynomialFamily(search.split_forms(5, 6)),
}


def _random_linear_families(seed=20241, count=20):
    """Seeded families of 1-4 linear members, some with a member repeated
    up to a factor c in {2, 3, 5, 7}."""
    rng = random.Random(seed)
    fams = []
    for _ in range(count):
        polys = []
        for _ in range(rng.randint(1, 4)):
            b = rng.randint(-(2**20), 2**20)  # b drawn before a, as the families were first seeded
            polys.append((rng.randint(1, 2**20), b))
        a, b = rng.choice(polys)
        if rng.random() < 0.4:
            c = rng.choice((2, 3, 5, 7))
            polys.append((c * a, c * b))
        fams.append(bhc.family(*polys))
    return fams


def _reference_constant(fam, truncation):
    """The Euler product one prime at a time, as a plain reference."""
    return math.exp(math.fsum(
        -fam.m * math.log1p(-1.0 / p) + math.log1p(-bhc.omega_roots(fam, p) / p)
        for p in arith.primes_in_range(2, truncation)
    ))


class TestClosedForm:
    @pytest.mark.parametrize("name", CLOSED_FORM_FAMS)
    def test_omega_matches_root_count_below_1e5(self, name):
        fam = CLOSED_FORM_FAMS[name]
        primes = arith.primes_in_range(2, 10**5)
        got = bhc._omega(fam, np.array(primes, dtype=np.uint64)).tolist()
        want = [bhc.omega_roots(fam, p) for p in primes]
        bad = [(p, g, w) for p, g, w in zip(primes, got, want) if g != w]
        assert not bad, bad[:5]

    def test_omega_matches_brute_count_on_random_families(self):
        exceptional_above_600 = 0
        for fam in _random_linear_families():
            polys = fam.polys
            special = [a for a, _ in polys]
            special += [a_i * b_j - a_j * b_i for i, (a_i, b_i) in enumerate(polys) for a_j, b_j in polys[:i]]
            primes = [q for q in arith.primes_in_range(2, 5000)
                      if q < 600 or any(n and n % q == 0 for n in special)]
            exceptional_above_600 += sum(q > 600 for q in primes)
            got = bhc._omega(fam, np.array(primes, dtype=np.uint64)).tolist()
            want = [_brute_omega(fam, q) for q in primes]
            bad = [(q, g, w) for q, g, w in zip(primes, got, want) if g != w]
            assert not bad, (fam, bad[:5])
        assert exceptional_above_600 > 0

    @pytest.mark.parametrize("lo,hi", [(2, 1999), (1990, 2010), (1999, 1999), (2000, 3000)])
    def test_omega_on_windows_around_an_exceptional_prime(self, lo, hi):
        # the prime arrays end at, straddle, hold only and start past 1999,
        # the one prime where the pair shares a root
        fam = CLOSED_FORM_FAMS["linear pair, resultant 1999"]
        primes = arith.primes_in_range(lo, hi)
        got = bhc._omega(fam, np.array(primes, dtype=np.uint64)).tolist()
        assert got == [_brute_omega(fam, p) for p in primes]

    @pytest.mark.parametrize("name", ["case a", "twin", "linear pair, resultant 1999"])
    def test_constant_matches_per_prime_product(self, name):
        fam = CLOSED_FORM_FAMS[name]
        for truncation in (10**4, 10**5):
            got = bhc.hl_constant(fam, truncation).value
            assert math.isclose(got, _reference_constant(fam, truncation), rel_tol=1e-13), truncation

    def test_only_small_and_exceptional_primes_are_counted_one_by_one(self, monkeypatch):
        seen = []
        real = bhc.omega_roots
        monkeypatch.setattr(bhc, "omega_roots", lambda fam, p: seen.append(p) or real(fam, p))
        # check_sh asks first, at the primes up to the number of members m
        bhc.hl_constant(FAMS["a"], 10**5)
        assert seen == [2, 3] + [2, 3]  # then the primes dividing case a's leading coefficients and resultants
        seen.clear()
        # a repeated member must not give a zero resultant
        bhc.hl_constant(bhc.family((1, 0), (1, 2), (1, 0)), 10**5)
        assert seen == [2, 3] + [2]
        seen.clear()
        bhc.hl_constant(CLOSED_FORM_FAMS["linear pair, resultant 1999"], 10**5)
        assert seen == [2] + [2, 1999]

    def test_mod_primes_of_large_and_negative_integers(self):
        primes = arith.primes_in_range(2, 2000) + [4294967291]  # the largest prime below 2**32
        arr = np.array(primes, dtype=np.uint64)
        for n in (0, 1, -1, 2**32, -(2**32) - 1, 3**200, -(7**90) + 11):
            assert bhc._mod_primes(n, arr).tolist() == [n % p for p in primes], n

    def test_truncation_cap_is_a_resource_abort(self):
        assert oracle.ResourceLimitError is arith.ResourceLimitError
        with pytest.raises(arith.ResourceLimitError):
            bhc.hl_constant(FAMS["a"], arith.PRIME_CAP + 1)
        assert arith.PRIME_CAP < 2**32


def _exact_sum_parts(arr, cuts):
    """_exact_sum over arr split at the sorted offsets cuts, added and rounded once."""
    bounds = [0, *cuts, len(arr)]
    total = sum(bhc._exact_sum(arr[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    return total / 2**bhc._SUM_SCALE


class TestExactSum:
    """_exact_sum, rounded once, against math.fsum: both give the correctly rounded exact sum."""

    @staticmethod
    def _check(arr, rng, splits=5):
        want = math.fsum(arr.tolist())
        assert _exact_sum_parts(arr, []) == want
        for _ in range(splits):
            cuts = sorted(rng.integers(0, len(arr) + 1, size=rng.integers(1, 8)).tolist())
            assert _exact_sum_parts(arr, cuts) == want, cuts

    def test_heavy_cancellation(self):
        rng = np.random.default_rng(14)
        for scale in (1e-300, 1e-20, 1.0, 1e20, 1e290):
            x = rng.uniform(0.5, 1.0, size=500) * scale
            arr = np.concatenate((x, -x * (1 + 2**-52), rng.uniform(-1, 1, size=7) * scale * 2**-60))
            rng.shuffle(arr)
            assert abs(math.fsum(arr.tolist())) < scale * 2**-40  # the cancellation is real
            self._check(arr, rng)

    def test_magnitudes_subnormals_and_zeros(self):
        rng = np.random.default_rng(1126)
        wide = rng.choice((-1.0, 1.0), size=2000) * 10.0 ** rng.uniform(-300, 300, size=2000)
        tiny = rng.integers(-(2**52), 2**52, size=300) * 5e-324  # subnormal multiples of 2**-1074
        arr = np.concatenate((wide, tiny, [0.0, -0.0] * 50))
        rng.shuffle(arr)
        self._check(arr, rng)
        self._check(tiny, rng)
        self._check(np.array([5e-324, 5e-324, -2.2250738585072014e-308]), rng)
        self._check(np.array([1e308, -1e308, 1e-308]), rng)

    def test_zeros_and_empty(self):
        assert bhc._exact_sum(np.empty(0)) == 0
        assert bhc._exact_sum(np.array([0.0, -0.0, 0.0])) == 0
        assert _exact_sum_parts(np.array([2.5, -0.0]), [1]) == 2.5

    def test_single_terms_are_exact(self):
        for x in (1.0, -3.75, 0.1, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308):
            num, den = x.as_integer_ratio()
            assert bhc._exact_sum(np.array([x])) * den == num * 2**bhc._SUM_SCALE, x

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_raises(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            bhc._exact_sum(np.array([1.0, bad, 2.0]))

    def test_the_term_cap_is_checked_before_any_work(self):
        # a zero-copy view of 2**26 + 1 terms: the cap must refuse it before reading them
        with pytest.raises(ValueError, match=r"at most 2\*\*26 terms"):
            bhc._exact_sum(np.broadcast_to(np.float64(0.0), (2**26 + 1,)))


def _exact_reference(arr):
    """The exact sum of a float array in units of 2**-_SUM_SCALE, one term at a time in Python ints."""
    total = 0
    for x in arr.tolist():
        num, den = x.as_integer_ratio()  # den is a power of two at most 2**1074
        total += num * (2**bhc._SUM_SCALE // den)
    return total


def _summed_arrays(monkeypatch, run):
    """Copies of every array _exact_sum is given while run() runs."""
    seen = []
    real = bhc._exact_sum
    monkeypatch.setattr(bhc, "_exact_sum", lambda terms: seen.append(terms.copy()) or real(terms))
    monkeypatch.setattr(os, "cpu_count", lambda: 1)  # one process: a forked worker's calls never reach seen
    run()
    monkeypatch.undo()
    return seen


def _frexp_span(arr):
    exps = np.frexp(arr[arr != 0])[1]
    return int(exps.max() - exps.min())


class TestExactSumAgainstTheExactInteger:
    """_exact_sum's int itself, not only its rounding, against a pure-Python reference."""

    def test_euler_windows(self, monkeypatch):
        windows = []
        for fam in (FAMS["a"], FAMS["d"], CLOSED_FORM_FAMS["twin"]):
            windows += _summed_arrays(monkeypatch, lambda: bhc.hl_constant(fam, 10**6))
        assert len(windows) == 3 * len(list(arith.prime_segments(2, 10**6)))
        assert max(map(_frexp_span, windows)) >= 3 * bhc._BAND  # the first odd window spans several bands
        for terms in windows:
            assert bhc._exact_sum(terms) == _exact_reference(terms)

    def test_quadrature_value_and_error_terms(self, monkeypatch):
        hc = bhc.hl_constant(FAMS["a"], 10**4)
        arrays = _summed_arrays(monkeypatch, lambda: bhc.estimate_E(FAMS["a"], 1e9, hc))
        assert len(arrays) == 2 * bhc._PANELS // bhc._BLOCK
        for terms in arrays:
            assert bhc._exact_sum(terms) == _exact_reference(terms)

    @pytest.mark.parametrize("span", [0, 9, 10, 11, 40, 2040])
    def test_random_exponent_spans(self, span):
        rng = np.random.default_rng(span)
        for least in ((-1021, 0, 500) if span < 2040 else (-1021,)):
            exps = rng.integers(least, least + span + 1, size=3000)
            exps[:2] = least, least + span
            arr = np.ldexp(rng.choice((-1.0, 1.0), size=3000) * rng.uniform(1.0, 2.0, size=3000), exps)
            assert _frexp_span(arr) == span
            assert bhc._exact_sum(arr) == _exact_reference(arr), least
            assert bhc._exact_sum(arr) / 2**bhc._SUM_SCALE == math.fsum(arr.tolist())

    def test_zeros_of_both_signs(self):
        for arr in ([0.0], [-0.0], [-0.0, 0.0, -0.0], [0.0, 3.5, -0.0, -1e-300, 0.0], [-0.0, 5e-324], [0.0, 1e3, -0.0, -1e200]):
            arr = np.array(arr)
            assert bhc._exact_sum(arr) == _exact_reference(arr), arr

    def test_subnormals_and_normals_in_one_band(self):
        rng = np.random.default_rng(1074)
        # subnormals k * 2**-1074 with k of 46 to 52 bits, beside normals just above 2**-1022
        tiny = rng.integers(2**45, 2**52, size=500) * 5e-324
        normal = rng.uniform(1.0, 8.0, size=500) * 2.2250738585072014e-308
        arr = np.concatenate((tiny, -normal, normal[:100], -tiny[:50]))
        rng.shuffle(arr)
        assert (np.abs(tiny) < 2.2250738585072014e-308).all()
        assert _frexp_span(arr) < bhc._BAND
        assert bhc._exact_sum(arr) == _exact_reference(arr)


def _one_array_constant(fam, truncation):
    """The Euler product with every log factor in one array over prime_array, summed by math.fsum."""
    primes = arith.prime_array(truncation)
    p = primes.astype(float)
    return math.exp(math.fsum(-fam.m * np.log1p(-1.0 / p) + np.log1p(-bhc._omega(fam, primes) / p)))


SEGMENT_FAMS = {**{f"case {c}": fam for c, fam in FAMS.items()}, "twin": CLOSED_FORM_FAMS["twin"]}


class TestSegmentedConstant:
    @pytest.mark.parametrize("name", SEGMENT_FAMS)
    def test_segment_size_cannot_change_the_constant(self, name, monkeypatch):
        fam = SEGMENT_FAMS[name]
        for truncation in (10**4, 10**6):
            want = _one_array_constant(fam, truncation)
            got = {}
            for size in (2**10, arith._PRIME_SEGMENT, 10**9):
                monkeypatch.setattr(arith, "_PRIME_SEGMENT", size)
                hc = bhc.hl_constant(fam, truncation)
                got[size] = (hc.value.hex(), hc.tail_bound.hex())
            assert len(set(got.values())) == 1, got
            assert got[10**9][0] == want.hex(), truncation

    @pytest.mark.parametrize("truncation", [10**4, 10**6])
    def test_omega_skip_at_the_window_boundary(self, truncation, monkeypatch):
        # 2**9 t per window puts 1999, the pair's one exceptional prime above 2,
        # in the second odd window: only the windows up to it may test divisibility
        fam = CLOSED_FORM_FAMS["linear pair, resultant 1999"]
        monkeypatch.setattr(arith, "_PRIME_SEGMENT", 2**9)
        segments = list(arith.prime_segments(2, truncation))
        assert 1999 in segments[2].tolist() and segments[3][0] > 1999
        windows, tested = [], set()
        monkeypatch.setattr(os, "cpu_count", lambda: 1)  # one process: a forked worker's windows never reach these spies
        real_segments, real_mod = arith.prime_segments, bhc._mod_primes
        monkeypatch.setattr(arith, "prime_segments", lambda lo, hi: (windows.append(w) or w for w in real_segments(lo, hi)))
        monkeypatch.setattr(bhc, "_mod_primes", lambda n, primes: tested.add(len(windows)) or real_mod(n, primes))
        got = bhc.hl_constant(fam, truncation).value
        assert [w.tolist() for w in windows] == [s.tolist() for s in segments]
        assert tested == {1, 2, 3}
        assert got.hex() == _one_array_constant(fam, truncation).hex()

    @pytest.mark.parametrize("truncation", [786435, 786436])
    def test_an_empty_last_window(self, truncation):
        # a fixed stride of 2**17 t would leave a last window holding only 786435 = 5 * 157287
        # (and 786436 is even); the four equal windows of arith.windows each hold primes
        segments = list(arith.prime_segments(2, truncation))
        assert len(segments) == 5 and all(len(s) for s in segments)
        assert bhc._omega(FAMS["a"], segments[-1][:0]).tolist() == []
        got = bhc.hl_constant(FAMS["a"], truncation).value
        assert got.hex() == _one_array_constant(FAMS["a"], truncation).hex()

    def test_estimate_workload_frozen_bit_for_bit(self):
        # perfbench's estimate workload, bhc a --x 1e9 --trunc 1e7: the banded
        # exact sum and the omega skip keep every bit of the bincount sum's answer
        hc = bhc.hl_constant(FAMS["a"], 10**7)
        assert (hc.value.hex(), hc.tail_bound.hex()) == ("0x1.6ddb177522423p+2", "0x1.c8faeecc02a8cp-23")
        est = bhc.estimate_E(FAMS["a"], 1e9, hc)
        assert (est.integral.hex(), est.e_value.hex(), est.quadrature_error.hex()) == (
            "0x1.a4a5172bc6356p+16", "0x1.2c93b0e7c46ffp+19", "0x1.29379cbcb6b5cp-11")

    def test_segments_cover_the_primes_in_order(self, monkeypatch):
        # the windows hl_constant reads
        monkeypatch.setattr(arith, "_PRIME_SEGMENT", 2**10)
        for n in (1000, 2047, 2048, 2049, 4099, 10**5):  # 4099 = 2t + 1, t = 2 * 2**10 + 1: a last segment of one t, holding a prime
            segments = list(arith.prime_segments(2, n))
            assert all(s.dtype == np.uint64 for s in segments)
            assert np.concatenate(segments).tolist() == arith.primes_in_range(2, n), n

    def test_frozen_at_the_cap(self):
        # the one-array form's value at PRIME_CAP, before the product was streamed
        assert bhc.hl_constant(FAMS["a"], 10**8).value == 5.716497200290299

    def test_memory_stays_flat(self):
        # tracemalloc, not the process's ru_maxrss: a child started by vfork or
        # posix_spawn inherits its parent's high-water mark, and in-process the
        # mark only ever rises, so neither isolates hl_constant.  The one-array
        # form peaked at 25.4 MiB here.
        tracemalloc.start()
        try:
            bhc.hl_constant(FAMS["a"], 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


class TestQuadrature:
    def test_polynomial_exact(self):
        val, err = bhc.integrate_bracket(lambda x: x * x, 0.0, 1.0)
        assert abs(val - 1 / 3) < 1e-12

    def test_reciprocal(self):
        val, _ = bhc.integrate_bracket(lambda x: 1.0 / x, 1.0, math.e)
        assert abs(val - 1.0) < 1e-10

    def test_wide_logarithmic_range(self):
        val, _ = bhc.integrate_bracket(lambda x: 1.0 / x, 1.0, 1e9)
        assert abs(val - math.log(1e9)) < 1e-7 * math.log(1e9)

    def test_vectorised_callable(self):
        import numpy as np
        val, _ = bhc.integrate_bracket(np.sin, 0.0, math.pi)
        assert abs(val - 2.0) < 1e-10


def _seconds_to_refuse(f, lo, hi):
    """The least of three times integrate_bracket takes to raise ValueError on f."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(ValueError), np.errstate(divide="ignore", invalid="ignore"):
            bhc.integrate_bracket(f, lo, hi)
        times.append(time.perf_counter() - start)
    return min(times)


class TestBracket:
    @pytest.mark.parametrize("f,lo,hi,exact", [
        (lambda x: x * x, 0.0, 1.0, 1 / 3),            # convex
        (lambda x: 1.0 / x, 1.0, math.e, 1.0),
        (lambda x: 1.0 / x, 1.0, 1e9, math.log(1e9)),
        (np.sin, 0.0, math.pi, 2.0),                   # concave
        (lambda x: 2.0 * x + 1.0, 0.0, 3.0, 12.0),     # both: the bracket is shut up to rounding
    ], ids=["square", "reciprocal", "reciprocal to 1e9", "sine", "linear"])
    def test_error_bounds_the_exact_integral(self, f, lo, hi, exact):
        val, err = bhc.integrate_bracket(f, lo, hi)
        assert abs(val - exact) <= err
        assert err < 1e-7 * exact  # and is not vacuous

    def test_error_bounds_case_a_at_1e9(self, monkeypatch):
        calls = []
        real = bhc.integrate_bracket
        monkeypatch.setattr(bhc, "integrate_bracket", lambda f, lo, hi: calls.append((f, lo, hi)) or real(f, lo, hi))
        hc = bhc.hl_constant(FAMS["a"], 10**4)
        est = bhc.estimate_E(FAMS["a"], 1e9, hc)
        (f, lo, hi), = calls
        val, err = real(f, lo, hi)
        assert (est.integral, est.quadrature_error) == (val, hc.value * err)
        monkeypatch.setattr(bhc, "_PANELS", 10 * bhc._PANELS)
        fine_val, fine_err = real(f, lo, hi)
        assert fine_err < err / 50
        # every value within fine_err of fine_val, the exact integral among them, is within err of val
        assert abs(val - fine_val) + fine_err <= err

    @pytest.mark.parametrize("f", [lambda x: 1.0 / (x - 0.5), lambda x: np.log(x - 0.5)], ids=["pole", "nan"])
    def test_bad_integrands_are_refused_at_once(self, f):
        assert _seconds_to_refuse(f, 0.0, 1.0) < 0.1

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_bad_ranges(self, lo, hi):
        with pytest.raises(ValueError):
            bhc.integrate_bracket(np.sin, lo, hi)

    def test_the_old_name_is_the_same_function(self):
        # perfbench/tracer.py wraps the quadrature by this name and rebinds every name bound to it
        assert bhc.integrate_adaptive is bhc.integrate_bracket


def _lower_limit_by_loop(fam, limit):
    """The first t >= 0 at which every value is at least 2, trying each t up to limit; None past it."""
    for t in range(limit + 1):
        if all(v >= 2 for v in fam.values(t)):
            return t
    return None


class TestEstimate:
    def test_lower_limits(self):
        assert bhc.integration_lower_limit(FAMS["a"]) == 1
        assert bhc.integration_lower_limit(FAMS["b"]) == 1
        assert bhc.integration_lower_limit(FAMS["c"]) == 1
        assert bhc.integration_lower_limit(FAMS["d"]) == 2

    def test_lower_limit_matches_the_loop(self):
        rng = random.Random(2)
        fams = list(FAMS.values())
        for _ in range(3000):
            fams.append(bhc.family(*[(rng.randint(1, 50), rng.randint(-50, 50)) for _ in range(rng.randint(1, 4))]))
        for fam in fams:
            # every member with 1 <= a <= 50 and |b| <= 50 is at least 2 from t = 52 on
            assert bhc.integration_lower_limit(fam) == _lower_limit_by_loop(fam, 100), fam

    def test_lower_limit_far_out_or_nowhere(self):
        assert bhc.integration_lower_limit(bhc.family((1, -3000000), (12, 5))) == 3000002
        with pytest.raises(ValueError):
            bhc.family((-1, 1))  # 1 - t never reaches 2, and is refused on construction

    def test_rejects_x_below_limit(self):
        hc = bhc.hl_constant(FAMS["a"], 10**4)
        with pytest.raises(ValueError):
            bhc.estimate_E(FAMS["a"], 1.0, hc)

    def test_x_near_the_float_range(self):
        hc = bhc.hl_constant(FAMS["a"], 10**4)
        est = bhc.estimate_E(FAMS["a"], 1e307, hc)  # 12 * 1e307 + 5 is still a finite float
        assert abs(est.integral / 2.8259189181163144e298 - 1) < 1e-9  # mpmath, 30 digits
        for x in (1e308, 1.7e308):  # 12 * x + 5 overflows to inf
            with pytest.raises(ValueError, match="12\\*x \\+ 5 overflows"):
                bhc.check_x(FAMS["a"], x)
            with pytest.raises(ValueError, match="overflows"):
                bhc.estimate_E(FAMS["a"], x, hc)
        for x in (math.inf, -math.inf, math.nan, 10**400, -10**400):  # an int past the float range is infinite too
            with pytest.raises(ValueError, match="x must be finite"):
                bhc.check_x(FAMS["a"], x)
            with pytest.raises(ValueError, match="x must be finite"):
                bhc.estimate_E(FAMS["a"], x, hc)

    def test_desk_scale_prediction(self):
        # committed brute-force counts at t_max = 10**6
        hc = bhc.hl_constant(FAMS["a"], 10**6)
        est = bhc.estimate_E(FAMS["a"], 10**6, hc)
        assert abs(est.e_value / 2064 - 1) < 0.05
        hcb = bhc.hl_constant(FAMS["b"], 10**6)
        estb = bhc.estimate_E(FAMS["b"], 10**6, hcb)
        assert abs(estb.e_value / 2051 - 1) < 0.05

    def test_large_x_target(self):
        hc = bhc.hl_constant(FAMS["a"], 10**6)
        est = bhc.estimate_E(FAMS["a"], 10**9, hc)
        assert abs(est.e_value - 615580.7) / 615580.7 < 5e-4
        assert est.quadrature_error < 1e-3

    def test_compare_sign(self):
        hc = bhc.hl_constant(FAMS["a"], 10**4)
        est = bhc.estimate_E(FAMS["a"], 10**6, hc)
        assert bhc.compare(2064, est) > 0          # prediction runs high here
        assert bhc.compare(10**9, est) < 0
