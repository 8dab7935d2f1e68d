"""Prime-triple scans: frozen counts, hit semantics and determinism."""

import concurrent.futures
import os
import random
import tracemalloc

import pytest

from psl2count import arith, invariants, search

SPECS = {c: search.case_spec(c) for c in search.CASE_IDS}

# brute-force counts committed once; any change is a regression
FROZEN_Q_1E3 = {"a": 13, "b": 21, "c": 16, "d": 20}
FROZEN_Q_1E4 = {"a": 64, "b": 82}


class TestCaseSpec:
    def test_polynomials(self):
        # the forms (a, b), value a*t + b, of p, s and r
        assert SPECS["a"].polys.polys == ((12, 5), (2, 1), (3, 1))
        assert SPECS["b"].polys.polys == ((12, 7), (3, 2), (2, 1))
        assert SPECS["c"].polys.polys == ((12, 11), (1, 1), (6, 5))
        assert SPECS["d"].polys.polys == ((12, 1), (6, 1), (1, 0))

    def test_role_values(self):
        s = SPECS["a"]
        assert (s.value("p", 2), s.value("r", 2), s.value("s", 2)) == (29, 7, 5)
        s = SPECS["c"]
        assert (s.value("p", 4), s.value("r", 4), s.value("s", 4)) == (59, 29, 5)

    def test_order_identity_all_cases(self):
        # p(p^2-1)/2 factors as 12 p s r on every progression
        for spec in SPECS.values():
            for t in (1, 17, 123456):
                p, s, r = (spec.value(x, t) for x in "psr")
                assert p * (p * p - 1) // 2 == 12 * p * s * r, (spec.case_id, t)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            search.case_spec("e")

    def test_wrong_multiplier_raises(self, monkeypatch):
        # the multiplier a_p/(2 a_m) is right, b is not: 12t + 6 = 2*3*(2t + 3) fails,
        # and so does 12t + 4 = 2*2*(3t + 2)
        p, s, r = search._CASE_FORMS["a"]
        monkeypatch.setitem(search._CASE_FORMS, "a", (p, (2, 3), r))
        with pytest.raises(AssertionError, match=r"\(p\+1\)/2 = 3\*s"):
            search.case_spec("a")
        monkeypatch.setitem(search._CASE_FORMS, "a", (p, s, (3, 2)))
        with pytest.raises(AssertionError, match=r"\(p-1\)/2 = 2\*r"):
            search.case_spec("a")


class TestScanCounts:
    @pytest.mark.parametrize("case_id,count", sorted(FROZEN_Q_1E3.items()))
    def test_frozen_1e3(self, case_id, count):
        assert search.scan(SPECS[case_id], 10**3).q_count == count

    @pytest.mark.parametrize("case_id,count", sorted(FROZEN_Q_1E4.items()))
    def test_frozen_1e4(self, case_id, count):
        assert search.scan(SPECS[case_id], 10**4).q_count == count

    def test_matches_plain_loop(self):
        from psl2count import arith
        for case_id in search.CASE_IDS:
            spec = SPECS[case_id]
            expect = sum(
                1 for t in range(1, 401)
                if all(arith.is_prime(spec.value(x, t)) for x in "psr")
            )
            assert search.scan(spec, 400).q_count == expect, case_id

    def test_sigma_alpha_zero_frozen(self):
        assert search.scan(SPECS["a"], 10**3).sigma_alpha_zero_count == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            search.scan(SPECS["a"], 0)
        with pytest.raises(ValueError):
            search.scan(SPECS["a"], 10, jobs=0)
        with pytest.raises(ValueError):
            search.scan(SPECS["a"], 2**61)
        with pytest.raises(ValueError):
            search.scan(SPECS["a"], 10, hit_cap=-1)

    def test_hit_cap_above_max_refused_before_sieving(self, monkeypatch):
        def no_sieve(*args):
            raise AssertionError("sieve_forms called")

        monkeypatch.setattr(arith, "sieve_forms", no_sieve)
        with pytest.raises(arith.ResourceLimitError, match=f"cap {search.MAX_HITS} "):
            search.scan(SPECS["a"], 100, hit_cap=search.MAX_HITS + 1)


def _plain_block(spec, lo, hi):
    """Reference for search._scan_block: a plain primality loop over t."""
    q_count = sz_count = 0
    hit_ts = []
    for t in range(lo, hi + 1):
        p, s, r = (spec.value(x, t) for x in "psr")
        if not (arith.is_prime(p) and arith.is_prime(s) and arith.is_prime(r)):
            continue
        q_count += 1
        if s in (2, 3) or r in (2, 3):
            continue
        prof = invariants.profile(p)
        if prof.sigma == 0 and prof.alpha == 0:
            sz_count += 1
        hit_ts.append(t)
    return q_count, sz_count, hit_ts


class WheelMin:
    """Runs a class's cases with the windows under test sieved at arith._WHEEL_MIN = wheel_min.

    None keeps the default, where every window here is one class mod 1.
    """

    wheel_min = None

    @pytest.fixture(autouse=True)
    def _wheel_min(self, force_wheel_min):
        if self.wheel_min is not None:
            force_wheel_min(self.wheel_min)


class TestExactSieve(WheelMin):
    @pytest.mark.parametrize("case_id", search.CASE_IDS)
    def test_random_windows_match_plain_loop(self, case_id):
        rng = random.Random(f"sieve-{case_id}")
        for _ in range(10):
            lo = rng.randint(1, 10**9)
            hi = lo + rng.randint(0, 3000)
            got = search._scan_block((case_id, lo, hi, 10**6))
            assert got == _plain_block(SPECS[case_id], lo, hi), (case_id, lo, hi)

    @pytest.mark.parametrize("case_id", search.CASE_IDS)
    def test_low_block_starts_match_plain_loop(self, case_id):
        # Values equal to a sieving prime must survive, and r = t = 1 in
        # case d must not.
        for lo in range(1, 61):
            got = search._scan_block((case_id, lo, 300, 10**6))
            assert got == _plain_block(SPECS[case_id], lo, 300), (case_id, lo)


class TestWheel(WheelMin):
    """The special t and the blocks around 210 t, against the plain loop."""

    @pytest.mark.parametrize("case_id", search.CASE_IDS)
    def test_special_ts_match_plain_loop(self, case_id):
        # a triple outside the 16 classes has a value equal to 2, 3, 5 or 7
        spec = SPECS[case_id]
        special = [t for t in range(8) if any(spec.value(x, t) in (2, 3, 5, 7) for x in "psr")]
        assert special
        for t in special:
            assert search._scan_block((case_id, t, t, 10)) == _plain_block(spec, t, t), (case_id, t)

    @pytest.mark.parametrize("case_id", search.CASE_IDS)
    def test_windows_near_1e12_match_plain_loop(self, case_id):
        rng = random.Random(f"wheel-{case_id}")
        for _ in range(10):
            lo = 10**12 + rng.randint(0, 10**9)
            hi = lo + rng.randint(0, 3000)
            got = search._scan_block((case_id, lo, hi, 10**6))
            assert got == _plain_block(SPECS[case_id], lo, hi), (case_id, lo, hi)

    @pytest.mark.parametrize("case_id", search.CASE_IDS)
    def test_block_sizes_around_the_wheel(self, case_id, monkeypatch):
        # blocks shorter than, equal to and just past 210 t
        base = search.scan(SPECS[case_id], 2000)
        for block in (1, 209, 210, 211):
            monkeypatch.setattr(search, "_BLOCK", block)
            assert search.scan(SPECS[case_id], 2000) == base, (case_id, block)


class TestExactSieveWheelEverywhere(TestExactSieve):
    wheel_min = 1


class TestExactSieveWheelNowhere(TestExactSieve):
    wheel_min = 2**62


class TestWheelEverywhere(TestWheel):
    wheel_min = 1


class TestWheelNowhere(TestWheel):
    wheel_min = 2**62


def test_scan_block_memory():
    # a block keeps only the survivors' offsets, never a mask of its
    # 10**8 t or value arrays over the survivors
    tracemalloc.start()
    try:
        search._scan_block(("a", 1, 10**8, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20, peak


class TestHits:
    def test_first_hit_case_b(self):
        hits = search.scan(SPECS["b"], 10**3).hits
        h = hits[0]
        assert (h.t, h.p, h.s, h.r) == (3, 43, 11, 7)
        assert h.attains == (True, True, True, True)

    def test_case_a_near_miss_then_hit(self):
        hits = search.scan(SPECS["a"], 10**3).hits
        assert (hits[0].t, hits[0].p) == (2, 29)
        assert hits[0].attains == (False, False, False, True)
        assert hits[0].profile.alpha == 1  # 29 = 4 mod 5 inflates three counts
        attaining = [h for h in hits if all(h.attains)]
        assert (attaining[0].t, attaining[0].p, attaining[0].s, attaining[0].r) == (14, 173, 29, 43)

    def test_small_cofactors_excluded(self):
        for case_id in search.CASE_IDS:
            for h in search.scan(SPECS[case_id], 10**3).hits:
                assert h.s not in (2, 3) and h.r not in (2, 3), (case_id, h.t)

    def test_every_large_hit_attains(self):
        for case_id in ("a", "b"):
            for h in search.scan(SPECS[case_id], 10**4).hits:
                if h.p > 37:
                    assert all(h.attains), (case_id, h.t, h.p)
                    assert search.verify_attainment(h) == (True, True, True, True)

    def test_case_c_flags(self):
        hits = search.scan(SPECS["c"], 10**4).hits
        assert hits, "expected hits"
        for h in hits:
            assert h.profile.sigma == 0, h.t
            assert (h.profile.alpha == 1) == (5 in (h.s, h.r)), h.t

    def test_case_d_small_role(self):
        for h in search.scan(SPECS["d"], 10**4).hits:
            assert h.r == h.t  # the unit-slope polynomial carries role r

    def test_hit_cap_keeps_counts_exact(self):
        full = search.scan(SPECS["b"], 10**4)
        capped = search.scan(SPECS["b"], 10**4, hit_cap=3)
        assert len(capped.hits) == 3
        assert capped.hits == full.hits[:3]
        assert capped.q_count == full.q_count

    @pytest.mark.parametrize("case_id", search.CASE_IDS)
    def test_closed_form_profiles_match_factoring(self, case_id):
        # every hit up to t = 10**5, against profile(p) by factoring p -+ 1
        hits = search.scan(SPECS[case_id], 10**5, hit_cap=10**6).hits
        assert hits
        for h in hits:
            assert h.profile == invariants.profile(h.p), (case_id, h.t)

    def test_hit_consistency_guard(self):
        prof = invariants.profile(29)
        with pytest.raises(AssertionError):
            search.TripleHit("a", 2, 29, 5, 11, prof, (False,) * 4)


class TestDeterminism:
    def test_jobs_invariance(self, monkeypatch):
        base = search.scan(SPECS["c"], 10**5, jobs=1)
        for jobs, block in ((2, 7000), (3, 12345)):
            monkeypatch.setattr(search, "_BLOCK", block)
            other = search.scan(SPECS["c"], 10**5, jobs=jobs)
            assert other.q_count == base.q_count
            assert other.sigma_alpha_zero_count == base.sigma_alpha_zero_count
            assert [h.t for h in other.hits] == [h.t for h in base.hits]

    def test_block_size_invariance_serial(self, monkeypatch):
        base = search.scan(SPECS["a"], 10**4)
        monkeypatch.setattr(search, "_BLOCK", 997)
        other = search.scan(SPECS["a"], 10**4)
        assert other == base

    def test_workers_capped_at_machine_parallelism(self, monkeypatch):
        # A pool forks all its max_workers at the first submit, so a huge jobs
        # must not reach it.  The fake pool starts no process: it records
        # max_workers and runs each block in-process.
        asked = []

        class InlinePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(search, "_BLOCK", 997)
        base = search.scan(SPECS["a"], 10**4, jobs=1)
        assert asked == []  # jobs=1 runs in-process
        assert search.scan(SPECS["a"], 10**4, jobs=10**6) == base
        assert asked == [2]


class TestJsonShape:
    def test_schema(self):
        d = search.scan(SPECS["a"], 10**3, hit_cap=2).to_json_dict()
        assert set(d) == {"case", "t_max", "q_count", "sigma_alpha_zero", "first_hits"}
        assert len(d["first_hits"]) == 2
        assert set(d["first_hits"][0]) == {"t", "p", "s", "r", "attains"}
        assert d["first_hits"][0]["attains"] == [False, False, False, True]
