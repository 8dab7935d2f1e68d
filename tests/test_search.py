"""Prime-triple scans: frozen counts, hit semantics and determinism."""

import math
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

from conftest import _assert_no_child_left
from psl2count import arith, bhc, cli, invariants, runner, search

SPECS = {c: search.case_spec(c) for c in search.CASES}
HEADS = {c: (spec.polys.polys, spec.floor) for c, spec in SPECS.items()}  # the forms and floor of search._scan_block

# every coprime split (m+, m-) with 6 | m+ m- <= 36, by M+:M- name: 28 of them
SPLITS = [f"{mp}:{mm}" for mp in range(1, 37) for mm in range(1, 37)
          if math.gcd(mp, mm) == 1 and mp * mm <= 36 and mp * mm % 6 == 0]

# brute-force counts committed once; any change is a regression
FROZEN_Q_1E3 = {"a": 13, "b": 21, "c": 16, "d": 20}
FROZEN_Q_1E4 = {"a": 64, "b": 82}


class TestCaseSpec:
    def test_polynomials(self):
        # the forms (a, b), value a*t + b, of p, s and r, from split_forms of each row of CASES
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

    @pytest.mark.parametrize("name,floor,least", [("a", 3, 5), ("b", 3, 5), ("c", 3, 5), ("d", 3, 5), ("1:1", 1, 2),
                                                  ("3:10", 5, 7), ("15:2", 5, 7), ("7:6", 7, 11), ("1:30", 5, 7)])
    def test_floor_and_least_hit_value(self, name, floor, least):
        # the largest prime of m+ m- (1 for 1:1), and the next prime past it
        spec = search.case_spec(name)
        assert (spec.split, spec.floor, spec.least_hit) == (search.split_of(name), floor, least)
        assert spec == search.CaseSpec(name, search.split_of(name))

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            search.case_spec("e")

    @pytest.mark.parametrize("name", ["e", "A", "", "3:", ":3", "3:2:1", "x:y", " 3:2", "3:2 ", "+3:2", "3:-2",
                                      "3.0:2", "\u00b2:3", "\u0663:2"])
    def test_names_that_are_no_case(self, name):
        # neither a letter a-d nor M+:M- in ASCII digits: the message names both forms
        with pytest.raises(ValueError, match="one of a, b, c, d or a split M\\+:M-"):
            search.split_of(name)

    @pytest.mark.parametrize("name", ["2:4", "0:3", "3:0", "6:3"])
    def test_split_names_that_are_no_split(self, name):
        with pytest.raises(ValueError, match="coprime"):
            search.case_spec(name)

    def test_split_names(self):
        assert [search.split_of(c) for c in search.CASES] == [search.CASES[c] for c in search.CASES]
        assert [search.split_of(n) for n in ("4:3", "1:1", "03:10", "15:2")] == [(4, 3), (1, 1), (3, 10), (15, 2)]
        for c in search.CASES:
            # a letter and its split give the same forms, each under its own label
            pair = search.case_spec("%d:%d" % search.CASES[c])
            assert (pair.polys, pair.case_id) == (SPECS[c].polys, "%d:%d" % search.CASES[c])
        assert len(SPLITS) == 28 and {"3:2", "2:3", "6:1", "1:6", "4:3", "3:10"} <= set(SPLITS)

    def test_wrong_multiplier_raises(self):
        # a split needs coprime m+, m- >= 1: (2, 4), (6, 3) and (3, 3) share a
        # factor, and the others have a multiplier below 1
        for pair in ((2, 4), (6, 3), (3, 3), (0, 1), (1, 0), (-1, 6), (3, -2)):
            with pytest.raises(ValueError, match="coprime"):
                search.split_forms(*pair)


class TestSplitFamily:
    def test_large_pairs_are_immediate(self):
        # p0 comes from an inverse of m+ mod m-, not from a walk of up to m-
        # steps over [1, 2 m+ m-]; here m+ = -1 mod m-, the walk's longest case
        start = time.perf_counter()
        (a_p, p0), _, _ = search.split_forms(10**7, 10**7 + 1)
        assert time.perf_counter() - start < 0.1
        assert (a_p, p0) == (2 * 10**7 * (10**7 + 1), 2 * 10**14 - 1)

    def test_identities_and_least_p0(self):
        for m_plus in range(1, 40):
            for m_minus in range(1, 40):
                if math.gcd(m_plus, m_minus) != 1:
                    continue
                (a_p, p0), (a_s, s0), (a_r, r0) = search.split_forms(m_plus, m_minus)
                assert a_p == 2 * m_plus * m_minus and 1 <= p0 <= a_p
                assert p0 == min(p for p in range(1, a_p + 1)
                                 if (p + 1) % (2 * m_plus) == 0 and (p - 1) % (2 * m_minus) == 0)
                for t in (0, 1, 7):
                    p = a_p * t + p0
                    assert (p + 1, p - 1) == (2 * m_plus * (a_s * t + s0), 2 * m_minus * (a_r * t + r0))

    def test_admissible_exactly_when_six_divides(self):
        pairs = [(mp, mm) for mp in range(1, 401) for mm in range(1, 400 // mp + 1) if math.gcd(mp, mm) == 1]
        assert len(pairs) == 1771  # the sum of 2**omega(n) over n <= 400
        for pair in pairs:
            failing = bhc.check_sh(bhc.PolynomialFamily(search.split_forms(*pair)))
            assert (failing is None) == (pair[0] * pair[1] % 6 == 0), (pair, failing)

    def test_closed_form_counts_on_every_triple(self):
        # s and r primes above every prime of m+ m-: tau((p + 1)/2) = 2 tau(m+)
        # and tau((p - 1)/2) = 2 tau(m-), so the counts depend on the pair alone
        triples = 0
        for m_plus in range(1, 61):
            for m_minus in range(1, 60 // m_plus + 1):
                if math.gcd(m_plus, m_minus) != 1 or m_plus * m_minus % 6:
                    continue
                forms = search.split_forms(m_plus, m_minus)
                floor = max(q for q, _ in arith.factorize(m_plus * m_minus))
                delta, epsilon = 2 * arith.tau(m_plus), 2 * arith.tau(m_minus)
                for t in arith.sieve_forms(forms, 0, 2 * 10**4).tolist():  # offsets from t = 0
                    p, s, r = (a * t + b for a, b in forms)
                    if min(s, r) <= floor:
                        continue
                    triples += 1
                    want = invariants.counts(invariants.assemble_profile(p, delta, epsilon))
                    assert invariants.counts(invariants.profile(p)) == want, (m_plus, m_minus, p)
        assert triples == 6124


class TestScanCounts:
    @pytest.mark.parametrize("case_id,count", sorted(FROZEN_Q_1E3.items()))
    def test_frozen_1e3(self, case_id, count):
        assert search.scan(SPECS[case_id], 10**3).q_count == count

    @pytest.mark.parametrize("case_id,count", sorted(FROZEN_Q_1E4.items()))
    def test_frozen_1e4(self, case_id, count):
        assert search.scan(SPECS[case_id], 10**4).q_count == count

    def test_matches_plain_loop(self):
        from psl2count import arith
        for case_id in search.CASES:
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


def _plain_block(spec, lo, hi, floor=3):
    """Reference for search._scan_block: a plain primality loop over t, whose
    hits have s and r past floor, the largest prime of m+ m-."""
    q_count = sz_count = 0
    hit_ts = []
    for t in range(lo, hi + 1):
        p, s, r = (spec.value(x, t) for x in "psr")
        if not (arith.is_prime(p) and arith.is_prime(s) and arith.is_prime(r)):
            continue
        q_count += 1
        if min(s, r) <= floor:
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
    @pytest.mark.parametrize("case_id", search.CASES)
    def test_random_windows_match_plain_loop(self, case_id):
        rng = random.Random(f"sieve-{case_id}")
        for _ in range(10):
            lo = rng.randint(1, 10**9)
            hi = lo + rng.randint(0, 3000)
            got = search._scan_block((*HEADS[case_id], lo, hi, 10**6))
            assert got == _plain_block(SPECS[case_id], lo, hi), (case_id, lo, hi)

    @pytest.mark.parametrize("case_id", search.CASES)
    def test_low_block_starts_match_plain_loop(self, case_id):
        # Values equal to a sieving prime must survive, and r = t = 1 in
        # case d must not.
        for lo in range(1, 61):
            got = search._scan_block((*HEADS[case_id], lo, 300, 10**6))
            assert got == _plain_block(SPECS[case_id], lo, 300), (case_id, lo)

    @pytest.mark.parametrize("pair", [(3, 10), (15, 2)])
    def test_split_family_hits_start_past_its_largest_prime(self, pair):
        # 5 divides m+ m-, so the hits start past 5: at t = 1 (3, 10) has
        # the triple (101, 17, 5) and at t = 2 (15, 2) has (149, 5, 37)
        forms = search.split_forms(*pair)
        spec = search.CaseSpec(f"{pair}", pair)
        for lo in range(1, 61):
            got = search._scan_block((forms, spec.floor, lo, 300, 10**6))
            assert got == _plain_block(spec, lo, 300, floor=5), (pair, lo)


class TestSplitScans:
    """scan on every split of SPLITS, named M+:M-, against the plain loop."""

    @pytest.mark.parametrize("name", SPLITS)
    def test_scan_matches_plain_loop_at_one_and_two_jobs(self, name, force_wheel_min, cores):
        spec = search.case_spec(name)
        floor = max(q for q, _ in arith.factorize(math.prod(search.split_of(name))))
        q_count, sz_count, hit_ts = _plain_block(spec, 1, 10**4, floor=floor)
        assert q_count > 0
        one = search.scan(spec, 10**4, jobs=1)
        # the same t through the wheel, its classes shared by two processes, one of them forked
        force_wheel_min(1)
        cores(2)
        two = search.scan(spec, 10**4, jobs=2)
        _assert_no_child_left()
        assert two == one
        assert (one.case_id, one.q_count, one.sigma_alpha_zero_count) == (name, q_count, sz_count)
        assert [h.t for h in one.hits] == hit_ts
        for h in one.hits:
            assert search.verify_attainment(h) == h.attains, (name, h.t)

    def test_split_of_a_case_scans_as_the_case(self):
        a, split = search.scan(SPECS["a"], 10**4), search.scan(search.case_spec("3:2"), 10**4)
        assert split.case_id == "3:2"
        assert split.to_json_dict() == dict(a.to_json_dict(), case="3:2")

    def test_one_one_starts_where_s_and_r_reach_two(self):
        # m+ m- = 1 has no prime: the hits start where s and r pass 1, and the
        # only triple is (5, 3, 2) at t = 2, as r = t and s = t + 1
        summary = search.scan(search.case_spec("1:1"), 100)
        assert (summary.q_count, [(h.t, h.p, h.s, h.r) for h in summary.hits]) == (1, [(2, 5, 3, 2)])
        assert search._scan_block((search.split_forms(1, 1), 1, 1, 100, 10)) == _plain_block(
            search.case_spec("1:1"), 1, 100, floor=1)


class TestWheel(WheelMin):
    """The special t and the blocks around 210 t, against the plain loop."""

    @pytest.mark.parametrize("case_id", search.CASES)
    def test_special_ts_match_plain_loop(self, case_id):
        # a triple outside the 16 classes has a value equal to 2, 3, 5 or 7
        spec = SPECS[case_id]
        special = [t for t in range(8) if any(spec.value(x, t) in (2, 3, 5, 7) for x in "psr")]
        assert special
        for t in special:
            assert search._scan_block((*HEADS[case_id], t, t, 10)) == _plain_block(spec, t, t), (case_id, t)

    @pytest.mark.parametrize("case_id", search.CASES)
    def test_windows_near_1e12_match_plain_loop(self, case_id):
        rng = random.Random(f"wheel-{case_id}")
        for _ in range(10):
            lo = 10**12 + rng.randint(0, 10**9)
            hi = lo + rng.randint(0, 3000)
            got = search._scan_block((*HEADS[case_id], lo, hi, 10**6))
            assert got == _plain_block(SPECS[case_id], lo, hi), (case_id, lo, hi)

    @pytest.mark.parametrize("case_id", search.CASES)
    def test_long_window_matches_short_blocks(self, case_id):
        # one window past 2**20 t against the same t in blocks below it: at
        # the default threshold the wheel against the one class mod 1
        lo = 10**9 + 7
        hi = lo + 2**20 + 999
        parts = [search._scan_block((*HEADS[case_id], b, min(b + 2**19 - 1, hi), 10**6)) for b in range(lo, hi + 1, 2**19)]
        expect = (sum(q for q, _, _ in parts), sum(sz for _, sz, _ in parts), [t for _, _, ts in parts for t in ts])
        assert search._scan_block((*HEADS[case_id], lo, hi, 10**6)) == expect

    @pytest.mark.parametrize("case_id", search.CASES)
    def test_block_sizes_around_the_wheel(self, case_id, monkeypatch):
        # blocks shorter than, equal to and just past 210 t
        base = search.scan(SPECS[case_id], 2000)
        for block in (1, 209, 210, 211):
            monkeypatch.setattr(search, "_BLOCK", block)
            assert search.scan(SPECS[case_id], 2000) == base, (case_id, block)


# TestExactSieve needs no run with the wheel nowhere: its windows, at most
# 3,001 t, are below arith._WHEEL_MIN, so at the default they are already
# sieved as one class mod 1.
class TestExactSieveWheelEverywhere(TestExactSieve):
    wheel_min = 1


class TestWheelEverywhere(TestWheel):
    wheel_min = 1


class TestWheelNowhere(TestWheel):
    wheel_min = 2**62


def test_scan_block_memory():
    # a block keeps only the survivors' offsets, never a mask of its
    # 10**8 t or value arrays over the survivors
    tracemalloc.start()
    try:
        search._scan_block((*HEADS["a"], 1, 10**8, 10))
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
        for case_id in search.CASES:
            for h in search.scan(SPECS[case_id], 10**3).hits:
                assert h.s not in (2, 3) and h.r not in (2, 3), (case_id, h.t)

    def test_every_large_hit_attains(self):
        for case_id in ("a", "b"):
            for h in search.scan(SPECS[case_id], 10**4).hits:
                if h.p > 37:
                    assert all(h.attains), (case_id, h.t, h.p)
                    assert search.verify_attainment(h) == (True, True, True, True)

    @pytest.mark.parametrize("case_id,first", [("c", (4, 59, 5, 29)), ("d", (5, 61, 31, 5))])
    def test_first_hit_cases_c_and_d(self, case_id, first):
        h = search.scan(SPECS[case_id], 10**3).hits[0]
        assert (h.t, h.p, h.s, h.r) == first

    @pytest.mark.parametrize("case_id", ["c", "d"])
    def test_verify_attainment_matches_flags_c_and_d(self, case_id):
        # (m+, m-) = (6, 1) and (1, 6): sigma = alpha = 0 is asserted on every hit with s, r >= 7
        hits = search.scan(SPECS[case_id], 10**4).hits
        assert hits
        for h in hits:
            assert search.verify_attainment(h) == h.attains, (case_id, h.t)

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

    @pytest.mark.parametrize("case_id", search.CASES)
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

    def test_workers_capped_at_machine_parallelism(self, monkeypatch, cores, forks):
        # A scan forks workers - 1 children once for all its blocks, workers =
        # min(jobs, default_jobs(), the first block's classes), so on two cores
        # a huge jobs forks one child, and jobs=1 none.
        cores(2)
        monkeypatch.setattr(search, "_BLOCK", 1_500_000)
        base = search.scan(SPECS["a"], 3 * 10**6, jobs=1)
        assert forks == []
        assert search.scan(SPECS["a"], 3 * 10**6, jobs=10**6) == base
        assert len(forks) == 1  # one per command, for two blocks of 16 classes each
        _assert_no_child_left()
        cores(3)
        assert search.scan(SPECS["a"], 3 * 10**6, jobs=3) == base
        assert len(forks) == 1 + 2  # one per worker past this one, for both blocks
        _assert_no_child_left()


class TestClassSplit:
    """Scans whose blocks take the wheel, their 16 classes shared out over
    jobs processes by real forks; three cores, so jobs=3 forks two
    children on any machine."""

    @pytest.fixture(autouse=True)
    def _three_cores(self, cores):
        cores(3)

    @pytest.mark.parametrize("hit_cap", [0, 1, 7, 10**4])
    @pytest.mark.parametrize("case_id,block", [("a", search._BLOCK), ("c", 1_500_000)])  # one block, two blocks
    def test_jobs_invariance(self, case_id, block, hit_cap, monkeypatch):
        monkeypatch.setattr(search, "_BLOCK", block)
        base = search.scan(SPECS[case_id], 3 * 10**6, hit_cap=hit_cap, jobs=1)
        assert len(base.hits) == hit_cap or len(base.hits) < hit_cap == 10**4  # the largest cap holds every hit
        for jobs in (2, 3):
            assert search.scan(SPECS[case_id], 3 * 10**6, hit_cap=hit_cap, jobs=jobs) == base, jobs
            _assert_no_child_left()

    def test_without_fork_one_process(self, monkeypatch):
        base = search.scan(SPECS["a"], 3 * 10**6, jobs=1)
        monkeypatch.delattr(os, "fork")
        assert search.scan(SPECS["a"], 3 * 10**6, jobs=3) == base

    @staticmethod
    def _fail_in_share(monkeypatch, k, fail):
        sieve_forms = arith.sieve_forms

        def failing(forms, lo, hi, *, share=(0, 1)):
            if share[0] == k:
                fail()
            return sieve_forms(forms, lo, hi, share=share)

        monkeypatch.setattr(arith, "sieve_forms", failing)

    def test_child_error_keeps_its_type(self, monkeypatch, capsys):
        def fail():
            raise arith.ResourceLimitError("share 1 over a cap")

        self._fail_in_share(monkeypatch, 1, fail)
        with pytest.raises(arith.ResourceLimitError, match="share 1 over a cap"):
            search.scan(SPECS["a"], 3 * 10**6, jobs=2)
        _assert_no_child_left()
        assert cli.main(["search", "a", "--t-max", "3e6", "--threads", "2"]) == cli.EXIT_RESOURCE
        assert "share 1 over a cap" in capsys.readouterr().err
        _assert_no_child_left()

    def test_child_without_a_result_is_an_internal_error(self, monkeypatch, capsys):
        self._fail_in_share(monkeypatch, 2, lambda: os._exit(1))
        with pytest.raises(RuntimeError, match="without a result"):
            search.scan(SPECS["a"], 3 * 10**6, jobs=3)
        _assert_no_child_left()
        assert cli.main(["search", "a", "--t-max", "3e6", "--threads", "3"]) == cli.EXIT_INTERNAL
        capsys.readouterr()
        _assert_no_child_left()

    def test_children_never_flush_stdio(self):
        # stdout to a pipe is block-buffered, so a child that flushed it on
        # its way out would repeat the text not yet written
        code = ("import os; os.cpu_count = lambda: 3\n"
                "from psl2count import search\n"
                "print('before', end='')\n"
                "search.scan(search.case_spec('a'), 3 * 10**6, jobs=3)\n"
                "print(' after')\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("PYTHONUNBUFFERED", None)  # else stdout holds nothing to flush
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "before after\n"), done.stderr

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_error_here_reaps_every_child(self, monkeypatch, error):
        def fail():
            raise error("share 0")

        self._fail_in_share(monkeypatch, 0, fail)
        with pytest.raises(error, match="share 0"):
            search.scan(SPECS["a"], 3 * 10**6, jobs=3)
        _assert_no_child_left()

    def test_interrupt_in_the_merge_reaps_every_child(self, monkeypatch):
        # the merge and progress code runs between the runner's yields: the
        # children must be gone while the traceback still holds the scan's frame
        def interrupt(*args):
            raise KeyboardInterrupt("in progress_line")

        monkeypatch.setattr(search, "_BLOCK", 1_500_000)
        monkeypatch.setattr(runner, "progress_line", interrupt)
        with pytest.raises(KeyboardInterrupt, match="in progress_line") as info:
            search.scan(SPECS["a"], 3 * 10**6, jobs=3, progress=True)
        assert info.tb is not None
        _assert_no_child_left()


class TestJsonShape:
    def test_schema(self):
        d = search.scan(SPECS["a"], 10**3, hit_cap=2).to_json_dict()
        assert set(d) == {"case", "t_max", "q_count", "sigma_alpha_zero", "first_hits"}
        assert len(d["first_hits"]) == 2
        assert set(d["first_hits"][0]) == {"t", "p", "s", "r", "attains"}
        assert d["first_hits"][0]["attains"] == [False, False, False, True]
