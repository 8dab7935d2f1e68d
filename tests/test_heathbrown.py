"""Qualifying-prime scan and the derived count bounds."""

import dataclasses

import pytest

from psl2count import arith, heathbrown, invariants


class TestQualifies:
    def test_smallest_members(self):
        for p in (5, 149, 293):
            assert heathbrown.qualifies(p).qualifies, p

    def test_wrong_residue(self):
        for p in (7, 29, 73, 77 + 2):  # 79 = 7 mod 72
            if arith.is_prime(p):
                assert not heathbrown.qualifies(p).qualifies, p

    def test_factor_counts_recorded(self):
        c = heathbrown.qualifies(149)
        assert (c.omega_minus, c.omega_plus) == (3, 4)  # 148 = 4*37, 150 = 2*3*5*5

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            heathbrown.qualifies(77)

    def test_profile_attached(self):
        c = heathbrown.qualifies(149)
        assert c.profile is not None and (c.profile.k, c.profile.l, c.profile.sigma) == (0, 1, 0)


class TestScan:
    def test_matches_direct_definition(self):
        limit = 10**5
        expect = []
        for p in arith.primes_in_range(2, limit):
            if p % 72 != 5:
                continue
            om, op = arith.big_omega(p - 1), arith.big_omega(p + 1)
            if om + op <= 11 and om <= 8 and op <= 8:
                expect.append(p)
        got = [c.p for c in heathbrown.scan_hb(limit)]
        assert got == expect
        assert got[:6] == [5, 149, 293, 509, 653, 797]

    def test_matches_one_prime_path(self):
        # the sieve's factor counts and profiles against per-prime factorisation
        limit = 10**6
        expect = [
            c for c in map(heathbrown.qualifies, arith.primes_of_form(72, 5, 0, (limit - 5) // 72).tolist())
            if c.qualifies
        ]
        assert heathbrown.scan_hb(limit) == expect

    def test_frozen_1e8(self):
        cands = heathbrown.scan_hb(10**8)
        assert len(cands) == 229098
        assert cands[-1].p == 99999941
        bounds = heathbrown.derive_upper_bounds()
        for c in cands:
            assert all(v <= b for v, b in zip(invariants.counts(c.profile), bounds)), c.p

    def test_every_candidate_within_bounds(self):
        bounds = heathbrown.derive_upper_bounds()
        for c in heathbrown.scan_hb(10**5):
            if c.profile is None:
                continue
            quad = invariants.counts(c.profile)
            assert all(v <= b for v, b in zip(quad, bounds)), c.p

    def test_results_are_python_ints(self):
        # numpy integers mixed with Python ints can wrap; none may leak out
        for c in heathbrown.scan_hb(10**5):
            values = (c.p, c.omega_minus, c.omega_plus) + dataclasses.astuple(c.profile)
            assert all(type(v) is int for v in values), c

    def test_limit_floor(self):
        with pytest.raises(ValueError):
            heathbrown.scan_hb(10)

    def test_limit_is_inclusive(self):
        assert [c.p for c in heathbrown.scan_hb(148)] == [5]
        assert [c.p for c in heathbrown.scan_hb(149)] == [5, 149]


class TestBounds:
    def test_values(self):
        assert heathbrown.derive_upper_bounds() == (390, 454, 132, 384)

    def test_extremal_profiles_are_admissible(self):
        # the bound profiles respect the factor budget: 3 forced twos plus
        # an odd budget of 8 means tau splits of at most 4 * 128
        i, c, s, n = heathbrown.derive_upper_bounds()
        assert i < c and s < n < c
