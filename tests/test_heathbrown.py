"""Qualifying-prime scan and the derived count bounds."""

import dataclasses
import json

import numpy as np
import pytest

from psl2count import arith, cli, heathbrown, invariants


def _column_counts(found):
    return invariants.counts(found.profile)


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
        got = heathbrown.scan_hb(limit).p.tolist()
        assert got == expect
        assert got[:6] == [5, 149, 293, 509, 653, 797]

    def test_matches_one_prime_path(self):
        # the sieve's factor counts and profiles against per-prime factorisation
        limit = 10**6
        expect = [
            c for c in map(heathbrown.qualifies, [p for p in arith.primes_in_range(2, limit) if p % 72 == 5])
            if c.qualifies
        ]
        found = heathbrown.scan_hb(limit)
        prof = found.profile
        assert found.p.tolist() == [c.p for c in expect]
        assert found.omega_minus.tolist() == [c.omega_minus for c in expect]
        assert found.omega_plus.tolist() == [c.omega_plus for c in expect]
        for field in ("delta", "epsilon", "k", "l", "sigma", "alpha"):
            assert getattr(prof, field).tolist() == [getattr(c.profile, field) for c in expect], field

    def test_frozen_1e8(self):
        found = heathbrown.scan_hb(10**8)
        assert len(found) == 229098
        assert found.p[-1] == 99999941
        bounds = heathbrown.derive_upper_bounds()
        for v, b in zip(_column_counts(found), bounds):
            assert not np.any(v > b), found.p[v > b][:5]

    def test_every_candidate_within_bounds(self):
        bounds = heathbrown.derive_upper_bounds()
        found = heathbrown.scan_hb(10**5)
        for v, b in zip(_column_counts(found), bounds):
            assert not np.any(v > b), found.p[v > b][:5]

    def test_columns_are_int64(self):
        # int64 columns and int64 counts: no narrow dtype can wrap in the formulas
        found = heathbrown.scan_hb(10**5)
        columns = (found.p, found.omega_minus, found.omega_plus, found.profile.delta, found.profile.epsilon)
        assert all(c.dtype == np.int64 and len(c) == len(found) for c in columns)
        assert all(v.dtype == np.int64 for v in _column_counts(found))

    def test_results_are_python_ints(self, capsys):
        # what hb prints for json must be JSON integers, not floats or numpy scalars
        assert cli.main(["hb", "--limit", "100000", "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        values = [out["limit"], *out["bounds"].values()]
        values += [v for cand in out["candidates"] for v in cand.values()]
        assert len(out["candidates"]) == len(heathbrown.scan_hb(10**5))
        assert all(type(v) is int for v in values)

    def test_flag_check_fires_on_a_column(self, monkeypatch):
        assemble = invariants.assemble_profile

        def sigma_one_in_row_3(p, delta, epsilon):
            prof = assemble(p, delta, epsilon)
            sigma = prof.sigma.copy()
            sigma[3] = 1
            return dataclasses.replace(prof, sigma=sigma)

        monkeypatch.setattr(invariants, "assemble_profile", sigma_one_in_row_3)
        with pytest.raises(AssertionError, match="residue 5 mod 72"):
            heathbrown.scan_hb(10**5)

    @pytest.mark.parametrize("segment", [2**10, 2**15])
    def test_segment_size_leaves_columns_unchanged(self, segment, monkeypatch):
        expect = heathbrown.scan_hb(10**6)
        monkeypatch.setattr(arith, "_PRIME_SEGMENT", segment)
        found = heathbrown.scan_hb(10**6)
        for field in ("p", "omega_minus", "omega_plus"):
            assert getattr(found, field).tolist() == getattr(expect, field).tolist(), field
        for field in ("delta", "epsilon"):
            assert getattr(found.profile, field).tolist() == getattr(expect.profile, field).tolist(), field

    def test_limit_floor(self):
        with pytest.raises(ValueError):
            heathbrown.scan_hb(10)

    def test_limit_is_inclusive(self):
        assert heathbrown.scan_hb(148).p.tolist() == [5]
        assert heathbrown.scan_hb(149).p.tolist() == [5, 149]

    def test_limit_past_the_prime_cap_is_refused_before_sieving(self, monkeypatch):
        def no_sieve(*args):
            raise AssertionError("sieved before the cap check")

        monkeypatch.setattr(arith, "factor_counts", no_sieve)
        with pytest.raises(arith.ResourceLimitError):
            heathbrown.scan_hb(10**17)


class TestBounds:
    def test_values(self):
        assert heathbrown.derive_upper_bounds() == (390, 454, 132, 384)

    def test_extremal_profiles_are_admissible(self):
        # the bound profiles respect the factor budget: 3 forced twos plus
        # an odd budget of 8 means tau splits of at most 4 * 128
        i, c, s, n = heathbrown.derive_upper_bounds()
        assert i < c and s < n < c
