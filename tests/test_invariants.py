"""Formula-side counts, the explicit class catalogue and the reference table."""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl2count import arith, invariants


def _reference_counts(prof):
    """The paper's four formulas, written out apart from invariants.counts.

    They run in exact rationals, and n has its own closed form rather than
    c - s; every value must come out an integer.
    """
    delta, epsilon, k, l, sigma, alpha = (prof.delta, prof.epsilon, prof.k, prof.l, prof.sigma, prof.alpha)
    i = Fraction(2 * delta + 3 * epsilon - 3 + sigma + alpha)
    c = (2 + Fraction(k, k + 1)) * delta + (3 + Fraction(l, l + 1)) * epsilon - 4 + 3 * sigma + 2 * alpha
    s = Fraction(delta, k + 1) + Fraction(epsilon, l + 1) + 2 * (sigma + alpha)
    n = (2 + Fraction(k - 1, k + 1)) * delta + (3 + Fraction(l - 1, l + 1)) * epsilon - 4 + sigma
    assert all(v.denominator == 1 for v in (i, c, s, n)), prof
    return tuple(int(v) for v in (i, c, s, n))


class TestColumnProfile:
    """The formulas on one column profile of every prime 5 <= p <= 1e5, row by row against profile(p)."""

    @pytest.fixture(scope="class")
    def rows(self):
        primes = arith.primes_in_range(5, 10**5)
        scalar = [invariants.profile(p) for p in primes]
        column = invariants.assemble_profile(
            np.array(primes, dtype=np.int64),
            np.array([prof.delta for prof in scalar], dtype=np.int64),
            np.array([prof.epsilon for prof in scalar], dtype=np.int64),
        )
        return scalar, column

    def test_profiles_match(self, rows):
        scalar, column = rows
        for field in dataclasses.fields(invariants.InvariantProfile):
            got = getattr(column, field.name)
            assert got.dtype == np.int64, field.name
            assert got.tolist() == [getattr(prof, field.name) for prof in scalar], field.name

    def test_rows_cover_every_shape(self, rows):
        _, column = rows
        assert set(column.sigma.tolist()) == set(column.alpha.tolist()) == {0, 1}
        assert set(column.k.tolist()) == set(range(14))  # 49151 = 3 * 2**14 - 1 has k = 13
        assert set(column.l.tolist()) == set(range(13)) | {15}  # 65537 = 2**16 + 1 has l = 15

    def test_counts_match(self, rows):
        scalar, column = rows
        got = list(zip(*(v.tolist() for v in invariants.counts(column))))
        assert got == [invariants.counts(prof) for prof in scalar]

    def test_delta_not_divisible_by_k_plus_one_raises(self, rows):
        _, column = rows
        delta = column.delta.copy()
        delta[np.flatnonzero(column.k > 0)[-1]] += 1  # k + 1 >= 2 now leaves remainder 1
        with pytest.raises(ArithmeticError, match=r"\(k\+1\) must divide delta"):
            invariants.counts(dataclasses.replace(column, delta=delta))

    def test_both_sides_even_raises(self, rows, monkeypatch):
        _, column = rows
        valuation = arith.two_adic_valuation

        def off_by_one_in_row_7(n):
            v = valuation(n)
            v[7] += 1  # the side that was odd now looks even too
            return v

        monkeypatch.setattr(arith, "two_adic_valuation", off_by_one_in_row_7)
        with pytest.raises(AssertionError, match="exactly one of"):
            invariants.assemble_profile(column.p, column.delta, column.epsilon)

    def test_counts_reduces_once(self, rows, monkeypatch):
        _, column = rows
        reduced, calls = invariants._reduced, []

        def counted(prof):
            calls.append(prof)
            return reduced(prof)

        monkeypatch.setattr(invariants, "_reduced", counted)
        invariants.counts(column)
        assert len(calls) == 1


class TestProfile:
    def test_example_p37(self):
        prof = invariants.profile(37)
        assert (prof.delta, prof.epsilon, prof.k, prof.l, prof.sigma, prof.alpha) == (2, 6, 0, 1, 0, 0)

    def test_matches_reference_rows(self):
        for row in invariants.golden_table():
            if row.p == 3:
                continue
            prof = invariants.profile(row.p)
            assert (prof.delta, prof.epsilon, prof.k, prof.l, prof.sigma, prof.alpha) == (
                row.delta, row.epsilon, row.k, row.l, row.sigma, row.alpha,
            ), row.p

    def test_rejects_small_or_composite(self):
        for bad in (0, 1, 2, 3, 4, 9, 15):
            with pytest.raises(ValueError):
                invariants.profile(bad)

    def test_exactly_one_even_side(self):
        for p in arith.primes_in_range(5, 10**4):
            prof = invariants.profile(p)
            assert (prof.k == 0) != (prof.l == 0), p

    def test_one_even_side_check_survives_optimize(self):
        # The check must raise even under python -O, which strips asserts.
        code = (
            "from psl2count import arith, invariants\n"
            "arith.two_adic_valuation = lambda n: 0\n"
            "try:\n"
            "    invariants.profile(37)\n"
            "except AssertionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(invariants.__file__)))
        path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=120)
        assert proc.returncode == 0

    def test_flag_congruences(self):
        for p in arith.primes_in_range(5, 2000):
            prof = invariants.profile(p)
            assert prof.sigma == (1 if p % 8 in (1, 7) else 0)
            assert prof.alpha == (1 if p % 5 in (1, 4) else 0)

    def test_sigma_alpha_matches_profile(self):
        primes = arith.primes_in_range(5, 10**4)
        expect = [(prof.sigma, prof.alpha) for prof in map(invariants.profile, primes)]
        assert [invariants.sigma_alpha(p) for p in primes] == expect
        sigma, alpha = invariants.sigma_alpha(np.array(primes, dtype=np.int64))
        assert list(zip(sigma.tolist(), alpha.tolist())) == expect
        for n in range(1, 2520, 2):  # odd non-primes too, as the scan's class representatives are
            assert (invariants.sigma_alpha(n) == (0, 0)) == (n % 8 in (3, 5) and n % 5 in (0, 2, 3)), n


class TestCountFormulas:
    def test_example_quadruples(self):
        assert invariants.counts(invariants.profile(37)) == (19, 21, 5, 16)
        assert invariants.counts(invariants.profile(53)) == (17, 18, 6, 12)
        assert invariants.counts(invariants.profile(61)) == (26, 30, 8, 22)

    def test_n_is_c_minus_s(self):
        # the paper's own n formula agrees with c - s
        for p in arith.primes_in_range(5, 10**4):
            _, c, s, n = _reference_counts(invariants.profile(p))
            assert n == c - s, p

    def test_counts_match_reference(self):
        primes = arith.primes_in_range(5, 10**4)
        scalar = [invariants.profile(p) for p in primes]
        expect = [_reference_counts(prof) for prof in scalar]
        assert [invariants.counts(prof) for prof in scalar] == expect
        column = invariants.assemble_profile(
            np.array(primes, dtype=np.int64),
            np.array([prof.delta for prof in scalar], dtype=np.int64),
            np.array([prof.epsilon for prof in scalar], dtype=np.int64),
        )
        assert list(zip(*(v.tolist() for v in invariants.counts(column)))) == expect

    def test_corrupt_profile_raises(self):
        # (k+1) = 2 does not divide delta = 3, so no genuine prime has this profile
        prof = invariants.InvariantProfile(p=37, delta=3, epsilon=6, k=1, l=0, sigma=0, alpha=0)
        with pytest.raises(ArithmeticError):
            invariants.counts(prof)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=2000))
    def test_counts_positive(self, idx):
        p = arith.primes_in_range(2, 10**5)[idx]
        quad = invariants.counts(invariants.profile(p))
        assert all(v > 0 for v in quad)


class TestCensus:
    def test_p5_catalogue(self):
        cen = invariants.census(5)
        assert [e.label for e in cen.entries] == ["C2", "C3", "D2", "E5:C1", "D3", "E5:C2", "A4"]
        assert (cen.i, cen.c, cen.s, cen.n) == (7, 7, 3, 4)

    def test_p37_self_normalising_list(self):
        cen = invariants.census(37)
        sn = sorted(e.label for e in cen.entries if e.self_normalising)
        assert sn == ["A4", "D18", "D19", "D6", "E37:C18"]

    def test_two_class_entries(self):
        cen = invariants.census(7)
        two = {e.label for e in cen.entries if e.num_classes == 2}
        # quotient 4/2 is even at D2, and the octahedral pair splits
        assert two == {"D2", "S4", "A4"}

    def test_aggregates_match_formulas(self):
        for p in arith.primes_in_range(5, 500):
            cen = invariants.census(p)
            prof = invariants.profile(p)
            assert (cen.i, cen.c, cen.s, cen.n) == invariants.counts(prof), p

    def test_labels_distinct(self):
        for p in arith.primes_in_range(5, 200):
            labels = [e.label for e in invariants.census(p).entries]
            assert len(labels) == len(set(labels)), p

    def test_orders_divide_group_order(self):
        for p in arith.primes_in_range(5, 200):
            g = p * (p * p - 1) // 2
            for e in invariants.census(p).entries:
                assert g % e.order == 0, (p, e.label)

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            invariants.ClassEntry(label="C4", order=4, num_classes=3, self_normalising=False)

    def test_census_validation(self):
        with pytest.raises(ValueError, match="num_classes must be 1 or 2, got 0"):
            invariants.ClassEntry("C4", 4, 0, False)
        with pytest.raises(ValueError, match="nontrivial"):
            invariants.ClassEntry("C1", 1, 1, False)
        c4 = invariants.ClassEntry("C4", 4, 1, False)
        with pytest.raises(ValueError, match="pairwise distinct"):
            invariants.ClassCensus(5, (c4, c4))
        with pytest.raises(ValueError, match="does not encode order 6"):
            invariants.ClassCensus(5, (invariants.ClassEntry("C4", 6, 1, False),))
        for label, message in (("X4", "unrecognised label"), ("E4:X1", "bad affine label")):
            with pytest.raises(ValueError, match=message):
                invariants.ClassCensus(5, (invariants.ClassEntry(label, 4, 1, False),))

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            invariants.census(3)
        with pytest.raises(ValueError):
            invariants.census(15)

    def test_json_shape(self):
        d = invariants.census(11).to_json_dict()
        assert set(d) == {"p", "entries", "i", "c", "s", "n"}
        assert all(set(e) == {"label", "order", "classes", "self_normalising"} for e in d["entries"])


class TestReferenceTable:
    def test_row_count_and_primes(self):
        rows = invariants.golden_table()
        assert len(rows) == 17
        assert [r.p for r in rows] == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]

    def test_csv_row(self):
        row = next(r for r in invariants.golden_table() if r.p == 53)
        assert dataclasses.astuple(row) == (53, 4, 4, 0, 1, 0, 0, 17, 18, 6, 12)

    def test_verify_reports_single_known_issue(self):
        report = invariants.verify_golden()
        assert report.ok
        assert report.mismatches == []
        assert [(c.p, c.column, c.expected, c.computed) for c in report.known_issues] == [(7, "c", 14, 13)]

    def test_internal_consistency_of_known_issue(self):
        # at p = 7 the printed c disagrees with its own s + n breakdown
        row = next(r for r in invariants.golden_table() if r.p == 7)
        assert row.s + row.n == 13
        assert row.c == 14
