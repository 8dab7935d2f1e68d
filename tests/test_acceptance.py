"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import time

import numpy as np

from psl2count import arith, bhc, heathbrown, invariants, oracle, runner, search


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]")
    assert ok, f"{name}: {detail}"


def test_01_reference_table_reproduced():
    t0 = time.monotonic()
    report = invariants.verify_golden()
    issues = [(c.p, c.column, c.expected, c.computed) for c in report.known_issues]
    ok = report.ok and issues == [(7, "c", 14, 13)]
    dt = time.monotonic() - t0
    _line(
        "reference table, primes 3..61",
        ok and dt < 1.0,
        f"mismatches={len(report.mismatches)}, known issues={issues}, {dt:.2f}s (budget 1s)",
    )


def test_02_p37_worked_example():
    t0 = time.monotonic()
    quad = invariants.counts(invariants.profile(37))
    cen = invariants.census(37)
    sn = sorted(e.label for e in cen.entries if e.self_normalising)
    ok = quad == (19, 21, 5, 16) and sn == ["A4", "D18", "D19", "D6", "E37:C18"]
    dt = time.monotonic() - t0
    _line(
        "p=37 counts and self-normalising list",
        ok and dt < 1.0,
        f"(i,c,s,n)={quad}, self-normalising={sn}, {dt:.2f}s (budget 1s)",
    )


def test_03_brute_force_agreement():
    t0 = time.monotonic()
    expected = {3: (3, 3, 1, 2), 5: (7, 7, 3, 4), 7: (10, 13, 5, 8),
                11: (12, 14, 6, 8), 13: (13, 14, 4, 10), 17: (16, 20, 6, 14),
                19: (15, 17, 7, 10)}
    ok = True
    detail = []
    for p, want in expected.items():
        cen = oracle.oracle_census(p)
        got = (cen.i, cen.c, cen.s, cen.n)
        if got != want:
            ok = False
            detail.append(f"p={p}: {got} != {want}")
        if p >= 5:
            formula = invariants.census(p)
            fm = {(e.label, e.order, e.num_classes, e.self_normalising) for e in formula.entries}
            bm = {(e.label, e.order, e.num_classes, e.self_normalising) for e in cen.entries}
            if fm != bm:
                ok = False
                detail.append(f"p={p}: label-level censuses differ")
    dt = time.monotonic() - t0
    _line(
        "brute-force censuses, p in {3,5,7,11,13,17,19}",
        ok and dt < 120,
        "; ".join(detail) or f"aggregates and labels agree, {dt:.1f}s (budget 120s)",
    )


def test_04_lower_bound_sweep():
    t0 = time.monotonic()
    bad = []
    for p in arith.primes_in_range(5, 10**5):
        i, c, s, n = invariants.counts(invariants.profile(p))
        if c != s + n:
            bad.append(("c=s+n", p))
        if p >= 29 and i < 17:
            bad.append(("i", p))
        if p >= 23 and c < 18:
            bad.append(("c", p))
        if p >= 41 and s < 6:
            bad.append(("s", p))
        if p >= 23 and n < 12:
            bad.append(("n", p))
    dt = time.monotonic() - t0
    _line(
        "count lower bounds, primes to 1e5",
        not bad and dt < 10,
        f"violations={bad[:5]}, {dt:.1f}s (budget 10s)" if bad else f"9592 primes clean, {dt:.1f}s (budget 10s)",
    )


def test_05_search_regression():
    t0 = time.monotonic()
    problems = []
    sb = search.scan(search.case_spec("b"), 10**4)
    h = sb.hits[0]
    if (h.t, h.p, h.s, h.r) != (3, 43, 11, 7):
        problems.append(f"case b first hit {(h.t, h.p, h.s, h.r)}")
    sa = search.scan(search.case_spec("a"), 10**4)
    near = sa.hits[0]
    if not ((near.p, near.profile.alpha) == (29, 1) and not all(near.attains)):
        problems.append("case a near miss at p=29 wrong")
    if not any(h.p == 173 and (h.s, h.r) == (29, 43) and all(h.attains) for h in sa.hits):
        problems.append("case a hit p=173 missing")
    for summary in (sa, sb):
        for h in summary.hits:
            if h.p > 37 and not all(h.attains):
                problems.append(f"non-attaining hit p={h.p}")
    dt = time.monotonic() - t0
    _line(
        "search regression at t_max=1e4",
        not problems and dt < 5,
        "; ".join(problems) or f"first hits and attainment all verified, {dt:.1f}s (budget 5s)",
    )


def test_06_predicted_counts_at_1e9():
    t0 = time.monotonic()
    results = {}
    for case_id, target in (("a", 615580.7), ("b", 615580.6)):
        fam = search.case_spec(case_id).polys
        constant = bhc.hl_constant(fam, 10**7)
        est = bhc.estimate_E(fam, 10**9, constant)
        results[case_id] = (est.e_value, abs(est.e_value - target) / target)
    ok = all(rel < 5e-4 for _, rel in results.values())
    dt = time.monotonic() - t0
    _line(
        "predicted counts at x=1e9, product truncated at 1e7",
        ok and dt < 300,
        f"E_a={results['a'][0]:.1f} (rel {results['a'][1]:.2e}), "
        f"E_b={results['b'][0]:.1f} (rel {results['b'][1]:.2e}), {dt:.1f}s (budget 300s)",
    )


def test_07_prediction_vs_actual_desk_scale():
    t0 = time.monotonic()
    frozen = {"a": 2064, "b": 2051}
    problems = []
    for case_id, want in frozen.items():
        spec = search.case_spec(case_id)
        got = search.scan(spec, 10**6, jobs=runner.default_jobs()).q_count
        if got != want:
            problems.append(f"Q_{case_id}(1e6)={got} != {want}")
        est = bhc.estimate_E(spec.polys, 10**6, bhc.hl_constant(spec.polys, 10**5))
        rel = abs(est.e_value / want - 1)
        if rel >= 0.05:
            problems.append(f"case {case_id}: |E/Q-1|={rel:.3f}")
    dt = time.monotonic() - t0
    _line(
        "prediction vs actual counts at 1e6",
        not problems and dt < 60,
        "; ".join(problems) or f"counts exact, prediction within 5%, {dt:.1f}s",
    )


def test_07x_prediction_vs_actual_1e9():
    t0 = time.monotonic()
    frozen = {"a": (614423, 0.188), "b": (615369, 0.034)}
    problems = []
    for case_id, (want_q, want_pct) in frozen.items():
        spec = search.case_spec(case_id)
        got = search.scan(spec, 10**9, jobs=runner.default_jobs(), progress=True).q_count
        if got != want_q:
            problems.append(f"Q_{case_id}(1e9)={got} != {want_q}")
        est = bhc.estimate_E(spec.polys, 10**9, bhc.hl_constant(spec.polys, 10**7))
        pct = (est.e_value - got) / got * 100
        if abs(pct - want_pct) > 0.002:
            problems.append(f"case {case_id}: (E-Q)/Q={pct:+.4f}% != {want_pct:+.3f}%")
    dt = time.monotonic() - t0
    _line(
        "prediction vs actual counts at 1e9",
        not problems and dt < 3600,
        "; ".join(problems) or f"counts exact, errors on target, {dt:.0f}s (budget 3600s)",
    )


def test_08_bounded_factor_primes():
    t0 = time.monotonic()
    bounds = heathbrown.derive_upper_bounds()
    problems = []
    if bounds != (390, 454, 132, 384):
        problems.append(f"bounds={bounds}")
    found = heathbrown.scan_hb(10**6)
    prof = found.profile
    for p in found.p[(prof.k != 0) | (prof.l != 1) | (prof.sigma != 0)].tolist():
        problems.append(f"flags wrong at p={p}")
    over = (np.column_stack(invariants.counts(prof)) > bounds).any(axis=1)
    for p in found.p[over].tolist():
        problems.append(f"bound exceeded at p={p}")
    dt = time.monotonic() - t0
    _line(
        "derived count bounds for low-factor primes",
        not problems and dt < 60,
        "; ".join(problems[:4]) or f"bounds {bounds}, {len(found)} candidates to 1e6 all inside, {dt:.1f}s (budget 60s)",
    )


def test_09_property_suites(monkeypatch):
    t0 = time.monotonic()
    problems = []

    # divisor-count, factor-count and primality oracles against a sieve
    limit = 10**5
    spf = list(range(limit + 1))
    i = 2
    while i * i <= limit:
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
        i += 1
    for n in range(2, limit + 1):
        if arith.is_prime(n) != (spf[n] == n):
            problems.append(f"primality at {n}")
            break
    for n in range(1, limit + 1):
        m, tau_ref, omega_ref = n, 1, 0
        while m > 1:
            p, e = spf[m], 0
            while m % p == 0:
                m //= p
                e += 1
            tau_ref *= e + 1
            omega_ref += e
        if arith.tau(n) != tau_ref or arith.big_omega(n) != omega_ref:
            problems.append(f"divisor counts at {n}")
            break

    # root counts: brute force against the closed form for every small prime
    for case_id in search.CASES:
        fam = search.case_spec(case_id).polys
        for p in arith.primes_in_range(2, 97):
            brute = sum(any(v % p == 0 for v in fam.values(t)) for t in range(p))
            if bhc.omega_roots(fam, p) != brute:
                problems.append(f"root count case {case_id} p={p}")

    # constant stabilisation under doubling of the truncation point
    fam = search.case_spec("a").polys
    for trunc in (10**4, 10**5, 10**6):
        here = bhc.hl_constant(fam, trunc)
        there = bhc.hl_constant(fam, 2 * trunc)
        if not abs(there.value - here.value) < here.tail_bound:
            problems.append(f"constant drift at truncation {trunc}")

    # scans independent of worker count
    base = search.scan(search.case_spec("b"), 2 * 10**5, jobs=1)
    monkeypatch.setattr(search, "_BLOCK", 30_000)
    for jobs in (2, 4):
        other = search.scan(search.case_spec("b"), 2 * 10**5, jobs=jobs)
        if other != base:
            problems.append(f"scan differs at jobs={jobs}")

    dt = time.monotonic() - t0
    _line(
        "property suites (oracles, roots, stabilisation, determinism)",
        not problems,
        "; ".join(problems[:4]) or f"all four suites clean, {dt:.1f}s",
    )
