"""Output checks for the benchmark workloads.

Each check takes one command's exit code and captured output and returns a
list of problems; an empty list means the answer is right.  The expected
values are the frozen answers at the workloads' fixed input sizes.  The
seeded generator only picks which parts of an answer are re-derived.
"""

from __future__ import annotations

import json
import random

SCAN_Q = 87673             # Q_a(1e8)
SCAN_SIGMA_ALPHA_ZERO = 87672
ESTIMATE_E = 615580.7      # E_a(1e9), product truncated at 1e7
ESTIMATE_E_REL_TOL = 5e-4  # the acceptance tolerance on E(1e9)
ESTIMATE_C = 5.716497292
ESTIMATE_C_REL_TOL = 1e-9
HB_CANDIDATES = 27077      # qualifying primes up to 1e7
HB_BOUNDS = {"i": 390, "c": 454, "s": 132, "n": 384}
HB_SAMPLE = 64
ORACLE_COUNTS = (13, 14, 4, 10)  # (i, c, s, n) of PSL(2, 13)
SCAN_SAMPLE = 3


def _big_omega_trial(n: int) -> int:
    """Prime factors of n with multiplicity, by plain trial division."""
    count = 0
    d = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += 1 if d == 2 else 2
    return count + (n > 1)


def _check_scan(out: dict, rng: random.Random, pkg) -> list[str]:
    problems = []
    if (out["case"], out["t_max"]) != ("a", 10**8):
        problems.append(f"scan ran case {out['case']} to {out['t_max']}")
    if out["q_count"] != SCAN_Q:
        problems.append(f"q_count {out['q_count']} != {SCAN_Q}")
    if out["sigma_alpha_zero"] != SCAN_SIGMA_ALPHA_ZERO:
        problems.append(f"sigma_alpha_zero {out['sigma_alpha_zero']} != {SCAN_SIGMA_ALPHA_ZERO}")
    hits = {h["t"]: h for h in out["first_hits"]}
    near = hits.get(2)
    if near is None or near["p"] != 29 or all(near["attains"]):
        problems.append("near miss at t=2 (p=29) missing or wrong")
    full = hits.get(14)
    if full is None or full["p"] != 173 or not all(full["attains"]):
        problems.append("attaining hit at t=14 (p=173) missing or wrong")

    search, arith, invariants = pkg.search, pkg.arith, pkg.invariants
    spec = search.case_spec("a")
    shown = sorted(hits.values(), key=lambda h: h["t"])
    for h in rng.sample(shown, min(SCAN_SAMPLE, len(shown))):
        t = h["t"]
        p, s, r = (spec.value(role, t) for role in ("p", "s", "r"))
        if (h["p"], h["s"], h["r"]) != (p, s, r):
            problems.append(f"hit t={t}: values {(h['p'], h['s'], h['r'])} != {(p, s, r)}")
            continue
        if not all(arith.is_prime(v) for v in (p, s, r)):
            problems.append(f"hit t={t}: not a prime triple")
            continue
        hit = search.TripleHit("a", t, p, s, r, invariants.profile(p), tuple(h["attains"]))
        if list(search.verify_attainment(hit)) != h["attains"]:
            problems.append(f"hit t={t}: attainment flags do not re-verify")
    return problems


def _check_estimate(out: dict, rng: random.Random, pkg) -> list[str]:
    problems = []
    if abs(out["E"] - ESTIMATE_E) / ESTIMATE_E >= ESTIMATE_E_REL_TOL:
        problems.append(f"E {out['E']} not within {ESTIMATE_E_REL_TOL} of {ESTIMATE_E}")
    if abs(out["C"] - ESTIMATE_C) / ESTIMATE_C > ESTIMATE_C_REL_TOL:
        problems.append(f"C {out['C']} != {ESTIMATE_C}")
    return problems


def _check_hb(out: dict, rng: random.Random, pkg) -> list[str]:
    problems = []
    cands = out["candidates"]
    if len(cands) != HB_CANDIDATES:
        problems.append(f"{len(cands)} candidates != {HB_CANDIDATES}")
    if out["bounds"] != HB_BOUNDS:
        problems.append(f"bounds {out['bounds']} != {HB_BOUNDS}")
    for c in rng.sample(cands, min(HB_SAMPLE, len(cands))):
        p = c["p"]
        if p % 72 != 5 or _big_omega_trial(p) != 1:
            problems.append(f"candidate {p} is not a prime = 5 mod 72")
            continue
        om, op = _big_omega_trial(p - 1), _big_omega_trial(p + 1)
        if (c["omega_minus"], c["omega_plus"]) != (om, op):
            problems.append(f"candidate {p}: Omega(p-1), Omega(p+1) = "
                            f"{(c['omega_minus'], c['omega_plus'])}, trial division gives {(om, op)}")
    return problems


def _check_oracle(out: dict, rng: random.Random, pkg) -> list[str]:
    problems = []
    quad = tuple(out[k] for k in "icsn")
    if quad != ORACLE_COUNTS:
        problems.append(f"(i, c, s, n) = {quad} != {ORACLE_COUNTS}")
    return problems


def _oracle_diff_empty(stderr: str) -> bool:
    lines = stderr.splitlines()
    head = "diff (formula vs brute force):"
    return head in lines and lines[lines.index(head) + 1:] == ["  (empty)"]


_CHECKS = {
    "scan": _check_scan,
    "estimate": _check_estimate,
    "hb": _check_hb,
    "oracle": _check_oracle,
}


def check(workload: str, exit_code: int, stdout: str, stderr: str,
          rng: random.Random, pkg) -> list[str]:
    """Problems with one command's answer; never raises."""
    if exit_code != 0:
        return [f"exit code {exit_code}: {stderr.strip()[-300:]}"]
    if workload == "oracle" and not _oracle_diff_empty(stderr):
        return ["formula-vs-brute-force diff is not empty"]
    try:
        out = json.loads(stdout)
        return _CHECKS[workload](out, rng, pkg)
    except Exception as exc:  # a malformed answer is a failed check, not a crash
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
