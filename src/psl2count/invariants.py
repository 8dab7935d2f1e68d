"""Closed-form subgroup-class counts for PSL(2, p), p an odd prime >= 5.

Four quantities are computed for G = PSL(2, p):

  i  number of isomorphism types of proper nontrivial subgroups,
  c  number of conjugacy classes of proper nontrivial subgroups,
  s  number of those classes whose members are self-normalising,
  n  number of those classes whose members are not (so c = s + n).

All four are determined by a small parameter tuple extracted from the
divisor structure of (p + 1)/2 and (p - 1)/2.  counts() is the one place
the formulas live; it evaluates them in exact integer arithmetic on
delta / (k+1) and epsilon / (l+1), and takes n as c - s.  Those divisions
are exact for every genuine profile, so a remainder means the profile
itself is corrupt, and it raises.  The formulas and their checks run
elementwise: a profile of int64 columns, one row per prime, gives int64
columns of counts and raises if any row fails a check; a profile of ints
gives ints.

census() expands the counts into an explicit catalogue of subgroup classes
(cyclic, dihedral, affine, and the exceptional types A4, S4, A5) with class
multiplicities and self-normalisation flags, which a brute-force permutation
computation can confirm label by label for small p.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import arith


@dataclass(frozen=True)
class InvariantProfile:
    """Parameter tuple controlling the subgroup-class counts of PSL(2, p).

    delta and epsilon are the divisor counts of (p+1)/2 and (p-1)/2, while
    k and l are their 2-adic valuations (exactly one of the halves is even,
    so exactly one of k, l is zero).  sigma is 1 when p = +-1 mod 8 (square
    root of 2 exists, so S4 embeds) and alpha is 1 when p = +-1 mod 5
    (A5 embeds).  The fields are either all ints or, for many primes at
    once, all equal-length int64 arrays.
    """

    p: int
    delta: int
    epsilon: int
    k: int
    l: int
    sigma: int
    alpha: int


def profile(p: int) -> InvariantProfile:
    """Compute the invariant profile of a prime p >= 5."""
    if p < 5 or not arith.is_prime(p):
        raise ValueError(f"profile requires a prime p >= 5, got {p}")
    return assemble_profile(p, arith.tau((p + 1) // 2), arith.tau((p - 1) // 2))


def assemble_profile(p, delta, epsilon) -> InvariantProfile:
    """The profile of a prime p >= 5 whose divisor counts are already known.

    k, l, sigma and alpha follow from p alone.  p is not tested for
    primality here; profile() does that before it factors.  p, delta and
    epsilon are ints, or equal-length int64 arrays for a column profile.

    >>> assemble_profile(np.array([37, 41]), np.array([2, 4]), np.array([6, 6])).l.tolist()
    [1, 2]
    """
    sigma, alpha = sigma_alpha(p)
    prof = InvariantProfile(
        p=p,
        delta=delta,
        epsilon=epsilon,
        k=arith.two_adic_valuation((p + 1) // 2),
        l=arith.two_adic_valuation((p - 1) // 2),
        sigma=sigma,
        alpha=alpha,
    )
    _raise_where((prof.k == 0) == (prof.l == 0), AssertionError,
                 "exactly one of (p+1)/2, (p-1)/2 must be even", prof)
    return prof


def sigma_alpha(p) -> tuple:
    """(sigma, alpha) of p: sigma is 1 when p = +-1 mod 8 and alpha when p = +-1 mod 5.

    Ints for an int p and int64 arrays for an array.  p need not be prime: a
    scan asks it of the class representatives that fix p mod 40.
    """
    flags = ((p % 8 == 1) | (p % 8 == 7), (p % 5 == 1) | (p % 5 == 4))
    return tuple(f.astype(np.int64) if isinstance(f, np.ndarray) else int(f) for f in flags)


def _raise_where(bad, exc: type[Exception], what: str, prof: InvariantProfile) -> None:
    """Raise exc if bad holds in any row of prof, quoting the first such rows.

    bad is a bool for a profile of ints and a bool array for a column, which
    np.count_nonzero checks in every row (a bare if refuses an array).  The
    scalar path skips numpy, whose call would double the cost of counts().
    """
    if bad is not False and np.count_nonzero(bad):
        rows = {f.name: np.asarray(getattr(prof, f.name))[bad][:3].tolist() for f in dataclasses.fields(prof)}
        raise exc(f"{what}; first rows at fault: {rows}")


def _reduced(prof: InvariantProfile):
    """(delta / (k+1), epsilon / (l+1)), checked to be exact.

    tau is multiplicative and 2^k exactly divides (p+1)/2, so (k+1) divides
    delta; likewise (l+1) divides epsilon.
    """
    _raise_where((prof.delta % (prof.k + 1) != 0) | (prof.epsilon % (prof.l + 1) != 0), ArithmeticError,
                 "(k+1) must divide delta and (l+1) epsilon", prof)
    return prof.delta // (prof.k + 1), prof.epsilon // (prof.l + 1)


def counts(prof: InvariantProfile) -> tuple:
    """The quadruple (i, c, s, n) of a profile, the only code for the four counts.

      i = 2 delta + 3 epsilon - 3 + sigma + alpha
      c = (2 + k/(k+1)) delta + (3 + l/(l+1)) epsilon - 4 + 3 sigma + 2 alpha
      s = delta/(k+1) + epsilon/(l+1) + 2 (sigma + alpha)
      n = c - s

    (d, e) = _reduced(prof) is taken once, for both c and s.
    """
    d, e = _reduced(prof)
    i = 2 * prof.delta + 3 * prof.epsilon - 3 + prof.sigma + prof.alpha
    c = 2 * prof.delta + prof.k * d + 3 * prof.epsilon + prof.l * e - 4 + 3 * prof.sigma + 2 * prof.alpha
    s = d + e + 2 * (prof.sigma + prof.alpha)
    return i, c, s, c - s


# ---------------------------------------------------------------------------
# Explicit class catalogue


def _label_order(label: str) -> int:
    """Group order encoded by a class label."""
    if label == "A4":
        return 12
    if label == "S4":
        return 24
    if label == "A5":
        return 60
    if label.startswith("E"):
        head, _, tail = label.partition(":")
        if not tail.startswith("C"):
            raise ValueError(f"bad affine label {label!r}")
        return int(head[1:]) * int(tail[1:])
    if label.startswith("C"):
        return int(label[1:])
    if label.startswith("D"):
        return 2 * int(label[1:])
    raise ValueError(f"unrecognised label {label!r}")


@dataclass(frozen=True)
class ClassEntry:
    """One isomorphism type of proper nontrivial subgroup, with its class data."""

    label: str
    order: int
    num_classes: int
    self_normalising: bool

    def __post_init__(self):
        if self.num_classes not in (1, 2):
            raise ValueError(f"num_classes must be 1 or 2, got {self.num_classes}")
        if self.order < 2:
            raise ValueError("census entries are nontrivial subgroups")


@dataclass(frozen=True)
class ClassCensus:
    """Catalogue of the proper nontrivial subgroup classes of one PSL(2, p)."""

    p: int
    entries: tuple[ClassEntry, ...]

    def __post_init__(self):
        labels = [e.label for e in self.entries]
        if len(labels) != len(set(labels)):
            raise ValueError("census labels must be pairwise distinct")
        for e in self.entries:
            if _label_order(e.label) != e.order:
                raise ValueError(f"label {e.label!r} does not encode order {e.order}")

    @property
    def i(self) -> int:
        return len(self.entries)

    @property
    def c(self) -> int:
        return sum(e.num_classes for e in self.entries)

    @property
    def s(self) -> int:
        return sum(e.num_classes for e in self.entries if e.self_normalising)

    @property
    def n(self) -> int:
        return self.c - self.s

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "entries": [
                {
                    "label": e.label,
                    "order": e.order,
                    "classes": e.num_classes,
                    "self_normalising": e.self_normalising,
                }
                for e in self.entries
            ],
            "i": self.i,
            "c": self.c,
            "s": self.s,
            "n": self.n,
        }


def census(p: int) -> ClassCensus:
    """Explicit subgroup-class catalogue of PSL(2, p) for a prime p >= 5.

    Construction rules, with m+ = (p+1)/2 and m- = (p-1)/2:

    * each divisor d != 1 of m+ gives a cyclic class C_d (never
      self-normalising) and dihedral classes D_d of order 2d: two classes
      when m+/d is even, one when odd; D_d is self-normalising exactly when
      d > 2 and m+/d is odd (D_2 sits inside A4, D_d with even quotient
      inside D_2d);
    * divisors of m- contribute symmetrically;
    * every divisor e of m- (including e = 1) gives one class of affine
      subgroups of order p*e, self-normalising only for e = m- (the point
      stabiliser); the Sylow-p subgroup itself is the e = 1 entry;
    * A4 is always present: two classes when sigma = 1 (fused inside S4,
      not self-normalising), one self-normalising class when sigma = 0;
    * S4 appears exactly when sigma = 1 (two self-normalising classes);
    * A5 appears exactly when alpha = 1 (two self-normalising classes).
    """
    prof = profile(p)
    m_plus = (p + 1) // 2
    m_minus = (p - 1) // 2
    entries: list[ClassEntry] = []

    for m in (m_plus, m_minus):
        for d in arith.divisors(m):
            if d == 1:
                continue
            quotient_odd = (m // d) % 2 == 1
            entries.append(ClassEntry(f"C{d}", d, 1, False))
            entries.append(
                ClassEntry(
                    f"D{d}",
                    2 * d,
                    1 if quotient_odd else 2,
                    d > 2 and quotient_odd,
                )
            )

    for e in arith.divisors(m_minus):
        entries.append(ClassEntry(f"E{p}:C{e}", p * e, 1, e == m_minus))

    entries.append(ClassEntry("A4", 12, 1 + prof.sigma, prof.sigma == 0))
    if prof.sigma == 1:
        entries.append(ClassEntry("S4", 24, 2, True))
    if prof.alpha == 1:
        entries.append(ClassEntry("A5", 60, 2, True))

    entries.sort(key=lambda entry: (entry.order, entry.label))
    result = ClassCensus(p, tuple(entries))

    # The catalogue must aggregate to the closed-form counts.
    if (result.i, result.c, result.s, result.n) != counts(prof):
        raise AssertionError(f"census aggregates disagree with formulas for p={p}")
    return result


# ---------------------------------------------------------------------------
# Known-values table for small primes


@dataclass(frozen=True)
class GoldenRow:
    p: int
    delta: int
    epsilon: int
    k: int
    l: int
    sigma: int
    alpha: int
    i: int
    c: int
    s: int
    n: int


# Regression data for primes 3..61, kept exactly as published.  Three cells
# are known not to follow the formulas:
#   * row p=7 prints c = 14, but its own split gives s + n = 5 + 8 = 13 and
#     the class-count formula gives 13; verify_golden reports this one cell
#     as a known issue rather than a failure;
#   * row p=3 has divisor-split columns that do not match the defining
#     arithmetic (PSL(2,3) is solvable and sits outside the formulas), so
#     only its four counts are checked, against the brute-force census;
#   * row p=47's alpha was printed as "0." and is recorded as 0.
_GOLDEN = (
    (3, 1, 2, 0, 1, 0, 0, 3, 3, 1, 2),
    (5, 2, 2, 0, 1, 0, 0, 7, 7, 3, 4),
    (7, 3, 2, 2, 0, 1, 0, 10, 14, 5, 8),
    (11, 4, 2, 1, 0, 0, 1, 12, 14, 6, 8),
    (13, 2, 4, 0, 1, 0, 0, 13, 14, 4, 10),
    (17, 3, 4, 0, 3, 1, 0, 16, 20, 6, 14),
    (19, 4, 3, 1, 0, 0, 1, 15, 17, 7, 10),
    (23, 6, 2, 2, 0, 1, 0, 16, 21, 6, 15),
    (29, 4, 4, 0, 1, 0, 1, 18, 20, 8, 12),
    (31, 5, 4, 4, 0, 1, 1, 21, 27, 9, 18),
    (37, 2, 6, 0, 1, 0, 0, 19, 21, 5, 16),
    (41, 4, 6, 0, 2, 1, 1, 25, 31, 10, 21),
    (43, 4, 4, 1, 0, 0, 0, 17, 18, 6, 12),
    (47, 8, 2, 3, 0, 1, 0, 20, 27, 6, 21),
    (53, 4, 4, 0, 1, 0, 0, 17, 18, 6, 12),
    (59, 8, 2, 1, 0, 0, 1, 20, 24, 8, 16),
    (61, 2, 8, 0, 1, 0, 1, 26, 30, 8, 22),
)

KNOWN_ISSUES = {(7, "c"), (7, "oracle_c")}


def golden_table() -> list[GoldenRow]:
    """The embedded reference table for primes 3 through 61."""
    return [GoldenRow(*row) for row in _GOLDEN]


@dataclass(frozen=True)
class CellCheck:
    """One reference-table cell that the recomputation does not match."""

    p: int
    column: str
    expected: int
    computed: int
    status: str  # "known-issue" | "mismatch"


@dataclass(frozen=True)
class GoldenReport:
    """One (p, verdict, cells) per reference row, in table order.

    cells are the row's CellChecks, the cells that do not match, in column
    order.  The verdict is the worst of their statuses: "mismatch" over
    "known-issue", and "ok" for a row whose every cell matches.
    """

    rows: tuple[tuple[int, str, tuple[CellCheck, ...]], ...]

    @property
    def mismatches(self) -> list[CellCheck]:
        return [c for _, _, cells in self.rows for c in cells if c.status == "mismatch"]

    @property
    def known_issues(self) -> list[CellCheck]:
        return [c for _, _, cells in self.rows for c in cells if c.status == "known-issue"]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_golden(*, oracle_rows: bool = False) -> GoldenReport:
    """Recompute every reference-table row and give each row its verdict.

    Rows with p >= 5 are checked column by column against profile() and the
    count formulas.  The p = 3 row is checked on its four counts only, using
    the brute-force census.  With oracle_rows=True the rows p = 5, 7, 11, 13,
    17, 19 are additionally recomputed by brute force, as columns oracle_i
    to oracle_n checked against the row's i to n.  A row's verdict is
    "mismatch" if any cell is a mismatch, else "known-issue" if any cell
    differs (every such cell is in KNOWN_ISSUES), else "ok".
    """
    # Imported here: the brute-force module depends on this one for its
    # census types, so a top-level import would be circular.
    from . import oracle

    rows = []
    for row in golden_table():
        computed = {}  # column -> recomputed value, in column order
        if row.p >= 5:
            prof = profile(row.p)
            computed.update((f.name, getattr(prof, f.name)) for f in dataclasses.fields(prof)[1:])  # delta to alpha
            computed.update(zip("icsn", counts(prof)))
        if row.p == 3 or (oracle_rows and row.p in (5, 7, 11, 13, 17, 19)):
            cen = oracle.oracle_census(row.p)
            prefix = "" if row.p == 3 else "oracle_"
            computed.update((prefix + col, getattr(cen, col)) for col in "icsn")
        cells = tuple(
            CellCheck(row.p, col, expected, got, "known-issue" if (row.p, col) in KNOWN_ISSUES else "mismatch")
            for col, got in computed.items()
            if (expected := getattr(row, col.removeprefix("oracle_"))) != got
        )
        # the worst status, as "mismatch" > "known-issue" in string order; "ok" when no cell differs
        rows.append((row.p, max((c.status for c in cells), default="ok"), cells))
    return GoldenReport(tuple(rows))
