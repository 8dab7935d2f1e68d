"""Brute-force subgroup census for small PSL(2, p).

The group is realised concretely as the Moebius action on the projective
line over F_p (p + 1 points, with infinity as the last index), one
permutation per matrix pair {M, -M}.  From the full element list the module
enumerates every subgroup, partitions them into conjugacy classes, names
each class by isomorphism type, and emits a ClassCensus that is computed
without reference to any counting formula.  That makes it an independent
check of the closed-form catalogue.

Exact enumeration is only feasible for small p; the required range is
p <= 13 (at most 1092 elements).  p = 17 and 19 work too but take
noticeably longer, so they sit behind an explicit opt-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from . import arith
from .arith import ResourceLimitError
from .invariants import ClassCensus, ClassEntry


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its sorted member indices within a PermGroup."""

    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class OracleClass:
    """One conjugacy class of subgroups, with orbit and normaliser data."""

    representative: Subgroup
    class_size: int
    normaliser_order: int
    label: str
    excluded_from_census: bool  # true for the trivial subgroup and G itself


class PermGroup:
    """PSL(2, p) as explicit permutations of the projective line.

    elements is an (n, p + 1) array; row i is the image list of point x
    under element i, with index p standing for infinity.  The Cayley table,
    inverse list and element orders are computed on first use and cached.
    """

    def __init__(self, p: int, elements: np.ndarray, generators: tuple[int, ...]):
        self.p = p
        self.degree = p + 1
        self.elements = elements
        self.generators = generators
        self.order = elements.shape[0]
        ident = np.arange(self.degree, dtype=elements.dtype)
        self.identity = int(np.flatnonzero((elements == ident).all(axis=1))[0])
        self._table: np.ndarray | None = None
        self._inverses: np.ndarray | None = None
        self._element_orders: np.ndarray | None = None

    def table(self) -> np.ndarray:
        """Cayley table: table[i, j] is the index of element i composed after j."""
        if self._table is None:
            n, d = self.elements.shape
            index = {self.elements[i].tobytes(): i for i in range(n)}
            table = np.empty((n, n), dtype=np.int32)
            for i in range(n):
                rows = self.elements[i][self.elements]
                buf = rows.tobytes()
                ti = table[i]
                for j in range(n):
                    ti[j] = index[buf[j * d : (j + 1) * d]]
            self._table = table
        return self._table

    def inverses(self) -> np.ndarray:
        if self._inverses is None:
            n = self.order
            index = {self.elements[i].tobytes(): i for i in range(n)}
            inv = np.empty(n, dtype=np.int64)
            dtype = self.elements.dtype
            for i in range(n):
                inv[i] = index[np.argsort(self.elements[i]).astype(dtype).tobytes()]
            self._inverses = inv
        return self._inverses

    def element_orders(self) -> np.ndarray:
        if self._element_orders is None:
            n, d = self.elements.shape
            orders = np.empty(n, dtype=np.int64)
            for i in range(n):
                perm = self.elements[i]
                seen = [False] * d
                o = 1
                for start in range(d):
                    if seen[start]:
                        continue
                    length = 0
                    x = start
                    while not seen[x]:
                        seen[x] = True
                        x = int(perm[x])
                        length += 1
                    o = lcm(o, length)
                orders[i] = o
            self._element_orders = orders
        return self._element_orders


def build_psl2(p: int, *, allow_large: bool = False) -> PermGroup:
    """Construct PSL(2, p) for an odd prime 3 <= p <= 19.

    p = 17 and 19 are refused unless allow_large is set; their Cayley
    tables and lattices take tens of seconds to build.
    """
    if p < 3 or p > 19 or not arith.is_prime(p):
        raise ValueError(f"build_psl2 supports primes 3 <= p <= 19, got {p}")
    if p > 13 and not allow_large:
        raise ValueError(f"p = {p} needs allow_large=True (multi-minute budget)")

    inf = p
    inv_mod = [0] * p
    for x in range(1, p):
        inv_mod[x] = pow(x, p - 2, p)

    def action(a: int, b: int, c: int, d: int) -> bytes:
        image = []
        for x in range(p):
            den = (c * x + d) % p
            image.append(inf if den == 0 else (a * x + b) * inv_mod[den] % p)
        image.append(a * inv_mod[c] % p if c % p else inf)
        return bytes(image)

    # Unimodular matrices: either a != 0 with d forced, or a = 0 with
    # c = -1/b.  Each matrix pair {M, -M} collapses to one permutation,
    # which is why deduplication by image suffices.
    seen: dict[bytes, None] = {}
    for a in range(1, p):
        for b in range(p):
            for c in range(p):
                d = inv_mod[a] * (1 + b * c) % p
                seen.setdefault(action(a, b, c, d), None)
    for b in range(1, p):
        c = (-inv_mod[b]) % p
        for d in range(p):
            seen.setdefault(action(0, b, c, d), None)

    elements = np.frombuffer(b"".join(seen), dtype=np.uint8).reshape(len(seen), p + 1).copy()
    expected = p * (p * p - 1) // 2
    if elements.shape[0] != expected:
        raise AssertionError(f"built {elements.shape[0]} elements, expected {expected}")

    index = {elements[i].tobytes(): i for i in range(len(seen))}
    translation = action(1, 1, 0, 1)   # x -> x + 1
    inversion = action(0, p - 1, 1, 0)  # x -> -1/x
    generators = (index[translation], index[inversion])
    return PermGroup(p, elements, generators)


def _generated_subgroup(table: np.ndarray, gens: tuple[int, ...], identity: int) -> np.ndarray:
    """Member indices of the subgroup generated by gens (orbit of the identity
    under right multiplication; positive words suffice in a finite group)."""
    n = table.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[identity] = True
    frontier = np.array([identity])
    gen_arr = np.unique(np.asarray(gens, dtype=np.int64))
    while frontier.size:
        prod = table[np.ix_(frontier, gen_arr)].ravel()
        prod = prod[~seen[prod]]
        if prod.size == 0:
            break
        frontier = np.unique(prod)
        seen[frontier] = True
    return np.flatnonzero(seen)


def _conjugacy_orbit(table: np.ndarray, inverses: np.ndarray, members: np.ndarray):
    """All conjugates of a subgroup plus its normaliser order.

    Returns (matrix of sorted member rows, one per distinct conjugate,
    normaliser order).  Orbit times stabiliser must cover the whole group.
    """
    conj = table[table[:, members], inverses[:, None]]
    conj.sort(axis=1)
    stab = int(np.all(conj == members[None, :], axis=1).sum())
    orbit = np.unique(conj, axis=0)
    if orbit.shape[0] * stab != table.shape[0]:
        raise AssertionError("orbit size times normaliser order must equal |G|")
    return orbit, stab


def enumerate_subgroups(group: PermGroup, *, max_subgroups: int = 10**6) -> list[Subgroup]:
    """Every subgroup of the group, each exactly once (trivial and G included).

    Seeds with all cyclic subgroups and closes the collection under joins.
    Joins are only computed against one representative per conjugacy class:
    a join of conjugates is the matching conjugate of a join, so saturating
    each new subgroup's conjugacy orbit reaches the same fixed point at a
    fraction of the cost.
    """
    table = group.table()
    inverses = group.inverses()
    identity = group.identity

    cyclic: dict[tuple[int, ...], int] = {}
    for x in range(group.order):
        members = [identity]
        y = x
        while y != identity:
            members.append(y)
            y = int(table[y, x])
        cyclic.setdefault(tuple(sorted(members)), x)

    found: dict[tuple[int, ...], None] = {}
    worklist: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def admit(key: tuple[int, ...], gens: tuple[int, ...]) -> None:
        if key in found:
            return
        orbit, _ = _conjugacy_orbit(table, inverses, np.array(key, dtype=np.int64))
        for row in range(orbit.shape[0]):
            found[tuple(int(v) for v in orbit[row])] = None
        if len(found) > max_subgroups:
            raise ResourceLimitError(
                f"subgroup working set exceeded {max_subgroups}; raise max_subgroups"
            )
        worklist.append((key, gens))

    for key, x in cyclic.items():
        admit(key, (x,))

    seeds = list(cyclic.items())
    while worklist:
        key, gens = worklist.pop()
        member_set = set(key)
        for seed_key, x in seeds:
            if x in member_set:
                continue
            joined = _generated_subgroup(table, gens + (x,), identity)
            jkey = tuple(int(v) for v in joined)
            if jkey not in found:
                admit(jkey, gens + (x,))

    return [Subgroup(k) for k in sorted(found, key=lambda k: (len(k), k))]


# Element-order multisets of the fixed-size isomorphism types.  Within the
# subgroup catalogue of PSL(2, p) these multisets are collision-free: the
# only same-order candidates are cyclic and dihedral groups, and those are
# separated by their maximal element order and involution count below.
_A4_ORDERS = {1: 1, 2: 3, 3: 8}
_S4_ORDERS = {1: 1, 2: 9, 3: 8, 4: 6}
_A5_ORDERS = {1: 1, 2: 15, 3: 20, 5: 24}


def _dihedral_orders(n: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for d in arith.divisors(n):
        # phi(d) rotations of each order d dividing n
        phi = sum(1 for r in range(1, d + 1) if gcd(r, d) == 1)
        counts[d] = counts.get(d, 0) + phi
    counts[2] = counts.get(2, 0) + n  # the reflections
    return counts


def _order_multiset(orders: np.ndarray, members: np.ndarray) -> dict[int, int]:
    counts: dict[int, int] = {}
    for o in orders[members]:
        counts[int(o)] = counts.get(int(o), 0) + 1
    return counts


def _label_subgroup(group: PermGroup, members: np.ndarray) -> str:
    """Isomorphism-type label of a subgroup within the known catalogue.

    Proper subgroups of PSL(2, p) are cyclic, dihedral, affine (a normal
    Sylow-p extended by a cyclic group, which covers the Sylow-p itself at
    e = 1 and the order-2p case that would otherwise read as dihedral),
    A4, S4 or A5.  Anything else trips an error.
    """
    m = len(members)
    p = group.p
    if m == 1:
        return "C1"
    if m == group.order:
        return f"PSL2({p})"
    orders = group.element_orders()
    multiset = _order_multiset(orders, members)

    if m % p == 0:
        # Proper subgroups of order divisible by p normalise a Sylow-p
        # (every exceptional type here has order coprime to p once p >= 7,
        # and A5 at p = 5 is the whole group).
        e = m // p
        if ((p - 1) // 2) % e != 0 or multiset.get(p, 0) != p - 1:
            raise ValueError(f"unrecognised subgroup of order {m} (p-part malformed)")
        return f"E{p}:C{e}"
    if max(multiset) == m:
        return f"C{m}"
    if m == 12 and multiset == _A4_ORDERS:
        return "A4"
    if m == 24 and multiset == _S4_ORDERS:
        return "S4"
    if m == 60 and multiset == _A5_ORDERS:
        return "A5"
    if m % 2 == 0 and multiset == _dihedral_orders(m // 2):
        return f"D{m // 2}"
    raise ValueError(f"subgroup of order {m} matches no catalogue type")


def classify(group: PermGroup, subs: list[Subgroup]) -> list[OracleClass]:
    """Partition subgroups into conjugacy classes with normaliser data.

    The normaliser order is found by direct stabiliser counting, the class
    size by counting distinct conjugates; their product is checked against
    |G|, and every conjugate must already be present in subs.
    """
    table = group.table()
    inverses = group.inverses()
    present = {s.members for s in subs}
    assigned: set[tuple[int, ...]] = set()
    classes: list[OracleClass] = []

    for sub in sorted(subs, key=lambda s: (s.order, s.members)):
        if sub.members in assigned:
            continue
        members = np.array(sub.members, dtype=np.int64)
        orbit, normaliser_order = _conjugacy_orbit(table, inverses, members)
        keys = [tuple(int(v) for v in orbit[r]) for r in range(orbit.shape[0])]
        for key in keys:
            if key not in present:
                raise AssertionError("conjugate missing from subgroup list")
            assigned.add(key)
        label = _label_subgroup(group, members)
        classes.append(
            OracleClass(
                representative=sub,
                class_size=len(keys),
                normaliser_order=normaliser_order,
                label=label,
                excluded_from_census=sub.order in (1, group.order),
            )
        )
    return classes


def oracle_census(p: int, *, allow_large: bool = False, max_subgroups: int = 10**6) -> ClassCensus:
    """Brute-force ClassCensus of PSL(2, p), built without the count formulas."""
    group = build_psl2(p, allow_large=allow_large)
    subs = enumerate_subgroups(group, max_subgroups=max_subgroups)
    classes = classify(group, subs)

    by_label: dict[str, list[OracleClass]] = {}
    for cls in classes:
        if cls.excluded_from_census:
            continue
        by_label.setdefault(cls.label, []).append(cls)

    entries = []
    for label, group_classes in by_label.items():
        rep = group_classes[0]
        self_norm = rep.normaliser_order == rep.representative.order
        for other in group_classes[1:]:
            if (other.normaliser_order == other.representative.order) != self_norm:
                raise AssertionError(f"classes labelled {label} disagree on self-normalisation")
        entries.append(
            ClassEntry(
                label=label,
                order=rep.representative.order,
                num_classes=len(group_classes),
                self_normalising=self_norm,
            )
        )
    entries.sort(key=lambda entry: (entry.order, entry.label))
    return ClassCensus(p, tuple(entries))
