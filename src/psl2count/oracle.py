"""Brute-force subgroup census for small PSL(2, p).

The group is realised concretely as the Moebius action on the projective
line over F_p (p + 1 points, with infinity as the last index), one
permutation per matrix pair {M, -M}.  From the full element list the module
enumerates every subgroup, partitions them into conjugacy classes, names
each class by isomorphism type, and emits a ClassCensus that is computed
without reference to any counting formula.  That makes it an independent
check of the closed-form catalogue.

Exact enumeration is only feasible for small p; the supported range is
p <= 19 (at most 3420 elements).  Subgroups are found by cyclic extension
(Neubuser 1960): each class representative is joined only with cyclic
subgroups of prime-power order, one per orbit of its normaliser.
`census p --oracle` took about 0.55 s at p = 13, 1.1 s at p = 17 and 1.7 s
at p = 19 on a 2-core Xeon with Python 3.11.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

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
    under element i, with index p standing for infinity.  PGL(2, p) acts
    sharply 3-transitively on the line, so an element is fixed by its images
    of 0, 1 and infinity; with d = p + 1 the key (img0 * d + img1) * d + imginf
    indexes a dense lookup array of d**3 entries.  The Cayley table, inverse
    list and element orders are computed on first use and cached.
    """

    def __init__(self, p: int, elements: np.ndarray, generators: tuple[int, ...]):
        self.p = p
        self.degree = p + 1
        self.elements = elements
        self.generators = generators
        self.order = elements.shape[0]
        self._lookup = np.full(self.degree**3, -1, dtype=np.int32)
        self._lookup[self._element_keys(elements[:, [0, 1, p]])] = np.arange(self.order)
        if np.count_nonzero(self._lookup >= 0) != self.order:
            raise AssertionError("two elements share the images of 0, 1 and infinity")
        self.identity = int(self._locate(np.array([0, 1, p])))
        self._table: np.ndarray | None = None
        self._inverses: np.ndarray | None = None
        self._element_orders: np.ndarray | None = None

    def _element_keys(self, points: np.ndarray) -> np.ndarray:
        d = self.degree
        return (points[..., 0].astype(np.intp) * d + points[..., 1]) * d + points[..., 2]

    def _locate(self, points: np.ndarray) -> np.ndarray:
        """Element indices from images of (0, 1, infinity) along the last axis."""
        found = self._lookup[self._element_keys(points)]
        if (found < 0).any():
            raise AssertionError("images of 0, 1 and infinity match no element")
        return found

    def table(self) -> np.ndarray:
        """Cayley table: table[i, j] is the index of element i composed after j."""
        if self._table is None:
            n = self.order
            points = self.elements[:, [0, 1, self.p]]
            table = np.empty((n, n), dtype=np.int32)
            rows = max(1, 2**16 // n)  # rows per block, so each block's temporaries stay small
            for lo in range(0, n, rows):
                table[lo : lo + rows] = self._locate(self.elements[lo : lo + rows, points])
            self._table = table
        return self._table

    def inverses(self) -> np.ndarray:
        if self._inverses is None:
            rows, cols = np.nonzero(self.table() == self.identity)
            if rows.size != self.order:
                raise AssertionError("every element needs exactly one inverse")
            self._inverses = cols.astype(np.int64)
        return self._inverses

    def element_orders(self) -> np.ndarray:
        if self._element_orders is None:
            self._element_orders = _cyclic_masks(self.table()).sum(axis=1)
        return self._element_orders


def _cyclic_masks(table: np.ndarray) -> np.ndarray:
    """Row x is the member mask of <x>: the powers x, x^2, ... until they repeat."""
    n = table.shape[0]
    x = np.arange(n)
    masks = np.zeros((n, n), dtype=bool)
    power = x
    while not masks[x, power].all():
        masks[x, power] = True
        power = table[power, x]
    return masks


def build_psl2(p: int) -> PermGroup:
    """Construct PSL(2, p) for an odd prime 3 <= p <= 19 (at most 3420 elements)."""
    if p < 3 or p > 19 or not arith.is_prime(p):
        raise ValueError(f"build_psl2 supports primes 3 <= p <= 19, got {p}")

    inv_mod = np.array([0] + [pow(x, -1, p) for x in range(1, p)])
    # Unimodular matrices (a, b, c, d): either a != 0 with d forced, or a = 0
    # with c = -1/b.  Each matrix pair {M, -M} collapses to one permutation,
    # so the first matrix of each image list is kept.
    x = np.arange(p)
    a, b, c = (v.ravel() for v in np.meshgrid(x[1:], x, x, indexing="ij"))
    b0, d0 = (v.ravel() for v in np.meshgrid(x[1:], x, indexing="ij"))
    matrices = [[a, b, c, inv_mod[a] * (1 + b * c) % p], [0 * b0, b0, -inv_mod[b0] % p, d0]]
    a, b, c, d = np.concatenate(matrices, axis=1)
    den = (c[:, None] * x + d[:, None]) % p
    finite = np.where(den == 0, p, (a[:, None] * x + b[:, None]) * inv_mod[den] % p)
    at_inf = np.where(c != 0, a * inv_mod[c] % p, p)
    images = np.column_stack([finite, at_inf]).astype(np.uint8)
    _, first = np.unique(images, axis=0, return_index=True)
    elements = images[np.sort(first)]
    expected = p * (p * p - 1) // 2
    if elements.shape[0] != expected:
        raise AssertionError(f"built {elements.shape[0]} elements, expected {expected}")

    group = PermGroup(p, elements, ())
    # x -> x + 1 and x -> -1/x, by their images of 0, 1 and infinity
    group.generators = tuple(group._locate(np.array([[1, 2 % p, p], [p, p - 1, 0]])).tolist())
    return group


def _mask_key(mask: np.ndarray) -> bytes:
    """Dictionary key of a member set given as a boolean mask over the group."""
    return np.packbits(mask).tobytes()


def _mask_keys(masks: np.ndarray) -> list[bytes]:
    """_mask_key of each row of a 2-D mask array."""
    return [row.tobytes() for row in np.packbits(masks, axis=1)]


def _generated_subgroup(table: np.ndarray, gens: tuple[int, ...], identity: int) -> np.ndarray:
    """Member mask of the subgroup generated by gens (orbit of the identity
    under right multiplication; positive words suffice in a finite group)."""
    n = table.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[identity] = True
    frontier = np.array([identity])
    gen_arr = np.asarray(gens, dtype=np.int64)
    while frontier.size:
        reached = np.zeros(n, dtype=bool)
        reached[table[frontier[:, None], gen_arr]] = True
        reached &= ~seen
        seen |= reached
        frontier = np.flatnonzero(reached)
    return seen


def _conjugacy_orbit(table: np.ndarray, inverses: np.ndarray, mask: np.ndarray):
    """All conjugates of a subgroup plus its normaliser.

    Returns (keys of the distinct conjugates, member mask of the normaliser).
    Orbit times stabiliser must cover the whole group.  The trivial group and
    the whole group are normal, so they skip the n x n conjugate array.
    """
    n = table.shape[0]
    if np.count_nonzero(mask) in (1, n):
        return [_mask_key(mask)], np.ones(n, dtype=bool)
    conj = table[table[:, mask], inverses[:, None]]  # row g: g h g^-1 for each member h
    normaliser = mask[conj].all(axis=1)
    masks = np.zeros((n, n), dtype=bool)
    masks[np.arange(n)[:, None], conj] = True
    orbit = list(dict.fromkeys(_mask_keys(masks)))
    if len(orbit) * np.count_nonzero(normaliser) != n:
        raise AssertionError("orbit size times normaliser order must equal |G|")
    return orbit, normaliser


def enumerate_subgroups(group: PermGroup, *, max_subgroups: int = 10**6) -> list[Subgroup]:
    """Every subgroup of the group, each exactly once (trivial and G included).

    Cyclic extension from the trivial group: each class representative H is
    joined with the cyclic subgroups of prime-power order outside it, one
    per orbit of N(H), and each new join is admitted with its whole
    conjugacy orbit.  Nothing is lost.  A subgroup K > H holds an element of
    prime-power order outside H, since the prime-power parts of an x in K
    outside H are powers of x and cannot all lie in H.  For n in N(H) the
    join <H, n g n^-1> is the conjugate n <H, g> n^-1, which the orbit of
    <H, g> already holds.
    """
    table = group.table()
    inverses = group.inverses()
    n = group.order
    orders = group.element_orders()

    # seed_id[x] is the least generator of <x> when |x| is a prime power, else -1
    prime_power = [o for o in np.unique(orders).tolist() if len(arith.factorize(o).factors) == 1]
    least = (_cyclic_masks(table) & (orders == orders[:, None])).argmax(axis=1)
    seed_id = np.where(np.isin(orders, prime_power), least, -1)
    seeds = np.flatnonzero(seed_id == np.arange(n))

    found: dict[bytes, None] = {}
    worklist: list[tuple[np.ndarray, tuple[int, ...], np.ndarray]] = []

    def admit(mask: np.ndarray, gens: tuple[int, ...]) -> None:
        if _mask_key(mask) in found:
            return
        orbit, normaliser = _conjugacy_orbit(table, inverses, mask)
        found.update(dict.fromkeys(orbit))
        if len(found) > max_subgroups:
            raise ResourceLimitError(
                f"subgroup working set exceeded {max_subgroups}; raise max_subgroups"
            )
        worklist.append((mask, gens, normaliser))

    admit(np.arange(n) == group.identity, ())
    while worklist:
        mask, gens, normaliser = worklist.pop()
        outside = seeds[~mask[seeds]]
        norm = np.flatnonzero(normaliser)
        # column j: the ids of the conjugates of seed j by every n in N(H)
        images = seed_id[table[table[norm[:, None], outside], inverses[norm, None]]]
        for g in outside[images.min(axis=0) == outside].tolist():
            admit(_generated_subgroup(table, gens + (g,), group.identity), gens + (g,))

    subs = [
        tuple(np.flatnonzero(np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=n)).tolist())
        for key in found
    ]
    return [Subgroup(members) for members in sorted(subs, key=lambda m: (len(m), m))]


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


def _order_multiset(orders: np.ndarray, mask: np.ndarray) -> dict[int, int]:
    values, counts = np.unique(orders[mask], return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def _label_subgroup(group: PermGroup, mask: np.ndarray) -> str:
    """Isomorphism-type label of the subgroup with this member mask.

    Proper subgroups of PSL(2, p) are cyclic, dihedral, affine (a normal
    Sylow-p extended by a cyclic group, which covers the Sylow-p itself at
    e = 1 and the order-2p case that would otherwise read as dihedral),
    A4, S4 or A5.  Anything else is a defect of the oracle and raises
    AssertionError, like its other invariant checks.
    """
    m = int(np.count_nonzero(mask))
    p = group.p
    if m == 1:
        return "C1"
    if m == group.order:
        return f"PSL2({p})"
    orders = group.element_orders()
    multiset = _order_multiset(orders, mask)

    if m % p == 0:
        # Proper subgroups of order divisible by p normalise a Sylow-p
        # (every exceptional type here has order coprime to p once p >= 7,
        # and A5 at p = 5 is the whole group).
        e = m // p
        if ((p - 1) // 2) % e != 0 or multiset.get(p, 0) != p - 1:
            raise AssertionError(f"unrecognised subgroup of order {m} (p-part malformed)")
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
    raise AssertionError(f"subgroup of order {m} matches no catalogue type")


def classify(group: PermGroup, subs: list[Subgroup]) -> list[OracleClass]:
    """Partition subgroups into conjugacy classes with normaliser data.

    The normaliser order is found by direct stabiliser counting, the class
    size by counting distinct conjugates; their product is checked against
    |G|, and every conjugate must already be present in subs.
    """
    table = group.table()
    inverses = group.inverses()
    masks = np.zeros((len(subs), group.order), dtype=bool)
    for row, sub in enumerate(subs):
        masks[row, list(sub.members)] = True
    keys = _mask_keys(masks)
    present = set(keys)
    assigned: set[bytes] = set()
    classes: list[OracleClass] = []

    for row in sorted(range(len(subs)), key=lambda r: (subs[r].order, subs[r].members)):
        sub = subs[row]
        if keys[row] in assigned:
            continue
        orbit, normaliser = _conjugacy_orbit(table, inverses, masks[row])
        for key in orbit:
            if key not in present:
                raise AssertionError("conjugate missing from subgroup list")
        assigned.update(orbit)
        classes.append(
            OracleClass(
                representative=sub,
                class_size=len(orbit),
                normaliser_order=int(np.count_nonzero(normaliser)),
                label=_label_subgroup(group, masks[row]),
                excluded_from_census=sub.order in (1, group.order),
            )
        )
    return classes


def oracle_census(p: int, *, max_subgroups: int = 10**6) -> ClassCensus:
    """Brute-force ClassCensus of PSL(2, p), built without the count formulas."""
    group = build_psl2(p)
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
