"""Brute-force subgroup census for small PSL(2, p).

The group is realised concretely as the Moebius action on the projective
line over F_p (p + 1 points, with infinity as the last index), one
permutation per matrix pair {M, -M}.  From the full element list the module
enumerates every subgroup, partitions them into conjugacy classes, names
each class by isomorphism type, and emits a ClassCensus that is computed
without reference to any counting formula.  That makes it an independent
check of the closed-form catalogue.

Exact enumeration is only feasible for small p; the supported range is
p <= 31 (at most 14880 elements).  No Cayley table is kept: products are
formed on demand from the images of 0, 1 and infinity, in bounded blocks
(PermGroup.mul), so memory grows with the group order n, not n**2.
Subgroups are found by cyclic extension (Neubuser 1960; Holt, Eick and
O'Brien, Handbook of Computational Group Theory, on subgroup lattices):
each class representative is joined only with cyclic subgroups of
prime-power order, one per orbit of its normaliser, and its joins are
closed in batched searches.  Each class keeps the orbit and normaliser
found on admission, so classify only reads them.  `census p --oracle`
took about 0.25 s at p = 13, 0.5 s at p = 19 (38 MiB peak), 0.9 s at
p = 23, 2.0 s at p = 29 and 5.5 s at p = 31 (68 MiB peak), start-up
included, on a 2-core Xeon with Python 3.11 and numpy 2.4 (medians of 3
to 7 runs).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from math import gcd

import numpy as np

from . import arith
from .arith import ResourceLimitError
from .invariants import ClassCensus, ClassEntry

MAX_P = 31  # the largest p build_psl2 accepts: 14880 elements, `census 31 --oracle` 5.5 s at 68 MiB
_MAX_SUBGROUPS = 10**6  # enumerate_subgroups refuses a working set past this many subgroups
_PRODUCT_BLOCK = 2**14  # products formed at once; a larger batch goes in blocks of whole rows


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its sorted member indices within a PermGroup,
    with the id of its conjugacy class and the order of its normaliser."""

    members: tuple[int, ...]
    class_id: int
    normaliser_order: int

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
    indexes a dense lookup array of d**3 entries.  No Cayley table is kept:
    mul and right_products form products on demand.  The inverse list and
    element orders are computed on first use and cached.
    """

    def __init__(self, p: int, elements: np.ndarray, generators: tuple[int, ...]):
        self.p = p
        self.degree = p + 1
        self.elements = elements
        self.generators = generators
        self.order = elements.shape[0]
        self._images = elements.astype(np.int32).ravel()  # image of x under i at i * degree + x
        self._columns = elements[:, [0, 1, p]].T.astype(np.intp)  # images of 0, 1 and infinity
        self._by_point = elements.T.astype(np.int32)  # row x: the image of x under each element
        self._lookup = np.full(self.degree**3, -1, dtype=np.int32)
        self._lookup[self._key(*self._columns)] = np.arange(self.order)
        if np.count_nonzero(self._lookup >= 0) != self.order:
            raise AssertionError("two elements share the images of 0, 1 and infinity")
        self.identity = int(self._locate(0, 1, p))
        self._inverses: np.ndarray | None = None
        self._element_orders: np.ndarray | None = None

    def _key(self, img0, img1, img_inf):
        return (img0 * self.degree + img1) * self.degree + img_inf

    def _locate(self, img0, img1, img_inf) -> np.ndarray:
        """Element indices from broadcast arrays of images of 0, 1 and infinity."""
        found = self._lookup[self._key(img0, img1, img_inf)]
        if found.size and found.min() < 0:
            raise AssertionError("images of 0, 1 and infinity match no element")
        return found

    def _product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # a after b sends 0, 1 and infinity to a's images of b's images of them
        start = a * self.degree
        return self._locate(*(self._images[start + column[b]] for column in self._columns))

    def mul(self, a, b) -> np.ndarray:
        """Index of element a composed after element b, elementwise over the
        broadcast of two index arrays.  A batch of more than _PRODUCT_BLOCK
        products is formed in blocks of whole leading rows."""
        a, b = np.asarray(a), np.asarray(b)
        batch = np.broadcast(a, b)
        if batch.size <= _PRODUCT_BLOCK:
            return self._product(a, b)
        a, b = np.broadcast_arrays(a, b)
        out = np.empty(batch.shape, dtype=np.int32)
        for rows in _row_blocks(len(out), out.size // len(out)):
            out[rows] = self._product(a[rows], b[rows])
        return out

    def right_products(self, m: np.ndarray) -> np.ndarray:
        """Row k holds x composed after m[k] for every element x, in element
        order.  It needs only m[k]'s images of 0, 1 and infinity, so each
        row gathers three whole rows of images; callers bound len(m)."""
        return self._locate(*(self._by_point[column[m]] for column in self._columns))

    table = mul  # perfbench/tracer.py times the product layer under this name

    def inverses(self) -> np.ndarray:
        if self._inverses is None:
            # the inverse permutation of a row is its argsort
            inverses = self._locate(*np.argsort(self.elements, axis=1)[:, [0, 1, self.p]].T)
            if (self.mul(np.arange(self.order), inverses) != self.identity).any():
                raise AssertionError("an element times its inverse must be the identity")
            self._inverses = inverses.astype(np.intp)
        return self._inverses

    def element_orders(self) -> np.ndarray:
        """Order of each element: the least k with x^k the identity, from one
        power loop over all elements at once (no order exceeds p)."""
        if self._element_orders is None:
            x = np.arange(self.order)
            orders = np.zeros(self.order, dtype=np.int64)
            power = x
            for k in range(1, self.p + 1):
                orders[(power == self.identity) & (orders == 0)] = k
                if orders.all():
                    break
                power = self.mul(power, x)
            else:
                raise AssertionError("an element order exceeds p")
            self._element_orders = orders
        return self._element_orders


def _row_blocks(rows: int, width: int):
    """Slices of whole rows, each of at most _PRODUCT_BLOCK entries when a
    row of this width fits, else of one row, covering range(rows)."""
    step = max(1, _PRODUCT_BLOCK // max(width, 1))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def build_psl2(p: int) -> PermGroup:
    """Construct PSL(2, p) for an odd prime 3 <= p <= MAX_P (at most 14880 elements)."""
    if p < 3 or p > MAX_P or not arith.is_prime(p):
        raise ValueError(f"build_psl2 supports primes 3 <= p <= {MAX_P}, got {p}")

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
    group.generators = tuple(group._locate(*np.array([[1, 2 % p, p], [p, p - 1, 0]]).T).tolist())
    return group


def _member_key(members: np.ndarray) -> bytes:
    """Dictionary key of a member set given as sorted element indices."""
    return members.astype(np.int32).tobytes()


def _joins(group: PermGroup, mask: np.ndarray, gens: tuple[int, ...],
           seeds: np.ndarray) -> np.ndarray:
    """Row j is the member mask of <H, seeds[j]>, H the subgroup with this
    mask and generators.

    One breadth-first pass closes every row at once: each row starts from
    H's members and grows by right multiplication with H's generators and
    its own seed (positive words suffice in a finite group).  A subgroup
    holding more than n/2 elements is all of G (Lagrange), so a row that
    passes n/2 is filled in and leaves the frontier.  The products by each
    generator and seed are formed once, so a round only gathers them.
    """
    n = group.order
    rows = seeds.size
    members = np.flatnonzero(mask)
    # right[k, x] is x times the k-th multiplier: H's generators, then the seeds
    right = group.right_products(np.concatenate([np.asarray(gens, dtype=np.intp), seeds]))
    # row j multiplies by H's generators, then by seeds[j]: these rows of right
    by = np.column_stack([np.tile(np.arange(len(gens)), (rows, 1)), len(gens) + np.arange(rows)])
    seen = np.tile(mask, (rows, 1))
    flat_seen = seen.reshape(-1)
    size = np.full(rows, members.size)
    row = np.repeat(np.arange(rows), members.size)
    elem = np.tile(members, rows)
    while row.size:
        reached = np.zeros(rows * n, dtype=bool)
        reached[row[:, None] * n + right[by[row], elem[:, None]]] = True
        reached &= ~flat_seen
        flat_seen |= reached
        row, elem = np.divmod(np.flatnonzero(reached), n)
        size += np.bincount(row, minlength=rows)
        whole = size > n // 2
        if whole.any():
            seen[whole] = True
            keep = ~whole[row]
            row, elem = row[keep], elem[keep]
    return seen


def _conjugates(group: PermGroup, by: np.ndarray, x: np.ndarray) -> np.ndarray:
    """by[i] x[j] by[i]^-1 at [i, j], for a 1-D by and x."""
    return group.mul(group.mul(by[:, None], x), group.inverses()[by, None])


def _normaliser(group: PermGroup, mask: np.ndarray, gens: tuple[int, ...]) -> np.ndarray:
    """Member mask of N(H), H = <gens> with this mask: the g that conjugate
    every generator into H."""
    conj = _conjugates(group, np.arange(group.order), np.asarray(gens, dtype=np.intp))
    return mask[conj].all(axis=1)


def _conjugacy_orbit(group: PermGroup, mask: np.ndarray, normaliser: np.ndarray) -> list[bytes]:
    """Keys of the distinct conjugates of a subgroup, given its normaliser.

    g H g^-1 depends only on the left coset g N(H), so one conjugate is built
    per coset, by its least element.  The conjugates must be pairwise
    distinct and their number times |N(H)| must be |G|; a normaliser that
    misses an element or is not a subgroup fails one of the two and raises.
    A normal subgroup is its own orbit and skips the coset minima.
    """
    n = group.order
    members = np.flatnonzero(mask)
    norm = np.flatnonzero(normaliser)
    if norm.size == n:
        return [_member_key(members)]
    least = reduce(np.minimum, (group.right_products(norm[rows]).min(axis=0)
                                for rows in _row_blocks(norm.size, n)))
    conj = np.sort(_conjugates(group, np.flatnonzero(least == np.arange(n)), members), axis=1)
    orbit = [_member_key(row) for row in conj]
    if len(set(orbit)) != len(orbit) or len(orbit) * norm.size != n:
        raise AssertionError("conjugates must be distinct, and their number times |N(H)| must be |G|")
    return orbit


def enumerate_subgroups(group: PermGroup) -> list[Subgroup]:
    """Every subgroup of the group, each exactly once (trivial and G included),
    in order of (order, members), each tagged with its conjugacy class and
    the order of its normaliser.

    Cyclic extension from the trivial group: each class representative H is
    joined with the cyclic subgroups of prime-power order outside it, one
    per orbit of N(H), and each new join is admitted with its whole
    conjugacy orbit.  Nothing is lost.  A subgroup K > H holds an element of
    prime-power order outside H, since the prime-power parts of an x in K
    outside H are powers of x and cannot all lie in H.  For n in N(H) the
    join <H, n g n^-1> is the conjugate n <H, g> n^-1, which the orbit of
    <H, g> already holds.
    """
    n = group.order
    orders = group.element_orders()

    # seed_id[x] is the least generator of <x> when |x| is a prime power,
    # else -1; the generators of <x> are its powers x^k with k prime to |x|
    prime_power = [o for o in sorted(set(orders.tolist())) if len(arith.factorize(o).factors) == 1]
    x = np.arange(n)
    seed_id = x
    power = x
    for k in range(2, int(orders.max())):
        power = group.mul(power, x)
        seed_id = np.where((k < orders) & (np.gcd(k, orders) == 1), np.minimum(seed_id, power), seed_id)
    seed_id = np.where(np.isin(orders, prime_power), seed_id, -1)
    seeds = np.flatnonzero(seed_id == x)

    found: dict[bytes, int] = {}  # member key -> class id
    normaliser_orders: list[int] = []  # by class id
    worklist: list[tuple[np.ndarray, tuple[int, ...], np.ndarray]] = []

    def admit(mask: np.ndarray, gens: tuple[int, ...]) -> None:
        normaliser = _normaliser(group, mask, gens)
        found.update(dict.fromkeys(_conjugacy_orbit(group, mask, normaliser),
                                   len(normaliser_orders)))
        normaliser_orders.append(int(np.count_nonzero(normaliser)))
        if len(found) > _MAX_SUBGROUPS:
            raise ResourceLimitError(f"subgroup working set exceeded {_MAX_SUBGROUPS}")
        worklist.append((mask, gens, normaliser))

    admit(x == group.identity, ())
    while worklist:
        mask, gens, normaliser = worklist.pop()
        outside = seeds[~mask[seeds]]
        # N(H) permutes the seeds outside H by conjugation; keep the least
        # seed of each orbit.  Conjugation by all of N(H) reaches each
        # orbit's minimum in one pass.  When N(H) = G the minima are carried
        # along the conjugations by G's two generators to a fixpoint instead.
        whole = normaliser.all()
        by = np.asarray(group.generators) if whole else np.flatnonzero(normaliser)
        slot = np.empty(n, dtype=np.intp)
        slot[outside] = np.arange(outside.size)
        least = np.arange(outside.size)  # slot in outside of each seed's least known conjugate
        while True:
            lower = least
            for rows in _row_blocks(by.size, outside.size):
                images = slot[seed_id[_conjugates(group, by[rows], outside)]]
                lower = np.minimum(lower, least[images].min(axis=0))
            if not whole or np.array_equal(lower, least):
                break
            least = lower
        picked = outside[lower == np.arange(outside.size)]
        # joins close in batches of at most 16 * _PRODUCT_BLOCK member flags
        for part in _row_blocks(picked.size, n // 16):
            for g, join in zip(picked[part].tolist(), _joins(group, mask, gens, picked[part])):
                if _member_key(np.flatnonzero(join)) not in found:
                    admit(join, gens + (g,))

    subs = [
        Subgroup(tuple(np.frombuffer(key, dtype=np.int32).tolist()), class_id,
                 normaliser_orders[class_id])
        for key, class_id in found.items()
    ]
    return sorted(subs, key=lambda sub: (sub.order, sub.members))


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
    """Partition enumerated subgroups into conjugacy classes, in order of
    their representatives, the least members by (order, members).

    enumerate_subgroups tags each subgroup with its class and normaliser
    order from the orbit it checked.  The class size here is the number of
    subgroups carrying the tag, so the check that it times the normaliser
    order is |G| fails if the list lost or repeated a conjugate.
    """
    sizes = Counter(sub.class_id for sub in subs)
    classes: list[OracleClass] = []
    for sub in sorted(subs, key=lambda s: (s.order, s.members)):
        size = sizes.pop(sub.class_id, None)
        if size is None:
            continue
        if size * sub.normaliser_order != group.order:
            raise AssertionError("class size times normaliser order must equal |G|")
        mask = np.zeros(group.order, dtype=bool)
        mask[list(sub.members)] = True
        classes.append(
            OracleClass(
                representative=sub,
                class_size=size,
                normaliser_order=sub.normaliser_order,
                label=_label_subgroup(group, mask),
                excluded_from_census=sub.order in (1, group.order),
            )
        )
    return classes


def oracle_census(p: int) -> ClassCensus:
    """Brute-force ClassCensus of PSL(2, p), built without the count formulas."""
    group = build_psl2(p)
    subs = enumerate_subgroups(group)
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
