"""Brute-force subgroup census for small PSL(2, p).

The group is realised concretely as permutations of the projective line
over F_p (p + 1 points, with infinity as the last index): build_psl2 closes
the image rows of x -> x + 1 and x -> -1/x, which generate it, so no matrix
is enumerated.  From the full element list the module enumerates every
subgroup, partitions them into conjugacy classes, names each class by
isomorphism type, and emits a ClassCensus that is computed without
reference to any counting formula.  That makes it an independent check of
the closed-form catalogue.

Exact enumeration is only feasible for small p; the supported range is
p <= MAX_P = 61 (at most 113460 elements).  No Cayley table is kept: products
are formed on demand from the images of 0, 1 and infinity, in bounded blocks
(PermGroup.mul), so memory grows with the group order n, not n**2.
Subgroups are found by cyclic extension (Neubuser 1960; Holt, Eick and
O'Brien, Handbook of Computational Group Theory, on subgroup lattices):
each class representative is joined only with cyclic subgroups of
prime-power order, one per orbit of its normaliser, and its joins are
closed in batched searches.  The lattice is walked one level at a time,
and from p = 13 on runner.imap shares each level's representatives out over
every core, one fork per worker per level: the workers pick seeds and close
joins, and this process admits the new joins in call order, forming their
normalisers and orbits, so the result is the same at any number of cores.
Each class keeps the orbit and normaliser found on admission, so classify
only reads them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from math import gcd

import numpy as np

from . import arith, runner
from .arith import ResourceLimitError
from .invariants import ClassCensus, ClassEntry

MAX_P = 61  # the largest p build_psl2 accepts: 113460 elements, `census 61 --oracle` 49 s at 175 MiB on 2 cores
_MAX_SUBGROUPS = 10**6  # enumerate_subgroups refuses a working set past this many subgroups
_PRODUCT_BLOCK = 2**14  # products formed at once; a larger batch goes in blocks of whole rows
_SHARED_ORDER = 1000  # enumerate_subgroups forks from this group order (p >= 13); below it forks cost more than they save


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
    """One conjugacy class of subgroups: its representative, which carries the
    normaliser order, and its isomorphism-type label."""

    representative: Subgroup
    label: str


def _key(degree: int, img0, img1, img_inf):
    """An element's index in a dense array of degree**3, from its images of 0, 1 and infinity."""
    return (img0 * degree + img1) * degree + img_inf


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

    def __init__(self, p: int, elements: np.ndarray):
        self.p = p
        self.degree = p + 1
        self.elements = elements
        self.generators: tuple[int, ...] = ()  # build_psl2 sets the two it grew the group from
        self.order = elements.shape[0]
        self._columns = elements[:, [0, 1, p]].T.astype(np.intp)  # images of 0, 1 and infinity
        self._by_point = elements.T.astype(np.int32)  # row x: the image of x under each element
        self._lookup = np.full(self.degree**3, -1, dtype=np.int32)
        self._lookup[_key(self.degree, *self._columns)] = np.arange(self.order)
        if np.count_nonzero(self._lookup >= 0) != self.order:
            raise AssertionError("two elements share the images of 0, 1 and infinity")
        self.identity = int(self._locate(0, 1, p))
        self._inverses: np.ndarray | None = None
        self._element_orders: np.ndarray | None = None

    def _locate(self, img0, img1, img_inf) -> np.ndarray:
        """Element indices from broadcast arrays of images of 0, 1 and infinity."""
        found = self._lookup[_key(self.degree, img0, img1, img_inf)]
        if found.size and found.min() < 0:
            raise AssertionError("images of 0, 1 and infinity match no element")
        return found

    def _product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # a after b sends 0, 1 and infinity to a's images of b's images of them
        return self._locate(*(self._by_point[column[b], a] for column in self._columns))

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
    """Construct PSL(2, p) for an odd prime 3 <= p <= MAX_P (at most 113460 elements).

    x -> x + 1 and x -> -1/x generate it, as their matrices T and S generate
    SL(2, Z), which maps onto SL(2, p) (Serre, A Course in Arithmetic, VII).
    Their closure grows from the identity in rounds: both generators are
    applied to the last round's rows, and the rows with a new key are kept.
    """
    if p < 3 or p > MAX_P or not arith.is_prime(p):
        raise ValueError(f"build_psl2 supports primes 3 <= p <= {MAX_P}, got {p}")

    d = p + 1
    # x -> x + 1 and x -> -1/x as image rows, infinity at index p
    gens = np.array([[*range(1, p), 0, p], [p, *(-pow(x, -1, p) % p for x in range(1, p)), 0]],
                    dtype=np.uint8)
    rounds = [np.arange(d, dtype=np.uint8)[None]]
    seen = np.zeros(d**3, dtype=bool)
    seen[_key(d, 0, 1, p)] = True
    while rounds[-1].size:
        images = gens[:, rounds[-1]].reshape(-1, d)
        keys, first = np.unique(_key(d, *images[:, [0, 1, p]].T.astype(np.intp)), return_index=True)
        new = ~seen[keys]
        seen[keys[new]] = True
        rounds.append(images[first[new]])
    elements = np.concatenate(rounds)
    expected = p * (p * p - 1) // 2
    if elements.shape[0] != expected:
        raise AssertionError(f"built {elements.shape[0]} elements, expected {expected}")

    group = PermGroup(p, elements)
    group.generators = tuple(group._locate(*gens[:, [0, 1, p]].T.astype(np.intp)).tolist())
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

    The lattice is walked one level at a time, level k + 1 holding the
    classes first met as joins of level k, and runner.imap shares each level
    out over every core once the group has _SHARED_ORDER elements.  A
    worker picks each H's seeds and closes their joins, and sends back the
    member keys of those not yet found; this process admits them in call
    order, forming each one's normaliser and orbit.  A level goes in order
    of normaliser order, least first: a small N(H) leaves many seed orbits
    to join, so the costly calls lead and the interleaved shares carry
    similar loads.  Every call sees the subgroups found before its level
    began, and only this process admits, so the subgroups, their class ids
    and normaliser orders do not depend on the number of cores.
    """
    n = group.order
    orders = group.element_orders()
    group.inverses()  # formed once here, not again in every worker

    # seed_id[x] is the least generator of <x> when |x| is a prime power,
    # else -1; the generators of <x> are its powers x^k with k prime to |x|
    prime_power = [o for o in sorted(set(orders.tolist())) if len(arith.factorize(o)) == 1]
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
    g_key = _member_key(x)

    def admit(mask: np.ndarray, gens: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
        normaliser = _normaliser(group, mask, gens)
        found.update(dict.fromkeys(_conjugacy_orbit(group, mask, normaliser),
                                   len(normaliser_orders)))
        normaliser_orders.append(int(np.count_nonzero(normaliser)))
        if len(found) > _MAX_SUBGROUPS:
            raise ResourceLimitError(f"subgroup working set exceeded {_MAX_SUBGROUPS}")
        return mask, gens, normaliser

    def new_joins(mask: np.ndarray, gens: tuple[int, ...], normaliser: np.ndarray) -> dict[bytes, int]:
        """Member key -> seed of the joins <H, g> not yet found, g one seed per N(H)-orbit."""
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
        joins: dict[bytes, int] = {}
        # joins close in batches of at most 16 * _PRODUCT_BLOCK member flags
        for part in _row_blocks(picked.size, n // 16):
            rows = _joins(group, mask, gens, picked[part])
            sizes = np.count_nonzero(rows, axis=1).tolist()
            for g, join, size in zip(picked[part].tolist(), rows, sizes):
                if size == n and g_key in found:
                    continue  # the row is G, already found: no key needed
                key = _member_key(np.flatnonzero(join))
                if key not in found:
                    joins.setdefault(key, g)
        return joins

    jobs = runner.default_jobs() if n >= _SHARED_ORDER else 1
    level = [admit(x == group.identity, ())]
    while level:
        level.sort(key=lambda rep: np.count_nonzero(rep[2]))
        next_level = []
        for (_, gens, _), joins in zip(level, list(runner.imap(new_joins, level, jobs))):
            for key, g in joins.items():
                if key not in found:
                    join = np.zeros(n, dtype=bool)
                    join[np.frombuffer(key, dtype=np.int32)] = True
                    next_level.append(admit(join, gens + (g,)))
        level = next_level

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
    # phi(d) rotations of each order d dividing n
    counts = {d: sum(gcd(r, d) == 1 for r in range(1, d + 1)) for d in arith.divisors(n)}
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
        classes.append(OracleClass(representative=sub, label=_label_subgroup(group, mask)))
    return classes


def oracle_census(p: int) -> ClassCensus:
    """Brute-force ClassCensus of PSL(2, p), built without the count formulas."""
    group = build_psl2(p)
    subs = enumerate_subgroups(group)
    classes = classify(group, subs)

    by_label: dict[str, list[Subgroup]] = {}
    for cls in classes:
        if cls.representative.order not in (1, group.order):  # the trivial subgroup and G are not counted
            by_label.setdefault(cls.label, []).append(cls.representative)

    entries = []
    for label, reps in by_label.items():
        self_norm = {h.normaliser_order == h.order for h in reps}
        if len(self_norm) > 1:
            raise AssertionError(f"classes labelled {label} disagree on self-normalisation")
        entries.append(ClassEntry(label=label, order=reps[0].order, num_classes=len(reps),
                                  self_normalising=self_norm.pop()))
    entries.sort(key=lambda entry: (entry.order, entry.label))
    return ClassCensus(p, tuple(entries))
