"""Brute-force group-theoretic checks against the formula-side catalogue."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from psl2count import invariants, oracle


def _group(p):
    # module-level cache keeps the big builds to one per session
    if p not in _group.cache:
        _group.cache[p] = oracle.build_psl2(p)
    return _group.cache[p]


_group.cache = {}


def _table(p):
    if p not in _table.cache:
        _table.cache[p] = _reference_table(_group(p))
    return _table.cache[p]


_table.cache = {}


def _subgroups(p):
    if p not in _subgroups.cache:
        _subgroups.cache[p] = oracle.enumerate_subgroups(_group(p))
    return _subgroups.cache[p]


_subgroups.cache = {}


def _classes(p):
    if p not in _classes.cache:
        _classes.cache[p] = oracle.classify(_group(p), _subgroups(p))
    return _classes.cache[p]


_classes.cache = {}


def _reference_elements(p):
    """The image rows of x -> (ax + b)/(cx + d) over all p**3 unimodular
    matrices (a, b, c, d), one row per pair {M, -M}, in lexicographic order.
    This is the slow enumeration that build_psl2's closure replaces."""
    inv_mod = np.array([0] + [pow(x, -1, p) for x in range(1, p)])
    x = np.arange(p)
    # either a != 0 with d forced, or a = 0 with c = -1/b
    a, b, c = (v.ravel() for v in np.meshgrid(x[1:], x, x, indexing="ij"))
    b0, d0 = (v.ravel() for v in np.meshgrid(x[1:], x, indexing="ij"))
    matrices = [[a, b, c, inv_mod[a] * (1 + b * c) % p], [0 * b0, b0, -inv_mod[b0] % p, d0]]
    a, b, c, d = np.concatenate(matrices, axis=1)
    den = (c[:, None] * x + d[:, None]) % p
    finite = np.where(den == 0, p, (a[:, None] * x + b[:, None]) * inv_mod[den] % p)
    at_inf = np.where(c != 0, a * inv_mod[c] % p, p)
    return np.unique(np.column_stack([finite, at_inf]), axis=0)


def _cycle_order(perm):
    """Order of a permutation as the lcm of its cycle lengths."""
    seen = [False] * len(perm)
    order = 1
    for start in range(len(perm)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


class TestBuild:
    def test_orders(self):
        assert _group(3).order == 12
        assert _group(5).order == 60
        assert _group(7).order == 168
        assert _group(13).order == 1092

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_closure_equals_matrix_enumeration(self, p):
        g = oracle.build_psl2(p)
        assert g.identity == 0
        assert np.array_equal(np.unique(g.elements, axis=0), _reference_elements(p))

    def test_build_peak_memory(self):
        """The closure keeps no p**3 x p temporaries: at p = 31 the traced
        peak is the group's own arrays, about 5.4 MiB, against 24 MiB when
        the rows came from the matrix enumeration."""
        tracemalloc.start()
        try:
            oracle.build_psl2(31)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_group_peak_memory(self):
        """PermGroup keeps one image layout, the (p + 1, n) rows by point
        that both product paths gather from: at p = 31 the traced peak is
        about 2.6 MiB, against 4.4 MiB with a second, flat copy per element."""
        elements = oracle.build_psl2(31).elements
        tracemalloc.start()
        try:
            oracle.PermGroup(31, elements)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20

    def test_elements_are_permutations(self):
        g = _group(5)
        degree = 5 + 1
        assert g.elements.shape == (60, degree)
        for row in g.elements:
            assert sorted(row) == list(range(degree))

    def test_generators_generate(self):
        g = _group(7)
        assert g.elements[list(g.generators)].tolist() == [
            [1, 2, 3, 4, 5, 6, 0, 7],  # x -> x + 1
            [7, 6, 3, 2, 5, 4, 1, 0],  # x -> -1/x
        ]
        table = _table(7)
        mask = _reference_join(table, g.generators, g.identity)
        assert np.count_nonzero(mask) == g.order
        translations = _reference_join(table, g.generators[:1], g.identity)
        assert np.count_nonzero(translations) == 7
        joins = oracle._joins(g, translations, g.generators[:1], np.array(g.generators[1:]))
        assert joins.tolist() == [mask.tolist()]

    def test_shared_key_raises(self):
        g = _group(5)
        with pytest.raises(AssertionError):
            oracle.PermGroup(5, np.vstack([g.elements, g.elements[:1]]))

    def test_element_orders_lagrange(self):
        g = _group(7)
        orders = g.element_orders()
        assert orders[g.identity] == 1
        assert all(g.order % int(o) == 0 for o in orders)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_arrays_match_permutation_arithmetic(self, p):
        g = _group(p)
        perms = g.elements
        assert np.array_equal(perms[g.inverses()], np.argsort(perms, axis=1))
        assert g.element_orders().tolist() == [_cycle_order(row) for row in perms.tolist()]

    def test_cap_and_overrides(self):
        assert oracle.build_psl2(oracle.MAX_P).order == 113460  # the largest group built: p = 61
        with pytest.raises(ValueError):
            oracle.build_psl2(67)
        with pytest.raises(ValueError):
            oracle.build_psl2(4)
        with pytest.raises(TypeError):
            oracle.build_psl2(17, allow_large=True)  # the opt-in is gone


class TestProducts:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_mul_matches_composition_all_pairs(self, p):
        x = np.arange(_group(p).order)
        assert np.array_equal(_group(p).mul(x[:, None], x), _table(p))
        assert np.array_equal(_group(p).right_products(x), _table(p).T)

    @pytest.mark.parametrize("p", [17, 19, 23])
    def test_mul_matches_composition_random_pairs(self, p):
        g = _group(p)
        perms = g.elements
        rng = np.random.default_rng(p)
        a, b = rng.integers(g.order, size=(2, 3 * oracle._PRODUCT_BLOCK + 5))
        composed = np.take_along_axis(perms[a], perms[b].astype(np.intp), axis=1)  # a(b(x))
        assert np.array_equal(perms[g.mul(a, b)], composed)
        # a broadcast past the block, formed in blocks of rows
        a, b = a[:150], b[:200]
        product = g.mul(a[:, None], b)
        assert product.shape == (150, 200) and 150 * 200 > oracle._PRODUCT_BLOCK
        assert np.array_equal(perms[product], perms[a[:, None, None], perms[b][None]])
        assert g.mul(int(a[0]), int(b[0])) == product[0, 0]
        # every element times each of a few
        everyone = np.arange(g.order)[None, :, None]
        assert np.array_equal(perms[g.right_products(b[:3])], perms[everyone, perms[b[:3], None]])

    @pytest.mark.parametrize("p,block", [(7, 1), (11, 97), (13, 97),
                                         (7, 2**62), (11, 2**62), (13, 2**62)])
    def test_product_block_edges(self, monkeypatch, p, block):
        """Blocks of one product, blocks narrower than a row (97 < n for
        p >= 11), and every batch in one block give the same subgroups and
        classes as the default block.  A block of 1 at p = 11 and 13 takes
        5-20 s, so those use 97."""
        monkeypatch.setattr(oracle, "_PRODUCT_BLOCK", block)
        g = oracle.build_psl2(p)
        subs = oracle.enumerate_subgroups(g)
        assert subs == _subgroups(p)
        assert oracle.classify(g, subs) == _classes(p)

    def test_unmatched_images_raise(self):
        with pytest.raises(AssertionError):
            _group(5)._locate(0, 0, 0)  # 0, 1 and infinity all sent to 0: no permutation


def _reference_table(group):
    """Cayley table by permutation composition: [i, j] is the index of the
    element whose image list is perms[i][perms[j]].  Each image list is
    named by its digits in base p + 1, exact in int64 for p <= 13."""
    perms = group.elements.astype(np.int64)
    d = group.degree
    assert d**d < 2**63
    codes = perms @ d ** np.arange(d)
    order = np.argsort(codes)
    table = np.empty((group.order, group.order), dtype=np.int64)
    for i in range(group.order):
        composed = perms[i][perms] @ d ** np.arange(d)
        table[i] = order[np.searchsorted(codes[order], composed)]
        assert np.array_equal(codes[table[i]], composed)  # every composite is an element
    return table


def _reference_cyclic_masks(table):
    """Row x is the member mask of <x>: the powers x, x^2, ... until they repeat."""
    n = table.shape[0]
    x = np.arange(n)
    masks = np.zeros((n, n), dtype=bool)
    power = x
    while not masks[x, power].all():
        masks[x, power] = True
        power = table[power, x]
    return masks


def _reference_inverses(table, identity):
    rows, cols = np.nonzero(table == identity)
    assert np.array_equal(rows, np.arange(table.shape[0]))  # exactly one inverse each
    return cols


def _mask_key(mask):
    return oracle._member_key(np.flatnonzero(mask))


def _reference_join(table, gens, identity):
    """Member mask of <gens>, one breadth-first search from the identity
    under right multiplication, with no early stop."""
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


def _reference_orbit(table, inverses, mask):
    """(keys of the distinct conjugates, normaliser mask) from all n
    conjugates g H g^-1 and a stabiliser count over every member of H."""
    n = table.shape[0]
    conj = table[table[:, mask], inverses[:, None]]  # row g: g h g^-1 for each member h
    masks = np.zeros((n, n), dtype=bool)
    masks[np.arange(n)[:, None], conj] = True
    return list(dict.fromkeys(_mask_key(row) for row in masks)), mask[conj].all(axis=1)


def _reference_subgroups(group):
    """The slow enumeration: every cyclic subgroup is a seed, and every
    class representative is joined with every seed outside it."""
    table = _table(group.p)
    inverses = _reference_inverses(table, group.identity)
    cyclic = _reference_cyclic_masks(table)
    seeds = {}
    for g, row in enumerate(cyclic):
        seeds.setdefault(_mask_key(row), g)
    found = {}
    worklist = []

    def admit(mask, gens):
        if _mask_key(mask) not in found:
            orbit, _ = _reference_orbit(table, inverses, mask)
            found.update(dict.fromkeys(orbit))
            worklist.append((mask, gens))

    for g in seeds.values():
        admit(cyclic[g], (g,))
    while worklist:
        mask, gens = worklist.pop()
        for g in seeds.values():
            if not mask[g]:
                admit(_reference_join(table, gens + (g,), group.identity), gens + (g,))
    members = [tuple(np.frombuffer(key, dtype=np.int32).tolist()) for key in found]
    return sorted(members, key=lambda m: (len(m), m))


def _class_masks(p):
    """(member mask, members) of every class representative at p."""
    n = _group(p).order
    for cls in _classes(p):
        mask = np.zeros(n, dtype=bool)
        mask[list(cls.representative.members)] = True
        yield mask, cls.representative.members


class TestEnumeration:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_matches_every_seed_every_join(self, p):
        g = _group(p)
        assert [s.members for s in oracle.enumerate_subgroups(g)] == _reference_subgroups(g)

    @pytest.mark.parametrize("p,total", [(3, 10), (5, 59), (7, 179), (11, 620),
                                         (13, 942), (17, 2420), (19, 2912)])
    def test_frozen_totals(self, p, total):
        assert len(oracle.enumerate_subgroups(_group(p))) == total

    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_random_joins_match_reference(self, p):
        g = _group(p)
        table = _table(p)
        rng = np.random.default_rng(p)
        cut = proper = 0
        for size in (0, 1, 1, 2, 2):
            gens = tuple(rng.integers(g.order, size=size).tolist())
            mask = _reference_join(table, gens, g.identity)
            seeds = rng.integers(g.order, size=12)
            joins = oracle._joins(g, mask, gens, seeds)
            for row, seed in zip(joins, seeds.tolist()):
                expected = _reference_join(table, gens + (seed,), g.identity)
                assert np.array_equal(row, expected), (gens, seed)
                cut += expected.all()
                proper += not expected.all()
        assert cut and proper  # both rows stopped at n/2 and rows closed in full

    def test_normal_subgroups_skip_conjugation(self):
        g = _group(7)
        for mask, gens in ((np.arange(g.order) == g.identity, ()),
                           (np.ones(g.order, dtype=bool), g.generators)):
            normaliser = oracle._normaliser(g, mask, gens)
            assert normaliser.all()
            assert oracle._conjugacy_orbit(g, mask, normaliser) == [_mask_key(mask)]

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_coset_orbit_matches_full_orbit(self, p):
        g = _group(p)
        table = _table(p)
        inverses = _reference_inverses(table, g.identity)
        for mask, members in _class_masks(p):
            full, full_normaliser = _reference_orbit(table, inverses, mask)
            normaliser = oracle._normaliser(g, mask, members)
            assert np.array_equal(normaliser, full_normaliser)
            orbit = oracle._conjugacy_orbit(g, mask, normaliser)
            assert len(orbit) == len(full) and set(orbit) == set(full)

    def test_tampered_normaliser_raises(self):
        g = _group(11)
        for mask, members in _class_masks(11):
            normaliser = oracle._normaliser(g, mask, members)
            if normaliser.all():
                continue
            short = normaliser.copy()
            short[np.flatnonzero(normaliser & (np.arange(g.order) != g.identity))[0]] = False
            extra = normaliser.copy()
            extra[np.flatnonzero(~normaliser)[0]] = True
            # a subgroup of N(H) gives the right count but repeats conjugates
            inner = [mask] if np.count_nonzero(normaliser) > len(members) else []
            for tampered in [short, extra, *inner]:
                with pytest.raises(AssertionError):
                    oracle._conjugacy_orbit(g, mask, tampered)

    def test_subgroup_count_p5(self):
        subs = oracle.enumerate_subgroups(_group(5))
        assert len(subs) == 59

    def test_subgroup_orders_p3(self):
        subs = oracle.enumerate_subgroups(_group(3))
        assert sorted({s.order for s in subs}) == [1, 2, 3, 4, 12]

    def test_all_closed_under_multiplication(self):
        g = _group(5)
        table = _table(5)
        for sub in oracle.enumerate_subgroups(g):
            members = np.array(sub.members)
            prods = table[np.ix_(members, members)]
            assert set(prods.ravel().tolist()) <= set(sub.members)

    def test_orders_divide(self):
        g = _group(7)
        for sub in oracle.enumerate_subgroups(g):
            assert g.order % sub.order == 0

    def test_resource_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_SUBGROUPS", 20)
        with pytest.raises(oracle.ResourceLimitError):
            oracle.enumerate_subgroups(_group(7))


class TestClassify:
    def test_class_count_p7(self):
        classes = _classes(7)
        proper = [c for c in classes if 1 < c.representative.order < _group(7).order]
        assert len(classes) == 15
        assert len(proper) == 13

    def test_orbit_stabiliser(self):
        g = _group(7)
        sizes = Counter(sub.class_id for sub in _subgroups(g.p))
        reps = [c.representative for c in _classes(g.p)]
        assert sorted(sizes) == sorted(h.class_id for h in reps)
        for h in reps:
            assert sizes[h.class_id] * h.normaliser_order == g.order

    def test_normaliser_of_metacyclic(self):
        g = _group(5)
        cls = [c for c in _classes(g.p) if c.label == "E5:C2"]
        assert len(cls) == 1
        assert cls[0].representative.normaliser_order == 10  # equals its own order

    def test_p7_self_normalising_multiset(self):
        sn = sorted(
            c.label
            for c in _classes(7)
            if 1 < c.representative.order < _group(7).order
            and c.representative.normaliser_order == c.representative.order
        )
        assert sn == ["D3", "D4", "E7:C3", "S4", "S4"]

    def test_p7_pairs(self):
        labels = [c.label for c in _classes(7) if 1 < c.representative.order < _group(7).order]
        assert labels.count("A4") == 2
        assert labels.count("S4") == 2
        assert labels.count("D2") == 2

    def test_list_missing_a_conjugate_raises(self):
        g = _group(7)
        subs = oracle.enumerate_subgroups(g)
        lost = next(i for i, sub in enumerate(subs) if sub.normaliser_order < g.order)
        with pytest.raises(AssertionError):
            oracle.classify(g, subs[:lost] + subs[lost + 1:])

    def test_d2_classes_not_self_normalising(self):
        for cls in _classes(7):
            if cls.label == "D2":
                assert cls.representative.normaliser_order > cls.representative.order


class TestCensusAgreement:
    @pytest.mark.parametrize("p,quad", [(3, (3, 3, 1, 2)), (5, (7, 7, 3, 4)),
                                        (7, (10, 13, 5, 8)), (11, (12, 14, 6, 8)),
                                        (13, (13, 14, 4, 10))])
    def test_aggregates(self, p, quad):
        cen = oracle.oracle_census(p)
        assert (cen.i, cen.c, cen.s, cen.n) == quad

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 23])
    def test_label_by_label(self, p):
        _assert_label_by_label(p)

    @pytest.mark.slow
    @pytest.mark.parametrize("p", [29, 31, 37, 41, 43, 47, 53, 59, 61])
    def test_label_by_label_opt_in(self, p):
        # the brute-force counts are also the golden row's i, c, s, n
        brute = _assert_label_by_label(p)
        row = next(r for r in invariants.golden_table() if r.p == p)
        assert (brute.i, brute.c, brute.s, brute.n) == (row.i, row.c, row.s, row.n)


def _assert_label_by_label(p):
    formula = invariants.census(p)
    brute = oracle.oracle_census(p)
    fm = {(e.label, e.order, e.num_classes, e.self_normalising) for e in formula.entries}
    bm = {(e.label, e.order, e.num_classes, e.self_normalising) for e in brute.entries}
    assert fm == bm
    return brute
