"""Brute-force group-theoretic checks against the formula-side catalogue."""

import math

import numpy as np
import pytest

from psl2count import invariants, oracle


def _group(p):
    # module-level cache keeps the big builds to one per session
    if p not in _group.cache:
        _group.cache[p] = oracle.build_psl2(p)
    return _group.cache[p]


_group.cache = {}


def _classes(p):
    if p not in _classes.cache:
        g = _group(p)
        _classes.cache[p] = oracle.classify(g, oracle.enumerate_subgroups(g))
    return _classes.cache[p]


_classes.cache = {}


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
        mask = _reference_join(g.table(), g.generators, g.identity)
        assert np.count_nonzero(mask) == g.order
        translations = _reference_join(g.table(), g.generators[:1], g.identity)
        assert np.count_nonzero(translations) == 7
        joins = oracle._joins(g.table(), translations, g.generators[:1], np.array(g.generators[1:]))
        assert joins.tolist() == [mask.tolist()]

    def test_shared_key_raises(self):
        g = _group(5)
        with pytest.raises(AssertionError):
            oracle.PermGroup(5, np.vstack([g.elements, g.elements[:1]]), ())

    def test_element_orders_lagrange(self):
        g = _group(7)
        orders = g.element_orders()
        assert orders[g.identity] == 1
        assert all(g.order % int(o) == 0 for o in orders)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_arrays_match_permutation_arithmetic(self, p):
        g = _group(p)
        perms = g.elements
        table = g.table()
        for i in range(g.order):
            assert np.array_equal(perms[table[i]], perms[i][perms]), i
        assert np.array_equal(perms[g.inverses()], np.argsort(perms, axis=1))
        assert g.element_orders().tolist() == [_cycle_order(row) for row in perms.tolist()]

    def test_cap_and_overrides(self):
        assert _group(19).order == 3420  # the largest group built, with no opt-in
        with pytest.raises(ValueError):
            oracle.build_psl2(23)
        with pytest.raises(ValueError):
            oracle.build_psl2(4)
        with pytest.raises(TypeError):
            oracle.build_psl2(17, allow_large=True)  # the opt-in is gone


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
    return list(dict.fromkeys(oracle._mask_keys(masks))), mask[conj].all(axis=1)


def _reference_subgroups(group):
    """The slow enumeration: every cyclic subgroup is a seed, and every
    class representative is joined with every seed outside it."""
    table, inverses = group.table(), group.inverses()
    cyclic = oracle._cyclic_masks(table)
    seeds = {}
    for g, key in enumerate(oracle._mask_keys(cyclic)):
        seeds.setdefault(key, g)
    found = {}
    worklist = []

    def admit(mask, gens):
        if oracle._mask_key(mask) not in found:
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
    members = [
        tuple(np.flatnonzero(np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=group.order)).tolist())
        for key in found
    ]
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
        table = g.table()
        rng = np.random.default_rng(p)
        cut = proper = 0
        for size in (0, 1, 1, 2, 2):
            gens = tuple(rng.integers(g.order, size=size).tolist())
            mask = _reference_join(table, gens, g.identity)
            seeds = rng.integers(g.order, size=12)
            joins = oracle._joins(table, mask, gens, seeds)
            for row, seed in zip(joins, seeds.tolist()):
                expected = _reference_join(table, gens + (seed,), g.identity)
                assert np.array_equal(row, expected), (gens, seed)
                cut += expected.all()
                proper += not expected.all()
        assert cut and proper  # both rows stopped at n/2 and rows closed in full

    def test_normal_subgroups_skip_conjugation(self):
        g = _group(7)
        table, inverses = g.table(), g.inverses()
        for mask, gens in ((np.arange(g.order) == g.identity, ()),
                           (np.ones(g.order, dtype=bool), g.generators)):
            normaliser = oracle._normaliser(table, inverses, mask, gens)
            assert normaliser.all()
            assert oracle._conjugacy_orbit(table, inverses, mask, normaliser) == [oracle._mask_key(mask)]

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_coset_orbit_matches_full_orbit(self, p):
        g = _group(p)
        table, inverses = g.table(), g.inverses()
        for mask, members in _class_masks(p):
            full, full_normaliser = _reference_orbit(table, inverses, mask)
            normaliser = oracle._normaliser(table, inverses, mask, members)
            assert np.array_equal(normaliser, full_normaliser)
            orbit = oracle._conjugacy_orbit(table, inverses, mask, normaliser)
            assert len(orbit) == len(full) and set(orbit) == set(full)

    def test_tampered_normaliser_raises(self):
        g = _group(11)
        table, inverses = g.table(), g.inverses()
        for mask, members in _class_masks(11):
            normaliser = oracle._normaliser(table, inverses, mask, members)
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
                    oracle._conjugacy_orbit(table, inverses, mask, tampered)

    def test_subgroup_count_p5(self):
        subs = oracle.enumerate_subgroups(_group(5))
        assert len(subs) == 59

    def test_subgroup_orders_p3(self):
        subs = oracle.enumerate_subgroups(_group(3))
        assert sorted({s.order for s in subs}) == [1, 2, 3, 4, 12]

    def test_all_closed_under_multiplication(self):
        g = _group(5)
        table = g.table()
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
        proper = [c for c in classes if not c.excluded_from_census]
        assert len(classes) == 15
        assert len(proper) == 13

    def test_orbit_stabiliser(self):
        g = _group(7)
        for cls in _classes(g.p):
            assert cls.class_size * cls.normaliser_order == g.order

    def test_normaliser_of_metacyclic(self):
        g = _group(5)
        cls = [c for c in _classes(g.p) if c.label == "E5:C2"]
        assert len(cls) == 1
        assert cls[0].normaliser_order == 10  # equals its own order

    def test_p7_self_normalising_multiset(self):
        sn = sorted(
            c.label
            for c in _classes(7)
            if not c.excluded_from_census and c.normaliser_order == c.representative.order
        )
        assert sn == ["D3", "D4", "E7:C3", "S4", "S4"]

    def test_p7_pairs(self):
        labels = [c.label for c in _classes(7) if not c.excluded_from_census]
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
                assert cls.normaliser_order > cls.representative.order


class TestCensusAgreement:
    @pytest.mark.parametrize("p,quad", [(3, (3, 3, 1, 2)), (5, (7, 7, 3, 4)),
                                        (7, (10, 13, 5, 8)), (11, (12, 14, 6, 8)),
                                        (13, (13, 14, 4, 10))])
    def test_aggregates(self, p, quad):
        cen = oracle.oracle_census(p)
        assert (cen.i, cen.c, cen.s, cen.n) == quad

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_label_by_label(self, p):
        formula = invariants.census(p)
        brute = oracle.oracle_census(p)
        fm = {(e.label, e.order, e.num_classes, e.self_normalising) for e in formula.entries}
        bm = {(e.label, e.order, e.num_classes, e.self_normalising) for e in brute.entries}
        assert fm == bm
