import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from exccover import groups
from exccover.errors import CapExceeded, NotSubgroup, NotTransitive
from exccover.groups import (
    CosetSpec,
    Perm,
    PermGroup,
    _bits,
    _join,
    _symmetric_table,
    all_subgroups_symmetric,
    coset_order,
    cycle_type_histogram,
    cyclic_quotient_chains,
    exceptionality_conditions,
    fixed_point_identity,
)


def C(n):
    return PermGroup(n, [Perm.from_cycles(n, [tuple(range(n))])])


def S3():
    return PermGroup.symmetric(3)


def A3():
    return PermGroup(3, [Perm.from_cycles(3, [(0, 1, 2)])])


def test_perm_basics():
    p = Perm.from_cycles(5, [(0, 1, 2), (3, 4)])
    assert p(0) == 1 and p(2) == 0 and p(3) == 4
    assert p.cycle_type() == (2, 3)
    assert (p * p.inverse()).is_identity()
    assert repr(Perm.identity(4)) == "()"
    with pytest.raises(ValueError):
        Perm((0, 0, 1))
    with pytest.raises(ValueError):
        Perm.from_cycles(3, [(0, 1), (1, 2)])


def test_perm_is_its_image_tuple():
    with pytest.raises(ValueError):
        Perm([0, 0])
    p = Perm((1, 0, 2))
    assert p == (1, 0, 2) and hash(p) == hash((1, 0, 2))
    with pytest.raises(TypeError):
        p * 2
    with pytest.raises(TypeError):
        2 * p


def test_groups_hold_one_permutation_type():
    # tuples and Perms compare equal, so the oracles above cannot tell a
    # stray plain tuple from a Perm
    G = PermGroup(5, [Perm.from_cycles(5, [(0, 1, 2, 3, 4)]),
                      Perm.from_cycles(5, [(0, 1)])])
    assert G.order == 120 and all(type(x) is Perm for x in G.elements)
    for n in range(1, 6):
        for H in all_subgroups_symmetric(n):
            assert all(type(x) is Perm for x in H.elements)
            assert all(type(x) is Perm for x in H.generators)
    for n in (1, 2, 3, 4):
        for A, H, reps in cyclic_quotient_chains(n):
            assert all(type(a) is Perm for a in reps)
            for a in reps:
                assert all(type(x) is Perm
                           for x in CosetSpec(A, H, a).qualifying_reps())


def test_composition_applies_right_factor_first():
    sigma = Perm.from_cycles(3, [(0, 1)])
    tau = Perm.from_cycles(3, [(1, 2)])
    assert (sigma * tau)(2) == sigma(tau(2)) == 0


def test_group_closure_and_cap():
    assert S3().order == 6
    assert A3().order == 3
    assert PermGroup.symmetric(5).order == 120
    with pytest.raises(CapExceeded):
        PermGroup.symmetric(9)


def test_orbits():
    g = PermGroup(2, [Perm.from_cycles(2, [(0, 1)])])
    assert g.orbits("points") == [frozenset({0, 1})]
    h = PermGroup(4, [Perm.from_cycles(4, [(0, 1), (2, 3)])])
    assert sorted(map(sorted, h.orbits("points"))) == [[0, 1], [2, 3]]
    pair_orbits = S3().orbits("ordered_pairs")
    assert len(pair_orbits) == 2  # diagonal and off-diagonal, by 2-transitivity
    sizes = sorted(len(o) for o in pair_orbits)
    assert sizes == [3, 6]


def test_orbits_of_the_trivial_group_build_one_identity(monkeypatch):
    G = PermGroup(300, ())
    built = []
    identity = Perm.identity

    def counting(cls, deg):
        built.append(deg)
        return identity(deg)

    monkeypatch.setattr(Perm, "identity", classmethod(counting))
    orbits = G.orbits("ordered_pairs")
    assert len(built) <= 1
    assert len(orbits) == 90_000 and all(len(o) == 1 for o in orbits)
    assert set().union(*orbits) == {(s, t) for s in range(300)
                                     for t in range(300)}


def test_orbits_repeat_as_equal_fresh_lists():
    for action in ("points", "ordered_pairs"):
        G = S3()
        first = G.orbits(action)
        assert G.orbits(action) == first
        first.append(frozenset({"junk"}))
        first.pop(0)
        again = G.orbits(action)
        assert again != first and again == G.orbits(action)
        assert sorted(map(len, again)) == ([3] if action == "points"
                                           else [3, 6])
    with pytest.raises(ValueError):
        S3().orbits("unordered_pairs")


def test_normality_and_quotient():
    assert A3().is_normal_in(S3())
    H = PermGroup(3, [Perm.from_cycles(3, [(0, 1)])])
    assert not H.is_normal_in(S3())
    # a coset whose order is the index generates the quotient: A/G is cyclic
    index = S3().order // A3().order
    assert coset_order(S3(), A3(), Perm.from_cycles(3, [(0, 1)])) == index == 2


def test_coset_spec_validation():
    with pytest.raises(NotSubgroup):
        CosetSpec(S3(), PermGroup(3, [Perm.from_cycles(3, [(0, 1)])]),
                  Perm.identity(3))
    with pytest.raises(ValueError):
        CosetSpec(S3(), A3(), Perm.identity(3))  # identity coset misses A/G


def test_fixed_point_identity_examples():
    spec = CosetSpec(S3(), A3(), Perm.from_cycles(3, [(0, 1)]))
    assert fixed_point_identity(spec, "points") == (1, Fraction(1))
    assert fixed_point_identity(spec, "ordered_pairs") == (1, Fraction(1))
    spec4 = CosetSpec(C(4), C(4), Perm.identity(4))
    assert fixed_point_identity(spec4, "points") == (1, Fraction(1))


def test_exceptionality_conditions_examples():
    add1 = Perm(tuple((s + 1) % 5 for s in range(5)))
    mul2 = Perm(tuple((2 * s) % 5 for s in range(5)))
    AGL = PermGroup(5, [add1, mul2])
    translations = PermGroup(5, [add1])
    assert AGL.order == 20
    cond = exceptionality_conditions(CosetSpec(AGL, translations, mul2))
    assert cond.agree and cond.diagonal_only_common_orbit

    cond3 = exceptionality_conditions(CosetSpec(C(3), C(3), Perm.identity(3)))
    assert cond3.agree and not cond3.diagonal_only_common_orbit

    cond_s3 = exceptionality_conditions(
        CosetSpec(S3(), A3(), Perm.from_cycles(3, [(0, 1)])))
    assert cond_s3.agree and cond_s3.diagonal_only_common_orbit


def test_exceptionality_conditions_requires_transitive():
    G2 = PermGroup(3, [Perm.from_cycles(3, [(0, 1)])])
    A = PermGroup(3, [Perm.from_cycles(3, [(0, 1)])])
    with pytest.raises(NotTransitive):
        exceptionality_conditions(CosetSpec(A, G2, Perm.identity(3)))


def test_common_orbit_count_examples():
    # fixed_point_identity's left side counts the ambient orbits on points
    # that are single normal-subgroup orbits
    swap = Perm.from_cycles(3, [(0, 1)])
    D = PermGroup(3, [swap])
    trivial3 = PermGroup(3, [])
    # only the fixed point 2
    assert fixed_point_identity(CosetSpec(D, trivial3, swap)) == (1, 1)
    # every orbit is common
    assert fixed_point_identity(CosetSpec(D, D, Perm.identity(3))) == (2, 2)
    swaps = Perm.from_cycles(4, [(0, 1), (2, 3)])
    D4 = PermGroup(4, [swaps])
    assert fixed_point_identity(CosetSpec(D4, PermGroup(4, []), swaps)) == (0, 0)


def test_cycle_type_histogram_examples():
    spec = CosetSpec(C(3), C(3), Perm.identity(3))
    assert cycle_type_histogram(spec) == {(1, 1, 1): Fraction(1, 3),
                                          (3,): Fraction(2, 3)}
    spec2 = CosetSpec(C(2), C(2), Perm.identity(2))
    assert cycle_type_histogram(spec2) == {(1, 1): Fraction(1, 2),
                                           (2,): Fraction(1, 2)}
    spec3 = CosetSpec(S3(), A3(), Perm.from_cycles(3, [(0, 1)]))
    assert cycle_type_histogram(spec3) == {(1, 2): Fraction(1)}


def test_subgroup_catalog_counts():
    assert len(all_subgroups_symmetric(1)) == 1
    assert len(all_subgroups_symmetric(2)) == 2
    assert len(all_subgroups_symmetric(3)) == 6
    assert len(all_subgroups_symmetric(4)) == 30


def test_catalog_members_are_subgroups():
    for G in all_subgroups_symmetric(4):
        elems = G.elements
        assert Perm.identity(4) in elems
        for a in elems:
            assert a.inverse() in elems
        # closure spot check on the generators
        for a in G.generators:
            for b in G.generators:
                assert a * b in elems


def test_identity_holds_exhaustively_small_degrees():
    for n in (2, 3, 4):
        for A, G, reps in cyclic_quotient_chains(n):
            for a in reps:
                spec = CosetSpec(A, G, a)
                for action in ("points", "ordered_pairs"):
                    lhs, rhs = fixed_point_identity(spec, action)
                    assert lhs == rhs, (n, A, G, a, action)


def test_conditions_agree_exhaustively_small_degrees():
    for n in (2, 3, 4):
        for A, G, reps in cyclic_quotient_chains(n):
            if not G.is_transitive():
                continue
            for a in reps:
                cond = exceptionality_conditions(CosetSpec(A, G, a))
                assert cond.agree, (n, A, G, a)


# ---------------------------------------------------------------------------
# The table-driven catalog against plain closure over Perm products.


def _closure_catalog(n):
    """Element sets of every subgroup of S_n, sorted as the catalog sorts
    them, found by joining each known subgroup with each element outside
    it through PermGroup closure."""
    elements = sorted(PermGroup.symmetric(n).elements, key=tuple)
    trivial = PermGroup(n, ())
    known = {trivial.elements}
    frontier = [trivial]
    while frontier:
        new = []
        for H in frontier:
            for g in elements:
                if g not in H:
                    K = PermGroup(n, H.generators + (g,))
                    if K.elements not in known:
                        known.add(K.elements)
                        new.append(K)
        frontier = new
    return sorted((sorted(tuple(p) for p in E) for E in known),
                  key=lambda images: (len(images), images))


def _closure_chains(n, subgroups):
    """cyclic_quotient_chains by Perm products, as element image lists."""
    out = []
    for A in subgroups:
        for G in subgroups:
            if not G.is_normal_in(A):
                continue
            reps, seen = [], set()
            for a in sorted(A.elements, key=tuple):
                coset = frozenset(a * g for g in G.elements)
                if coset not in seen:
                    seen.add(coset)
                    if coset_order(A, G, a) == A.order // G.order:
                        reps.append(tuple(a))
            if reps:
                out.append((A.order, G.order, reps))
    return out


def test_catalog_order_histogram_s5():
    hist = {}
    for G in all_subgroups_symmetric(5):
        hist[G.order] = hist.get(G.order, 0) + 1
    assert sum(hist.values()) == 156
    assert hist == {1: 1, 2: 25, 3: 10, 4: 35, 5: 6, 6: 30, 8: 15, 10: 6,
                    12: 15, 20: 6, 24: 5, 60: 1, 120: 1}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_catalog_matches_closure_oracle(n):
    subgroups = all_subgroups_symmetric(n)
    assert [sorted(tuple(p) for p in G.elements)
            for G in subgroups] == _closure_catalog(n)
    assert [(A.order, G.order, [tuple(a) for a in reps])
            for A, G, reps in cyclic_quotient_chains(n)] \
        == _closure_chains(n, subgroups)


def test_catalog_generators_regenerate_each_group():
    for n in range(1, 6):
        for G in all_subgroups_symmetric(n):
            assert PermGroup(n, G.generators) == G


def test_catalog_closed_under_conjugation():
    for n in range(2, 6):
        catalog = {G.elements for G in all_subgroups_symmetric(n)}
        for s in PermGroup.symmetric(n).generators:
            s_inv = s.inverse()
            for E in catalog:
                assert frozenset(s * g * s_inv for g in E) in catalog


def _join_catalog(n):
    """Element image lists of every subgroup of S_n, sorted as the catalog
    sorts them, found by joining every subgroup found, not one per
    conjugacy class, with one generator of every cyclic subgroup it does
    not contain, until no join is new."""
    perms, _, mul = _symmetric_table(n)
    cyclic = {}
    for g in range(len(perms)):
        mask, power = 1, g
        while power:
            mask |= 1 << power
            power = mul[power][g]
        cyclic.setdefault(mask, g)
    known = {1: ()}
    frontier = [1]
    while frontier:
        new = []
        for H in frontier:
            for C, g in cyclic.items():
                if C & ~H:
                    gens = known[H] + (g,)
                    K = _join(H, gens, mul)
                    if K not in known:
                        known[K] = gens
                        new.append(K)
        frontier = new
    return sorted(([tuple(perms[i]) for i in _bits(K)] for K in known),
                  key=lambda images: (len(images), images))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_catalog_matches_join_every_subgroup_oracle(n):
    # test_catalog_generators_regenerate_each_group checks the generators
    assert [sorted(tuple(p) for p in G.elements)
            for G in all_subgroups_symmetric(n)] == _join_catalog(n)


def _conjugacy_classes(n, catalog):
    """Orbits of the element sets in ``catalog`` under conjugation by the
    generators of S_n; fails unless the catalog is closed under it."""
    gens = [(s, s.inverse()) for s in PermGroup.symmetric(n).generators]
    seen, classes = set(), 0
    for E in catalog:
        if E in seen:
            continue
        classes += 1
        seen.add(E)
        orbit = [E]
        for D in orbit:
            for s, s_inv in gens:
                F = frozenset(s * g * s_inv for g in D)
                assert F in catalog
                if F not in seen:
                    seen.add(F)
                    orbit.append(F)
    return classes


def test_catalog_of_s6_and_conjugacy_class_counts():
    # OEIS A000638: conjugacy classes of subgroups of S_n
    counts = []
    for n in range(1, 7):
        catalog = [G.elements for G in all_subgroups_symmetric(n)]
        assert len(set(catalog)) == len(catalog)
        counts.append(_conjugacy_classes(n, set(catalog)))
    assert len(catalog) == 1455
    assert counts == [1, 2, 4, 11, 19, 56]


def test_catalog_extends_one_subgroup_per_conjugacy_class(monkeypatch):
    # every class but that of S_n itself, which contains every cyclic
    # subgroup, is joined from exactly one of its subgroups
    extended = set()

    def spy(H, gens, mul):
        extended.add(H)
        return _join(H, gens, mul)

    monkeypatch.setattr(groups, "_join", spy)
    for n, classes in enumerate([1, 2, 4, 11, 19], start=1):
        extended.clear()
        all_subgroups_symmetric.cache_clear()
        all_subgroups_symmetric(n)
        assert len(extended) == classes - 1


def test_catalog_refuses_table_over_enumeration_cap():
    # (7!)^2 table entries exceed the default cap 2^22; nothing is built
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        all_subgroups_symmetric(7)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# Dimino's closure against breadth-first closure, and the cached coset
# walk against per-element Perm products.


def _bfs_closure(deg, generators):
    """Image tuples of the group generated, by breadth-first closure."""
    images = [tuple(g) for g in generators]
    elements = {tuple(range(deg))}
    frontier = [g for g in images if g not in elements]
    elements.update(frontier)
    while frontier:
        new = []
        for a in frontier:
            for g in images:
                c = tuple([g[s] for s in a])
                if c not in elements:
                    elements.add(c)
                    new.append(c)
        frontier = new
    return elements


def _closure_cases():
    cases = [(deg, []) for deg in range(1, 4)]
    cases += [(1, [Perm.identity(1)] * 2), (2, [Perm.identity(2)]),
              (2, [Perm.from_cycles(2, [(0, 1)])] * 3),
              (4, [Perm.identity(4), Perm.from_cycles(4, [(0, 1, 2)])] * 2)]
    # the generating sets the benchmark's S_7 and A_7 specs use
    cases.append((7, [Perm.from_cycles(7, [(0, 1)]),
                      Perm.from_cycles(7, [tuple(range(7))])]))
    cases.append((7, [Perm.from_cycles(7, [(0, 1, k)]) for k in range(2, 7)]))
    rng = random.Random(23)
    for deg in range(1, 8):
        for _ in range(12):
            gens = []
            for _ in range(rng.randrange(4)):
                images = list(range(deg))
                rng.shuffle(images)
                gens.append(Perm(images))
            cases.append((deg, gens))
    return cases


@pytest.mark.parametrize("deg,gens", _closure_cases())
def test_closure_matches_breadth_first_oracle(deg, gens):
    G = PermGroup(deg, gens)
    assert {tuple(p) for p in G.elements} == _bfs_closure(deg, gens)
    assert G.generators == tuple(gens)


def _coset_oracle(A, G, a):
    """(fixed-point sums on points and pairs, cycle-type counts,
    qualifying elements and their fixed-point counts), element by
    element from Perm products."""
    coset = [a * g for g in G.elements]
    fixes = [len(x.fixed_points()) for x in coset]
    types = Counter(x.cycle_type() for x in coset)
    index = A.order // G.order
    qualifying = {x for x in A.elements if coset_order(A, G, x) == index}
    return (sum(fixes), sum(f * f for f in fixes), types, qualifying,
            [len(x.fixed_points()) for x in qualifying])


def _pair_orbit(group, s, t):
    return frozenset((g(s), g(t)) for g in group.elements)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coset_walk_matches_perm_product_oracle(n):
    for A, G, reps in cyclic_quotient_chains(n):
        transitive = G.is_transitive()
        # condition 1 from orbits of all elements, not of generators
        diagonal_only = all(_pair_orbit(A, s, t) != _pair_orbit(G, s, t)
                            for s in range(n) for t in range(n) if s != t)
        for a in reps:
            spec = CosetSpec(A, G, a)
            points, pairs, types, qualifying, fixes = _coset_oracle(A, G, a)
            assert fixed_point_identity(spec, "points")[1] \
                == Fraction(points, G.order)
            assert fixed_point_identity(spec, "ordered_pairs")[1] \
                == Fraction(pairs, G.order)
            assert cycle_type_histogram(spec) == {
                ct: Fraction(c, G.order) for ct, c in types.items()}
            assert set(spec.qualifying_reps()) == qualifying
            if transitive:
                cond = exceptionality_conditions(spec)
                assert (cond.diagonal_only_common_orbit,
                        cond.all_unique_fixed_point, cond.all_at_most_one,
                        cond.all_at_least_one) == (
                    diagonal_only, all(f == 1 for f in fixes),
                    all(f <= 1 for f in fixes), all(f >= 1 for f in fixes))
