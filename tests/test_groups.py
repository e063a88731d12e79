import time
from fractions import Fraction

import pytest

from exccover.config import Config
from exccover.errors import CapExceeded, NotSubgroup, NotTransitive
from exccover.groups import (
    CosetSpec,
    Perm,
    PermGroup,
    all_subgroups_symmetric,
    common_orbit_count,
    coset_order,
    cycle_type_histogram,
    cyclic_quotient_chains,
    exceptionality_conditions,
    fixed_point_identity,
    quotient_is_cyclic,
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


def test_composition_applies_right_factor_first():
    sigma = Perm.from_cycles(3, [(0, 1)])
    tau = Perm.from_cycles(3, [(1, 2)])
    assert (sigma * tau)(2) == sigma(tau(2)) == 0


def test_group_closure_and_cap():
    assert S3().order == 6
    assert A3().order == 3
    assert PermGroup.symmetric(5).order == 120
    with pytest.raises(CapExceeded):
        PermGroup.symmetric(8, Config(group_cap=1000))


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


def test_normality_and_quotient():
    assert A3().is_normal_in(S3())
    H = PermGroup(3, [Perm.from_cycles(3, [(0, 1)])])
    assert not H.is_normal_in(S3())
    assert quotient_is_cyclic(S3(), A3())
    assert coset_order(S3(), A3(), Perm.from_cycles(3, [(0, 1)])) == 2


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
    assert cond.agree and cond.holds

    cond3 = exceptionality_conditions(CosetSpec(C(3), C(3), Perm.identity(3)))
    assert cond3.agree and not cond3.holds

    cond_s3 = exceptionality_conditions(
        CosetSpec(S3(), A3(), Perm.from_cycles(3, [(0, 1)])))
    assert cond_s3.agree and cond_s3.holds


def test_exceptionality_conditions_requires_transitive():
    G2 = PermGroup(3, [Perm.from_cycles(3, [(0, 1)])])
    A = PermGroup(3, [Perm.from_cycles(3, [(0, 1)])])
    with pytest.raises(NotTransitive):
        exceptionality_conditions(CosetSpec(A, G2, Perm.identity(3)))


def test_common_orbit_count_examples():
    D = PermGroup(3, [Perm.from_cycles(3, [(0, 1)])])
    trivial3 = PermGroup(3, [])
    assert common_orbit_count(D, trivial3, 3) == 1  # only the fixed point 2
    assert common_orbit_count(D, D, 3) == 2         # every orbit is common
    D4 = PermGroup(4, [Perm.from_cycles(4, [(0, 1), (2, 3)])])
    trivial4 = PermGroup(4, [])
    assert common_orbit_count(D4, trivial4, 4) == 0
    with pytest.raises(NotSubgroup):
        common_orbit_count(trivial3, D, 3)


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
    elements = sorted(PermGroup.symmetric(n).elements, key=lambda p: p.images)
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
    return sorted((sorted(p.images for p in E) for E in known),
                  key=lambda images: (len(images), images))


def _closure_chains(n, subgroups):
    """cyclic_quotient_chains by Perm products, as element image lists."""
    out = []
    for A in subgroups:
        for G in subgroups:
            if not G.is_normal_in(A):
                continue
            reps, seen = [], set()
            for a in sorted(A.elements, key=lambda p: p.images):
                coset = frozenset(a * g for g in G.elements)
                if coset not in seen:
                    seen.add(coset)
                    if coset_order(A, G, a) == A.order // G.order:
                        reps.append(a.images)
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
    assert [sorted(p.images for p in G.elements)
            for G in subgroups] == _closure_catalog(n)
    assert [(A.order, G.order, [a.images for a in reps])
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


def test_catalog_refuses_table_over_enumeration_cap():
    # (7!)^2 table entries exceed the default cap 2^22; nothing is built
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        all_subgroups_symmetric(7)
    assert time.perf_counter() - start < 1.0
