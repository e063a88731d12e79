import random
from collections import Counter
from fractions import Fraction

import pytest

from exccover.errors import CapExceeded, NotSeparable, WildCase
from exccover.gf import is_prime, make_field, nth_power_solution_count
from exccover.polyfactor import UPoly, splitting_type, upoly_gcd
from exccover.covers import (
    INFINITY,
    ProjPoint,
    RationalMap,
    audit_rational_map,
    audit_superelliptic,
    make_superelliptic,
    omitted_point_cover,
    points_over_infinity,
    ramified_rational_points,
    splitting_census,
    superelliptic_genus,
    totally_ramified_at_infinity,
)
from exccover.groups import CosetSpec, Perm, PermGroup, cycle_type_histogram


def monomial(field, n):
    return RationalMap(UPoly(field, [0] * n + [1]), UPoly.one(field))


def quintic(field, a, b):
    num = UPoly(field, (0, -field.element(a), 0, 0, 0, 1))
    den = UPoly(field, (-field.element(b), 0, 0, 0, 1))
    return RationalMap(num, den)


def fin(field, v):
    return ProjPoint.finite(field.element(v))


def value_at(f, point):
    """f at a rational point of its base field, by Horner on p and r."""
    if point.is_infinity:
        return INFINITY
    rv = f.den.evaluate(point.x)
    return INFINITY if rv.is_zero() else ProjPoint(f.num.evaluate(point.x) / rv)


def mobius_postcompose(f, a, b, c, d):
    """The map (a f + b) / (c f + d) for an invertible coefficient matrix."""
    a, b, c, d = (f.field.element(v) for v in (a, b, c, d))
    assert not (a * d - b * c).is_zero(), "matrix is singular"
    return RationalMap(f.num * a + f.den * b, f.num * c + f.den * d)


def mobius_precompose(f, a, b, c, d):
    """The map f((a x + b) / (c x + d)) for an invertible matrix."""
    fld = f.field
    a, b, c, d = (fld.element(v) for v in (a, b, c, d))
    assert not (a * d - b * c).is_zero(), "matrix is singular"
    top, bot = UPoly(fld, (b, a)), UPoly(fld, (d, c))

    def substitute(poly):
        acc = UPoly.zero(fld)
        for i, coeff in enumerate(poly.coeffs):
            acc = acc + (top**i) * (bot ** (f.degree - i)) * coeff
        return acc

    return RationalMap(substitute(f.num), substitute(f.den))


def odd_prime_powers_upto(limit):
    out = []
    for p in range(3, limit + 1, 2):
        if not is_prime(p):
            continue
        q = p
        k = 1
        while q <= limit:
            out.append((p, k, q))
            q *= p
            k += 1
    return out


# ---------------------------------------------------------------------------
# Rational map mechanics.


def test_eval_examples():
    F17 = make_field(17)
    f = quintic(F17, 10, 3)
    assert value_at(f, fin(F17, 0)) == fin(F17, 0)
    assert value_at(f, INFINITY) == INFINITY
    # the denominator has no rational zero: fourth powers mod 17 omit 3
    fourth_powers = {pow(v, 4, 17) for v in range(1, 17)}
    assert 3 not in fourth_powers
    assert all(not f.den.evaluate(x).is_zero() for x in F17.elements())


def test_normalization_reciprocal():
    F7 = make_field(7)
    f = RationalMap(UPoly.one(F7), UPoly.x(F7))  # 1/x
    assert f.normalization == ("reciprocal", None)
    assert f.num.degree > f.den.degree
    assert value_at(f, INFINITY) == INFINITY


def test_normalization_equal_degrees():
    F7 = make_field(7)
    f = RationalMap(UPoly(F7, (1, 3)), UPoly(F7, (2, 1)))  # (3x+1)/(x+2)
    kind, v = f.normalization
    assert kind == "reciprocal_shift" and v.to_int() == 3
    assert f.num.degree > f.den.degree


def test_common_factor_reduced():
    F5 = make_field(5)
    x = UPoly.x(F5)
    f = RationalMap((x + 1) * (x**2), (x + 1) * UPoly.one(F5))
    assert f.degree == 2 and f.den.degree == 0


def test_inseparable_rejected():
    F5 = make_field(5)
    with pytest.raises(NotSeparable):
        monomial(F5, 5)  # x^5 = Frobenius over F_5


def test_audit_square_map():
    F5 = make_field(5)
    audit = audit_rational_map(monomial(F5, 2), 1)
    assert not audit.injective and not audit.surjective and not audit.bijective
    assert audit.fiber_size(fin(F5, 0)) == 1
    assert audit.fiber_size(fin(F5, 1)) == 2
    assert audit.fiber_size(fin(F5, 2)) == 0
    assert audit.fiber_size(INFINITY) == 1
    assert audit.histogram() == {0: 2, 1: 2, 2: 2}


def test_audit_quintics_bijective():
    for q, a, b in ((17, 10, 3), (29, 13, 4)):
        F = make_field(q)
        audit = audit_rational_map(quintic(F, a, b), 1)
        assert audit.bijective


def test_fiber_mass_invariant():
    rng = random.Random(17)
    for q, n in ((5, 2), (7, 3), (13, 5), (9, 2)):
        p = 3 if q == 9 else q
        k = 2 if q == 9 else 1
        F = make_field(p, k)
        if n % F.p == 0:
            continue
        f = monomial(F, n)
        for m in (1, 2):
            audit = audit_rational_map(f, m)
            assert sum(audit.fibers.values()) == F.order**m + 1


def test_audit_cap():
    F13 = make_field(13)
    with pytest.raises(CapExceeded):
        audit_rational_map(monomial(F13, 2), 3, cap=100)


# ---------------------------------------------------------------------------
# Branch loci.


def test_branch_classical_examples():
    F5 = make_field(5)
    br = ramified_rational_points(monomial(F5, 2), 1)
    assert br.points == frozenset({fin(F5, 0), INFINITY})
    assert br.bound == 2
    F7 = make_field(7)
    br7 = ramified_rational_points(monomial(F7, 3), 1)
    assert br7.points == frozenset({fin(F7, 0), INFINITY})


def test_branch_quintic_within_bound():
    F17 = make_field(17)
    br = ramified_rational_points(quintic(F17, 10, 3), 1)
    assert len(br.points) <= 8 and br.bound == 8


def test_branch_point_with_irrational_critical_points():
    # f = (x^2 - 2)^2 over F_5: the critical points +-sqrt(2) live in
    # F_25, yet their image 0 is rational and must be reported
    F5 = make_field(5)
    x = UPoly.x(F5)
    f = RationalMap((x**2 - 2) ** 2, UPoly.one(F5))
    br = ramified_rational_points(f, 1)
    assert fin(F5, 0) in br.points
    # oracle: t is a branch point iff p - t is not squarefree
    from exccover.polyfactor import upoly_gcd

    expected = {INFINITY}  # total ramification index 4 at infinity
    for t in F5.elements():
        phi = f.num - UPoly(F5, (t,))
        if upoly_gcd(phi, phi.derivative()).degree > 0:
            expected.add(ProjPoint.finite(t))
    assert br.points == frozenset(expected)


def test_branch_agrees_with_fiber_squarefree_oracle():
    rng = random.Random(23)
    F11 = make_field(11)
    from exccover.polyfactor import upoly_gcd

    for _ in range(15):
        num = UPoly(F11, [F11.from_int(rng.randrange(11)) for _ in range(4)]
                    + [F11.one()])
        den = UPoly(F11, [F11.from_int(rng.randrange(11)), F11.one()])
        try:
            f = RationalMap(num, den)
        except NotSeparable:
            continue
        br = ramified_rational_points(f, 1)
        expected = set()
        for t in F11.elements():
            phi = f.num - f.den * t
            if phi.degree != f.degree or \
                    upoly_gcd(phi, phi.derivative()).degree > 0:
                expected.add(ProjPoint.finite(t))
        e_inf = f.degree - f.den.degree
        if e_inf > 1 or upoly_gcd(f.den, f.den.derivative()).degree > 0:
            expected.add(INFINITY)
        assert br.points == frozenset(expected)


# ---------------------------------------------------------------------------
# Census.


def test_census_cube_over_f7():
    F7 = make_field(7)
    census = splitting_census(monomial(F7, 3), 1)
    assert census.histogram == {(1, 1, 1): 2, (3,): 4}
    assert census.branch_points == frozenset({fin(F7, 0), INFINITY})


def test_census_square_over_f5():
    F5 = make_field(5)
    census = splitting_census(monomial(F5, 2), 1)
    assert census.histogram == {(1, 1): 2, (2,): 2}
    # over F_25 the squares are the index-two subgroup, so the census
    # splits evenly across the 24 non-branch points
    census2 = splitting_census(monomial(F5, 2), 2)
    assert census2.histogram == {(1, 1): 12, (2,): 12}
    assert census2.total() == 24


def test_census_mass_invariant():
    for q_spec, n, m in (((5, 1), 2, 1), ((5, 1), 2, 2), ((7, 1), 3, 1),
                         ((13, 1), 5, 1), ((3, 2), 2, 1)):
        F = make_field(*q_spec)
        f = monomial(F, n)
        census = splitting_census(f, m)
        assert census.total() + len(census.branch_points) == F.order**m + 1


def test_census_includes_place_at_infinity():
    # (x^5-10x)/(x^4-3) over F_17 has empty branch locus; the fiber over
    # infinity contributes the factor degrees of the denominator plus a
    # degree-one place
    F17 = make_field(17)
    f = quintic(F17, 10, 3)
    census = splitting_census(f, 1)
    assert census.branch_points == frozenset()
    assert census.total() == 18


def test_census_matches_cyclic_prediction():
    # x^n with all n-th roots of unity rational: the census frequencies
    # equal the cycle-type frequencies of the regular cyclic group
    for q, n in ((5, 2), (7, 3)):
        F = make_field(q)
        census = splitting_census(monomial(F, n), 1)
        total = census.total()
        C = PermGroup(n, [Perm.from_cycles(n, [tuple(range(n))])])
        spec = CosetSpec(C, C, Perm.identity(n))
        prediction = cycle_type_histogram(spec)
        observed = {t: Fraction(c, total) for t, c in census.histogram.items()}
        assert observed == prediction


def _census_by_factoring(f, m):
    """Oracle: the census with every fiber factored, branch points found
    as the t whose fiber polynomial is not squarefree of degree n."""
    from exccover.gf import extension

    ext, emb = extension(f.field, m)
    fe = f.over(emb)
    hist, branch = {}, set()
    for t in ext.elements():
        phi = fe.num - fe.den * t
        if phi.degree != f.degree or upoly_gcd(phi, phi.derivative()).degree > 0:
            branch.add(ProjPoint.finite(t))
            continue
        st = splitting_type(phi)
        hist[st] = hist.get(st, 0) + 1
    if (f.degree - f.den.degree > 1
            or upoly_gcd(fe.den, fe.den.derivative()).degree > 0):
        branch.add(INFINITY)
    else:
        st = tuple(sorted((splitting_type(fe.den) if fe.den.degree > 0 else ())
                          + (f.degree - f.den.degree,)))
        hist[st] = hist.get(st, 0) + 1
    return hist, frozenset(branch)


def test_census_matches_factoring_every_fiber():
    # fiber types come from the fiber sizes where n - a_1 <= 3; degree 6
    # also reaches the factoring fallback for fibers with roots
    rng = random.Random(47)
    fallback_with_roots = beyond_prime_field = 0
    for p, k in ((5, 1), (7, 1), (2, 2), (3, 2)):
        F = make_field(p, k)
        for n in range(2, 7):
            while True:
                num = UPoly(F, [F.from_int(rng.randrange(F.order))
                                for _ in range(n)] + [1])
                den = UPoly(F, [F.from_int(rng.randrange(F.order))
                                for _ in range(rng.randrange(n))] + [1])
                try:
                    f = RationalMap(num, den)
                except NotSeparable:
                    continue
                if f.degree == n:
                    break
            beyond_prime_field += any(c.to_int() >= p
                                      for c in num.coeffs + den.coeffs)
            for m in (1, 2):
                census = splitting_census(f, m)
                hist, branch = _census_by_factoring(f, m)
                assert census.histogram == hist, (p, k, n, m)
                assert census.branch_points == branch
                fallback_with_roots += sum(
                    c for t, c in hist.items() if 0 < t.count(1) <= n - 4)
    assert fallback_with_roots > 0 and beyond_prime_field >= 8


def _random_map(rng, F, n):
    """A separable map of degree n: a random monic numerator over a random
    monic denominator of degree below n."""
    def coeffs(d):
        return [F.from_int(rng.randrange(F.order)) for _ in range(d)] + [1]

    while True:
        try:
            f = RationalMap(UPoly(F, coeffs(n)), UPoly(F, coeffs(rng.randrange(n))))
        except NotSeparable:
            continue
        if f.degree == n:
            return f


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2), (2, 2), (2, 3)])
def test_census_by_discriminant_matches_factoring(p, k):
    # odd characteristic tells rootless rests of degree 4 and 5 apart by
    # the discriminant's square class, characteristic 2 factors them; maps
    # with poles, n up to 7 and p | n
    rng = random.Random(1962 * p + k)
    F = make_field(p, k)
    rests = Counter()
    for n in range(4, 8):
        f = _random_map(rng, F, n)
        for m in (1, 2):
            census = splitting_census(f, m)
            hist, branch = _census_by_factoring(f, m)
            assert census.histogram == hist, (n, m)
            assert census.branch_points == branch, (n, m)
            for st, c in hist.items():
                rests[tuple(d for d in st if d > 1)] += c
    assert all(rests[r] for r in ((4,), (2, 2), (5,), (2, 3))), rests


# ---------------------------------------------------------------------------
# Superelliptic covers.


def test_superelliptic_genus_examples():
    F13 = make_field(13)
    cover = omitted_point_cover(F13, 3, 8, 1)
    assert cover.genus == 10
    F7 = make_field(7)
    x = UPoly.x(F7)
    assert superelliptic_genus(2, x**3 + x) == 1
    assert superelliptic_genus(2, x**5 - x) == 2


def test_superelliptic_genus_formula_sweep():
    # the family genus equals (n-1)(q-3)/2 for every valid (q, n), q <= 31
    for p, k, q in odd_prime_powers_upto(31):
        F = make_field(p, k)
        half = (q - 1) // 2
        for n in range(2, half + 1):
            if half % n != 0 or n % p == 0:
                continue
            cover = omitted_point_cover(F, n, 1, 1)
            assert cover.genus == (n - 1) * (q - 3) // 2, (q, n)


def test_superelliptic_wild_case():
    F3 = make_field(3)
    x = UPoly.x(F3)
    with pytest.raises(WildCase):
        superelliptic_genus(3, x**2 + 1)


def test_omitted_point_cover_validation():
    F13 = make_field(13)
    with pytest.raises(ValueError):
        omitted_point_cover(F13, 4, 1, 1)   # 4 does not divide 6
    with pytest.raises(ValueError):
        omitted_point_cover(F13, 3, 2, 1)   # 2 is not a cube mod 13
    with pytest.raises(ValueError):
        omitted_point_cover(F13, 3, 8, 0)


def test_omitted_point_cover_split_fibers():
    F13 = make_field(13)
    cover = omitted_point_cover(F13, 3, 8, 1)
    a_inv = F13.element(8).inverse()
    assert cover.h.evaluate(F13.zero()) == a_inv
    assert cover.h.evaluate(F13.element(8)) == -a_inv
    audit = audit_superelliptic(cover, 1)
    assert audit.surjective and not audit.injective
    assert audit.fiber_size(fin(F13, 0)) == 3
    assert audit.fiber_size(fin(F13, 8)) == 3
    # every other rational point, infinity included, is totally ramified
    for t in F13.elements():
        if t.to_int() in (0, 8):
            continue
        assert audit.fiber_size(ProjPoint.finite(t)) == 1
    assert audit.fiber_size(INFINITY) == 1
    assert totally_ramified_at_infinity(cover)


def test_omitted_point_cover_nonresidue_twist():
    F13 = make_field(13)
    cover = omitted_point_cover(F13, 3, 8, 2)  # 2 is not a cube mod 13
    audit = audit_superelliptic(cover, 1)
    assert audit.injective and not audit.surjective
    assert audit.fiber_size(fin(F13, 0)) == 0
    assert audit.fiber_size(fin(F13, 8)) == 0


def test_points_over_infinity_matches_place_count():
    # unramified case: n | deg h makes all places above infinity
    # unramified, with rationality decided by an n-th power condition
    F13 = make_field(13)
    x = UPoly.x(F13)
    h = x**6 + x + 1
    assert upoly_gcd_is_one(h)
    cover = make_superelliptic(3, F13.one(), h)
    assert points_over_infinity(cover) == nth_power_solution_count(F13.one(), 3)


def upoly_gcd_is_one(h):
    from exccover.polyfactor import upoly_gcd

    return upoly_gcd(h, h.derivative()).degree == 0


def test_superelliptic_fiber_mass():
    F13 = make_field(13)
    cover = omitted_point_cover(F13, 3, 8, 1)
    for m in (1, 2):
        audit = audit_superelliptic(cover, m)
        assert audit.base_order == 13**m
        # mass equals the number of rational points of the smooth model
        assert sum(audit.fibers.values()) >= 0


def test_mobius_composition_preserves_bijectivity():
    F17 = make_field(17)
    f = quintic(F17, 10, 3)
    g = mobius_postcompose(f, 2, 1, 0, 1)
    h = mobius_precompose(f, 1, 3, 0, 1)
    assert audit_rational_map(g, 1).bijective
    assert audit_rational_map(h, 1).bijective
    assert g.degree == f.degree and h.degree == f.degree
