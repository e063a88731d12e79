import random
from dataclasses import replace
from math import gcd

import pytest

from exccover.cli import bpoly_to_str
from exccover.errors import CapExceeded, NotSeparable, PreconditionFailed
from exccover.gf import is_prime, make_field
from exccover.polyfactor import BPoly, UPoly, bpoly_div_exact
from exccover.covers import (
    INFINITY,
    ProjPoint,
    RationalMap,
    audit_rational_map,
)
from exccover.excep import (
    decide_exceptional,
    factor_points,
    fiber_product_poly,
    is_ramified_at,
    monomial_map,
    quintic_pair_map,
    quintic_twist_map,
    validate_diagonal_bound,
    validate_intersection_property,
)
from test_covers import mobius_postcompose, mobius_precompose, value_at


def prime_powers_upto(limit):
    out = []
    for p in range(2, limit + 1):
        if not is_prime(p):
            continue
        q = p
        k = 1
        while q <= limit:
            out.append((p, k, q))
            q *= p
            k += 1
    return out


def swap_vars(F):
    """Oracle: F with the roles of x and y exchanged."""
    nx, ny = F.deg_x + 1, F.deg_y + 1
    return BPoly(F.field, [
        UPoly(F.field, [F.coefficient(i, j) for j in range(ny)])
        for i in range(nx)
    ])


def eval_proj(F, P, Q):
    """Oracle: the bihomogenization of F at a pair of projective points,
    whose zero set is the closure of the affine curve in P^1 x P^1."""
    dx, dy = F.deg_x, F.deg_y
    if not P.is_infinity and not Q.is_infinity:
        return F.evaluate(P.x, Q.x)
    if P.is_infinity and Q.is_infinity:
        return F.coefficient(dx, dy)
    if P.is_infinity:
        # only the x-leading terms survive
        return UPoly(F.field, [F.coefficient(dx, j) for j in range(dy + 1)]
                     ).evaluate(Q.x)
    return UPoly(F.field, [F.coefficient(i, dy) for i in range(dx + 1)]
                 ).evaluate(P.x)


def fin(field, v):
    return ProjPoint.finite(field.element(v))


# ---------------------------------------------------------------------------
# Fiber-product polynomial.


def test_fiber_product_square():
    F5 = make_field(5)
    phi = fiber_product_poly(monomial_map(F5, 2))
    # x + y
    assert phi.deg_x == 1 and phi.deg_y == 1
    assert phi.coefficient(1, 0).to_int() == 1
    assert phi.coefficient(0, 1).to_int() == 1
    assert phi.coefficient(0, 0).is_zero()


def test_fiber_product_cube_is_geometric_series():
    F7 = make_field(7)
    phi = fiber_product_poly(monomial_map(F7, 3))
    expected = BPoly.from_grid(F7, [
        [F7.element(v) for v in row] for row in ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    ])
    assert phi == expected


def test_fiber_product_reconstructs_numerator_difference():
    # Phi * (x - y) = p(x) r(y) - p(y) r(x), checked on the twist map
    F13 = make_field(13)
    f = quintic_twist_map(F13)  # (x^5 - 8x)/(x^4 - 2) with i = 5, b = 2
    assert [c.to_int() for c in f.num.coeffs] == [0, 5, 0, 0, 0, 1]
    assert [c.to_int() for c in f.den.coeffs] == [11, 0, 0, 0, 1]
    phi = fiber_product_poly(f)
    assert phi.deg_x == 4 and phi.deg_y == 4
    x_minus_y = BPoly(F13, [UPoly.x(F13), UPoly(F13, (-F13.one(),))])
    lhs = phi * x_minus_y
    p, r = f.num, f.den
    rhs = BPoly(F13, [p * r.coefficient(j) - r * p.coefficient(j)
                      for j in range(f.degree + 1)])
    assert lhs == rhs


def test_fiber_product_symmetry_and_degree():
    rng = random.Random(6)
    F11 = make_field(11)
    for _ in range(10):
        num = UPoly(F11, [F11.from_int(rng.randrange(11)) for _ in range(4)]
                    + [F11.one()])
        den = UPoly(F11, [F11.from_int(rng.randrange(11)), F11.one()])
        try:
            f = RationalMap(num, den)
        except (NotSeparable, ValueError):
            continue
        phi = fiber_product_poly(f)
        assert phi.deg_x == f.degree - 1
        assert phi.deg_y == f.degree - 1
        assert swap_vars(phi) == phi


def test_fiber_product_rejects_inseparable():
    F3 = make_field(3)
    num = UPoly(F3, [0, 0, 0, 1])  # x^3 over F_3 is the Frobenius
    with pytest.raises(NotSeparable):
        RationalMap(num, UPoly.one(F3))


# ---------------------------------------------------------------------------
# Exceptionality decisions.


def test_cube_exceptional_over_f5():
    F5 = make_field(5)
    rep = decide_exceptional(monomial_map(F5, 3))
    assert rep.exceptional
    assert rep.component_definition_lcm == 2
    assert len(rep.factors) == 1
    assert rep.factors[0].components == 2
    assert rep.factors[0].affine_points == 1  # only the origin


def test_cube_not_exceptional_over_f7():
    F7 = make_field(7)
    rep = decide_exceptional(monomial_map(F7, 3))
    assert not rep.exceptional
    assert len(rep.factors) == 2
    assert all(row.absolutely_irreducible for row in rep.factors)


def test_quintic_pair_not_exceptional():
    F17 = make_field(17)
    rep = decide_exceptional(quintic_pair_map(F17, 10, 3))
    assert not rep.exceptional
    assert any(row.absolutely_irreducible for row in rep.factors)


def test_quintic_twist_exceptional():
    F13 = make_field(13)
    rep = decide_exceptional(quintic_twist_map(F13, 5, 2))
    assert rep.exceptional
    assert rep.component_definition_lcm > 1


def test_quintic_twist_needs_a_nonzero_nonsquare_b():
    F13 = make_field(13)
    # the square b = 4 gives a map that is not exceptional, and b = 0
    # collapses it to x; both are refused, as i = 2 is
    for b in (0, 4):
        with pytest.raises(ValueError):
            quintic_twist_map(F13, 5, b)
    with pytest.raises(ValueError):
        quintic_twist_map(F13, 2, 2)
    f, default = quintic_twist_map(F13, 5, 2), quintic_twist_map(F13)
    assert (f.num, f.den) == (default.num, default.den)


def test_report_factors_reconstruct_fiber_product():
    for f in (monomial_map(make_field(5), 3),
              quintic_pair_map(make_field(17), 10, 3),
              quintic_twist_map(make_field(13))):
        rep = decide_exceptional(f)
        prod = BPoly.one(f.field)
        for row in rep.factors:
            prod = prod * row.poly**row.multiplicity
        # the product matches the fiber-product polynomial up to a unit
        quot = bpoly_div_exact(rep.phi, prod)
        assert quot is not None and quot.total_degree == 0


def test_verdict_stable_under_mobius_twists():
    rng = random.Random(14)
    cases = [
        (monomial_map(make_field(5), 3), True),
        (monomial_map(make_field(7), 3), False),
        (quintic_pair_map(make_field(17), 10, 3), False),
        (quintic_twist_map(make_field(13)), True),
    ]
    for f, expected in cases:
        base = decide_exceptional(f)
        assert base.exceptional == expected
        q = f.field.order
        for _ in range(3):
            while True:
                a, b, c, d = (rng.randrange(q) for _ in range(4))
                det = (f.field.element(a) * f.field.element(d)
                       - f.field.element(b) * f.field.element(c))
                if not det.is_zero():
                    break
            twisted = mobius_postcompose(f, a, b, c, d)
            rep = decide_exceptional(twisted)
            assert rep.exceptional == expected
            assert rep.component_definition_lcm == base.component_definition_lcm
            twisted2 = mobius_precompose(f, a, b, c, d)
            rep2 = decide_exceptional(twisted2)
            assert rep2.exceptional == expected
            assert rep2.component_definition_lcm == base.component_definition_lcm


def test_monomial_law():
    # x^n is exceptional over F_q exactly when gcd(n, q^m - 1) = 1 for
    # some m; both sides computed independently
    for n in range(2, 8):
        for p, k, q in prime_powers_upto(31):
            if n % p == 0:
                continue
            F = make_field(p, k)
            rep = decide_exceptional(monomial_map(F, n))
            arithmetic_side = any(gcd(n, q**m - 1) == 1 for m in range(1, 7))
            assert rep.exceptional == arithmetic_side, (n, q)


def test_exceptional_implies_bijective_monomials():
    for n in range(2, 8):
        for p, k, q in prime_powers_upto(31):
            if n % p == 0:
                continue
            F = make_field(p, k)
            rep = decide_exceptional(monomial_map(F, n))
            if not rep.exceptional:
                continue
            for m in (1, 2, 3):
                if gcd(m, rep.component_definition_lcm) != 1:
                    continue
                if q**m > 2**22:
                    continue
                audit = audit_rational_map(monomial_map(F, n), m)
                assert audit.bijective, (n, q, m)


def test_not_exceptional_above_refined_threshold_not_injective():
    # the refined injectivity threshold for degree 3 and genus 0 is
    # sqrt(q) > 3, i.e. q >= 10; non-exceptional cubic power maps over
    # larger fields must fail injectivity
    for q in (13, 31, 43):
        F = make_field(q)
        rep = decide_exceptional(monomial_map(F, 3))
        if rep.exceptional:
            continue
        audit = audit_rational_map(monomial_map(F, 3), 1)
        assert not audit.injective, q
    # degree 2: threshold sqrt(q) > 1 holds for every field; the square
    # map is never exceptional over odd q, hence never injective
    for q in (5, 9, 29):
        p = 3 if q == 9 else q
        k = 2 if q == 9 else 1
        F = make_field(p, k)
        rep = decide_exceptional(monomial_map(F, 2))
        assert not rep.exceptional
        assert not audit_rational_map(monomial_map(F, 2), 1).injective


# ---------------------------------------------------------------------------
# Structural validators.


def _grid(q):
    """Every pair of P^1 x P^1 as factor_points rows, code q for infinity."""
    return [(P, range(q + 1)) for P in range(q + 1)]


def test_intersection_property_examples():
    F5 = make_field(5)
    rep = decide_exceptional(monomial_map(F5, 2))
    assert validate_intersection_property(rep) == []
    F7 = make_field(7)
    rep7 = decide_exceptional(monomial_map(F7, 3))
    # (0, 0) lies on both lines and the map ramifies at 0
    assert validate_intersection_property(rep7) == []
    F17 = make_field(17)
    rep17 = decide_exceptional(quintic_pair_map(F17, 10, 3))
    assert validate_intersection_property(rep17) == []


def test_intersection_property_reports_unramified_meetings():
    # x^3 over F_7 ramifies only at 0 and infinity.  Stand-in factors:
    # the lines y = 1, x = 2 and x + y = 0.  The last one also passes
    # through (0, 0) and (infinity, infinity), where the map ramifies,
    # so those two points raise nothing.
    F7 = make_field(7)
    rep = decide_exceptional(monomial_map(F7, 3))
    lines = (
        BPoly(F7, [UPoly(F7, (-F7.one(),)), UPoly.one(F7)]),   # y - 1
        BPoly(F7, [UPoly(F7, (-2, 1))]),                             # x - 2
        BPoly(F7, [UPoly.x(F7), UPoly.one(F7)]),                     # x + y
    )
    rows = tuple(replace(rep.factors[0], poly=G,
                         points=tuple(factor_points(G, _grid(7))))
                 for G in lines)
    violations = validate_intersection_property(replace(rep, factors=rows))
    assert [(P.x.to_int(), Q.x.to_int()) for P, Q in
            (v.point_pair for v in violations)] == [
        (1, 1), (2, 1), (2, 2), (2, 5), (6, 1)]
    assert all(v.detail == "intersection point with an unramified coordinate"
               for v in violations)


def _dickson(field, n, a):
    # D_0 = 2, D_1 = x, D_n = x D_{n-1} - a D_{n-2}
    a = field.element(a)
    prev, cur = UPoly(field, (2,)), UPoly.x(field)
    for _ in range(n - 1):
        prev, cur = cur, cur * UPoly.x(field) - prev * a
    return cur


def _map_with_poles(field, n, rng):
    """A seeded separable map of degree n whose denominator has a
    rational root."""
    while True:
        num = UPoly(field, [rng.randrange(field.order) for _ in range(n)] + [1])
        den = UPoly(field, (rng.randrange(field.order), 1)) * UPoly(
            field, [rng.randrange(field.order) for _ in range(n - 2)] + [1])
        try:
            f = RationalMap(num, den)
        except NotSeparable:
            continue
        if f.degree == n and f.den.degree == n - 1:
            return f


def test_same_fiber_points_match_the_full_grid():
    # decide_exceptional enumerates each factor's points on the pairs
    # with f(P) = f(Q) only; the full grid of P^1 x P^1 must give the
    # same points in the same order, and every one lies in one fiber
    rng = random.Random(31)
    maps = [monomial_map(make_field(p, k), n)
            for (p, k), n in (((5, 1), 3), ((7, 1), 3), ((2, 2), 3),
                              ((3, 2), 4), ((13, 1), 4), ((2, 3), 5))]
    for (p, k), n, a in (((7, 1), 3, 1), ((7, 1), 5, 2), ((3, 2), 4, 1),
                         ((11, 1), 5, 3)):
        F = make_field(p, k)
        maps.append(RationalMap(_dickson(F, n, a), UPoly.one(F)))
    for p, k in ((5, 1), (7, 1), (11, 1), (2, 2), (3, 2), (2, 3)):
        F = make_field(p, k)
        for n in (3, 4, 5):
            maps.append(_map_with_poles(F, n, rng))
    pole_meets_infinity = 0
    for f in maps:
        rep = decide_exceptional(f)
        for row in rep.factors:
            grid = tuple(factor_points(row.poly, _grid(f.field.order)))
            assert row.points == grid, (f.num, f.den, row.poly)
            assert all(value_at(f, P) == value_at(f, Q) for P, Q in grid)
            pole_meets_infinity += sum(
                1 for P, Q in grid if Q.is_infinity and not P.is_infinity)
    # the fiber over infinity holds the poles and infinity itself
    assert pole_meets_infinity >= 10


def test_is_ramified_at():
    F7 = make_field(7)
    f = monomial_map(F7, 3)
    assert is_ramified_at(f, fin(F7, 0))
    assert not is_ramified_at(f, fin(F7, 1))
    assert is_ramified_at(f, INFINITY)


def test_diagonal_bound_examples():
    F5 = make_field(5)
    cube = monomial_map(F5, 3)
    rep = decide_exceptional(cube)
    audit = audit_rational_map(cube, 1)
    assert audit.injective
    assert validate_diagonal_bound(rep, audit) == []
    # the conic factor meets the product line at the origin and at the
    # doubly-infinite point, staying within the bound of 4
    count = len(rep.factors[0].points)
    assert count == 2
    # independent oracle: scan the four charts directly
    pts = 0
    G = rep.factors[0].poly
    allp = [ProjPoint.finite(x) for x in F5.elements()] + [INFINITY]
    for P in allp:
        for Q in allp:
            if eval_proj(G, P, Q).is_zero():
                pts += 1
    assert pts == count


def test_diagonal_bound_quintic():
    F17 = make_field(17)
    f = quintic_pair_map(F17, 10, 3)
    rep = decide_exceptional(f)
    audit = audit_rational_map(f, 1)
    assert validate_diagonal_bound(rep, audit) == []


def test_factor_points_and_validators_need_q_within_the_enumeration_cap():
    F5 = make_field(5)
    cube = monomial_map(F5, 3)
    audit = audit_rational_map(cube, 1)
    assert audit.injective
    within = decide_exceptional(cube, cap=5)
    assert [row.affine_points for row in within.factors] == [1]
    rep = decide_exceptional(cube, cap=4)
    assert rep.exceptional == within.exceptional
    assert [(row.points, row.affine_points) for row in rep.factors] == [
        (None, None)]
    with pytest.raises(CapExceeded):
        validate_intersection_property(rep)
    with pytest.raises(CapExceeded):
        validate_diagonal_bound(rep, audit)


def test_diagonal_bound_requires_injectivity():
    F5 = make_field(5)
    sq = monomial_map(F5, 2)
    rep = decide_exceptional(sq)
    audit = audit_rational_map(sq, 1)
    with pytest.raises(PreconditionFailed):
        validate_diagonal_bound(rep, audit)


def test_quintic_twist_family_defaults():
    # smallest fourth root of unity and smallest nonsquare per field
    expected = {13: (5, 2), 17: (4, 3), 29: (12, 2)}
    for q, (i, b) in expected.items():
        F = make_field(q)
        f = quintic_twist_map(F)
        g = quintic_twist_map(F, i, b)
        assert f.num == g.num and f.den == g.den


def test_characteristic_two_above_the_table_bound():
    # F_{2^13} computes in the polynomial basis; the audit and the verdict
    # of an additive map and of the Dickson polynomial D_5(x, 1), which
    # is exceptional as gcd(5, 2^26 - 1) = 1, are pinned
    F = make_field(2, 13)
    one = UPoly(F, (1,))
    cases = [((0, 1, 1), {0: 4096, 1: 1, 2: 4096}, False, 1,
              [("y+x+1", 1, 1, 8193)]),
             ((0, 1, 0, 1, 0, 1), {1: 8193}, True, 2,
              [("y^4+x*y^3+x^2*y^2+x^3*y+x^4+y^2+x*y+x^2+1", 1, 2, 1)])]
    for coeffs, histogram, exceptional, lcm_k, rows in cases:
        f = RationalMap(UPoly(F, coeffs), one)
        audit = audit_rational_map(f, 1)
        assert audit.histogram() == histogram
        assert audit.bijective == exceptional
        report = decide_exceptional(f)
        assert report.exceptional == exceptional
        assert report.component_definition_lcm == lcm_k
        assert [(bpoly_to_str(row.poly), row.multiplicity, row.components,
                 len(row.points)) for row in report.factors] == rows
