import itertools
import random
import time
from math import gcd

import pytest

from exccover import polyfactor
from exccover.config import Config
from exccover.covers import RationalMap
from exccover.errors import (
    DegreeCapExceeded,
    MixedFields,
    NotSeparable,
    NotSquarefree,
)
from exccover.excep import (
    fiber_product_poly,
    monomial_map,
    quintic_pair_map,
    quintic_twist_map,
)
from exccover.gf import extension, is_prime, make_field, power
from exccover.polyfactor import (
    BPoly,
    UPoly,
    absolute_component_count,
    bgcd,
    bpoly_div_exact,
    content_y,
    factor_bivariate,
    factor_univariate,
    geometric_components,
    is_irreducible,
    pow_mod,
    roots,
    splitting_type,
    squarefree_decomposition,
    upoly_ext_gcd,
    upoly_gcd,
)


def upoly(field, *coeffs):
    return UPoly(field, coeffs)


def rand_upoly(field, max_deg, rng, nonzero=True):
    while True:
        f = UPoly(field, [field.from_int(rng.randrange(field.order))
                          for _ in range(rng.randrange(0, max_deg + 2))])
        if not nonzero or not f.is_zero():
            return f


def rand_bpoly(field, dx, dy, rng):
    rows = [[field.from_int(rng.randrange(field.order)) for _ in range(dy + 1)]
            for _ in range(dx + 1)]
    return BPoly.from_grid(field, rows)


def small_fields(limit):
    out = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        q = p
        k = 1
        while q <= limit:
            out.append((p, k))
            q *= p
            k += 1
    return out


# ---------------------------------------------------------------------------
# Univariate.


def test_gcd_examples():
    F7 = make_field(7)
    f = upoly(F7, -1, 0, 1)          # x^2 - 1
    g = upoly(F7, 1, -2, 1)          # x^2 - 2x + 1
    assert upoly_gcd(f, g) == upoly(F7, -1, 1)  # x - 1
    h = upoly(F7, 3, 0, 2)
    assert upoly_gcd(h, UPoly.zero(F7)) == h.monic()
    F17 = make_field(17)
    num = upoly(F17, 0, -10, 0, 0, 0, 1)
    den = upoly(F17, -3, 0, 0, 0, 1)
    assert upoly_gcd(num, den) == UPoly.one(F17)


def test_gcd_mixed_fields():
    with pytest.raises(MixedFields):
        upoly_gcd(UPoly.one(make_field(5)), UPoly.one(make_field(7)))


def test_ext_gcd_identity():
    rng = random.Random(3)
    F9 = make_field(3, 2)
    for _ in range(30):
        f = rand_upoly(F9, 5, rng)
        g = rand_upoly(F9, 5, rng)
        d, s, t = upoly_ext_gcd(f, g)
        assert s * f + t * g == d
        assert d == upoly_gcd(f, g)


def test_divmod_random():
    rng = random.Random(4)
    for p, k in ((5, 1), (2, 2), (3, 2)):
        F = make_field(p, k)
        for _ in range(40):
            f = rand_upoly(F, 7, rng, nonzero=False)
            g = rand_upoly(F, 4, rng)
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.is_zero() or r.degree < g.degree


def test_factor_univariate_examples():
    F5 = make_field(5)
    cert = factor_univariate(upoly(F5, 1, 0, 1))  # x^2 + 1
    got = sorted(tuple(c.to_int() for c in g.coeffs) for g, _ in cert.factors)
    assert got == [(2, 1), (3, 1)]  # (x + 2)(x + 3)
    assert len(factor_univariate(upoly(F5, 1, 1, 1)).factors) == 1
    F7 = make_field(7)
    cert7 = factor_univariate(upoly(F7, -2, 0, 0, 1))  # x^3 - 2
    assert len(cert7.factors) == 1 and cert7.factors[0][0].degree == 3


def test_factor_univariate_roundtrip_random():
    rng = random.Random(99)
    for p, k in small_fields(49):
        F = make_field(p, k)
        for _ in range(20):
            f = rand_upoly(F, 6, rng)
            g = rand_upoly(F, 6, rng)
            cert = factor_univariate(f * g)
            assert cert.product() == f * g
            assert cert.recheck()


def test_factor_deterministic_across_runs():
    F49 = make_field(7, 2)
    rng = random.Random(1)
    f = rand_upoly(F49, 8, rng) * rand_upoly(F49, 8, rng)
    c1 = factor_univariate(f)
    c2 = factor_univariate(f)
    assert c1.factors == c2.factors
    c3 = factor_univariate(f, Config(seed=999))
    assert {g for g, _ in c1.factors} == {g for g, _ in c3.factors}


def test_low_degree_irreducibles_have_no_root():
    rng = random.Random(12)
    for p, k in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2)):
        F = make_field(p, k)
        for _ in range(15):
            f = rand_upoly(F, 6, rng)
            for g, _ in factor_univariate(f).factors:
                if g.degree <= 3 and g.degree > 1:
                    assert not any(g.evaluate(x).is_zero() for x in F.elements())


def test_squarefree_decomposition_char_p():
    F3 = make_field(3)
    x = UPoly.x(F3)
    f = (x + 1) ** 3 * (x**2 + 1) ** 2 * x
    parts = squarefree_decomposition(f)
    rebuilt = UPoly.one(F3)
    for g, e in parts:
        rebuilt = rebuilt * g**e
    assert rebuilt == f.monic()
    mults = sorted(e for _, e in parts)
    assert mults == [1, 2, 3]
    # pure p-th power
    g = (x**2 + x + 2) ** 3
    parts = squarefree_decomposition(g)
    assert parts == [(upoly(F3, 2, 1, 1), 3)]


def test_roots_sorted_and_complete():
    F13 = make_field(13)
    f = UPoly.from_roots(F13, [F13.element(v) for v in (2, 5, 5, 11)])
    assert [r.to_int() for r in roots(f)] == [2, 5, 11]
    F4 = make_field(2, 2)
    x = UPoly.x(F4)
    full = x ** 4 - x  # splits over F_4
    assert len(roots(full)) == 4


def test_pow_mod_agrees_with_naive():
    F5 = make_field(5)
    f = upoly(F5, 1, 2, 0, 1)
    m = upoly(F5, 2, 0, 1)
    assert pow_mod(f, 7, m) == (f**7) % m


def test_is_irreducible():
    F2 = make_field(2)
    assert is_irreducible(upoly(F2, 1, 1, 0, 1))       # x^3 + x + 1
    assert not is_irreducible(upoly(F2, 1, 0, 0, 1))   # x^3 + 1
    F25 = make_field(5, 2)
    cert = factor_univariate(UPoly.x(F25) ** 6 + F25.from_int(7))
    for g, _ in cert.factors:
        assert is_irreducible(g)


def test_splitting_type_matches_full_factorization():
    rng = random.Random(8)
    for p, k in ((5, 1), (7, 1), (3, 2)):
        F = make_field(p, k)
        for _ in range(25):
            f = rand_upoly(F, 6, rng)
            sq = upoly_gcd(f, f.derivative())
            if sq.degree != 0 or f.degree < 1:
                continue
            degs = sorted(g.degree for g, _ in factor_univariate(f).factors)
            assert splitting_type(f) == tuple(degs)


# Every nonzero polynomial of degree <= d over F_{p^k}, non-monic and
# non-squarefree ones included: (p, k, d).
_UNIVARIATE_SWEEP = ((2, 1, 6), (3, 1, 5), (5, 1, 3), (2, 2, 3), (3, 2, 2))


def _all_upolys(F, d):
    for cs in itertools.product(range(F.order), repeat=d + 1):
        if any(cs):
            yield UPoly(F, [F.from_int(c) for c in cs])


def _has_proper_factor(f):
    # a reducible f has a monic factor of degree at most deg f / 2
    F = f.field
    for m in range(1, f.degree // 2 + 1):
        for cs in itertools.product(range(F.order), repeat=m):
            if (f % UPoly(F, [F.from_int(c) for c in cs] + [1])).is_zero():
                return True
    return False


@pytest.mark.parametrize("p, k, d", _UNIVARIATE_SWEEP)
def test_is_irreducible_and_roots_match_trial_division(p, k, d):
    F = make_field(p, k)
    for f in _all_upolys(F, d):
        expect = f.degree >= 1 and not _has_proper_factor(f)
        assert is_irreducible(f) == expect, f
        zeros = [x.to_int() for x in F.elements() if f.evaluate(x).is_zero()]
        assert [r.to_int() for r in roots(f)] == zeros, f


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize("p, k, d", [s for s in _UNIVARIATE_SWEEP if s[1] == 1])
def test_is_irreducible_and_roots_match_sympy(p, k, d):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    F = make_field(p)
    for f in _all_upolys(F, d):
        if f.degree < 1:
            continue
        P = sympy.Poly([c.to_int() for c in reversed(f.coeffs)], x, modulus=p)
        assert is_irreducible(f) == P.is_irreducible, f
        # the root of a linear factor a x + b is -b / a
        theirs = sorted((-int(b) * pow(int(a), -1, p)) % p
                        for g, _ in P.factor_list()[1] if g.degree() == 1
                        for a, b in [g.all_coeffs()])
        assert [r.to_int() for r in roots(f)] == theirs, f


def test_is_irreducible_stops_at_the_first_part(monkeypatch):
    # Ben-Or's early exit: a root shows at d = 1, after one Frobenius step;
    # an irreducible quintic takes the steps d = 1 and 2 before the walk
    # ends at d = 3 > 5 / 2
    calls = []
    real = polyfactor.pow_mod

    def counting(base, e, mod):
        calls.append(mod.degree)
        return real(base, e, mod)

    monkeypatch.setattr(polyfactor, "pow_mod", counting)
    F5 = make_field(5)
    x = UPoly.x(F5)
    quintic = x**5 - x - 1  # Artin-Schreier, irreducible over F_5
    assert is_irreducible(quintic)
    assert calls == [5, 5]
    calls.clear()
    assert not is_irreducible((x - 2) * quintic)
    assert calls == [6]


# ---------------------------------------------------------------------------
# Bivariate.


def biv(field, grid):
    return BPoly.from_grid(field, [[field.element(v) for v in row] for row in grid])


def conic(field):
    # x^2 + x y + y^2
    return biv(field, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_factor_bivariate_examples():
    F7 = make_field(7)
    cert = factor_bivariate(conic(F7))
    assert len(cert.factors) == 2
    assert cert.product() == conic(F7)
    F5 = make_field(5)
    cert5 = factor_bivariate(conic(F5))
    assert len(cert5.factors) == 1 and cert5.factors[0][1] == 1
    # x + y is irreducible
    line = biv(F5, [[0, 1], [1, 0]])
    certl = factor_bivariate(line)
    assert len(certl.factors) == 1 and certl.factors[0][0].total_degree == 1


def test_factor_bivariate_degree_cap():
    F2 = make_field(2)
    big = BPoly.from_y_poly(UPoly.x(F2) ** 17 + UPoly.one(F2))
    with pytest.raises(DegreeCapExceeded):
        factor_bivariate(big)
    factor_bivariate(big, Config(bivariate_degree_cap=17))


def test_factor_bivariate_roundtrip_random():
    rng = random.Random(21)
    for p, k in ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)):
        F = make_field(p, k)
        for _ in range(20):
            f = rand_bpoly(F, rng.randrange(0, 3), rng.randrange(0, 3), rng)
            g = rand_bpoly(F, rng.randrange(0, 3), rng.randrange(0, 3), rng)
            fg = f * g
            if fg.is_zero():
                continue
            cert = factor_bivariate(fg)
            assert cert.product() == fg


def test_factor_bivariate_inseparable_cases():
    F2 = make_field(2)
    F3 = make_field(3)
    x2, y2 = BPoly.from_x_poly(UPoly.x(F2)), BPoly.from_y_poly(UPoly.x(F2))
    x3, y3 = BPoly.from_x_poly(UPoly.x(F3)), BPoly.from_y_poly(UPoly.x(F3))
    cases = [
        y2**2 + x2,                    # irreducible despite zero y-derivative
        (y2 + x2) ** 2,
        (y2**2 + x2) * (y2 + x2**2),
        y3**3 - x3,
        (y3**3 - x3) * (y3 - x3) ** 3,
        (y2**2 + y2 + x2**3) * (y2**2 + x2),
    ]
    for F_ in cases:
        cert = factor_bivariate(F_)
        assert cert.product() == F_
        assert cert.recheck()


def test_bivariate_gcd():
    F5 = make_field(5)
    x = BPoly.from_x_poly(UPoly.x(F5))
    y = BPoly.from_y_poly(UPoly.x(F5))
    a = (x + y) * (x + 2 * y)
    b = (x + y) * (y**2 + x)
    g = bgcd(a, b)
    assert bpoly_div_exact(a, g) is not None
    assert bpoly_div_exact(b, g) is not None
    assert g.total_degree == 1
    assert bgcd(a, BPoly.zero(F5)) == a.canonical()


def test_content_and_exact_division():
    F3 = make_field(3)
    x = UPoly.x(F3)
    c = x**2 + 1
    F_ = BPoly(F3, [c * (x + 1), c, c * 2])
    assert content_y(F_) == c.monic()
    quo = bpoly_div_exact(F_, BPoly.from_x_poly(c))
    assert quo is not None and content_y(quo).degree == 0
    assert bpoly_div_exact(F_, BPoly.from_x_poly(x + 2)) is None


# ---------------------------------------------------------------------------
# The dense core shared by UPoly and BPoly, against grid arithmetic that
# uses only field-element operations.


def _cell(rows, i, j, F):
    return rows[i][j] if i < len(rows) and j < len(rows[i]) else F.zero()


def _grid_add(a, b, F, neg=False):
    nx = max(len(a), len(b))
    ny = max((len(r) for r in a + b), default=0)
    return [[_cell(a, i, j, F) - _cell(b, i, j, F) if neg
             else _cell(a, i, j, F) + _cell(b, i, j, F)
             for j in range(ny)] for i in range(nx)]


def _grid_mul(a, b, F):
    nx = len(a) + len(b)
    ny = max((len(r) for r in a), default=0) + max((len(r) for r in b), default=0)
    out = [[F.zero()] * ny for _ in range(nx)]
    for i1, r1 in enumerate(a):
        for j1, c1 in enumerate(r1):
            for i2, r2 in enumerate(b):
                for j2, c2 in enumerate(r2):
                    out[i1 + i2][j1 + j2] = out[i1 + i2][j1 + j2] + c1 * c2
    return out


def test_dense_core_matches_grid_arithmetic():
    rng = random.Random(4)
    for p, k in ((5, 1), (3, 2), (13, 1)):
        F = make_field(p, k)

        def rand_grid():
            return [[F.from_int(rng.randrange(F.order))
                     for _ in range(rng.randrange(0, 4))]
                    for _ in range(rng.randrange(0, 4))]

        for _ in range(12):
            a, b = rand_grid(), rand_grid()
            A, B = BPoly.from_grid(F, a), BPoly.from_grid(F, b)
            zero = [[F.zero()]]
            assert A + B == BPoly.from_grid(F, _grid_add(a, b, F))
            assert A - B == BPoly.from_grid(F, _grid_add(a, b, F, neg=True))
            assert -A == BPoly.from_grid(F, _grid_add(zero, a, F, neg=True))
            assert A * B == BPoly.from_grid(F, _grid_mul(a, b, F))
            cube = _grid_mul(_grid_mul(a, a, F), a, F)
            assert A**3 == BPoly.from_grid(F, cube)
            assert A**0 == BPoly.one(F)
            # mixed operands lift into F_q[x][y]
            u = rand_upoly(F, 3, rng, nonzero=False)
            col = [[c] for c in u.coeffs]
            assert A + u == u + A == BPoly.from_grid(F, _grid_add(a, col, F))
            assert u - A == BPoly.from_grid(F, _grid_add(col, a, F, neg=True))
            assert u * A == A * u == BPoly.from_grid(F, _grid_mul(col, a, F))
            c = F.from_int(rng.randrange(F.order))
            assert A * c == c * A == BPoly.from_grid(F, _grid_mul([[c]], a, F))
            three = [[F.element(3)]]
            assert A * 3 == 3 * A == BPoly.from_grid(F, _grid_mul(three, a, F))
            assert A + 1 == BPoly.from_grid(F, _grid_add(a, [[F.one()]], F))


def test_dense_core_edges():
    F5 = make_field(5)
    x = UPoly.x(F5)
    cs = (1, 2)
    assert UPoly(F5, cs) != BPoly(F5, [cs])
    assert BPoly(F5, [cs]) != UPoly(F5, cs)
    assert UPoly(F5, cs) != BPoly.from_y_poly(UPoly(F5, cs))
    # a divisor free of y that fails on one middle y-coefficient
    g = x + 1
    divisible = BPoly(F5, [g * x, g, g * (x**2 + 2)])
    assert bpoly_div_exact(divisible, BPoly.from_x_poly(g)) == \
        BPoly(F5, [x, UPoly.one(F5), x**2 + 2])
    stuck = BPoly(F5, [g * x, x**2 + 1, g * (x**2 + 2)])
    assert bpoly_div_exact(stuck, BPoly.from_x_poly(g)) is None
    f, h = x + 3, x**3 + x
    q, r = divmod(f, h)
    assert q.is_zero() and r == f
    one = object()
    assert power(x, 0, one, None) is one
    assert power(3, 1000, 1, lambda s, t: s * t % 101) == pow(3, 1000, 101)


# ---------------------------------------------------------------------------
# Exhaustive divisor oracle: a claimed irreducible factor of small shape
# has no nontrivial divisor at all.  Independent of the Hensel route.


def _all_shapes(a, b):
    # a divisor pair splits the y-degree, so some divisor has y-degree
    # at most b // 2; primitives have no pure-x divisors
    return [(aa, bb) for aa in range(a + 1) for bb in range(1, b // 2 + 1)]


def _oracle_has_divisor(g, budget=80_000):
    field = g.field
    q = field.order
    a, b = g.deg_x, g.deg_y
    if b >= 1 and content_y(g).degree > 0:
        return True  # non-primitive: the content divides
    if b <= 1:
        return False  # primitive of y-degree <= 1 has no proper divisor
    for aa, bb in _all_shapes(a, b):
        cells = (aa + 1) * (bb + 1)
        if q**cells > budget:
            raise RuntimeError("oracle budget exceeded")
        for values in itertools.product(range(q), repeat=cells):
            rows = [[field.from_int(values[i * (bb + 1) + j])
                     for j in range(bb + 1)] for i in range(aa + 1)]
            cand = BPoly.from_grid(field, rows)
            if cand.deg_x != aa or cand.deg_y != bb:
                continue
            if bpoly_div_exact(g, cand) is not None:
                return True
    return False


def test_oracle_confirms_reported_factors_small():
    rng = random.Random(31)
    for p, k in ((2, 1), (3, 1), (2, 2), (5, 1)):
        F = make_field(p, k)
        for _ in range(12):
            f = rand_bpoly(F, rng.randrange(0, 3), rng.randrange(0, 3), rng)
            g = rand_bpoly(F, rng.randrange(0, 3), rng.randrange(0, 3), rng)
            fg = f * g
            if fg.is_zero():
                continue
            cert = factor_bivariate(fg)
            for factor, _ in cert.factors:
                if factor.deg_y == 0:
                    # pure-x factor: irreducibility is the univariate notion
                    assert is_irreducible(factor.ycoeffs[0]) or \
                        factor.ycoeffs[0].degree == 1
                    continue
                try:
                    assert not _oracle_has_divisor(factor)
                except RuntimeError:
                    pass  # shape too large for the exhaustive budget


def test_oracle_rejects_known_reducible():
    F5 = make_field(5)
    assert _oracle_has_divisor(conic(make_field(7)))
    assert not _oracle_has_divisor(conic(F5))


# ---------------------------------------------------------------------------
# Geometric components.


def test_geometric_components_examples():
    F5 = make_field(5)
    geo = geometric_components(conic(F5))
    assert len(geo) == 1
    assert geo[0].components == 2
    assert not geo[0].absolutely_irreducible
    assert geo[0].field_of_definition_degree == 2
    F7 = make_field(7)
    geo7 = geometric_components(conic(F7))
    assert len(geo7) == 2
    assert all(g.components == 1 and g.absolutely_irreducible for g in geo7)
    line = biv(F5, [[0, 1], [1, 0]])
    assert geometric_components(line)[0].components == 1


def test_geometric_components_rejects_repeated_factors():
    F5 = make_field(5)
    line = biv(F5, [[0, 1], [1, 0]])
    with pytest.raises(NotSquarefree):
        geometric_components(line * line)


def _norm_of_line(field, c):
    """An F_q-irreducible curve with exactly c conjugate line components:
    the product over the Frobenius orbit of y - alpha x with alpha of
    degree c."""
    ext, emb = extension(field, c)
    alpha = next(z for z in ext.elements()
                 if len({z ** (field.order ** i) for i in range(c)}) == c)
    q = field.order
    prod = BPoly.one(ext)
    for i in range(c):
        conj = alpha ** (q**i)
        prod = prod * BPoly(ext, [UPoly(ext, (ext.zero(), -conj)),
                                  UPoly.one(ext)])
    return prod.map_coefficients(emb.section, field)


@pytest.mark.parametrize("q_spec,c", [((3, 1), 2), ((3, 1), 3), ((5, 1), 2),
                                      ((2, 2), 2), ((2, 1), 3)])
def test_geometric_components_on_norm_constructions(q_spec, c):
    field = make_field(*q_spec)
    G = _norm_of_line(field, c)
    geo = geometric_components(G)
    assert len(geo) == 1
    assert geo[0].components == c


def test_geometric_components_frobenius_consistency():
    # factoring over the degree-c extension yields exactly c conjugate
    # factors of equal degree, permuted cyclically by Frobenius
    for q_spec, poly_builder in (((5, 1), conic), ((3, 1), lambda f: _norm_of_line(f, 3))):
        field = make_field(*q_spec)
        G = poly_builder(field)
        geo = geometric_components(G)
        for row in geo:
            c = row.components
            if c == 1:
                continue
            ext, emb = extension(field, c)
            Ge = row.factor.map_coefficients(emb, ext)
            cert = factor_bivariate(Ge)
            assert len(cert.factors) == c
            assert all(m == 1 for _, m in cert.factors)
            degs = {g.total_degree for g, _ in cert.factors}
            assert degs == {row.factor.total_degree // c}
            # Frobenius orbit closes up in exactly c steps
            parts = {g for g, _ in cert.factors}
            start = next(iter(parts))
            seen = []
            cur = start
            for _ in range(c):
                seen.append(cur)
                cur = BPoly(ext, [
                    UPoly(ext, [co ** field.order for co in yc.coeffs])
                    for yc in cur.ycoeffs]).canonical()
            assert set(seen) == parts
            assert cur == start


def test_absolute_component_count_pure_x_factor():
    # an irreducible x-polynomial of degree 2 is two conjugate vertical
    # lines over the quadratic extension
    F5 = make_field(5)
    g = BPoly.from_x_poly(UPoly(F5, (2, 0, 1)))  # x^2 + 2, irreducible mod 5
    assert absolute_component_count(g) == 2


def _component_count_oracle(G):
    """Components of an F_q-irreducible G, counted by factoring it over
    the extension of degree D = total degree."""
    D = G.total_degree
    if D <= 1:
        return 1
    ext, emb = extension(G.field, D)
    cert = factor_bivariate(G.map_coefficients(emb, ext))
    return sum(m for _, m in cert.factors)


def _dickson(field, n, a):
    # D_0 = 2, D_1 = x, D_n = x D_{n-1} - a D_{n-2}
    a = field.element(a)
    prev, cur = UPoly.constant(field, field.element(2)), UPoly.x(field)
    for _ in range(n - 1):
        prev, cur = cur, cur * UPoly.x(field) - prev * a
    return cur


def _random_map(field, n, rng):
    """A seeded separable map of degree n with a random denominator."""
    while True:
        num = rand_upoly(field, n - 1, rng) + UPoly.x(field) ** n
        try:
            f = RationalMap(num, rand_upoly(field, n - 2, rng))
        except NotSeparable:
            continue
        if f.degree == n:
            return f


def test_absolute_component_count_matches_extension_oracle():
    rng = random.Random(5)
    maps = []
    for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                 (11, 1), (13, 1)):
        F = make_field(p, k)
        for n in sorted(rng.sample(range(3, 7), 2)):
            maps.append(_random_map(F, n, rng))
    for (p, k), n in (((5, 1), 3), ((7, 1), 3), ((2, 2), 3), ((2, 3), 3),
                      ((11, 1), 5), ((3, 2), 4), ((13, 1), 6), ((2, 4), 5)):
        maps.append(monomial_map(make_field(p, k), n))
    for (p, k), n, a in (((7, 1), 3, 1), ((7, 1), 5, 2), ((5, 1), 4, 1),
                         ((3, 2), 4, 1), ((11, 1), 5, 3), ((13, 1), 5, 2),
                         ((2, 2), 3, 1)):
        F = make_field(p, k)
        maps.append(RationalMap(_dickson(F, n, a), UPoly.one(F)))
    maps += [quintic_twist_map(make_field(13)), quintic_twist_map(make_field(17)),
             quintic_pair_map(make_field(17), 10, 3),
             quintic_pair_map(make_field(13), 1, 2)]
    split = 0
    for f in maps:
        for G, _ in factor_bivariate(fiber_product_poly(f)).factors:
            c = absolute_component_count(G)
            assert c == _component_count_oracle(G), (f.num, f.den, G)
            split += c > 1
    # x^3 over F_5 and F_8, two Dickson maps and two twists split
    assert split >= 6


@pytest.fixture
def extension_degrees(monkeypatch):
    """(degree of the base field over F_p, extension degree) for each
    extension ``polyfactor`` asks for, in call order."""
    asked = []
    build = polyfactor.extension

    def recording(field, e):
        asked.append((field.k, e))
        return build(field, e)

    monkeypatch.setattr(polyfactor, "extension", recording)
    return asked


def _single_phi_factor(f):
    (G, _), = factor_bivariate(fiber_product_poly(f)).factors
    return G


def test_component_count_extension_degrees(extension_degrees):
    twist = _single_phi_factor(quintic_twist_map(make_field(13)))
    pair = _single_phi_factor(quintic_pair_map(make_field(17), 10, 3))
    assert twist.total_degree == pair.total_degree == 8
    assert absolute_component_count(twist) == 2
    # the two components are told apart over F_{13^2}; lines over F_169
    # outside F_13 show each is absolutely irreducible, so F_{13^4} is
    # never built
    assert extension_degrees == [(1, 2)]
    extension_degrees.clear()
    assert absolute_component_count(pair) == 1
    assert extension_degrees == [(1, 2)]
    extension_degrees.clear()
    # y^3 - gamma x^2: coprime bidegree, settled without an extension
    F7 = make_field(7)
    gamma = F7.multiplicative_generator()
    G = BPoly(F7, [UPoly(F7, (0, 0, -gamma)), UPoly.zero(F7),
                   UPoly.zero(F7), UPoly.one(F7)])
    assert absolute_component_count(G) == 1
    assert extension_degrees == []


@pytest.mark.parametrize("p, n", [(13, 5), (3, 7), (2, 9), (5, 13)])
def test_component_count_tower_on_composite_bounds(p, n, extension_degrees):
    # the factors of x^n - y^n over x - y are the cyclotomic orbits, with
    # c = 4, 6, {2, 6} and 4 components; gcd(deg_x, deg_y) = c
    composite = 0
    phi = fiber_product_poly(monomial_map(make_field(p), n))
    for G, _ in factor_bivariate(phi).factors:
        e = gcd(G.deg_x, G.deg_y)
        extension_degrees.clear()
        c = absolute_component_count(G)
        asked = list(extension_degrees)
        assert c == _component_count_oracle(G), G
        assert all(is_prime(ell) for _, ell in asked), asked
        # over the prime field, each field built has a degree dividing e:
        # it lies on one path of prime steps inside F_{p^e}
        assert all(e % (k * ell) == 0 for k, ell in asked), asked
        composite += not is_prime(e)
    assert composite


@pytest.mark.parametrize("q_spec, build, c", [
    ((5, 1), lambda F: _single_phi_factor(monomial_map(F, 3)), 2),
    ((3, 1), lambda F: _norm_of_line(F, 3), 3),
    ((2, 2), lambda F: _norm_of_line(F, 2), 2),
])
def test_component_count_prime_bound_asks_once(q_spec, build, c,
                                                extension_degrees):
    F = make_field(*q_spec)
    G = build(F)
    assert gcd(G.deg_x, G.deg_y) == c
    extension_degrees.clear()
    assert absolute_component_count(G) == c
    assert extension_degrees == [(F.k, c)]


def _has_good_line(G):
    for x0 in G.field.elements():
        u = G.substitute_x(x0)
        if u.degree == G.deg_y and upoly_gcd(u, u.derivative()).degree == 0:
            return True
    return False


def test_component_count_without_a_good_line():
    # seeded search for a y-separable factor with no good F_q-line, so
    # only gcd(deg_x, deg_y) bounds the count
    rng = random.Random(14)
    found = []
    while len(found) < 3:
        cand = rand_bpoly(make_field(rng.choice((2, 3))), 2, 2, rng)
        if cand.is_zero():
            continue
        for G, _ in factor_bivariate(cand).factors:
            if (gcd(G.deg_x, G.deg_y) > 1 and not G.derivative_y().is_zero()
                    and not _has_good_line(G)):
                found.append(G)
    counts = [absolute_component_count(G) for G in found]
    assert counts == [_component_count_oracle(G) for G in found]
    assert 2 in counts and {G.field.order for G in found} == {2, 3}


@pytest.mark.parametrize("q_spec,rows,c", [
    # y^2 = x^2 + x in characteristic 2: no line is squarefree
    ((2, 1), [[0, 0, 1], [1], [1]], 1),
    # pure-x and pure-y factors: deg_x (or deg_y) conjugate lines
    ((2, 1), [[1], [1], [0], [1]], 3),
    ((5, 1), [[2, 0, 1]], 2),
    ((2, 1), [[1, 1, 0, 1]], 3),
    ((3, 1), [[1, 0, 1]], 2),
])
def test_component_count_degenerate_factors(q_spec, rows, c):
    F = make_field(*q_spec)
    G = BPoly.from_grid(F, [[F.element(v) for v in row] for row in rows])
    assert absolute_component_count(G) == _component_count_oracle(G) == c


def test_hensel_extension_search_is_bounded(monkeypatch, extension_degrees):
    # With no good line anywhere the search stops at the first F_{2^e}
    # with more than (2 deg_y - 1) deg_x = 3 elements, instead of looping.
    monkeypatch.setattr(polyfactor, "_good_lines",
                        lambda W, subfield_order=None: iter(()))
    F2 = make_field(2)
    W = BPoly.from_grid(F2, [[F2.element(v) for v in row]
                             for row in [[1, 0, 1], [0, 1]]])  # y^2 + xy + 1
    with pytest.raises(ValueError, match="e <= 2"):
        polyfactor._factor_at_extension_line(W, Config())
    assert extension_degrees == [(1, 2)]


def test_good_line_factors_without_gcd_chain(monkeypatch):
    # Phi of both quintics is F_q-irreducible and has a good F_q-line, so
    # it is factored at that line and the bivariate gcd chain never runs.
    def no_gcd(F, G):
        raise AssertionError("bgcd called although a good line exists")

    monkeypatch.setattr(polyfactor, "bgcd", no_gcd)
    for f in (quintic_twist_map(make_field(13)),
              quintic_pair_map(make_field(17), 10, 3)):
        phi = fiber_product_poly(f)
        cert = factor_bivariate(phi)
        assert cert.factors == ((phi.canonical(), 1),)
        assert cert.unit == phi.coefficient(phi.deg_x, phi.deg_y)
        assert cert.product() == phi


def test_fallback_matches_good_line_path():
    # On squarefree primitive P with a good F_q-line, the extension-line
    # fallback and the good-line path find the same factors.
    cfg = Config()
    rng = random.Random(8)
    checked = 0
    for p in (5, 7):
        F = make_field(p)
        for _ in range(12):
            P = rand_bpoly(F, rng.randrange(1, 3), rng.randrange(1, 3), rng)
            P = P * rand_bpoly(F, rng.randrange(0, 3), rng.randrange(1, 3), rng)
            if (P.is_zero() or content_y(P).degree != 0
                    or next(polyfactor._good_lines(P), None) is None):
                continue
            fast = polyfactor._distinct_bivariate_factors(P, cfg)
            assert set(polyfactor._factor_at_extension_line(P, cfg)) == fast
            checked += 1
    assert checked >= 16


def _y_to_yp(h):
    F = h.field
    p, zero = F.p, UPoly.zero(F)
    return BPoly(F, [h.coeffs[j // p] if j % p == 0 else zero
                     for j in range(p * h.deg_y + 1)])


def _is_irreducible_by_trial_division(g):
    # a proper factor of g has a bidegree <= that of g, other than g's own
    F, a, b = g.field, g.deg_x, g.deg_y
    for cs in itertools.product(range(F.order), repeat=(a + 1) * (b + 1)):
        d = BPoly.from_grid(F, [[F.from_int(c) for c in cs[i * (b + 1):(i + 1) * (b + 1)]]
                                for i in range(a + 1)])
        if (0 < d.total_degree and (d.deg_x, d.deg_y) != (a, b)
                and bpoly_div_exact(g, d) is not None):
            return False
    return True


def _branch(pieces):
    """Branch 2, 3 or 4 of ``_distinct_bivariate_factors`` that the
    primitive part of prod g^e takes when it has no good F_q-line."""
    p = pieces[0][0].field.p
    curves = [(g, e) for g, e in pieces if g.deg_y > 0]
    if all(g.derivative_y().is_zero() or e % p == 0 for g, e in curves):
        return 2
    if all(e == 1 and not g.derivative_y().is_zero() for g, e in curves):
        return 3
    return 4


def test_fallback_branches_match_a_construction():
    # P = prod g_i^e_i, e_i in {1, 2, p}, from pieces proved irreducible by
    # trial division: bidegree <= (2, 2) over F_2, some of them y -> y^2
    # images, and <= (1, 2) or (2, 1) over F_3.  Only P whose primitive
    # part has no good F_q-line are kept, so every one takes branch 2, 3
    # or 4 and the certificate must be the construction.
    rng = random.Random(12)
    branches = []
    images = 0
    elapsed = 0.0
    for p, shapes in ((2, ((2, 2), (2, 1), (1, 2), (1, 1))),
                      (3, ((1, 2), (2, 1), (1, 1)))):
        F = make_field(p)
        pieces = set()
        while len(pieces) < 10:
            if p == 2 and rng.random() < 0.3:
                g = _y_to_yp(rand_bpoly(F, 2, 1, rng))
            else:
                g = rand_bpoly(F, *rng.choice(shapes), rng)
            if g.total_degree > 0 and _is_irreducible_by_trial_division(g):
                pieces.add(g.canonical())
        pieces = sorted(pieces, key=polyfactor._sort_key_bpoly)
        kept = 0
        while kept < 20:
            chosen = sorted(rng.sample(pieces, rng.randrange(1, 4)),
                            key=polyfactor._sort_key_bpoly)
            expect = tuple((g, rng.choice((1, 1, 2, p))) for g in chosen)
            P = BPoly.one(F)
            for g, e in expect:
                P = P * g**e
            prim = polyfactor.primitive_part_y(P)
            if prim.deg_y == 0 or next(polyfactor._good_lines(prim), None):
                continue
            start = time.perf_counter()
            cert = factor_bivariate(P)
            elapsed += time.perf_counter() - start
            assert cert.factors == expect, P
            assert cert.product() == P
            branches.append(_branch(expect))
            images += any(g.deg_y > 0 and g.derivative_y().is_zero()
                          for g, _ in expect)
            kept += 1
    assert {2, 3, 4} <= set(branches) and images
    assert elapsed < 2.0


def _lift_at_split_line(W):
    """The Hensel data of ``_hensel_at_line`` at the first good line of W
    where W(x0, y) has two or more factors: (Wstar, lifts, precision)."""
    prec = 2 * W.deg_x + 1
    for x0, u in polyfactor._good_lines(W):
        if len(factor_univariate(u).factors) < 2:
            continue
        Ws = W.shift_x(x0)
        Wstar = polyfactor._truncate_x(
            Ws * polyfactor._series_inverse(Ws.coeffs[-1], prec), prec)
        us = [g for g, _ in factor_univariate(Wstar.substitute_x(0)).factors]
        return Wstar, polyfactor._hensel_lift_factors(Wstar, us, prec), prec
    raise AssertionError("no good line splits W")


def test_hensel_lifts_multiply_to_wstar():
    # each lift step reads the error at x^j from the product of the lifts
    # truncated to x^(j+1); the finished lifts must multiply to Wstar
    # modulo x^prec.  The twist's Phi is irreducible on every F_13-line,
    # so it is lifted where its component count is settled, over F_{13^2}.
    phi = fiber_product_poly(quintic_twist_map(make_field(13)))
    ext, emb = extension(phi.field, 2)
    cases = [phi.map_coefficients(emb, ext)]
    rng = random.Random(8)
    for p in (5, 7):
        F = make_field(p)
        while len(cases) < (4 if p == 5 else 7):
            P = rand_bpoly(F, 2, 2, rng) * rand_bpoly(F, 1, 2, rng)
            if (not P.is_zero() and content_y(P).degree == 0
                    and next(polyfactor._good_lines(P), None) is not None):
                cases.append(P)
    for W in cases:
        Wstar, lifted, prec = _lift_at_split_line(W)
        prod = BPoly.one(W.field)
        for w in lifted:
            prod = polyfactor._truncate_x(prod * w, prec)
        assert prod == Wstar


def test_component_count_precondition_example():
    # y^2 + 1 over F_9 splits into y - i and y + i; geometric_components
    # counts each F_9-irreducible factor, one component apiece, whereas
    # absolute_component_count(y^2 + 1) itself is outside its contract
    F9 = make_field(3, 2)
    geo = geometric_components(BPoly(F9, [1, 0, 1]))
    assert [(row.factor.deg_y, row.components) for row in geo] == [(1, 1), (1, 1)]
    assert all(row.absolutely_irreducible for row in geo)


def test_component_count_matches_oracle_on_tier1_families():
    # every factor of Phi for the family maps of the acceptance sweeps:
    # x^n (n <= 7, q <= 31, p not dividing n), D_n(x, a), quintic twists
    maps = []
    for n in range(2, 8):
        for p, k in small_fields(31):
            if n % p:
                maps.append(monomial_map(make_field(p, k), n))
    for (p, k), n, a in (((7, 1), 3, 1), ((7, 1), 5, 2), ((5, 1), 4, 1),
                         ((3, 2), 4, 1), ((11, 1), 5, 3), ((13, 1), 5, 2),
                         ((2, 2), 3, 1)):
        F = make_field(p, k)
        maps.append(RationalMap(_dickson(F, n, a), UPoly.one(F)))
    maps += [quintic_twist_map(make_field(q)) for q in (13, 17, 29)]
    for f in maps:
        for G, _ in factor_bivariate(fiber_product_poly(f)).factors:
            assert absolute_component_count(G) == _component_count_oracle(G), \
                (f.num, f.den, G)


# ---------------------------------------------------------------------------
# Independent oracle: sympy's univariate factoring over F_p.


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_factor_univariate_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(2005)

    def random_poly(F, deg):
        return UPoly(F, [rng.randrange(F.p) for _ in range(deg)]
                     + [rng.randrange(1, F.p)])

    for p in (2, 3, 5, 7, 13, 101):
        F = make_field(p)
        for _ in range(6):
            # repeated and p-th power factors exercise the squarefree step
            a = random_poly(F, rng.randrange(1, 7))
            b = random_poly(F, rng.randrange(1, 4))
            f = a * b**2 * (b**p if p <= 3 else UPoly.one(F))
            cert = factor_univariate(f)
            ours = sorted((tuple(c.to_int() for c in g.coeffs), m)
                          for g, m in cert.factors)
            expr = sum(c.to_int() * x**i for i, c in enumerate(f.coeffs))
            lc, facs = sympy.factor_list(expr, x, modulus=p)
            # sympy prints symmetric residues; map them into 0..p-1
            theirs = sorted(
                (tuple(int(c) % p for c in
                       reversed(sympy.Poly(g, x).all_coeffs())), m)
                for g, m in facs)
            assert int(lc) % p == cert.unit.to_int()
            assert ours == theirs, (p, f)
