import itertools
import random

import pytest

from exccover.config import Config
from exccover.errors import DegreeCapExceeded, MixedFields, NotSquarefree
from exccover.gf import extension, make_field
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
