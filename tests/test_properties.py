"""Property tests for the arithmetic kernels: permutation products, field
axioms, univariate division, bivariate factoring and the splitting census,
on inputs drawn by hypothesis."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from exccover.covers import RationalMap, splitting_census
from exccover.errors import DivisionByZero, NotSeparable
from exccover.gf import make_field
from exccover.groups import Perm
from exccover.polyfactor import BPoly, UPoly, factor_bivariate, upoly_gcd
from test_covers import _census_by_factoring

# Derandomized and without an example database, so every run draws the
# same examples.
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True,
                    database=None)

FIELDS = [(2, 1), (3, 1), (13, 1), (29, 1), (2, 3), (3, 2), (5, 2), (2, 4)]


def _compose(a, b):
    """Plain image-tuple composition, right factor first."""
    return tuple(a[b[s]] for s in range(len(b)))


@st.composite
def perm_triples(draw):
    n = draw(st.integers(1, 7))
    return [Perm(draw(st.permutations(range(n)))) for _ in range(3)]


# Fields above the Zech-table bound of 2^12 elements, which compute in
# the polynomial basis.
BASIS_FIELDS = [(3, 8), (2, 13)]


@st.composite
def field_triples(draw):
    F = make_field(*draw(st.sampled_from(FIELDS + BASIS_FIELDS)))
    return [F.from_int(draw(st.integers(0, F.order - 1))) for _ in range(3)]


# Products with a square, a factor in y^p or a p-th power have no good
# line, so they are factored through the bivariate gcd chain.
FACTOR = settings(max_examples=40, deadline=None, derandomize=True,
                  database=None)


def _bpoly(draw, F, dx, dy):
    return BPoly.from_grid(F, [[F.from_int(draw(st.integers(0, F.order - 1)))
                                for _ in range(dy + 1)] for _ in range(dx + 1)])


@st.composite
def products_without_good_line(draw):
    F = make_field(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)])))
    p = F.p
    A = _bpoly(draw, F, 1, 1)
    C = _bpoly(draw, F, 1, 1)
    kind = draw(st.sampled_from(["square", "y^p", "p-th power"]))
    if kind == "square":
        return A * C * C
    if kind == "y^p":
        # C(x, y^p)
        return A * BPoly(F, [C.coeffs[j // p] if j % p == 0 else UPoly.zero(F)
                             for j in range(p * C.deg_y + 1)])
    return A * C ** p


@st.composite
def upoly_triples(draw):
    F = make_field(*draw(st.sampled_from(FIELDS)))
    return [UPoly(F, [F.from_int(v) for v in draw(
        st.lists(st.integers(0, F.order - 1), max_size=6))])
        for _ in range(3)]


@PROPERTY
@given(perm_triples())
def test_perm_products(perms):
    a, b, c = perms
    ab = a * b
    assert tuple(ab) == _compose(tuple(a), tuple(b))
    assert sorted(tuple(ab)) == list(range(len(a)))
    assert (a * b) * c == a * (b * c)
    assert (a * a.inverse()).is_identity()
    assert (a.inverse() * a).is_identity()
    assert sum(a.cycle_type()) == len(a)


@PROPERTY
@given(field_triples())
def test_fel_field_axioms(xs):
    a, b, c = xs
    F = a.field
    zero, one = F.zero(), F.one()
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert a + (-a) == zero and a - b == a + (-b)
    assert a ** F.order == a
    if a.is_zero():
        with pytest.raises(DivisionByZero):
            a.inverse()
    else:
        assert a * a.inverse() == one
        assert (b / a) * a == b


@PROPERTY
@given(upoly_triples())
def test_upoly_divmod_and_gcd(polys):
    a, b, c = polys
    f, g = a * c, b * c
    if g.is_zero():
        with pytest.raises(DivisionByZero):
            divmod(f, g)
    else:
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero() or r.degree < g.degree
    d = upoly_gcd(f, g)
    if d.is_zero():
        assert f.is_zero() and g.is_zero()
    else:
        assert d.lc() == f.field.one()
        assert (f % d).is_zero() and (g % d).is_zero()
        if not c.is_zero():
            assert (d % c).is_zero()  # the common factor divides the gcd


@FACTOR
@given(products_without_good_line())
def test_factor_bivariate_multiplies_back(f):
    if f.is_zero():
        return
    cert = factor_bivariate(f)
    assert cert.product() == f
    assert all(m >= 1 and g.total_degree >= 1 for g, m in cert.factors)


@st.composite
def census_cases(draw):
    """A map of degree 4 ... 7, the degrees whose fibers can have a
    rootless rest of degree 4 or 5, with poles, over odd and even fields,
    p | n included, and a census degree m of 1 or 2."""
    F = make_field(*draw(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2),
                                          (2, 2), (2, 3)])))
    n = draw(st.integers(4, 7))
    codes = st.integers(0, F.order - 1)
    num = [F.from_int(c) for c in draw(st.lists(codes, min_size=n, max_size=n))]
    den = [F.from_int(c) for c in draw(st.lists(codes, max_size=n - 1))]
    try:
        f = RationalMap(UPoly(F, num + [1]), UPoly(F, den + [1]))
    except NotSeparable:
        assume(False)
    return f, draw(st.sampled_from([1, 2]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(census_cases())
def test_census_matches_factoring(case):
    f, m = case
    census = splitting_census(f, m)
    assert (census.histogram, census.branch_points) == _census_by_factoring(f, m)
