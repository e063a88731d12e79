"""Covers of the projective line: rational self-maps and superelliptic
models, with exhaustive point audits over extension fields, branch-locus
computation, genus formulas, and the splitting-type census of fibers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd

from .config import DEFAULT_CONFIG
from .errors import CapExceeded, MixedFields, NotSeparable, WildCase
from .gf import Fel, embedding, extension, nth_power_solution_count
from .polyfactor import (
    UPoly,
    factor_univariate,
    splitting_type,
    upoly_ext_gcd,
    upoly_gcd,
)


class ProjPoint:
    """A point of the projective line: a field element or infinity."""

    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x

    @classmethod
    def finite(cls, x):
        return cls(x)

    @property
    def is_infinity(self):
        return self.x is None

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.x == other.x

    def __hash__(self):
        return hash(None) if self.is_infinity else hash(self.x)

    def __repr__(self):
        return "∞" if self.is_infinity else f"({self.x.to_int()})"

    def sort_key(self):
        # finite points in enumeration order, infinity last
        return (1, 0) if self.is_infinity else (0, self.x.to_int())


INFINITY = ProjPoint(None)


class RationalMap:
    """A separable self-map p(x)/r(x) of the projective line.

    Construction reduces the fraction to lowest terms and normalizes so
    the numerator degree strictly exceeds the denominator degree (hence
    infinity maps to infinity).  When the input sends infinity to a
    finite value, a degree-one coordinate change on the target is
    post-composed; the change is recorded in ``normalization``, and both
    the point-map verdicts and the exceptionality verdict are invariant
    under it.
    """

    __slots__ = ("field", "num", "den", "degree", "normalization")

    def __init__(self, num, den):
        if not isinstance(num, UPoly) or not isinstance(den, UPoly):
            raise TypeError("RationalMap expects UPoly numerator and denominator")
        if num.field is not den.field:
            raise MixedFields("numerator and denominator over different fields")
        if den.is_zero():
            raise ValueError("denominator must be nonzero")
        if num.is_zero():
            raise ValueError("the zero map is not a cover")
        g = upoly_gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        normalization = None
        if num.degree < den.degree:
            num, den = den, num
            normalization = ("reciprocal", None)
        elif num.degree == den.degree:
            v = num.lc() / den.lc()
            num, den = den, num - den * v
            normalization = ("reciprocal_shift", v)
        if num.degree < 1:
            raise ValueError("map degree must be at least 1")
        # canonical scaling: monic numerator
        inv = num.lc().inverse()
        num, den = num * inv, den * inv
        crit = num.derivative() * den - num * den.derivative()
        if crit.is_zero():
            raise NotSeparable("derivative data vanishes identically")
        self.field = num.field
        self.num = num
        self.den = den
        self.degree = num.degree
        self.normalization = normalization

    def critical_poly(self):
        """p'r - pr'; its zeros are the finite critical points."""
        return self.num.derivative() * self.den - self.num * self.den.derivative()

    def over(self, embedding):
        """The same map with coefficients pushed through an embedding."""
        ext = embedding.dst
        num = self.num.map_coefficients(embedding, ext)
        den = self.den.map_coefficients(embedding, ext)
        out = object.__new__(RationalMap)
        out.field = ext
        out.num = num
        out.den = den
        out.degree = self.degree
        out.normalization = self.normalization
        return out

    def __repr__(self):
        return f"RationalMap(deg {self.degree} over {self.field!r})"


def _images(f, xs=None):
    """Image codes of f at the codes xs, by default all of its field in
    order; a pole gives None, infinity.  The only code that evaluates a
    map on points."""
    num, den, mul, inv = f.num, f.den, f.field.mul, f.field.inv
    for x in range(f.field.order) if xs is None else xs:
        rv = den._at(x)
        yield mul(num._at(x), inv(rv)) if rv else None


def _point(field, code):
    return INFINITY if code is None else ProjPoint(Fel(field, code))


def eval_map(f, point, field=None):
    """Evaluate the map at a projective point, optionally over an
    extension of its base field (coefficients are embedded first)."""
    if field is not None and field is not f.field:
        f = f.over(embedding(f.field, field))
    if point.is_infinity:
        return INFINITY
    return _point(f.field, next(_images(f, (f.field.element(point.x).code,))))


def mobius_postcompose(f, a, b, c, d):
    """The map (a f + b) / (c f + d) for an invertible coefficient matrix."""
    fld = f.field
    a, b, c, d = (fld.element(v) for v in (a, b, c, d))
    if (a * d - b * c).is_zero():
        raise ValueError("matrix is singular")
    num = f.num * a + f.den * b
    den = f.num * c + f.den * d
    return RationalMap(num, den)


def mobius_precompose(f, a, b, c, d):
    """The map f((a x + b) / (c x + d)) for an invertible matrix."""
    fld = f.field
    a, b, c, d = (fld.element(v) for v in (a, b, c, d))
    if (a * d - b * c).is_zero():
        raise ValueError("matrix is singular")
    top = UPoly(fld, (b, a))
    bot = UPoly(fld, (d, c))
    n = f.degree

    def substitute(poly):
        acc = UPoly.zero(fld)
        for i, coeff in enumerate(poly.coeffs):
            acc = acc + (top**i) * (bot ** (n - i)) * coeff
        return acc

    return RationalMap(substitute(f.num), substitute(f.den))


# ---------------------------------------------------------------------------
# Point audits.


@dataclass(frozen=True)
class PointAudit:
    """Fiber sizes of the induced map on rational points over F_{q^m}.

    ``fibers`` records only nonempty fibers; every other base point has
    an empty one.  Verdicts refer to the full point sets unless a branch
    set was excluded, in which case ``excluded_branch`` lists it.
    """

    m: int
    base_order: int
    fibers: dict
    injective: bool
    surjective: bool
    bijective: bool
    excluded_branch: frozenset = None

    def fiber_size(self, point):
        return self.fibers.get(point, 0)

    def histogram(self):
        """Map fiber size -> number of base points with that size."""
        out = {}
        for v in self.fibers.values():
            out[v] = out.get(v, 0) + 1
        empties = self.base_order + 1 - len(self.fibers)
        if empties:
            out[0] = empties
        return out


def _extension_for(field, m, config):
    if field.order**m > config.enumeration_cap:
        raise CapExceeded(
            f"enumerating q^m = {field.order**m} points exceeds cap "
            f"{config.enumeration_cap}")
    return extension(field, m)


def _verdicts(fibers, base_order, exclude=None):
    if exclude:
        relevant = [(pt, c) for pt, c in fibers.items() if pt not in exclude]
        covered = len(relevant)
        total = base_order + 1 - len(exclude)
        inj = all(c <= 1 for _, c in relevant)
    else:
        covered = len(fibers)
        total = base_order + 1
        inj = all(c <= 1 for c in fibers.values())
    sur = covered == total
    return inj, sur, inj and sur


def audit_rational_map(f, m, config=DEFAULT_CONFIG, exclude_branch_fibers=False):
    """Exhaustive fiber audit of a rational self-map over F_{q^m}."""
    ext, emb = _extension_for(f.field, m, config)
    counts = Counter(_images(f.over(emb)))  # image code -> fiber size
    counts[None] += 1  # infinity maps to infinity
    fibers = {_point(ext, c): v for c, v in counts.items()}
    excluded = None
    if exclude_branch_fibers:
        excluded = ramified_rational_points(f, m, config).points
    inj, sur, bij = _verdicts(fibers, ext.order, excluded)
    return PointAudit(m, ext.order, fibers, inj, sur, bij, excluded)


@dataclass(frozen=True)
class BranchLocus:
    """Rational branch points of the map over F_{q^m}, with the
    ramification-count upper bound 2 g_X + 2n - 2."""

    m: int
    points: frozenset
    bound: int


def ramified_rational_points(f, m, config=DEFAULT_CONFIG):
    """All rational base points over F_{q^m} with a ramified point above.

    Finite branch points are images of critical points; a critical point
    in an extension contributes only when its image lands in F_{q^m},
    which is decided exactly on the critical polynomial's irreducible
    factors.  Infinity is a branch point when its own ramification index
    exceeds one or two poles coincide (checked on the reciprocal chart).
    """
    ext, emb = _extension_for(f.field, m, config)
    fe = f.over(emb)
    crit = fe.critical_poly()
    points = set()
    for g, _ in factor_univariate(crit, config).factors:
        if g.degree == 1:
            # the image of a rational critical point; infinity for a multiple pole
            points.add(_point(ext, next(_images(fe, ((-g.coefficient(0)).code,)))))
            continue
        if (fe.den % g).is_zero():
            points.add(INFINITY)
            continue
        _, s, _ = upoly_ext_gcd(fe.den % g, g)
        u = (fe.num * s) % g
        if u.degree <= 0:
            points.add(ProjPoint.finite(u.coefficient(0)))
    if fe.degree - fe.den.degree > 1:
        points.add(INFINITY)
    elif fe.den.degree > 0 and upoly_gcd(fe.den, fe.den.derivative()).degree > 0:
        points.add(INFINITY)
    return BranchLocus(m, frozenset(points), 2 * fe.degree - 2)


@dataclass(frozen=True)
class CensusReport:
    """Splitting-type histogram over the non-branch rational base points."""

    m: int
    base_order: int
    histogram: dict
    branch_points: frozenset

    def total(self):
        return sum(self.histogram.values())


def splitting_census(f, m, config=DEFAULT_CONFIG):
    """Histogram of fiber splitting types over F_{q^m}.

    For a non-branch finite t the type is the multiset of degrees of the
    irreducible factors of p - t r; over a non-branch infinity it is the
    factor degrees of r plus the degree-(deg p - deg r) place above.
    Branch points are excluded and reported separately.
    Off the branch locus, p - t r is squarefree of degree n with the a_1
    points of the fiber as roots, and a rootless squarefree rest of
    degree 2 or 3 is irreducible, so only n - a_1 >= 4 is factored.
    """
    branch = ramified_rational_points(f, m, config)
    ext, emb = _extension_for(f.field, m, config)
    fe = f.over(emb)
    fiber = Counter(_images(fe))
    skip = {P.x.code for P in branch.points if not P.is_infinity}
    hist = {}
    for t in range(ext.order):
        if t in skip:
            continue
        rest = fe.degree - fiber[t]
        st = (splitting_type(fe.num - fe.den * Fel(ext, t)) if rest >= 4
              else (1,) * fiber[t] + ((rest,) if rest else ()))
        hist[st] = hist.get(st, 0) + 1
    if INFINITY not in branch.points:
        degs = list(splitting_type(fe.den)) if fe.den.degree > 0 else []
        degs.append(fe.degree - fe.den.degree)
        st = tuple(sorted(degs))
        hist[st] = hist.get(st, 0) + 1
    return CensusReport(m, ext.order, hist, branch.points)


# ---------------------------------------------------------------------------
# Superelliptic covers y^n = gamma * h(x).


@dataclass(frozen=True)
class SuperellipticCover:
    """The smooth projective model of y^n = gamma * h(x) with its
    projection to the x-line."""

    n: int
    gamma: Fel
    h: UPoly
    genus: int


def superelliptic_genus(n, h):
    """Genus of the smooth model of y^n = gamma h(x) for squarefree h.

    Riemann-Hurwitz for the cyclic cover: 2g - 2 = -2n + s(n-1) +
    (n - gcd(n, d)) where s = deg h counts the distinct finite branch
    points and the places over infinity have index n / gcd(n, d).
    """
    field = h.field
    if n % field.p == 0:
        raise WildCase("cover exponent divisible by the characteristic")
    if h.degree < 1:
        raise ValueError("h must be nonconstant")
    if upoly_gcd(h, h.derivative()).degree != 0:
        raise ValueError("h must be squarefree")
    d = h.degree
    two_g = -2 * n + d * (n - 1) + (n - gcd(n, d)) + 2
    if two_g % 2 != 0:
        raise AssertionError("parity failure in the genus formula")
    return two_g // 2


def make_superelliptic(n, gamma, h):
    """Validated construction of a superelliptic cover."""
    if n < 2:
        raise ValueError("exponent must be at least 2")
    gamma = h.field.element(gamma)
    if gamma.is_zero():
        raise ValueError("gamma must be nonzero")
    return SuperellipticCover(n, gamma, h, superelliptic_genus(n, h))


def points_over_infinity(cover):
    """Number of rational points of the smooth model above x = infinity.

    There are gcd(n, deg h) places above infinity, each of ramification
    index n / gcd(n, d); the rational ones correspond to the solutions
    of z^gcd(n,d) = gamma * lc(h) in the base field.
    """
    g0 = gcd(cover.n, cover.h.degree)
    return nth_power_solution_count(cover.gamma * cover.h.lc(), g0)


def totally_ramified_at_infinity(cover):
    return gcd(cover.n, cover.h.degree) == 1


def audit_superelliptic(cover, m, config=DEFAULT_CONFIG):
    """Exhaustive fiber audit of the projection to the x-line over F_{q^m}.

    Fibers are counted on the smooth model: above a finite base point x0
    the rational points correspond to the solutions of y^n = gamma h(x0),
    and above infinity to the place computation of points_over_infinity.
    """
    field = cover.h.field
    if cover.n % field.p == 0:
        raise WildCase("cover exponent divisible by the characteristic")
    ext, emb = _extension_for(field, m, config)
    he = cover.h.map_coefficients(emb, ext)
    ge = emb(cover.gamma)
    fibers = {}
    n = cover.n
    for x0 in range(ext.order):
        cnt = nth_power_solution_count(Fel(ext, ext.mul(ge.code, he._at(x0))), n)
        if cnt:
            fibers[ProjPoint(Fel(ext, x0))] = cnt
    ext_cover = SuperellipticCover(n, ge, he, cover.genus)
    inf_cnt = points_over_infinity(ext_cover)
    if inf_cnt:
        fibers[INFINITY] = inf_cnt
    inj, sur, bij = _verdicts(fibers, ext.order)
    return PointAudit(m, ext.order, fibers, inj, sur, bij)


def omitted_point_cover(field, n, a, gamma):
    """The superelliptic cover whose branch polynomial vanishes at every
    nonzero rational point except ``a``: y^n = gamma * prod_{t != a}(x - t).

    Requires an odd-order field, n dividing (q-1)/2, and ``a`` a nonzero
    n-th power, so that h(0) = a^(-1) and h(a) = -a^(-1) are n-th powers
    and the two omitted fibers split completely or vanish together.
    """
    q = field.order
    if field.p == 2:
        raise ValueError("the construction needs odd field order")
    if n < 2 or (q - 1) % (2 * n) != 0:
        raise ValueError("n must exceed 1 and divide (q-1)/2")
    a = field.element(a)
    if a.is_zero() or nth_power_solution_count(a, n) == 0:
        raise ValueError("a must be a nonzero n-th power")
    gamma = field.element(gamma)
    if gamma.is_zero():
        raise ValueError("gamma must be nonzero")
    roots = [t for t in field.elements() if not t.is_zero() and t != a]
    h = UPoly.from_roots(field, roots)
    return make_superelliptic(n, gamma, h)
