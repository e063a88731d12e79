"""The exceptionality decision for rational self-maps of the line.

Builds the nondiagonal fiber-product polynomial, classifies each of its
arithmetic factors as absolutely irreducible or split over an extension,
and derives the verdict: the cover is exceptional exactly when no
nondiagonal factor is absolutely irreducible.  Structural validators
check the intersection and point-count facts the verdict relies on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from math import lcm

from .config import DEFAULT_CONFIG
from .errors import CapExceeded, NotSeparable, PreconditionFailed
from .covers import INFINITY, ProjPoint, RationalMap
from .polyfactor import (
    BPoly,
    UPoly,
    absolute_component_count,
    factor_bivariate,
)


def fiber_product_poly(f):
    """Phi(x, y) = (p(x) r(y) - p(y) r(x)) / (x - y).

    The quotient is exact; Phi is symmetric, has degree n - 1 in each
    variable, and its zero locus is the nondiagonal part of the fiber
    product of the map with itself.
    """
    if f.critical_poly().is_zero():
        raise NotSeparable("derivative data vanishes identically")
    fld = f.field
    p, r = f.num, f.den
    # coefficient of y^j in p(x) r(y) - p(y) r(x), as a polynomial in x
    n = f.degree
    ycs = []
    for j in range(n + 1):
        ycs.append(p * r.coefficient(j) - r * p.coefficient(j))
    # synthetic division by (y - x) viewed as a polynomial in y
    m = len(ycs) - 1
    quot = [None] * m
    acc = ycs[m]
    for j in range(m - 1, -1, -1):
        quot[j] = acc
        acc = ycs[j] + acc * UPoly.x(fld)
    if not acc.is_zero():
        raise AssertionError("diagonal division must be exact")
    # ycs = (y - x) * quot, so Phi = -quot
    return BPoly(fld, [-c for c in quot])


@dataclass(frozen=True)
class FactorClassification:
    """One arithmetic factor of the fiber-product polynomial."""

    poly: BPoly
    multiplicity: int
    components: int
    absolutely_irreducible: bool
    field_of_definition_degree: int
    affine_points: int = None


@dataclass(frozen=True)
class ExceptionalityReport:
    """Verdict plus the factor-level certificate it rests on.

    ``component_definition_lcm`` is the least common multiple of the
    factors' fields of definition; it is a report field only, used to
    schedule which extension degrees keep the verdict meaningful.
    ``point_memo`` maps a factor polynomial to its ``factor_points``;
    it is keyed by value, so a report or row copied with another
    polynomial never reads stale points.
    """

    map: RationalMap
    phi: BPoly
    factors: tuple
    exceptional: bool
    component_definition_lcm: int
    diagonal_recurrence: bool
    point_memo: dict = dataclass_field(default_factory=dict, repr=False,
                                       compare=False)

    def points(self, G):
        """``factor_points(G)``, enumerated at most once per report."""
        if G not in self.point_memo:
            self.point_memo[G] = factor_points(G)
        return self.point_memo[G]


def _diagonal_canonical(field):
    # y - x, which is the canonical scaling of x - y
    return BPoly(field, [UPoly(field, (field.zero(), -field.one())),
                         UPoly.one(field)])


def decide_exceptional(f, config=DEFAULT_CONFIG):
    """Factor the nondiagonal fiber product and classify each factor."""
    phi = fiber_product_poly(f)
    cert = factor_bivariate(phi, config)
    diag = _diagonal_canonical(f.field)
    # affine counts only while q^2 stays within the enumeration cap
    scan = f.field.order ** 2 <= config.enumeration_cap
    memo = {}
    rows = []
    for G, mult in cert.factors:
        c = absolute_component_count(G, config)
        affine = None
        if scan:
            memo[G] = factor_points(G)
            affine = sum(1 for P, Q in memo[G]
                         if not (P.is_infinity or Q.is_infinity))
        rows.append(FactorClassification(
            poly=G,
            multiplicity=mult,
            components=c,
            absolutely_irreducible=(c == 1),
            field_of_definition_degree=c,
            affine_points=affine,
        ))
    exceptional = all(not row.absolutely_irreducible for row in rows)
    k = lcm(*(row.components for row in rows)) if rows else 1
    return ExceptionalityReport(
        map=f,
        phi=phi,
        factors=tuple(rows),
        exceptional=exceptional,
        component_definition_lcm=k,
        diagonal_recurrence=any(row.poly == diag for row in rows),
        point_memo=memo,
    )


def factor_points(G):
    """Rational points (P, Q) of the closure of G = 0 in the product of
    two projective lines, in P-then-Q scan order.

    G is sliced once per line x = P: a finite P substitutes x, and
    P = infinity keeps the x-leading coefficients.  A finite Q is a
    root of the slice; Q = infinity is on the curve when the slice's
    y^deg_y coefficient vanishes.
    """
    fld, dx, dy = G.field, G.deg_x, G.deg_y
    pts = [ProjPoint.finite(x) for x in fld.elements()] + [INFINITY]
    out = []
    for P in pts:
        if P.is_infinity:
            slice_y = UPoly(fld, [c.coefficient(dx) for c in G.ycoeffs])
        else:
            slice_y = G.substitute_x(P.x)
        for Q in pts:
            value = (slice_y.coefficient(dy) if Q.is_infinity
                     else slice_y.evaluate(Q.x))
            if value.is_zero():
                out.append((P, Q))
    return out


def is_ramified_at(f, point):
    """Whether the map ramifies at a point of its source line."""
    if point.is_infinity:
        return f.degree - f.den.degree > 1
    return f.critical_poly().evaluate(point.x).is_zero()


@dataclass(frozen=True)
class Violation:
    """A rational point breaking a structural validator."""

    point_pair: tuple
    detail: str


def validate_intersection_property(report, config=DEFAULT_CONFIG):
    """Every rational point on two distinct factors (or on a factor and
    the diagonal) must have the map ramified at both coordinates.

    Returns the list of violations, in P-then-Q scan order; the
    structural contract is that it is empty.
    """
    f = report.map
    q = f.field.order
    if (q + 1) ** 2 > config.enumeration_cap:
        raise CapExceeded("point scan of the fiber product is infeasible")
    on = Counter(pq for row in report.factors for pq in report.points(row.poly))
    violations = []
    for P, Q in sorted(on, key=lambda pq: (pq[0].sort_key(), pq[1].sort_key())):
        meets_several = on[P, Q] >= 2 or P == Q
        if meets_several and not (is_ramified_at(f, P) and is_ramified_at(f, Q)):
            violations.append(Violation(
                (P, Q), "intersection point with an unramified coordinate"))
    return violations


def validate_diagonal_bound(report, audit, config=DEFAULT_CONFIG):
    """For a map injective on rational points, every nondiagonal factor
    carries at most 2 g_X + 2n - 2 rational points (g_X = 0 here)."""
    if audit.m != 1 or not audit.injective:
        raise PreconditionFailed("the audit must report injectivity at m = 1")
    f = report.map
    q = f.field.order
    if (q + 1) ** 2 > config.enumeration_cap:
        raise CapExceeded("point scan of the fiber product is infeasible")
    diag = _diagonal_canonical(f.field)
    bound = 2 * f.degree - 2
    violations = []
    for row in report.factors:
        if row.poly == diag:
            continue
        count = len(report.points(row.poly))
        if count > bound:
            violations.append(Violation(
                (row.poly,), f"{count} rational points exceed the bound {bound}"))
    return violations


# ---------------------------------------------------------------------------
# Named map families used by the command line and the test corpus.


def monomial_map(field, n):
    """x^n as a rational self-map."""
    cs = [field.zero()] * n + [field.one()]
    return RationalMap(UPoly(field, cs), UPoly.one(field))


def quintic_pair_map(field, a, b):
    """(x^5 - a x) / (x^4 - b)."""
    a, b = field.element(a), field.element(b)
    num = UPoly(field, (field.zero(), -a, field.zero(), field.zero(),
                        field.zero(), field.one()))
    den = UPoly(field, (-b, field.zero(), field.zero(), field.zero(),
                        field.one()))
    return RationalMap(num, den)


def quintic_twist_map(field, i=None, b=None):
    """(x^5 - b(4i - 3) x) / (x^4 - b) for a primitive fourth root of
    unity i and a nonsquare b; defaults pick the smallest of each.
    """
    if field.p == 2:
        raise ValueError("the construction needs odd characteristic")
    if i is None:
        cands = [z for z in field.elements() if (z * z + 1).is_zero()]
        if not cands:
            raise ValueError("the field has no primitive fourth root of unity")
        i = min(cands, key=lambda z: z.to_int())
    else:
        i = field.element(i)
        if not (i * i + 1).is_zero():
            raise ValueError("i must square to -1")
    if b is None:
        b = next(z for z in field.elements()
                 if not z.is_zero()
                 and (z ** ((field.order - 1) // 2)).to_int() != 1)
    else:
        b = field.element(b)
    a = b * (i * 4 - 3)
    return quintic_pair_map(field, a, b)
