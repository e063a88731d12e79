"""The exceptionality decision for rational self-maps of the line.

Builds the nondiagonal fiber-product polynomial, classifies each of its
arithmetic factors as absolutely irreducible or split over an extension,
and derives the verdict: the cover is exceptional exactly when no
nondiagonal factor is absolutely irreducible.  Structural validators
check the intersection and point-count facts the verdict relies on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import lcm

from .config import DEFAULT_CONFIG
from .errors import (
    CapExceeded,
    DegreeCapExceeded,
    NotSeparable,
    PreconditionFailed,
)
from .covers import INFINITY, ProjPoint, RationalMap, _images
from .gf import Fel
from .polyfactor import (
    BPoly,
    UPoly,
    _ComponentFields,
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
class FactorClassification(_ComponentFields):
    """One arithmetic factor of the fiber-product polynomial.

    ``points`` holds the factor's rational points, ``factor_points`` on
    the map's same-fiber rows, or None when q exceeds the enumeration
    cap; ``affine_points`` counts the finite ones among them.
    """

    poly: BPoly
    multiplicity: int
    components: int
    points: tuple = None

    @property
    def affine_points(self):
        if self.points is None:
            return None
        return sum(1 for P, Q in self.points
                   if not (P.is_infinity or Q.is_infinity))


@dataclass(frozen=True)
class ExceptionalityReport:
    """Verdict plus the factor-level certificate it rests on.

    ``component_definition_lcm`` is the least common multiple of the
    factors' fields of definition; it is a report field only, used to
    schedule which extension degrees keep the verdict meaningful.  The
    validators read each factor's points from its row.
    """

    map: RationalMap
    phi: BPoly
    factors: tuple
    exceptional: bool
    component_definition_lcm: int
    diagonal_recurrence: bool


def _diagonal_canonical(field):
    # y - x, which is the canonical scaling of x - y
    return BPoly(field, [UPoly(field, (0, -1)), 1])


def decide_exceptional(f, config=DEFAULT_CONFIG):
    """Factor the nondiagonal fiber product and classify each factor."""
    # Phi has bidegree exactly (n - 1, n - 1): refuse it before building it
    n, cap = f.degree, config.bivariate_degree_cap
    if n - 1 > cap:
        raise DegreeCapExceeded(
            f"bidegree ({n - 1}, {n - 1}) exceeds the cap {cap}")
    phi = fiber_product_poly(f)
    cert = factor_bivariate(phi, config)
    diag = _diagonal_canonical(f.field)
    # points only while the walk over F_q stays within the enumeration cap
    scan = f.field.order <= config.enumeration_cap
    if scan:  # rows (P, the Q with f(Q) = f(P)); code q is infinity, fixed by f
        images = [*_images(f), None]
        fibers = {}
        for x, t in enumerate(images):
            fibers.setdefault(t, []).append(x)
        pairs = [(P, fibers[t]) for P, t in enumerate(images)]
    rows = []
    for G, mult in cert.factors:
        rows.append(FactorClassification(
            poly=G,
            multiplicity=mult,
            components=absolute_component_count(G, config),
            points=tuple(factor_points(G, pairs)) if scan else None,
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
    )


def factor_points(G, candidates):
    """Rational points (P, Q) of the closure of G = 0 in the product of
    two projective lines among the candidates, in their scan order.

    Candidates are rows (P, Qs) of codes, q standing for infinity; rows
    listed by P, each Qs ascending, give P-then-Q order.  One slice of G
    per row: a finite P substitutes x, P = infinity keeps the x-leading
    coefficients.  A finite Q is a root of the slice, Q = infinity when
    the slice's y^deg_y coefficient vanishes.

    For a factor G of Phi, the fiber product of f = p/r of degree n, the
    pairs with f(P) = f(Q) suffice: G's bihomogenization divides that of
    (x - y) Phi, p(X) r(Y) - p(Y) r(X) with p, r homogenized to degree
    n.  Coprime with deg p = n, they have no common zero on the line, so
    this form vanishes exactly where f(X) = f(Y), in every chart.  Those
    are at most n(q+1) pairs, so one factor costs O(q) slices and tests.
    """
    fld, dx, dy = G.field, G.deg_x, G.deg_y
    q = fld.order
    pts = [ProjPoint(Fel(fld, v)) for v in range(q)] + [INFINITY]
    out = []
    for P, Qs in candidates:
        if P == q:
            slice_y = UPoly(fld, [c.coefficient(dx) for c in G.ycoeffs])
        else:
            slice_y = G._at_x(P)
        out.extend((pts[P], pts[Q]) for Q in Qs
                   if (slice_y.degree < dy if Q == q else not slice_y._at(Q)))
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


def _row_points(row):
    if row.points is None:
        raise CapExceeded("the factor's points were not enumerated: "
                          "q exceeds the enumeration cap")
    return row.points


def validate_intersection_property(report):
    """Every rational point on two distinct factors (or on a factor and
    the diagonal) must have the map ramified at both coordinates.

    Returns the list of violations, in P-then-Q scan order; the
    structural contract is that it is empty.  Raises ``CapExceeded``
    when a row carries no points.
    """
    f = report.map
    on = Counter(pq for row in report.factors for pq in _row_points(row))
    violations = []
    for P, Q in sorted(on, key=lambda pq: (pq[0].sort_key(), pq[1].sort_key())):
        meets_several = on[P, Q] >= 2 or P == Q
        if meets_several and not (is_ramified_at(f, P) and is_ramified_at(f, Q)):
            violations.append(Violation(
                (P, Q), "intersection point with an unramified coordinate"))
    return violations


def validate_diagonal_bound(report, audit):
    """For a map injective on rational points, every nondiagonal factor
    carries at most 2 g_X + 2n - 2 rational points (g_X = 0 here).
    Raises ``CapExceeded`` when a nondiagonal row carries no points."""
    if audit.m != 1 or not audit.injective:
        raise PreconditionFailed("the audit must report injectivity at m = 1")
    f = report.map
    diag = _diagonal_canonical(f.field)
    bound = 2 * f.degree - 2
    violations = []
    for row in report.factors:
        if row.poly == diag:
            continue
        count = len(_row_points(row))
        if count > bound:
            violations.append(Violation(
                (row.poly,), f"{count} rational points exceed the bound {bound}"))
    return violations


# ---------------------------------------------------------------------------
# Named map families used by the command line and the test corpus.


def monomial_map(field, n):
    """x^n as a rational self-map."""
    return RationalMap(UPoly(field, [0] * n + [1]), UPoly.one(field))


def quintic_pair_map(field, a, b):
    """(x^5 - a x) / (x^4 - b)."""
    a, b = field.element(a), field.element(b)
    num = UPoly(field, (0, -a, 0, 0, 0, 1))
    den = UPoly(field, (-b, 0, 0, 0, 1))
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
