"""Univariate and bivariate polynomial arithmetic and factorization over
finite fields, including the absolute-irreducibility classification of
plane-curve factors.

The univariate factorizer is the classical squarefree / distinct-degree /
equal-degree pipeline with a configuration-fixed seed for the randomized
splits.  The bivariate factorizer specializes along a line, factors the
specialization, Hensel-lifts to twice the x-degree bound, and recombines
by exhaustive subset search with exact trial division.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .config import DEFAULT_CONFIG
from .errors import (
    DegreeCapExceeded,
    DivisionByZero,
    MixedFields,
    NotSquarefree,
)
from .gf import Fel, Field, extension, prime_factors


class UPoly:
    """Dense univariate polynomial over a Field, coefficients low to high."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        cs = [field.element(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def from_roots(cls, field, roots):
        out = cls.one(field)
        for r in roots:
            out = out * cls(field, (-field.element(r), field.one()))
        return out

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self):
        """Degree; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def lc(self):
        if not self.coeffs:
            raise DivisionByZero("leading coefficient of zero polynomial")
        return self.coeffs[-1]

    def coefficient(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero()

    def __eq__(self, other):
        return (
            isinstance(other, UPoly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.field.p, self.field.modulus))

    def __repr__(self):
        return f"UPoly({[c.to_int() for c in self.coeffs]} over {self.field!r})"

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, UPoly):
            if other.field is not self.field:
                raise MixedFields("polynomials over different fields")
            return other
        if isinstance(other, (Fel, int)):
            return UPoly(self.field, (self.field.element(other),))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        z = self.field.zero()
        out = [
            (self.coeffs[i] if i < len(self.coeffs) else z)
            + (o.coeffs[i] if i < len(o.coeffs) else z)
            for i in range(n)
        ]
        return UPoly(self.field, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return UPoly(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (Fel, int)):
            c = self.field.element(other)
            return UPoly(self.field, tuple(a * c for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return UPoly.zero(self.field)
        z = self.field.zero()
        out = [z] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(o.coeffs):
                    out[i + j] = out[i + j] + a * b
        return UPoly(self.field, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by the zero polynomial")
        if self.degree < o.degree:
            return UPoly.zero(self.field), self
        inv = o.lc().inverse()
        rem = list(self.coeffs)
        do = o.degree
        q = [self.field.zero()] * (len(rem) - do)
        while len(rem) - 1 >= do and rem:
            c = rem[-1] * inv
            off = len(rem) - 1 - do
            q[off] = c
            for i in range(do + 1):
                rem[off + i] = rem[off + i] - c * o.coeffs[i]
            while rem and rem[-1].is_zero():
                rem.pop()
        return UPoly(self.field, q), UPoly(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        result = UPoly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- calculus and transforms -------------------------------------------------

    def derivative(self):
        out = [self.coeffs[i] * i for i in range(1, len(self.coeffs))]
        return UPoly(self.field, out)

    def monic(self):
        if self.is_zero():
            return self
        inv = self.lc().inverse()
        return UPoly(self.field, tuple(c * inv for c in self.coeffs))

    def evaluate(self, x):
        x = self.field.element(x)
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner):
        """self(inner(x)) for a UPoly inner."""
        inner = self._coerce(inner)
        acc = UPoly.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * inner + UPoly.constant(self.field, c)
        return acc

    def shift(self, a):
        """self(x + a)."""
        a = self.field.element(a)
        return self.compose(UPoly(self.field, (a, self.field.one())))

    def truncate(self, prec):
        return UPoly(self.field, self.coeffs[:prec])

    def map_coefficients(self, fn, new_field):
        return UPoly(new_field, tuple(fn(c) for c in self.coeffs))


def upoly_gcd(f, g):
    """Monic greatest common divisor."""
    if not isinstance(f, UPoly) or not isinstance(g, UPoly):
        raise TypeError("upoly_gcd expects UPoly operands")
    if f.field is not g.field:
        raise MixedFields("polynomials over different fields")
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def upoly_ext_gcd(f, g):
    """(d, s, t) with s*f + t*g = d and d the monic gcd."""
    if f.field is not g.field:
        raise MixedFields("polynomials over different fields")
    fld = f.field
    a, b = f, g
    sa, sb = UPoly.one(fld), UPoly.zero(fld)
    ta, tb = UPoly.zero(fld), UPoly.one(fld)
    while not b.is_zero():
        q, r = divmod(a, b)
        a, b = b, r
        sa, sb = sb, sa - q * sb
        ta, tb = tb, ta - q * tb
    if a.is_zero():
        return a, sa, ta
    inv = a.lc().inverse()
    return a * inv, sa * inv, ta * inv


def pow_mod(base, e, mod):
    """base^e mod mod for a nonnegative integer exponent."""
    result = UPoly.one(base.field)
    b = base % mod
    while e:
        if e & 1:
            result = (result * b) % mod
        b = (b * b) % mod
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# Univariate factorization.


def _pth_root_fel(c):
    # every element of F_{p^k} has the unique p-th root c^(p^(k-1))
    f = c.field
    return c ** (f.p ** (f.k - 1))


def _pth_root_upoly(f):
    p = f.field.p
    out = []
    for i in range(0, f.degree + 1, p):
        out.append(_pth_root_fel(f.coefficient(i)))
    return UPoly(f.field, out)


def squarefree_decomposition(f):
    """Monic squarefree decomposition [(g_i, e_i)] with f = lc * prod g_i^e_i.

    Complete in characteristic p: inseparable residues are handled by
    exact p-th root extraction.
    """
    if f.is_zero():
        raise DivisionByZero("squarefree decomposition of zero")
    f = f.monic()
    if f.degree == 0:
        return []
    df = f.derivative()
    if df.is_zero():
        g = _pth_root_upoly(f)
        return [(h, e * f.field.p) for h, e in squarefree_decomposition(g)]
    out = []
    c = upoly_gcd(f, df)
    w = f // c
    i = 1
    while w.degree > 0:
        y = upoly_gcd(w, c)
        z = w // y
        if z.degree > 0:
            out.append((z, i))
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        out.extend((h, e * f.field.p) for h, e in squarefree_decomposition(_pth_root_upoly(c)))
    return out


def distinct_degree_split(f):
    """[(d, product of the irreducible factors of degree d)] for monic
    squarefree f, ascending in d."""
    fld = f.field
    out = []
    x = UPoly.x(fld)
    h = x
    rem = f
    d = 0
    while rem.degree > 0:
        d += 1
        if 2 * d > rem.degree:
            out.append((rem.degree, rem))
            break
        h = pow_mod(h, fld.order, rem)
        g = upoly_gcd(h - x, rem)
        if g.degree > 0:
            out.append((d, g))
            rem = rem // g
            h = h % rem
    return out


def splitting_type(f):
    """Sorted multiset of irreducible-factor degrees of squarefree monic f.

    Uses distinct-degree splitting only, so no randomized steps run."""
    f = f.monic()
    degs = []
    for d, prod in distinct_degree_split(f):
        degs.extend([d] * (prod.degree // d))
    return tuple(sorted(degs))


def _equal_degree_split(f, d, rng):
    """All monic irreducible factors of f, where every factor has degree d."""
    fld = f.field
    if f.degree == d:
        return [f]
    q = fld.order
    stack = [f]
    out = []
    while stack:
        g = stack.pop()
        if g.degree == d:
            out.append(g)
            continue
        while True:
            a = UPoly(fld, [fld.from_int(rng.randrange(q)) for _ in range(g.degree)])
            if a.degree < 1:
                continue
            if fld.p == 2:
                # trace map splitting for characteristic two
                t = a % g
                tr = t
                for _ in range(fld.k * d - 1):
                    t = (t * t) % g
                    tr = (tr + t) % g
                h = upoly_gcd(tr, g)
            else:
                b = pow_mod(a, (q**d - 1) // 2, g)
                h = upoly_gcd(b - UPoly.one(fld), g)
            if 0 < h.degree < g.degree:
                stack.append(h)
                stack.append(g // h)
                break
    return out


@dataclass(frozen=True)
class FactorCertificate:
    """A complete factorization: unit * prod(poly^multiplicity) = input."""

    field: Field
    unit: Fel
    factors: tuple
    bivariate: bool = False

    def product(self):
        acc = BPoly.one(self.field) if self.bivariate else UPoly.one(self.field)
        for poly, mult in self.factors:
            acc = acc * poly**mult
        return acc * self.unit

    def recheck(self, config=DEFAULT_CONFIG):
        """True when every listed factor passes an irreducibility re-test."""
        for poly, _ in self.factors:
            if isinstance(poly, UPoly):
                if not is_irreducible(poly):
                    return False
            else:
                cert = factor_bivariate(poly, config)
                if len(cert.factors) != 1 or cert.factors[0][1] != 1:
                    return False
        return True


def _sort_key_upoly(f):
    return (f.degree, tuple(c.to_int() for c in f.coeffs))


def factor_univariate(f, config=DEFAULT_CONFIG):
    """Complete factorization of a nonzero UPoly into monic irreducibles."""
    if f.is_zero():
        raise DivisionByZero("factorization of the zero polynomial")
    unit = f.lc()
    rng = random.Random(config.seed)
    factors = []
    for g, mult in squarefree_decomposition(f):
        for d, prod in distinct_degree_split(g):
            for irr in _equal_degree_split(prod, d, rng):
                factors.append((irr, mult))
    factors.sort(key=lambda pair: _sort_key_upoly(pair[0]))
    return FactorCertificate(f.field, unit, tuple(factors))


def roots(f, config=DEFAULT_CONFIG):
    """Distinct roots of f in its own field, sorted in enumeration order."""
    if f.is_zero():
        raise DivisionByZero("roots of the zero polynomial")
    fld = f.field
    sqf = UPoly.one(fld)
    for g, _ in squarefree_decomposition(f):
        sqf = sqf * g
    x = UPoly.x(fld)
    linear_part = upoly_gcd(pow_mod(x, fld.order, sqf) - x, sqf)
    rng = random.Random(config.seed)
    out = []
    if linear_part.degree > 0:
        for irr in _equal_degree_split(linear_part, 1, rng):
            out.append(-irr.coefficient(0))
    out.sort(key=lambda r: r.to_int())
    return out


def is_irreducible(f):
    """Deterministic irreducibility test for a UPoly of degree >= 1."""
    n = f.degree
    if n < 1:
        return False
    if n == 1:
        return True
    fld = f.field
    f = f.monic()
    x = UPoly.x(fld)
    xq = pow_mod(x, fld.order, f)
    # x^(Q^n) must reduce to x, and no proper Frobenius power may share a factor
    powers = {1: xq}
    h = xq
    for i in range(2, n + 1):
        h = pow_mod(h, fld.order, f)
        powers[i] = h
    if powers[n] != x % f:
        return False
    for t in prime_factors(n):
        if upoly_gcd(powers[n // t] - x, f).degree != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Bivariate polynomials.


class BPoly:
    """Dense bivariate polynomial stored as UPoly-in-x coefficients of
    powers of y."""

    __slots__ = ("field", "ycoeffs")

    def __init__(self, field, ycoeffs=()):
        cs = []
        for c in ycoeffs:
            if isinstance(c, UPoly):
                if c.field is not field:
                    raise MixedFields("coefficient over a different field")
                cs.append(c)
            else:
                cs.append(UPoly(field, c))
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.ycoeffs = tuple(cs)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (UPoly.one(field),))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (UPoly.constant(field, c),))

    @classmethod
    def from_x_poly(cls, f):
        return cls(f.field, (f,))

    @classmethod
    def from_y_poly(cls, f):
        return cls(f.field, tuple(UPoly.constant(f.field, c) for c in f.coeffs))

    @classmethod
    def from_grid(cls, field, rows):
        """rows[i][j] is the coefficient of x^i y^j."""
        if not rows:
            return cls.zero(field)
        ny = max(len(r) for r in rows)
        ycs = []
        for j in range(ny):
            ycs.append(UPoly(field, [
                (rows[i][j] if j < len(rows[i]) else 0) for i in range(len(rows))
            ]))
        return cls(field, ycs)

    # -- queries ----------------------------------------------------------------

    @property
    def deg_y(self):
        return len(self.ycoeffs) - 1

    @property
    def deg_x(self):
        return max((c.degree for c in self.ycoeffs), default=-1)

    @property
    def total_degree(self):
        best = -1
        for j, c in enumerate(self.ycoeffs):
            for i, a in enumerate(c.coeffs):
                if not a.is_zero():
                    best = max(best, i + j)
        return best

    def is_zero(self):
        return not self.ycoeffs

    def coefficient(self, i, j):
        if 0 <= j < len(self.ycoeffs):
            return self.ycoeffs[j].coefficient(i)
        return self.field.zero()

    def __eq__(self, other):
        return (
            isinstance(other, BPoly)
            and self.field is other.field
            and self.ycoeffs == other.ycoeffs
        )

    def __hash__(self):
        return hash((self.ycoeffs, self.field.p, self.field.modulus))

    def __repr__(self):
        return f"BPoly(deg_x={self.deg_x}, deg_y={self.deg_y} over {self.field!r})"

    # -- arithmetic ---------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, BPoly):
            if other.field is not self.field:
                raise MixedFields("polynomials over different fields")
            return other
        if isinstance(other, UPoly):
            return BPoly.from_x_poly(other)
        if isinstance(other, (Fel, int)):
            return BPoly.constant(self.field, self.field.element(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.ycoeffs), len(o.ycoeffs))
        zero = UPoly.zero(self.field)
        out = [
            (self.ycoeffs[j] if j < len(self.ycoeffs) else zero)
            + (o.ycoeffs[j] if j < len(o.ycoeffs) else zero)
            for j in range(n)
        ]
        return BPoly(self.field, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return BPoly(self.field, tuple(-c for c in self.ycoeffs))

    def __mul__(self, other):
        if isinstance(other, (Fel, int, UPoly)):
            c = other if isinstance(other, UPoly) else UPoly.constant(
                self.field, self.field.element(other))
            return BPoly(self.field, tuple(a * c for a in self.ycoeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return BPoly.zero(self.field)
        zero = UPoly.zero(self.field)
        out = [zero] * (len(self.ycoeffs) + len(o.ycoeffs) - 1)
        for i, a in enumerate(self.ycoeffs):
            if not a.is_zero():
                for j, b in enumerate(o.ycoeffs):
                    out[i + j] = out[i + j] + a * b
        return BPoly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        result = BPoly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- transforms ------------------------------------------------------------------

    def swap_vars(self):
        """Exchange the roles of x and y."""
        nx, ny = self.deg_x + 1, self.deg_y + 1
        return BPoly(self.field, [
            UPoly(self.field, [self.coefficient(i, j) for j in range(ny)])
            for i in range(nx)
        ])

    def substitute_x(self, x0):
        """UPoly in y obtained by fixing x = x0."""
        x0 = self.field.element(x0)
        return UPoly(self.field, [c.evaluate(x0) for c in self.ycoeffs])

    def evaluate(self, x0, y0):
        return self.substitute_x(x0).evaluate(y0)

    def derivative_y(self):
        out = [self.ycoeffs[j] * j for j in range(1, len(self.ycoeffs))]
        return BPoly(self.field, out)

    def derivative_x(self):
        return BPoly(self.field, tuple(c.derivative() for c in self.ycoeffs))

    def shift_x(self, a):
        return BPoly(self.field, tuple(c.shift(a) for c in self.ycoeffs))

    def map_coefficients(self, fn, new_field):
        return BPoly(new_field, tuple(c.map_coefficients(fn, new_field)
                                      for c in self.ycoeffs))

    def canonical(self):
        """Unit-normalized form: the coefficient of the highest monomial
        (y-degree first, then x-degree) is scaled to one."""
        if self.is_zero():
            return self
        lead = self.ycoeffs[-1].lc()
        if lead.to_int() == 1:
            return self
        return self * lead.inverse()

    def eval_proj(self, P, Q):
        """Value of the bihomogenization at a pair of projective points.

        P and Q are ProjPoint-like objects exposing ``is_infinity`` and
        ``x``; the zero set of this evaluation is the closure of the
        affine curve inside the product of two projective lines.
        """
        dx, dy = self.deg_x, self.deg_y
        fld = self.field
        if not P.is_infinity and not Q.is_infinity:
            return self.evaluate(P.x, Q.x)
        if P.is_infinity and Q.is_infinity:
            return self.coefficient(dx, dy)
        if P.is_infinity:
            # only the x-leading terms survive
            return UPoly(fld, [self.coefficient(dx, j) for j in range(dy + 1)]
                         ).evaluate(Q.x)
        return UPoly(fld, [self.coefficient(i, dy) for i in range(dx + 1)]
                     ).evaluate(P.x)


def content_y(F):
    """Monic gcd in F_q[x] of the y-coefficients."""
    acc = UPoly.zero(F.field)
    for c in F.ycoeffs:
        acc = upoly_gcd(acc, c)
        if acc.degree == 0 and not acc.is_zero():
            break
    return acc


def primitive_part_y(F):
    c = content_y(F)
    if c.degree <= 0:
        return F
    return BPoly(F.field, tuple(a // c for a in F.ycoeffs))


def bpoly_div_exact(F, G):
    """Quotient F / G in F_q[x][y], or None when G does not divide F."""
    if G.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if F.is_zero():
        return BPoly.zero(F.field)
    if G.deg_y == 0:
        g = G.ycoeffs[0]
        out = []
        for c in F.ycoeffs:
            q, r = divmod(c, g)
            if not r.is_zero():
                return None
            out.append(q)
        return BPoly(F.field, out)
    if F.deg_y < G.deg_y:
        return None
    rem = list(F.ycoeffs)
    glc = G.ycoeffs[-1]
    dg = G.deg_y
    qcoeffs = [UPoly.zero(F.field)] * (len(rem) - dg)
    while len(rem) - 1 >= dg and rem:
        q, r = divmod(rem[-1], glc)
        if not r.is_zero():
            return None
        off = len(rem) - 1 - dg
        qcoeffs[off] = q
        for i in range(dg + 1):
            rem[off + i] = rem[off + i] - q * G.ycoeffs[i]
        while rem and rem[-1].is_zero():
            rem.pop()
    if rem:
        return None
    return BPoly(F.field, qcoeffs)


def _prem_y(A, B):
    """Pseudo-remainder of A by B in (F_q[x])[y]."""
    da, db = A.deg_y, B.deg_y
    if da < db:
        return A
    lb = B.ycoeffs[-1]
    rem = list(A.ycoeffs)
    for _ in range(da - db + 1):
        if len(rem) - 1 < db:
            break
        lead = rem[-1]
        rem = [c * lb for c in rem]
        off = len(rem) - 1 - db
        for i in range(db + 1):
            rem[off + i] = rem[off + i] - lead * B.ycoeffs[i]
        rem.pop()
        while rem and rem[-1].is_zero():
            rem.pop()
    return BPoly(A.field, rem)


def bgcd(F, G):
    """Greatest common divisor in F_q[x, y], canonically normalized."""
    if F.is_zero():
        return G.canonical()
    if G.is_zero():
        return F.canonical()
    if F.deg_y == 0 and G.deg_y == 0:
        return BPoly.from_x_poly(upoly_gcd(F.ycoeffs[0], G.ycoeffs[0])).canonical()
    if F.deg_y == 0:
        return BPoly.from_x_poly(upoly_gcd(F.ycoeffs[0], content_y(G))).canonical()
    if G.deg_y == 0:
        return BPoly.from_x_poly(upoly_gcd(G.ycoeffs[0], content_y(F))).canonical()
    c = upoly_gcd(content_y(F), content_y(G))
    a, b = primitive_part_y(F), primitive_part_y(G)
    if a.deg_y < b.deg_y:
        a, b = b, a
    while not b.is_zero():
        r = _prem_y(a, b)
        a, b = b, primitive_part_y(r)
    return (a * c).canonical()


def _pth_root_bpoly(F):
    p = F.field.p
    ny = F.deg_y
    nx = F.deg_x
    ycs = []
    for j in range(0, ny + 1, p):
        row = []
        for i in range(0, nx + 1, p):
            row.append(_pth_root_fel(F.coefficient(i, j)))
        ycs.append(UPoly(F.field, row))
    return BPoly(F.field, ycs)


def _compress_y(F):
    """Substitute y^p -> y when every y-exponent is divisible by p."""
    p = F.field.p
    ycs = [F.ycoeffs[j] for j in range(0, F.deg_y + 1, p)]
    return BPoly(F.field, ycs)


def _series_inverse(u, prec):
    """Power series inverse of u mod x^prec; u(0) must be nonzero."""
    fld = u.field
    c0 = u.coefficient(0)
    if c0.is_zero():
        raise DivisionByZero("series inverse of a non-unit")
    inv0 = c0.inverse()
    out = [inv0]
    for n in range(1, prec):
        acc = fld.zero()
        for i in range(1, min(n, u.degree) + 1):
            acc = acc + u.coefficient(i) * out[n - i]
        out.append(-inv0 * acc)
    return UPoly(fld, out)


def _ylist_mul_trunc(a, b, prec, fld):
    zero = UPoly.zero(fld)
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai.is_zero():
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj).truncate(prec)
    while out and out[-1].is_zero():
        out.pop()
    return out


def _hensel_lift_factors(Wstar_list, u_factors, prec, fld):
    """Lift monic coprime u_i over F_q to monic factors of the monic
    series polynomial Wstar modulo x^prec."""
    r = len(u_factors)
    # Bezout data: lam_i * prod_{l != i} u_l = 1 mod u_i
    lams = []
    for i in range(r):
        rest = UPoly.one(fld)
        for l in range(r):
            if l != i:
                rest = (rest * u_factors[l]) % u_factors[i]
        _, s, _ = upoly_ext_gcd(rest, u_factors[i])
        lams.append(s % u_factors[i])
    lifted = [[UPoly.constant(fld, c) for c in u.coeffs] for u in u_factors]
    for j in range(1, prec):
        prod = [UPoly.one(fld)]
        for w in lifted:
            prod = _ylist_mul_trunc(prod, w, prec, fld)
        # error coefficient at x^j as a polynomial in y
        ecs = []
        for t in range(len(Wstar_list)):
            wc = Wstar_list[t] if t < len(Wstar_list) else UPoly.zero(fld)
            pc = prod[t] if t < len(prod) else UPoly.zero(fld)
            ecs.append((wc - pc).coefficient(j))
        e_j = UPoly(fld, ecs)
        if e_j.is_zero():
            continue
        for i in range(r):
            delta = (lams[i] * e_j) % u_factors[i]
            if delta.is_zero():
                continue
            w = lifted[i]
            for t, dc in enumerate(delta.coeffs):
                if not dc.is_zero():
                    base = w[t] if t < len(w) else UPoly.zero(fld)
                    cs = list(base.coeffs) + [fld.zero()] * (j + 1 - len(base.coeffs))
                    cs[j] = cs[j] + dc
                    w[t] = UPoly(fld, cs)
    return lifted


def _specialization_ok(W, x0):
    u = W.substitute_x(x0)
    if u.degree != W.deg_y:
        return None
    if upoly_gcd(u, u.derivative()).degree != 0:
        return None
    return u


def _frobenius_bpoly(F, power):
    """Apply the coefficient Frobenius z -> z^power."""
    return BPoly(F.field, tuple(
        UPoly(F.field, tuple(c ** power for c in yc.coeffs)) for yc in F.ycoeffs))


def _hensel_factor_squarefree(W, config):
    """Irreducible factors of W: primitive, squarefree, separable in y."""
    fld = W.field
    n = W.deg_y
    if n == 1:
        return [W.canonical()]
    # pick the first specialization line that preserves degree and
    # squarefreeness; extend the base field when no line works
    x0 = None
    for cand in fld.elements():
        if _specialization_ok(W, cand) is not None:
            x0 = cand
            break
    if x0 is None:
        for e in itertools.count(2):
            ext, emb = extension(fld, e)
            We = W.map_coefficients(emb, ext)
            x0e = None
            for cand in ext.elements():
                if _specialization_ok(We, cand) is not None:
                    x0e = cand
                    break
            if x0e is None:
                continue
            ext_factors = _hensel_at_line(We, x0e, config)
            return _merge_frobenius_orbits(ext_factors, fld, emb)
    return _hensel_at_line(W, x0, config)


def _merge_frobenius_orbits(ext_factors, base_field, emb):
    """Group conjugate factors over the extension and push the orbit
    products down to the base field."""
    q = base_field.order
    remaining = {f.canonical() for f in ext_factors}
    out = []
    while remaining:
        g = min(remaining, key=_sort_key_bpoly)
        orbit = [g]
        remaining.discard(g)
        h = _frobenius_bpoly(g, q).canonical()
        while h != g:
            remaining.discard(h)
            orbit.append(h)
            h = _frobenius_bpoly(h, q).canonical()
        prod = orbit[0]
        for f in orbit[1:]:
            prod = prod * f
        prod = prod.canonical()
        down = prod.map_coefficients(emb.section, base_field)
        out.append(down.canonical())
    return out


def _sort_key_bpoly(F):
    return (
        F.deg_y,
        F.deg_x,
        tuple(tuple(c.to_int() for c in yc.coeffs) for yc in F.ycoeffs),
    )


def _hensel_at_line(W, x0, config):
    """Factor W (primitive, squarefree, y-separable) along the line x = x0,
    which must preserve y-degree and squarefreeness."""
    fld = W.field
    n = W.deg_y
    dx = max(W.deg_x, 0)
    prec = 2 * dx + 1
    Ws = W.shift_x(x0)
    lcy = Ws.ycoeffs[-1]
    linv = _series_inverse(lcy, prec)
    wstar = [(c * linv).truncate(prec) for c in Ws.ycoeffs]
    wstar[-1] = UPoly.one(fld)
    u = UPoly(fld, [c.coefficient(0) for c in wstar])
    cert = factor_univariate(u, config)
    u_factors = [g for g, _ in cert.factors]
    if len(u_factors) == 1:
        return [W.canonical()]
    lifted = _hensel_lift_factors(wstar, u_factors, prec, fld)
    active = list(range(len(u_factors)))
    remaining = Ws
    found = []
    progress = True
    while progress and len(active) > 1:
        progress = False
        for size in range(1, len(active)):
            for subset in itertools.combinations(active, size):
                cand = [remaining.ycoeffs[-1].truncate(prec)]
                for i in subset:
                    cand = _ylist_mul_trunc(cand, lifted[i], prec, fld)
                H = BPoly(fld, cand)
                H = primitive_part_y(H).canonical()
                # the candidate must specialize to exactly its subset
                spec = H.substitute_x(fld.zero())
                if spec.degree != H.deg_y:
                    continue
                expect = UPoly.one(fld)
                for i in subset:
                    expect = expect * u_factors[i]
                if spec.monic() != expect:
                    continue
                quo = bpoly_div_exact(remaining, H)
                if quo is None:
                    continue
                found.append(H.shift_x(-fld.element(x0)).canonical())
                remaining = quo
                active = [i for i in active if i not in subset]
                progress = True
                break
            if progress:
                break
    if remaining.deg_y > 0:
        found.append(primitive_part_y(remaining).shift_x(-fld.element(x0)).canonical())
    return found


def _distinct_bivariate_factors(F, config):
    """Set of canonical irreducible factors of a nonconstant BPoly."""
    fld = F.field
    out = set()
    if F.deg_y == 0:
        cert = factor_univariate(F.ycoeffs[0], config)
        return {BPoly.from_x_poly(g).canonical() for g, _ in cert.factors}
    if F.deg_x == 0:
        yp = UPoly(fld, [c.coefficient(0) for c in F.ycoeffs])
        cert = factor_univariate(yp, config)
        return {BPoly.from_y_poly(g).canonical() for g, _ in cert.factors}
    cont = content_y(F)
    if cont.degree > 0:
        cert = factor_univariate(cont, config)
        out.update(BPoly.from_x_poly(g).canonical() for g, _ in cert.factors)
    P = primitive_part_y(F)
    if P.deg_y == 0:
        return out
    Px, Py = P.derivative_x(), P.derivative_y()
    if Px.is_zero() and Py.is_zero():
        out.update(_distinct_bivariate_factors(_pth_root_bpoly(P), config))
        return out
    G = P
    if not Px.is_zero():
        G = bgcd(G, Px)
    else:
        G = bgcd(G, Py)
    if not Py.is_zero() and not Px.is_zero():
        G = bgcd(G, Py)
    W = bpoly_div_exact(P, G)
    assert W is not None, "gcd must divide"
    if W.total_degree > 0:
        out.update(_factor_squarefree_primitive(W.canonical(), config))
    # divide out everything found so far; the residue is a p-th power
    R = P
    for g in out:
        while True:
            quo = bpoly_div_exact(R, g)
            if quo is None:
                break
            R = quo
    if R.total_degree > 0:
        out.update(_distinct_bivariate_factors(R, config))
    return out


def _factor_squarefree_primitive(W, config):
    """Irreducible factors of a squarefree primitive W with deg_y >= 1,
    allowing y-inseparable factors."""
    fld = W.field
    out = set()
    if W.deg_y == 0:
        cert = factor_univariate(W.ycoeffs[0], config)
        return {BPoly.from_x_poly(g).canonical() for g, _ in cert.factors}
    Wy = W.derivative_y()
    if Wy.is_zero():
        V = _compress_y(W)
        inner = _factor_squarefree_primitive(V.canonical(), config)
        expanded = set()
        p = fld.p
        for g in inner:
            ycs = []
            for j, c in enumerate(g.ycoeffs):
                while len(ycs) < j * p:
                    ycs.append(UPoly.zero(fld))
                ycs.append(c)
            expanded.add(BPoly(fld, ycs).canonical())
        return expanded
    A = bgcd(W, Wy)
    if A.total_degree > 0:
        W1 = bpoly_div_exact(W, A)
        assert W1 is not None
        out.update(_factor_squarefree_primitive(A.canonical(), config))
        if W1.deg_y >= 1:
            out.update(_hensel_factor_squarefree(primitive_part_y(W1).canonical(),
                                                 config))
        elif W1.total_degree > 0:
            out.update(_distinct_bivariate_factors(W1, config))
        return out
    out.update(_hensel_factor_squarefree(W, config))
    return out


def factor_bivariate(F, config=DEFAULT_CONFIG):
    """Complete factorization of a nonzero BPoly into canonical
    irreducibles with multiplicities."""
    if F.is_zero():
        raise DivisionByZero("factorization of the zero polynomial")
    cap = config.bivariate_degree_cap
    if F.deg_x > cap or F.deg_y > cap:
        raise DegreeCapExceeded(
            f"bidegree ({F.deg_x}, {F.deg_y}) exceeds the cap {cap}")
    if F.total_degree == 0:
        return FactorCertificate(F.field, F.coefficient(0, 0), (), bivariate=True)
    distinct = _distinct_bivariate_factors(F, config)
    factors = []
    R = F
    for g in sorted(distinct, key=_sort_key_bpoly):
        mult = 0
        while True:
            quo = bpoly_div_exact(R, g)
            if quo is None:
                break
            R = quo
            mult += 1
        assert mult > 0, "discovered factor must divide"
        factors.append((g, mult))
    assert R.total_degree == 0, "residue after factor removal must be a unit"
    return FactorCertificate(F.field, R.coefficient(0, 0), tuple(factors),
                             bivariate=True)


# ---------------------------------------------------------------------------
# Geometric (absolute) irreducibility.


@dataclass(frozen=True)
class GeometricFactor:
    """Classification of one F_q-irreducible factor of a plane curve."""

    factor: BPoly
    components: int
    absolutely_irreducible: bool
    field_of_definition_degree: int


def absolute_component_count(G, config=DEFAULT_CONFIG):
    """Number of absolutely irreducible components of an F_q-irreducible
    bivariate polynomial, computed by factoring over the extension of
    degree equal to its total degree."""
    D = G.total_degree
    if D <= 1:
        return 1
    ext, emb = extension(G.field, D)
    Ge = G.map_coefficients(emb, ext)
    cert = factor_bivariate(Ge, config)
    return sum(m for _, m in cert.factors)


def geometric_components(F, config=DEFAULT_CONFIG):
    """Per-factor component counts for a squarefree bivariate polynomial.

    Every F_q-irreducible factor G is factored over F_{Q^D} with D its
    total degree; the factor is absolutely irreducible exactly when it
    stays irreducible there, and the number of components equals the
    degree of each component's field of definition.
    """
    if F.is_zero():
        raise DivisionByZero("geometric components of the zero polynomial")
    cert = factor_bivariate(F, config)
    if any(m > 1 for _, m in cert.factors):
        raise NotSquarefree("input has a repeated factor")
    out = []
    for G, _ in cert.factors:
        c = absolute_component_count(G, config)
        out.append(GeometricFactor(G, c, c == 1, c))
    return tuple(out)
