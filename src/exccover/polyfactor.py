"""Univariate and bivariate polynomial arithmetic and factorization over
finite fields, including the absolute-irreducibility classification of
plane-curve factors.

Both polynomial types share one dense core of ring arithmetic: a UPoly
holds the int codes of its coefficients over F_q, and a BPoly is a
polynomial in y whose coefficients are UPolys in x.

The univariate factorizer is the classical squarefree / distinct-degree /
equal-degree pipeline with a configuration-fixed seed for the randomized
splits.  The bivariate factorizer splits off the content in x and sends
the primitive part P down the first of four branches that applies (see
``_distinct_bivariate_factors``): a good line x = x0, one that keeps
deg_y and leaves P(x0, y) squarefree, whose specialization is factored,
Hensel-lifted to twice the x-degree bound and recombined by exhaustive
subset search with exact trial division; P_y = 0, through P = C(x, y^p);
gcd(P, P_y) = 1, at a good line over an extension; otherwise through the
separable part P / gcd(P, P_y).

The component count c of an F_q-irreducible factor divides gcd(deg_x,
deg_y) and every factor degree of its restriction to a good line; when
that bound e is 1 nothing more is factored.  Otherwise the count is
built as a tower of prime-degree extensions: over F_{Q^l} the factor
splits exactly when the prime l divides c, and then each of its l
factors, bounded anew over F_{Q^l}, has c / l components.  Only the
primes of e are tried, so no field beyond F_{Q^e} is built.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from functools import cache
from math import gcd

from .config import DEFAULT_CONFIG
from .errors import (
    DegreeCapExceeded,
    DivisionByZero,
    MixedFields,
    NotSquarefree,
)
from .gf import Fel, Field, extension, power, prime_factors


def _same(c):
    return c


@cache
def _code_ring(F):
    """(zero, add, sub, mul, reduce) on the codes of F; over a prime field
    exact ints, reduced mod p once per result coefficient."""
    if F.k == 1:
        p = F.p
        return 0, operator.add, operator.sub, operator.mul, lambda c: c % p
    return 0, F.add, F.sub, F.mul, _same


def _conv(R, a, b):
    """Product of the coefficient lists a and b over the ring R."""
    zero, add, _, mul, red = R
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = add(out[i + j], mul(x, y))
    return [red(c) for c in out]


def _divrem(R, rem, o, lead_quotient):
    """Schoolbook division of the list rem, which it consumes, by the list
    o over the ring R: (quotient, remainder), or None when
    ``lead_quotient(c)``, the term cancelling a leading coefficient c,
    is None.
    """
    zero, _, sub, mul, red = R
    do = len(o) - 1
    q = [zero] * max(len(rem) - do, 0)
    while len(rem) > do:
        c = red(rem.pop())
        if c:
            c = lead_quotient(c)
            if c is None:
                return None
            off = len(rem) - do
            q[off] = c
            for i in range(do):
                rem[off + i] = sub(rem[off + i], mul(c, o[i]))
    return q, [red(c) for c in rem]


class _Dense:
    """Dense polynomial in one variable over a commutative ring,
    coefficients low to high in the private tuple ``_c`` (von zur
    Gathen-Gerhard, Modern Computer Algebra, ch. 2).

    Subclasses fix the coefficient ring: ``_ring`` gives its (zero, add,
    sub, mul, reduce), and ``_scalar`` lifts one operand into it, or
    returns None when it is not a ring element.
    """

    __slots__ = ("field", "_c")

    # -- constructors

    @classmethod
    def _of(cls, field, cs):
        """The polynomial with the ring coefficients cs, trimmed."""
        while cs and not cs[-1]:
            cs = cs[:-1]
        out = object.__new__(cls)
        out.field = field
        out._c = tuple(cs)
        return out

    def _new(self, cs):
        return self._of(self.field, cs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    # -- basic queries

    @property
    def degree(self):
        """Degree; the zero polynomial reports -1."""
        return len(self._c) - 1

    def is_zero(self):
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.field is other.field
            and self._c == other._c
        )

    def __hash__(self):
        return hash(self._c)

    # -- arithmetic

    def _coerce(self, other):
        if type(other) is type(self):
            if other.field is not self.field:
                raise MixedFields("polynomials over different fields")
            return other
        c = self._scalar(other)
        return None if c is None else self._new((c,))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        _, add, _, _, red = self._ring()
        a, b = self._c, o._c
        if len(a) < len(b):
            a, b = b, a
        return self._new([red(add(x, y)) for x, y in zip(a, b)] + list(a[len(b):]))

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
        zero, _, sub, _, red = self._ring()
        return self._new([red(sub(zero, c)) for c in self._c])

    def __mul__(self, other):
        R = self._ring()
        if type(other) is not type(self):
            c = self._scalar(other)
            if c is None:
                return NotImplemented
            return self._new([R[4](R[3](a, c)) for a in self._c])
        return self._new(_conv(R, self._c, self._coerce(other)._c))

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        return power(self, e, self.one(self.field), operator.mul)

    def _divide(self, o, lead_quotient):
        """Schoolbook division by a nonzero o, as ``_divrem``."""
        out = _divrem(self._ring(), list(self._c), o._c, lead_quotient)
        return None if out is None else (self._new(out[0]), self._new(out[1]))

    def derivative(self):
        _, _, _, mul, red = self._ring()
        p = self.field.p
        return self._new([red(mul(c, i % p)) for i, c in enumerate(self._c) if i])


class UPoly(_Dense):
    """Dense univariate polynomial over a Field, coefficients low to high;
    ``coeffs`` reads them as field elements."""

    __slots__ = ()

    def __init__(self, field, coeffs=()):
        self.field = field
        self._c = self._of(field, [field.element(c).code for c in coeffs])._c

    def _ring(self):
        return _code_ring(self.field)

    def _scalar(self, c):
        return self.field._code(c)

    @property
    def coeffs(self):
        return tuple(Fel(self.field, c) for c in self._c)

    # -- constructors

    @classmethod
    def x(cls, field):
        return cls._of(field, (0, 1))

    @classmethod
    def from_roots(cls, field, roots):
        out = cls.one(field)
        for r in roots:
            out = out * cls(field, (-field.element(r), 1))
        return out

    # -- basic queries

    def lc(self):
        if not self._c:
            raise DivisionByZero("leading coefficient of zero polynomial")
        return Fel(self.field, self._c[-1])

    def coefficient(self, i):
        return Fel(self.field, self._c[i] if 0 <= i < len(self._c) else 0)

    def __repr__(self):
        return f"UPoly({list(self._c)} over {self.field!r})"

    # -- division

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by the zero polynomial")
        if self.degree < o.degree:
            return self._new(()), self
        F = self.field
        inv, mul = F.inv(o._c[-1]), F.mul
        return self._divide(o, lambda c: mul(c, inv))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- calculus and transforms

    def monic(self):
        if not self._c or self._c[-1] == 1:
            return self
        return self * Fel(self.field, self.field.inv(self._c[-1]))

    def _at(self, x):
        """Code of the value at the code x, by Horner's rule."""
        F = self.field
        acc = 0
        if F.k == 1:
            p = F.p
            for c in reversed(self._c):
                acc = (acc * x + c) % p
        else:
            add, mul = F.add, F.mul
            for c in reversed(self._c):
                acc = add(mul(acc, x), c)
        return acc

    def evaluate(self, x):
        return Fel(self.field, self._at(self.field.element(x).code))

    def shift(self, a):
        """self(x + a), by Horner's Taylor shift."""
        F, cs = self.field, list(self._c)
        a = F.element(a).code
        for i in range(len(cs) - 1):
            for j in range(len(cs) - 2, i - 1, -1):
                cs[j] = F.add(cs[j], F.mul(a, cs[j + 1]))
        return self._new(cs)

    def truncate(self, prec):
        return self._new(self._c[:prec])

    def map_coefficients(self, fn, new_field):
        return UPoly(new_field, [fn(c) for c in self.coeffs])


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
    """base^e mod mod for a nonnegative integer exponent, on code lists."""
    F = base.field
    b = list((base % mod)._c)
    R, m = _code_ring(F), mod._c
    inv, mul = F.inv(m[-1]), F.mul

    def mulmod(u, v):
        return _divrem(R, _conv(R, u, v), m, lambda c: mul(c, inv))[1]

    return UPoly._of(F, power(b, e, [1], mulmod))


# ---------------------------------------------------------------------------
# Univariate factorization.


def _pth_root_upoly(f):
    # every element of F_{p^k} has the unique p-th root c^(p^(k-1))
    F = f.field
    e = F.p ** (F.k - 1)
    return f._new([F.pow(c, e) for c in f._c[::F.p]])


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
            a = UPoly._of(fld, [rng.randrange(q) for _ in range(g.degree)])
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
    factors.sort(key=lambda pair: (pair[0].degree, pair[0]._c))
    return FactorCertificate(f.field, unit, tuple(factors))


def roots(f, config=DEFAULT_CONFIG):
    """Distinct roots of f in its own field, sorted in enumeration order."""
    if f.is_zero():
        raise DivisionByZero("roots of the zero polynomial")
    fld = f.field
    x = UPoly.x(fld)
    # x^Q - x is squarefree, so this is the product of the distinct roots
    linear_part = upoly_gcd(pow_mod(x, fld.order, f) - x, f)
    rng = random.Random(config.seed)
    out = []
    if linear_part.degree > 0:
        for irr in _equal_degree_split(linear_part, 1, rng):
            out.append(-irr.coefficient(0))
    out.sort(key=lambda r: r.to_int())
    return out


def is_irreducible(f):
    """Deterministic irreducibility test for a UPoly of degree >= 1
    (Ben-Or): f of degree n is irreducible exactly when
    gcd(x^(Q^i) - x, f) = 1 for every i <= n/2."""
    n = f.degree
    if n < 1:
        return False
    f = f.monic()
    x = UPoly.x(f.field)
    h = x
    for _ in range(n // 2):
        h = pow_mod(h, f.field.order, f)
        if upoly_gcd(h - x, f).degree > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Bivariate polynomials.


class BPoly(_Dense):
    """Dense bivariate polynomial: a polynomial in y whose coefficients,
    low to high, are UPolys in x, so it shares UPoly's ring arithmetic."""

    __slots__ = ()

    def __init__(self, field, ycoeffs=()):
        self.field = field
        cs = []
        for c in ycoeffs:
            u = self._scalar(c)
            cs.append(UPoly(field, c) if u is None else u)
        self._c = self._of(field, cs)._c

    def _ring(self):
        return UPoly._of(self.field, ()), operator.add, operator.sub, operator.mul, _same

    def _scalar(self, c):
        if isinstance(c, UPoly):
            if c.field is not self.field:
                raise MixedFields("coefficient over a different field")
            return c
        if isinstance(c, (Fel, int)):
            return UPoly(self.field, (c,))
        return None

    # -- constructors

    @classmethod
    def from_x_poly(cls, f):
        return cls._of(f.field, (f,))

    @classmethod
    def from_y_poly(cls, f):
        return cls._of(f.field, [UPoly._of(f.field, (c,)) for c in f._c])

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

    # -- queries

    deg_y = _Dense.degree

    @property
    def coeffs(self):
        """The UPolys in x, low to high in y."""
        return self._c

    ycoeffs = coeffs

    @property
    def deg_x(self):
        return max((c.degree for c in self._c), default=-1)

    @property
    def total_degree(self):
        return max((c.degree + j for j, c in enumerate(self._c) if c), default=-1)

    def coefficient(self, i, j):
        if 0 <= j < len(self._c):
            return self._c[j].coefficient(i)
        return self.field.zero()

    def __repr__(self):
        return f"BPoly(deg_x={self.deg_x}, deg_y={self.deg_y} over {self.field!r})"

    # -- transforms

    def _at_x(self, x):
        """UPoly in y at the line of code x."""
        return UPoly._of(self.field, [c._at(x) for c in self._c])

    def substitute_x(self, x0):
        """UPoly in y obtained by fixing x = x0."""
        return self._at_x(self.field.element(x0).code)

    def evaluate(self, x0, y0):
        return self.substitute_x(x0).evaluate(y0)

    derivative_y = _Dense.derivative

    def derivative_x(self):
        return self._new([c.derivative() for c in self._c])

    def shift_x(self, a):
        return self._new([c.shift(a) for c in self._c])

    def map_coefficients(self, fn, new_field):
        return BPoly(new_field, tuple(c.map_coefficients(fn, new_field)
                                      for c in self._c))

    def canonical(self):
        """Unit-normalized form: the coefficient of the highest monomial
        (y-degree first, then x-degree) is scaled to one."""
        if self.is_zero() or self._c[-1]._c[-1] == 1:
            return self
        return self * self._c[-1].lc().inverse()


def content_y(F):
    """Monic gcd in F_q[x] of the y-coefficients."""
    acc = UPoly.zero(F.field)
    for c in F.coeffs:
        acc = upoly_gcd(acc, c)
        if acc.degree == 0 and not acc.is_zero():
            break
    return acc


def primitive_part_y(F):
    c = content_y(F)
    if c.degree <= 0:
        return F
    return BPoly(F.field, tuple(a // c for a in F.coeffs))


def bpoly_div_exact(F, G):
    """Quotient F / G in F_q[x][y], or None when G does not divide F."""
    if G.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    glc = G.coeffs[-1]

    def lead_quotient(c):
        q, r = divmod(c, glc)
        return None if r else q

    out = F._divide(G, lead_quotient)
    if out is None or out[1]:
        return None
    return out[0]


def _prem_y(A, B):
    """Pseudo-remainder of A by B in (F_q[x])[y]: the remainder of
    lc_y(B)^(delta + 1) * A with delta = deg_y A - deg_y B, whose quotient
    by B has coefficients in F_q[x]."""
    if A.deg_y < B.deg_y:
        return A
    lb = B.coeffs[-1]
    scaled = A * lb ** (A.deg_y - B.deg_y + 1)
    return scaled._divide(B, lambda c: c // lb)[1]


def bgcd(F, G):
    """Greatest common divisor in F_q[x, y], canonically normalized."""
    if F.is_zero():
        return G.canonical()
    if G.is_zero():
        return F.canonical()
    if F.deg_y == 0 and G.deg_y == 0:
        return BPoly.from_x_poly(upoly_gcd(F.coeffs[0], G.coeffs[0])).canonical()
    if F.deg_y == 0:
        return BPoly.from_x_poly(upoly_gcd(F.coeffs[0], content_y(G))).canonical()
    if G.deg_y == 0:
        return BPoly.from_x_poly(upoly_gcd(G.coeffs[0], content_y(F))).canonical()
    c = upoly_gcd(content_y(F), content_y(G))
    a, b = primitive_part_y(F), primitive_part_y(G)
    if a.deg_y < b.deg_y:
        a, b = b, a
    while not b.is_zero():
        r = _prem_y(a, b)
        a, b = b, primitive_part_y(r)
    return (a * c).canonical()


def _series_inverse(u, prec):
    """Power series inverse of u mod x^prec; u(0) must be nonzero."""
    F, cs = u.field, u._c
    if not cs or not cs[0]:
        raise DivisionByZero("series inverse of a non-unit")
    add, mul = F.add, F.mul
    minus_inv0 = F.neg(F.inv(cs[0]))
    out = [F.inv(cs[0])]
    for n in range(1, prec):
        acc = 0
        for i in range(1, min(n, u.degree) + 1):
            acc = add(acc, mul(cs[i], out[n - i]))
        out.append(mul(minus_inv0, acc))
    return u._new(out)


def _truncate_x(F, prec):
    """F modulo x^prec."""
    return F._new([c.truncate(prec) for c in F._c])


def _hensel_lift_factors(Wstar, u_factors, prec):
    """Lift monic coprime u_i over F_q to monic factors of the monic
    series polynomial Wstar modulo x^prec."""
    fld = Wstar.field
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
    lifted = [BPoly.from_y_poly(u) for u in u_factors]
    for j in range(1, prec):
        # the error at x^j needs the product of the lifts only mod x^(j+1)
        prod = BPoly.one(fld)
        for w in lifted:
            prod = _truncate_x(prod * w, j + 1)
        e_j = UPoly._of(fld, [c._c[j] if len(c._c) > j else 0
                              for c in (Wstar - prod)._c])
        if e_j.is_zero():
            continue
        xj = UPoly._of(fld, [0] * j + [1])
        for i in range(r):
            delta = (lams[i] * e_j) % u_factors[i]
            if not delta.is_zero():
                lifted[i] = lifted[i] + BPoly.from_y_poly(delta) * xj
    return lifted


def _frobenius_bpoly(F, power):
    """Apply the coefficient Frobenius z -> z^power."""
    return F.map_coefficients(lambda c: c ** power, F.field)


def _good_lines(W):
    """(x0, W(x0, y)) for each line x = x0 over W's field, in enumeration
    order, that keeps deg_y and leaves W(x0, y) squarefree."""
    for x0 in W.field.elements():
        u = W.substitute_x(x0)
        if u.degree == W.deg_y and upoly_gcd(u, u.derivative()).degree == 0:
            yield x0, u


def _factor_at_extension_line(W, config):
    """Irreducible factors of W (primitive, squarefree, separable in y),
    found at the first good line over F_{Q^e}, e >= 2."""
    fld = W.field
    # bad lines are roots of lc_y(W) * disc_y(W), of x-degree at most
    # (2 deg_y - 1) deg_x, so every field with more elements has a good line
    bad_degree = (2 * W.deg_y - 1) * W.deg_x
    last = 2
    while fld.order ** last <= bad_degree:
        last += 1
    for e in range(2, last + 1):
        ext, emb = extension(fld, e)
        We = W.map_coefficients(emb, ext)
        line = next(_good_lines(We), None)
        if line is not None:
            ext_factors = _hensel_at_line(We, line[0], config)
            return _merge_frobenius_orbits(ext_factors, fld, emb)
    raise ValueError(
        f"no specialization line keeps W squarefree over F_{fld.order}^e "
        f"for e <= {last}; W is not squarefree and separable in y")


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
        tuple(yc._c for yc in F._c),
    )


def _hensel_at_line(W, x0, config):
    """Factor W (primitive, squarefree, y-separable) along the line x = x0,
    which must preserve y-degree and squarefreeness."""
    fld = W.field
    n = W.deg_y
    dx = max(W.deg_x, 0)
    prec = 2 * dx + 1
    Ws = W.shift_x(x0)
    # monic in y modulo x^prec
    Wstar = _truncate_x(Ws * _series_inverse(Ws.coeffs[-1], prec), prec)
    cert = factor_univariate(Wstar.substitute_x(0), config)
    u_factors = [g for g, _ in cert.factors]
    if len(u_factors) == 1:
        return [W.canonical()]
    lifted = _hensel_lift_factors(Wstar, u_factors, prec)
    active = list(range(len(u_factors)))
    remaining = Ws
    found = []
    progress = True
    while progress and len(active) > 1:
        progress = False
        for size in range(1, len(active)):
            for subset in itertools.combinations(active, size):
                H = BPoly.from_x_poly(remaining.coeffs[-1].truncate(prec))
                for i in subset:
                    H = _truncate_x(H * lifted[i], prec)
                H = primitive_part_y(H).canonical()
                # the candidate must specialize to exactly its subset
                spec = H._at_x(0)
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
    """Set of canonical irreducible factors of a nonconstant BPoly.

    The content in x is factored as a univariate polynomial, and the
    primitive part P = prod g_i^e_i takes the first branch that applies:
    1. A good F_q-line certifies that P is squarefree and separable in y
       (a square or a factor in y^p would survive on it): Hensel at it.
    2. P_y = 0, so P = C(x, y^p).  For an irreducible factor h of C, a
       root of h(x, y^p) has degree 1 or p over the field of its p-th
       power, so h(x, y^p) is irreducible or a p-th power, the latter
       exactly when it lies in F_q[x^p, y^p]: its x-derivative is zero.
    3. gcd(P, P_y) = 1: P is squarefree and separable in y, so a large
       enough extension has a good line.
    4. Otherwise gcd(P, P_y) holds g_i^e_i when g_i,y = 0 or p | e_i and
       g_i^(e_i - 1) else, so P / gcd(P, P_y) is the product of the other
       g_i; dividing them out of P leaves a residue for branch 2.
    """
    fld = F.field
    out = set()
    if F.deg_y == 0:
        cert = factor_univariate(F.coeffs[0], config)
        return {BPoly.from_x_poly(g).canonical() for g, _ in cert.factors}
    if F.deg_x == 0:
        yp = UPoly._of(fld, [c._c[0] if c else 0 for c in F._c])
        cert = factor_univariate(yp, config)
        return {BPoly.from_y_poly(g).canonical() for g, _ in cert.factors}
    cont = content_y(F)
    if cont.degree > 0:
        cert = factor_univariate(cont, config)
        out.update(BPoly.from_x_poly(g).canonical() for g, _ in cert.factors)
    P = primitive_part_y(F)
    if P.deg_y == 0:
        return out
    line = next(_good_lines(P), None)
    if line is not None:
        out.update(_hensel_at_line(P, line[0], config))
        return out
    Py = P.derivative_y()
    if Py.is_zero():
        p, zero = fld.p, UPoly.zero(fld)
        for h in _distinct_bivariate_factors(P._new(P._c[::p]), config):
            g = P._new([h._c[j // p] if j % p == 0 else zero
                        for j in range(p * h.deg_y + 1)])
            if g.derivative_x().is_zero():
                g = g._new([_pth_root_upoly(c) for c in g._c[::p]])
            out.add(g.canonical())
        return out
    G = bgcd(P, Py)
    if G.total_degree == 0:
        out.update(_factor_at_extension_line(P, config))
        return out
    separable = _distinct_bivariate_factors(bpoly_div_exact(P, G), config)
    R = P
    for g in separable:
        R = _divide_out(R, g)[0]
    out |= separable
    if R.deg_y > 0:
        out |= _distinct_bivariate_factors(R, config)
    return out


def _divide_out(F, g):
    """(F / g^m, m) for the largest m with g^m dividing F."""
    m = 0
    while (quo := bpoly_div_exact(F, g)) is not None:
        F, m = quo, m + 1
    return F, m


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
        R, mult = _divide_out(R, g)
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


# Good F_q-lines scanned to bound a factor's component count before it
# is factored over an extension.
_BOUND_LINES = 4


def absolute_component_count(G, config=DEFAULT_CONFIG):
    """Number of absolutely irreducible components of an F_q-irreducible
    bivariate polynomial.

    Precondition: G is irreducible over F_q, as every factor of
    ``factor_bivariate`` is; ``y^2 + 1`` over F_9 is outside the contract.

    Frobenius permutes the c components cyclically and they share one
    bidegree, so c divides gcd(deg_x, deg_y).  On a line x = x0 that keeps
    deg_y and squarefreeness the components stay pairwise coprime, so c
    also divides the degree of every F_q-irreducible factor of G(x0, y).
    The gcd e of these degrees over a few such lines bounds c: e = 1
    proves absolute irreducibility without factoring.  Otherwise the count
    is built one prime at a time: over F_{Q^l}, G splits into gcd(c, l)
    factors of c / gcd(c, l) components each, all of multiplicity one as
    the extension is separable.  For the primes l of e in ascending order,
    G is factored over F_{Q^l}; a split proves l | c, and the count is l
    times that of one factor over F_{Q^l}, whose own bound divides e / l.
    When no prime of e splits G, c = 1.  No field beyond F_{Q^e} is built.
    """
    return _component_count_below(G, 0, None, config)


def _component_count_below(G, bound, base_order, config):
    """``absolute_component_count`` of G, given that its count divides
    ``bound`` (0 gives no information) and, unless ``base_order`` is None,
    that G is a factor of an F_q-irreducible polynomial over the subfield
    with ``base_order`` elements."""
    if G.total_degree <= 1:
        return 1
    e = gcd(bound, G.deg_x, G.deg_y)
    # with a zero y-derivative no line gives a squarefree G(x0, y) of
    # positive degree
    if e > 1 and not G.derivative_y().is_zero():
        lines = _good_lines(G)
        if base_order is not None:
            # a line over the subfield bounds G by the base polynomial's
            # bound on it over l; only lines outside the subfield tell more
            lines = ((x0, u) for x0, u in lines if x0 ** base_order != x0)
        for _, u in itertools.islice(lines, _BOUND_LINES):
            e = gcd(e, *splitting_type(u))
            if e == 1:
                break
    for ell in prime_factors(e):
        ext, emb = extension(G.field, ell)
        factors = factor_bivariate(G.map_coefficients(emb, ext), config).factors
        if len(factors) > 1:
            return ell * _component_count_below(
                factors[0][0], e // ell, G.field.order, config)
    return 1


def geometric_components(F, config=DEFAULT_CONFIG):
    """Per-factor component counts for a squarefree bivariate polynomial,
    by ``absolute_component_count`` on each F_q-irreducible factor.  The
    number of components equals the degree of each component's field of
    definition.
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
