"""Exact arithmetic in finite fields F_{p^k} and their extension towers.

Fields are presented as F_p[t]/(modulus) where the modulus is the
lexicographically smallest monic irreducible of its degree, so every
object built on top of a field is reproducible across runs and
machines.  Because the modulus is a function of (p, k), there is one
Field object per (p, k) in a process: ``make_field`` and ``extension``
both return the interned field, and two fields are equal exactly when
they are the same object.  Each extension tower and its embedding are
built once per process and then reused.  Elements are immutable dense
residue vectors; all operations are pure and integer-exact.
"""

from __future__ import annotations

import operator
from functools import cache
from math import gcd

from .config import DEFAULT_CONFIG
from .errors import (
    CapExceeded,
    DivisionByZero,
    MixedFields,
    NoEmbedding,
    NonPrime,
)


def is_prime(n):
    """Deterministic trial division; adequate below the field cap."""
    return n >= 2 and prime_factors(n) == [n]


def prime_factors(n):
    """Sorted distinct prime divisors of n >= 1 by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def power(x, e, one, mul):
    """x^e for an integer e >= 0 by square-and-multiply under the
    associative product mul; e = 0 returns one itself."""
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return result


# ---------------------------------------------------------------------------
# Dense polynomial arithmetic over F_p on plain int lists, low to high.
# These back modulus selection and element arithmetic without allocating
# element objects.


def _trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _pl_sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _pl_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pl_mod(a, m, p):
    """a mod m for monic m."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        c = a[-1]
        if c:
            off = len(a) - 1 - dm
            for i in range(dm):
                a[off + i] = (a[off + i] - c * m[i]) % p
        a.pop()
    return _trim(a)


def _pl_divmod(a, b, p):
    """Quotient and remainder; b need not be monic."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    inv = pow(b[-1], p - 2, p)
    a = list(a)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    while len(a) > db:
        c = (a[-1] * inv) % p
        off = len(a) - 1 - db
        q[off] = c
        if c:
            for i in range(db + 1):
                a[off + i] = (a[off + i] - c * b[i]) % p
        else:
            a[-1] = 0
        _trim(a)
        if len(a) <= db:
            break
        # keep popping exact zero leading entries introduced above
    return _trim(q), _trim(a)


def _pl_gcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        _, r = _pl_divmod(a, b, p)
        a, b = b, r
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _pl_powmod(base, e, m, p):
    return power(_pl_mod(base, m, p), e, [1],
                 lambda a, b: _pl_mod(_pl_mul(a, b, p), m, p))


def _pl_is_irreducible(m, p):
    """Rabin irreducibility test for a monic polynomial over F_p."""
    k = len(m) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    x = [0, 1]

    def frob_iter(poly, times):
        for _ in range(times):
            poly = _pl_powmod(poly, p, m, p)
        return poly

    if frob_iter(x, k) != _pl_mod(x, m, p):
        return False
    for t in prime_factors(k):
        h = _pl_sub(frob_iter(x, k // t), x, p)
        if _pl_gcd(h, m, p) != [1]:
            return False
    return True


def lex_smallest_irreducible(p, k):
    """Coefficients (low to high, monic) of the lexicographically smallest
    monic irreducible of degree k over F_p.

    Lexicographic order compares the coefficient tuple from the
    highest-degree non-leading coefficient down to the constant term.
    Degree 1 uses the bare variable, so prime fields are F_p[t]/(t).
    """
    if k == 1:
        return (0, 1)
    for counter in range(p**k):
        digits = []
        v = counter
        for _ in range(k):
            digits.append(v % p)
            v //= p
        # digits[0] is the constant term, so ascending counters scan the
        # high coefficients slowest: exactly lex order on (c_{k-1},..,c_0).
        cand = digits + [1]
        if _pl_is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible of degree %d over F_%d" % (k, p))


# ---------------------------------------------------------------------------


class Field:
    """A finite field F_{p^k} presented by a monic irreducible modulus.

    Compares and hashes by identity; ``make_field`` and ``extension``
    hand out the one interned instance per (p, k).
    """

    __slots__ = ("p", "k", "order", "modulus")

    def __init__(self, p, k, modulus):
        self.p = p
        self.k = k
        self.order = p**k
        self.modulus = tuple(c % p for c in modulus)
        if len(self.modulus) != k + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")

    def __repr__(self):
        if self.k == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.k}"

    # -- element construction ------------------------------------------------

    def element(self, value):
        """Coerce an int, coefficient sequence, or Fel into this field."""
        if isinstance(value, Fel):
            if value.field is not self:
                raise MixedFields(f"{value!r} does not belong to {self!r}")
            return value
        if isinstance(value, int):
            coeffs = [0] * self.k
            coeffs[0] = value % self.p
            return Fel(self, tuple(coeffs))
        coeffs = [c % self.p for c in value]
        if len(coeffs) > self.k:
            reduced = _pl_mod(coeffs, list(self.modulus), self.p)
            coeffs = reduced
        coeffs = coeffs + [0] * (self.k - len(coeffs))
        return Fel(self, tuple(coeffs))

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def from_int(self, v):
        """The v-th element in enumeration order, 0 <= v < order."""
        coeffs = []
        for _ in range(self.k):
            coeffs.append(v % self.p)
            v //= self.p
        return Fel(self, tuple(coeffs))

    def elements(self):
        """All elements in a fixed order (base-p counting on residues)."""
        for v in range(self.order):
            yield self.from_int(v)

    def multiplicative_generator(self):
        """Smallest element (enumeration order) of multiplicative order
        Q - 1.  Scans the field, so intended for desk-scale fields."""
        n = self.order - 1
        primes = prime_factors(n) if n > 1 else []
        for v in range(1, self.order):
            g = self.from_int(v)
            if all((g ** (n // t)).to_int() != 1 for t in primes):
                return g
        raise AssertionError("no generator found")


def make_field(p, k=1, config=DEFAULT_CONFIG):
    """F_{p^k} with the deterministic lexicographically smallest modulus."""
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if p**k > config.field_cap:
        raise CapExceeded(f"{p}^{k} exceeds the field cap {config.field_cap}")
    return _field(p, k)


@cache
def _field(p, k):
    """The interned F_{p^k}; callers have validated p and k."""
    return Field(p, k, lex_smallest_irreducible(p, k))


class Fel:
    """An element of a Field: an immutable residue vector of length k."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    # -- plumbing -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Fel):
            if other.field is not self.field:
                raise MixedFields("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return None

    def __eq__(self, other):
        if isinstance(other, Fel):
            return self.field is other.field and self.coeffs == other.coeffs
        if isinstance(other, int):
            # only residues 0 <= n < p, so that equal objects hash alike
            return 0 <= other < self.field.p and self == self.field.element(other)
        return NotImplemented

    def __hash__(self):
        # An element of the prime subfield hashes like the equal int; the
        # residues are nonnegative, so that is when sum(cs) == cs[0].
        cs = self.coeffs
        return hash(cs[0]) if sum(cs) == cs[0] else hash(cs)

    def __repr__(self):
        if self.field.k == 1:
            return f"{self.coeffs[0]}·{self.field!r}"
        return f"{list(self.coeffs)}·{self.field!r}"

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def to_int(self):
        """Position in the field's enumeration order."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.field.p + c
        return v

    def in_prime_subfield(self):
        return all(c == 0 for c in self.coeffs[1:])

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return Fel(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return Fel(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        p = self.field.p
        return Fel(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        if f.k == 1:
            return Fel(f, ((self.coeffs[0] * o.coeffs[0]) % f.p,))
        prod = _pl_mul(list(self.coeffs), list(o.coeffs), f.p)
        red = _pl_mod(prod, list(f.modulus), f.p)
        return Fel(f, tuple(red) + (0,) * (f.k - len(red)))

    __rmul__ = __mul__

    def inverse(self):
        f = self.field
        if self.is_zero():
            raise DivisionByZero(f"inverse of zero in {f!r}")
        if f.k == 1:
            return Fel(f, (pow(self.coeffs[0], f.p - 2, f.p),))
        # extended Euclid on (self, modulus) over F_p
        a, s_a = _trim(list(self.coeffs)), [1]
        b, s_b = list(f.modulus), []
        while b:
            q, r = _pl_divmod(a, b, f.p)
            a, b = b, r
            s_a, s_b = s_b, _pl_sub(s_a, _pl_mul(q, s_b, f.p), f.p)
        # a is now a nonzero constant gcd; normalize
        inv = pow(a[0], f.p - 2, f.p)
        s = [(c * inv) % f.p for c in s_a]
        s = _pl_mod(s, list(f.modulus), f.p)
        return Fel(f, tuple(s) + (0,) * (f.k - len(s)))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        f = self.field
        if f.k == 1:
            if e < 0:
                return self.inverse() ** (-e)
            return Fel(f, (pow(self.coeffs[0], e, f.p),))
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, f.one(), operator.mul)


def nth_power_solution_count(c, n):
    """Number of y in c's field with y^n = c.

    Returns 1 for c = 0; otherwise g = gcd(n, Q-1) solutions when c is
    an n-th power (detected by c^((Q-1)/g) = 1) and 0 when it is not.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if c.is_zero():
        return 1
    q1 = c.field.order - 1
    g = gcd(n, q1)
    return g if (c ** (q1 // g)).to_int() == 1 else 0


# ---------------------------------------------------------------------------
# Embeddings and extension towers.


class Embedding:
    """A fixed ring embedding F_{p^k} -> F_{p^m} with k | m.

    The embedding sends the source presentation root to the smallest
    root (enumeration order) of the source modulus in the target, so it
    is deterministic.  ``section`` inverts it on the embedded subfield.
    """

    __slots__ = ("src", "dst", "_pows", "_mode")

    def __init__(self, src, dst):
        self.src = src
        self.dst = dst
        if src.p != dst.p or dst.k % src.k != 0:
            raise NoEmbedding(f"no embedding {src!r} -> {dst!r}")
        if src is dst:
            self._mode = "identity"
            self._pows = ()
        elif src.k == 1:
            self._mode = "prime"
            self._pows = ()
        else:
            self._mode = "root"
            from .polyfactor import UPoly, roots  # sibling import, runtime only

            mu = UPoly(dst, [dst.element(c) for c in src.modulus])
            rs = roots(mu)
            if len(rs) != src.k:
                raise AssertionError("source modulus must split in the target")
            beta = min(rs, key=lambda r: r.to_int())
            pows = [dst.one()]
            for _ in range(src.k - 1):
                pows.append(pows[-1] * beta)
            self._pows = tuple(pows)

    def __call__(self, e):
        if e.field is not self.src:
            raise MixedFields("element does not belong to the source field")
        if self._mode == "identity":
            return e
        if self._mode == "prime":
            return self.dst.element(e.coeffs[0])
        acc = self.dst.zero()
        for c, b in zip(e.coeffs, self._pows):
            if c:
                acc = acc + b * self.dst.element(c)
        return acc

    def section(self, z):
        """Preimage of z under the embedding; NoEmbedding if z is outside."""
        if z.field is not self.dst:
            raise MixedFields("element does not belong to the target field")
        if self._mode == "identity":
            return z
        if self._mode == "prime":
            if not z.in_prime_subfield():
                raise NoEmbedding("element lies outside the prime subfield")
            return self.src.element(z.coeffs[0])
        p = self.src.p
        rows = self.dst.k
        cols = self.src.k
        # solve M v = z over F_p where column i holds the i-th root power
        aug = [[self._pows[j].coeffs[i] for j in range(cols)] + [z.coeffs[i]]
               for i in range(rows)]
        pivots = []
        r = 0
        for c in range(cols):
            piv = next((i for i in range(r, rows) if aug[i][c]), None)
            if piv is None:
                continue
            aug[r], aug[piv] = aug[piv], aug[r]
            inv = pow(aug[r][c], p - 2, p)
            aug[r] = [(x * inv) % p for x in aug[r]]
            for i in range(rows):
                if i != r and aug[i][c]:
                    f = aug[i][c]
                    aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[r])]
            pivots.append(c)
            r += 1
        sol = [0] * cols
        for i, c in enumerate(pivots):
            sol[c] = aug[i][-1]
        for i in range(r, rows):
            if aug[i][-1]:
                raise NoEmbedding("element lies outside the embedded subfield")
        cand = Fel(self.src, tuple(sol))
        return cand


def embedding(src, dst):
    """The fixed embedding src -> dst: the one ``extension`` built when
    dst is the interned field of its order."""
    if src.p != dst.p or dst.k % src.k != 0:
        raise NoEmbedding(f"no embedding {src!r} -> {dst!r}")
    big, emb = extension(src, dst.k // src.k)
    return emb if big is dst else Embedding(src, dst)


def embed(e, target):
    """Image of e under the fixed embedding of its field into target."""
    return embedding(e.field, target)(e)


@cache
def extension(field, m):
    """The degree-m extension of field together with the fixed embedding.

    Built as the interned F_{p^{k m}}, so a tower and its embedding are
    built once per process; tower construction is internal, so no field
    cap applies here.
    """
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    big = field if m == 1 else _field(field.p, field.k * m)
    return big, Embedding(field, big)
