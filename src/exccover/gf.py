"""Exact arithmetic in finite fields F_{p^k} and their extension towers.

Fields are presented as F_p[t]/(modulus) where the modulus is the
lexicographically smallest monic irreducible of its degree, so every
object built on top of a field is reproducible across runs and
machines.  Because the modulus is a function of (p, k), there is one
Field object per (p, k) in a process: ``make_field`` and ``extension``
both return the interned field, and two fields are equal exactly when
they are the same object.  Each extension tower and its embedding are
built once per process and then reused.

An element is an int code: its residues read in base p, sum c_i p^i,
which is also its enumeration position.  Each Field holds the one
kernel on codes (``add``, ``sub``, ``neg``, ``mul``, ``inv``, ``pow``,
``log``); ``_kernel`` builds it on the field's first operation, never
at import or in ``make_field``.  ``Fel`` is the public (field, code)
pair and does no arithmetic of its own.
"""

from __future__ import annotations

from functools import cache
from math import gcd

from .config import FIELD_CAP, over_cap
from .errors import (
    CapExceeded,
    MixedFields,
    NoEmbedding,
    NonPrime,
)

_KERNEL = ("add", "sub", "neg", "mul", "inv", "pow", "log")


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
# Residue vectors over F_p as plain int lists, low to high.


def _digits(v, p):
    """Residue vector of the code v, low to high, without high zeros."""
    out = []
    while v:
        v, c = divmod(v, p)
        out.append(c)
    return out


def _pack(cs, p):
    """Code of the residue vector cs."""
    v = 0
    for c in reversed(cs):
        v = v * p + c
    return v


def lex_smallest_irreducible(p, k):
    """Coefficients (low to high, monic) of the lexicographically smallest
    monic irreducible of degree k over F_p.

    Lexicographic order compares the coefficient tuple from the
    highest-degree non-leading coefficient down to the constant term.
    Degree 1 uses the bare variable, so prime fields are F_p[t]/(t).
    """
    if k == 1:
        return (0, 1)
    from .polyfactor import UPoly, is_irreducible  # sibling import, runtime only

    F = _field(p, 1)
    for counter in range(p**k):
        # the constant term comes first, so ascending counters scan the
        # high coefficients slowest: exactly lex order on (c_{k-1},..,c_0).
        f = UPoly._of(F, [counter // p**i % p for i in range(k)] + [1])
        if is_irreducible(f):
            return f._c
    raise AssertionError("no irreducible of degree %d over F_%d" % (k, p))


class Field:
    """A finite field F_{p^k} presented by a monic irreducible modulus.

    Compares and hashes by identity; ``make_field`` and ``extension``
    hand out the one interned instance per (p, k).  ``log`` is to the
    base ``multiplicative_generator()``.
    """

    __slots__ = ("p", "k", "order", "modulus") + _KERNEL

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

    def __getattr__(self, name):
        # reached only for a kernel slot that is not yet set
        if name not in _KERNEL:
            raise AttributeError(name)
        from ._kernel import build  # sibling import, runtime only

        build(self)
        return getattr(self, name)

    # -- element construction

    def _code(self, value):
        """Code of an int (a residue mod p) or of an element; else None."""
        if isinstance(value, Fel):
            if value.field is not self:
                raise MixedFields(f"{value!r} does not belong to {self!r}")
            return value.code
        if isinstance(value, int):
            return value % self.p
        return None

    def element(self, value):
        """Coerce an int, coefficient sequence, or Fel into this field."""
        c = self._code(value)
        if c is None:
            # residues of the powers of the root t (code p; 0 if k = 1)
            t, c = self.p if self.k > 1 else 0, 0
            for v in reversed(value):
                c = self.add(self.mul(c, t), v % self.p)
        return Fel(self, c)

    def zero(self):
        return Fel(self, 0)

    def one(self):
        return Fel(self, 1)

    def from_int(self, v):
        """The v-th element in enumeration order, 0 <= v < order."""
        return Fel(self, v)

    def elements(self):
        """All elements in a fixed order (base-p counting on residues)."""
        return (Fel(self, v) for v in range(self.order))

    def multiplicative_generator(self):
        """Smallest element (enumeration order) of multiplicative order
        Q - 1.  Scans the field, so intended for desk-scale fields."""
        from ._kernel import generator  # sibling import, runtime only

        return Fel(self, generator(self.order, self.pow))


def make_field(p, k=1):
    """F_{p^k} with the deterministic lexicographically smallest modulus."""
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    # the cap comes first: trial division of an oversized p hangs
    if p >= 2 and over_cap(p, k, FIELD_CAP):
        raise CapExceeded(f"{p}^{k} exceeds the field cap {FIELD_CAP}")
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    return _field(p, k)


@cache
def _field(p, k):
    """The interned F_{p^k}; callers have validated p and k."""
    return Field(p, k, lex_smallest_irreducible(p, k))


class Fel:
    """An element of a Field: the immutable pair (field, code).  Its
    operations are the field's; ints stand for residues mod p."""

    __slots__ = ("field", "code")

    def __init__(self, field, code):
        self.field = field
        self.code = code

    def __eq__(self, other):
        if isinstance(other, Fel):
            return self.field is other.field and self.code == other.code
        if isinstance(other, int):
            # only residues 0 <= n < p, so that equal objects hash alike
            return 0 <= other < self.field.p and self.code == other
        return NotImplemented

    def __hash__(self):
        # a prime-subfield element's code is the equal int
        return hash(self.code)

    def __repr__(self):
        if self.field.k == 1:
            return f"{self.code}·{self.field!r}"
        return f"{list(self.coeffs)}·{self.field!r}"

    @property
    def coeffs(self):
        """The residue vector, low to high, of length k."""
        cs = _digits(self.code, self.field.p)
        return tuple(cs) + (0,) * (self.field.k - len(cs))

    def is_zero(self):
        return not self.code

    def __bool__(self):
        return bool(self.code)

    def to_int(self):
        """Position in the field's enumeration order: the code."""
        return self.code

    def in_prime_subfield(self):
        return self.code < self.field.p

    def _binary(op):
        def method(self, other):
            f = self.field
            if type(other) is Fel and other.field is f:
                o = other.code
            else:
                o = f._code(other)
                if o is None:
                    return NotImplemented
            return Fel(f, op(f, self.code, o))
        return method

    __add__ = __radd__ = _binary(lambda f, a, b: f.add(a, b))
    __sub__ = _binary(lambda f, a, b: f.sub(a, b))
    __rsub__ = _binary(lambda f, a, b: f.sub(b, a))
    __mul__ = __rmul__ = _binary(lambda f, a, b: f.mul(a, b))
    __truediv__ = _binary(lambda f, a, b: f.mul(a, f.inv(b)))
    __rtruediv__ = _binary(lambda f, a, b: f.mul(b, f.inv(a)))
    del _binary

    def __neg__(self):
        return Fel(self.field, self.field.neg(self.code))

    def inverse(self):
        return Fel(self.field, self.field.inv(self.code))

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        return Fel(self.field, self.field.pow(self.code, e))


def nth_power_solution_count(c, n):
    """Number of y in c's field with y^n = c.

    Returns 1 for c = 0; otherwise g = gcd(n, Q-1) solutions when c is
    an n-th power, c^((Q-1)/g) = 1 (one log lookup in a table field),
    and 0 when it is not.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if c.is_zero():
        return 1
    q1 = c.field.order - 1
    g = gcd(n, q1)
    return g if c.field.pow(c.code, q1 // g) == 1 else 0


# ---------------------------------------------------------------------------
# Embeddings and extension towers.


class Embedding:
    """A fixed ring embedding F_{p^k} -> F_{p^m} with k | m.

    The embedding sends the source presentation root to the smallest
    root (enumeration order) of the source modulus in the target, or to
    itself when the target is the source, so it is deterministic.
    ``section`` inverts it on the embedded subfield.
    """

    __slots__ = ("src", "dst", "_pows")

    def __init__(self, src, dst):
        self.src = src
        self.dst = dst
        if src.p != dst.p or dst.k % src.k != 0:
            raise NoEmbedding(f"no embedding {src!r} -> {dst!r}")
        beta = src.p
        if src.k > 1 and src is not dst:
            from .polyfactor import UPoly, roots  # sibling import, runtime only

            rs = roots(UPoly(dst, src.modulus))
            if len(rs) != src.k:
                raise AssertionError("source modulus must split in the target")
            beta = rs[0].code
        # codes of the images of 1, t, ..., t^(k-1)
        pows = [1]
        for _ in range(src.k - 1):
            pows.append(dst.mul(pows[-1], beta))
        self._pows = tuple(pows)

    def __call__(self, e):
        if e.field is not self.src:
            raise MixedFields("element does not belong to the source field")
        add, mul = self.dst.add, self.dst.mul
        acc = 0
        for c, b in zip(_digits(e.code, self.src.p), self._pows):
            acc = add(acc, mul(b, c))
        return Fel(self.dst, acc)

    def section(self, z):
        """Preimage of z under the embedding; NoEmbedding if z is outside."""
        if z.field is not self.dst:
            raise MixedFields("element does not belong to the target field")
        p, rows, cols = self.src.p, self.dst.k, self.src.k
        # solve M v = z over F_p where column j holds the j-th root power;
        # the powers are independent, so every column has a pivot
        vecs = [Fel(self.dst, b).coeffs for b in self._pows] + [z.coeffs]
        aug = [[v[i] for v in vecs] for i in range(rows)]
        for c in range(cols):
            piv = next(i for i in range(c, rows) if aug[i][c])
            aug[c], aug[piv] = aug[piv], aug[c]
            inv = pow(aug[c][c], -1, p)
            aug[c] = [x * inv % p for x in aug[c]]
            for i in range(rows):
                if i != c and aug[i][c]:
                    f = aug[i][c]
                    aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[c])]
        if any(row[-1] for row in aug[cols:]):
            raise NoEmbedding("element lies outside the embedded subfield")
        return Fel(self.src, _pack([row[-1] for row in aug[:cols]], p))


def embed(e, target):
    """Image of e under the fixed embedding of its field into target: the
    one ``extension`` built when target is the interned field of its
    order."""
    src = e.field
    if src.p != target.p or target.k % src.k != 0:
        raise NoEmbedding(f"no embedding {src!r} -> {target!r}")
    big, emb = extension(src, target.k // src.k)
    return (emb if big is target else Embedding(src, target))(e)


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
