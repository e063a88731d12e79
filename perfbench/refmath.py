"""Reference arithmetic for the benchmark's correctness oracles.

Everything here works on plain ints and shares no code with the package
under test.  It relies only on the package's documented conventions: a
field F_{p^k} is F_p[t] modulo the lexicographically smallest monic
irreducible of degree k, and an element's integer code lists its
polynomial-basis coefficients as base-p digits, constant term first.
Polynomials are lists of codes, constant term first.
"""

from math import gcd


def _digits(v, p, k):
    out = []
    for _ in range(k):
        out.append(v % p)
        v //= p
    return out


def _undigits(ds, p):
    v = 0
    for c in reversed(ds):
        v = v * p + c
    return v


def prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _pl_rem(a, m, p):
    a = list(a)
    inv = pow(m[-1], p - 2, p)
    for i in range(len(a) - 1, len(m) - 2, -1):
        c = a[i] * inv % p
        if c:
            for j, mc in enumerate(m):
                a[i - len(m) + 1 + j] = (a[i - len(m) + 1 + j] - c * mc) % p
    return a[:len(m) - 1]


def lex_smallest_irreducible(p, k):
    """The modulus convention, found by trial division (desk-scale p^k)."""
    if k == 1:
        return (0, 1)
    monics = {d: [_digits(v, p, d) + [1] for v in range(p ** d)]
              for d in range(1, k // 2 + 1)}
    for counter in range(p ** k):
        cand = _digits(counter, p, k) + [1]
        if all(any(_pl_rem(cand, m, p))
               for d in monics for m in monics[d]):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")


class RefField:
    """F_{p^k} on integer codes, presented by an explicit modulus."""

    def __init__(self, p, modulus):
        self.p = p
        self.modulus = tuple(modulus)
        self.k = len(self.modulus) - 1
        self.q = p ** self.k

    @classmethod
    def standard(cls, p, k):
        return cls(p, lex_smallest_irreducible(p, k))

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        p = self.p
        return _undigits([(x + y) % p for x, y in zip(
            _digits(a, p, self.k), _digits(b, p, self.k))], p)

    def neg(self, a):
        if self.k == 1:
            return -a % self.p
        p = self.p
        return _undigits([-x % p for x in _digits(a, p, self.k)], p)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return a * b % p
        x, y = _digits(a, p, k), _digits(b, p, k)
        prod = [0] * (2 * k - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    prod[i + j] += xi * yj
        return _undigits(_pl_rem([c % p for c in prod], self.modulus, p), p)

    def pow(self, a, e):
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.q - 2)

    def generator(self):
        """Smallest code of multiplicative order q - 1."""
        n = self.q - 1
        for g in range(1, self.q):
            if all(self.pow(g, n // r) != 1 for r in prime_factors(n)):
                return g
        raise AssertionError("no generator found")

    def is_nth_power(self, c, n):
        """Whether a nonzero c has an n-th root."""
        return self.pow(c, (self.q - 1) // gcd(n, self.q - 1)) == 1

    # -- polynomials --------------------------------------------------------

    def trim(self, f):
        f = list(f)
        while f and f[-1] == 0:
            f.pop()
        return f

    def eval(self, f, x):
        acc = 0
        for c in reversed(f):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def pmul(self, f, g):
        if not f or not g:
            return []
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] = self.add(out[i + j], self.mul(a, b))
        return self.trim(out)

    def padd(self, f, g):
        n = max(len(f), len(g))
        f = list(f) + [0] * (n - len(f))
        g = list(g) + [0] * (n - len(g))
        return self.trim(self.add(a, b) for a, b in zip(f, g))

    def pdivmod(self, f, g):
        g = self.trim(g)
        r = self.trim(f)
        inv = self.inv(g[-1])
        quot = [0] * max(len(r) - len(g) + 1, 0)
        while len(r) >= len(g):
            shift = len(r) - len(g)
            c = self.mul(r[-1], inv)
            quot[shift] = c
            for j, b in enumerate(g):
                r[shift + j] = self.sub(r[shift + j], self.mul(c, b))
            r = self.trim(r)
        return self.trim(quot), r

    def pgcd(self, f, g):
        f, g = self.trim(f), self.trim(g)
        while g:
            f, g = g, self.pdivmod(f, g)[1]
        return f

    def pderiv(self, f):
        return self.trim(self.mul(c, i % self.p) for i, c in enumerate(f)
                         if i)

    def ppowmod(self, f, e, m):
        out, base = [1], self.pdivmod(f, m)[1]
        while e:
            if e & 1:
                out = self.pdivmod(self.pmul(out, base), m)[1]
            base = self.pdivmod(self.pmul(base, base), m)[1]
            e >>= 1
        return out

    # -- bivariate polynomials as {(i, j): code} for x^i y^j ----------------

    def bmul(self, F, G):
        out = {}
        for (i, j), a in F.items():
            for (k, l), b in G.items():
                key = (i + k, j + l)
                out[key] = self.add(out.get(key, 0), self.mul(a, b))
        return {key: c for key, c in out.items() if c}

    def bscale(self, F, c):
        out = {key: self.mul(v, c) for key, v in F.items()}
        return {key: v for key, v in out.items() if v}


def fiber_product(field, num, den):
    """(num(x) den(y) - num(y) den(x)) / (x - y) as {(i, j): code}.

    Each antisymmetric pair x^i y^j - x^j y^i (i > j) divides to
    (x y)^j * sum_{s < i - j} x^s y^(i - j - 1 - s).
    """
    n = max(len(num), len(den))
    p_ = list(num) + [0] * (n - len(num))
    r_ = list(den) + [0] * (n - len(den))
    out = {}
    for i in range(n):
        for j in range(i):
            c = field.sub(field.mul(p_[i], r_[j]), field.mul(p_[j], r_[i]))
            if not c:
                continue
            for s in range(i - j):
                key = (j + s, i - 1 - s)
                out[key] = field.add(out.get(key, 0), c)
    return {key: c for key, c in out.items() if c}


def fiber_histogram(field, num, den):
    """Fiber-size histogram of x -> num(x)/den(x) on P^1(F_q), with
    deg num > deg den so that infinity maps to infinity."""
    fibers = {"inf": 1}
    for x in range(field.q):
        r = field.eval(den, x)
        img = "inf" if r == 0 else field.mul(field.eval(num, x), field.inv(r))
        fibers[img] = fibers.get(img, 0) + 1
    hist = {}
    for size in fibers.values():
        hist[size] = hist.get(size, 0) + 1
    empty = field.q + 1 - len(fibers)
    if empty:
        hist[0] = empty
    return hist


def dickson(field, n, a):
    """D_n(x, a) by D_n = x D_{n-1} - a D_{n-2}, D_0 = 2, D_1 = x."""
    prev, cur = [2 % field.p], [0, 1]
    if n == 0:
        return field.trim(prev)
    for _ in range(n - 1):
        shifted = [0] + cur
        prev, cur = cur, field.padd(shifted, [field.neg(field.mul(a, c))
                                               for c in prev])
    return cur
