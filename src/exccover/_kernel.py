"""The arithmetic kernel of a finite field on int codes, imported and
built on the field's first operation, so that code which never computes
in a field loads none of it.

Prime fields reduce ints mod p.  Fields with 1 < k and at most
``TABLE_ORDER`` elements look up exp, log and Zech-log arrays
(Lidl-Niederreiter, Finite Fields) of the smallest multiplicative
generator, the one the printer's and the parser's ``g^j`` name.  Larger
fields compute in the polynomial basis.
"""

from array import array
from operator import xor

from .errors import DivisionByZero
from .gf import _digits, _pack, power, prime_factors

# Fields with 1 < k and at most this many elements use Zech-log tables.
TABLE_ORDER = 1 << 12


def basis_ops(p, modulus):
    """add, sub, neg, mul and inv on codes in the polynomial basis, with
    residues in s-bit slots of one int (Kronecker substitution; von zur
    Gathen-Gerhard, Modern Computer Algebra, 8.4)."""
    m = list(modulus)
    k = len(m) - 1
    s = (k * k * (p - 1) ** 3 + k * (p - 1) ** 2).bit_length()
    M = (1 << s) - 1
    folds, v = [], [0] * (k - 1) + [1]
    for _ in range(k - 1):
        top = v.pop()
        v = [(a - top * b) % p for a, b in zip([0] + v, m)]
        folds.append(sum(c << (i * s) for i, c in enumerate(v)))

    def spread(a):
        A = sh = 0
        while a:
            a, c = divmod(a, p)
            A |= c << sh
            sh += s
        return A

    def gather(A):
        v = 0
        for i in range(k - 1, -1, -1):
            v = v * p + (A >> (i * s) & M) % p
        return v

    def mul(a, b):
        P = spread(a) * spread(b)
        low = P & ((1 << (k * s)) - 1)
        P >>= k * s
        for R in folds:
            low += (P & M) * R
            P >>= s
        return gather(low)

    def inv(a):
        # extended Euclid on (modulus, a), one leading term at a time;
        # s * a = r mod the modulus holds on both rows
        r0, s0, r1, s1 = m, [], _digits(a, p), [1]
        while len(r1) > 1:
            d = len(r0) - len(r1)
            if d < 0:
                r0, s0, r1, s1 = r1, s1, r0, s0
                continue
            c = r0[-1] * pow(r1[-1], -1, p)
            r0 = r0[:]
            for i, x in enumerate(r1):
                r0[i + d] = (r0[i + d] - c * x) % p
            while not r0[-1]:
                r0.pop()
            s0 = s0 + [0] * (len(s1) + d - len(s0))
            for i, x in enumerate(s1):
                s0[i + d] = (s0[i + d] - c * x) % p
        c = pow(r1[0], -1, p)
        return _pack([x * c % p for x in s1], p)

    if p == 2:  # a code is its own vector of coefficient bits
        return xor, xor, lambda a: a, mul, inv
    return (lambda a, b: gather(spread(a) + spread(b)),
            lambda a, b: gather(spread(a) + (p - 1) * spread(b)),
            lambda a: gather((p - 1) * spread(a)), mul, inv)


def zech_ops(p, q, g, mul):
    """add, sub, neg, mul, inv, pow and log on codes through the exp, log
    and Zech-log tables of the generator g."""
    n = q - 1
    exp = [1]
    for _ in range(n - 1):
        exp.append(mul(exp[-1], g))
    lg = [0] * q
    for j, c in enumerate(exp):
        lg[c] = j
    # log 0 = 2n points into E's zero padding: products with 0 and sums
    # that cancel read 0 without a branch
    lg[0] = 2 * n
    E = array("H", exp * 2 + [0] * (2 * n + 1))
    L = array("H", lg)
    # Z[j] = log(1 + g^j); 1 + c steps the lowest digit of c
    Z = array("H", [lg[c + 1 if c % p < p - 1 else c + 1 - p] for c in exp])
    h = n // 2 if p > 2 else 0  # log(-1)

    def add(a, b):
        if not a:
            return b
        if not b:
            return a
        la = L[a]
        return E[la + Z[L[b] - la]]

    def neg(a):
        return E[L[a] + h]

    return (add, lambda a, b: add(a, neg(b)), neg, lambda a, b: E[L[a] + L[b]],
            lambda a: E[n - L[a]],
            lambda a, e: E[L[a] * e % n] if a else 0 ** e, L.__getitem__)


def generator(q, pw):
    """Smallest code of multiplicative order q - 1 under the power pw."""
    n = q - 1
    ts = prime_factors(n)
    return next(v for v in range(1, q) if all(pw(v, n // t) != 1 for t in ts))


def build(F):
    """Set the kernel operations of the field F."""
    p, q = F.p, F.order
    if F.k == 1:
        add = lambda a, b: (a + b) % p
        sub = lambda a, b: (a - b) % p
        neg = lambda a: -a % p
        mul = lambda a, b: a * b % p
        inv = lambda a: pow(a, p - 2, p)
        pw = lambda a, e: pow(a, e, p)
    else:
        add, sub, neg, mul, inv = basis_ops(p, F.modulus)
        pw = lambda a, e: power(a, e, 1, mul)
    if 1 < F.k and q <= TABLE_ORDER:
        add, sub, neg, mul, inv, pw, log = zech_ops(p, q, generator(q, pw), mul)
    else:
        def log(a):
            acc, g = 1, generator(q, pw)
            for j in range(q - 1):
                if acc == a:
                    return j
                acc = mul(acc, g)

    def unit(a):
        if not a:
            raise DivisionByZero(f"inverse of zero in {F!r}")
        return a

    F.add, F.sub, F.neg, F.mul = add, sub, neg, mul
    F.inv = lambda a: inv(unit(a))
    F.pow = lambda a, e: pw(a, e) if e >= 0 else pw(F.inv(a), -e)
    F.log = lambda a: log(unit(a))
