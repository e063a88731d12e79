import random
import time
from math import gcd

import pytest

from exccover import _kernel, gf
from exccover.errors import (
    CapExceeded,
    DivisionByZero,
    MixedFields,
    NoEmbedding,
    NonPrime,
)
from exccover.gf import (
    Embedding,
    embed,
    extension,
    is_prime,
    make_field,
    nth_power_solution_count,
    prime_factors,
)


def prime_powers_upto(limit):
    out = []
    for p in range(2, limit + 1):
        if not is_prime(p):
            continue
        q = p
        k = 1
        while q <= limit:
            out.append((p, k, q))
            q *= p
            k += 1
    return sorted(out, key=lambda t: t[2])


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def test_make_field_prime_field_modulus_is_x():
    F5 = make_field(5, 1)
    assert F5.modulus == (0, 1)
    assert F5.order == 5


def test_make_field_degree_three_over_two():
    # oracle: scan the 8 monic cubics over F_2; a cubic is reducible
    # exactly when it has a root, so filter by root check and take the
    # lex-smallest survivor
    def has_root(c0, c1, c2):
        return any((x**3 + c2 * x * x + c1 * x + c0) % 2 == 0 for x in (0, 1))

    survivors = [
        (c2, c1, c0)
        for c2 in (0, 1) for c1 in (0, 1) for c0 in (0, 1)
        if not has_root(c0, c1, c2)
    ]
    expected = min(survivors)
    F8 = make_field(2, 3)
    assert (F8.modulus[2], F8.modulus[1], F8.modulus[0]) == expected
    assert F8.modulus == (1, 1, 0, 1)  # x^3 + x + 1


def _has_monic_divisor(f, p):
    """True when a monic polynomial of degree 1 ... deg f // 2 divides f
    (coefficient lists low to high over F_p), by trial division."""
    k = len(f) - 1
    for d in range(1, k // 2 + 1):
        for counter in range(p**d):
            g = [counter // p**i % p for i in range(d)] + [1]
            r = list(f)
            for top in range(k, d - 1, -1):
                c = r[top]
                if c:
                    for i in range(d + 1):
                        r[top - d + i] = (r[top - d + i] - c * g[i]) % p
            if not any(r):
                return True
    return False


@pytest.mark.parametrize("p", [2, 17, 41, 3, 11, 251, 5, 13, 197, 7, 23, 239])
def test_lex_smallest_irreducible_matches_trial_division(p):
    # primes from each residue class mod 8, every degree k >= 2 with
    # p^k <= 2^16: the first candidate in lex order with no divisor
    k = 2
    while p**k <= 2**16:
        expect = next(
            f for f in ([counter // p**i % p for i in range(k)] + [1]
                        for counter in range(p**k))
            if not _has_monic_divisor(f, p))
        assert gf.lex_smallest_irreducible(p, k) == tuple(expect), (p, k)
        k += 1


def test_lex_smallest_irreducible_large_prime():
    # 3 is a non-residue mod the Fermat prime 65537 and -1, 2 are squares
    assert gf.lex_smallest_irreducible(65537, 2) == (3, 0, 1)


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(NonPrime):
        make_field(4, 1)
    with pytest.raises(NonPrime):
        make_field(9)


def test_make_field_cap():
    with pytest.raises(CapExceeded):
        make_field(2, 40)
    # the cap is checked before primality, so a composite above it too
    with pytest.raises(CapExceeded):
        make_field(2**32)
    # 3^(10^7) is over the cap by its exponent alone, so it is never computed
    started = time.perf_counter()
    with pytest.raises(CapExceeded):
        make_field(3, 10**7)
    assert time.perf_counter() - started < 1
    # a p below 2 is no prime, whatever its power
    with pytest.raises(NonPrime):
        make_field(1, 40)


def test_field_value_equality():
    assert make_field(7, 2) == make_field(7, 2)
    assert make_field(7, 1) != make_field(5, 1)


def test_element_int_equality_agrees_with_hash():
    F13 = make_field(13)
    three = F13.element(3)
    assert three == 3 and three != 16 and three != -10
    assert 3 in {three} and three in {3}
    assert {3: "x"}[three] == "x"
    F9 = make_field(3, 2)
    assert F9.element(2) == 2 and 2 in {F9.element(2)}
    g = F9.multiplicative_generator()
    assert not g.in_prime_subfield() and g != g.coeffs[0]


def test_arithmetic_examples_f13():
    F13 = make_field(13)
    assert F13.element(8).inverse().to_int() == 5
    assert (F13.element(8) * F13.element(5)).to_int() == 1
    assert (F13.element(5) ** 2).to_int() == 12  # a primitive fourth root of unity
    assert (F13.element(7) ** 0).to_int() == 1


def test_division_by_zero():
    F13 = make_field(13)
    with pytest.raises(DivisionByZero):
        F13.zero().inverse()
    F4 = make_field(2, 2)
    with pytest.raises(DivisionByZero):
        F4.zero().inverse()


def test_mixed_fields_rejected():
    a = make_field(5).element(2)
    b = make_field(7).element(2)
    with pytest.raises(MixedFields):
        a + b


def test_ring_axioms_sampled():
    rng = random.Random(11)
    for p, k in ((5, 1), (2, 3), (3, 2), (7, 2)):
        F = make_field(p, k)
        for _ in range(40):
            a = F.from_int(rng.randrange(F.order))
            b = F.from_int(rng.randrange(F.order))
            c = F.from_int(rng.randrange(F.order))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a - a == F.zero()
            if not a.is_zero():
                assert a * a.inverse() == F.one()
                assert (a / a) == F.one()


def test_negative_exponents():
    F9 = make_field(3, 2)
    a = F9.from_int(5)
    assert a ** (-1) == a.inverse()
    assert a ** (-3) == (a ** 3).inverse()


def test_element_iterator_and_group_order():
    for p, k, q in prime_powers_upto(2**10):
        F = make_field(p, k)
        seen = set()
        for a in F.elements():
            seen.add(a)
            if not a.is_zero():
                assert (a ** (q - 1)).to_int() == 1
        assert len(seen) == q


def test_nth_power_count_matches_brute_force():
    for p, k, q in prime_powers_upto(289):
        F = make_field(p, k)
        elements = list(F.elements())
        for n in range(1, 9):
            counts = {}
            for y in elements:
                v = y**n
                counts[v] = counts.get(v, 0) + 1
            for c in elements:
                assert nth_power_solution_count(c, n) == counts.get(c, 0), (q, n)


def test_nth_power_count_examples():
    F13 = make_field(13)
    assert nth_power_solution_count(F13.element(8), 3) == 3
    assert nth_power_solution_count(F13.element(2), 2) == 0
    assert nth_power_solution_count(F13.zero(), 7) == 1


def test_embed_prime_subfield():
    F5 = make_field(5)
    F25, emb = extension(F5, 2)
    assert emb(F5.zero()).is_zero()
    img = emb(F5.element(2))
    assert img ** 5 == img  # fixed by the subfield Frobenius
    assert embed(F5.element(3), F25) == F25.element(3)


def test_embed_generator_satisfies_source_modulus():
    F4 = make_field(2, 2)
    F16, emb = extension(F4, 2)
    gen = F4.from_int(2)
    img = emb(gen)
    # evaluate the F_4 modulus at the image
    acc = F16.zero()
    for c in reversed(F4.modulus):
        acc = acc * img + F16.element(c)
    assert acc.is_zero()


@pytest.mark.parametrize("p,k,m", [(3, 2, 2), (2, 3, 2), (5, 2, 3)])
def test_embed_is_ring_homomorphism(p, k, m):
    rng = random.Random(5)
    F = make_field(p, k)
    big, emb = extension(F, m)
    for _ in range(25):
        a = F.from_int(rng.randrange(F.order))
        b = F.from_int(rng.randrange(F.order))
        assert emb(a + b) == emb(a) + emb(b)
        assert emb(a * b) == emb(a) * emb(b)
        # images lie in the fixed field of the subfield Frobenius
        assert emb(a) ** F.order == emb(a)
        assert emb.section(emb(a)) == a


def test_embed_incompatible_degrees():
    F4 = make_field(2, 2)
    F8 = make_field(2, 3)
    with pytest.raises(NoEmbedding):
        Embedding(F4, F8)
    with pytest.raises(NoEmbedding):
        embed(F4.one(), make_field(3, 2))


def test_section_rejects_outside_elements():
    F3 = make_field(3)
    F9, emb = extension(F3, 2)
    outside = F9.from_int(3)  # the presentation root, not in F_3
    with pytest.raises(NoEmbedding):
        emb.section(outside)


def test_multiplicative_generator():
    for p, k in ((7, 1), (2, 2), (3, 2), (2, 4)):
        F = make_field(p, k)
        g = F.multiplicative_generator()
        seen = {g ** i for i in range(F.order - 1)}
        assert len(seen) == F.order - 1


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(97) == [97]


# ---------------------------------------------------------------------------
# One Field object per (p, k).


def test_make_field_interns_each_field():
    assert make_field(7, 2) is make_field(7, 2)
    for p, k in ((5, 2), (2, 3), (13, 4)):
        assert extension(make_field(p), k)[0] is make_field(p, k)
    assert extension(make_field(3, 2), 2)[0] is make_field(3, 4)


def test_extension_reuses_its_embedding():
    F9 = make_field(3, 2)
    big, emb = extension(F9, 3)
    again = extension(F9, 3)
    assert again[0] is big and again[1] is emb
    assert big is make_field(3, 6)
    for v in range(F9.order):
        a = F9.from_int(v)
        assert embed(a, big) == emb(a)
        assert emb.section(embed(a, big)) == a
    F3 = make_field(3)
    same, ident = extension(F3, 1)
    assert same is F3 and embed(F3.element(2), F3) == ident(F3.element(2))


def test_interned_fields_still_reject_mixing():
    F3, F9 = make_field(3), make_field(3, 2)
    with pytest.raises(MixedFields):
        F3.element(1) + F9.element(1)
    with pytest.raises(MixedFields):
        F9.element(F3.element(2))
    assert F3.element(2) != F9.element(2)


def test_make_field_cap_applies_to_cached_fields():
    F = extension(make_field(2), 32)[0]  # F_{2^32}, built past the field cap
    assert F.order == 2**32
    with pytest.raises(CapExceeded):
        make_field(2, 32)
    with pytest.raises(NonPrime):
        make_field(9)


# ---------------------------------------------------------------------------
# The kernel on codes: Zech-log tables against the polynomial basis.


def _basis(F):
    """The polynomial-basis kernel of F, which every field above the table
    bound uses: (add, sub, neg, mul, inv) on codes."""
    return _kernel.basis_ops(F.p, F.modulus)


def test_table_ops_match_basis_ops_on_all_pairs():
    fields = [(p, k) for p, k, q in prime_powers_upto(64) if k > 1]
    assert [p**k for p, k in fields] == [4, 8, 9, 16, 25, 27, 32, 49, 64]
    for p, k in fields:
        F = make_field(p, k)
        add, sub, neg, mul, inv = _basis(F)
        for a in range(F.order):
            assert F.neg(a) == neg(a)
            if a:
                assert F.inv(a) == inv(a) and F.mul(a, inv(a)) == 1
            for b in range(F.order):
                assert F.add(a, b) == add(a, b), (p, k, a, b)
                assert F.sub(a, b) == sub(a, b), (p, k, a, b)
                assert F.mul(a, b) == mul(a, b), (p, k, a, b)


def _schoolbook_mul(F, a, b):
    """Product of two codes by residue vectors: convolution, then
    reduction by the monic modulus, with no Kronecker packing."""
    p, k, m = F.p, F.k, F.modulus
    da = [a // p**i % p for i in range(k)]
    db = [b // p**i % p for i in range(k)]
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top]
        for i in range(k + 1):
            prod[top - k + i] -= c * m[i]
    return sum(c % p * p**i for i, c in enumerate(prod[:k]))


def test_basis_kernel_above_the_table_bound():
    # F_{3^8} is the first field of characteristic 3 above the bound; its
    # own kernel is the polynomial basis, checked against schoolbook
    # products and against Zech tables built for it on purpose.
    F = make_field(3, 8)
    assert F.order > _kernel.TABLE_ORDER
    g = F.multiplicative_generator().code
    add, sub, neg, mul, inv, pw, log = _kernel.zech_ops(F.p, F.order, g, F.mul)
    rng = random.Random(2005)
    for _ in range(2000):
        a, b = rng.randrange(F.order), rng.randrange(F.order)
        assert F.mul(a, b) == _schoolbook_mul(F, a, b) == mul(a, b)
        assert F.add(a, b) == add(a, b) and F.sub(a, b) == sub(a, b)
        assert F.neg(a) == neg(a)
        e = rng.randrange(-50, 50)
        if a:
            assert F.inv(a) == inv(a) and F.mul(a, F.inv(a)) == 1
            assert F.pow(a, e) == pw(a, e % (F.order - 1))
            assert F.pow(g, log(a)) == a
    assert F.log(F.pow(g, 4321)) == 4321


def _coefficientwise(F, a, b, sign):
    """The code of a + sign * b, residue by residue mod p, as spreading
    the codes into slots, adding and gathering computes it."""
    p = F.p
    return sum((a // p**i + sign * (b // p**i)) % p * p**i
               for i in range(F.k))


def test_characteristic_two_basis_kernel_adds_by_xor():
    # above the bound F_{2^13} adds codes as bit vectors; the results
    # must be those of residue-by-residue addition mod 2
    F = make_field(2, 13)
    assert F.order > _kernel.TABLE_ORDER
    add, sub, neg, _, _ = _basis(F)
    rng = random.Random(2005)
    for _ in range(2000):
        a, b = rng.randrange(F.order), rng.randrange(F.order)
        assert F.add(a, b) == add(a, b) == _coefficientwise(F, a, b, 1)
        assert F.sub(a, b) == sub(a, b) == _coefficientwise(F, a, b, -1)
        assert F.neg(a) == neg(a) == _coefficientwise(F, 0, a, -1)


def test_nth_power_count_by_log_matches_by_power():
    # in a table field an element is an n-th power exactly when
    # gcd(n, Q - 1) divides its log; the count must agree with the
    # power test c^((Q-1)/g) = 1 and with brute force
    for p, k in ((2, 2), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2)):
        F = make_field(p, k)
        q1 = F.order - 1
        for n in range(1, 10):
            g = gcd(n, q1)
            seen = {}
            for y in F.elements():
                seen[y ** n] = seen.get(y ** n, 0) + 1
            for c in F.elements():
                count = nth_power_solution_count(c, n)
                assert count == seen.get(c, 0), (F, n, c)
                if c:
                    assert count == (g if F.log(c.code) % g == 0 else 0)
                    assert count == (g if (c ** (q1 // g)).code == 1 else 0)


def test_kernel_is_built_on_first_use():
    # constructing a field builds no kernel; its first operation does
    F = gf.Field(5, 2, make_field(5, 2).modulus)
    with pytest.raises(AttributeError):
        object.__getattribute__(F, "mul")
    assert F.mul(5, 5) == make_field(5, 2).mul(5, 5)
    assert object.__getattribute__(F, "mul") is F.mul


def test_printer_logs_match_generator_powers():
    # the printer's g^j exponents are the field's discrete logs to the
    # smallest generator, on a table field and on one above the bound
    for p, k in ((3, 2), (2, 13)):
        F = make_field(p, k)
        g = F.multiplicative_generator()
        for j in (0, 1, 7, F.order - 2):
            assert F.log((g ** j).code) == j
