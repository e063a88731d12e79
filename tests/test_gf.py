import random

import pytest

from exccover.config import Config
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


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(NonPrime):
        make_field(4, 1)


def test_make_field_cap():
    with pytest.raises(CapExceeded):
        make_field(2, 40)
    make_field(2, 40, Config(field_cap=2**41))


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
