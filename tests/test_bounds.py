import itertools
import random
from math import factorial, isqrt

import pytest

from exccover.errors import InvalidOrder, NotPrimePower
from exccover.bounds import (
    applicability,
    castelnuovo_bound,
    chebotarev_threshold,
    galois_closure_genus_bound,
    injectivity_thresholds,
    prime_power_decomposition,
    singular_weil_interval,
    surjectivity_threshold,
    threshold_report,
)


def sieve_primes(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return [i for i in range(limit + 1) if flags[i]]


def prime_powers_upto(limit):
    out = []
    for p in sieve_primes(limit):
        q = p
        while q <= limit:
            out.append(q)
            q *= p
    return sorted(out)


def test_prime_power_decomposition():
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(29) == (29, 1)
    assert prime_power_decomposition(169) == (13, 2)
    assert prime_power_decomposition(243) == (3, 5)
    for bad in (1, 12, 2501, 100, 90):
        with pytest.raises(NotPrimePower):
            prime_power_decomposition(bad)


def test_castelnuovo_examples():
    assert castelnuovo_bound(2, 2, 0, 0) == 1
    assert castelnuovo_bound(1, 1, 3, 5) == 8
    assert castelnuovo_bound(4, 4, 0, 2) == 17
    with pytest.raises(ValueError):
        castelnuovo_bound(0, 1, 0, 0)


def test_singular_weil_examples():
    assert singular_weil_interval(25, 1) == (16, 36)
    assert singular_weil_interval(4, 0) == (5, 5)
    assert singular_weil_interval(9, 2) == (0, 22)
    with pytest.raises(NotPrimePower):
        singular_weil_interval(10, 1)


def test_singular_weil_genus_zero_is_exact():
    for q in prime_powers_upto(10_000):
        assert singular_weil_interval(q, 0) == (q + 1, q + 1)


def test_injectivity_thresholds_examples():
    t = injectivity_thresholds(5, 0)
    assert t.quadratic_bound == 50
    assert t.minimal_q_quadratic == 2501      # consistent with 4 n^4 = 2500
    assert t.refined_bound == 19
    assert t.minimal_q_refined == 362
    t2 = injectivity_thresholds(2, 0)
    assert t2.refined_bound == 1 and t2.minimal_q_refined == 2


def test_surjectivity_threshold_examples():
    t = surjectivity_threshold(2, 0)
    assert t.bound == 12 and t.minimal_q == 144
    t5 = surjectivity_threshold(5, 0)
    assert t5.bound == 1800 and t5.minimal_q == 3_240_000
    t25 = surjectivity_threshold(25, 1)
    assert t25.bound == factorial(25) * 78  # exact big integer


def test_genus_bound_examples():
    assert galois_closure_genus_bound(2, 1, 0, 2) == 1
    assert galois_closure_genus_bound(3, 0, 0, 6) == 1
    assert galois_closure_genus_bound(5, 0, 0) == 121
    with pytest.raises(InvalidOrder):
        galois_closure_genus_bound(3, 0, 0, 4)  # 4 does not divide 3!


def test_genus_bound_rounds_up():
    # G (g_X - 1 - (n-2)(g_Y - 1)) = 3 here, an odd numerator: 1 + ceil(3/2)
    assert galois_closure_genus_bound(3, 1, 0, 3) == 3
    # negative odd numerator -1 also rounds toward positive infinity
    assert galois_closure_genus_bound(2, 0, 0, 1) == 1


def bisected_chebotarev_threshold(g_v, group_order, ramified_count):
    """Least K >= 1 with sqrt(K) >= 2 g_V + sqrt(#G * #U), by bisection
    on exact squared comparisons."""
    a, gu = 2 * g_v, group_order * ramified_count

    def ok(K):
        s = K - a * a - gu
        return s >= 0 and s * s >= 4 * a * a * gu

    lo, hi = 1, (a + isqrt(gu) + 1) ** 2 + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_chebotarev_closed_form_matches_bisection():
    for args in itertools.product(range(40), range(60), range(12)):
        assert chebotarev_threshold(*args) == bisected_chebotarev_threshold(*args)
    rng = random.Random(2005)
    for _ in range(3000):
        args = [rng.randrange(10 ** rng.randrange(1, 31)) for _ in range(3)]
        assert chebotarev_threshold(*args) == bisected_chebotarev_threshold(*args)


def test_chebotarev_threshold_examples():
    assert chebotarev_threshold(0, 2, 4) == 8
    assert chebotarev_threshold(0, 0, 0) == 1
    K = chebotarev_threshold(121, 120, 12)

    def passes(val, gv=121, gu=120 * 12):
        a = 2 * gv
        s = val - a * a - gu
        return s >= 0 and s * s >= 4 * a * a * gu

    assert passes(K) and not passes(K - 1)


def test_applicability_examples():
    assert applicability(5, 0, 2501).injective_criterion_applies
    assert not applicability(5, 0, 2500).injective_criterion_applies
    ap = applicability(2, 0, 169)
    assert ap.surjective_criterion_applies  # 13 >= 12
    assert ap.ramification_bound == 2


def test_threshold_predicates_monotone_in_q():
    qs = prime_powers_upto(1_000_000)
    for n, gx in ((2, 0), (3, 0), (3, 1), (4, 0), (5, 0)):
        inj = injectivity_thresholds(n, gx)
        sur = surjectivity_threshold(n, gx)
        prev = (False, False, False)
        for q in qs:
            cur = (q > inj.quadratic_bound**2,
                   q > inj.refined_bound**2,
                   q >= sur.bound**2)
            for before, after in zip(prev, cur):
                assert not (before and not after), (n, gx, q)
            prev = cur


def test_bound_ratio_grows_superpolynomially():
    # consecutive ratios of the surjectivity to injectivity bound must
    # strictly increase with the degree
    ratios = []
    for n in range(2, 9):
        sur = surjectivity_threshold(n, 0).bound
        inj = injectivity_thresholds(n, 0).quadratic_bound
        ratios.append(sur / inj)
    from fractions import Fraction

    exact = [Fraction(factorial(n) * 3 * n, 2 * n * n) for n in range(2, 9)]
    assert all(b > a for a, b in zip(exact, exact[1:]))
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_threshold_report_defaults():
    rep = threshold_report(5, 0)
    assert rep.group_order == factorial(5)
    assert rep.ramified_count == 8
    assert rep.genus_upper == 121
    assert rep.injectivity.minimal_q_quadratic == 2501
