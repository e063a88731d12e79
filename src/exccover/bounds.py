"""Exact integer evaluation of the closed-form bounds and thresholds.

Every square-root comparison is restated as an integer inequality
between squares, so no floating point appears anywhere; factorials and
squares use arbitrary precision throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, isqrt

from .errors import InvalidOrder, NotPrimePower
from .gf import prime_factors


def prime_power_decomposition(q):
    """(p, e) with q = p^e, or NotPrimePower."""
    primes = prime_factors(q)
    if len(primes) != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    p, e = primes[0], 1
    while p**e < q:
        e += 1
    return p, e


def is_prime_power(q):
    try:
        prime_power_decomposition(q)
        return True
    except NotPrimePower:
        return False


def castelnuovo_bound(d1, d2, g1, g2):
    """(d1 - 1)(d2 - 1) + d1 g1 + d2 g2: arithmetic-genus bound for a
    curve mapping to a product of curves with the given degrees."""
    if d1 < 1 or d2 < 1 or g1 < 0 or g2 < 0:
        raise ValueError("degrees must be >= 1 and genera >= 0")
    return (d1 - 1) * (d2 - 1) + d1 * g1 + d2 * g2


def singular_weil_interval(q, p_a):
    """[lo, hi] bracketing the point count of a curve of arithmetic
    genus p_a: |N - q - 1| <= 2 p_a sqrt(q), computed exactly."""
    prime_power_decomposition(q)
    if p_a < 0:
        raise ValueError("arithmetic genus must be >= 0")
    # s = floor(2 p_a sqrt(q)); integers below the bound satisfy t <= s
    s = isqrt(4 * p_a * p_a * q)
    lo = max(0, q + 1 - s)
    hi = q + 1 + s
    return lo, hi


@dataclass(frozen=True)
class InjectivityThresholds:
    quadratic_bound: int        # 2n^2 + 4n g_X
    refined_bound: int          # 2(n-2)^2 + 4(n-1) g_X + 1
    minimal_q_quadratic: int    # least q with sqrt(q) > quadratic_bound
    minimal_q_refined: int


def injectivity_thresholds(n, g_x):
    """Both injectivity-implies-exceptionality bounds; the sqrt(q)
    comparisons are strict, so the minimal q is the square plus one."""
    if n < 2 or g_x < 0:
        raise ValueError("need degree >= 2 and genus >= 0")
    b1 = 2 * n * n + 4 * n * g_x
    b2 = 2 * (n - 2) ** 2 + 4 * (n - 1) * g_x + 1
    return InjectivityThresholds(b1, b2, b1 * b1 + 1, b2 * b2 + 1)


@dataclass(frozen=True)
class SurjectivityThreshold:
    bound: int          # n! (3 g_X + 3n)
    minimal_q: int      # least q with sqrt(q) >= bound


def surjectivity_threshold(n, g_x):
    """The surjectivity-implies-exceptionality bound; non-strict."""
    if n < 2 or g_x < 0:
        raise ValueError("need degree >= 2 and genus >= 0")
    b = factorial(n) * (3 * g_x + 3 * n)
    return SurjectivityThreshold(b, b * b)


def galois_closure_genus_bound(n, g_x, g_y=0, group_order=None):
    """Upper bound for the genus of the Galois closure of a degree-n
    cover: 1 + #G (g_X - 1 - (n-2)(g_Y - 1)) / 2 when the geometric
    monodromy order is known, else 1 + n! (g_X + n - 3) / 2.

    Odd half-integer values round up, weakening the bound safely."""
    if n < 2 or g_x < 0 or g_y < 0:
        raise ValueError("need degree >= 2 and genera >= 0")
    if group_order is not None:
        if group_order < 1 or factorial(n) % group_order != 0:
            raise InvalidOrder(f"{group_order} does not divide {n}!")
        t = group_order * (g_x - 1 - (n - 2) * (g_y - 1))
    else:
        t = factorial(n) * (g_x + n - 3)
    return 1 + -(-t // 2)


def chebotarev_threshold(g_v, group_order, ramified_count):
    """Least field size K with sqrt(K) >= 2 g_V + sqrt(#G * #U),
    clamped to 1, decided by exact squared comparisons."""
    if g_v < 0 or group_order < 0 or ramified_count < 0:
        raise ValueError("inputs must be >= 0")
    gu = group_order * ramified_count

    def ok(K):
        # sqrt(K) >= a + sqrt(gu) with a = 2 g_v, all terms nonnegative
        a = 2 * g_v
        s = K - a * a - gu
        return s >= 0 and s * s >= 4 * a * a * gu

    lo, hi = 1, (2 * g_v + isqrt(gu) + 1) ** 2 + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass(frozen=True)
class Applicability:
    """Exact threshold predicates for a concrete field size."""

    injective_criterion_applies: bool       # sqrt(q) > 2n^2 + 4n g_X
    injective_refined_applies: bool         # sqrt(q) > 2(n-2)^2 + 4(n-1)g_X + 1
    surjective_criterion_applies: bool      # sqrt(q) >= n!(3 g_X + 3n)
    ramification_bound: int                 # 2 g_X + 2n - 2


def applicability(n, g_x, q):
    """Evaluate each threshold predicate exactly at a field size q.

    The predicates are monotone integer comparisons, so any q >= 2 is
    accepted; callers wanting prime-power validation can use
    prime_power_decomposition first."""
    if q < 2:
        raise ValueError("field size must be >= 2")
    inj = injectivity_thresholds(n, g_x)
    sur = surjectivity_threshold(n, g_x)
    return Applicability(
        injective_criterion_applies=q > inj.quadratic_bound**2,
        injective_refined_applies=q > inj.refined_bound**2,
        surjective_criterion_applies=q >= sur.bound**2,
        ramification_bound=2 * g_x + 2 * n - 2,
    )


@dataclass(frozen=True)
class ThresholdReport:
    """Every closed-form bound for one cover shape, evaluated exactly."""

    n: int
    g_x: int
    g_y: int
    group_order: int
    ramified_count: int
    injectivity: InjectivityThresholds
    surjectivity: SurjectivityThreshold
    genus_upper: int
    chebotarev_min_field: int
    ramification_bound: int


def threshold_report(n, g_x, g_y=0, group_order=None, ramified_count=None):
    """Assemble the full bound table for a degree-n cover of genus g_x.

    Defaults: the group order falls back to n!, the ramified-point count
    to the ramification bound, and the Galois-closure genus feeds the
    Chebotarev threshold as the cover genus."""
    inj = injectivity_thresholds(n, g_x)
    sur = surjectivity_threshold(n, g_x)
    genus_upper = galois_closure_genus_bound(n, g_x, g_y, group_order)
    eff_group = group_order if group_order is not None else factorial(n)
    ram_bound = 2 * g_x + 2 * n - 2
    eff_ram = ramified_count if ramified_count is not None else ram_bound
    cheb = chebotarev_threshold(max(genus_upper, 0), eff_group, eff_ram)
    return ThresholdReport(
        n=n, g_x=g_x, g_y=g_y,
        group_order=eff_group, ramified_count=eff_ram,
        injectivity=inj, surjectivity=sur,
        genus_upper=genus_upper,
        chebotarev_min_field=cheb,
        ramification_bound=ram_bound,
    )
