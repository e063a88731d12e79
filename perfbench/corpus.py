"""Seeded request corpora for the three workloads.

A corpus is a list of plain dicts: the inputs the program receives plus
the reference answers the oracles compare against.  Nothing here imports
the package under test; the references come from ``refmath``.  The same
(workload, seed, size) always gives the same corpus.

Field sizes, degrees and request counts per stratum are fixed, so the
cost of one pass over a corpus does not depend on the seed; the seed
picks coefficients, denominators, Dickson and group parameters,
relabellings and the order of requests.
"""

import random
from math import gcd

from refmath import RefField, dickson, fiber_histogram

# Subgroup counts of S_n for n = 1..5 (OEIS A005432).
SUBGROUP_COUNTS = {1: 1, 2: 2, 3: 6, 4: 30, 5: 156}
# Orbit identities and condition checks over every (A, G, a) with
# n <= 5, as stated by acceptance criterion 5 of the test suite.
CATALOG_IDENTITIES = 1230
CATALOG_CONDITIONS = 68

# analyze, audits at m = 1, 2, 3 and censuses at m = 1 and, for
# q <= CENSUS_M2_MAX_Q, m = 2: small fields as (p, k, degree, denominator
# degree), then x^n and D_n(x, a) as (p, k, n).  The exponents are fixed,
# because the cost grows steeply with n; the seed picks a.  The m = 2
# census of the larger fields is left out so that the census, which
# spends its time in polyfactor.splitting_type, does not outweigh the
# audits and validators this workload is meant to weigh.
CENSUS_M2_MAX_Q = 9
ANALYZE_SMALL = [
    (3, 1, 3, 1), (3, 1, 4, 2), (2, 2, 3, 1), (2, 2, 5, 2), (5, 1, 2, 1),
    (5, 1, 4, 2), (7, 1, 3, 0), (7, 1, 5, 2), (2, 3, 3, 2), (2, 3, 3, 2),
    (2, 3, 5, 0), (3, 2, 2, 1), (3, 2, 4, 3), (11, 1, 3, 0), (11, 1, 4, 1),
    (13, 1, 3, 2), (13, 1, 4, 1),
]
ANALYZE_MONOMIAL = [(5, 1, 3), (7, 1, 5), (3, 2, 4), (2, 3, 5)]
ANALYZE_DICKSON = [(7, 1, 5), (11, 1, 3)]
# Medium primes, audit and census at m = 1: the O(q^2) validators dominate.
ANALYZE_MEDIUM = [
    (61, 1, 3, 1), (61, 1, 3, 1), (61, 1, 4, 0), (71, 1, 2, 1), (71, 1, 3, 0),
    (71, 1, 3, 0), (83, 1, 3, 2), (83, 1, 4, 1), (97, 1, 2, 0), (97, 1, 3, 1),
    (113, 1, 3, 1), (131, 1, 2, 1), (151, 1, 3, 0),
]
SUPERELLIPTIC_PRIMES = (13, 29, 37, 41, 53, 61)
ANALYZE_SUPERELLIPTIC = 6

# verdict: generic maps as (p, k, degree, denominator degree), each
# stratum VERDICT_REPEATS times per pass; then x^n and D_n(x, a) as
# (p, k, n of x^n, n of D_n), the quintic twists and the quintic pairs.
VERDICT_GENERIC = [
    (5, 1, 4, 2), (7, 1, 4, 2), (2, 2, 3, 2), (2, 2, 4, 1), (3, 2, 4, 2),
    (2, 3, 4, 2), (5, 2, 3, 2), (13, 1, 4, 3), (11, 1, 4, 2), (7, 1, 5, 1),
    (13, 1, 5, 1), (3, 3, 3, 2), (2, 4, 3, 2), (19, 1, 5, 3), (31, 1, 5, 3),
    (29, 1, 5, 2), (11, 1, 5, 2), (17, 1, 5, 2),
]
VERDICT_REPEATS = 3
VERDICT_FAMILIES = [
    (7, 1, 5, 5), (11, 1, 3, 3), (13, 1, 5, 5), (17, 1, 3, 5), (19, 1, 4, 5),
    (23, 1, 3, 4), (3, 2, 5, 4), (5, 2, 3, 3), (2, 3, 3, 5),
]
QUINTIC_TWIST_PRIMES = (13, 17, 29)
QUINTIC_PAIRS = ((17, 10, 3), (29, 13, 4))
# Anchors of total degree 10 and 12, which build the F_{Q^10} and F_{Q^12}
# towers.  Their maps are the same in every seed: the cost of such a map
# varies several-fold from map to map, which would make the time of a
# pass depend on the seed.
VERDICT_ANCHORS = [(13, 1, 7, 4), (31, 1, 7, 6)]

# groups: spec requests per pass, as (family, degree, count).  A spec's
# cost is set by its group orders, so the counts place the median and
# the tail percentile inside the block of S_6 specs rather than
# on a boundary between two sizes.
GROUP_SPECS = (
    [("affine", p, 1) for p in (3, 5, 7, 11, 13)]
    + [("symmetric", 3, 1), ("symmetric", 4, 1), ("symmetric", 5, 2),
       ("symmetric", 6, 24), ("symmetric", 7, 5)]
)

ref_field = RefField.standard


def _dlog_table(F):
    g, acc, table = F.generator(), 1, {}
    for e in range(F.q - 1):
        table.setdefault(acc, e)
        acc = F.mul(acc, g)
    return table


def poly_text(F, f):
    """The canonical grammar string of a polynomial given by codes."""
    logs = _dlog_table(F) if F.k > 1 else None
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if not c:
            continue
        cs = str(c) if c < F.p else f"g^{logs[c]}"
        if i == 0:
            parts.append(cs)
        else:
            xs = "x" if i == 1 else f"x^{i}"
            parts.append(xs if c == 1 else f"{cs}*{xs}")
    return "+".join(parts) if parts else "0"


def _is_valid_map(F, num, den):
    crit = F.padd(F.pmul(F.pderiv(num), den),
                  [F.neg(c) for c in F.pmul(num, F.pderiv(den))])
    return bool(crit) and len(F.pgcd(num, den)) == 1


def random_map(rng, F, n, d):
    """A separable map num/den in lowest terms, num monic of degree n,
    den of degree d < n (den = 1 when d = 0)."""
    while True:
        num = [rng.randrange(F.q) for _ in range(n)] + [1]
        den = ([rng.randrange(F.q) for _ in range(d)] + [rng.randrange(1, F.q)]
               if d else [1])
        if _is_valid_map(F, num, den):
            return num, den


def _map_entry(F, num, den, family=None, expect_exceptional=None):
    hist = fiber_histogram(F, num, den)
    return {
        "p": F.p, "k": F.k, "q": F.q, "modulus": list(F.modulus),
        "num": num, "den": den, "degree": len(num) - 1,
        "num_text": poly_text(F, num), "den_text": poly_text(F, den),
        "family": family, "expect_exceptional": expect_exceptional,
        "hist_m1": {str(s): c for s, c in sorted(hist.items())},
        "bijective_m1": hist == {1: F.q + 1},
    }


def monomial_entry(F, n):
    num = [0] * n + [1]
    return _map_entry(F, num, [1], "monomial", gcd(n, F.q - 1) == 1)


def dickson_entry(F, n, a):
    num = dickson(F, n, a)
    return _map_entry(F, num, [1], "dickson", gcd(n, F.q * F.q - 1) == 1)


def _take(items, smoke):
    return items[:2] if smoke else items


def _analyze_requests(rng, smoke):
    def sweep(entry):
        census_m = [1, 2] if entry["q"] <= CENSUS_M2_MAX_Q else [1]
        return dict(entry, kind="analyze", m=[1, 2, 3], census_m=census_m)

    out = []
    for p, k, n, d in _take(ANALYZE_SMALL, smoke):
        F = ref_field(p, k)
        out.append(sweep(_map_entry(F, *random_map(rng, F, n, d))))
    for p, k, n in _take(ANALYZE_MONOMIAL, smoke):
        out.append(sweep(monomial_entry(ref_field(p, k), n)))
    for p, k, n in _take(ANALYZE_DICKSON, smoke):
        F = ref_field(p, k)
        out.append(sweep(dickson_entry(F, n, rng.randrange(1, F.q))))
    for p, k, n, d in _take(ANALYZE_MEDIUM, smoke):
        F = ref_field(p, k)
        out.append(dict(_map_entry(F, *random_map(rng, F, n, d)),
                        kind="analyze", m=[1], census_m=[1]))
    for _ in range(2 if smoke else ANALYZE_SUPERELLIPTIC):
        out.append(superelliptic_entry(rng))
    out.append({"kind": "examples"})
    return out


def superelliptic_entry(rng):
    """omitted_point_cover over a prime q with n | (q - 1) / 2."""
    q = rng.choice(SUPERELLIPTIC_PRIMES)
    F = ref_field(q, 1)
    n = rng.choice([n for n in range(2, q) if (q - 1) % (2 * n) == 0])
    a = rng.choice([t for t in range(1, q) if F.is_nth_power(t, n)])
    gamma = rng.randrange(1, q)
    split = F.is_nth_power(gamma, n)
    # Above t != 0, a: one point (y = 0).  Above 0 and a: n points when
    # gamma * h is an n-th power there, which happens for both exactly
    # when gamma is one.  Above infinity: one place, as gcd(n, q-2) = 1.
    hist = {1: q - 1, n: 2} if split else {0: 2, 1: q - 1}
    return {
        "kind": "superelliptic", "q": q, "n": n, "a": a, "gamma": gamma,
        "genus": (n - 1) * (q - 3) // 2,
        "hist_m1": {str(s): c for s, c in sorted(hist.items())},
    }


def _verdict_requests(rng, smoke):
    out = []
    for p, k, n, d in _take(VERDICT_GENERIC, smoke):
        F = ref_field(p, k)
        for _ in range(1 if smoke else VERDICT_REPEATS):
            out.append(dict(_map_entry(F, *random_map(rng, F, n, d)),
                            kind="verdict"))
    for p, k, n_mono, n_dickson in _take(VERDICT_FAMILIES, smoke):
        F = ref_field(p, k)
        out.append(dict(monomial_entry(F, n_mono), kind="verdict"))
        out.append(dict(dickson_entry(F, n_dickson, rng.randrange(1, F.q)),
                        kind="verdict"))
    for q in _take(QUINTIC_TWIST_PRIMES, smoke):
        F = ref_field(q, 1)
        i = min(z for z in range(q) if (z * z + 1) % q == 0)
        b = min(z for z in range(1, q) if not F.is_nth_power(z, 2))
        a = b * (4 * i - 3) % q
        out.append(dict(_map_entry(F, [0, -a % q, 0, 0, 0, 1],
                                   [-b % q, 0, 0, 0, 1], "quintic_twist",
                                   True), kind="verdict"))
    for q, a, b in _take(QUINTIC_PAIRS, smoke):
        F = ref_field(q, 1)
        entry = _map_entry(F, [0, -a % q, 0, 0, 0, 1], [-b % q, 0, 0, 0, 1],
                           "quintic_pair", False)
        if not entry["bijective_m1"]:
            raise AssertionError("the quintic pair must be bijective")
        out.append(dict(entry, kind="verdict"))
    for p, k, n, d in ([] if smoke else VERDICT_ANCHORS):
        F = ref_field(p, k)
        fixed = random.Random(f"anchor:{p}:{n}:{d}")
        out.append(dict(_map_entry(F, *random_map(fixed, F, n, d)),
                        kind="verdict"))
    return out


# -- group specs ------------------------------------------------------------


def _cycles_text(images):
    seen, cycles = set(), []
    for s in range(len(images)):
        if s in seen or images[s] == s:
            continue
        cyc, t = [], s
        while t not in seen:
            seen.add(t)
            cyc.append(t)
            t = images[t]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) or "()"


def _relabel(images, sigma):
    """sigma * g * sigma^-1 as an image list."""
    out = [0] * len(images)
    for s, t in enumerate(images):
        out[sigma[s]] = sigma[t]
    return out


def spec_text(deg, ambient, normal, rep, sigma):
    lines = ["[deg]", str(deg), "[A]"]
    lines += [_cycles_text(_relabel(g, sigma)) for g in ambient]
    lines.append("[G]")
    lines += [_cycles_text(_relabel(g, sigma)) for g in normal]
    lines += ["[a]", _cycles_text(_relabel(rep, sigma))]
    return "\n".join(lines) + "\n"


def affine_spec(rng, p):
    """A = C_p x| <u> and G = C_p x| <u^e> on F_p, a = (x -> u x + b).

    Every element x -> c x + b' of the coset aG has exactly one fixed
    point unless c = 1, and c = 1 occurs in u <u^e> exactly when e = 1,
    so the exceptionality conditions hold exactly when e > 1.
    """
    F = ref_field(p, 1)
    d = rng.choice([d for d in range(1, p) if (p - 1) % d == 0])
    u = rng.choice([x for x in range(1, p)
                    if min(j for j in range(1, p) if F.pow(x, j) == 1) == d])
    e = rng.choice([e for e in range(1, d + 1) if d % e == 0])
    b = rng.randrange(p)
    shift = [(x + 1) % p for x in range(p)]
    ambient = [shift, [u * x % p for x in range(p)]]
    normal = [shift, [F.pow(u, e) * x % p for x in range(p)]]
    rep = [(u * x + b) % p for x in range(p)]
    sigma = list(range(p))
    rng.shuffle(sigma)
    return {
        "kind": "groups_spec", "family": "affine", "deg": p,
        "text": spec_text(p, ambient, normal, rep, sigma),
        "ambient_order": p * d, "normal_order": p * d // e,
        "holds": e > 1,
    }


def symmetric_spec(rng, n):
    """A = S_n, G = A_n, a a seeded odd permutation.  The coset holds the
    transpositions, which have n - 2 fixed points, so the conditions hold
    exactly when n = 3."""
    ident = list(range(n))
    transposition = ident[:]
    transposition[0], transposition[1] = 1, 0
    ambient = [transposition, ident[1:] + [0]]
    normal = []
    for k in range(2, n):
        g = ident[:]
        g[0], g[1], g[k] = 1, k, 0
        normal.append(g)
    while True:
        rep = ident[:]
        rng.shuffle(rep)
        if _parity(rep):
            break
    sigma = ident[:]
    rng.shuffle(sigma)
    order = 1
    for j in range(2, n + 1):
        order *= j
    return {
        "kind": "groups_spec", "family": "symmetric", "deg": n,
        "text": spec_text(n, ambient, normal, rep, sigma),
        "ambient_order": order, "normal_order": order // 2,
        "holds": n == 3,
    }


def _parity(images):
    seen, odd = set(), 0
    for s in range(len(images)):
        length, t = 0, s
        while t not in seen:
            seen.add(t)
            t = images[t]
            length += 1
        if length:
            odd ^= (length - 1) & 1
    return odd


def _groups_requests(rng, smoke):
    specs = [("affine", 3, 1), ("symmetric", 3, 1)] if smoke else GROUP_SPECS
    make = {"affine": affine_spec, "symmetric": symmetric_spec}
    return [make[family](rng, deg)
            for family, deg, count in specs for _ in range(count)]


_BUILDERS = {
    "analyze": _analyze_requests,
    "verdict": _verdict_requests,
    "groups": _groups_requests,
}
WORKLOADS = tuple(_BUILDERS)


def build(workload, seed, smoke=False):
    """The request list of one pass, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    requests = _BUILDERS[workload](rng, smoke)
    rng.shuffle(requests)
    for i, req in enumerate(requests):
        req["id"] = f"{workload}-{i:03d}"
    return requests
