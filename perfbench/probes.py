"""Kernel probes: fixed inputs, a warm-up, then timing, then a check.

Field operations run millions of times per request, so spans around
them would distort a traced run; their cost comes from these probes.
Inputs are drawn from ``random.Random(PROBE_SEED)`` and so are the same
in every run:

- ``gf.*``: 256 pairs of nonzero elements of F_29, F_{29^3} and
  F_{13^12} (the last built as a degree-12 extension, as the
  absolute-irreducibility test does).  Batches of 256 products or
  inverses, repeated for about 0.1 s, five times; the median batch.
- ``polyfactor.*``: over F_29, monic operands of the named degree;
  ``divmod`` divides a degree-128 dividend by a degree-64 divisor,
  ``pow_mod`` raises a degree-15 base to 29^16 modulo a degree-16
  modulus.  ``factor_univariate`` factors one degree-64 polynomial and
  ``factor_bivariate`` the product of two bidegree-(4,4) polynomials,
  each once after a warm-up on a smaller input.

Every result is checked with the reference arithmetic, so a probe
cannot time a wrong kernel.
"""

import random
import statistics
import time

from harness import bpoly_codes
from refmath import RefField

PROBE_SEED = 20050511


class ProbeError(AssertionError):
    """A probed kernel returned a wrong result."""


def _require(ok, what):
    if not ok:
        raise ProbeError(f"probe check failed: {what}")


def _median_time(op, batch, seconds=0.1, samples=5):
    """Median seconds per call of op over ``samples`` timed stretches."""
    op()
    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            op()
        if time.perf_counter() - start >= seconds / samples or reps > 1 << 20:
            break
        reps *= 2
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        for _ in range(reps):
            op()
        times.append((time.perf_counter() - start) / (reps * batch))
    return statistics.median(times)


def _field_probes(rng, label, F, out):
    ref = RefField(F.p, F.modulus)
    pairs = [(F.from_int(rng.randrange(1, F.order)),
              F.from_int(rng.randrange(1, F.order))) for _ in range(256)]

    def mul():
        return [a * b for a, b in pairs]

    def inv():
        return [a.inverse() for a, _ in pairs]

    for (a, b), c in zip(pairs, mul()):
        _require(ref.mul(a.to_int(), b.to_int()) == c.to_int(),
                 f"{label} product")
    for (a, _), c in zip(pairs, inv()):
        _require(ref.mul(a.to_int(), c.to_int()) == 1, f"{label} inverse")
    out[f"gf.mul_ns.{label}"] = _median_time(mul, len(pairs)) * 1e9
    out[f"gf.inv_ns.{label}"] = _median_time(inv, len(pairs)) * 1e9


def _codes(f):
    return [f.coefficient(i).to_int() for i in range(f.degree + 1)]


def _poly_probes(pkg, rng, out):
    gf, pf = pkg.gf, pkg.polyfactor
    F = gf.make_field(29)
    ref = RefField(29, F.modulus)

    def monic(d):
        return pf.UPoly(F, [rng.randrange(29) for _ in range(d)] + [1])

    for d in (16, 64):
        f, g = monic(d), monic(d)
        _require(_codes(f * g) == ref.pmul(_codes(f), _codes(g)),
                 f"UPoly product d{d}")
        out[f"polyfactor.upoly_mul_us.d{d}"] = _median_time(
            lambda: f * g, 1) * 1e6

    a, b = monic(128), monic(64)
    quo, rem = divmod(a, b)
    _require(ref.padd(ref.pmul(_codes(quo), _codes(b)), _codes(rem))
             == _codes(a) and rem.degree < 64, "UPoly divmod d64")
    out["polyfactor.upoly_divmod_us.d64"] = _median_time(
        lambda: divmod(a, b), 1) * 1e6

    base, mod, e = monic(15), monic(16), 29 ** 16
    _require(_codes(pf.pow_mod(base, e, mod))
             == ref.ppowmod(_codes(base), e, _codes(mod)), "pow_mod d16")
    out["polyfactor.pow_mod_ms.d16"] = _median_time(
        lambda: pf.pow_mod(base, e, mod), 1, seconds=0.3) * 1e3

    pf.factor_univariate(monic(16))
    f = monic(64)
    start = time.perf_counter()
    cert = pf.factor_univariate(f)
    out["polyfactor.factor_univariate_ms.d64"] = (
        time.perf_counter() - start) * 1e3
    product = [cert.unit.to_int()]
    for g, mult in cert.factors:
        _require(g.lc().to_int() == 1 and g.degree >= 1, "monic factors")
        for _ in range(mult):
            product = ref.pmul(product, _codes(g))
    _require(product == _codes(f), "univariate certificate product")

    def bpoly(dx, dy):
        return pf.BPoly(F, [pf.UPoly(F, [rng.randrange(29)
                                         for _ in range(dx + 1)])
                            for _ in range(dy + 1)])

    pf.factor_bivariate(bpoly(2, 2) * bpoly(2, 2))
    G = bpoly(4, 4) * bpoly(4, 4)
    start = time.perf_counter()
    cert = pf.factor_bivariate(G)
    out["polyfactor.factor_bivariate_ms.b8x8"] = (
        time.perf_counter() - start) * 1e3
    product = {(0, 0): cert.unit.to_int()}
    for H, mult in cert.factors:
        for _ in range(mult):
            product = ref.bmul(product, bpoly_codes(H))
    _require(product == bpoly_codes(G), "bivariate certificate product")


def run(pkg):
    """Every probe's value, keyed by its metric name."""
    rng = random.Random(PROBE_SEED)
    out = {}
    gf = pkg.gf
    for label, F in (("p29", gf.make_field(29)),
                     ("p29k3", gf.make_field(29, 3)),
                     ("p13k12", gf.extension(gf.make_field(13), 12)[0])):
        _field_probes(rng, label, F, out)
    _poly_probes(pkg, rng, out)
    return out
