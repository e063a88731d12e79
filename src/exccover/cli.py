"""Command-line front end: polynomial-expression parsing, subcommands
orchestrating the library modules, and deterministic JSON or text
reports.

Subcommands: analyze, superelliptic, groups, bounds, examples.  JSON
output is key-sorted and contains no timings or floats, so identical
arguments and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from functools import cache

from . import __version__
from .config import Config, DEFAULT_CONFIG
from .errors import (
    CapExceeded,
    ExcCoverError,
    NotTransitive,
    ParseError,
    PreconditionFailed,
    UnknownSymbol,
)
from .gf import make_field
from .polyfactor import UPoly
from .covers import (
    BranchLocus,
    RationalMap,
    audit_rational_map,
    audit_superelliptic,
    omitted_point_cover,
    ramified_rational_points,
    splitting_census,
    totally_ramified_at_infinity,
)
from .excep import (
    decide_exceptional,
    quintic_pair_map,
    quintic_twist_map,
    validate_diagonal_bound,
    validate_intersection_property,
)
from .groups import (
    CosetSpec,
    Perm,
    PermGroup,
    cycle_type_histogram,
    exceptionality_conditions,
    fixed_point_identity,
)
from .bounds import applicability, prime_power_decomposition, threshold_report


# ---------------------------------------------------------------------------
# Polynomial grammar.
#
#   expr  := ('+'|'-')? term (('+'|'-') term)*
#   term  := coeff '*'? ('x' ('^' nat)?)? | 'x' ('^' nat)?
#   coeff := nat | 'g' ('^' nat)?
#
# 'g' denotes the smallest multiplicative generator of a non-prime field.


def _tokenize(text):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("nat", int(text[i:j]), i))
            i = j
            continue
        if ch in "xg^*+-":
            toks.append((ch, None, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, len(text)))
    return toks


class _PolyParser:
    def __init__(self, text, field):
        self.toks = _tokenize(text)
        self.pos = 0
        self.field = field

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_nat(self, what):
        kind, value, offset = self.peek()
        if kind != "nat":
            raise ParseError(f"expected {what}", offset)
        self.take()
        return value

    def parse_coeff(self):
        kind, value, offset = self.peek()
        if kind == "nat":
            self.take()
            return self.field.element(value)
        if kind == "g":
            self.take()
            if self.field.k == 1:
                raise UnknownSymbol(
                    "generator coefficients need a non-prime field")
            e = 1
            if self.peek()[0] == "^":
                self.take()
                e = self.expect_nat("generator exponent")
            return self.field.multiplicative_generator() ** e
        raise ParseError("expected a coefficient", offset)

    def parse_xpart(self):
        kind, _, offset = self.peek()
        if kind != "x":
            raise ParseError("expected 'x'", offset)
        self.take()
        if self.peek()[0] == "^":
            self.take()
            return self.expect_nat("exponent")
        return 1

    def parse_term(self):
        """(coefficient, exponent)."""
        kind, _, offset = self.peek()
        if kind == "x":
            return self.field.one(), self.parse_xpart()
        if kind in ("nat", "g"):
            coeff = self.parse_coeff()
            if self.peek()[0] == "*":
                self.take()
                return coeff, self.parse_xpart()
            if self.peek()[0] == "x":
                return coeff, self.parse_xpart()
            return coeff, 0
        raise ParseError("expected a term", offset)

    def parse(self):
        acc = {}
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        while True:
            coeff, exp = self.parse_term()
            if sign < 0:
                coeff = -coeff
            acc[exp] = acc.get(exp, 0) + coeff
            kind, _, offset = self.peek()
            if kind == "end":
                break
            if kind not in ("+", "-"):
                raise ParseError("expected '+' or '-'", offset)
            sign = -1 if self.take()[0] == "-" else 1
        deg = max(acc) if acc else 0
        return UPoly(self.field, [acc.get(i, 0) for i in range(deg + 1)])


def parse_poly(text, field):
    """Parse expression text into a UPoly over the given field."""
    return _PolyParser(text, field).parse()


def _coeff_str(c):
    if c.in_prime_subfield():
        return str(c.code)
    return f"g^{c.field.log(c.code)}"


def poly_to_str(f):
    """Canonical grammar string; parse(poly_to_str(f)) == f."""
    if f.is_zero():
        return "0"
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coefficient(i)
        if c.is_zero():
            continue
        cs = _coeff_str(c)
        if i == 0:
            parts.append(cs)
        else:
            xs = "x" if i == 1 else f"x^{i}"
            parts.append(xs if c == f.field.one() else f"{cs}*{xs}")
    return "+".join(parts)


def bpoly_to_str(F):
    """Human-readable bivariate rendering (output only)."""
    if F.is_zero():
        return "0"
    terms = []
    for j in range(F.deg_y, -1, -1):
        for i in range(F.deg_x, -1, -1):
            c = F.coefficient(i, j)
            if c.is_zero():
                continue
            terms.append((i + j, i, j, c))
    terms.sort(key=lambda t: (-t[0], -t[2], -t[1]))
    parts = []
    one = F.field.one()
    for _, i, j, c in terms:
        bits = []
        if c != one or (i == 0 and j == 0):
            bits.append(_coeff_str(c))
        if i:
            bits.append("x" if i == 1 else f"x^{i}")
        if j:
            bits.append("y" if j == 1 else f"y^{j}")
        parts.append("*".join(bits))
    return "+".join(parts)


# ---------------------------------------------------------------------------
# Group-spec files: sections [deg], [A], [G], [a]; one generator per line
# in cycle notation on 0-based points.


_CYCLES = re.compile(r"(?:\([\d\s,]*\)\s*)*")


def parse_cycles(text, deg):
    """Permutation from whitespace-separated cycles such as ``(0 1 2) (3, 4)``."""
    text = text.strip()
    end = _CYCLES.match(text).end()
    if end != len(text):
        raise ValueError(f"malformed cycle notation at {text[end:]!r} in {text!r}")
    cycles = []
    for body in re.findall(r"\(([^()]*)\)", text):
        points = body.replace(",", " ").split()
        if points:
            cycles.append(tuple(int(s) for s in points))
    return Perm.from_cycles(deg, cycles)


def load_group_spec(path, config=DEFAULT_CONFIG):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    sections = {}
    current = None
    max_point = -1
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ValueError("content before the first section header")
        sections[current].append(line)
        for tok in line.replace("(", " ").replace(")", " ").replace(",", " ").split():
            if tok.isdigit():
                max_point = max(max_point, int(tok))
    for needed in ("A", "G", "a"):
        if needed not in sections:
            raise ValueError(f"group spec is missing section [{needed}]")
    deg = max_point + 1
    if sections.get("deg"):
        raw = sections["deg"][0]
        if not raw.isdecimal() or int(raw) < 1:
            raise ValueError(f"[deg] {raw!r} is not a positive integer")
        deg = int(raw)
    elif deg < 1:
        raise ValueError("the spec names no point; give its degree in [deg]")
    A = PermGroup(deg, [parse_cycles(t, deg) for t in sections["A"]], config)
    G = PermGroup(deg, [parse_cycles(t, deg) for t in sections["G"]], config)
    if len(sections["a"]) != 1:
        raise ValueError("section [a] must hold exactly one representative")
    rep = parse_cycles(sections["a"][0], deg)
    return CosetSpec(A, G, rep)


# ---------------------------------------------------------------------------
# JSON serialization helpers.


def fel_json(e):
    return list(e.coeffs)


def point_json(P):
    if P.is_infinity:
        return {"type": "infinity"}
    return {"type": "finite", "coeffs": fel_json(P.x)}


def points_json(points):
    return [point_json(P) for P in sorted(points, key=lambda P: P.sort_key())]


def frac_json(fr):
    return f"{fr.numerator}/{fr.denominator}"


def audit_json(audit):
    hist = audit.histogram()
    return {
        "m": audit.m,
        "base_points": audit.base_order + 1,
        "injective": audit.injective,
        "surjective": audit.surjective,
        "bijective": audit.bijective,
        "fiber_size_histogram": {str(k): v for k, v in sorted(hist.items())},
        "excluded_branch": (points_json(audit.excluded_branch)
                            if audit.excluded_branch is not None else None),
    }


def census_json(census):
    return {
        "m": census.m,
        "histogram": [{"type": list(t), "count": c}
                      for t, c in sorted(census.histogram.items())],
        "branch_points": points_json(census.branch_points),
        "non_branch_points": census.total(),
    }


def report_json(command, inputs, results, seed):
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "seed": seed,
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# Subcommand implementations.  Each returns (results_dict, text_lines).


def _parse_m_list(raw, default):
    if raw is None:
        return list(default)
    out = []
    for piece in filter(None, map(str.strip, str(raw).split(","))):
        if not piece.isdecimal():
            raise ValueError(f"degree {piece!r} in {raw!r} is not a positive integer")
        if int(piece) in out:
            raise ValueError(f"extension degree {int(piece)} is repeated in {raw!r}")
        out.append(int(piece))
    if not out or any(m < 1 for m in out):
        raise ValueError("extension degrees must be positive")
    return out


def _within_cap(stage, degrees, q, config, skipped):
    """The degrees m of the list with q^m within the enumeration cap; each
    other one goes to ``skipped`` with its reason."""
    cap = config.enumeration_cap
    kept = []
    for m in degrees:
        if q**m <= cap:
            kept.append(m)
        else:
            skipped.append({"stage": stage, "m": m, "reason":
                            f"q^m = {q**m} exceeds the enumeration cap {cap}"})
    return kept


def _skipped_text(skipped):
    return [f"{s['stage']} m={s['m']}: skipped ({s['reason']})" for s in skipped]


def _field_from_q(q, config):
    p, k = prime_power_decomposition(q)
    return make_field(p, k, config)


def cmd_analyze(args, config):
    field = make_field(args.p, args.k, config)
    num = parse_poly(args.num, field)
    den = parse_poly(args.den, field)
    f = RationalMap(num, den)
    if f.degree < 2:
        raise PreconditionFailed(
            f"analyze needs a map of degree >= 2; this map has degree {f.degree}")
    q = field.order

    skipped = []
    sweep = _within_cap("audit", _parse_m_list(args.m, (1, 2, 3)), q, config,
                        skipped)
    census_sweep = _within_cap("census", _parse_m_list(args.census_m, (1,)), q,
                               config, skipped)

    report = decide_exceptional(f, config)
    audits = [audit_rational_map(f, m, config) for m in sweep]
    censuses = [splitting_census(f, m, config) for m in census_sweep]
    census1 = next((c for c in censuses if c.m == 1), None)
    branch = (BranchLocus(1, census1.branch_points, 2 * f.degree - 2)
              if census1 is not None else ramified_rational_points(f, 1, config))

    validators = {"intersection_violations":
                  len(validate_intersection_property(report))}
    audit1 = next((a for a in audits if a.m == 1), None)
    if audit1 is None:
        validators["diagonal_bound"] = {
            "status": "skipped", "reason": "m=1 was not audited"}
    elif audit1.injective:
        diag = validate_diagonal_bound(report, audit1)
        validators["diagonal_bound"] = {"status": "checked",
                                        "violations": len(diag)}
    else:
        validators["diagonal_bound"] = {
            "status": "skipped", "reason": "map is not injective at m=1"}

    thresholds = threshold_report(f.degree, 0)
    norm = None
    if f.normalization is not None:
        kind, v = f.normalization
        norm = {"kind": kind, "value": fel_json(v) if v is not None else None}

    results = {
        "field": {"p": field.p, "k": field.k, "order": field.order,
                  "modulus": list(field.modulus)},
        "map": {
            "numerator": poly_to_str(f.num),
            "denominator": poly_to_str(f.den),
            "degree": f.degree,
            "normalization": norm,
        },
        "exceptionality": {
            "exceptional": report.exceptional,
            "component_definition_lcm": report.component_definition_lcm,
            "diagonal_recurrence": report.diagonal_recurrence,
            "fiber_product": bpoly_to_str(report.phi),
            "factors": [
                {
                    "polynomial": bpoly_to_str(row.poly),
                    "multiplicity": row.multiplicity,
                    "components": row.components,
                    "absolutely_irreducible": row.absolutely_irreducible,
                    "field_of_definition_degree": row.field_of_definition_degree,
                    "affine_points": row.affine_points,
                }
                for row in report.factors
            ],
        },
        "audits": [audit_json(a) for a in audits],
        "censuses": [census_json(c) for c in censuses],
        "branch_points": points_json(branch.points),
        "ramification_bound": branch.bound,
        "validators": validators,
        "thresholds": _threshold_json(thresholds, q),
    }
    # present only when a degree was dropped, so other reports keep their bytes
    if skipped:
        results["skipped_degrees"] = skipped
    if args.group_spec:
        spec = load_group_spec(args.group_spec, config)
        prediction = cycle_type_histogram(spec)
        results["census_vs_prediction"] = [
            _census_comparison_json(c, prediction) for c in censuses
        ]

    rmap = results["map"]
    lines = [
        f"map: ({rmap['numerator']})/({rmap['denominator']}) over {field!r}",
        f"degree: {f.degree}",
        f"exceptional: {report.exceptional} "
        f"(component definition lcm k = {report.component_definition_lcm})",
        "factors:",
    ]
    for row in results["exceptionality"]["factors"]:
        lines.append(
            f"  {row['polynomial']}  mult={row['multiplicity']} "
            f"components={row['components']} "
            f"absolutely_irreducible={row['absolutely_irreducible']} "
            f"affine_points={row['affine_points']}")
    for a in audits:
        lines.append(
            f"audit m={a.m}: injective={a.injective} surjective={a.surjective} "
            f"bijective={a.bijective}")
    for c in censuses:
        hist = ", ".join(f"{list(t)}: {n}" for t, n in sorted(c.histogram.items()))
        lines.append(f"census m={c.m}: {hist}")
    lines += _skipped_text(skipped)
    lines.append("branch points: " + _points_text(branch.points)
                 + f" (bound {branch.bound})")
    lines.append("validators: intersection violations="
                 f"{validators['intersection_violations']}, "
                 f"diagonal bound={validators['diagonal_bound']['status']}")
    return results, lines


def _points_text(points):
    if not points:
        return "none"
    return "{" + ", ".join(
        "∞" if P.is_infinity else str(P.x.to_int())
        for P in sorted(points, key=lambda P: P.sort_key())) + "}"


def _threshold_json(rep, q=None):
    out = {
        "degree": rep.n,
        "genus": rep.g_x,
        "injectivity_quadratic_bound": str(rep.injectivity.quadratic_bound),
        "injectivity_quadratic_min_q": str(rep.injectivity.minimal_q_quadratic),
        "injectivity_refined_bound": str(rep.injectivity.refined_bound),
        "injectivity_refined_min_q": str(rep.injectivity.minimal_q_refined),
        "surjectivity_bound": str(rep.surjectivity.bound),
        "surjectivity_min_q": str(rep.surjectivity.minimal_q),
        "galois_closure_genus_upper": str(rep.genus_upper),
        "chebotarev_min_field": str(rep.chebotarev_min_field),
        "ramification_bound": rep.ramification_bound,
    }
    if q is not None:
        ap = applicability(rep.n, rep.g_x, q)
        out["at_q"] = {
            "q": q,
            "injective_criterion_applies": ap.injective_criterion_applies,
            "injective_refined_applies": ap.injective_refined_applies,
            "surjective_criterion_applies": ap.surjective_criterion_applies,
        }
    return out


def _census_comparison_json(census, prediction):
    total = census.total()
    keys = sorted(set(census.histogram) | set(prediction))
    rows = []
    tv = Fraction(0)
    for t in keys:
        observed = Fraction(census.histogram.get(t, 0), total) if total else Fraction(0)
        predicted = prediction.get(t, Fraction(0))
        tv += abs(observed - predicted)
        rows.append({
            "type": list(t),
            "census_count": census.histogram.get(t, 0),
            "census_frequency": frac_json(observed),
            "predicted_frequency": frac_json(predicted),
            "match": observed == predicted,
        })
    return {"m": census.m, "rows": rows,
            "total_variation_distance": frac_json(tv / 2)}


def cmd_superelliptic(args, config):
    field = _field_from_q(args.q, config)
    a = parse_poly(args.a, field)
    gamma = parse_poly(args.gamma, field)
    if a.degree > 0 or gamma.degree > 0:
        raise ValueError("--a and --gamma must be constants")
    cover = omitted_point_cover(field, args.n,
                                a.coefficient(0), gamma.coefficient(0))
    q = field.order
    skipped = []
    sweep = _within_cap("audit", _parse_m_list(args.m, (1,)), q, config, skipped)
    audits = [audit_superelliptic(cover, m, config) for m in sweep]
    formula_genus = (cover.n - 1) * (q - 3) // 2

    results = {
        "field": {"p": field.p, "k": field.k, "order": q,
                  "modulus": list(field.modulus)},
        "cover": {
            "n": cover.n,
            "gamma": fel_json(cover.gamma),
            "branch_polynomial": poly_to_str(cover.h),
            "genus": cover.genus,
            "family_genus_formula": formula_genus,
            "genus_matches_formula": cover.genus == formula_genus,
            "totally_ramified_at_infinity": totally_ramified_at_infinity(cover),
        },
        "audits": [audit_json(audit) for audit in audits],
    }
    if skipped:
        results["skipped_degrees"] = skipped
    lines = [
        f"cover: y^{cover.n} = {_coeff_text(cover.gamma)}*h(x) over {field!r}, "
        f"deg h = {cover.h.degree}",
        f"genus: {cover.genus} (family formula value {formula_genus})",
        f"totally ramified over infinity: "
        f"{results['cover']['totally_ramified_at_infinity']}",
    ]
    for audit in audits:
        lines.append(
            f"audit m={audit.m}: injective={audit.injective} "
            f"surjective={audit.surjective} bijective={audit.bijective}")
    lines += _skipped_text(skipped)
    return results, lines


def _coeff_text(c):
    if c.in_prime_subfield():
        return str(c.code)
    return f"[{','.join(str(v) for v in c.coeffs)}]"


def cmd_groups(args, config):
    spec = load_group_spec(args.spec, config)
    # the conditions run first: their qualifying elements are dropped
    # before the coset is built, once, and kept on the spec
    try:
        cond = exceptionality_conditions(spec)
        conditions = {
            "diagonal_only_common_orbit": cond.diagonal_only_common_orbit,
            "all_unique_fixed_point": cond.all_unique_fixed_point,
            "all_at_most_one": cond.all_at_most_one,
            "all_at_least_one": cond.all_at_least_one,
            "agree": cond.agree,
        }
    except NotTransitive:
        conditions = {"status": "skipped",
                      "reason": "normal subgroup is not transitive"}
    lhs_p, rhs_p = fixed_point_identity(spec, "points")
    lhs_q, rhs_q = fixed_point_identity(spec, "ordered_pairs")
    hist = cycle_type_histogram(spec)
    results = {
        "degree": spec.ambient.deg,
        "ambient_order": spec.ambient.order,
        "normal_order": spec.normal.order,
        "representative": repr(spec.rep),
        "fixed_point_identity": {
            "points": {"common_orbits": lhs_p, "coset_average": frac_json(rhs_p),
                       "equal": lhs_p == rhs_p},
            "ordered_pairs": {"common_orbits": lhs_q,
                              "coset_average": frac_json(rhs_q),
                              "equal": lhs_q == rhs_q},
        },
        "cycle_type_histogram": [
            {"type": list(t), "frequency": frac_json(fr)}
            for t, fr in hist.items()
        ],
        "conditions": conditions,
    }
    lines = [
        f"degree {spec.ambient.deg}: |A| = {spec.ambient.order}, "
        f"|G| = {spec.normal.order}, a = {spec.rep!r}",
        f"orbit identity (points): {lhs_p} = {rhs_p} "
        f"({'ok' if lhs_p == rhs_p else 'VIOLATED'})",
        f"orbit identity (pairs): {lhs_q} = {rhs_q} "
        f"({'ok' if lhs_q == rhs_q else 'VIOLATED'})",
        f"conditions: {results['conditions']}",
        "cycle types: " + ", ".join(
            f"{list(t)}: {frac_json(fr)}" for t, fr in hist.items()),
    ]
    return results, lines


def cmd_bounds(args, config):
    rep = threshold_report(args.n, args.gx, args.gy, args.gorder, args.ramified)
    results = _threshold_json(rep, args.q)
    lines = [
        f"degree n = {rep.n}, genus g_X = {rep.g_x}",
        f"injectivity bound {rep.injectivity.quadratic_bound} -> minimal q "
        f"{rep.injectivity.minimal_q_quadratic}",
        f"refined injectivity bound {rep.injectivity.refined_bound} -> minimal q "
        f"{rep.injectivity.minimal_q_refined}",
        f"surjectivity bound {rep.surjectivity.bound} -> minimal q "
        f"{rep.surjectivity.minimal_q}",
        f"Galois-closure genus upper bound: {rep.genus_upper}",
        f"Chebotarev minimal field size: {rep.chebotarev_min_field}",
        f"ramification bound: {rep.ramification_bound}",
    ]
    return results, lines


def _example_instances(config):
    """The explicit cover instances replayed by the examples subcommand."""
    out = []

    for q, n, a, gammas in ((13, 3, 8, (1, 2)),):
        field = make_field(q, 1, config)
        for gamma in gammas:
            cover = omitted_point_cover(field, n, a, gamma)
            audit = audit_superelliptic(cover, 1, config)
            surj_case = gamma == 1
            claims = {
                "genus_is_family_value": cover.genus == (n - 1) * (q - 3) // 2,
                "surjective": audit.surjective == surj_case,
                "injective": audit.injective == (not surj_case),
            }
            out.append({
                "name": f"superelliptic-split-q{q}-n{n}-a{a}-gamma{gamma}",
                "claims": claims,
                "pass": all(claims.values()),
            })

    for q, a, b in ((17, 10, 3), (29, 13, 4)):
        field = make_field(q, 1, config)
        f = quintic_pair_map(field, a, b)
        rep = decide_exceptional(f, config)
        audit = audit_rational_map(f, 1, config)
        claims = {
            "bijective_on_rational_points": audit.bijective,
            "not_exceptional": not rep.exceptional,
        }
        out.append({
            "name": f"quintic-bijective-nonexceptional-q{q}-a{a}-b{b}",
            "claims": claims,
            "pass": all(claims.values()),
        })

    for q in (13, 17, 29):
        field = make_field(q, 1, config)
        f = quintic_twist_map(field)
        rep = decide_exceptional(f, config)
        audit = audit_rational_map(f, 1, config)
        claims = {
            "exceptional": rep.exceptional,
            "bijective_on_rational_points": audit.bijective,
        }
        out.append({
            "name": f"quintic-twist-exceptional-q{q}",
            "claims": claims,
            "pass": all(claims.values()),
        })
    return out


def cmd_examples(args, config):
    instances = _example_instances(config)
    ok = all(inst["pass"] for inst in instances)
    results = {"instances": instances, "all_pass": ok}
    lines = []
    for inst in instances:
        status = "PASS" if inst["pass"] else "FAIL"
        lines.append(f"{status}  {inst['name']}")
        for claim, value in inst["claims"].items():
            lines.append(f"      {claim}: {value}")
    lines.append("all claims hold" if ok else "SOME CLAIMS FAILED")
    return results, lines


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ExcCoverError(message)


@cache
def _parser():
    """The argument parser, built once per process; parsing leaves it
    unchanged."""
    return build_parser()


def build_parser():
    ap = _Parser(prog="exccover", description=__doc__)
    ap.add_argument("--json", action="store_true",
                    help="emit a key-sorted JSON report")
    ap.add_argument("--seed", type=int, default=DEFAULT_CONFIG.seed,
                    help="seed for randomized factorization splits")
    ap.add_argument("--cap", type=int, default=DEFAULT_CONFIG.enumeration_cap,
                    help="enumeration cap for exhaustive point sweeps")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="exceptionality and audits of p(x)/r(x)")
    pa.add_argument("--p", type=int, required=True, help="field characteristic")
    pa.add_argument("--k", type=int, default=1, help="field extension degree")
    pa.add_argument("--num", required=True, help="numerator polynomial")
    pa.add_argument("--den", required=True, help="denominator polynomial")
    pa.add_argument("--m", default=None,
                    help="comma list of extension degrees to audit (default 1,2,3)")
    pa.add_argument("--census-m", dest="census_m", default=None,
                    help="comma list of census degrees (default 1)")
    pa.add_argument("--group-spec", dest="group_spec", default=None,
                    help="optional group spec file for census comparison")

    ps = sub.add_parser("superelliptic",
                        help="the cover branched at all rational points but two")
    ps.add_argument("--q", type=int, required=True, help="field order")
    ps.add_argument("--n", type=int, required=True, help="cover exponent")
    ps.add_argument("--a", required=True, help="the unbranched nonzero point")
    ps.add_argument("--gamma", required=True, help="twist coefficient")
    ps.add_argument("--m", default=None,
                    help="comma list of extension degrees to audit (default 1)")

    pg = sub.add_parser("groups", help="orbit and fixed-point lemma checks")
    pg.add_argument("--spec", required=True, help="group spec file")

    pb = sub.add_parser("bounds", help="exact threshold table")
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--gx", type=int, required=True)
    pb.add_argument("--gy", type=int, default=0)
    pb.add_argument("--gorder", type=int, default=None)
    pb.add_argument("--ramified", type=int, default=None)
    pb.add_argument("--q", type=int, default=None,
                    help="also evaluate the predicates at this field size")

    sub.add_parser("examples", help="replay the explicit instances and "
                                    "assert their claims")
    return ap


_DISPATCH = {
    "analyze": cmd_analyze,
    "superelliptic": cmd_superelliptic,
    "groups": cmd_groups,
    "bounds": cmd_bounds,
    "examples": cmd_examples,
}


def _inputs_echo(args):
    skip = {"json", "seed", "cap", "command"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(argv)
    except ExcCoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    config = Config(seed=args.seed, enumeration_cap=args.cap)
    started = time.perf_counter()
    try:
        results, lines = _DISPATCH[args.command](args, config)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExcCoverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    report = report_json(args.command, _inputs_echo(args), results, args.seed)
    if args.json:
        # timings stay out of the JSON so equal inputs give equal bytes
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)
        print(f"elapsed: {elapsed:.3f}s")
    if args.command == "examples" and not results["all_pass"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
