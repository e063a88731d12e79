"""One workload run: set-up, passes over the corpus, oracles, digests.

Requests go through the package's public API and through the in-process
command line (``exccover.cli.main(argv)`` with stdout captured), one at a
time in a closed loop.  Every package function is looked up on its
module at call time, so a tracer installed between passes sees it.
"""

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import sys
import time
from fractions import Fraction

import corpus
from refmath import RefField, fiber_product

PACKAGE = "exccover"
MODULES = ("cli", "gf", "polyfactor", "covers", "excep", "groups")
EXAMPLE_NAMES = frozenset({
    "superelliptic-split-q13-n3-a8-gamma1",
    "superelliptic-split-q13-n3-a8-gamma2",
    "quintic-bijective-nonexceptional-q17-a10-b3",
    "quintic-bijective-nonexceptional-q29-a13-b4",
    "quintic-twist-exceptional-q13",
    "quintic-twist-exceptional-q17",
    "quintic-twist-exceptional-q29",
})


class Package:
    """The package's modules, imported afresh from ``src``."""

    def __init__(self, src):
        for key in [k for k in sys.modules
                    if k == PACKAGE or k.startswith(PACKAGE + ".")]:
            del sys.modules[key]
        root = importlib.import_module(PACKAGE)
        origin = os.path.realpath(root.__file__)
        if not origin.startswith(os.path.realpath(src) + os.sep):
            raise ImportError(f"{PACKAGE} was imported from {origin}, "
                              f"not from {src}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))


class Failed(Exception):
    """The command line exited nonzero."""


def run_cli(pkg, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(argv)
    if code != 0:
        raise Failed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


# -- request execution -------------------------------------------------------


def _analyze_argv(req):
    return ["--json", "analyze", "--p", str(req["p"]), "--k", str(req["k"]),
            "--num", req["num_text"], "--den", req["den_text"],
            "--m", ",".join(map(str, req["m"])),
            "--census-m", ",".join(map(str, req["census_m"]))]


def _superelliptic_argv(req):
    return ["--json", "superelliptic", "--q", str(req["q"]),
            "--n", str(req["n"]), "--a", str(req["a"]),
            "--gamma", str(req["gamma"]), "--m", "1"]


def execute(pkg, req, spec_dir):
    kind = req["kind"]
    if kind == "analyze":
        return run_cli(pkg, _analyze_argv(req))
    if kind == "superelliptic":
        return run_cli(pkg, _superelliptic_argv(req))
    if kind == "examples":
        return run_cli(pkg, ["--json", "examples"])
    if kind == "groups_spec":
        return run_cli(pkg, ["--json", "groups", "--spec",
                             os.path.join(spec_dir, req["id"] + ".grp")])
    if kind == "verdict":
        F = pkg.gf.make_field(req["p"], req["k"])
        UPoly = pkg.polyfactor.UPoly
        f = pkg.covers.RationalMap(
            UPoly(F, [F.from_int(c) for c in req["num"]]),
            UPoly(F, [F.from_int(c) for c in req["den"]]))
        return pkg.excep.decide_exceptional(f)
    raise ValueError(f"unknown request kind {kind!r}")


def bpoly_codes(G):
    """{(i, j): code} of the nonzero coefficients of x^i y^j."""
    out = {}
    for j in range(G.deg_y + 1):
        for i in range(G.deg_x + 1):
            c = G.coefficient(i, j).to_int()
            if c:
                out[(i, j)] = c
    return out


def _codes_json(codes):
    return sorted([i, j, c] for (i, j), c in codes.items())


def canonical(req, result):
    """Bytes that enter the output digest: the --json text, or the
    verdict tuple of a library call."""
    if req["kind"] != "verdict":
        return result.encode()
    verdict = [result.exceptional, result.component_definition_lcm,
               result.diagonal_recurrence, _codes_json(bpoly_codes(result.phi)),
               [[_codes_json(bpoly_codes(row.poly)), row.multiplicity,
                 row.components, row.affine_points] for row in result.factors]]
    return json.dumps(verdict, separators=(",", ":")).encode()


# -- oracles -----------------------------------------------------------------


def _check_audit_accounts(a, q, errors, label, rational=True):
    hist = {int(k): v for k, v in a["fiber_size_histogram"].items()}
    total = q ** a["m"] + 1
    if a["base_points"] != total or sum(hist.values()) != total:
        errors.append(f"{label}: m={a['m']} base points do not add to q^m+1")
    if rational and sum(k * v for k, v in hist.items()) != total:
        errors.append(f"{label}: m={a['m']} source points do not add to q^m+1")
    inj = all(k <= 1 for k in hist)
    sur = 0 not in hist
    if (a["injective"], a["surjective"], a["bijective"]) != (inj, sur,
                                                            inj and sur):
        errors.append(f"{label}: m={a['m']} verdicts disagree with fibers")


def check_analyze(req, res, errors):
    q, n = req["q"], req["degree"]
    if res["field"]["order"] != q or res["field"]["modulus"] != req["modulus"]:
        errors.append("field differs from the lex-smallest modulus convention")
    if (res["map"]["numerator"], res["map"]["denominator"]) != (
            req["num_text"], req["den_text"]):
        errors.append("map does not print back as its input")
    audits = {a["m"]: a for a in res["audits"]}
    if sorted(audits) != req["m"]:
        errors.append(f"audited degrees {sorted(audits)} != {req['m']}")
    for a in audits.values():
        _check_audit_accounts(a, q, errors, "audit")
    if 1 in audits and audits[1]["fiber_size_histogram"] != req["hist_m1"]:
        errors.append("m=1 fiber histogram differs from brute force")
    exc = res["exceptionality"]
    _check_verdict_rules(req, exc["exceptional"],
                         [f["absolutely_irreducible"] for f in exc["factors"]],
                         errors)
    for c in res["censuses"]:
        counted = sum(row["count"] for row in c["histogram"])
        if counted + len(c["branch_points"]) != q ** c["m"] + 1:
            errors.append(f"census m={c['m']} does not cover q^m+1 points")
        if counted != c["non_branch_points"]:
            errors.append(f"census m={c['m']} total mismatch")
        if any(sum(row["type"]) != n for row in c["histogram"]):
            errors.append(f"census m={c['m']} type does not sum to degree")
    val = res["validators"]
    if val["intersection_violations"]:
        errors.append("intersection property violated")
    checked = val["diagonal_bound"]["status"] == "checked"
    if checked != audits[1]["injective"]:
        errors.append("diagonal bound checked iff injective at m=1")
    if checked and val["diagonal_bound"]["violations"]:
        errors.append("diagonal bound violated")
    if res["thresholds"]["degree"] != n:
        errors.append("threshold table for the wrong degree")


def _check_verdict_rules(req, exceptional, abs_irreducible, errors):
    if exceptional != (not any(abs_irreducible)):
        errors.append("verdict disagrees with its factor classification")
    if exceptional and not req["bijective_m1"]:
        errors.append("exceptional but not bijective at m=1 (brute force)")
    if (req["expect_exceptional"] is not None
            and exceptional != req["expect_exceptional"]):
        errors.append(f"{req['family']} verdict {exceptional}, "
                      f"expected {req['expect_exceptional']}")


def check_superelliptic(req, res, errors):
    cover = res["cover"]
    if not (cover["genus"] == cover["family_genus_formula"] == req["genus"]
            and cover["genus_matches_formula"]
            and cover["totally_ramified_at_infinity"]):
        errors.append("genus or ramification at infinity is wrong")
    (audit,) = res["audits"]
    _check_audit_accounts(audit, req["q"], errors, "superelliptic",
                          rational=False)
    if audit["fiber_size_histogram"] != req["hist_m1"]:
        errors.append("fiber histogram differs from the n-th power count")


def check_examples(res, errors):
    names = {inst["name"] for inst in res["instances"]}
    if names != EXAMPLE_NAMES:
        errors.append(f"example instances {sorted(names)}")
    if not res["all_pass"] or not all(i["pass"] for i in res["instances"]):
        errors.append("an example claim failed")


def check_groups_spec(req, res, errors):
    if (res["degree"], res["ambient_order"], res["normal_order"]) != (
            req["deg"], req["ambient_order"], req["normal_order"]):
        errors.append("group orders differ from the construction")
    for action, ident in res["fixed_point_identity"].items():
        if not ident["equal"] or Fraction(ident["coset_average"]) != \
                ident["common_orbits"]:
            errors.append(f"orbit identity on {action} fails")
    cond = res["conditions"]
    if not cond.get("agree") or cond["diagonal_only_common_orbit"] != \
            req["holds"]:
        errors.append(f"conditions {cond}, expected holds={req['holds']}")
    if sum(Fraction(row["frequency"])
           for row in res["cycle_type_histogram"]) != 1:
        errors.append("cycle-type frequencies do not sum to one")


def check_verdict(req, report, errors):
    F = RefField(req["p"], req["modulus"])
    phi = fiber_product(F, req["num"], req["den"])
    if bpoly_codes(report.phi) != phi:
        errors.append("fiber product differs from the reference")
    product = {(0, 0): 1}
    for row in report.factors:
        for _ in range(row.multiplicity):
            product = F.bmul(product, bpoly_codes(row.poly))
        if row.affine_points != _affine_zeros(F, bpoly_codes(row.poly)):
            errors.append("affine point count differs from brute force")
    key = min(phi)
    unit = F.mul(phi[key], F.inv(product[key])) if key in product else 0
    if F.bscale(product, unit) != phi:
        errors.append("certificate product does not reproduce the fiber "
                      "product")
    rows = report.factors
    if any(r.absolutely_irreducible != (r.components == 1) for r in rows):
        errors.append("absolute irreducibility disagrees with components")
    _check_verdict_rules(req, report.exceptional,
                         [r.absolutely_irreducible for r in rows], errors)


def _affine_zeros(F, codes):
    count = 0
    for x in range(F.q):
        ycoeffs = {}
        for (i, j), c in codes.items():
            ycoeffs[j] = F.add(ycoeffs.get(j, 0), F.mul(c, F.pow(x, i)))
        g = [ycoeffs.get(j, 0) for j in range(max(ycoeffs) + 1)]
        count += sum(1 for y in range(F.q) if F.eval(g, y) == 0)
    return count


def check(req, result):
    """Oracle errors for one request's result (empty when correct)."""
    errors = []
    kind = req["kind"]
    if kind == "verdict":
        check_verdict(req, result, errors)
        return errors
    res = json.loads(result)["results"]
    if kind == "analyze":
        check_analyze(req, res, errors)
    elif kind == "superelliptic":
        check_superelliptic(req, res, errors)
    elif kind == "examples":
        check_examples(res, errors)
    elif kind == "groups_spec":
        check_groups_spec(req, res, errors)
    return errors


# -- the subgroup catalog sweep of the groups workload -------------------------


def catalog_sweep(pkg, max_n, p):
    """Build the catalog from cold for n = 1..max_n and check every
    (A, G, a), adding the outcomes to the digest of pass ``p``; returns
    the oracle errors.

    The sweep is timed as part of the pass but holds no requests: its
    thousand sub-millisecond checks would put the median and the tail on
    timer-scale values.
    """
    groups = pkg.groups
    errors, identities, conditions = [], 0, 0
    for n in range(1, max_n + 1):
        p.begin(None)
        subgroups = groups.all_subgroups_symmetric(n)
        if len(subgroups) != corpus.SUBGROUP_COUNTS[n]:
            errors.append(f"S_{n} has {len(subgroups)} subgroups")
        for c, (A, G, reps) in enumerate(groups.cyclic_quotient_chains(n)):
            for r, a in enumerate(reps):
                spec = groups.CosetSpec(A, G, a)
                out = [groups.fixed_point_identity(spec, "points"),
                       groups.fixed_point_identity(spec, "ordered_pairs")]
                if G.is_transitive():
                    cond = groups.exceptionality_conditions(spec)
                    out.append((cond.diagonal_only_common_orbit, cond.agree))
                identities += 2
                conditions += len(out) == 3
                if any(lhs != rhs for lhs, rhs in out[:2]) or (
                        len(out) == 3 and not out[2][1]):
                    errors.append(f"S_{n} chain {c} rep {r}: {out}")
                p.outputs.append((f"S{n}-{c}-{r}", repr(out)))
    if max_n == 5 and (identities, conditions) != (
            corpus.CATALOG_IDENTITIES, corpus.CATALOG_CONDITIONS):
        errors.append(f"catalog sweep made {identities} identity and "
                      f"{conditions} condition checks")
    return errors


# -- passes ------------------------------------------------------------------


class Pass:
    """Latencies, outcomes and digest of one pass over the corpus."""

    def __init__(self, tracer=None):
        self.latencies = []
        self.failed = []
        self.outputs = []        # (request id, result) until sealed
        self.digest = None
        self.errors = []
        self.wall_s = None
        self.tracer = tracer

    def begin(self, rid):
        if self.tracer is not None:
            self.tracer.request = rid

    def record(self, rid, seconds, result):
        self.latencies.append(seconds)
        self.outputs.append((rid, result))

    def seal(self, requests):
        """Fold the outputs into ``self.digest`` and drop them, so results
        of earlier passes do not stay on the heap of later ones."""
        by_id = {req["id"]: req for req in requests}
        h = hashlib.sha256()
        for rid, result in self.outputs:
            h.update(rid.encode() + b"\0")
            h.update(result.encode() if isinstance(result, str)
                     else canonical(by_id[rid], result))
            h.update(b"\0")
        self.digest = h.hexdigest()
        self.outputs = None


def _serve(pkg, requests, spec_dir, p):
    for req in requests:
        p.begin(req["id"])
        t0 = time.perf_counter()
        try:
            result = execute(pkg, req, spec_dir)
        except Exception as exc:  # a failed request; the run goes on
            p.latencies.append(time.perf_counter() - t0)
            p.failed.append((req["id"], f"{type(exc).__name__}: {exc}"))
            continue
        p.record(req["id"], time.perf_counter() - t0, result)


def run_pass(pkg, workload, requests, spec_dir, smoke=False, tracer=None):
    """One pass over the corpus; ``tracer`` tags its spans with the
    request id.

    On groups, half the spec requests run before the catalog sweep and
    half after it, with the catalog dropped again, so that the requests
    sample the machine at two moments some twenty seconds apart.
    """
    p = Pass(tracer)
    # Every pass starts from a collected heap, so collector work left by
    # an earlier pass does not land on this one's requests.
    gc.collect()
    start = time.perf_counter()
    if workload == "groups":
        half = len(requests) // 2
        _serve(pkg, requests[:half], spec_dir, p)
        p.errors += catalog_sweep(pkg, 4 if smoke else 5, p)
        pkg.groups.all_subgroups_symmetric.cache_clear()
        _serve(pkg, requests[half:], spec_dir, p)
    else:
        _serve(pkg, requests, spec_dir, p)
    p.wall_s = time.perf_counter() - start
    return p


def check_pass(p, requests):
    """Run every oracle over a pass's results; returns the error list."""
    by_id = {req["id"]: req for req in requests}
    errors = list(p.errors)
    for rid, result in p.outputs:
        if rid in by_id:
            errors += [f"{rid}: {e}" for e in check(by_id[rid], result)]
    return errors
