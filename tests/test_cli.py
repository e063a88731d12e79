import hashlib
import json
import random
import re

import pytest

from exccover.errors import ParseError, UnknownSymbol
from exccover.gf import make_field
from exccover.polyfactor import UPoly
from exccover import cli
from exccover.cli import (
    bpoly_to_str,
    main,
    parse_cycles,
    parse_poly,
    poly_to_str,
)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# Grammar.


def test_parse_quintic_numerator():
    F17 = make_field(17)
    f = parse_poly("x^5-10*x", F17)
    assert [c.to_int() for c in f.coeffs] == [0, 7, 0, 0, 0, 1]
    g = parse_poly("x^4-3", F17)
    assert [c.to_int() for c in g.coeffs] == [14, 0, 0, 0, 1]


def test_parse_whitespace_and_signs():
    F7 = make_field(7)
    assert parse_poly(" 2 * x ^ 3 + 1 ", F7) == UPoly(F7, (1, 0, 0, 2))
    assert parse_poly("-x+3", F7) == UPoly(F7, (3, 6))
    assert parse_poly("x+x", F7) == UPoly(F7, (0, 2))
    assert parse_poly("0", F7).is_zero()
    assert parse_poly("5x", F7) == UPoly(F7, (0, 5))


def test_parse_error_positions():
    F7 = make_field(7)
    with pytest.raises(ParseError) as err:
        parse_poly("x^^2", F7)
    assert err.value.position == 2
    with pytest.raises(ParseError) as err2:
        parse_poly("x+%", F7)
    assert err2.value.position == 2
    with pytest.raises(ParseError):
        parse_poly("x 3", F7)
    with pytest.raises(ParseError):
        parse_poly("", F7)


def test_generator_coefficients():
    F9 = make_field(3, 2)
    g = F9.multiplicative_generator()
    f = parse_poly("g^3*x+g", F9)
    assert f.coefficient(1) == g**3
    assert f.coefficient(0) == g
    with pytest.raises(UnknownSymbol):
        parse_poly("g*x", make_field(5))


def test_print_parse_roundtrip_random():
    rng = random.Random(42)
    for p, k in ((5, 1), (2, 1), (13, 1), (3, 2), (2, 3)):
        F = make_field(p, k)
        for _ in range(25):
            f = UPoly(F, [F.from_int(rng.randrange(F.order))
                          for _ in range(rng.randrange(0, 7))])
            assert parse_poly(poly_to_str(f), F) == f


def test_print_parse_fixpoint():
    F17 = make_field(17)
    s = poly_to_str(parse_poly("x^5-10*x", F17))
    assert poly_to_str(parse_poly(s, F17)) == s


def test_bpoly_printer():
    from exccover.polyfactor import BPoly

    F7 = make_field(7)
    conic = BPoly.from_grid(F7, [[F7.element(v) for v in row]
                                 for row in ((0, 0, 1), (0, 1, 0), (1, 0, 0))])
    assert bpoly_to_str(conic) == "y^2+x*y+x^2"


def test_parse_cycles():
    p = parse_cycles("(0 1 2)(3 4)", 5)
    assert p.cycle_type() == (2, 3)
    assert parse_cycles("()", 3).is_identity()
    assert parse_cycles("(0, 1)", 2).images == (1, 0)


@pytest.mark.parametrize("text,bad", [("(0 1) x(2 3)", "x(2 3)"),
                                      ("(0 1))(2)", ")(2)")])
def test_parse_cycles_names_malformed_text(text, bad):
    with pytest.raises(ValueError, match="malformed cycle notation") as err:
        parse_cycles(text, 5)
    assert repr(bad) in str(err.value)


# ---------------------------------------------------------------------------
# Subcommands.


def test_analyze_quintic_json(capsys):
    code, out, err = run(capsys, ["--json", "analyze", "--p", "17",
                                  "--num", "x^5-10*x", "--den", "x^4-3",
                                  "--m", "1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "analyze"
    assert rep["version"]
    res = rep["results"]
    assert res["exceptionality"]["exceptional"] is False
    assert res["audits"][0]["bijective"] is True
    assert res["validators"]["intersection_violations"] == 0
    assert res["validators"]["diagonal_bound"]["status"] == "checked"
    assert res["validators"]["diagonal_bound"]["violations"] == 0


def test_analyze_twist_json(capsys):
    code, out, _ = run(capsys, ["--json", "analyze", "--p", "13",
                                "--num", "x^5-8*x", "--den", "x^4-2",
                                "--m", "1"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["exceptionality"]["exceptional"] is True
    assert res["audits"][0]["bijective"] is True


def test_analyze_byte_identical_json(capsys):
    argv = ["--json", "analyze", "--p", "5", "--num", "x^3", "--den", "1",
            "--m", "1,2"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


# sha256 of the --json output of fixed invocations.  The report bytes
# are the behaviour contract, so a digest changes only with a deliberate
# change of the report.
PINNED_JSON = [
    # two factor lines meeting at (0, 0)
    pytest.param(
        ["analyze", "--p", "7", "--num", "x^3", "--den", "1", "--m", "1"],
        "da097ebe39e7d1f0e5d2e3cdda9f584b41bd503618af8438a337ae6a0de9a365",
        id="analyze-cube-f7"),
    # injective, so the diagonal bound is checked
    pytest.param(
        ["analyze", "--p", "5", "--num", "x^3", "--den", "1", "--m", "1,2"],
        "dba298bf2cc8ea5694c6b60b0fc19e81907115dbea758a1d364847dd018d3374",
        id="analyze-cube-f5"),
    pytest.param(
        ["analyze", "--p", "67", "--num", "x^3+2*x", "--den", "x+5",
         "--m", "1"],
        "bd0f9ded7785b6bc7b645b465f47a2c05230a4cea7b0c4c86144a4beca460674",
        id="analyze-f67"),
    pytest.param(
        ["analyze", "--p", "3", "--k", "2", "--num", "x^4+g*x",
         "--den", "x+g^2", "--m", "1"],
        "6435986dca0d383f004f98206651c9d033c036bfde58bf1371eb0a01dcfabd6d",
        id="analyze-f9"),
    pytest.param(
        ["superelliptic", "--q", "25", "--n", "3", "--a", "1",
         "--gamma", "g", "--m", "1"],
        "5572c0b7e1a3abd79ce70afb24d3dc345097b139262eeae82a9fbc3109386468",
        id="superelliptic-f25"),
    pytest.param(
        ["groups", "--spec", "spec.grp"],
        "8e0f62c65541d7affba99efa7a0c0ca93025fe6e2edf81498bf7f47ddb6f437b",
        id="groups-affine-f5"),
    pytest.param(
        ["examples"],
        "0275d4ed9d8a75661b37757034c639d605ae9e4ed38d3022595d4188a902aab2",
        id="examples"),
]


@pytest.mark.parametrize("argv,digest", PINNED_JSON)
def test_json_bytes_pinned(argv, digest, tmp_path, monkeypatch, capsys):
    # the spec path is echoed in the report, so it is relative and fixed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.grp").write_text(
        "[deg]\n5\n[A]\n(0 1 2 3 4)\n(1 2 4 3)\n"
        "[G]\n(0 1 2 3 4)\n[a]\n(1 2 4 3)\n")
    code, out, _ = run(capsys, ["--json"] + argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_parser_is_built_once_and_survives_an_error_exit(capsys):
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli._parser()
    # a required option missing in the subcommand, then an unknown one
    for bad in (["analyze", "--p", "7"], ["--json", "examples", "--bogus"]):
        code, out, err = run(capsys, bad)
        assert code == 1 and out == "" and err.startswith("error: ")
    argv, digest = PINNED_JSON[0].values
    code, out, _ = run(capsys, ["--json"] + argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


OVER_CAP = "q^m = 9393931 exceeds the enumeration cap 4194304"


def test_analyze_reports_over_cap_degrees(capsys):
    argv = ["analyze", "--p", "211", "--num", "x^3", "--den", "1",
            "--m", "1,3", "--census-m", "3,1"]
    code, out, _ = run(capsys, ["--json"] + argv)
    assert code == 0
    res = json.loads(out)["results"]
    assert [a["m"] for a in res["audits"]] == [1]
    assert [c["m"] for c in res["censuses"]] == [1]
    assert res["skipped_degrees"] == [
        {"stage": "audit", "m": 3, "reason": OVER_CAP},
        {"stage": "census", "m": 3, "reason": OVER_CAP}]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert f"audit m=3: skipped ({OVER_CAP})" in out
    assert f"census m=3: skipped ({OVER_CAP})" in out
    # nothing dropped, no key
    code, out, _ = run(capsys, ["--json"] + argv[:-4] + ["--m", "1"])
    assert "skipped_degrees" not in json.loads(out)["results"]


def test_superelliptic_reports_over_cap_degrees(capsys):
    argv = ["--cap", "1000", "superelliptic", "--q", "13", "--n", "3",
            "--a", "8", "--gamma", "1", "--m", "3,1,2"]
    code, out, _ = run(capsys, ["--json"] + argv)
    assert code == 0
    res = json.loads(out)["results"]
    assert [a["m"] for a in res["audits"]] == [1, 2]
    assert res["skipped_degrees"] == [{
        "stage": "audit", "m": 3,
        "reason": "q^m = 2197 exceeds the enumeration cap 1000"}]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert ("audit m=3: skipped (q^m = 2197 exceeds the enumeration cap 1000)"
            in out)


def test_analyze_rejects_degree_one(capsys):
    code, out, err = run(capsys, ["analyze", "--p", "7", "--num", "x+3",
                                  "--den", "1"])
    assert code == 1 and out == ""
    assert "degree >= 2" in err and "degree 1" in err


def test_analyze_seed_echoed(capsys):
    argv = ["--json", "--seed", "7", "analyze", "--p", "5", "--num", "x^3",
            "--den", "1", "--m", "1"]
    _, out, _ = run(capsys, argv)
    assert json.loads(out)["seed"] == 7


def test_analyze_parse_error_exit_code(capsys):
    code, _, err = run(capsys, ["analyze", "--p", "17", "--num", "x^^2",
                                "--den", "1"])
    assert code == 1
    assert "offset" in err


def test_analyze_cap_exit_code(capsys):
    code, _, err = run(capsys, ["--cap", "10", "analyze", "--p", "17",
                                "--num", "x^5-10*x", "--den", "x^4-3",
                                "--m", "1"])
    assert code == 2


def test_analyze_checks_validators_above_the_old_point_pair_cap(capsys):
    # (2053 + 1)^2 point pairs exceed the default enumeration cap 2^22,
    # but the factor points come from the same-fiber pairs and need only
    # q <= cap; x^5 is a bijection of F_2053 since gcd(5, 2052) = 1
    argv = ["analyze", "--p", "2053", "--num", "x^5", "--den", "1", "--m", "1"]
    code, out, _ = run(capsys, ["--json"] + argv)
    assert code == 0
    res = json.loads(out)["results"]
    assert res["audits"][0]["bijective"] is True
    assert res["validators"] == {
        "intersection_violations": 0,
        "diagonal_bound": {"status": "checked", "violations": 0}}
    rows = res["exceptionality"]["factors"]
    assert rows and all(type(row["affine_points"]) is int for row in rows)
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert ("validators: intersection violations=0, "
            "diagonal bound=checked") in out
    counts = re.findall(r"affine_points=(\S+)", out)
    assert counts == [str(row["affine_points"]) for row in rows]


def test_analyze_checks_validators_at_the_largest_prime_within_cap(capsys):
    # (2039 + 1)^2 point pairs stay within the default enumeration cap
    # 2^22, so both validators run; x^3 is a bijection of F_2039 since
    # 3 does not divide 2038
    code, out, _ = run(capsys, ["--json", "analyze", "--p", "2039",
                                "--num", "x^3", "--den", "1", "--m", "1",
                                "--census-m", "1"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["audits"][0]["bijective"] is True
    assert res["validators"] == {
        "intersection_violations": 0,
        "diagonal_bound": {"status": "checked", "violations": 0}}
    # x^2 + xy + y^2 splits over F_{2039^2} and meets F_2039^2 at (0, 0)
    [row] = res["exceptionality"]["factors"]
    assert (row["components"], row["affine_points"]) == (2, 1)
    assert res["censuses"][0]["histogram"] == [{"type": [1, 2], "count": 2038}]
    assert res["branch_points"] == res["censuses"][0]["branch_points"]


@pytest.mark.parametrize("flag, value, message", [
    ("--m", "1,1", "extension degree 1 is repeated in '1,1'"),
    ("--census-m", "1, 2,01", "extension degree 1 is repeated in '1, 2,01'"),
    ("--m", "1,x", "degree 'x' in '1,x' is not a positive integer"),
    ("--census-m", "1.5", "degree '1.5' in '1.5' is not a positive integer"),
    ("--m", "2,-1", "degree '-1' in '2,-1' is not a positive integer"),
])
def test_analyze_rejects_malformed_degree_lists(capsys, flag, value, message):
    code, out, err = run(capsys, ["--json", "analyze", "--p", "5",
                                  "--num", "x^3", "--den", "1", flag, value])
    assert code == 1 and out == ""
    assert message in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("p, m, reason", [
    ("5", "2", "m=1 was not audited"),          # x^3 is bijective on F_5
    ("7", "1", "map is not injective at m=1"),  # 3 | 7 - 1
])
def test_analyze_diagonal_bound_skip_reason(capsys, p, m, reason):
    code, out, _ = run(capsys, ["--json", "analyze", "--p", p, "--num", "x^3",
                                "--den", "1", "--m", m])
    assert code == 0
    res = json.loads(out)["results"]
    assert [a["m"] for a in res["audits"]] == [int(m)]
    assert res["validators"]["diagonal_bound"] == {"status": "skipped",
                                                   "reason": reason}


def test_analyze_refuses_over_cap_map_before_fiber_product(capsys, monkeypatch):
    import exccover.excep

    def unreachable(f):
        raise AssertionError("fiber product built for an over-cap map")

    monkeypatch.setattr(exccover.excep, "fiber_product_poly", unreachable)
    code, out, err = run(capsys, ["analyze", "--p", "7", "--num", "x^4000+x",
                                  "--den", "1", "--m", "1"])
    assert code == 2 and out == ""
    assert "bidegree (3999, 3999) exceeds the cap 16" in err


def test_analyze_nonprime_exit_code(capsys):
    code, _, err = run(capsys, ["analyze", "--p", "15", "--num", "x^2",
                                "--den", "1"])
    assert code == 1


def test_superelliptic_subcommand(capsys):
    code, out, _ = run(capsys, ["--json", "superelliptic", "--q", "13",
                                "--n", "3", "--a", "8", "--gamma", "1",
                                "--m", "1"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["cover"]["genus"] == 10
    assert res["cover"]["genus_matches_formula"] is True
    audit = res["audits"][0]
    assert audit["surjective"] is True and audit["injective"] is False

    code2, out2, _ = run(capsys, ["--json", "superelliptic", "--q", "13",
                                  "--n", "3", "--a", "8", "--gamma", "2",
                                  "--m", "1"])
    audit2 = json.loads(out2)["results"]["audits"][0]
    assert audit2["injective"] is True and audit2["surjective"] is False


def test_groups_subcommand(tmp_path, capsys):
    spec = tmp_path / "spec.grp"
    spec.write_text(
        "# the affine group on five points over its translation subgroup\n"
        "[deg]\n5\n"
        "[A]\n(0 1 2 3 4)\n(1 2 4 3)\n"
        "[G]\n(0 1 2 3 4)\n"
        "[a]\n(1 2 4 3)\n")
    code, out, _ = run(capsys, ["--json", "groups", "--spec", str(spec)])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["ambient_order"] == 20 and res["normal_order"] == 5
    assert res["fixed_point_identity"]["points"]["equal"] is True
    assert res["fixed_point_identity"]["ordered_pairs"]["equal"] is True
    assert res["conditions"]["agree"] is True


def test_groups_spec_accepts_spaces_between_cycles(tmp_path, capsys):
    assert parse_cycles(" (0 1) (2 3)", 4) == parse_cycles("(0 1)(2 3)", 4)
    # the affine group on five points over the dihedral group of order
    # 10, which x -> -x, written as two cycles, generates with x -> x + 1
    text = ("[A]\n(0 1 2 3 4)\n(1 2 4 3)\n(1 4){sep}(2 3)\n"
            "[G]\n(0 1 2 3 4)\n(1 4){sep}(2 3)\n"
            "[a]\n(1 2 4 3)\n")
    results = []
    for name, sep in (("tight.grp", ""), ("spaced.grp", " "),
                      ("tab.grp", " \t ")):
        spec = tmp_path / name
        spec.write_text(text.format(sep=sep))
        code, out, err = run(capsys, ["--json", "groups", "--spec", str(spec)])
        assert code == 0, err
        results.append(json.loads(out)["results"])
    assert results[0] == results[1] == results[2]
    assert results[1]["ambient_order"] == 20
    assert results[1]["normal_order"] == 10


def test_groups_spec_missing_section(tmp_path, capsys):
    spec = tmp_path / "bad.grp"
    spec.write_text("[A]\n(0 1)\n")
    code, _, err = run(capsys, ["groups", "--spec", str(spec)])
    assert code == 1


@pytest.mark.parametrize("deg", ["-1", "0", "x"])
def test_groups_spec_refuses_a_degree_that_is_not_positive(tmp_path, capsys, deg):
    spec = tmp_path / "bad.grp"
    spec.write_text(f"[deg]\n{deg}\n[A]\n()\n[G]\n()\n[a]\n()\n")
    code, out, err = run(capsys, ["--json", "groups", "--spec", str(spec)])
    assert code == 1 and out == ""
    assert f"[deg] {deg!r} is not a positive integer" in err


def test_groups_spec_without_points_needs_a_degree(tmp_path, capsys):
    # with no [deg] the degree is inferred from the largest point named,
    # and a spec naming none would otherwise get degree 0
    spec = tmp_path / "bad.grp"
    spec.write_text("[A]\n()\n[G]\n()\n[a]\n()\n")
    code, out, err = run(capsys, ["--json", "groups", "--spec", str(spec)])
    assert code == 1 and out == ""
    assert "give its degree in [deg]" in err


def test_bounds_subcommand(capsys):
    code, out, _ = run(capsys, ["--json", "bounds", "--n", "5", "--gx", "0"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["injectivity_quadratic_bound"] == "50"
    assert res["injectivity_quadratic_min_q"] == "2501"
    assert res["injectivity_refined_bound"] == "19"
    assert res["injectivity_refined_min_q"] == "362"
    assert res["surjectivity_bound"] == "1800"
    assert res["surjectivity_min_q"] == "3240000"


def test_examples_subcommand(capsys):
    code, out, _ = run(capsys, ["--json", "examples"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["all_pass"] is True
    names = {inst["name"] for inst in res["instances"]}
    assert any("quintic-twist" in n for n in names)
    assert any("superelliptic-split" in n for n in names)


def test_census_vs_prediction_comparison(tmp_path, capsys):
    spec = tmp_path / "c3.grp"
    spec.write_text("[deg]\n3\n[A]\n(0 1 2)\n[G]\n(0 1 2)\n[a]\n()\n")
    code, out, _ = run(capsys, ["--json", "analyze", "--p", "7",
                                "--num", "x^3", "--den", "1", "--m", "1",
                                "--group-spec", str(spec)])
    assert code == 0
    res = json.loads(out)["results"]
    comp = res["census_vs_prediction"][0]
    assert comp["total_variation_distance"] == "0/1"
    assert all(row["match"] for row in comp["rows"])


def test_text_output_contains_verdicts(capsys):
    code, out, _ = run(capsys, ["analyze", "--p", "17", "--num", "x^5-10*x",
                                "--den", "x^4-3", "--m", "1"])
    assert code == 0
    assert "exceptional: False" in out
    assert "bijective=True" in out
    assert "elapsed:" in out
