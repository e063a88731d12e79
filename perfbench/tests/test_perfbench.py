"""Tests for the benchmark itself: corpus determinism, oracles that catch
wrong answers, smoke-sized runs of every workload, and the traced run's
self-time accounting.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import corpus  # noqa: E402
import harness  # noqa: E402
from refmath import RefField, dickson, fiber_product  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace, cwd=ROOT, script=None):
    script = script or os.path.join(BENCH, "run.py")
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_same_corpus_other_seed_other_corpus(workload):
    a = corpus.build(workload, 11)
    assert corpus.build(workload, 11) == a
    assert corpus.build(workload, 12) != a


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(corpus.WORKLOADS)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_smoke_run_passes_its_oracles(workload):
    out = result_line(run_bench(workload, 0))
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0


def test_traced_self_times_sum_to_traced_wall():
    out = result_line(run_bench("analyze", 1))
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    wall = metrics["trace.wall_s"]
    layers = sum(v for k, v in metrics.items()
                 if k.startswith("layer.") and k.endswith(".self_s"))
    spans = sum(v for k, v in metrics.items()
                if k.endswith(".self_s") and not k.startswith("layer."))
    assert abs(layers - wall) <= 0.01 * wall
    assert abs(spans + metrics["layer.bench.self_s"] - wall) <= 0.01 * wall
    assert metrics["cli.main.calls"] >= 1
    assert metrics["covers.points_enumerated"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("verdict", 0, cwd=tmp_path,
                     script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- the oracles reject wrong answers -----------------------------------------


@pytest.fixture(scope="module")
def analyze_pass():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    pkg = harness.Package(os.path.join(ROOT, "src"))
    requests = [r for r in corpus.build("analyze", 5, smoke=True)
                if r["kind"] == "analyze"][:1]
    p = harness.run_pass(pkg, "analyze", requests, None)
    assert not harness.check_pass(p, requests)
    return requests[0], json.loads(p.outputs[0][1])


def _tampered(report, edit):
    report = json.loads(json.dumps(report))
    edit(report["results"])
    return json.dumps(report)


@pytest.mark.parametrize("edit", [
    lambda r: r["audits"][0].update(bijective=not r["audits"][0]["bijective"]),
    lambda r: r["audits"][0]["fiber_size_histogram"].update({"9": 1}),
    lambda r: r["censuses"][0]["histogram"].pop(),
    lambda r: r["exceptionality"].update(
        exceptional=not r["exceptionality"]["exceptional"]),
    lambda r: r["field"].update(modulus=[1, 1]),
])
def test_oracles_reject_a_wrong_analyze_answer(analyze_pass, edit):
    req, report = analyze_pass
    assert harness.check(req, _tampered(report, edit))


def test_family_rules_reject_a_wrong_verdict():
    F = RefField.standard(7, 1)
    req = corpus.monomial_entry(F, 5)          # gcd(5, 6) = 1
    errors = []
    harness._check_verdict_rules(req, False, [True], errors)
    assert req["expect_exceptional"] is True and errors


# -- the reference arithmetic ---------------------------------------------------


def test_reference_arithmetic_on_known_values():
    assert RefField.standard(2, 2).modulus == (1, 1, 1)
    F = RefField.standard(3, 2)
    g = F.generator()
    assert len({F.pow(g, e) for e in range(F.q - 1)}) == F.q - 1
    F7 = RefField.standard(7, 1)
    assert dickson(F7, 3, 2) == [0, F7.neg(6), 0, 1]      # x^3 - 3 a x
    assert fiber_product(F7, [0, 0, 1], [1]) == {(1, 0): 1, (0, 1): 1}
