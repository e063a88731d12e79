"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 40 --trace 0

Run from anywhere; the package is imported from ``src`` next to this
directory, and the run exits with status 2, printing no result, when it
is missing.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A record with the environment, the output digest and the tail
percentile goes to the line before it and to ``.perfbench_out/``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import corpus
import harness
import probes
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
# Seed kept out of every tuning run, for confirming a later claim.
HELD_OUT_SEED = 2005


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a small corpus, for the benchmark's own tests")
    return ap.parse_args(argv)


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def git_commit():
    head = (_read(os.path.join(ROOT, ".git", "HEAD")) or "").strip()
    if head.startswith("ref: "):
        return (_read(os.path.join(ROOT, ".git", head[5:])) or "").strip() \
            or None
    return head or None


def source_digest():
    h = hashlib.sha256()
    pkg_dir = os.path.join(SRC, harness.PACKAGE)
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(args):
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip()
                  for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg": (_read("/proc/loadavg") or "").strip(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup(args, spec_dir):
    """Import the package afresh, build the corpus and write the specs."""
    pkg = harness.Package(SRC)
    requests = corpus.build(args.workload, args.seed, args.smoke)
    os.makedirs(spec_dir, exist_ok=True)
    for req in requests:
        if req["kind"] == "groups_spec":
            with open(os.path.join(spec_dir, req["id"] + ".grp"), "w",
                      encoding="utf-8") as fh:
                fh.write(req["text"])
    return pkg, requests


def tail(latencies, per_pass):
    """The highest whole percentile with at least ten of one pass's
    requests beyond it, read from every sample by nearest rank."""
    level = max(math.floor(100 - 1000 / per_pass), 50)
    ordered = sorted(latencies)
    rank = max(math.ceil(level / 100 * len(ordered)), 1)
    return level, ordered[rank - 1]


def measure(args, pkg, requests, spec_dir):
    """Untraced passes until the next would overrun ``--seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        p = harness.run_pass(pkg, args.workload, requests, spec_dir,
                             args.smoke)
        if not passes:
            errors = harness.check_pass(p, requests)
        p.seal(requests)
        passes.append(p)
        walls = [p.wall_s for p in passes]
        if (time.perf_counter() - start + statistics.median(walls)
                > args.seconds):
            return passes, errors


def traced(args, pkg, requests, spec_dir):
    """An untraced warm-up pass, a traced pass and an untraced reference
    pass; the traced pass's spans are written out."""
    def run(tracer=None):
        return harness.run_pass(pkg, args.workload, requests, spec_dir,
                                args.smoke, tracer)

    passes = [run()]
    errors = harness.check_pass(passes[0], requests)
    passes[0].seal(requests)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall = tracer.run_root(lambda: passes.append(run(tracer)))
    finally:
        tracer.uninstall()
    passes[1].seal(requests)
    passes.append(run())
    passes[2].seal(requests)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(
        OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return passes, errors, tracer, wall


def layer_metrics(tracer, wall, untraced_wall, probe_values):
    m = {}
    for name in tracing.SPAN_NAMES:
        m[f"{name}.self_s"] = (tracer.self_s[name], "s")
        m[f"{name}.calls"] = (tracer.calls[name], "count")
    c = tracer.counts
    m["gf.extension.max_k"] = (c["max_k"], "degree")
    m["polyfactor.absolute_component_count.split_frac"] = (
        c["acc_split"] / c["acc_calls"] if c["acc_calls"] else 0.0, "ratio")
    m["covers.points_enumerated"] = (c["points"], "count")
    m["covers.audit_s_per_kpoint"] = (
        c["audit_s"] * 1000 / c["audit_points"] if c["audit_points"] else 0.0,
        "s/kpoint")
    m["excep.pairs_scanned"] = (c["pairs"], "count")
    for layer, value in tracer.layer_self().items():
        m[f"layer.{layer}.self_s"] = (value, "s")
        if layer != "bench":
            m[f"layer.{layer}.share"] = (value / wall, "ratio")
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (wall - untraced_wall, "s")
    for name, value in probe_values.items():
        m[name] = (value, name.split(".")[1].rsplit("_", 1)[1])
    return m


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, harness.PACKAGE)):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    record = {"environment": environment(args)}
    spec_dir = os.path.join(OUT_DIR, f"specs-{os.getpid()}")
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            pkg, requests = setup(args, spec_dir)
            setup_times.append(time.perf_counter() - start)
        if args.trace:
            passes, errors, tracer, wall = traced(args, pkg, requests,
                                                  spec_dir)
        else:
            passes, errors = measure(args, pkg, requests, spec_dir)
        if len({p.digest for p in passes}) != 1:
            errors.append("passes over the same corpus gave different outputs")
        if args.trace:
            try:
                probe_values = probes.run(pkg)
            except probes.ProbeError as exc:
                errors.append(str(exc))
                probe_values = {}
            metrics = layer_metrics(tracer, wall, passes[-1].wall_s,
                                    probe_values)
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)

    latencies = [t for p in passes for t in p.latencies]
    attempted = len(latencies)
    failed = sum(len(p.failed) for p in passes)
    per_pass = len(passes[0].latencies)
    level, tail_s = tail(latencies, per_pass)
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
            "latency_p50_s": (statistics.median(latencies), "s"),
            "latency_tail_s": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
    record.update({
        "digest": passes[0].digest,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_s_samples": setup_times,
        "latency_tail": {"percentile": level, "samples": attempted,
                         "beyond": attempted - math.ceil(level / 100 *
                                                         attempted)},
        "failures": [f for p in passes for f in p.failed][:20],
        "errors": errors[:20],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace"
                           f"{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(record, pass_latencies_s=[p.latencies for p in passes]),
                  fh, indent=1, sort_keys=True)
    for err in errors[:20]:
        print(f"wrong: {err}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
