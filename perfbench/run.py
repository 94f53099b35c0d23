#!/usr/bin/env python3
"""Build and run the nocmap benchmark.

Run one workload (the last stdout line is the result object):

    python3 perfbench/run.py --workload map --seed 1 --seconds 10 --trace 0

Workloads: map, serve, simulate, campaign. --trace 1 adds a traced phase
and prints the per-layer metrics instead of the end-to-end ones.

    python3 perfbench/run.py --self-test         # checks are live, names agree
    python3 perfbench/run.py --record-reference  # rewrite reference.json

The first call configures and builds perfbench/ (which compiles ../src) in
Release mode into $CARGO_TARGET_DIR, or .bench_build when it is unset; later
calls only rebuild what changed. Everything the benchmark writes stays under
that directory.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("map", "serve", "simulate", "campaign")
REFERENCE_SEED = 20140519
HELD_OUT_SEED = 7


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("nocmap sources (src/) not found next to perfbench/")
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "nocmap_perfbench")


def source_id():
    """Commit when the checkout is a git repository, plus a digest of the
    sources the binary is built from (a checkout without .git has only the
    digest)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    ident = "tree:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            ident = "git:" + git.stdout.strip()[:12] + " " + ident
    return ident


def bench_command(binary, workload, seed, seconds, trace, extra=()):
    """The binary's command line; --reference is dropped when `extra` asks
    for --dump-digests, which records digests instead of checking them."""
    reference = [] if "--dump-digests" in extra else [
        "--reference", os.path.join(HERE, "reference.json")]
    return [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--metrics", os.path.join(HERE, "metrics.json"), *reference,
            "--work-dir", os.path.join(build_dir(), "work"),
            "--source", source_id(), *extra]


def run_quiet(cmd):
    """Runs the benchmark binary; returns its result object and the named
    metrics it printed for people (name -> value)."""
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("exit %d: %s" % (proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    named = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 2 and line.startswith("  "):
            try:
                named[fields[0]] = float(fields[1])
            except ValueError:
                pass
    return json.loads(lines[-1]), named


def self_test(binary):
    """Shows that the output checks are live and the metric lists agree."""
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        metrics = json.load(f)
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"], m["better"]) for m in bench[kind]]
        defined = [(m["name"], m["unit"], m["better"]) for m in metrics[kind]]
        expect(declared == defined,
               "BENCHMARK.json %s matches metrics.json" % kind)
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads are " + ", ".join(WORKLOADS))

    layer_values = {}
    for workload in WORKLOADS:
        short = 0.1  # one closed-loop unit
        r, named = run_quiet(
            bench_command(binary, workload, REFERENCE_SEED, short, 0))
        expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
               "%s: reference seed matches every reference digest" % workload)
        if workload == "serve":
            expect(0.01 <= named["fallback_share"] <= 0.05,
                   "serve: %.2f%% of decisions fall back (1-5%% wanted)"
                   % (100 * named["fallback_share"]))
            expect(named["p50_incremental_share"] == 1
                   and named["p99_fallback_share"] == 1,
                   "serve: p50 is an incremental decision, p99 a fallback")
        expect(set(r["metrics"]) == {m["name"] for m in metrics["end_to_end"]}
               and all(v["value"] > 0 for v in r["metrics"].values()),
               "%s: every end-to-end metric printed and non-zero" % workload)
        r, _ = run_quiet(
            bench_command(binary, workload, HELD_OUT_SEED, short, 1))
        expect(r["correct"] and r["failed"] == 0,
               "%s: held-out seed %d passes its invariants (traced)"
               % (workload, HELD_OUT_SEED))
        layer_values[workload] = {k: v["value"]
                                  for k, v in r["metrics"].items()}
        r, _ = run_quiet(bench_command(binary, workload, REFERENCE_SEED,
                                       short, 0, ["--tamper", "digest"]))
        expect(not r["correct"] and r["failed"] > 0,
               "%s: an altered output is caught by the reference digest"
               % workload)
        r, _ = run_quiet(bench_command(binary, workload, HELD_OUT_SEED,
                                       short, 0, ["--tamper", "invariant"]))
        expect(not r["correct"] and r["failed"] > 0,
               "%s: a broken invariant is caught at a held-out seed"
               % workload)

    for m in metrics["per_layer"]:
        for workload in m["on"]:
            value = layer_values[workload].get(m["name"])
            expect(value is not None and value != 0,
                   "%s measured on %s" % (m["name"], workload))
    print("self-test: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def record_reference(binary):
    reference = {"seed": REFERENCE_SEED}
    dump = os.path.join(build_dir(), "digests.json")
    for workload in WORKLOADS:
        r, _ = run_quiet(bench_command(binary, workload, REFERENCE_SEED, 0.1,
                                       0, ["--dump-digests", dump]))
        if not r["correct"]:
            fail("%s failed its invariants; reference not written" % workload)
        with open(dump) as f:
            reference[workload] = json.load(f)
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote perfbench/reference.json")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.self_test or args.record_reference):
        parser.error("one of --workload, --self-test, --record-reference")
    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.record_reference:
        return record_reference(binary)
    sys.stdout.flush()
    return subprocess.run(bench_command(binary, args.workload, args.seed,
                                        args.seconds, args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
