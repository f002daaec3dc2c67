#!/usr/bin/env python3
"""Build and run the layered FPTree benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload kv-zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck

A run builds perfbench/main.exe with dune into .bench_build (inside the
checkout, dune's shared cache off), runs one workload in a fresh
process, checks that the result line names exactly the metrics
BENCHMARK.json declares for that mode (end-to-end with --trace 0,
per-layer with --trace 1) with their units, and prints the program's
report followed by the result line.  Any failure exits non-zero
without printing a result.

--selfcheck runs every workload at a tiny scale, twice per mode with one
seed, and asserts that every named metric is printed with its unit,
that no operation failed, and that the counted and byte metrics of the
single-client workloads repeat exactly.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170

# Counted and byte metrics that must repeat exactly for one seed on the
# single-client workloads (their op streams and counted passes are
# fixed by the seed).
EXACT = {
    "ingest-churn": [
        "scm_lines_per_op", "dram_bytes_per_key", "scm_bytes_per_key",
        "scm.persists_per_op", "scm.line_reads_per_op", "scm.line_writes_per_op",
        "scm.write_amplification", "fptree.key_probes_per_search",
        "fptree.fp_false_positive_rate", "fptree.leaf_splits_per_op",
        "fptree.leaf_deletes_per_op", "fptree.microlog_persists_per_op",
        "pmem.allocs_per_op", "pmem.frees_per_op", "fptree.inner_height",
    ],
    "tatp-ro": [
        "scm_lines_per_op", "dram_bytes_per_key", "scm_bytes_per_key",
        "scm.persists_per_op", "scm.line_reads_per_op", "scm.line_writes_per_op",
        "fptree.key_probes_per_search", "fptree.fp_false_positive_rate",
        "dbproto.index_finds_per_txn", "dbproto.column_reads_per_txn",
        "fptree.inner_height",
    ],
}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            die("%s not found: run from the root of a full checkout" % need)
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled", "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        die("build failed (dune exit %d)" % r.returncode)


def run_once(workload, seed, seconds, trace, scale=None):
    """Run one workload; return (report lines, parsed result)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    if r.returncode != 0:
        die("%s exited with %d" % (workload, r.returncode))
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("%s: last line is not JSON: %r" % (workload, lines[-1][:200]))
    return lines[:-1], result


def validate(result, declared, what):
    """Exact key set, units as declared, numeric values."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("%s: result keys %s" % (what, sorted(result)))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        die("%s: attempted %r" % (what, result["attempted"]))
    if not isinstance(result["failed"], int):
        die("%s: failed %r" % (what, result["failed"]))
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        die("%s: metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (what, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        if m.get("unit") != want[name] or not isinstance(m.get("value"), (int, float)):
            die("%s: metric %s is %r, declared unit %s" % (what, name, m, want[name]))


def declared_for(bench, trace):
    return bench["per_layer"] if trace else bench["end_to_end"]


def selfcheck(bench):
    seed, scale, seconds = 7, 0.01, 1
    for w in [x["name"] for x in bench["workloads"]]:
        for trace in (0, 1):
            what = "%s trace=%d" % (w, trace)
            _, r1 = run_once(w, seed, seconds, trace, scale)
            _, r2 = run_once(w, seed, seconds, trace, scale)
            for r in (r1, r2):
                validate(r, declared_for(bench, trace), what)
                if not r["correct"] or r["failed"] != 0:
                    die("%s: correct=%s failed=%d (error rate must be 0)"
                        % (what, r["correct"], r["failed"]))
            for name in EXACT.get(w, []):
                if name in r1["metrics"]:
                    a = r1["metrics"][name]["value"]
                    b = r2["metrics"][name]["value"]
                    if a != b:
                        die("%s: %s differs between two runs of one seed: %r vs %r"
                            % (what, name, a, b))
            print("selfcheck %-24s ok (%d metrics)" % (what, len(r1["metrics"])))
    print("selfcheck passed")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--selfcheck", action="store_true")
    a = p.parse_args()
    bench = spec()
    build()
    if a.selfcheck:
        selfcheck(bench)
        return
    names = [w["name"] for w in bench["workloads"]]
    if a.workload not in names:
        die("--workload must be one of %s" % ", ".join(names))
    report, result = run_once(a.workload, a.seed, a.seconds, a.trace, a.scale)
    validate(result, declared_for(bench, a.trace), a.workload)
    for line in report:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
