#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check-repro [--seed N] [--seconds S]

Run from the root of a checkout.  The first call configures and builds
perfbench/ (CMake, the library sources under src/) into $CARGO_TARGET_DIR
(default .bench_build) inside the checkout; later calls rebuild only what
changed.  The benchmark binary's output is passed through; its last line is the
JSON result, checked here against the metric names and units BENCHMARK.json
declares.  With --trace 1 the spans file is written to
<build dir>/spans/<workload>.jsonl and the per-layer table rebuilt from it is
printed before the result.

--check-repro proves the exact counts: for every workload it runs the
traced pass twice under one seed and once under the next, and checks that
the counts repeat bit for bit under one seed and that the seed-dependent
ones change with the seed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Counts that depend on the keys, so another seed must change them; the
# rest of the exact block is fixed by the configuration alone.
SEED_DEPENDENT = ("fpr_false_positives", "fpr", "core.pf.spare_query_frac",
                  "core.pf.spare_insert_frac")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "prefix_filter.h")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}; "
             "run from the root of a full checkout")
    build_dir = os.path.join(build_root(), "perfbench")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed", 3)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)
    return binary


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_layer_map():
    """layers.json must map exactly the per-layer metrics BENCHMARK.json lists."""
    with open(os.path.join(HERE, "layers.json")) as f:
        mapped = set(json.load(f)) - {"about"}
    declared = set(declared_metrics(1))
    if mapped != declared:
        fail(f"layers.json and BENCHMARK.json disagree on "
             f"{sorted(mapped ^ declared)}", 1)


def run(binary, workload, seed, seconds, trace):
    """Runs one pass; returns (exit code, stdout lines, spans path or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    spans = None
    if trace:
        spans_dir = os.path.join(build_root(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{workload}.jsonl")
        cmd += ["--spans-out", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    return proc.returncode, proc.stdout.splitlines(), spans


def exact_block(lines):
    for line in lines:
        if line.startswith("exact "):
            return json.loads(line[len("exact "):])
    return None


def check_repro(binary, seed, seconds):
    all_ok = True
    for workload in ("bulk-oocache", "small-frames-incache", "build-rw"):
        blocks = []
        for s in (seed, seed, seed + 1):
            code, lines, _ = run(binary, workload, s, seconds, 1)
            block = exact_block(lines)
            if code != 0 or block is None:
                print(f"{workload} seed {s}: run failed (exit {code})")
                all_ok = False
                break
            blocks.append(block)
        if len(blocks) != 3:
            continue
        first, again, other = blocks
        same = {k for k in first if k != "seed" and first[k] == again[k]}
        differs = {k for k in SEED_DEPENDENT if first.get(k) != other.get(k)}
        repeat_ok = same == set(first) - {"seed"}
        seed_ok = differs == set(SEED_DEPENDENT)
        all_ok = all_ok and repeat_ok and seed_ok
        print(f"{workload}: repeats under seed {seed}: "
              f"{'yes' if repeat_ok else 'NO'} ({len(same)} values); "
              f"changes under seed {seed + 1}: "
              f"{'yes' if seed_ok else 'NO'} ({', '.join(sorted(differs))})")
        for k in sorted(first):
            print(f"  {k:32} {first[k]!s:>24} {again[k]!s:>24} {other[k]!s:>24}")
    return 0 if all_ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-repro", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail(f"no BENCHMARK.json in {ROOT}")
    check_layer_map()
    binary = build()
    if args.check_repro:
        return check_repro(binary, args.seed, min(args.seconds, 3))
    if not args.workload:
        fail("--workload is required")

    code, lines, spans = run(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    if not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        fail(f"no result line (exit {code})", code or 1)
    result = json.loads(lines[-1])
    declared = declared_metrics(args.trace)
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if reported != declared:
        print("\n".join(lines[:-1]))
        fail(f"metrics differ from BENCHMARK.json: reported {sorted(reported.items())}, "
             f"declared {sorted(declared.items())}", 1)
    print("\n".join(lines[:-1]))
    if spans is not None and os.path.isfile(spans):
        sys.dont_write_bytecode = True  # leave perfbench/ as committed
        sys.path.insert(0, HERE)
        import spans_table
        print(spans_table.table(*spans_table.load(spans)))
    print(lines[-1])
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
