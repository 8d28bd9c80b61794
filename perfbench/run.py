#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload rag_qa|race_ci|finetune_epoch \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
library sources (src/) together with the benchmark binary into
.bench_build/ (or $CARGO_TARGET_DIR); later runs only re-check the build.
Build output goes to stderr. The binary's standard output is passed
through; its last line is one JSON object with the keys correct,
attempted, failed and metrics, whose metric names are checked against
BENCHMARK.json. The exit code is the binary's (non-zero when a correctness
check failed), or 2 when the benchmark cannot be built or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
COOLDOWN_AFTER_BUILD_S = 60


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def usable_cores():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    cold = not (out / "CMakeCache.txt").is_file()
    if cold:
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", str(out), "--target", "hpcgpt_perfbench",
                   "-j", str(usable_cores())]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    binary = out / "hpcgpt_perfbench"
    if not binary.is_file():
        fail(f"{binary} was not produced")
    if cold:
        # A run measured right after a minute of compiling on every core
        # reads up to 2x slow on a shared 4-core VM; let the host settle.
        time.sleep(COOLDOWN_AFTER_BUILD_S)
    return binary


def source_digest():
    """Content hash of everything the benchmark builds from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def declared_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["rag_qa", "race_ci", "finetune_epoch"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"no result line (exit code {proc.returncode})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    expected = declared_metrics(bool(args.trace))
    if expected is not None and set(result["metrics"]) != expected:
        missing = sorted(expected - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - expected)
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    sys.stdout.write(proc.stdout if proc.stdout.endswith("\n") else proc.stdout + "\n")
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
