#!/usr/bin/env python3
"""The benchmark's one command: build bench_e2e from this checkout, run one
workload, check its result line against BENCHMARK.json, and print it.

    python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first call configures and builds
(RelWithDebInfo) into .bench_build/; later calls only rebuild what changed.
Results and traces are also kept under .bench_out/ (see README.md). The exit
code is bench_e2e's: 0 with the result as the last stdout line, 77 when the
host has no usable sockets, anything else on a failed build or check.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
# A run must end within 180 s; leave room to report a hung one.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run.py needs a full checkout")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "bench_e2e",
                  "-j", str(os.cpu_count() or 1)])
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD_DIR / "bench_e2e"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(result)} are not the contract's", 3)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    if got != want:
        fail(f"result metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}", 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--out-dir", str(OUT_DIR), "--git-sha", git_sha()]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e did not finish within {RUN_TIMEOUT_S} s", 4)
    if p.returncode != 0:
        sys.exit(p.returncode)
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail("bench_e2e printed no result", 3)
    check_result(lines[-1], args.trace == "1")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
