#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_stream|tenant_churn \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the program and the benchmark binary
from source into .bench_build/perfbench (Release, incremental after the first
run), runs one workload in its own process and relays its output; the last
stdout line is the result JSON. Exits non-zero, without a result line, when
the sources are missing or the build fails, and with the binary's exit code
when a run fails an output check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_stream", "tenant_churn")
# One run must end within 180 s; leave room for start-up and clean-up.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(bench_dir: Path, build_dir: Path, env: dict) -> Path:
    """Configure (first time only) and build; all tool output goes to stderr."""
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"],
                   stdout=sys.stderr, check=True, env=env)
    return build_dir / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print("perfbench: src/CMakeLists.txt not found; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    out_dir = root / ".bench_build"
    # Keep every file the build and the run write inside the checkout.
    env = dict(os.environ, TMPDIR=str(out_dir / "tmp"))
    env.pop("CROWDLEARN_THREADS", None)  # the binary pins its pool size anyway
    (out_dir / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        binary = build(bench_dir, out_dir / "perfbench", env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    work_dir = out_dir / "runs" / f"{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    if args.trace:
        trace_dir = out_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file", str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        well_formed = isinstance(result, dict) and set(result) == RESULT_KEYS
    except json.JSONDecodeError:
        well_formed = False
    if not well_formed:
        sys.stderr.write(proc.stdout)
        print("perfbench: the run printed no result", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
