#!/usr/bin/env python3
"""Build and run the ifsyn benchmark.

    python3 perfbench/run.py --workload synth_cold|serve_open|explore_flc \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds
perfbench/CMakeLists.txt (the program's libraries from src/ plus the
benchmark binary) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, then runs one measurement. Build output goes to stderr; stdout ends
with the benchmark's one-line JSON result. Traces and other run outputs go
to .bench_out/.

Exit status: the benchmark's (0 = every output check passed, 1 = a check
failed), or 2 when the sources are missing, the build fails, the
environment would alter the program, or the result line is malformed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ".bench_out"
# Each of these silently changes the program being measured.
ALTERING_ENV = ("IFSYN_SIM_ENGINE", "IFSYN_SIM_OPT", "IFSYN_BENCH_SMOKE")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no ifsyn sources under {ROOT / 'src'}; run from a checkout")
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(build_dir), "--target",
                   "ifsyn_perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "ifsyn_perfbench"


def check_result_line(line):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the benchmark's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result line has the wrong keys")
    return result


def validate_trace(trace_path):
    """Checks the trace with the repository's own schema validator."""
    validator = ROOT / "scripts" / "validate_trace_json.py"
    if not validator.is_file():
        return True
    done = subprocess.run([sys.executable, str(validator), str(trace_path)],
                          stdout=sys.stderr)
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    for name in ALTERING_ENV:
        if name in os.environ:
            fail(f"refusing to run with {name} set: it changes the program "
                 "being measured. Unset it and run again.")

    os.chdir(ROOT)
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)

    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", repr(args.seconds), "--trace",
               args.trace, "--out", OUT_DIR]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited with status {done.returncode}")
    result = check_result_line(lines[-1])

    code = done.returncode
    if args.trace == "1":
        trace = Path(OUT_DIR) / f"trace_{args.workload}_seed{args.seed}.json"
        if not validate_trace(trace):
            result["correct"] = False
            code = 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
