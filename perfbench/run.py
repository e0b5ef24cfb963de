#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

Builds perfbench/ (which compiles the program from ../src in the
repository's default RelWithDebInfo configuration) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and forwards the binary's report. The last line of stdout is
the JSON result; it is checked against the output schema before it is
printed. Build logs go to stderr. --test builds and runs the
benchmark's own unit tests instead.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base


def build(target):
    out = build_dir() / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(out), "-j", jobs, "--target", target],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out / target


def source_digest():
    """sha256 over the program and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "none"


def schema_errors(result):
    """Reasons @result is not a valid result object (empty when valid)."""
    errors = []
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["keys must be exactly %s" % sorted(RESULT_KEYS)]
    if not isinstance(result["correct"], bool):
        errors.append("correct must be a bool")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool):
            errors.append(k + " must be an integer")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted must be at least 1")
    if not isinstance(result["metrics"], dict) or not result["metrics"]:
        return errors + ["metrics must be a non-empty object"]
    for name, m in result["metrics"].items():
        if (not isinstance(m, dict) or set(m) != {"value", "unit"}
                or not isinstance(m["value"], (int, float))
                or isinstance(m["value"], bool)
                or not isinstance(m["unit"], str)):
            errors.append("metric %s must be {value: number, unit: str}" % name)
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's unit tests")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no program sources under %s/src" % ROOT)
    if args.test:
        sys.exit(subprocess.run([str(build("perfbench_tests"))]).returncode)
    if not args.workload:
        ap.error("--workload is required")

    binary = build("perfbench")
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work),
           "--commit", git_commit(), "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    errors = schema_errors(result) if result is not None else ["no result"]
    print("\n".join(lines[:-1]))
    if errors:
        sys.exit("perfbench: bad result line: " + "; ".join(errors))
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
