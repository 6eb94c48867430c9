#!/usr/bin/env python3
# Copyright 2026 The LearnRisk Authors
"""The repository benchmark: build, run one workload, check the result.

    python3 perfbench/run.py --workload resolve_batch --seed 1 \
        --seconds 15 --trace 0

Run from the repository root. Builds perfbench/ (which links the repository's learnrisk library)
into $CARGO_TARGET_DIR or .bench_build/, runs the benchmark binary, checks
that the last line of its output names exactly the metrics BENCHMARK.json
lists for the run's mode (end-to-end with --trace 0, per-layer with
--trace 1), with their units, and passes the output through. Exits
non-zero, without a result line, when the build, the run or that check
fails. Workloads and metrics: perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    """Configures (once) and builds the benchmark binary and its self-test."""
    if not os.path.isfile(os.path.join(ROOT, "src", "gateway", "gateway.h")):
        fail(f"library sources not found under {ROOT}/src")
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail(f"the repository's build is not at {ROOT}/CMakeLists.txt")
    # The compiler's temporary files stay in the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(
        ["cmake", "--build", out_dir, "-j", jobs, "--target", "perfbench",
         "perfbench_selftest"],
        check=True, stdout=sys.stderr, env=env)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    with open(os.path.join(dirpath, name), "rb") as f:
                        digest.update(f.read())
    return "none (sources sha1 " + digest.hexdigest()[:12] + ")"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, expected):
    """Problems with a result line, or [] when it meets the contract."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    for name in sorted(set(expected) - set(metrics)):
        problems.append(f"metric {name} missing")
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"metric {name} not in BENCHMARK.json")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"metric {name} is not {{value, unit}}")
            continue
        value = entry["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"metric {name} has no numeric value")
        if entry["unit"] != unit:
            problems.append(f"metric {name} unit {entry['unit']} != {unit}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    expected = expected_metrics(args.trace == 1)

    work_dir = os.path.join(out_dir, f"work-{os.getpid()}")
    command = [os.path.join(out_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--git-sha", source_id()]
    if args.smoke:
        command.append("--smoke")
    # A terminated run.py stops the binary too, and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(stderr)
    lines = stdout.rstrip("\n").split("\n")
    problems = check_result(lines[-1], expected) if lines else ["no output"]
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("result does not meet the contract: " + "; ".join(problems))
    sys.stdout.write(stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
