#!/usr/bin/env python3
"""Repository benchmark: build the driver from source, run one workload.

    python3 perfbench/run.py --workload plan_cold|train_block|train_tcp \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --regenerate-reference

Run from the repository root. The driver is built with CMake from
perfbench/CMakeLists.txt (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. The last
line of stdout is the result object {"correct", "attempted", "failed",
"metrics"}; the line before it is the run record. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
The exit code is 0 only when every output matched its reference.

--regenerate-reference rewrites perfbench/reference.json from the
current program on all host threads (the timed runs use one); do it
only when a change is meant to alter plans, losses or exact counts.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plan_cold", "train_block", "train_tcp")
# A run must end within 180 s; the driver arms its own 175 s alarm.
RUN_TIMEOUT_S = 178


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure once, then let the build tool bring the driver up to
    date (a no-op when nothing changed)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "--target",
                    "perfbench_driver", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(out_dir, "perfbench_driver")


def commit_id():
    """The git commit, or a digest of the library sources when the
    checkout is not a git repository."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json
    names for this mode, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = spec["per_layer" if trace else "end_to_end"]
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys %s" % sorted(result))
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in want):
        raise ValueError("metric names differ from BENCHMARK.json")
    for m in want:
        if got[m["name"]]["unit"] != m["unit"]:
            raise ValueError("unit of %s differs" % m["name"])
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regenerate-reference", action="store_true")
    args = ap.parse_args()
    if not args.workload and not args.regenerate_reference:
        ap.error("--workload is required")

    out_dir = build_dir()
    driver = build(out_dir)
    workdir = os.path.join(out_dir, "work-%d" % os.getpid())
    try:
        if args.regenerate_reference:
            subprocess.run([driver, "--make-reference",
                            os.path.join(HERE, "reference.json"),
                            "--workdir", workdir], check=True)
            return 0
        cmd = [driver, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--reference", os.path.join(HERE, "reference.json"),
               "--workdir", workdir, "--commit", commit_id()]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2 or proc.returncode not in (0, 1):
            sys.exit("perfbench: driver exited with %d" % proc.returncode)
        result = check_result(lines[-1], args.trace == 1)
        print("\n".join(lines))
        return 0 if result["correct"] and proc.returncode == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
