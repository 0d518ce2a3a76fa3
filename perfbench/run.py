#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload hc_cold|hg_sweep|mixed_open \
        --seed N --seconds S --trace 0|1

Run it from the root of the repository. It builds the `perfbench`
package (its own workspace, release profile) into $CARGO_TARGET_DIR, or
perfbench/target when that is unset, then runs one measurement. It
prints a `host` line naming the machine the numbers came from, the
binary's output, and last the binary's one-line JSON result. The exit
code is the binary's: 0 when every correctness check passed.

Run state (the durable store) lives under the target directory and is
removed afterwards; the traced run's Chrome trace is written to
<target>/perfbench/trace-<workload>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("hc_cold", "hg_sweep", "mixed_open")
# The binary's own limit is the run length plus set-up and checks; this
# only stops a hung run before the caller's 180 s limit.
RUN_TIMEOUT_S = 170


def read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def command(*argv):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_quota():
    v2 = read("/sys/fs/cgroup/cpu.max")
    if v2:
        return v2.strip()
    quota = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota and period:
        return f"{quota.strip()} {period.strip()}"
    return "none"


def fs_type(path):
    """The filesystem type of the mount holding `path`."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    for line in (read("/proc/mounts") or "").splitlines():
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = path == mount or path.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, kind = mount, fields[2]
    return kind


def host_block(store_dir):
    model = "unknown"
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_max": cpu_quota(),
        "cpu_model": model,
        "rustc": command("rustc", "-V") or "unknown",
        "git_sha": command("git", "rev-parse", "HEAD") or "unknown (not a git checkout)",
        "store_fs": fs_type(store_dir),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 2

    work = os.path.join(target, "perfbench")
    state = os.path.join(work, f"state-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    print("host " + json.dumps(host_block(work), sort_keys=True), flush=True)
    argv = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--state-dir", state,
        "--out-dir", work,
    ]
    try:
        run = subprocess.run(argv, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: the benchmark ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(state, ignore_errors=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
