#!/usr/bin/env python3
"""Build and run the caf-rs benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload coll_shm --seed 1 --seconds 10 --trace 0

Builds two binaries of the `perfbench` package from source — the untraced
one into `$CARGO_TARGET_DIR` (default `.bench_build`) and the traced one
(`--features trace`) into its `traced/` subdirectory — then runs the one
`--trace` selects. The binary's standard output is passed through; its last
line is the JSON result. Exits non-zero, without a result, if the build or
the run fails or the run overstays its time limit.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
BINARY = "caf-perfbench"
# A run measures `--seconds` plus set-up; anything near this is a hang.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir, traced):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST]
    if traced:
        cmd += ["--features", "trace"]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Build output goes to stderr; stdout carries only the run's lines.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(target_dir, "release", BINARY)


def run_env(target_dir):
    """The binary's environment: no inherited CAF_* knobs, scratch files
    (shared-memory segments, temp files) under the build directory, and a
    fixed allocator threshold."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CAF_")}
    shm_dir = os.path.join(target_dir, "shm")
    tmp_dir = os.path.join(target_dir, "tmp")
    for d in (shm_dir, tmp_dir):
        os.makedirs(d, exist_ok=True)
    # Segment files a crashed run left behind.
    for name in os.listdir(shm_dir):
        if name.startswith("caf-shm-"):
            os.remove(os.path.join(shm_dir, name))
    env["CAF_SHM_DIR"] = shm_dir
    env["TMPDIR"] = tmp_dir
    # A fixed mmap threshold: blocks of 128 KiB and more are mapped and
    # returned to the system on free, instead of glibc raising the
    # threshold and retaining freed matrices in per-thread arenas — which
    # made peak RSS vary by a third between identical runs.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def main(argv):
    if "--workload" not in argv or "--seed" not in argv:
        fail("usage: run.py --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"no caf-rs sources under {ROOT}; run from a full checkout")
    if shutil.which("cargo") is None:
        fail("cargo not found")
    traced = False
    if "--trace" in argv:
        i = argv.index("--trace")
        traced = i + 1 < len(argv) and argv[i + 1] == "1"

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    # Build both variants on every run (a no-op once built), so whichever
    # run comes first pays for both builds.
    plain_bin = build(target, traced=False)
    traced_bin = build(os.path.join(target, "traced"), traced=True)
    binary = traced_bin if traced else plain_bin

    try:
        done = subprocess.run(
            [binary] + argv,
            cwd=ROOT,
            env=run_env(target),
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        if e.stdout:
            sys.stderr.write(e.stdout if isinstance(e.stdout, str) else e.stdout.decode())
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(done.stdout)
        fail("benchmark printed no result line")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
