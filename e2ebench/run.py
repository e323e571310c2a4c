#!/usr/bin/env python3
"""Build and run the e2ebench benchmark from the root of a checkout.

    python3 e2ebench/run.py --workload solve-exact --seed 1 --seconds 25 --trace 0

Builds e2ebench/ (a Go module of its own that imports the repository's
packages through a replace directive) into the build directory, then runs
one workload. Every Go cache and temporary file stays under the build
directory ($CARGO_TARGET_DIR when set, else .bench_build). The last line
of standard output is the JSON result; the exit code is 0 only when the
run was correct.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# One run must end within 180 s; leave room to stop the child cleanly.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_env(build_dir: Path) -> dict:
    env = dict(os.environ)
    tmp = build_dir / "tmp"
    for d in (tmp, build_dir / "config", build_dir / "cache"):
        d.mkdir(parents=True, exist_ok=True)
    env.update(
        GOCACHE=str(build_dir / "gocache"),
        GOPATH=str(build_dir / "gopath"),
        GOMODCACHE=str(build_dir / "gopath" / "pkg" / "mod"),
        GOTMPDIR=str(tmp),
        TMPDIR=str(tmp),
        XDG_CONFIG_HOME=str(build_dir / "config"),
        XDG_CACHE_HOME=str(build_dir / "cache"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    return env


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "go.mod").is_file() or not (ROOT / "internal").is_dir():
        print(f"e2ebench: {ROOT} holds no repository sources to build", file=sys.stderr)
        return 2
    go = shutil.which("go")
    if go is None:
        print("e2ebench: no go toolchain on PATH", file=sys.stderr)
        return 2
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = build_env(build_dir)
    binary = build_dir / "e2ebench"
    try:
        built = subprocess.run(
            [go, "build", "-o", str(binary), "."],
            cwd=BENCH_DIR, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("e2ebench: build timed out", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 2

    cmd = [
        str(binary),
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
    ]
    # A session of its own, so a timeout also stops the set-up probes.
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
