#!/usr/bin/env python3
"""Build the perfbench Go program from the checkout's sources and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ptas-coarse --seed 1 --seconds 20 --trace 0

The Go build cache, temporary files and the binary all live under
.bench_build/ in the checkout, and the build never touches the network.
The program's output passes through unchanged; its last line is the JSON
result. A failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    for name in ("gocache", "tmp", "gopath"):
        os.makedirs(os.path.join(BUILD, name), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOFLAGS="",
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=BENCH, env=go_env())
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
