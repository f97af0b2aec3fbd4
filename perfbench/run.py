#!/usr/bin/env python3
"""Build and run qoschain's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload session-churn --seed 1 --seconds 20 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that builds
against the repository's packages through a replace directive. This
script builds it from source into .bench_build/ (the Go build cache,
temporary files and the binary all stay there), then runs it with the
given arguments from the repository root. The benchmark's trial state
directories also live under .bench_build/. Every argument is passed
through; the last line of standard output is the benchmark's JSON
result. A failed build exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def go_binary():
    found = shutil.which("go")
    if found:
        return found
    fallback = "/usr/local/go/bin/go"
    return fallback if os.path.exists(fallback) else None


def build():
    go = go_binary()
    if go is None:
        print("perfbench: no Go toolchain found", file=sys.stderr)
        return None
    for sub in ("gocache", "gopath", "tmp", "home"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "HOME": os.path.join(BUILD, "home"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "home"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    out = os.path.join(BUILD, "perfbench")
    proc = subprocess.run([go, "build", "-o", out, "."], cwd=os.path.join(ROOT, "perfbench"),
                          env=env, stdout=sys.stderr, stderr=sys.stderr)
    return out if proc.returncode == 0 else None


def main():
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
