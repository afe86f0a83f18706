#!/usr/bin/env python3
"""Build and run bpagg's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 15 --trace 0

It builds the Go program in perfbench/ (a module of its own that uses the
repository's bpagg module through a replace directive) into .bench_build/,
with the Go build cache and temporary files there too, so nothing is
written outside the checkout. It then runs the program with the given
arguments from the repository root; the last line of its output is the
JSON result. It exits non-zero without a result when the build or the run
fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    return env


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def main():
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env())
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, *sys.argv[1:], "--commit", commit(),
            "--dir", os.path.join(BUILD, "perfbench-out")]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
