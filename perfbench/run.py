#!/usr/bin/env python3
"""Build ferretd and the load generator from this checkout, then run one workload.

    python3 perfbench/run.py --workload image-uniform --seed 1 --seconds 20 --trace 0

Run from the root of the checkout. Everything the build and the run write
stays under .bench_build/ (Go build cache included). The last line of
standard output is the generator's JSON result; the exit code is non-zero on
a build failure, an incorrect answer or a failed operation.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(OUT, "bin")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOMODCACHE": os.path.join(OUT, "gomodcache"),
        "GOPATH": os.path.join(OUT, "gopath"),
        "GOTMPDIR": os.path.join(OUT, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(OUT, "config"),
        "XDG_CACHE_HOME": os.path.join(OUT, "cache"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    """Build ferretd (the commit under test) and the generator; exit non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no go.mod at %s: run from the root of a ferret checkout" % ROOT)
    env = go_env()
    for d in (BIN, env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    steps = [
        (ROOT, ["go", "build", "-o", os.path.join(BIN, "ferretd"), "./cmd/ferretd"]),
        (os.path.join(ROOT, "perfbench"), ["go", "build", "-o", os.path.join(BIN, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: build timed out: %s" % " ".join(cmd))
        if r.returncode != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [os.path.join(BIN, "perfbench"),
           "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", repr(args.seconds), "-trace", str(args.trace),
           "-ferretd", os.path.join(BIN, "ferretd"),
           "-state", OUT]
    sys.stdout.flush()
    # The generator replaces this process: it owns ferretd, stops it before
    # exiting, and prints the result line itself.
    os.execv(cmd[0], cmd)


if __name__ == "__main__":
    main()
