#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper_live --seed 1 --seconds 20 --trace 0

The script builds two binaries from source into .bench_build/perfbench/bin
(dramdigd from the root module, perfbench from this directory's module),
with the Go build cache and temporary files kept under .bench_build, and
then runs perfbench with the given arguments. Building happens before the
benchmark starts its clock, so compile time never reaches setup_s.
"""

import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench")
BIN = os.path.join(OUT, "bin")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "gotmp"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def build(env):
    for d in (env["GOCACHE"], env["GOTMPDIR"], BIN):
        os.makedirs(d, exist_ok=True)
    steps = [
        (ROOT, ["go", "build", "-o", os.path.join(BIN, "dramdigd"), "./cmd/dramdigd"]),
        (BENCH, ["go", "build", "-o", os.path.join(BIN, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write("perfbench: %s failed in %s:\n%s" % (" ".join(cmd), cwd, proc.stdout))
            return False
    return True


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("perfbench: run from the repository root (no go.mod in %s)\n" % ROOT)
        return 2
    env = go_env()
    if not build(env):
        return 1
    cmd = [os.path.join(BIN, "perfbench"),
           "--dramdigd", os.path.join(BIN, "dramdigd"),
           "--out", OUT] + sys.argv[1:]
    child = subprocess.Popen(cmd, cwd=ROOT)

    def forward(signum, _frame):
        child.send_signal(signum)

    # Pass termination on so the benchmark can stop the daemon it runs,
    # and wait for it either way.
    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
