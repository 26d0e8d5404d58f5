#!/usr/bin/env python3
"""vtrain end-to-end benchmark: build, run one workload, print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dse_distinct --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the vtrain
library plus the benchmark program) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set; later runs only rebuild what
changed.  Build output goes to stderr, so the last line on stdout is the
program's JSON result.  The exit status is the program's: 0 only when every
answer it checked was correct.

Extra flags are passed to vtrain_perfbench unchanged (--toy, --inject-mismatch,
--dump-inputs, --write-reference).  Each run also writes its full report,
host stamp included, to <build>/reports/, and a traced run writes its spans
to <build>/spans/.

    python3 perfbench/run.py compare OLD.json NEW.json

compares two such reports metric by metric and refuses (exit 2) when they
come from different hosts.
"""
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
HOST_KEYS = ("cpu_model", "nproc", "replay_kernel", "build_type")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no vtrain sources next to perfbench/; run from a full checkout")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4",
                  "--target", "vtrain_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "vtrain_perfbench")


def source_id():
    """git describe when the checkout is a repository, else a digest."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt", "cmake"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def option(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv[:-1] else default


def run(argv):
    binary = build()
    out = build_dir()
    workload = option(argv, "--workload", "none")
    seed = option(argv, "--seed", "1")
    trace = option(argv, "--trace", "0")
    os.makedirs(os.path.join(out, "reports"), exist_ok=True)
    command = [binary] + argv + [
        "--reference-dir", os.path.join(HERE, "reference"),
        "--build-id", source_id(),
        "--report-out", os.path.join(
            out, "reports", "%s-seed%s-trace%s.json" % (workload, seed, trace))]
    if trace == "1":
        os.makedirs(os.path.join(out, "spans"), exist_ok=True)
        command += ["--spans-out", os.path.join(
            out, "spans", "%s-seed%s.json" % (workload, seed))]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail("the run took longer than %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def compare(old_path, new_path):
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    for key in HOST_KEYS:
        if old["host"].get(key) != new["host"].get(key):
            print("perfbench: refusing to compare results from different "
                  "hosts (%s: %r vs %r)" % (key, old["host"].get(key),
                                            new["host"].get(key)),
                  file=sys.stderr)
            return 2
    if (old["workload"], old["trace"]) != (new["workload"], new["trace"]):
        print("perfbench: different workloads or trace modes",
              file=sys.stderr)
        return 2
    print("%s  %s -> %s" % (old["workload"], old["host"]["git_describe"],
                             new["host"]["git_describe"]))
    before = old["result"]["metrics"]
    after = new["result"]["metrics"]
    for name in before:
        if name not in after:
            continue
        a, b = before[name]["value"], after[name]["value"]
        change = "%+.1f%%" % (100.0 * (b - a) / a) if a else "n/a"
        print("  %-28s %14.6g -> %-14.6g %-6s %s"
              % (name, a, b, before[name]["unit"], change))
    return 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare OLD.json NEW.json")
        return compare(argv[1], argv[2])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
