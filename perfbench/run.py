#!/usr/bin/env python3
"""Build and run the serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload browse-mem --seed 1 --seconds 20 --trace 0

The benchmark is its own Go module (perfbench/go.mod) that imports the
repository's packages through a replace directive, so this script builds it
from source with every Go cache, temp file and config write kept under
.bench_build/ in the checkout, then runs it with the given arguments. The
binary's last stdout line is the result JSON. A failed build exits non-zero
without printing a result.
"""
import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def source_digest(root):
    """sha256 over the repository's Go sources, standing in for a commit id."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOWORK": "off",
    })
    for d in ("GOCACHE", "GOTMPDIR", "GOPATH", "XDG_CONFIG_HOME"):
        os.makedirs(env[d], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        b = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if b.returncode != 0:
        print("perfbench: build failed (exit %d)" % b.returncode, file=sys.stderr)
        return 1
    args = [binary, "--workdir", build, "--source", source_digest(root)] + sys.argv[1:]
    try:
        return subprocess.run(args, cwd=root, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
