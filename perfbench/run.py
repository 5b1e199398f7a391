#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload light_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root (or a checkout of it). The build goes to
$CARGO_TARGET_DIR (default `.bench_build`). Build output goes to standard
error; the benchmark's own output, whose last line is the JSON result,
goes to standard output. Every output is stamped with the source revision
(the git commit, or a hash of the sources when the tree is not a git
repository) and `rustc -V`.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# Sources whose content defines the program and the benchmark.
SOURCE_DIRS = ("crates", "vendor", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock")
# A measured run must end well within the three minutes a caller allows;
# recording digests (--regen-digests) takes longer and is not limited.
RUN_TIMEOUT_S = 170
WORKLOADS = ("light_grid", "spin_grid", "fleet_spans", "dag_social")


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def revision():
    try:
        rev = git("rev-parse", "HEAD")
        if rev:
            return rev + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = sorted(n for n in dirnames if n not in ("target", "out"))
            paths.extend(os.path.join(dirpath, f) for f in filenames)
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True, env=env)
    env["PERFBENCH_RUSTC"] = rustc.stdout.strip() or "unknown"
    env["PERFBENCH_REV"] = revision()
    binary = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    timeout = None if "--regen-digests" in args else RUN_TIMEOUT_S
    # `--workload all` runs the four workloads one after another.
    i = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[i : i + 1] == ["all"]:
        runs = [args[:i] + [w] + args[i + 1 :] for w in WORKLOADS]
    else:
        runs = [args]
    for run_args in runs:
        try:
            run = subprocess.run([binary] + run_args, cwd=ROOT, env=env, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 3
        if run.returncode != 0:
            return run.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
