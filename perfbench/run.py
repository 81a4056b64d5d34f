#!/usr/bin/env python3
"""Build and run the TyTra cost-model benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <dse_wide|cost_cold|serve_mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark crate (perfbench/Cargo.toml) and the `tybec` CLI in
release mode from source, then runs the chosen workload in a process of
its own. The last line of stdout is the benchmark's JSON result. Cargo
writes its build output to stderr. Honours CARGO_TARGET_DIR (default:
.bench_build at the repository root).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, package):
    """Release-build one package offline; return False on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, "-p", package]
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target

    root_manifest = os.path.join(ROOT, "Cargo.toml")
    bench_manifest = os.path.join(HERE, "Cargo.toml")
    if not (os.path.isfile(root_manifest) and os.path.isdir(os.path.join(ROOT, "crates"))):
        print("perfbench: the repository's crates are missing; nothing to build",
              file=sys.stderr)
        return 3
    if not build(root_manifest, "tytra-cli") or not build(bench_manifest, "tytra-perfbench"):
        print("perfbench: build failed", file=sys.stderr)
        return 4

    exe = os.path.join(target, "release", "tytra-perfbench")
    tybec = os.path.join(target, "release", "tybec")
    cmd = [exe] + sys.argv[1:] + ["--tybec", tybec]
    # The benchmark reads the repository's assets/ by relative path.
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
