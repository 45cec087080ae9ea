#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pbft-n1024|wan-partition|sweep \
        --seed N --seconds S --trace 0|1

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) with a
path dependency on the repository, built offline in release mode into
$CARGO_TARGET_DIR (default: perfbench/target). The last line of standard
output is the result object; see perfbench/README.md.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(HERE / "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = target / "release" / "perfbench"
    run = subprocess.run(
        [str(exe), *sys.argv[1:], "--scratch", str(target / "perfbench-scratch")]
    )
    return run.returncode if run.returncode > 0 else (1 if run.returncode else 0)


if __name__ == "__main__":
    sys.exit(main())
