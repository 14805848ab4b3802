#!/usr/bin/env python3
"""Build the artifact benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <boot_attack|runtime_attack|snoop_scan> \
        --seed <n> --seconds <s> --trace <0|1> [--out <dir>]

The build goes to $CARGO_TARGET_DIR (default `.bench_build` in the working
directory); checkpoints and span dumps go to `--out` (default `.bench_out`).
The last line of stdout is the result object; a failed build or run exits
non-zero without printing one.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    run = subprocess.run([exe] + sys.argv[1:], stdout=subprocess.PIPE, text=True, check=False)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print(f"perfbench: run failed ({run.returncode})", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
