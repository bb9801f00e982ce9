"""Capture the benchmark's goldens from the current program.

    python3 bench/capture.py

Runs every op of every workload once, at REFERENCE_SEED, and writes
bench/golden.json: a SHA-256 digest of each exact op's output, and the
parsed JSON output of every other op. Re-capture only in a change that
means to alter outputs (such as a declared change of random streams), and
say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

import checks
import workloads
from run import Bench

REFERENCE_SEED = 0
DIGEST_CHECKS = ("exact", "seq")


def main():
    ops = {}
    for name in sorted(workloads.WORKLOADS):
        bench = Bench(name, REFERENCE_SEED, 0, None)
        for op, argv in bench.schedule:
            code, _, _, data = bench.execute(op, argv)
            if isinstance(data, str) or code != op.exit_code:
                print(f"error: {op.name} exited {code} (expected {op.exit_code}): {data!r:.200}",
                      file=sys.stderr)
                return 1
            if op.check in DIGEST_CHECKS:
                ops[op.name] = {"sha256": checks.digest(data), "bytes": len(data)}
            else:
                ops[op.name] = {"doc": json.loads(data)}
            print(f"captured {op.name}")
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"reference_seed": REFERENCE_SEED, "ops": ops}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
