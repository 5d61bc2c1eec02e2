"""Benchmark of the njk verification engine.

    python3 bench/run.py --workload catalog|dense_theorem1|groupoid_ladder \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; njk is imported from its ``src``.  This
script replaces itself by ``worker.py`` in an interpreter with
``PYTHONHASHSEED`` pinned, because the hash seed alone moves operation
times by about 20%.  Operation and set-up times are corrected for the
machine's speed by a gauge (see ``gauge.py``).  The last line of output
is a JSON object with the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``).  The exit code is 0 only when every operation met its
expectations and, at seed 0, reproduced its golden ``njk-report/1``
bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The keys of workloads.WORKLOADS; this script imports no njk code, so the
# hash seed is pinned before anything is hashed.
WORKLOADS = ("catalog", "dense_theorem1", "groupoid_ladder")
HASH_SEED = "0"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be between 1 and 120")
    src = ROOT / "src"
    if not (src / "njk" / "__init__.py").is_file():
        print(f"error: no njk sources under {src}", file=sys.stderr)
        return 2
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    os.execve(sys.executable, worker, env)


if __name__ == "__main__":
    sys.exit(main())
