"""One benchmark measurement; run.py starts it with the hash seed pinned.

Usage: worker.py --workload NAME --seed N --seconds S --trace 0|1
       worker.py --workload NAME --seed N --setup-only

Prints information lines, then as its last line one JSON object.  Set-up
is importing njk (with sympy) and reading the inputs and goldens; it is
timed under a ``SpeedGauge``.  With ``--setup-only`` the worker prints
just ``{"setup_s": ...}``.  An untraced run starts one such set-up probe
after every timed operation, so that its set-up samples meet the same
machine conditions as its operations, and reports the median of them and
its own.
"""

import argparse
import sys
import time

from gauge import SpeedGauge


def timed_setup(workload: str):
    """Import the measuring code (and so njk) and read the inputs."""
    gauge = SpeedGauge()
    start = time.perf_counter()
    with gauge:
        import measure

        inputs = measure.workloads.setup(workload)
    return measure, inputs, gauge.corrected(time.perf_counter() - start)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    measure, inputs, setup_s = timed_setup(args.workload)
    if args.setup_only:
        print(f'{{"setup_s": {setup_s!r}}}')
        return 0
    return measure.run(args.workload, args.seed, args.seconds, bool(args.trace), inputs, setup_s)


if __name__ == "__main__":
    sys.exit(main())
