"""Regenerate the golden njk-report/1 files in golden/.

    PYTHONPATH=src python3 bench/make_goldens.py

Each golden is the machine report of one workload output at seed 0.  The
catalog and demo goldens are also required to equal what the command line
(``njk catalog NAME --report machine`` and ``njk run demo.njk --report
machine``) prints, so the oracle is the output users see.  Regenerate only
when a report change is intended, and say why in the change log.
"""

import os
import subprocess
import sys

import workloads
from njk.scalars import Config


def cli_output(*args: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("NJK_SEED", None)
    return subprocess.run(
        [sys.executable, "-m", "njk.cli", *args, "--report", "machine"],
        env=env, stdout=subprocess.PIPE, text=True, check=False,
    ).stdout


def main() -> int:
    config = Config(seed=0)
    inputs = {"demo": workloads.DEMO_PATH.read_text(encoding="utf-8")}
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload, op in workloads.WORKLOADS.items():
        for name, _, text in op(inputs, config):
            if workload == "catalog":
                if name == "demo":
                    want = cli_output("run", str(workloads.DEMO_PATH))
                else:
                    want = cli_output("catalog", name)
                if text != want:
                    print(f"error: {name}: report differs from the command line's", file=sys.stderr)
                    return 1
            (workloads.GOLDEN_DIR / f"{name}.json").write_text(text, encoding="utf-8")
            print(f"wrote golden/{name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
