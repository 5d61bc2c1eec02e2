"""Timed operation loops and the metrics computed from them.

Every operation starts from a cleared sympy cache after a garbage
collection, so each pays what a fresh command-line run pays, and runs
under a ``SpeedGauge``; reported times are gauge-corrected, and the raw
wall times are printed as information lines.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from sympy.core.cache import clear_cache

import tracer
import workloads
from gauge import SpeedGauge
from njk.scalars import Config

# The goldens were rendered at the CLI's default seed.
GOLDEN_SEED = 0
HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"


def machine_facts() -> dict:
    import mpmath
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "mpmath": mpmath.__version__,
        "ground_types": GROUND_TYPES,
        "nproc": len(os.sched_getaffinity(0)),
    }


class Loop:
    """Runs operations of one workload and records what each produced."""

    def __init__(self, workload: str, inputs: dict, config: Config):
        self.op = workloads.WORKLOADS[workload]
        self.inputs = inputs
        self.config = config
        self.byte_exact = config.seed == GOLDEN_SEED
        self.wall: list[float] = []
        self.times: list[float] = []  # gauge-corrected
        self.slowdowns: list[float] = []
        self.failed = 0
        self.items = 0
        self.proved = 0
        self.problems: list[str] = []

    def run_one(self) -> None:
        """One operation from a cold sympy cache."""
        clear_cache()
        gc.collect()
        gauge = SpeedGauge()
        start = time.perf_counter()
        try:
            with gauge:
                outputs = self.op(self.inputs, self.config)
        except Exception:
            outputs = None
            self.failed += 1
            self.problems.append(traceback.format_exc())
        wall = time.perf_counter() - start
        self.wall.append(wall)
        self.times.append(gauge.corrected(wall))
        self.slowdowns.append(gauge.slowdown())
        if outputs is None:
            return
        problems = workloads.check(outputs, self.inputs["golden"], self.byte_exact)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        verdicts = workloads.verdicts(outputs)
        self.items += len(verdicts)
        self.proved += sum(v.startswith("Proved") for v in verdicts)

    def run_for(self, seconds: float, between=None) -> None:
        """Closed loop: one operation after another until their wall times
        add up to ``seconds``; ``between`` runs after each, untimed."""
        while sum(self.wall) < seconds:
            self.run_one()
            if between is not None:
                between()


def setup_probe(workload: str, seed: int) -> float:
    """Gauge-corrected set-up seconds of a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=60,
    )
    return json.loads(probe.stdout.splitlines()[-1])["setup_s"]


def p90(times: list[float]) -> float:
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def end_to_end(loop: Loop, setups: list[float]) -> dict:
    times = loop.times
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_p90": (p90(times), "s"),
        "identities_per_s": (loop.items / sum(times), "1/s"),
        "pass_rate": ((len(times) - loop.failed) / len(times), "share"),
        "proved_share": (loop.proved / loop.items if loop.items else 0.0, "share"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(workload: str, seed: int, inputs: dict, config: Config, seconds: float) -> tuple:
    """Half the time untraced, half traced; per-layer values are medians
    over the traced operations, with times gauge-corrected.  The overhead
    is the ratio of the two halves' median operation times; the raw wall
    median of the untraced half shows what the gauge corrected."""
    untraced = Loop(workload, inputs, config)
    untraced.run_for(seconds / 2)
    traced = Loop(workload, inputs, config)
    per_op: list[dict] = []
    ops: list[tuple[int, int]] = []
    with tracer.Tracer() as tr:

        def snapshot():
            per_op.append(tracer.layer_metrics(tr.stats, traced.slowdowns[-1]))
            ops.append((ops[-1][1] if ops else 0, len(tr.span_start)))
            tr.reset()

        traced.run_for(seconds / 2, between=snapshot)
    metrics = {
        name: (statistics.median(op[name] for op in per_op), unit)
        for name, unit in tracer.metric_units().items()
    }
    base = statistics.median(untraced.times)
    slow = statistics.median(traced.times)
    metrics["trace.untraced_op_s_p50"] = (base, "s")
    metrics["trace.untraced_wall_op_s_p50"] = (statistics.median(untraced.wall), "s")
    metrics["trace.op_s_p50"] = (slow, "s")
    metrics["trace.overhead_ratio"] = (slow / base, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.tsv.gz"
    tr.write_spans(spans_path, {"workload": workload, "seed": seed, "ops": ops})
    print(f"# spans: {len(tr.span_start)} written to {spans_path.name}")
    return metrics, [untraced, traced]


def run(workload: str, seed: int, seconds: float, trace: bool,
        inputs: dict, setup_s: float) -> int:
    """Warm up, measure, print the result line; returns the exit code."""
    print("# machine: " + json.dumps(machine_facts(), sort_keys=True))
    print(
        "# controls: PYTHONHASHSEED=%s, sympy cache cleared and gc run before every "
        "operation, 1 untimed warm-up operation, closed loop with 1 caller, "
        "times corrected by a speed gauge" % os.environ.get("PYTHONHASHSEED", "unset")
    )
    config = Config(seed=seed)
    warm = Loop(workload, inputs, config)
    warm.run_one()
    if trace:
        metrics, loops = per_layer(workload, seed, inputs, config, seconds)
    else:
        setups = [setup_s]
        loop = Loop(workload, inputs, config)
        loop.run_for(seconds, between=lambda: setups.append(setup_probe(workload, seed)))
        print(f"# setup_s samples: {[round(s, 4) for s in setups]}")
        metrics, loops = end_to_end(loop, setups), [loop]
    attempted = sum(len(loop.times) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    problems = warm.problems + [p for loop in loops for p in loop.problems]
    for p in problems[:20]:
        print("# problem: " + p.rstrip().replace("\n", "\n#   "))
    for label, attr in (("wall", "wall"), ("corrected", "times")):
        values = [round(t, 4) for loop in loops for t in getattr(loop, attr)]
        print(f"# operations: {attempted}, {label} seconds each: {values}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1
