"""Per-layer tracing of the njk engine from outside its source.

The tracer wraps public functions of the njk modules.  A module that did
``from .scalars import canonical`` holds its own binding of ``canonical``,
so every binding of the original function in every loaded ``njk`` module
is rebound to the wrapper (and restored on exit); a method is wrapped on
its class.  Each call pushes a span; a span's self time is its duration
minus the time of the wrapped calls it caused.  Spans stay in memory
and can be written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class LayerStats:
    """Totals for one traced function since the tracer was installed."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def count(self, key: str, n: int | float) -> None:
        self.counters[key] = self.counters.get(key, 0) + n


# Reads counts off a traced call's arguments and returned value.
Extractor = Callable[[LayerStats, tuple, dict, object], None]


def _is_zero_counts(stats: LayerStats, args, kwargs, result) -> None:
    stats.count("sampled", result.mode == "sample")
    stats.count("points", result.n_points)
    stats.count("unknown", result.verdict == "Unknown")


def _eliminate_counts(stats: LayerStats, args, kwargs, result) -> None:
    matrix = args[0] if args else kwargs["matrix"]
    stats.count("cells", len(matrix) * (len(matrix[0]) if matrix else 0))
    stats.count("pivots", len(result.pivots))
    stats.count("nonconst_pivots", sum(not p.is_Rational for p in result.pivot_exprs))


# layer metric prefix -> (defining module, attribute path, extractor or
# None, the metrics reported for it)
CS = ("calls", "self_s")
TARGETS: dict[str, tuple[str, str, Extractor | None, tuple[str, ...]]] = {
    # -> op_s_p50 on every workload: dominates dense_theorem1, and is
    # per-call overhead on groupoid_ladder.  is_zero also -> proved_share.
    "scalars.canonical": ("njk.scalars", "canonical", None, CS + ("us_per_call",)),
    "scalars.is_zero": ("njk.scalars", "is_zero", _is_zero_counts,
                        CS + ("sampled", "points", "unknown")),
    # -> op_s_p50 on groupoid_ladder and catalog
    "linalg.eliminate": ("njk.linalg", "eliminate", _eliminate_counts,
                         CS + ("cells", "pivots", "nonconst_pivots")),
    "linalg.solve": ("njk.linalg", "solve", None, ("calls", "total_s")),
    # -> op_s_p50 on groupoid_ladder (lie_bracket) and dense_theorem1 (torsion)
    "tensors.lie_bracket": ("njk.tensors", "lie_bracket", None, CS),
    "tensors.fn_bracket": ("njk.tensors", "fn_bracket", None, CS),
    "tensors.nijenhuis_torsion": ("njk.tensors", "nijenhuis_torsion", None, CS),
    "tensors.pushforward": ("njk.tensors", "pushforward", None, CS),
    # -> op_s_p50 on dense_theorem1 only
    "graded.graded_fn_11": ("njk.graded", "graded_fn_11", None, CS),
    "graded.graded_lie_derivative": ("njk.graded", "graded_lie_derivative", None, CS),
    "graded.graded_commutator": ("njk.graded", "graded_commutator", None, CS),
    "graded.linear_lift": ("njk.graded", "linear_lift", None, CS),
    "graded.theorem1_check": ("njk.graded", "theorem1_check", None, CS),
    # -> op_s_p50 on catalog and groupoid_ladder; deriving groupoid data
    # once per presentation should cut these call counts
    "groupoids.check_axioms": ("njk.groupoids", "check_axioms", None, CS),
    "groupoids.algebroid_of": ("njk.groupoids", "algebroid_of", None, CS),
    "groupoids.right_lift": ("njk.groupoids", "right_lift", None, CS),
    "groupoids.left_lift": ("njk.groupoids", "left_lift", None, CS),
    "groupoids.delta_minus1": ("njk.groupoids", "delta_minus1", None, CS),
    "groupoids.delta_0": ("njk.groupoids", "delta_0", None, CS),
    "groupoids.multiplicative_check": ("njk.groupoids", "multiplicative_check", None, CS),
    "groupoids.theorem2_check": ("njk.groupoids", "theorem2_check", None, CS),
    "groupoids.lemma_check": ("njk.groupoids", "lemma_check", None, CS),
    # -> op_s_p50 on catalog
    "algebroids.check_lie_algebroid": ("njk.algebroids", "check_lie_algebroid", None, CS),
    "algebroids.bracket_sections": ("njk.algebroids", "bracket_sections", None, CS),
    "catalog.verify": ("njk.catalog", "CatalogEntry.verify", None, ("total_s",)),
    "dsl.parse_document": ("njk.dsl", "parse_document", None, ("total_s",)),
    "cli.render_machine": ("njk.cli", "render_machine", None, ("total_s",)),
}

UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "us_per_call": "us"}


def layer_metrics(stats: dict[str, LayerStats], slowdown: float = 1.0) -> dict[str, float]:
    """The reported per-layer metrics of one traced operation; times are
    divided by the machine's ``slowdown`` during it."""
    out = {}
    for name, (_, _, _, fields) in TARGETS.items():
        st = stats[name]
        for f in fields:
            if f == "us_per_call":
                value = st.self_s / st.calls * 1e6 / slowdown if st.calls else 0.0
            elif f in ("self_s", "total_s"):
                value = getattr(st, f) / slowdown
            elif f == "calls":
                value = st.calls
            else:
                value = st.counters.get(f, 0)
            out[f"{name}.{f}"] = value
    return out


def metric_units() -> dict[str, str]:
    """Unit of every metric ``layer_metrics`` reports."""
    return {
        f"{name}.{f}": UNITS.get(f, "count")
        for name, (_, _, _, fields) in TARGETS.items()
        for f in fields
    }


class Tracer:
    """Context manager that wraps every target while it is active.

    ``stats`` accumulates per target.  The span arrays hold one row per
    call: target index, parent span index (-1 at the top), and start and
    end in nanoseconds since the tracer was created.
    """

    def __init__(self):
        self.names = list(TARGETS)
        self.stats = {name: LayerStats() for name in self.names}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._origin = time.perf_counter_ns()
        self._stack: list[list] = []  # [span index, child nanoseconds]
        self._rebound: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Zero the totals; spans are kept."""
        self.stats = {name: LayerStats() for name in self.names}

    def _wrap(self, index: int, fn: Callable, extractor: Extractor | None) -> Callable:
        name = self.names[index]
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        origin = self._origin
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = len(span_start)
            span_name.append(index)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [span, 0]
            stack.append(frame)
            start = clock()
            span_start.append(start - origin)
            span_end.append(-1)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                span_end[span] = end - origin
                if stack:
                    stack[-1][1] += elapsed
                st = self.stats[name]
                st.calls += 1
                st.total_s += elapsed * 1e-9
                st.self_s += (elapsed - frame[1]) * 1e-9
            if extractor is not None:
                extractor(self.stats[name], args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, Callable] = {}
        for index, name in enumerate(self.names):
            module_name, attr_path, extractor, _ = TARGETS[name]
            owner = importlib.import_module(module_name)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original, extractor)
            wrappers[id(original)] = wrapper
            if outer:  # a method: its only binding is on the class
                self._rebind(owner, attr, original, wrapper)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "njk" or module_name.startswith("njk.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._rebind(module, attr, value, wrapper)
        return self

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._rebound.append((owner, attr, original))

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()

    def write_spans(self, path, meta: dict) -> None:
        """Write the spans as gzip-compressed tab-separated text: a JSON
        header line, then ``name parent start_ns end_ns`` per span."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write(json.dumps({**meta, "names": self.names}) + "\n")
            rows = zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            out.writelines(f"{n}\t{p}\t{s}\t{e}\n" for n, p, s, e in rows)
