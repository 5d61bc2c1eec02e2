"""Tests of the benchmark itself: the tracer and the output oracle.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import gc
import json
import signal
import time

import pytest
from sympy.core.cache import clear_cache

import njk
import gauge
import tracer
import workloads
from njk import catalog, cli, groupoids, linalg, scalars, tensors
from njk.scalars import Config

CONFIG = Config(seed=0)


def _pair_groupoid_report() -> str:
    clear_cache()
    entry = catalog.build("pair_groupoid")
    run = workloads._catalog_run("catalog pair_groupoid", entry, CONFIG)
    return cli.render_machine(run)


def _traced_pair_groupoid() -> tuple[str, dict]:
    with tracer.Tracer() as tr:
        text = _pair_groupoid_report()
    return text, tracer.layer_metrics(tr.stats)


def test_tracer_rebinds_every_binding_and_restores_them():
    original = scalars.canonical
    holders = (scalars, linalg, tensors, groupoids, njk)
    with tracer.Tracer():
        for module in holders:
            assert module.canonical is not original
            assert module.canonical.__wrapped__ is original
        assert catalog.CatalogEntry.verify.__wrapped__ is not None
    for module in holders:
        assert module.canonical is original
    assert not hasattr(catalog.CatalogEntry.verify, "__wrapped__")


def test_traced_call_counts_repeat_exactly():
    _, first = _traced_pair_groupoid()
    _, second = _traced_pair_groupoid()
    units = tracer.metric_units()
    counts = [name for name, unit in units.items() if unit == "count"]
    assert first["scalars.canonical.calls"] > 0
    assert first["groupoids.algebroid_of.calls"] > 0
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_tracing_changes_no_report_byte():
    untraced = _pair_groupoid_report()
    traced, _ = _traced_pair_groupoid()
    assert traced == untraced
    assert untraced == (workloads.GOLDEN_DIR / "pair_groupoid.json").read_text(encoding="utf-8")


def test_self_times_partition_the_outermost_spans():
    with tracer.Tracer() as tr:
        _pair_groupoid_report()
    selfs = sum(st.self_s for st in tr.stats.values())
    rows = zip(tr.span_parent, tr.span_start, tr.span_end)
    roots = sum(end - start for parent, start, end in rows if parent == -1) * 1e-9
    assert roots > 0
    assert selfs == pytest.approx(roots, rel=1e-6)


def test_oracle_counts_a_changed_report():
    golden = {"pair_groupoid": _pair_groupoid_report()}
    clear_cache()
    run = workloads._catalog_run("catalog pair_groupoid", catalog.build("pair_groupoid"), CONFIG)
    outputs = [("pair_groupoid", run, cli.render_machine(run))]
    assert workloads.check(outputs, golden, byte_exact=True) == []
    doc = json.loads(golden["pair_groupoid"])
    doc["tasks"][0]["identities"][0]["verdict"] = "SampledZero"
    changed = {"pair_groupoid": json.dumps(doc, indent=2) + "\n"}
    assert workloads.check(outputs, changed, byte_exact=True)
    assert workloads.check(outputs, changed, byte_exact=False) == []


def test_tracer_sees_the_calls_the_workloads_make():
    with tracer.Tracer() as tr:
        outputs = workloads.dense_pipeline(2, CONFIG)
    assert all(run.met for _, run, _ in outputs)
    for name in ("graded.theorem1_check", "algebroids.check_lie_algebroid",
                 "tensors.nijenhuis_torsion", "tensors.pushforward"):
        assert tr.stats[name].calls == 1, name


def test_dense_ladder_is_a_dense_nijenhuis_operator():
    N = workloads.dense_ladder(2)
    m = N.matrix()
    assert all(m[i][j] != 0 for i in range(2) for j in range(i + 1))
    assert tensors.vvform_is_zero(tensors.nijenhuis_torsion(N), CONFIG).verdict == "ProvedZero"
    with pytest.raises(ValueError):
        workloads.dense_ladder(0)


def test_gauge_samples_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with gauge.SpeedGauge() as g:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.6:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert gc.isenabled()
    assert len(g.samples) >= 5  # start, end, and the timer's samples
    assert 0 < g.spent < 0.6
    assert g.corrected(0.6) == pytest.approx((0.6 - g.spent) / g.slowdown())
