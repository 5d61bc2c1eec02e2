"""Byte-for-byte oracle: the njk-report/1 machine report of every catalog
entry and of demo.njk at seed 0 must equal its committed golden in
bench/golden/ (read-only here; bench/make_goldens.py writes them)."""

from pathlib import Path

import pytest

from njk import catalog, cli, dsl
from njk.scalars import Config

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "bench" / "golden"
CONFIG = Config(seed=0)


def golden(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")


def test_catalog_has_thirteen_entries():
    assert len(catalog.BUILDERS) == 13


@pytest.mark.parametrize("name", sorted(catalog.BUILDERS))
def test_catalog_report_matches_golden(name):
    # what `njk catalog NAME --report machine` prints
    entry = catalog.build(name)
    task = cli.TaskResult(f"catalog {name}", entry.verify(CONFIG), entry.expected_fail)
    assert cli.render_machine(cli.RunReport(CONFIG, [task])) == golden(name)


def test_demo_report_matches_golden():
    # what `njk run demo.njk --report machine` prints
    path = ROOT / "demo.njk"
    doc = dsl.parse_document(path.read_text(encoding="utf-8"), str(path))
    assert cli.render_machine(cli.run_document(doc, CONFIG)) == golden("demo")
