import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import njk
from njk.catalog import build
from njk.cli import main, render_machine, run_document
from njk.dsl import DocumentError, entry_document, parse_document
from njk.scalars import Config, canonical
from njk.tensors import vvform_is_zero

MINIMAL = """
# a chart and a tensor
chart M : x y
vvform N on M degree 1 : (x|x) = y ; (y|y) = x
task torsion N
"""


def test_minimal_document_parses():
    doc = parse_document(MINIMAL)
    assert "M" in doc.charts
    assert doc.vvforms["N"][1].degree == 1
    assert doc.tasks[0].kind == "torsion"


def test_undeclared_chart_is_named():
    with pytest.raises(DocumentError, match="undeclared chart 'Q'"):
        parse_document("vvform N on Q degree 1 : (x|x) = 1")


def test_dimension_mismatch_at_declaration():
    bad = """
chart M : x y
chart N1 : a
map f : M -> N1 = x ; y
"""
    with pytest.raises(DocumentError, match="components"):
        parse_document(bad)


def test_syntax_error_carries_line():
    try:
        parse_document("chart M : x\nscalar f = x +* 2\n")
    except DocumentError as err:
        assert err.line == 2
    else:
        raise AssertionError("expected DocumentError")


def test_unknown_task_argument():
    with pytest.raises(DocumentError, match="undeclared vvform"):
        parse_document("chart M : x\ntask torsion missing\n")


@pytest.mark.parametrize("name", ["pair_groupoid", "tm_plus", "projection_groupoid", "flow_groupoid", "prelie", "double_tangent"])
def test_catalog_entry_roundtrip(name):
    entry = build(name)
    if entry.presentation is None:
        pytest.skip("no presentation")
    text = entry_document(entry)
    doc = parse_document(text)
    P = doc.groupoids[entry.presentation.name]
    Q = entry.presentation
    assert P.G.coords == Q.G.coords
    assert P.M.coords == Q.M.coords
    assert P.G2.coords == Q.G2.coords
    for attr in ("s", "t", "u", "i", "p1", "p2", "m", "unit_left", "unit_right",
                 "inv_left", "inv_right", "mi_pair"):
        f, g = getattr(P, attr), getattr(Q, attr)
        for a, b in zip(f.components, g.components):
            assert canonical(a - b) == 0, f"{name}.{attr}"
    _, rank, U = doc.bundlemaps["U"]
    assert rank == len(entry.bundle_map.matrix)
    for r1, r2 in zip(U.matrix, entry.bundle_map.matrix):
        for a, b in zip(r1, r2):
            assert canonical(a - b) == 0


def test_operator_entry_roundtrip():
    entry = build("diag_operator")
    doc = parse_document(entry_document(entry))
    _, N = doc.vvforms["N"]
    assert vvform_is_zero(N - entry.operator).verdict == "ProvedZero"


RUN_DOC = """
chart M : x y
vvform N on M degree 1 : (x|x) = 1 + x^2 ; (y|y) = y^3
algebroid TA on M rank 2 : rho(x|1) = 1 ; rho(y|2) = 1
bundlemap W : M rank 2 : (1|x) = 1 ; (2|y) = 1
task torsion N
task algebroid-check TA
task theorem1 TA W
"""


def test_run_document_verdicts():
    doc = parse_document(RUN_DOC)
    run = run_document(doc, Config(seed=5))
    assert run.met and run.exit_code == 0
    assert [r.label for r in run.results] == [
        "torsion N",
        "algebroid-check TA",
        "theorem1 TA W",
    ]


def test_run_document_records_failures_without_aborting():
    doc = parse_document(
        RUN_DOC + "\nvvform B on M degree 1 : (y|y) = x\ntask torsion B\ntask torsion N\n"
    )
    run = run_document(doc, Config(seed=5))
    assert not run.met and run.exit_code == 1
    labels = [r.label for r in run.results]
    assert labels[-1] == "torsion N" and run.results[-1].met


def test_machine_report_deterministic():
    doc = parse_document(RUN_DOC)
    a = render_machine(run_document(doc, Config(seed=9)))
    b = render_machine(run_document(doc, Config(seed=9)))
    assert a == b
    payload = json.loads(a)
    assert payload["schema"] == "njk-report/1"
    assert payload["overall"]["met"] is True


def test_machine_report_deterministic_with_sampling():
    entry = build("flow_groupoid")
    cfg = Config(seed=7, samples=25, tol=1e-9)
    from njk.cli import TaskResult, RunReport

    def render_once():
        report = entry.verify(cfg)
        tr = TaskResult("catalog flow_groupoid", report, entry.expected_fail)
        return render_machine(RunReport(cfg, [tr]))

    assert render_once() == render_once()


def test_cli_parse_and_run(tmp_path, capsys):
    f = tmp_path / "doc.njk"
    f.write_text(RUN_DOC)
    assert main(["parse", str(f)]) == 0
    out = capsys.readouterr().out
    assert "3 tasks" in out
    assert main(["run", str(f), "--seed", "3", "--report", "both"]) == 0
    out = capsys.readouterr().out
    assert "overall: MET" in out and '"schema": "njk-report/1"' in out


def test_cli_input_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.njk"
    f.write_text("vvform N on Q degree 1 : (x|x) = 1\n")
    assert main(["parse", str(f)]) == 2
    assert main(["run", str(f)]) == 2
    assert main(["run", str(tmp_path / "missing.njk")]) == 2


def test_cli_catalog_negative_control_meets_expectations(capsys):
    assert main(["catalog", "broken_nijenhuis", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "expected to fail" in out


def test_cli_catalog_unknown_name(capsys):
    assert main(["catalog", "no_such_entry"]) == 2


def test_cli_env_seed(tmp_path, monkeypatch, capsys):
    f = tmp_path / "doc.njk"
    f.write_text(RUN_DOC)
    monkeypatch.setenv("NJK_SEED", "17")
    assert main(["run", str(f), "--report", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["seed"] == 17


def test_mismatched_tensor_chart_is_task_failure():
    text = """
chart M : x y
chart G : a b
vvform T on G degree 1 : (a|a) = 1
algebroid TA on M rank 2 : rho(x|1) = 1 ; rho(y|2) = 1
bundlemap W : M rank 2 : (1|x) = 1 ; (2|y) = 1
task theorem1 TA W
"""
    doc = parse_document(text)
    run = run_document(doc, Config(seed=1))
    assert run.met
"""Tasks referencing compatible objects succeed; incompatible ones are
recorded as task-level errors, covered above."""


def test_cli_sample_mode_reproducible(capsys):
    args = ["catalog", "flow_groupoid", "--mode", "sample", "--seed", "7",
            "--samples", "25", "--tol", "1e-9", "--report", "machine"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    verdicts = {
        ident["verdict"]
        for task in payload["tasks"]
        for ident in task["identities"]
    }
    # structurally-zero tables stay exact; everything else is sampled
    assert "SampledZero" in verdicts
    assert verdicts <= {"SampledZero", "ProvedZero"}


@pytest.mark.parametrize(
    "args",
    [["catalog", "pair_groupoid"], ["run", str(Path(__file__).resolve().parents[1] / "demo.njk")]],
    ids=["catalog", "demo"],
)
def test_machine_report_identical_across_hash_seeds(args):
    src = str(Path(njk.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "njk.cli", *args, "--report", "machine"],
            env=env, capture_output=True, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]
