"""The benchmark's workloads and their output oracle.

Each workload is one operation run in a closed loop (one caller; an
operation starts when the previous one returns).  An operation builds its
inputs the way a user's run does and returns the ``njk-report/1`` machine
reports it produced, keyed by the name of their golden file in
``golden/``.  Only the public API of ``njk`` is used.

- ``catalog``: every ``catalog.BUILDERS`` entry verified, then
  ``demo.njk`` parsed, run and rendered; what users run.  Many cheap
  canonical-form calls, every groupoid routine at small size, and the
  sampler (``flow_groupoid``).
- ``dense_theorem1``: the scaling-ladder pipeline at n = 3 (torsion,
  deformed algebroid axioms, theorem 1 with U = identity).  Few but
  expensive canonical-form calls; linear algebra and groupoids idle.
- ``groupoid_ladder``: ``double_tangent(3)``, the largest shipped
  groupoid.  About 200k cheap canonical-form calls, so per-call overhead
  dominates; most Lie brackets, eliminations and translator solves.
"""

from __future__ import annotations

from pathlib import Path

# Functions the tracer wraps are called through their modules: the tracer
# rebinds module attributes, and a name imported here would keep the
# unwrapped function.
from njk import algebroids, catalog, cli, dsl, graded, tensors
from njk.reports import CheckReport
from njk.scalars import Config
from njk.tensors import Chart, SmoothMap, VVForm

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
# A copy of the repository's demo.njk, so the demo goldens stay paired with
# the exact document they were made from.
DEMO_PATH = HERE / "inputs" / "demo.njk"

DENSE_N = 3
LADDER_B = 3


def dense_ladder(n: int) -> VVForm:
    """The dense scaling-ladder operator on n coordinates.

    diag(1 + x_i^2) pushed forward along the triangular diffeomorphism
    y_i = x_i + x_{i-1}^2; its inverse is given explicitly, and
    ``pushforward`` raises ``InverseCheckError`` unless both compositions
    are the identity.  The result is a Nijenhuis operator whose matrix is
    lower triangular with every entry on and below the diagonal a nonzero
    polynomial of growing degree.
    """
    if n < 1:
        raise ValueError(f"dense ladder needs n >= 1, got {n}")
    X = Chart.make("X", [f"x{i + 1}" for i in range(n)])
    Y = Chart.make("Y", [f"y{i + 1}" for i in range(n)])
    x, y = X.coords, Y.coords
    forward = [x[0]] + [x[i] + x[i - 1] ** 2 for i in range(1, n)]
    inverse = [y[0]]
    for i in range(1, n):
        inverse.append(y[i] - inverse[i - 1] ** 2)
    phi = SmoothMap("phi", X, Y, forward)
    phi_inv = SmoothMap("phi_inv", Y, X, inverse)
    diag = VVForm(X, 1, {((i,), i): 1 + x[i] ** 2 for i in range(n)})
    return tensors.pushforward(phi, diag, phi_inv)


def _catalog_run(label: str, entry: catalog.CatalogEntry, config: Config) -> cli.RunReport:
    """What ``njk catalog NAME`` computes for one entry."""
    report = entry.verify(config)
    return cli.RunReport(config, [cli.TaskResult(label, report, entry.expected_fail)])


def _rendered(name: str, run: cli.RunReport) -> tuple[str, cli.RunReport, str]:
    return name, run, cli.render_machine(run)


def catalog_op(inputs: dict, config: Config) -> list:
    out = []
    for name in sorted(catalog.BUILDERS):
        entry = catalog.build(name)
        out.append(_rendered(name, _catalog_run(f"catalog {name}", entry, config)))
    doc = dsl.parse_document(inputs["demo"], "demo.njk")
    out.append(_rendered("demo", cli.run_document(doc, config)))
    return out


def dense_pipeline(n: int, config: Config) -> list:
    """Torsion, deformed algebroid axioms and theorem 1 with U = identity
    on ``dense_ladder(n)``."""
    N = dense_ladder(n)
    torsion = CheckReport("torsion of N")
    torsion.add("torsion[T_N = 0]", tensors.vvform_is_zero(tensors.nijenhuis_torsion(N), config))
    A = algebroids.deformed_structure(N, f"(TX)_N{n}")
    U = algebroids.BundleMapU.identity(n)
    results = [
        cli.TaskResult("torsion N", torsion),
        cli.TaskResult("algebroid-check (TX)_N", algebroids.check_lie_algebroid(A, config)),
        cli.TaskResult("theorem1 (TX)_N identity", graded.theorem1_check(A, U, config)),
    ]
    return [_rendered(f"dense_theorem1_n{n}", cli.RunReport(config, results))]


def dense_theorem1_op(inputs: dict, config: Config) -> list:
    return dense_pipeline(DENSE_N, config)


def groupoid_ladder_op(inputs: dict, config: Config) -> list:
    entry = catalog.double_tangent(LADDER_B)
    label = f"catalog double_tangent({LADDER_B})"
    return [_rendered(f"double_tangent_b{LADDER_B}", _catalog_run(label, entry, config))]


WORKLOADS = {
    "catalog": catalog_op,
    "dense_theorem1": dense_theorem1_op,
    "groupoid_ladder": groupoid_ladder_op,
}


GOLDENS = {
    "catalog": sorted(catalog.BUILDERS) + ["demo"],
    "dense_theorem1": [f"dense_theorem1_n{DENSE_N}"],
    "groupoid_ladder": [f"double_tangent_b{LADDER_B}"],
}


def setup(workload: str) -> dict:
    """Read the inputs and the goldens of a workload."""
    inputs = {"demo": DEMO_PATH.read_text(encoding="utf-8")}
    inputs["golden"] = {
        name: (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
        for name in GOLDENS[workload]
    }
    return inputs


def check(outputs: list, golden: dict, byte_exact: bool) -> list[str]:
    """Problems with one operation's outputs; empty when all is well.

    Every report must meet its expectations.  At the goldens' seed the
    machine report must equal the golden byte for byte; at other seeds the
    sampler draws other points, so only ``met`` is checked.
    """
    problems = []
    if [name for name, _, _ in outputs] != list(golden):
        problems.append(f"reports {[n for n, _, _ in outputs]} != goldens {list(golden)}")
    for name, run, text in outputs:
        if not run.met:
            problems.append(f"{name}: expectations not met")
        if byte_exact and text != golden.get(name):
            problems.append(f"{name}: machine report differs from golden")
    return problems


def verdicts(outputs: list) -> list[str]:
    """Every identity verdict the operation produced."""
    return [
        item.result.verdict
        for _, run, _ in outputs
        for task in run.results
        for item in task.report.items
    ]
