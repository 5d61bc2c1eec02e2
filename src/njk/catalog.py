"""Prebuilt presentations and operators realizing the worked examples,
each bundled with expected closed forms for regression.

Every entry is verified through the generic pipeline (axioms, theorem
checks, closed-form regressions); no entry gets computation shortcuts.
Negative controls declare which identities are expected to fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product
from typing import Callable

import sympy as sp

from .algebroids import (
    AlgebroidData,
    BundleMapU,
    a_torsion,
    check_lie_algebroid,
    deformed_structure,
)
from .graded import theorem1_check
from .groupoids import (
    GroupoidPresentation,
    check_axioms,
    cochain_is_zero,
    delta_0,
    lemma_check,
    multiplicative_check,
    theorem2_check,
)
from .reports import CheckReport
from .scalars import (
    Config,
    DEFAULT_CONFIG,
    Scalar,
    VerificationResult,
    ZERO,
    canonical,
    combine_results,
    diff,
    is_zero,
    parse,
    register_builtin,
    var,
)
from .tensors import (
    Chart,
    SmoothMap,
    VVForm,
    nijenhuis_torsion,
    pushforward,
    vvform_is_zero,
)


@dataclass
class CatalogEntry:
    """A named example with its expected closed-form results.

    expected maps regression names to objects with provenance recorded in
    the builder; expected_fail lists report items a negative control is
    supposed to fail."""

    name: str
    description: str
    presentation: GroupoidPresentation | None = None
    bundle_map: BundleMapU | None = None
    operator: VVForm | None = None
    operator_U: BundleMapU | None = None  # U for the graded checks of the operator
    algebroid: AlgebroidData | None = None
    expected: dict = field(default_factory=dict)
    expected_fail: frozenset = frozenset()
    with_lemma: bool = False
    config_hint: dict = field(default_factory=dict)
    extra_checks: list = field(default_factory=list)

    def tuned(self, config: Config) -> Config:
        if not self.config_hint:
            return config
        merged = {**config.__dict__, **self.config_hint}
        return Config(**merged)

    def verify(self, config: Config = DEFAULT_CONFIG) -> CheckReport:
        config = self.tuned(config)
        report = CheckReport(f"catalog entry {self.name}")
        if self.operator is not None:
            _verify_operator(self, report, config)
        if self.presentation is not None:
            _verify_presentation(self, report, config)
        for name, check in self.extra_checks:
            report.add(name, check(config))
        return report

    def meets_expectations(self, report: CheckReport) -> bool:
        for item in report.items:
            want_fail = item.name in self.expected_fail
            if item.result.holds == want_fail:
                return False
        return True


def _verify_operator(entry: CatalogEntry, report: CheckReport, config: Config) -> None:
    N = entry.operator
    report.add("torsion[T_N = 0]", vvform_is_zero(nijenhuis_torsion(N), config))
    A = deformed_structure(N, f"(TM)_{entry.name}")
    report.add("deformed_axioms", check_lie_algebroid(A, config).combined)
    if entry.operator_U is not None:
        t1 = theorem1_check(A, entry.operator_U, config)
        report.add("theorem1_form1", t1.get("theorem1_form1"))
        report.add("theorem1_form2", t1.get("theorem1_form2"))
        report.add("theorem1_lift_identity", t1.get("lift_identity"))


def _verify_presentation(entry: CatalogEntry, report: CheckReport, config: Config) -> None:
    P = entry.presentation
    U = entry.bundle_map
    report.add("axioms", check_axioms(P, config).combined)
    t2 = theorem2_check(P, U, config)
    report.extend(t2.report, "theorem2.")
    for key, attr in (
        ("right_lift", t2.right),
        ("left_lift", t2.left),
        ("delta_U", t2.delta),
    ):
        want = entry.expected.get(key)
        if want is not None and attr is not None:
            report.add(f"regression[{key}]", vvform_is_zero(attr - want, config))
    wantN = entry.expected.get("N")
    if wantN is not None and t2.N is not None:
        report.add("regression[N]", vvform_is_zero(t2.N - wantN, config))
    if t2.delta is not None:
        cochain, wf = delta_0(P, t2.delta, config)
        report.extend(wf, "delta0.")
        report.add("delta_squared[delta0(delta(U)) = 0]", cochain_is_zero(cochain, config))
        report.add(
            "multiplicative[delta U]", multiplicative_check(P, t2.delta, config).combined
        )
    report.add(
        "multiplicative[identity]",
        multiplicative_check(P, VVForm.identity(P.G), config).combined,
    )
    if entry.with_lemma:
        report.extend(lemma_check(P, U, config), "lemma.")


# ---------------------------------------------------------------------------
# builders


def _vec(*parts) -> list:
    """The concatenation of coordinate lists, as one list."""
    return list(chain.from_iterable(parts))


def _vv(chart: Chart, table: dict) -> VVForm:
    return VVForm(chart, 1, table)


def tm_plus(n: int = 2) -> CatalogEntry:
    """The bundle of abelian groups TM over an n-dimensional base: fiberwise
    addition, s = t = projection; integrates the trivial structure."""
    M = Chart.make("M", [f"x{i+1}" for i in range(n)])
    G = Chart.make("TM", [f"y{i+1}" for i in range(n)] + [f"v{i+1}" for i in range(n)])
    G2 = Chart.make("TM2", [f"z{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)] + [f"q{i+1}" for i in range(n)])
    G3 = Chart.make(
        "TM3",
        [f"w{i+1}" for i in range(n)] + [f"r{i+1}" for i in range(n)]
        + [f"s{i+1}" for i in range(n)] + [f"t{i+1}" for i in range(n)],
    )
    y = G.coords[:n]
    v = G.coords[n:]
    z, p, q = G2.coords[:n], G2.coords[n : 2 * n], G2.coords[2 * n :]
    w, r1, r2, r3 = (G3.coords[i * n : (i + 1) * n] for i in range(4))
    zero = [ZERO] * n
    P = GroupoidPresentation(
        name="tm_plus",
        G=G,
        M=M,
        s=SmoothMap("s", G, M, y),
        t=SmoothMap("t", G, M, y),
        u=SmoothMap("u", M, G, list(M.coords) + zero),
        i=SmoothMap("i", G, G, list(y) + [-c for c in v]),
        G2=G2,
        p1=SmoothMap("p1", G2, G, list(z) + list(p)),
        p2=SmoothMap("p2", G2, G, list(z) + list(q)),
        m=SmoothMap("m", G2, G, list(z) + [a + b for a, b in zip(p, q)]),
        unit_left=SmoothMap("ul", G, G2, list(y) + zero + list(v)),
        unit_right=SmoothMap("ur", G, G2, list(y) + list(v) + zero),
        inv_left=SmoothMap("il", G, G2, list(y) + [-c for c in v] + list(v)),
        inv_right=SmoothMap("ir", G, G2, list(y) + list(v) + [-c for c in v]),
        mi_pair=SmoothMap("mi", G2, G2, list(z) + [a + b for a, b in zip(p, q)] + [-c for c in q]),
        G3=G3,
        q12=SmoothMap("q12", G3, G2, list(w) + [a + b for a, b in zip(r1, r2)] + list(r3)),
        q23=SmoothMap("q23", G3, G2, list(w) + list(r1) + [a + b for a, b in zip(r2, r3)]),
    )
    one = sp.Integer(1)
    V = _vv(G, {((i,), n + i): one for i in range(n)})
    return CatalogEntry(
        name="tm_plus",
        description=f"(TM)_+ over a {n}-dimensional base; delta U = 0",
        presentation=P,
        bundle_map=BundleMapU.identity(n),
        expected={
            "right_lift": V,
            "left_lift": V * sp.Integer(-1),
            "delta_U": VVForm.zero(G, 1),
            "N": VVForm.zero(M, 1),
        },
    )


def pair_groupoid(n: int = 2) -> CatalogEntry:
    """The pair groupoid M x M over an n-dimensional base; delta of the
    identity bundle map is the identity tensor."""
    M = Chart.make("M", [f"x{i+1}" for i in range(n)])
    G = Chart.make("MxM", [f"a{i+1}" for i in range(n)] + [f"b{i+1}" for i in range(n)])
    G2 = Chart.make("Pairs2", [f"pa{i+1}" for i in range(n)] + [f"pb{i+1}" for i in range(n)] + [f"pc{i+1}" for i in range(n)])
    G3 = Chart.make(
        "Pairs3",
        [f"qa{i+1}" for i in range(n)] + [f"qb{i+1}" for i in range(n)]
        + [f"qc{i+1}" for i in range(n)] + [f"qd{i+1}" for i in range(n)],
    )
    a, b = G.coords[:n], G.coords[n:]
    pa, pb, pc = G2.coords[:n], G2.coords[n : 2 * n], G2.coords[2 * n :]
    qa, qb, qc, qd = (G3.coords[i * n : (i + 1) * n] for i in range(4))
    P = GroupoidPresentation(
        name="pair_groupoid",
        G=G,
        M=M,
        s=SmoothMap("s", G, M, b),
        t=SmoothMap("t", G, M, a),
        u=SmoothMap("u", M, G, list(M.coords) + list(M.coords)),
        i=SmoothMap("i", G, G, list(b) + list(a)),
        G2=G2,
        p1=SmoothMap("p1", G2, G, list(pa) + list(pb)),
        p2=SmoothMap("p2", G2, G, list(pb) + list(pc)),
        m=SmoothMap("m", G2, G, list(pa) + list(pc)),
        unit_left=SmoothMap("ul", G, G2, list(a) + list(a) + list(b)),
        unit_right=SmoothMap("ur", G, G2, list(a) + list(b) + list(b)),
        inv_left=SmoothMap("il", G, G2, list(b) + list(a) + list(b)),
        inv_right=SmoothMap("ir", G, G2, list(a) + list(b) + list(a)),
        mi_pair=SmoothMap("mi", G2, G2, list(pa) + list(pc) + list(pb)),
        G3=G3,
        q12=SmoothMap("q12", G3, G2, list(qa) + list(qc) + list(qd)),
        q23=SmoothMap("q23", G3, G2, list(qa) + list(qb) + list(qd)),
    )
    one = sp.Integer(1)
    first = _vv(G, {((i,), i): one for i in range(n)})
    second = _vv(G, {((n + i,), n + i): one for i in range(n)})
    return CatalogEntry(
        name="pair_groupoid",
        description=f"pair groupoid over a {n}-dimensional base; delta(I_M) = I_G",
        presentation=P,
        bundle_map=BundleMapU.identity(n),
        expected={
            "right_lift": first,
            "left_lift": second,
            "delta_U": VVForm.identity(G),
            "N": VVForm.identity(M),
        },
        with_lemma=True,
    )


def flow_groupoid(F_text: str = "th", phi_text: str | None = None,
                  name: str = "flow_groupoid") -> CatalogEntry:
    """The restriction-to-a-chart presentation of the flow groupoid of the
    vector field F d/dtheta on a 1-dimensional base.

    phi is the supplied flow, as an expression in (ep, th); its exactness
    class decides whether the checks run exactly or sampled.  The flow
    equation d(phi)/d(ep) = F o phi and the initial condition phi(0) = th
    are validated on construction.
    """
    register_builtin("exp")
    M = Chart.make("M", ["th"])
    th = M.coords[0]
    G = Chart.make("DX", ["ep", "gth"])
    ep, gth = G.coords
    F = parse(F_text)
    if phi_text is None:
        phi_text = "gth + ep" if F == 1 else None
    if phi_text is None:
        raise ValueError("a flow expression must be supplied for nonconstant F")
    phi_g = parse(phi_text)  # in (ep, gth)

    def phi(e: Scalar, x: Scalar) -> Scalar:
        return canonical(phi_g.xreplace({ep: sp.sympify(e), gth: sp.sympify(x)}))

    flow_eq = diff(phi_g, ep) - F.xreplace({th: phi_g})
    res = is_zero(flow_eq, Config(samples=25, tol=1e-9, seed=1))
    if res.decided and not res.holds:
        raise ValueError(f"flow equation fails: {res}")
    initial = phi(ZERO, th) - th
    res = is_zero(initial, Config(samples=25, tol=1e-9, seed=2))
    if res.decided and not res.holds:
        raise ValueError(f"flow initial condition fails: {res}")

    G2 = Chart.make("DX2", ["bep", "cep", "cth"])
    bep, cep, cth = G2.coords
    G3 = Chart.make("DX3", ["dep1", "dep2", "dep3", "dth"])
    d1, d2, d3, dth = G3.coords
    P = GroupoidPresentation(
        name=name,
        G=G,
        M=M,
        s=SmoothMap("s", G, M, [gth]),
        t=SmoothMap("t", G, M, [phi_g]),
        u=SmoothMap("u", M, G, [ZERO, th]),
        i=SmoothMap("i", G, G, [-ep, phi_g]),
        G2=G2,
        p1=SmoothMap("p1", G2, G, [bep, phi(cep, cth)]),
        p2=SmoothMap("p2", G2, G, [cep, cth]),
        m=SmoothMap("m", G2, G, [bep + cep, cth]),
        unit_left=SmoothMap("ul", G, G2, [ZERO, ep, gth]),
        unit_right=SmoothMap("ur", G, G2, [ep, ZERO, gth]),
        inv_left=SmoothMap("il", G, G2, [-ep, ep, gth]),
        inv_right=SmoothMap("ir", G, G2, [ep, -ep, phi_g]),
        mi_pair=SmoothMap("mi", G2, G2, [bep + cep, -cep, phi(cep, cth)]),
        G3=G3,
        q12=SmoothMap("q12", G3, G2, [d1 + d2, d3, dth]),
        q23=SmoothMap("q23", G3, G2, [d1, d2 + d3, dth]),
    )
    F_on_G = F.xreplace({th: gth})
    F_of_phi = F.xreplace({th: phi_g})
    dphi_dth = diff(phi_g, gth)
    right = _vv(G, {((0,), 0): F_of_phi, ((1,), 0): dphi_dth})
    left = _vv(G, {((1,), 0): sp.Integer(-1), ((1,), 1): F_on_G})
    delta = _vv(G, {((0,), 0): F_of_phi, ((1,), 0): dphi_dth - 1, ((1,), 1): F_on_G})
    return CatalogEntry(
        name=name,
        description=f"flow groupoid of F = {F_text} with flow {phi_text}",
        presentation=P,
        bundle_map=BundleMapU.identity(1),
        expected={
            "right_lift": right,
            "left_lift": left,
            "delta_U": delta,
            "N": _vv(M, {((0,), 0): F}),
        },
        config_hint={"samples": 25, "tol": 1e-9},
    )


def double_tangent(b: int = 1) -> CatalogEntry:
    """The groupoid structure on TTB over TB integrating the vertical
    endomorphism: s = tau - tau', t = tau + tau', fiberwise subtraction
    and shifted addition as multiplication."""
    M = Chart.make("TB", [f"z{i+1}" for i in range(b)] + [f"u{i+1}" for i in range(b)])
    G = Chart.make(
        "TTB",
        [f"gz{i+1}" for i in range(b)] + [f"gu{i+1}" for i in range(b)]
        + [f"gp{i+1}" for i in range(b)] + [f"gq{i+1}" for i in range(b)],
    )
    G2 = Chart.make("TTB2", [f"h{nm}{i+1}" for nm in "zabcde" for i in range(b)])
    G3 = Chart.make("TTB3", [f"k{nm}{i+1}" for nm in "zabcdefg" for i in range(b)])
    z, u = M.coords[:b], M.coords[b:]
    gz, gu, gp, gq = (G.coords[i * b : (i + 1) * b] for i in range(4))
    hz, ha, hb, hc, hd, he = (G2.coords[i * b : (i + 1) * b] for i in range(6))
    kz, ka, kb, kc, kd, ke, kf, kg = (G3.coords[i * b : (i + 1) * b] for i in range(8))
    zero = [ZERO] * b

    P = GroupoidPresentation(
        name="double_tangent",
        G=G,
        M=M,
        s=SmoothMap("s", G, M, _vec(gz, [a - c for a, c in zip(gu, gp)])),
        t=SmoothMap("t", G, M, _vec(gz, [a + c for a, c in zip(gu, gp)])),
        u=SmoothMap("u", M, G, _vec(z, u, zero, zero)),
        i=SmoothMap("i", G, G, _vec(gz, gu, [-c for c in gp], [-c for c in gq])),
        G2=G2,
        p1=SmoothMap("p1", G2, G, _vec(hz, ha, hb, hc)),
        p2=SmoothMap(
            "p2", G2, G, _vec(hz, [a - x - y for a, x, y in zip(ha, hb, hd)], hd, he)
        ),
        m=SmoothMap(
            "m",
            G2,
            G,
            _vec(
                hz,
                [a - d for a, d in zip(ha, hd)],
                [x + d for x, d in zip(hb, hd)],
                [c + e for c, e in zip(hc, he)],
            ),
        ),
        unit_left=SmoothMap(
            "ul", G, G2, _vec(gz, [a + c for a, c in zip(gu, gp)], zero, zero, gp, gq)
        ),
        unit_right=SmoothMap("ur", G, G2, _vec(gz, gu, gp, gq, zero, zero)),
        inv_left=SmoothMap(
            "il", G, G2, _vec(gz, gu, [-c for c in gp], [-c for c in gq], gp, gq)
        ),
        inv_right=SmoothMap(
            "ir", G, G2, _vec(gz, gu, gp, gq, [-c for c in gp], [-c for c in gq])
        ),
        mi_pair=SmoothMap(
            "mi",
            G2,
            G2,
            _vec(
                hz,
                [a - d for a, d in zip(ha, hd)],
                [x + d for x, d in zip(hb, hd)],
                [c + e for c, e in zip(hc, he)],
                [-d for d in hd],
                [-e for e in he],
            ),
        ),
        G3=G3,
        q12=SmoothMap(
            "q12",
            G3,
            G2,
            _vec(
                kz,
                [a - d for a, d in zip(ka, kd)],
                [x + d for x, d in zip(kb, kd)],
                [c + e for c, e in zip(kc, ke)],
                kf,
                kg,
            ),
        ),
        q23=SmoothMap(
            "q23",
            G3,
            G2,
            _vec(kz, ka, kb, kc, [d + f for d, f in zip(kd, kf)], [e + g for e, g in zip(ke, kg)]),
        ),
    )
    half = sp.Rational(1, 2)
    one = sp.Integer(1)
    # U = (V (+) I)/2 in the kernel frame (d/du + d/dp, d/dq)
    Umat = [[ZERO] * (2 * b) for _ in range(2 * b)]
    for i in range(b):
        Umat[i][i] = half  # e-row, z-column
        Umat[b + i][b + i] = half  # f-row, u-column
    right = VVForm(
        G,
        1,
        {
            **{((i,), b + i): half for i in range(b)},
            **{((i,), 2 * b + i): half for i in range(b)},
            **{((b + i,), 3 * b + i): half for i in range(b)},
            **{((2 * b + i,), 3 * b + i): half for i in range(b)},
        },
    )
    left = VVForm(
        G,
        1,
        {
            **{((i,), b + i): half for i in range(b)},
            **{((i,), 2 * b + i): -half for i in range(b)},
            **{((b + i,), 3 * b + i): -half for i in range(b)},
            **{((2 * b + i,), 3 * b + i): half for i in range(b)},
        },
    )
    delta = VVForm(
        G,
        1,
        {
            **{((i,), b + i): one for i in range(b)},
            **{((2 * b + i,), 3 * b + i): one for i in range(b)},
        },
    )
    N = VVForm(M, 1, {((i,), b + i): one for i in range(b)})

    def swap_route_regression(config: Config) -> VerificationResult:
        # independent route: delta U as the pushforward of V along the swap
        V_TTB = VVForm(
            G,
            1,
            {
                **{((i,), 2 * b + i): one for i in range(b)},
                **{((b + i,), 3 * b + i): one for i in range(b)},
            },
        )
        swap = SmoothMap("kappa", G, G, _vec(gz, gp, gu, gq))
        pushed = pushforward(swap, V_TTB, swap)
        return vvform_is_zero(pushed - delta, config)

    return CatalogEntry(
        name="double_tangent",
        description=f"TTB groupoid over TB (fiber dimension {b}); delta U = swap(V)",
        presentation=P,
        bundle_map=BundleMapU.make(Umat),
        expected={"right_lift": right, "left_lift": left, "delta_U": delta, "N": N},
        with_lemma=True,
        extra_checks=[("regression[delta_U = pushforward of V along swap]", swap_route_regression)],
    )


def projection_groupoid(nx: int = 1, nu: int = 1) -> CatalogEntry:
    """The semidirect product M x_B M x_B TB over a fibered chart
    (x^i, u^alpha), integrating the integrable projection du (x) d/du."""
    M = Chart.make("M", [f"x{i+1}" for i in range(nx)] + [f"y{a+1}" for a in range(nu)])
    G = Chart.make(
        "GP",
        [f"gx{i+1}" for i in range(nx)] + [f"ga{a+1}" for a in range(nu)]
        + [f"gb{a+1}" for a in range(nu)] + [f"gv{i+1}" for i in range(nx)],
    )
    G2 = Chart.make(
        "GP2",
        [f"hx{i+1}" for i in range(nx)] + [f"ha{a+1}" for a in range(nu)]
        + [f"hb{a+1}" for a in range(nu)] + [f"hc{a+1}" for a in range(nu)]
        + [f"hv{i+1}" for i in range(nx)] + [f"hw{i+1}" for i in range(nx)],
    )
    G3 = Chart.make(
        "GP3",
        [f"kx{i+1}" for i in range(nx)] + [f"ka{a+1}" for a in range(nu)]
        + [f"kb{a+1}" for a in range(nu)] + [f"kc{a+1}" for a in range(nu)]
        + [f"kd{a+1}" for a in range(nu)] + [f"kv{i+1}" for i in range(nx)]
        + [f"kw{i+1}" for i in range(nx)] + [f"ky{i+1}" for i in range(nx)],
    )
    x, y = M.coords[:nx], M.coords[nx:]
    gx = G.coords[:nx]
    ga = G.coords[nx : nx + nu]
    gb = G.coords[nx + nu : nx + 2 * nu]
    gv = G.coords[nx + 2 * nu :]
    hx = G2.coords[:nx]
    ha = G2.coords[nx : nx + nu]
    hb = G2.coords[nx + nu : nx + 2 * nu]
    hc = G2.coords[nx + 2 * nu : nx + 3 * nu]
    hv = G2.coords[nx + 3 * nu : 2 * nx + 3 * nu]
    hw = G2.coords[2 * nx + 3 * nu :]
    kx = G3.coords[:nx]
    ka = G3.coords[nx : nx + nu]
    kb = G3.coords[nx + nu : nx + 2 * nu]
    kc = G3.coords[nx + 2 * nu : nx + 3 * nu]
    kd = G3.coords[nx + 3 * nu : nx + 4 * nu]
    kv = G3.coords[nx + 4 * nu : 2 * nx + 4 * nu]
    kw = G3.coords[2 * nx + 4 * nu : 3 * nx + 4 * nu]
    ky = G3.coords[3 * nx + 4 * nu :]
    zero_x = [ZERO] * nx

    P = GroupoidPresentation(
        name="projection_groupoid",
        G=G,
        M=M,
        s=SmoothMap("s", G, M, _vec(gx, ga)),
        t=SmoothMap("t", G, M, _vec(gx, gb)),
        u=SmoothMap("u", M, G, _vec(x, y, y, zero_x)),
        i=SmoothMap("i", G, G, _vec(gx, gb, ga, [-c for c in gv])),
        G2=G2,
        p1=SmoothMap("p1", G2, G, _vec(hx, ha, hb, hv)),
        p2=SmoothMap("p2", G2, G, _vec(hx, hc, ha, hw)),
        m=SmoothMap("m", G2, G, _vec(hx, hc, hb, [a + c for a, c in zip(hv, hw)])),
        unit_left=SmoothMap("ul", G, G2, _vec(gx, gb, gb, ga, zero_x, gv)),
        unit_right=SmoothMap("ur", G, G2, _vec(gx, ga, gb, ga, gv, zero_x)),
        inv_left=SmoothMap("il", G, G2, _vec(gx, gb, ga, ga, [-c for c in gv], gv)),
        inv_right=SmoothMap("ir", G, G2, _vec(gx, ga, gb, gb, gv, [-c for c in gv])),
        mi_pair=SmoothMap(
            "mi", G2, G2, _vec(hx, hc, hb, ha, [a + c for a, c in zip(hv, hw)], [-c for c in hw])
        ),
        G3=G3,
        q12=SmoothMap("q12", G3, G2, _vec(kx, kc, kb, kd, [a + c for a, c in zip(kv, kw)], ky)),
        q23=SmoothMap("q23", G3, G2, _vec(kx, ka, kb, kd, kv, [a + c for a, c in zip(kw, ky)])),
    )
    one = sp.Integer(1)
    # kernel frame at units comes out as (d/dgb_a, d/dgv_i)
    Umat = [[ZERO] * (nx + nu) for _ in range(nu + nx)]
    for a in range(nu):
        Umat[a][nx + a] = one  # e-row <- y-column
    for i in range(nx):
        Umat[nu + i][i] = one  # f-row <- x-column
    right = VVForm(
        G,
        1,
        {
            **{((nx + nu + a,), nx + nu + a): one for a in range(nu)},
            **{((i,), nx + 2 * nu + i): one for i in range(nx)},
        },
    )
    left = VVForm(
        G,
        1,
        {
            **{((nx + a,), nx + a): one for a in range(nu)},
            **{((i,), nx + 2 * nu + i): -one for i in range(nx)},
        },
    )
    delta = VVForm(
        G,
        1,
        {
            **{((nx + a,), nx + a): one for a in range(nu)},
            **{((nx + nu + a,), nx + nu + a): one for a in range(nu)},
        },
    )
    Pm = VVForm(M, 1, {((nx + a,), nx + a): one for a in range(nu)})

    def projection_regressions(config: Config) -> VerificationResult:
        sq = vvform_is_zero(Pm.compose11(Pm) - Pm, config)
        tor = vvform_is_zero(nijenhuis_torsion(Pm), config)
        return combine_results([sq, tor])

    return CatalogEntry(
        name="projection_groupoid",
        description=f"submersion semidirect product over a ({nx}+{nu})-fibered chart",
        presentation=P,
        bundle_map=BundleMapU.make(Umat),
        expected={"right_lift": right, "left_lift": left, "delta_U": delta, "N": Pm},
        with_lemma=True,
        extra_checks=[("regression[P^2 = P and T_P = 0]", projection_regressions)],
    )


class PreLieError(ValueError):
    pass


def _prelie_products(dim: int, products: dict) -> list[list[list[Scalar]]]:
    """k[m][i][j]: coefficient of e_m in e_i |> e_j."""
    k = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), comps in products.items():
        for m, c in enumerate(comps):
            k[m][i][j] = sp.sympify(c)
    return k


def prelie(dim: int = 2, products: dict | None = None, name: str = "prelie") -> CatalogEntry:
    """A pre-Lie algebra instance: the linear Nijenhuis operator, the
    action algebroid, and (for commuting nilpotent actions) the integrating
    action groupoid with its multiplicative structure.

    products maps basis pairs (i, j) to the components of e_i |> e_j;
    the pre-Lie axiom is verified on all basis triples and violations are
    rejected with a witness.
    """
    if products is None:
        products = {(0, 0): tuple(1 if m == 1 else 0 for m in range(dim))}
    k = _prelie_products(dim, products)

    def rp(i, j):
        """components of e_i |> e_j"""
        return [k[m][i][j] for m in range(dim)]

    def rp_vec(vi, vj):
        """components of v |> w for component vectors"""
        return [
            sp.expand(sp.Add(*[k[m][i][j] * vi[i] * vj[j] for i in range(dim) for j in range(dim)]))
            for m in range(dim)
        ]

    for a, b, c in product(range(dim), repeat=3):
        ea = [1 if i == a else 0 for i in range(dim)]
        eb = [1 if i == b else 0 for i in range(dim)]
        ec = [1 if i == c else 0 for i in range(dim)]
        assoc_ab = [p - q for p, q in zip(rp_vec(rp_vec(ea, eb), ec), rp_vec(ea, rp_vec(eb, ec)))]
        assoc_ba = [p - q for p, q in zip(rp_vec(rp_vec(eb, ea), ec), rp_vec(eb, rp_vec(ea, ec)))]
        for m in range(dim):
            if canonical(assoc_ab[m] - assoc_ba[m]) != 0:
                raise PreLieError(
                    f"pre-Lie axiom fails on basis triple ({a},{b},{c}), component {m}"
                )

    M = Chart.make("A", [f"x{i+1}" for i in range(dim)])
    x = M.coords
    # the canonical linear operator N(a^) = -(a |> x)
    Nmat = [
        [-sp.Add(*[k[m][i][j] * x[j] for j in range(dim)]) for i in range(dim)]
        for m in range(dim)
    ]
    N = VVForm.tensor11(M, Nmat)
    # the action algebroid with rho(c_a) = X_{L(a)} and the commutator bracket
    c_struct = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            comps = tuple(canonical(k[m][i][j] - k[m][j][i]) for m in range(dim))
            if any(e != 0 for e in comps):
                c_struct[(i, j)] = comps
    A = AlgebroidData(f"{name}_action", M, dim, Nmat, c_struct)

    def torsion_of_A(config: Config) -> VerificationResult:
        T = a_torsion(A, BundleMapU.identity(dim))
        return combine_results(is_zero(e, config) for e in T.entries())

    entry = CatalogEntry(
        name=name,
        description=f"pre-Lie algebra of dimension {dim} with its action data",
        operator=N,
        operator_U=BundleMapU.identity(dim),
        algebroid=A,
        extra_checks=[
            ("action_algebroid_axioms", lambda cfg: check_lie_algebroid(A, cfg).combined),
            ("a_torsion[T^A_U = 0 on basis pairs]", torsion_of_A),
        ],
    )

    # integrating groupoid for commuting nilpotent left-multiplication
    L = [[[k[m][i][j] for j in range(dim)] for m in range(dim)] for i in range(dim)]

    def mat_mul_const(a, b):
        return [
            [sp.expand(sp.Add(*[a[i][l] * b[l][j] for l in range(dim)])) for j in range(dim)]
            for i in range(dim)
        ]

    commuting = True
    for i in range(dim):
        for j in range(dim):
            ab = mat_mul_const(L[i], L[j])
            ba = mat_mul_const(L[j], L[i])
            if any(canonical(ab[p][q] - ba[p][q]) != 0 for p in range(dim) for q in range(dim)):
                commuting = False
    Gc = Chart.make("Grp", [f"g{i+1}" for i in range(dim)] + [f"gx{i+1}" for i in range(dim)])
    g, gx = Gc.coords[:dim], Gc.coords[dim:]
    Lg = [[sp.Integer(1) if p == q else ZERO for q in range(dim)] for p in range(dim)]
    term = [[sp.Integer(1) if p == q else ZERO for q in range(dim)] for p in range(dim)]
    Lsum = [
        [sp.Add(*[g[i] * L[i][p][q] for i in range(dim)]) for q in range(dim)]
        for p in range(dim)
    ]
    nilpotent = False
    fact = 1
    for power in range(1, 2 * dim + 1):
        term = mat_mul_const(term, Lsum)
        fact *= power
        if all(canonical(term[p][q]) == 0 for p in range(dim) for q in range(dim)):
            nilpotent = True
            break
        Lg = [
            [Lg[p][q] + term[p][q] / sp.Integer(fact) for q in range(dim)]
            for p in range(dim)
        ]
    abelian = not c_struct
    if commuting and nilpotent and abelian:
        entry.presentation = _prelie_presentation(name, dim, M, Gc, Lg, k)
        entry.bundle_map = BundleMapU.identity(dim).scale(sp.Integer(-1))
        entry.expected = _prelie_expected(dim, Gc, Lg, k, N)
        entry.extra_checks.append(("equivariance[L_g(x |> y) = ad_g x |> L_g y]",
                                   _prelie_equivariance_check(dim, Gc, Lg, k)))
    return entry


def _prelie_presentation(name, dim, M, Gc, Lg, k):
    x = M.coords
    g, gx = Gc.coords[:dim], Gc.coords[dim:]

    def apply_L(gvars, xvars):
        sub = {a: b for a, b in zip(g, gvars)}
        return [
            sp.expand(sp.Add(*[sp.sympify(Lg[p][q]).xreplace(sub) * xvars[q] for q in range(dim)]))
            for p in range(dim)
        ]

    zero = [ZERO] * dim
    G2 = Chart.make(
        "Grp2", [f"hg{i+1}" for i in range(dim)] + [f"hh{i+1}" for i in range(dim)] + [f"hx{i+1}" for i in range(dim)]
    )
    hg, hh, hx = G2.coords[:dim], G2.coords[dim : 2 * dim], G2.coords[2 * dim :]
    G3 = Chart.make(
        "Grp3",
        [f"jg{i+1}" for i in range(dim)] + [f"jh{i+1}" for i in range(dim)]
        + [f"jk{i+1}" for i in range(dim)] + [f"jx{i+1}" for i in range(dim)],
    )
    jg, jh, jk, jx = (G3.coords[i * dim : (i + 1) * dim] for i in range(4))

    return GroupoidPresentation(
        name=f"{name}_groupoid",
        G=Gc,
        M=M,
        s=SmoothMap("s", Gc, M, list(gx)),
        t=SmoothMap("t", Gc, M, apply_L(g, gx)),
        u=SmoothMap("u", M, Gc, _vec(zero, x)),
        i=SmoothMap("i", Gc, Gc, _vec([-c for c in g], apply_L(g, gx))),
        G2=G2,
        p1=SmoothMap("p1", G2, Gc, _vec(hg, apply_L(hh, hx))),
        p2=SmoothMap("p2", G2, Gc, _vec(hh, hx)),
        m=SmoothMap("m", G2, Gc, _vec([a + b for a, b in zip(hg, hh)], hx)),
        unit_left=SmoothMap("ul", Gc, G2, _vec(zero, g, gx)),
        unit_right=SmoothMap("ur", Gc, G2, _vec(g, zero, gx)),
        inv_left=SmoothMap("il", Gc, G2, _vec([-c for c in g], g, gx)),
        inv_right=SmoothMap("ir", Gc, G2, _vec(g, [-c for c in g], apply_L(g, gx))),
        mi_pair=SmoothMap(
            "mi", G2, G2, _vec([a + b for a, b in zip(hg, hh)], [-c for c in hh], apply_L(hh, hx))
        ),
        G3=G3,
        q12=SmoothMap("q12", G3, G2, _vec([a + b for a, b in zip(jg, jh)], jk, jx)),
        q23=SmoothMap("q23", G3, G2, _vec(jg, [a + b for a, b in zip(jh, jk)], jx)),
    )


def _prelie_expected(dim, Gc, Lg, k, N):
    """Engine closed forms for the U = -identity bundle map.

    With U = +identity the right lift is v -> (dt(v), 0) and the left lift
    is v -> (-ds(v), ds(v) |> x); both flip sign for U = -identity."""
    gx = Gc.coords[dim:]
    t_comps = [
        sp.expand(sp.Add(*[sp.sympify(Lg[p][q]) * gx[q] for q in range(dim)]))
        for p in range(dim)
    ]
    right = {}
    for p in range(dim):
        for col in range(2 * dim):
            cexpr = -diff(t_comps[p], Gc.coords[col])
            if cexpr != 0:
                right[((col,), p)] = cexpr
    left = {}
    for p in range(dim):
        left[((dim + p,), p)] = sp.Integer(1)
    for p in range(dim):
        for q in range(dim):
            c = -sp.Add(*[k[p][q][j] * gx[j] for j in range(dim)])
            if c != 0:
                left[((dim + q,), dim + p)] = c
    delta = {}
    for key in set(right) | set(left):
        c = canonical(right.get(key, ZERO) + left.get(key, ZERO))
        if c != 0:
            delta[key] = c
    return {
        "right_lift": VVForm(Gc, 1, right),
        "left_lift": VVForm(Gc, 1, left),
        "delta_U": VVForm(Gc, 1, delta),
        "N": N,
    }


def _prelie_equivariance_check(dim, Gc, Lg, k):
    g = Gc.coords[:dim]
    xs = [var(f"eqx{i+1}") for i in range(dim)]
    ys = [var(f"eqy{i+1}") for i in range(dim)]

    def rp_vec(vi, vj):
        return [
            sp.Add(*[k[m][i][j] * vi[i] * vj[j] for i in range(dim) for j in range(dim)])
            for m in range(dim)
        ]

    def apply_L(xvars):
        return [
            sp.Add(*[sp.sympify(Lg[p][q]) * xvars[q] for q in range(dim)])
            for p in range(dim)
        ]

    def check(config: Config) -> VerificationResult:
        # ad_g = identity for the commuting case covered by the builder
        lhs = apply_L(rp_vec(xs, ys))
        rhs = rp_vec(xs, apply_L(ys))
        return combine_results(is_zero(a - b, config) for a, b in zip(lhs, rhs))

    return check


def broken_nijenhuis() -> CatalogEntry:
    """A fixed negative control: the first monomial (1,1) tensor on a
    2-dimensional chart, in a deterministic search order, whose torsion is
    provably nonzero, together with its failing deformed algebroid."""
    M = Chart.make("M", "x1 x2")
    found = None
    for m, i, j in product(range(2), repeat=3):
        N = VVForm(M, 1, {((i,), j): M.coords[m]})
        if not nijenhuis_torsion(N).is_zero_form():
            found = N
            break
    assert found is not None
    return CatalogEntry(
        name="broken_nijenhuis",
        description="monomial (1,1) tensor with nonzero torsion (negative control)",
        operator=found,
        operator_U=BundleMapU.identity(2),
        expected_fail=frozenset(
            {"torsion[T_N = 0]", "deformed_axioms", "theorem1_form1", "theorem1_form2"}
        ),
    )


def zero_operator(n: int = 2) -> CatalogEntry:
    M = Chart.make("M", [f"x{i+1}" for i in range(n)])
    return CatalogEntry(
        name="zero_operator",
        description=f"the zero tensor on a {n}-dimensional chart",
        operator=VVForm.zero(M, 1),
        operator_U=BundleMapU.identity(n),
    )


def identity_operator(n: int = 2) -> CatalogEntry:
    M = Chart.make("M", [f"x{i+1}" for i in range(n)])
    return CatalogEntry(
        name="identity_operator",
        description=f"the identity tensor on a {n}-dimensional chart",
        operator=VVForm.identity(M),
        operator_U=BundleMapU.identity(n),
    )


def f_identity_operator(F_text: str = "1 + th^2") -> CatalogEntry:
    M = Chart.make("M", ["th"])
    F = parse(F_text)
    return CatalogEntry(
        name="f_identity_operator",
        description=f"F * identity on a 1-dimensional chart, F = {F_text}",
        operator=VVForm.tensor11(M, [[F]]),
        operator_U=BundleMapU.identity(1),
    )


def diag_operator() -> CatalogEntry:
    M = Chart.make("M", "x1 x2")
    x1, x2 = M.coords
    return CatalogEntry(
        name="diag_operator",
        description="diag(f(x1), g(x2)) with f = 1 + x1^2, g = x2^3",
        operator=VVForm.tensor11(M, [[1 + x1**2, ZERO], [ZERO, x2**3]]),
        operator_U=BundleMapU.identity(2),
    )


def vertical_operator(b: int = 1) -> CatalogEntry:
    """The vertical endomorphism of TB as a (1,1) tensor on the TB chart."""
    M = Chart.make("TB", [f"z{i+1}" for i in range(b)] + [f"u{i+1}" for i in range(b)])
    one = sp.Integer(1)
    V = VVForm(M, 1, {((i,), b + i): one for i in range(b)})
    return CatalogEntry(
        name="vertical_operator",
        description=f"vertical endomorphism on TB, fiber dimension {b}",
        operator=V,
        operator_U=BundleMapU.identity(2 * b),
    )


BUILDERS: dict[str, Callable[[], CatalogEntry]] = {
    "tm_plus": tm_plus,
    "pair_groupoid": pair_groupoid,
    "flow_unit": lambda: flow_groupoid("1", "gth + ep", name="flow_unit"),
    "flow_groupoid": lambda: flow_groupoid("th", "gth*exp(ep)", name="flow_groupoid"),
    "double_tangent": double_tangent,
    "projection_groupoid": projection_groupoid,
    "prelie": prelie,
    "broken_nijenhuis": broken_nijenhuis,
    "zero_operator": zero_operator,
    "identity_operator": identity_operator,
    "f_identity_operator": f_identity_operator,
    "diag_operator": diag_operator,
    "vertical_operator": vertical_operator,
}

GROUPOID_ENTRIES = (
    "tm_plus",
    "pair_groupoid",
    "flow_groupoid",
    "double_tangent",
    "projection_groupoid",
)

OPERATOR_ENTRIES = (
    "zero_operator",
    "identity_operator",
    "f_identity_operator",
    "diag_operator",
    "prelie",
    "vertical_operator",
)


def build(name: str) -> CatalogEntry:
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown catalog entry {name!r}") from None
    return builder()
