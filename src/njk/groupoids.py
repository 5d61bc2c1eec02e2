"""Lie groupoid presentations on charts and the deformation-complex
machinery: axiom checking, the Lie algebroid of a presentation,
right/left invariant lifts of bundle maps, the differential delta in
degrees -1 and 0, multiplicativity, and the full groupoid-side theorem
verification.

A presentation supplies explicit charts for G, M and the composable
pairs G2 (with embeddings p1, p2 and the multiplication m), plus chart
realizations of the composable-pair families the checks need: (u(t(g)),
g), (g, u(s(g))), (i(g), g), (g, i(g)) as maps G -> G2 and (m(w),
i(p2(w))) as a map G2 -> G2.  Fiber products are never computed
implicitly.

Tangent vectors along the fiber product are found by solving
[dp1; dp2] xi = (v1, v2) symbolically over the rational function field;
right translation is the first-slot differential of m at (u(t(g)), g)
and left translation the second-slot differential at (g, u(s(g))).
Each presentation factors that system once per embedding (the pair
families unit_left, unit_right, mi_pair and the identity of G2) and
keeps the translators for its lifetime; every translation is then a
solve against the stored factorization, with the zero check of the
caller's config supplied per solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import sympy as sp

from . import linalg
from .algebroids import (
    AlgebroidData,
    AValued1Form,
    AValued2Form,
    BundleMapU,
    Section,
    a_torsion,
    algebroid_lie_derivative,
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
    is_zero,
    proved_nonzero,
    proved_zero,
)
from .tensors import (
    Chart,
    SmoothMap,
    VVForm,
    fn_bracket,
    lie_bracket,
    lie_derivative,
    map_equal,
    nijenhuis_torsion,
    related_check,
    vvform_is_zero,
)


class PresentationError(ValueError):
    pass


@dataclass
class GroupoidPresentation:
    """Charts and structure maps of a Lie groupoid, with explicit
    composable-pair embeddings."""

    name: str
    G: Chart
    M: Chart
    s: SmoothMap
    t: SmoothMap
    u: SmoothMap
    i: SmoothMap
    G2: Chart
    p1: SmoothMap
    p2: SmoothMap
    m: SmoothMap
    unit_left: SmoothMap  # g -> (u(t(g)), g)
    unit_right: SmoothMap  # g -> (g, u(s(g)))
    inv_left: SmoothMap  # g -> (i(g), g)
    inv_right: SmoothMap  # g -> (g, i(g))
    mi_pair: SmoothMap  # w -> (m(w), i(p2(w)))
    G3: Chart | None = None
    q12: SmoothMap | None = None  # w3 -> ((g1 g2), g3) in G2
    q23: SmoothMap | None = None  # w3 -> (g1, (g2 g3)) in G2
    # fiber-product translators by embedding name, built on first use
    _translators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        expect = {
            "s": (self.G, self.M),
            "t": (self.G, self.M),
            "u": (self.M, self.G),
            "i": (self.G, self.G),
            "p1": (self.G2, self.G),
            "p2": (self.G2, self.G),
            "m": (self.G2, self.G),
            "unit_left": (self.G, self.G2),
            "unit_right": (self.G, self.G2),
            "inv_left": (self.G, self.G2),
            "inv_right": (self.G, self.G2),
            "mi_pair": (self.G2, self.G2),
        }
        for attr, (src, tgt) in expect.items():
            f = getattr(self, attr)
            if f.source != src or f.target != tgt:
                raise PresentationError(
                    f"{self.name}: map {attr} has charts "
                    f"{f.source.name} -> {f.target.name}, expected {src.name} -> {tgt.name}"
                )
        # unit section invariant; transcendental entries fall back to sampling
        for f, label in ((self.s, "s"), (self.t, "t")):
            for comp, xc in zip(f.compose(self.u).components, self.M.coords):
                if canonical(comp - xc) == 0:
                    continue
                res = is_zero(comp - xc, Config(samples=25, tol=1e-9, seed=0))
                if not res.holds:
                    raise PresentationError(
                        f"{self.name}: {label} o u is not the identity ({res})"
                    )

    @property
    def dim_G(self) -> int:
        return self.G.dim

    @property
    def dim_M(self) -> int:
        return self.M.dim


def check_axioms(P: GroupoidPresentation, config: Config = DEFAULT_CONFIG) -> CheckReport:
    """All groupoid laws expressible on the supplied charts."""
    report = CheckReport(f"groupoid axioms of {P.name}")
    ident_G = SmoothMap.identity(P.G)

    def eq(name, f, g):
        report.add(name, map_equal(f, g, config))

    eq("fiber_product[s o p1 = t o p2]", P.s.compose(P.p1), P.t.compose(P.p2))
    eq("source_of_product[s o m = s o p2]", P.s.compose(P.m), P.s.compose(P.p2))
    eq("target_of_product[t o m = t o p1]", P.t.compose(P.m), P.t.compose(P.p1))

    eq("unit_left_embedding[p1 = u o t]", P.p1.compose(P.unit_left), P.u.compose(P.t))
    eq("unit_left_embedding[p2 = id]", P.p2.compose(P.unit_left), ident_G)
    eq("left_unit_law[m(u(t(g)), g) = g]", P.m.compose(P.unit_left), ident_G)

    eq("unit_right_embedding[p1 = id]", P.p1.compose(P.unit_right), ident_G)
    eq("unit_right_embedding[p2 = u o s]", P.p2.compose(P.unit_right), P.u.compose(P.s))
    eq("right_unit_law[m(g, u(s(g))) = g]", P.m.compose(P.unit_right), ident_G)

    eq("inv_left_embedding[p1 = i]", P.p1.compose(P.inv_left), P.i)
    eq("inv_left_embedding[p2 = id]", P.p2.compose(P.inv_left), ident_G)
    eq("left_inverse_law[m(i(g), g) = u(s(g))]", P.m.compose(P.inv_left), P.u.compose(P.s))

    eq("inv_right_embedding[p1 = id]", P.p1.compose(P.inv_right), ident_G)
    eq("inv_right_embedding[p2 = i]", P.p2.compose(P.inv_right), P.i)
    eq("right_inverse_law[m(g, i(g)) = u(t(g))]", P.m.compose(P.inv_right), P.u.compose(P.t))

    eq("inversion[s o i = t]", P.s.compose(P.i), P.t)
    eq("inversion[t o i = s]", P.t.compose(P.i), P.s)
    eq("inversion[i o i = id]", P.i.compose(P.i), ident_G)

    eq("mi_embedding[p1 o mi = m]", P.p1.compose(P.mi_pair), P.m)
    eq("mi_embedding[p2 o mi = i o p2]", P.p2.compose(P.mi_pair), P.i.compose(P.p2))
    eq("mi_cancellation[m o mi = p1]", P.m.compose(P.mi_pair), P.p1)

    if P.G3 is not None and P.q12 is not None and P.q23 is not None:
        eq("associativity[m o q12 = m o q23]", P.m.compose(P.q12), P.m.compose(P.q23))
    else:
        report.note("associativity: skipped (no G3 chart supplied)")
    return report


# ---------------------------------------------------------------------------
# tangent solves along the fiber product


def _jacobian_along(f: SmoothMap, point_map: SmoothMap) -> list[list[Scalar]]:
    """Jacobian of f with its entries composed with point_map."""
    return [[point_map(e) for e in row] for row in f.jacobian()]


class _Translator:
    """Solves for fiber-product tangent vectors at an embedded pair family
    and pushes them through the multiplication differential.  The system
    [dp1; dp2] along the embedding is factored once, at construction."""

    def __init__(self, P: GroupoidPresentation, embed: SmoothMap):
        self.P = P
        self.solver = linalg.Solver(_jacobian_along(P.p1, embed) + _jacobian_along(P.p2, embed))
        self.Jm = _jacobian_along(P.m, embed)

    def push(self, v1: Sequence[Scalar], v2: Sequence[Scalar],
             config: Config | None) -> list[Scalar]:
        """dm applied to the pair tangent vector (v1, v2); config, when
        given, decides consistency residuals that are not canonically zero."""
        zero_check = None if config is None else (lambda e: is_zero(e, config).holds)
        xi = self.solver(list(v1) + list(v2), zero_check)
        g2 = self.P.G2.dim
        return [
            canonical(sp.Add(*[self.Jm[k][c] * xi[c] for c in range(g2)]))
            for k in range(self.P.G.dim)
        ]


def _translator(P: GroupoidPresentation, embedding: str) -> _Translator:
    """P's translator along one of its pair embeddings ("unit_left",
    "unit_right", "mi_pair") or along the identity of G2 ("G2")."""
    tr = P._translators.get(embedding)
    if tr is None:
        embed = SmoothMap.identity(P.G2) if embedding == "G2" else getattr(P, embedding)
        tr = P._translators[embedding] = _Translator(P, embed)
    return tr


def algebroid_of(P: GroupoidPresentation, config: Config = DEFAULT_CONFIG) -> AlgebroidData:
    """Kernel frame of ds along the units, right-invariant extension of the
    frame through dm, bracket on G restricted to units, anchor dt."""
    n, g = P.dim_M, P.dim_G
    r = g - n
    js_u = _jacobian_along(P.s, P.u)  # n x g over M variables
    kernel = linalg.nullspace(js_u)
    if len(kernel) != r:
        raise PresentationError(
            f"{P.name}: kernel of ds at units has rank {len(kernel)}, expected {r}"
        )
    jt_u = _jacobian_along(P.t, P.u)
    rho = [
        [
            canonical(sp.Add(*[jt_u[i][k] * kernel[al][k] for k in range(g)]))
            for al in range(r)
        ]
        for i in range(n)
    ]
    frame_fields = right_frame_fields(P, kernel, config)
    # brackets of the extended frame, restricted to units, in kernel
    # coordinates: solved against the g x r kernel frame, factored once
    in_frame = linalg.Solver([[kernel[al][k] for al in range(r)] for k in range(g)])
    c = {}
    for al in range(r):
        for be in range(al + 1, r):
            br = lie_bracket(frame_fields[al], frame_fields[be]).as_vector()
            at_units = [P.u(e) for e in br]
            comps = in_frame(at_units, zero_check=lambda e: is_zero(e, config).holds)
            comps = tuple(canonical(e) for e in comps)
            if any(e != 0 for e in comps):
                c[(al, be)] = comps
    return AlgebroidData(f"Lie({P.name})", P.M, r, rho, c)


def right_frame_fields(P: GroupoidPresentation, kernel: list[list[Scalar]],
                       config: Config | None = None) -> list[VVForm]:
    """Right-invariant vector fields extending the kernel frame:
    a |-> dm|_(u(t(g)), g) (a_{t(g)}, 0)."""
    tr = _translator(P, "unit_left")
    tog = P.t  # functions of M composed onto G
    fields = []
    for vec in kernel:
        v1 = [tog(e) for e in vec]
        v2 = [ZERO] * P.dim_G
        fields.append(VVForm.vector_field(P.G, tr.push(v1, v2, config)))
    return fields


def _kernel_and_frames(P: GroupoidPresentation):
    js_u = _jacobian_along(P.s, P.u)
    kernel = linalg.nullspace(js_u)
    if len(kernel) != P.dim_G - P.dim_M:
        raise PresentationError(f"{P.name}: ds kernel rank mismatch at units")
    return kernel


def right_lift(P: GroupoidPresentation, U: BundleMapU, route: str = "dm",
               config: Config = DEFAULT_CONFIG) -> VVForm:
    """The right invariant lift of U: dm(U_{t(g)} dt(.), 0).

    route="dm" solves the composite directly for every input direction;
    route="frame" uses the pulled-back frame formula
    t^*(U^alpha) (x) (right-invariant u_alpha).  The two must agree.
    """
    g, n = P.dim_G, P.dim_M
    kernel = _kernel_and_frames(P)
    r = len(kernel)
    if U.rank_rows != r or U.dim_cols != n:
        raise PresentationError(f"U must be {r} x {n} for {P.name}")
    jt = P.t.jacobian()  # n x g over G
    Ut = [[P.t(e) for e in row] for row in U.matrix]  # r x g... r x n over G
    # kernel frame transported to u(t(g))
    kt = [[P.t(e) for e in vec] for vec in kernel]  # r vectors of length g
    if route == "frame":
        frames = right_frame_fields(P, kernel, config)
        cols = []
        for j in range(g):
            col = [ZERO] * g
            for al in range(r):
                coeff = sp.Add(*[Ut[al][i] * jt[i][j] for i in range(n)])
                if coeff == 0:
                    continue
                fv = frames[al].as_vector()
                col = [a + coeff * b for a, b in zip(col, fv)]
            cols.append([canonical(e) for e in col])
        return VVForm.tensor11(P.G, [[cols[j][k] for j in range(g)] for k in range(g)])
    tr = _translator(P, "unit_left")
    cols = []
    for j in range(g):
        # U(dt e_j) as a tangent vector at u(t(g))
        avec = [ZERO] * g
        for al in range(r):
            coeff = sp.Add(*[Ut[al][i] * jt[i][j] for i in range(n)])
            if coeff == 0:
                continue
            avec = [a + coeff * b for a, b in zip(avec, kt[al])]
        cols.append(tr.push(avec, [ZERO] * g, config))
    return VVForm.tensor11(P.G, [[cols[j][k] for j in range(g)] for k in range(g)])


def left_lift(P: GroupoidPresentation, U: BundleMapU,
              config: Config = DEFAULT_CONFIG) -> VVForm:
    """The left invariant lift dL_g o di o U_{s(g)} o ds."""
    g, n = P.dim_G, P.dim_M
    kernel = _kernel_and_frames(P)
    r = len(kernel)
    if U.rank_rows != r or U.dim_cols != n:
        raise PresentationError(f"U must be {r} x {n} for {P.name}")
    js = P.s.jacobian()
    Us = [[P.s(e) for e in row] for row in U.matrix]
    ks = [[P.s(e) for e in vec] for vec in kernel]
    ji_us = _jacobian_along(P.i, P.u.compose(P.s))  # di at u(s(g)), over G
    tr = _translator(P, "unit_right")
    cols = []
    for j in range(g):
        avec = [ZERO] * g
        for al in range(r):
            coeff = sp.Add(*[Us[al][i] * js[i][j] for i in range(n)])
            if coeff == 0:
                continue
            avec = [a + coeff * b for a, b in zip(avec, ks[al])]
        w = [sp.Add(*[ji_us[k][l] * avec[l] for l in range(g)]) for k in range(g)]
        cols.append(tr.push([ZERO] * g, w, config))
    return VVForm.tensor11(P.G, [[cols[j][k] for j in range(g)] for k in range(g)])


def right_lift_2form(P: GroupoidPresentation, W: AValued2Form,
                     config: Config = DEFAULT_CONFIG) -> VVForm:
    """Right invariant lift of an A-valued 2-form:
    (v1, v2) -> dm(W_{t(g)}(dt v1, dt v2), 0)."""
    g, n = P.dim_G, P.dim_M
    kernel = _kernel_and_frames(P)
    r = len(kernel)
    frames = [f.as_vector() for f in right_frame_fields(P, kernel, config)]
    jt = P.t.jacobian()
    table = {}
    for a in range(g):
        for b in range(a + 1, g):
            sec = [ZERO] * r
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    coeff = jt[i][a] * jt[j][b]
                    if coeff == 0:
                        continue
                    val = W.value(i, j)
                    for al in range(r):
                        sec[al] = sec[al] + coeff * P.t(val.components[al])
            out = [ZERO] * g
            for al in range(r):
                if sec[al] == 0:
                    continue
                out = [o + sec[al] * f for o, f in zip(out, frames[al])]
            for k in range(g):
                e = canonical(out[k])
                if e != 0:
                    table[((a, b), k)] = e
    return VVForm(P.G, 2, table)


# ---------------------------------------------------------------------------
# the deformation differential


@dataclass(frozen=True)
class Cochain:
    """A deformation cochain of degree -1, 0 or 1."""

    degree: int
    bundle_map: BundleMapU | None = None  # degree -1
    tensor: VVForm | None = None  # degree 0: (1,1) tensor on G
    g2_matrix: tuple[tuple[Scalar, ...], ...] | None = None  # degree 1: dim G x dim G2


class DeltaError(ValueError):
    pass


def m_projection(P: GroupoidPresentation, T: VVForm, via: str = "s") -> VVForm:
    """Extract the candidate M-projection of a (1,1) tensor on G at the
    units: d(via) o T o du."""
    f = P.s if via == "s" else P.t
    jf_u = _jacobian_along(f, P.u)  # n x g over M
    Tu = [[P.u(e) for e in row] for row in T.matrix()]  # g x g over M
    ju = P.u.jacobian()  # g x n over M
    n, g = P.dim_M, P.dim_G
    mat = [
        [
            sp.Add(*[jf_u[c][k] * Tu[k][l] * ju[l][j] for k in range(g) for l in range(g)])
            for j in range(n)
        ]
        for c in range(n)
    ]
    return VVForm.tensor11(P.M, mat)


def delta_minus1(P: GroupoidPresentation, U: BundleMapU,
                 config: Config = DEFAULT_CONFIG) -> VVForm:
    """delta U = right lift + left lift; verified s- and t-related to
    rho_A o U before being returned."""
    A = algebroid_of(P, config)
    dU = right_lift(P, U, config=config) + left_lift(P, U, config=config)
    n, r = P.dim_M, A.rank
    rhoU = VVForm.tensor11(
        P.M,
        [
            [sp.Add(*[A.rho[i][al] * U.matrix[al][j] for al in range(r)]) for j in range(n)]
            for i in range(n)
        ],
    )
    for f in (P.s, P.t):
        res = related_check(f, dU, rhoU, config)
        if res.decided and not res.holds:
            raise DeltaError(
                f"{P.name}: delta U fails {f.name}-relatedness to rho o U: {res}"
            )
    return dU


def delta_0(P: GroupoidPresentation, T: VVForm,
            config: Config = DEFAULT_CONFIG) -> tuple[Cochain, CheckReport]:
    """The degree-0 differential: delta T(v1, v2) =
    -T(v1 v2) T(v2)^{-1} + T(v1), computed on the G2 chart through the
    tangent groupoid operations.

    Returns the degree-1 cochain and a well-formedness report (the value
    covers pr1 and its ds-projection matches the displayed M-projection
    formula)."""
    g, g2 = P.dim_G, P.G2.dim
    Tm = [[P.m(e) for e in row] for row in T.matrix()]
    Tp1 = [[P.p1(e) for e in row] for row in T.matrix()]
    Tp2 = [[P.p2(e) for e in row] for row in T.matrix()]
    Jm = P.m.jacobian()
    Jp1 = P.p1.jacobian()
    Jp2 = P.p2.jacobian()
    ji_p2 = _jacobian_along(P.i, P.p2)  # di at p2(w)

    # product T(v1 v2) . (T v2)^{-1} via the pair (m(w), i(p2 w))
    A1 = linalg.mat_mul(Tm, Jm)  # g x g2: T(dm eta) at m(w)
    A2 = linalg.mat_mul(ji_p2, linalg.mat_mul(Tp2, Jp2))  # di(T dp2 eta) at i(p2 w)
    tr = _translator(P, "mi_pair")
    cols = []
    for c in range(g2):
        v1 = [A1[k][c] for k in range(g)]
        v2 = [A2[k][c] for k in range(g)]
        cols.append(tr.push(v1, v2, config))
    direct = linalg.mat_mul(Tp1, Jp1)
    D = [
        [canonical(direct[k][c] - cols[c][k]) for c in range(g2)] for k in range(g)
    ]

    report = CheckReport(f"delta^0 well-formedness on {P.name}")
    # ds-projection must equal T^M(dt v2) - dt(T v2)
    js_p1 = _jacobian_along(P.s, P.p1)
    lhs = linalg.mat_mul(js_p1, D)
    TM = m_projection(P, T, "s")
    TMp = [[P.s.compose(P.p1)(e) for e in row] for row in TM.matrix()]
    jt_p2 = _jacobian_along(P.t, P.p2)
    rhs = linalg.mat_mul(TMp, linalg.mat_mul(jt_p2, Jp2))
    rhs2 = linalg.mat_mul(jt_p2, linalg.mat_mul(Tp2, Jp2))
    res = []
    for a in range(P.dim_M):
        for b in range(g2):
            res.append(is_zero(lhs[a][b] - rhs[a][b] + rhs2[a][b], config))
    report.add("projection_formula", combine_results(res))
    cochain = Cochain(1, g2_matrix=tuple(tuple(row) for row in D))
    return cochain, report


def cochain_is_zero(c: Cochain, config: Config = DEFAULT_CONFIG) -> VerificationResult:
    if c.degree == 1:
        return combine_results(
            is_zero(e, config) for row in c.g2_matrix for e in row
        )
    if c.degree == 0:
        return vvform_is_zero(c.tensor, config)
    return combine_results(
        is_zero(e, config) for row in c.bundle_map.matrix for e in row
    )


def multiplicative_check(P: GroupoidPresentation, T: VVForm,
                         config: Config = DEFAULT_CONFIG) -> CheckReport:
    """s- and t-relatedness to a common M-tensor plus compatibility with
    the tangent multiplication; cross-checked against delta_0(T) = 0."""
    report = CheckReport(f"multiplicativity of a (1,1) tensor on {P.name}")
    TM_s = m_projection(P, T, "s")
    TM_t = m_projection(P, T, "t")
    report.add("projections_agree", vvform_is_zero(TM_s - TM_t, config))
    report.add("s_related", related_check(P.s, T, TM_s, config))
    report.add("t_related", related_check(P.t, T, TM_s, config))

    g, g2 = P.dim_G, P.G2.dim
    Tm = [[P.m(e) for e in row] for row in T.matrix()]
    Tp1 = [[P.p1(e) for e in row] for row in T.matrix()]
    Tp2 = [[P.p2(e) for e in row] for row in T.matrix()]
    Jm = P.m.jacobian()
    lhs = linalg.mat_mul(Tm, Jm)
    B1 = linalg.mat_mul(Tp1, P.p1.jacobian())
    B2 = linalg.mat_mul(Tp2, P.p2.jacobian())
    tr = _translator(P, "G2")
    res = []
    try:
        for c in range(g2):
            out = tr.push([B1[k][c] for k in range(g)], [B2[k][c] for k in range(g)], config)
            for k in range(g):
                res.append(is_zero(lhs[k][c] - out[k], config))
        direct = combine_results(res)
    except linalg.InconsistentSystem as err:
        # (T v1, T v2) fails to be a composable pair of tangent vectors
        direct = proved_nonzero(f"image pair not composable: {err}")
    report.add("tangent_multiplication", direct)

    cochain, wf = delta_0(P, T, config)
    report.extend(wf)
    dzero = cochain_is_zero(cochain, config)
    report.add("delta0_vanishes", dzero)
    agree = direct.holds == dzero.holds
    report.add(
        "paths_agree[direct iff delta0]",
        proved_zero() if agree else proved_nonzero("direct and delta routes disagree"),
    )
    return report


# ---------------------------------------------------------------------------
# theorem-level checks


@dataclass
class Theorem2Result:
    report: CheckReport
    N: VVForm | None = None
    right: VVForm | None = None
    left: VVForm | None = None
    delta: VVForm | None = None
    algebroid: AlgebroidData | None = None


def theorem2_check(P: GroupoidPresentation, U: BundleMapU,
                   config: Config = DEFAULT_CONFIG) -> Theorem2Result:
    """The groupoid-side characterization: kernel/image conditions on the
    right lift, vanishing of its FN self-bracket, agreement of the s- and
    t-projections of delta U with a common Nijenhuis operator, and the
    A-torsion route as corroboration."""
    report = CheckReport(f"theorem 2 on {P.name}")
    g, n = P.dim_G, P.dim_M
    if g != 2 * n:
        report.add("dimension[dim G = 2 dim M]", proved_nonzero(f"dim G = {g}, dim M = {n}"))
        report.note("conditions unachievable: dim G != 2 dim M")
        return Theorem2Result(report)
    report.add("axioms", check_axioms(P, config).combined)

    R = right_lift(P, U, route="dm", config=config)
    R2 = right_lift(P, U, route="frame", config=config)
    report.add("lift_routes_agree", vvform_is_zero(R - R2, config))
    L = left_lift(P, U, config=config)

    js = P.s.jacobian()
    Rm = R.matrix()
    res = []
    for a in range(n):
        for b in range(g):
            res.append(
                is_zero(sp.Add(*[js[a][k] * Rm[k][b] for k in range(g)]), config)
            )
    report.add("im_in_ker_ds[ds o rightlift = 0]", combine_results(res))

    jt = P.t.jacobian()
    tker = linalg.nullspace(jt)
    res = []
    for vec in tker:
        for k in range(g):
            res.append(
                is_zero(sp.Add(*[Rm[k][b] * vec[b] for b in range(g)]), config)
            )
    report.add("tker_in_ker[rightlift o ker dt = 0]", combine_results(res))

    elim = linalg.eliminate(Rm)
    report.add(
        "rank[rank rightlift = dim M]",
        proved_zero() if elim.rank == n else proved_nonzero(f"rank {elim.rank}"),
    )
    if elim.localization:
        report.note(f"rank localized away from: {', '.join(elim.localization)}")

    report.add("fn_self_bracket[rightlift Nijenhuis]", vvform_is_zero(fn_bracket(R, R), config))

    dU = R + L
    Ns = m_projection(P, dU, "s")
    Nt = m_projection(P, dU, "t")
    report.add("s_projection[delta U s-related]", related_check(P.s, dU, Ns, config))
    report.add("t_projection[delta U t-related]", related_check(P.t, dU, Nt, config))
    report.add("projections_agree[s = t]", vvform_is_zero(Ns - Nt, config))
    report.add("torsion_of_N", vvform_is_zero(nijenhuis_torsion(Ns), config))

    A = algebroid_of(P, config)
    TAU = a_torsion(A, U)
    report.add(
        "a_torsion[T^A_U = 0]",
        combine_results(is_zero(c, config) for c in TAU.entries()),
    )
    lifted = right_lift_2form(P, TAU, config)
    report.add(
        "a_torsion_lift[T_rightlift = rightlift(T^A_U)]",
        vvform_is_zero(nijenhuis_torsion(R) - lifted, config),
    )
    return Theorem2Result(report, Ns, R, L, dU, A)


def lemma_check(P: GroupoidPresentation, U: BundleMapU,
                config: Config = DEFAULT_CONFIG) -> CheckReport:
    """L_{rightlift(a)} delta U = rightlift(L^A_a U) on frame sections,
    plus the ell- and T^M-parts of the associated triple."""
    report = CheckReport(f"lemma check on {P.name}")
    A = algebroid_of(P, config)
    kernel = _kernel_and_frames(P)
    frames = right_frame_fields(P, kernel, config)
    dU = delta_minus1(P, U, config)
    g, n, r = P.dim_G, P.dim_M, A.rank
    B = [[kernel[al][k] for al in range(r)] for k in range(g)]
    for al in range(r):
        lhs = lie_derivative(frames[al], dU)
        phi = algebroid_lie_derivative(A, A.frame_section(al), U)
        rhs = _right_lift_avalued1(P, phi, kernel, frames)
        report.add(f"lemma[{al}]", vvform_is_zero(lhs - rhs, config))
        # ell part: (delta U)(rightlift a)|units = kernel embedding of U rho a
        val = dU.apply_to_vector(frames[al]).as_vector()
        at_units = [P.u(e) for e in val]
        ell_target = Section(
            tuple(
                sp.Add(*[U.matrix[be][i] * A.rho[i][al] for i in range(n)])
                for be in range(r)
            )
        )
        embedded = [
            sp.Add(*[B[k][be] * ell_target.components[be] for be in range(r)])
            for k in range(g)
        ]
        report.add(
            f"ell_part[{al}]",
            combine_results(
                is_zero(a - b, config) for a, b in zip(at_units, embedded)
            ),
        )
    rhoU = VVForm.tensor11(
        P.M,
        [
            [sp.Add(*[A.rho[i][al] * U.matrix[al][j] for al in range(r)]) for j in range(n)]
            for i in range(n)
        ],
    )
    report.add("tm_part[s-projection = rho o U]", related_check(P.s, dU, rhoU, config))
    return report


def _right_lift_avalued1(P: GroupoidPresentation, phi: AValued1Form,
                         kernel: list[list[Scalar]], frames: list[VVForm]) -> VVForm:
    """Right invariant lift of an A-valued 1-form: v -> dm(phi_{t(g)}(dt v), 0),
    via the frame formula t^*(phi^alpha) (x) rightlift(u_alpha)."""
    g, n = P.dim_G, P.dim_M
    r = len(kernel)
    jt = P.t.jacobian()
    phit = [[P.t(phi.values[i].components[al]) for i in range(n)] for al in range(r)]
    cols = []
    for j in range(g):
        col = [ZERO] * g
        for al in range(r):
            coeff = sp.Add(*[phit[al][i] * jt[i][j] for i in range(n)])
            if coeff == 0:
                continue
            fv = frames[al].as_vector()
            col = [a + coeff * b for a, b in zip(col, fv)]
        cols.append([canonical(e) for e in col])
    return VVForm.tensor11(P.G, [[cols[j][k] for j in range(g)] for k in range(g)])
