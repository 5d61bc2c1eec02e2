"""Lie algebroids on a trivialized bundle over a chart.

An algebroid is given by its base chart, rank, anchor components
rho^i_alpha (the anchor of the alpha-th frame section in coordinates) and
structure functions c^gamma_{alpha beta} stored for alpha < beta.  The
frame is always the trivialization frame; sections are component tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import sympy as sp

from .reports import CheckReport
from .scalars import (
    Config,
    DEFAULT_CONFIG,
    Scalar,
    ZERO,
    canonical,
    combine_results,
    diff,
    is_zero,
)
from .tensors import Chart, VVForm, coordinate_field, lie_bracket, lie_derivative


@dataclass(frozen=True)
class Section:
    """Components of a section in the trivialization frame."""

    components: tuple[Scalar, ...]

    @staticmethod
    def make(components: Sequence[Scalar]) -> "Section":
        return Section(tuple(sp.sympify(c) for c in components))

    def __add__(self, other: "Section") -> "Section":
        return Section(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "Section") -> "Section":
        return Section(tuple(a - b for a, b in zip(self.components, other.components)))

    def __mul__(self, s: Scalar) -> "Section":
        s = sp.sympify(s)
        return Section(tuple(c * s for c in self.components))

    __rmul__ = __mul__

    def canonical(self) -> "Section":
        return Section(tuple(canonical(c) for c in self.components))


class AlgebroidData:
    """Anchor and bracket data for a trivialized Lie algebroid."""

    __slots__ = ("name", "base", "rank", "rho", "c")

    def __init__(
        self,
        name: str,
        base: Chart,
        rank: int,
        rho: Sequence[Sequence[Scalar]],
        c: Mapping[tuple[int, int], Sequence[Scalar]] | None = None,
    ):
        self.name = name
        self.base = base
        self.rank = rank
        if len(rho) != base.dim or any(len(row) != rank for row in rho):
            raise ValueError(f"{name}: anchor must be {base.dim} x {rank}")
        self.rho = [[sp.sympify(e) for e in row] for row in rho]
        self.c: dict[tuple[int, int], tuple[Scalar, ...]] = {}
        for (a, b), comps in (c or {}).items():
            if not a < b:
                raise ValueError(f"{name}: structure functions are stored for alpha < beta")
            if len(comps) != rank:
                raise ValueError(f"{name}: c[{a},{b}] needs {rank} components")
            comps = tuple(canonical(e) for e in comps)
            if any(e != 0 for e in comps):
                self.c[(a, b)] = comps

    def structure(self, a: int, b: int) -> tuple[Scalar, ...]:
        """c^._{ab} with the antisymmetry applied for a > b."""
        if a == b:
            return (ZERO,) * self.rank
        if a < b:
            return self.c.get((a, b), (ZERO,) * self.rank)
        return tuple(-e for e in self.c.get((b, a), (ZERO,) * self.rank))

    def frame_section(self, alpha: int) -> Section:
        return Section(tuple(sp.Integer(1) if i == alpha else ZERO for i in range(self.rank)))

    def anchor_of(self, a: Section) -> VVForm:
        """The vector field rho(a) on the base."""
        comps = [
            sp.Add(*[self.rho[i][al] * a.components[al] for al in range(self.rank)])
            for i in range(self.base.dim)
        ]
        return VVForm.vector_field(self.base, comps)

    def __repr__(self):
        return f"AlgebroidData({self.name}: rank {self.rank} over {self.base.name})"


@dataclass(frozen=True)
class BundleMapU:
    """A bundle map U: TM -> A, as the r x n matrix U^alpha_i."""

    matrix: tuple[tuple[Scalar, ...], ...]

    @staticmethod
    def make(matrix: Sequence[Sequence[Scalar]]) -> "BundleMapU":
        return BundleMapU(tuple(tuple(sp.sympify(e) for e in row) for row in matrix))

    @staticmethod
    def identity(n: int) -> "BundleMapU":
        return BundleMapU.make(
            [[sp.Integer(1) if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    @property
    def rank_rows(self) -> int:
        return len(self.matrix)

    @property
    def dim_cols(self) -> int:
        return len(self.matrix[0])

    def column(self, i: int) -> Section:
        """U(d/dx_i) as a Section."""
        return Section(tuple(row[i] for row in self.matrix))

    def apply_to_field(self, X: VVForm) -> Section:
        v = X.as_vector()
        return Section(
            tuple(
                sp.Add(*[row[i] * v[i] for i in range(len(v))]) for row in self.matrix
            )
        )

    def scale(self, s: Scalar) -> "BundleMapU":
        return BundleMapU.make([[e * s for e in row] for row in self.matrix])


class AValued1Form:
    """An A-valued 1-form on the base: omega[i] is a Section for d/dx_i."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[Section]):
        self.values = tuple(v.canonical() for v in values)

    def __add__(self, other):
        return AValued1Form([a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        return AValued1Form([a - b for a, b in zip(self.values, other.values)])

    def __mul__(self, s: Scalar):
        return AValued1Form([v * s for v in self.values])

    __rmul__ = __mul__

    def entries(self):
        for v in self.values:
            yield from v.components

    def matrix(self) -> list[list[Scalar]]:
        """Rows indexed by base coordinate, columns by frame index."""
        return [list(v.components) for v in self.values]


class AValued2Form:
    """Antisymmetric table (i < j) of Sections."""

    __slots__ = ("base_dim", "rank", "table")

    def __init__(self, base_dim: int, rank: int, table: Mapping[tuple[int, int], Section]):
        self.base_dim = base_dim
        self.rank = rank
        self.table = {}
        for (i, j), s in table.items():
            s = s.canonical()
            if any(c != 0 for c in s.components):
                self.table[(i, j)] = s

    def value(self, i: int, j: int) -> Section:
        if i == j:
            return Section((ZERO,) * self.rank)
        if i < j:
            return self.table.get((i, j), Section((ZERO,) * self.rank))
        return self.table.get((j, i), Section((ZERO,) * self.rank)) * sp.Integer(-1)

    def entries(self):
        for s in self.table.values():
            yield from s.components

    def __sub__(self, other: "AValued2Form") -> "AValued2Form":
        keys = set(self.table) | set(other.table)
        return AValued2Form(
            self.base_dim,
            self.rank,
            {k: self.value(*k) - other.value(*k) for k in keys},
        )


@dataclass(frozen=True)
class IMTriple:
    """The triple (D, ell, T^M) encoding a linear (1,1) tensor on A.

    D is stored by its action on the frame; the defining Leibniz rule
    extends it to arbitrary sections on demand.
    """

    frame_action: tuple[AValued1Form, ...]  # D(u_gamma)
    ell: tuple[tuple[Scalar, ...], ...]  # ell[alpha][beta]: coefficient of u_alpha in ell(u_beta)
    tm: VVForm  # (1,1) tensor on the base

    @staticmethod
    def zero(A: AlgebroidData) -> "IMTriple":
        n, r = A.base.dim, A.rank
        zero_form = AValued1Form([Section((ZERO,) * r) for _ in range(n)])
        return IMTriple(
            tuple(zero_form for _ in range(r)),
            tuple((ZERO,) * r for _ in range(r)),
            VVForm.zero(A.base, 1),
        )

    @staticmethod
    def identity(A: AlgebroidData) -> "IMTriple":
        """The triple (0, I, I); only meaningful when rank = dim."""
        n, r = A.base.dim, A.rank
        zero_form = AValued1Form([Section((ZERO,) * r) for _ in range(n)])
        return IMTriple(
            tuple(zero_form for _ in range(r)),
            tuple(
                tuple(sp.Integer(1) if a == b else ZERO for b in range(r)) for a in range(r)
            ),
            VVForm.identity(A.base),
        )

    def apply_ell(self, a: Section) -> Section:
        r = len(self.ell)
        return Section(
            tuple(
                sp.Add(*[self.ell[al][be] * a.components[be] for be in range(r)])
                for al in range(r)
            )
        )

    def d_of_section(self, A: AlgebroidData, a: Section) -> AValued1Form:
        """Extend D to a = sum_g f_g u_g by the Leibniz rule

        D(f u) = f D(u) + df (x) ell(u) - <df, T^M> (x) u.
        """
        n, r = A.base.dim, A.rank
        tm = self.tm.matrix()
        values = [Section((ZERO,) * r) for _ in range(n)]
        for g in range(r):
            f = a.components[g]
            ug = A.frame_section(g)
            ell_ug = self.apply_ell(ug)
            for i, xi in enumerate(A.base.coords):
                df_i = diff(f, xi)
                term = self.frame_action[g].values[i] * f
                if df_i != 0:
                    term = term + ell_ug * df_i
                # <df, T^M>_i = sum_k d_k(f) T^k_i
                pairing = sp.Add(
                    *[diff(f, A.base.coords[k]) * tm[k][i] for k in range(n)]
                )
                if pairing != 0:
                    term = term - ug * pairing
                values[i] = values[i] + term
        return AValued1Form(values)


# ---------------------------------------------------------------------------
# operations


def bracket_sections(A: AlgebroidData, a: Section, b: Section) -> Section:
    """Frame expansion of the bracket with the anchor Leibniz rule."""
    if len(a.components) != A.rank or len(b.components) != A.rank:
        raise ValueError("section rank mismatch")
    r = A.rank
    rho_a = A.anchor_of(a).as_vector()
    rho_b = A.anchor_of(b).as_vector()
    out = []
    for g in range(r):
        acc = ZERO
        for al in range(r):
            for be in range(al + 1, r):
                cg = A.structure(al, be)[g]
                if cg != 0:
                    acc = acc + cg * (
                        a.components[al] * b.components[be]
                        - a.components[be] * b.components[al]
                    )
        for i, xi in enumerate(A.base.coords):
            acc = acc + rho_a[i] * diff(b.components[g], xi)
            acc = acc - rho_b[i] * diff(a.components[g], xi)
        out.append(acc)
    return Section.make(out)


def section_is_zero(s: Section, config: Config = DEFAULT_CONFIG):
    return combine_results(is_zero(c, config) for c in s.components)


def check_lie_algebroid(A: AlgebroidData, config: Config = DEFAULT_CONFIG) -> CheckReport:
    """Jacobi on all frame triples and the anchor-morphism property on all
    frame pairs."""
    report = CheckReport(f"lie-algebroid axioms of {A.name}")
    r = A.rank
    frames = [A.frame_section(al) for al in range(r)]
    for al in range(r):
        for be in range(al + 1, r):
            lhs = A.anchor_of(bracket_sections(A, frames[al], frames[be]))
            rhs = lie_bracket(A.anchor_of(frames[al]), A.anchor_of(frames[be]))
            residual = lhs - rhs
            report.add(
                f"anchor_morphism[{al},{be}]",
                combine_results(is_zero(c, config) for c in residual.as_vector()),
            )
    for al in range(r):
        for be in range(al + 1, r):
            for ga in range(be + 1, r):
                jac = bracket_sections(A, bracket_sections(A, frames[al], frames[be]), frames[ga])
                jac = jac + bracket_sections(
                    A, bracket_sections(A, frames[be], frames[ga]), frames[al]
                )
                jac = jac + bracket_sections(
                    A, bracket_sections(A, frames[ga], frames[al]), frames[be]
                )
                report.add(f"jacobi[{al},{be},{ga}]", section_is_zero(jac, config))
    if r == 1:
        # no pairs or triples; record the trivially satisfied axioms
        report.note("rank 1: Jacobi and anchor morphism are vacuous on frame tuples")
    return report


def deformed_structure(N: VVForm, name: str | None = None) -> AlgebroidData:
    """The algebroid (TM)_N: anchor N, c^k_ij = d_i N^k_j - d_j N^k_i."""
    if N.degree != 1:
        raise ValueError("deformed structure needs a (1,1) tensor")
    chart = N.chart
    n = chart.dim
    m = N.matrix()
    c = {}
    for i in range(n):
        for j in range(i + 1, n):
            c[(i, j)] = tuple(
                diff(m[k][j], chart.coords[i]) - diff(m[k][i], chart.coords[j])
                for k in range(n)
            )
    return AlgebroidData(name or f"(T{chart.name})_N", chart, n, m, c)


def algebroid_lie_derivative(A: AlgebroidData, a: Section, U: BundleMapU) -> AValued1Form:
    """L^A_a U (X) = [a, UX]_A - U [rho(a), X] on coordinate fields."""
    if U.rank_rows != A.rank or U.dim_cols != A.base.dim:
        raise ValueError("bundle map shape mismatch")
    rho_a = A.anchor_of(a)
    values = []
    for i in range(A.base.dim):
        first = bracket_sections(A, a, U.column(i))
        w = lie_bracket(rho_a, coordinate_field(A.base, i))
        values.append(first - U.apply_to_field(w))
    return AValued1Form(values)


def a_torsion(A: AlgebroidData, U: BundleMapU) -> AValued2Form:
    """T^A_U(X,Y) = [UX,UY]_A + U rho U [X,Y] - U[rho U X, Y] - U[X, rho U Y]."""
    if U.rank_rows != A.rank or U.dim_cols != A.base.dim:
        raise ValueError("bundle map shape mismatch")
    n = A.base.dim
    table = {}
    anchorU = [A.anchor_of(U.column(i)) for i in range(n)]  # rho(U d_i) as fields
    for i in range(n):
        for j in range(i + 1, n):
            # coordinate fields commute: the U rho U [X,Y] term vanishes
            t = bracket_sections(A, U.column(i), U.column(j))
            t = t - U.apply_to_field(lie_bracket(anchorU[i], coordinate_field(A.base, j)))
            t = t - U.apply_to_field(lie_bracket(coordinate_field(A.base, i), anchorU[j]))
            table[(i, j)] = t
    return AValued2Form(n, A.rank, table)


def lie_der_avalued1(A: AlgebroidData, a: Section, phi: AValued1Form) -> AValued1Form:
    """(L_a phi)(X) = [a, phi(X)]_A - phi([rho(a), X]) on coordinate fields.

    This is the module structure L_a(omega (x) b) = L_{rho(a)} omega (x) b
    + omega (x) [a,b]_A used for the first IM identity.
    """
    rho_a = A.anchor_of(a)
    n = A.base.dim
    values = []
    for i in range(n):
        first = bracket_sections(A, a, phi.values[i])
        w = lie_bracket(rho_a, coordinate_field(A.base, i)).as_vector()
        second = Section((ZERO,) * A.rank)
        for j in range(n):
            if w[j] != 0:
                second = second + phi.values[j] * w[j]
        values.append(first - second)
    return AValued1Form(values)


def contract_avalued1(phi: AValued1Form, X: VVForm) -> Section:
    v = X.as_vector()
    out = Section((ZERO,) * len(phi.values[0].components))
    for i, c in enumerate(v):
        if c != 0:
            out = out + phi.values[i] * c
    return out


def im_check(A: AlgebroidData, triple: IMTriple, config: Config = DEFAULT_CONFIG) -> CheckReport:
    """The four IM identities on frame sections."""
    report = CheckReport(f"IM identities over {A.name}")
    r, n = A.rank, A.base.dim
    frames = [A.frame_section(al) for al in range(r)]
    rho_fields = [A.anchor_of(f) for f in frames]
    tm = triple.tm.matrix()

    for al in range(r):
        for be in range(al + 1, r):
            bracket = bracket_sections(A, frames[al], frames[be])
            lhs = triple.d_of_section(A, bracket)
            rhs = lie_der_avalued1(A, frames[al], triple.frame_action[be]) - lie_der_avalued1(
                A, frames[be], triple.frame_action[al]
            )
            residual = lhs - rhs
            report.add(
                f"D_bracket[{al},{be}]",
                combine_results(is_zero(c, config) for c in residual.entries()),
            )
            lhs2 = triple.apply_ell(bracket)
            rhs2 = bracket_sections(A, frames[al], triple.apply_ell(frames[be]))
            rhs2 = rhs2 - contract_avalued1(triple.frame_action[al], rho_fields[be])
            report.add(f"ell_bracket[{al},{be}]", section_is_zero(lhs2 - rhs2, config))

    for al in range(r):
        lhs3 = lie_derivative(rho_fields[al], triple.tm)
        rhs3_m = [
            [
                sp.Add(*[A.rho[k][de] * triple.frame_action[al].values[i].components[de] for de in range(r)])
                for i in range(n)
            ]
            for k in range(n)
        ]
        diff3 = lhs3 - VVForm.tensor11(A.base, rhs3_m)
        report.add(
            f"anchor_D[{al}]",
            combine_results(is_zero(c, config) for c in diff3.entries()),
        )

    results4 = []
    for k in range(n):
        for al in range(r):
            lhs4 = sp.Add(*[tm[k][j] * A.rho[j][al] for j in range(n)])
            rhs4 = sp.Add(*[A.rho[k][be] * triple.ell[be][al] for be in range(r)])
            results4.append(is_zero(lhs4 - rhs4, config))
    report.add("TM_anchor_ell", combine_results(results4))
    return report


def tangent_lift_triple(T: VVForm) -> IMTriple:
    """The triple ( [-,T]^fn, T, T ) of the tangent lift of a (1,1) tensor."""
    if T.degree != 1:
        raise ValueError("tangent lift needs a (1,1) tensor")
    chart = T.chart
    n = chart.dim
    frame_action = []
    for g in range(n):
        lt = lie_derivative(coordinate_field(chart, g), T).matrix()
        frame_action.append(AValued1Form([Section.make([lt[k][i] for k in range(n)]) for i in range(n)]))
    m = T.matrix()
    ell = tuple(tuple(m[al][be] for be in range(n)) for al in range(n))
    return IMTriple(tuple(frame_action), ell, T)


def lemma_triple(A: AlgebroidData, U: BundleMapU) -> IMTriple:
    """The triple (L^A_a U, U o rho, rho o U)."""
    r, n = A.rank, A.base.dim
    frame_action = tuple(
        algebroid_lie_derivative(A, A.frame_section(g), U) for g in range(r)
    )
    ell = tuple(
        tuple(
            sp.Add(*[U.matrix[al][i] * A.rho[i][be] for i in range(n)]) for be in range(r)
        )
        for al in range(r)
    )
    tm = VVForm.tensor11(
        A.base,
        [
            [sp.Add(*[A.rho[i][al] * U.matrix[al][j] for al in range(r)]) for j in range(n)]
            for i in range(n)
        ],
    )
    return IMTriple(frame_action, ell, tm)
