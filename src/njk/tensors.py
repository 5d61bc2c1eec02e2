"""Single-chart tensor calculus: vector fields, vector-valued forms,
scalar forms, smooth maps, and the classical operations (Lie bracket,
Lie derivative, exterior derivative, contraction, Frölicher-Nijenhuis
bracket, Nijenhuis torsion, pushforward, relatedness).

Coefficient tables are stored over strictly increasing multi-indices, so
antisymmetry is structural.  A VVForm of degree 0 is a vector field and
one of degree 1 is a (1,1) tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Mapping, Sequence

import sympy as sp

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
    var,
)


class ChartMismatch(ValueError):
    pass


@dataclass(frozen=True)
class Chart:
    """An ordered coordinate chart."""

    name: str
    coords: tuple[sp.Symbol, ...]

    def __post_init__(self):
        if len(set(self.coords)) != len(self.coords):
            raise ValueError(f"chart {self.name}: coordinate names not distinct")
        if len(self.coords) < 1:
            raise ValueError(f"chart {self.name}: dimension must be >= 1")

    @staticmethod
    def make(name: str, coords: str | Sequence[str]) -> "Chart":
        if isinstance(coords, str):
            coords = coords.split()
        return Chart(name, tuple(var(c) for c in coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, coord: str | sp.Symbol) -> int:
        return self.coords.index(var(coord))

    def __repr__(self):
        return f"Chart({self.name}: {' '.join(s.name for s in self.coords)})"


def _sort_index(idx: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
    """Sort a multi-index, returning (sorted, sign) or None on repeats."""
    idx = tuple(idx)
    if len(set(idx)) != len(idx):
        return None
    sign = 1
    # count inversions
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if idx[i] > idx[j]:
                sign = -sign
    return tuple(sorted(idx)), sign


def _normalize_table(table: Mapping) -> dict:
    out = {}
    for key, c in table.items():
        c = canonical(c)
        if c != 0:
            out[key] = c
    return out


class ScalarForm:
    """A differential k-form with Scalar coefficients on a chart."""

    __slots__ = ("chart", "degree", "table")

    def __init__(self, chart: Chart, degree: int, table: Mapping | None = None):
        self.chart = chart
        self.degree = degree
        self.table = _normalize_table(table or {})

    @staticmethod
    def function(chart: Chart, f: Scalar) -> "ScalarForm":
        return ScalarForm(chart, 0, {(): f})

    @staticmethod
    def dx(chart: Chart, i: int) -> "ScalarForm":
        return ScalarForm(chart, 1, {(i,): sp.Integer(1)})

    def coeff(self, idx: Sequence[int]) -> Scalar:
        sorted_sign = _sort_index(idx)
        if sorted_sign is None:
            return ZERO
        key, sign = sorted_sign
        return sign * self.table.get(key, ZERO)

    def is_zero_form(self) -> bool:
        return not self.table

    def __add__(self, other: "ScalarForm") -> "ScalarForm":
        if self.chart != other.chart or self.degree != other.degree:
            raise ChartMismatch("cannot add forms of different chart/degree")
        table = dict(self.table)
        for k, c in other.table.items():
            table[k] = table.get(k, ZERO) + c
        return ScalarForm(self.chart, self.degree, table)

    def __sub__(self, other: "ScalarForm") -> "ScalarForm":
        return self + (other * sp.Integer(-1))

    def __mul__(self, s: Scalar) -> "ScalarForm":
        s = sp.sympify(s)
        return ScalarForm(self.chart, self.degree, {k: c * s for k, c in self.table.items()})

    __rmul__ = __mul__

    def wedge(self, other: "ScalarForm") -> "ScalarForm":
        if self.chart != other.chart:
            raise ChartMismatch("wedge of forms on different charts")
        table: dict = {}
        for i1, c1 in self.table.items():
            for i2, c2 in other.table.items():
                ss = _sort_index(i1 + i2)
                if ss is None:
                    continue
                key, sign = ss
                table[key] = table.get(key, ZERO) + sign * c1 * c2
        return ScalarForm(self.chart, self.degree + other.degree, table)

    def __repr__(self):
        if not self.table:
            return "0"
        names = [s.name for s in self.chart.coords]
        parts = []
        for idx, c in sorted(self.table.items()):
            base = "^".join(f"d{names[i]}" for i in idx) or "1"
            parts.append(f"({c})*{base}")
        return " + ".join(parts)


def exterior_derivative(alpha: ScalarForm) -> ScalarForm:
    """d(alpha); satisfies d(d(alpha)) = 0 exactly."""
    chart = alpha.chart
    table: dict = {}
    for idx, c in alpha.table.items():
        for m, xm in enumerate(chart.coords):
            dc = diff(c, xm)
            if dc == 0:
                continue
            ss = _sort_index((m,) + idx)
            if ss is None:
                continue
            key, sign = ss
            table[key] = table.get(key, ZERO) + sign * dc
    return ScalarForm(chart, alpha.degree + 1, table)


def contract_form(X: "VVForm", alpha: ScalarForm) -> ScalarForm:
    """Interior product of a vector field (degree-0 VVForm) into a form."""
    if X.degree != 0:
        raise ValueError("contraction requires a vector field")
    if X.chart != alpha.chart:
        raise ChartMismatch("contraction across charts")
    if alpha.degree == 0:
        return ScalarForm(alpha.chart, 0, {})
    table: dict = {}
    comps = X.as_vector()
    for idx, c in alpha.table.items():
        for pos, i in enumerate(idx):
            if comps[i] == 0:
                continue
            key = idx[:pos] + idx[pos + 1 :]
            sign = (-1) ** pos
            table[key] = table.get(key, ZERO) + sign * comps[i] * c
    return ScalarForm(alpha.chart, alpha.degree - 1, table)


def lie_derivative_form(X: "VVForm", alpha: ScalarForm) -> ScalarForm:
    """Cartan formula: L_X = i_X d + d i_X on scalar forms."""
    out = contract_form(X, exterior_derivative(alpha))
    if alpha.degree > 0:
        out = out + exterior_derivative(contract_form(X, alpha))
    return out


class VVForm:
    """A vector-valued k-form: coefficients over (increasing k-index, output)."""

    __slots__ = ("chart", "degree", "table")

    def __init__(self, chart: Chart, degree: int, table: Mapping | None = None):
        self.chart = chart
        self.degree = degree
        self.table = _normalize_table(table or {})

    # -- constructors -------------------------------------------------

    @staticmethod
    def vector_field(chart: Chart, components: Sequence[Scalar]) -> "VVForm":
        return VVForm(chart, 0, {((), i): c for i, c in enumerate(components)})

    @staticmethod
    def tensor11(chart: Chart, matrix: Sequence[Sequence[Scalar]]) -> "VVForm":
        """matrix[i][j] is the coefficient of dx^j (x) d/dx^i."""
        table = {}
        for i, row in enumerate(matrix):
            for j, c in enumerate(row):
                table[((j,), i)] = c
        return VVForm(chart, 1, table)

    @staticmethod
    def identity(chart: Chart) -> "VVForm":
        return VVForm.tensor11(
            chart,
            [[sp.Integer(1) if i == j else ZERO for j in range(chart.dim)] for i in range(chart.dim)],
        )

    @staticmethod
    def zero(chart: Chart, degree: int) -> "VVForm":
        return VVForm(chart, degree, {})

    # -- accessors -----------------------------------------------------

    def coeff(self, idx: Sequence[int], out: int) -> Scalar:
        ss = _sort_index(idx)
        if ss is None:
            return ZERO
        key, sign = ss
        return sign * self.table.get((key, out), ZERO)

    def as_vector(self) -> list[Scalar]:
        if self.degree != 0:
            raise ValueError("not a vector field")
        return [self.table.get(((), i), ZERO) for i in range(self.chart.dim)]

    def matrix(self) -> list[list[Scalar]]:
        if self.degree != 1:
            raise ValueError("not a (1,1) tensor")
        n = self.chart.dim
        return [[self.table.get(((j,), i), ZERO) for j in range(n)] for i in range(n)]

    def is_zero_form(self) -> bool:
        return not self.table

    def entries(self) -> Iterable[Scalar]:
        return self.table.values()

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "VVForm") -> "VVForm":
        if self.chart != other.chart or self.degree != other.degree:
            raise ChartMismatch("cannot add VVForms of different chart/degree")
        table = dict(self.table)
        for k, c in other.table.items():
            table[k] = table.get(k, ZERO) + c
        return VVForm(self.chart, self.degree, table)

    def __sub__(self, other: "VVForm") -> "VVForm":
        return self + (other * sp.Integer(-1))

    def __mul__(self, s: Scalar) -> "VVForm":
        s = sp.sympify(s)
        return VVForm(self.chart, self.degree, {k: c * s for k, c in self.table.items()})

    __rmul__ = __mul__

    def apply_to_vector(self, X: "VVForm") -> "VVForm":
        """Evaluate a (1,1) tensor on a vector field."""
        if self.degree != 1 or X.degree != 0:
            raise ValueError("apply_to_vector needs a (1,1) tensor and a vector field")
        if self.chart != X.chart:
            raise ChartMismatch("apply across charts")
        comps = X.as_vector()
        m = self.matrix()
        n = self.chart.dim
        return VVForm.vector_field(
            self.chart, [sp.Add(*[m[i][j] * comps[j] for j in range(n)]) for i in range(n)]
        )

    def compose11(self, other: "VVForm") -> "VVForm":
        """Endomorphism composition self o other of (1,1) tensors."""
        a, b = self.matrix(), other.matrix()
        n = self.chart.dim
        return VVForm.tensor11(
            self.chart,
            [[sp.Add(*[a[i][k] * b[k][j] for k in range(n)]) for j in range(n)] for i in range(n)],
        )

    def evaluate(self, vectors: Sequence["VVForm"]) -> "VVForm":
        """Evaluate a k-form-valued tensor on k vector fields."""
        if len(vectors) != self.degree:
            raise ValueError("wrong number of arguments")
        comps = [v.as_vector() for v in vectors]
        n = self.chart.dim
        out = [ZERO] * n
        for (idx, o), c in self.table.items():
            det = ZERO
            for perm in permutations(range(len(idx))):
                sign = _permutation_sign(perm)
                term = c
                for slot_pos, arg_pos in enumerate(perm):
                    term = term * comps[arg_pos][idx[slot_pos]]
                det = det + sign * term
            out[o] = out[o] + det
        return VVForm.vector_field(self.chart, out)

    def __repr__(self):
        if not self.table:
            return "0"
        names = [s.name for s in self.chart.coords]
        parts = []
        for (idx, o), c in sorted(self.table.items()):
            base = "^".join(f"d{names[i]}" for i in idx)
            base = f"{base} (x) " if base else ""
            parts.append(f"({c})*{base}d/d{names[o]}")
        return " + ".join(parts)


def _permutation_sign(perm: Sequence[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def coordinate_field(chart: Chart, i: int) -> VVForm:
    return VVForm.vector_field(
        chart, [sp.Integer(1) if j == i else ZERO for j in range(chart.dim)]
    )


# ---------------------------------------------------------------------------
# smooth maps


class SmoothMap:
    """A smooth map between charts, one Scalar per target coordinate."""

    __slots__ = ("name", "source", "target", "components")

    def __init__(self, name: str, source: Chart, target: Chart, components: Sequence[Scalar]):
        if len(components) != target.dim:
            raise ValueError(
                f"map {name}: {len(components)} components for {target.dim}-dim target"
            )
        self.name = name
        self.source = source
        self.target = target
        self.components = tuple(sp.sympify(c) for c in components)

    @staticmethod
    def identity(chart: Chart) -> "SmoothMap":
        return SmoothMap("id", chart, chart, chart.coords)

    def __call__(self, e: Scalar) -> Scalar:
        """Pull back a scalar on the target along the map."""
        return canonical(
            sp.sympify(e).xreplace(dict(zip(self.target.coords, self.components)))
        )

    def compose(self, inner: "SmoothMap") -> "SmoothMap":
        """self o inner."""
        if inner.target != self.source:
            raise ChartMismatch(f"cannot compose {self.name} o {inner.name}")
        comps = [inner(c) for c in self.components]
        return SmoothMap(f"{self.name}*{inner.name}", inner.source, self.target, comps)

    def jacobian(self) -> list[list[Scalar]]:
        return [
            [diff(c, xj) for xj in self.source.coords] for c in self.components
        ]

    def push_vector(self, X: VVForm) -> list[Scalar]:
        """Components of dphi(X) in target coordinates, as functions on source."""
        J = self.jacobian()
        v = X.as_vector()
        return [
            sp.Add(*[J[c][j] * v[j] for j in range(self.source.dim)])
            for c in range(self.target.dim)
        ]

    def __repr__(self):
        comps = ", ".join(str(c) for c in self.components)
        return f"{self.name}: {self.source.name} -> {self.target.name} = ({comps})"


def map_equal(f: SmoothMap, g: SmoothMap, config: Config = DEFAULT_CONFIG) -> VerificationResult:
    if f.source != g.source or f.target != g.target:
        raise ChartMismatch("comparing maps with different charts")
    return combine_results(
        is_zero(a - b, config) for a, b in zip(f.components, g.components)
    )


class InverseCheckError(ValueError):
    pass


# ---------------------------------------------------------------------------
# operations


def lie_bracket(X: VVForm, Y: VVForm) -> VVForm:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i."""
    if X.chart != Y.chart:
        raise ChartMismatch("Lie bracket across charts")
    if X.degree != 0 or Y.degree != 0:
        raise ValueError("Lie bracket takes vector fields")
    chart = X.chart
    xs, ys = X.as_vector(), Y.as_vector()
    out = []
    for i in range(chart.dim):
        acc = ZERO
        for j, xj in enumerate(chart.coords):
            acc = acc + xs[j] * diff(ys[i], xj) - ys[j] * diff(xs[i], xj)
        out.append(acc)
    return VVForm.vector_field(chart, out)


def nijenhuis_torsion(N: VVForm) -> VVForm:
    """T_N(X,Y) = [NX,NY] + N^2[X,Y] - N[NX,Y] - N[X,NY] on coordinate fields."""
    if N.degree != 1:
        raise ValueError("torsion takes a (1,1) tensor")
    chart = N.chart
    n = chart.dim
    fields = [coordinate_field(chart, i) for i in range(n)]
    nfields = [N.apply_to_vector(f) for f in fields]
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            # coordinate fields commute, so the N^2[X,Y] term vanishes
            term = lie_bracket(nfields[i], nfields[j])
            term = term - N.apply_to_vector(lie_bracket(nfields[i], fields[j]))
            term = term - N.apply_to_vector(lie_bracket(fields[i], nfields[j]))
            for o, c in enumerate(term.as_vector()):
                if c != 0:
                    table[((i, j), o)] = c
    return VVForm(chart, 2, table)


def fn_bracket(K: VVForm, L: VVForm) -> VVForm:
    """Frölicher-Nijenhuis bracket, by bilinear extension over decomposables.

    For K = alpha (x) X with alpha a k-form and L = beta (x) Y:

        [K,L] = alpha^beta (x) [X,Y] + alpha^L_X(beta) (x) Y
                - L_Y(alpha)^beta (x) X
                + (-1)^k (d(alpha)^i_X(beta) (x) Y + i_Y(alpha)^d(beta) (x) X)
    """
    if K.chart != L.chart:
        raise ChartMismatch("FN bracket across charts")
    chart = K.chart
    k, l = K.degree, L.degree
    if k + l > chart.dim:
        raise ValueError("bracket degree exceeds chart dimension")
    table: dict = {}

    def add(idx, out, c):
        if c == 0:
            return
        ss = _sort_index(idx)
        if ss is None:
            return
        key, sign = ss
        table[(key, out)] = table.get((key, out), ZERO) + sign * c

    sign_k = (-1) ** k
    for (I, a), c1 in K.table.items():
        for (J, b), c2 in L.table.items():
            # alpha = c1 dx^I, X = d_a ; beta = c2 dx^J, Y = d_b
            # [X, Y] = 0 for coordinate fields, so the first term only
            # moves coefficients: alpha^beta (x) [d_a, d_b] = 0.
            # alpha ^ L_X beta (x) Y,  L_{d_a}(c2 dx^J) = d_a(c2) dx^J
            add(I + J, b, c1 * diff(c2, chart.coords[a]))
            # - L_Y alpha ^ beta (x) X
            add(I + J, a, -diff(c1, chart.coords[b]) * c2)
            # (-1)^k d(alpha) ^ i_X beta (x) Y
            for pos, j in enumerate(J):
                if j != a:
                    continue
                iota = (-1) ** pos * c2  # i_{d_a}(dx^J)
                Jred = J[:pos] + J[pos + 1 :]
                for m, xm in enumerate(chart.coords):
                    dc1 = diff(c1, xm)
                    if dc1 != 0:
                        add((m,) + I + Jred, b, sign_k * dc1 * iota)
            # (-1)^k i_Y alpha ^ d(beta) (x) X
            for pos, i in enumerate(I):
                if i != b:
                    continue
                iota = (-1) ** pos * c1
                Ired = I[:pos] + I[pos + 1 :]
                for m, xm in enumerate(chart.coords):
                    dc2 = diff(c2, xm)
                    if dc2 != 0:
                        add(Ired + (m,) + J, a, sign_k * iota * dc2)
    return VVForm(chart, k + l, table)


def lie_derivative(X: VVForm, T: VVForm) -> VVForm:
    """Lie derivative of a vector-valued form along a vector field."""
    if X.degree != 0:
        raise ValueError("Lie derivative along a vector field only")
    return fn_bracket(X, T)


def pushforward(phi: SmoothMap, T: VVForm, phi_inv: SmoothMap) -> VVForm:
    """Pushforward of a vector-valued form along a diffeomorphism.

    phi_inv must invert phi; both compositions are checked to canonicalize
    to the identity before anything is computed.
    """
    if T.chart != phi.source:
        raise ChartMismatch("tensor lives on the map's source")
    if phi_inv.source != phi.target or phi_inv.target != phi.source:
        raise ChartMismatch("phi_inv charts do not match phi")
    for m in (phi.compose(phi_inv), phi_inv.compose(phi)):
        for c, x in zip(m.components, m.source.coords):
            if canonical(c - x) != 0:
                raise InverseCheckError(f"inverse check fails on {m.name}: {c} != {x}")

    src, tgt = phi.source, phi.target
    Jphi = phi.jacobian()  # functions on src
    Jinv = phi_inv.jacobian()  # functions on tgt
    backsub = dict(zip(src.coords, phi_inv.components))

    def back(e: Scalar) -> Scalar:
        return sp.sympify(e).xreplace(backsub)

    k = T.degree
    table: dict = {}
    n_t = tgt.dim
    if k == 0:
        v = [back(c) for c in phi.push_vector(T)]
        return VVForm.vector_field(tgt, v)
    for Jidx in combinations(range(n_t), k):
        # columns of Jinv for the chosen target directions
        cols = [[Jinv[i][j] for i in range(src.dim)] for j in Jidx]
        for out in range(n_t):
            acc = ZERO
            for (I, a), c in T.table.items():
                det = ZERO
                for perm in permutations(range(k)):
                    sign = _permutation_sign(perm)
                    term = sp.Integer(sign)
                    for slot, argpos in enumerate(perm):
                        term = term * cols[argpos][I[slot]]
                    det = det + term
                if det == 0:
                    continue
                acc = acc + back(c * Jphi[out][a]) * det
            if acc != 0:
                table[(Jidx, out)] = acc
    return VVForm(tgt, k, table)


def related_check(
    phi: SmoothMap,
    T_src: VVForm,
    T_tgt: VVForm,
    config: Config = DEFAULT_CONFIG,
) -> VerificationResult:
    """Verify dphi o T_src = T_tgt o dphi as a matrix identity over the source."""
    if T_src.degree != 1 or T_tgt.degree != 1:
        raise ValueError("relatedness is for (1,1) tensors")
    if T_src.chart != phi.source or T_tgt.chart != phi.target:
        raise ChartMismatch("charts do not match the map")
    J = phi.jacobian()
    A = T_src.matrix()
    B = [[phi(e) for e in row] for row in T_tgt.matrix()]
    n_s, n_t = phi.source.dim, phi.target.dim
    results = []
    for c in range(n_t):
        for i in range(n_s):
            lhs = sp.Add(*[J[c][b] * A[b][i] for b in range(n_s)])
            rhs = sp.Add(*[B[c][j] * J[j][i] for j in range(n_t)])
            results.append(is_zero(lhs - rhs, config))
    return combine_results(results)


def vvform_is_zero(T: VVForm, config: Config = DEFAULT_CONFIG) -> VerificationResult:
    return combine_results(is_zero(c, config) for c in T.table.values())


def scalarform_is_zero(a: ScalarForm, config: Config = DEFAULT_CONFIG) -> VerificationResult:
    return combine_results(is_zero(c, config) for c in a.table.values())
