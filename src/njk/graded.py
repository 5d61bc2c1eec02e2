"""Degree-1 graded charts and the calculus on them: graded functions,
homogeneous vector fields, (1,1) tensors of internal degree -1 and 0,
homological vector fields of algebroids, the vertical endomorphism, and
the graded Frölicher-Nijenhuis machinery.

Functions on a graded chart are polynomial in the odd coordinates with
Scalar coefficients in the even ones; they are stored over strictly
increasing odd index subsets.  The graded FN bracket and Lie derivative
are computed through the derivation representation on the (bigraded) form
algebra of the chart: generators x (degree 0), xdot (degree 1), dx
(degree 1), dxdot (degree 2), with Koszul signs taken against total
degree.  Conventions that the degree rules leave open are pinned by two
oracles: the bracket must reduce to the classical one when no odd
coordinates are present, and the Lie derivative of the vertical
endomorphism along a deformed-structure field must reproduce the lift of
the tangent-lift triple (see linear_lift for the resulting sign).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import sympy as sp

from . import linalg
from .algebroids import AlgebroidData, BundleMapU, IMTriple, lemma_triple
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
    proved_nonzero,
    proved_zero,
    var,
)
from .tensors import Chart


@dataclass(frozen=True)
class GradedChart:
    """Even coordinates (degree 0) and odd fiber coordinates (degree 1)."""

    name: str
    even: tuple[sp.Symbol, ...]
    odd_names: tuple[str, ...]

    @staticmethod
    def make(name: str, even: str | Sequence[str], odd: str | Sequence[str]) -> "GradedChart":
        if isinstance(even, str):
            even = even.split()
        if isinstance(odd, str):
            odd = odd.split()
        ev = tuple(var(c) for c in even)
        names = set(even) | set(odd)
        if len(names) != len(even) + len(odd):
            raise ValueError(f"graded chart {name}: names not distinct")
        return GradedChart(name, ev, tuple(odd))

    @property
    def n(self) -> int:
        return len(self.even)

    @property
    def r(self) -> int:
        return len(self.odd_names)

    def body(self) -> Chart:
        return Chart(self.name + "_body", self.even)


def _merge_sign(w1: tuple, w2: tuple) -> tuple[tuple, int] | None:
    """Merge two sorted words of odd generators; None when a generator repeats."""
    if set(w1) & set(w2):
        return None
    sign = 1
    for a in w1:
        for b in w2:
            if a > b:
                sign = -sign
    return tuple(sorted(w1 + w2)), sign


class GradedFunction:
    """Polynomial in the odd coordinates over Scalars in the even ones."""

    __slots__ = ("chart", "table")

    def __init__(self, chart: GradedChart, table: Mapping[tuple[int, ...], Scalar] | None = None,
                 canon: bool = True):
        self.chart = chart
        self.table = {}
        for key, c in (table or {}).items():
            c = canonical(c) if canon else sp.sympify(c)
            if c != 0:
                self.table[tuple(key)] = c

    @staticmethod
    def scalar(chart: GradedChart, c: Scalar) -> "GradedFunction":
        return GradedFunction(chart, {(): c})

    @staticmethod
    def odd_coord(chart: GradedChart, alpha: int) -> "GradedFunction":
        return GradedFunction(chart, {(alpha,): sp.Integer(1)})

    def is_zero_fun(self) -> bool:
        return not self.table

    def degrees(self) -> set[int]:
        return {len(k) for k in self.table}

    def homogeneous_degree(self) -> int | None:
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def __add__(self, other: "GradedFunction") -> "GradedFunction":
        table = dict(self.table)
        for k, c in other.table.items():
            table[k] = table.get(k, ZERO) + c
        return GradedFunction(self.chart, table)

    def __sub__(self, other: "GradedFunction") -> "GradedFunction":
        return self + other.scale(-1)

    def scale(self, s: Scalar) -> "GradedFunction":
        s = sp.sympify(s)
        return GradedFunction(self.chart, {k: c * s for k, c in self.table.items()})

    def mul(self, other: "GradedFunction") -> "GradedFunction":
        table: dict = {}
        for k1, c1 in self.table.items():
            for k2, c2 in other.table.items():
                ms = _merge_sign(k1, k2)
                if ms is None:
                    continue
                key, sign = ms
                table[key] = table.get(key, ZERO) + sign * c1 * c2
        return GradedFunction(self.chart, table)

    def diff_even(self, i: int) -> "GradedFunction":
        xi = self.chart.even[i]
        return GradedFunction(self.chart, {k: diff(c, xi) for k, c in self.table.items()})

    def diff_odd(self, alpha: int) -> "GradedFunction":
        """Left derivative with respect to the alpha-th odd coordinate."""
        table = {}
        for k, c in self.table.items():
            if alpha not in k:
                continue
            p = k.index(alpha)
            key = k[:p] + k[p + 1 :]
            table[key] = table.get(key, ZERO) + (-1) ** p * c
        return GradedFunction(self.chart, table)

    def subs(self, even_map: Mapping[sp.Symbol, Scalar],
             odd_linear: Sequence[Sequence[Scalar]]) -> "GradedFunction":
        """Substitute even coordinates and odd coordinates simultaneously.

        odd_linear[beta][alpha] is the coefficient of the new odd coordinate
        beta in the image of the old odd coordinate alpha.
        """
        out = GradedFunction(self.chart, {})
        r = self.chart.r
        for k, c in self.table.items():
            term = GradedFunction.scalar(self.chart, sp.sympify(c).xreplace(dict(even_map)))
            for alpha in k:
                lin = GradedFunction(
                    self.chart,
                    {(b,): odd_linear[b][alpha] for b in range(r)},
                )
                term = term.mul(lin)
            out = out + term
        return out

    def entries(self):
        return self.table.values()

    def __repr__(self):
        if not self.table:
            return "0"
        parts = []
        for k, c in sorted(self.table.items()):
            mono = "*".join(self.chart.odd_names[a] for a in k)
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


def gf_is_zero(f: GradedFunction, config: Config = DEFAULT_CONFIG) -> VerificationResult:
    return combine_results(is_zero(c, config) for c in f.table.values())


class GradedVectorField:
    """A homogeneous derivation of the graded function algebra."""

    __slots__ = ("chart", "degree", "xcomp", "ocomp")

    def __init__(self, chart: GradedChart, degree: int,
                 xcomp: Sequence[GradedFunction], ocomp: Sequence[GradedFunction]):
        self.chart = chart
        self.degree = degree
        self.xcomp = list(xcomp)
        self.ocomp = list(ocomp)
        for comp, want in ((self.xcomp, degree), (self.ocomp, degree + 1)):
            for f in comp:
                for k in f.table:
                    if len(k) != want:
                        raise ValueError(
                            f"component degree {len(k)} inconsistent with field degree {degree}"
                        )

    @staticmethod
    def zero(chart: GradedChart, degree: int) -> "GradedVectorField":
        z = GradedFunction(chart, {})
        return GradedVectorField(chart, degree, [z] * chart.n, [z] * chart.r)

    def __add__(self, other: "GradedVectorField") -> "GradedVectorField":
        if self.degree != other.degree or self.chart != other.chart:
            raise ValueError("can only add fields of equal chart and degree")
        return GradedVectorField(
            self.chart,
            self.degree,
            [a + b for a, b in zip(self.xcomp, other.xcomp)],
            [a + b for a, b in zip(self.ocomp, other.ocomp)],
        )

    def __sub__(self, other: "GradedVectorField") -> "GradedVectorField":
        return self + other.scale(-1)

    def scale(self, s: Scalar) -> "GradedVectorField":
        return GradedVectorField(
            self.chart,
            self.degree,
            [f.scale(s) for f in self.xcomp],
            [f.scale(s) for f in self.ocomp],
        )

    def apply(self, f: GradedFunction) -> GradedFunction:
        """Derivation action on a graded function."""
        out = GradedFunction(self.chart, {})
        for i in range(self.chart.n):
            df = f.diff_even(i)
            if not df.is_zero_fun():
                out = out + self.xcomp[i].mul(df)
        for a in range(self.chart.r):
            df = f.diff_odd(a)
            if not df.is_zero_fun():
                out = out + self.ocomp[a].mul(df)
        return out

    def entries(self):
        for f in self.xcomp + self.ocomp:
            yield from f.entries()

    def is_zero_field(self) -> bool:
        return all(f.is_zero_fun() for f in self.xcomp + self.ocomp)

    def __repr__(self):
        names = [s.name for s in self.chart.even] + list(self.chart.odd_names)
        parts = []
        for nm, f in zip(names, self.xcomp + self.ocomp):
            if not f.is_zero_fun():
                parts.append(f"({f}) d/d{nm}")
        return " + ".join(parts) if parts else "0"


def gvf_is_zero(Q: GradedVectorField, config: Config = DEFAULT_CONFIG) -> VerificationResult:
    return combine_results(is_zero(c, config) for c in Q.entries())


def graded_commutator(Q1: GradedVectorField, Q2: GradedVectorField) -> GradedVectorField:
    """[Q1, Q2] = Q1 Q2 - (-1)^{d1 d2} Q2 Q1, degree d1 + d2."""
    if Q1.chart != Q2.chart:
        raise ValueError("commutator across charts")
    sign = (-1) ** (Q1.degree * Q2.degree)
    xcomp = [Q1.apply(f2) - Q2.apply(f1).scale(sign) for f1, f2 in zip(Q1.xcomp, Q2.xcomp)]
    ocomp = [Q1.apply(f2) - Q2.apply(f1).scale(sign) for f1, f2 in zip(Q1.ocomp, Q2.ocomp)]
    return GradedVectorField(Q1.chart, Q1.degree + Q2.degree, xcomp, ocomp)


# ---------------------------------------------------------------------------
# bigraded form algebra (forms on the graded chart)
#
# Term key: (S, T, E) for coefficient * xdot^S * dx^T * dxdot^E with S and T
# strictly increasing and E an exponent vector; total degrees are
# |S| + |T| + 2|E|.  Odd generators are ordered xdot-block before dx-block.


class SuperForm:
    __slots__ = ("chart", "table")

    def __init__(self, chart: GradedChart, table: Mapping | None = None, canon: bool = True):
        self.chart = chart
        self.table = {}
        for key, c in (table or {}).items():
            c = canonical(c) if canon else sp.sympify(c)
            if c != 0:
                self.table[key] = c

    @staticmethod
    def zero(chart: GradedChart) -> "SuperForm":
        return SuperForm(chart, {})

    @staticmethod
    def coordinate(chart: GradedChart, c: int) -> "SuperForm":
        """The coordinate function number c (even first, then odd)."""
        if c < chart.n:
            return SuperForm(chart, {((), (), (0,) * chart.r): chart.even[c]})
        return SuperForm(chart, {((c - chart.n,), (), (0,) * chart.r): sp.Integer(1)})

    @staticmethod
    def from_graded_function(f: GradedFunction) -> "SuperForm":
        E0 = (0,) * f.chart.r
        return SuperForm(f.chart, {(S, (), E0): c for S, c in f.table.items()})

    def is_zero_sf(self) -> bool:
        return not self.table

    def __add__(self, other: "SuperForm") -> "SuperForm":
        table = dict(self.table)
        for k, c in other.table.items():
            table[k] = table.get(k, ZERO) + c
        return SuperForm(self.chart, table)

    def __sub__(self, other: "SuperForm") -> "SuperForm":
        return self + other.scale(-1)

    def scale(self, s: Scalar) -> "SuperForm":
        s = sp.sympify(s)
        return SuperForm(self.chart, {k: c * s for k, c in self.table.items()})

    def entries(self):
        return self.table.values()

    @staticmethod
    def _word(S: tuple, T: tuple) -> tuple:
        return tuple((0, a) for a in S) + tuple((1, t) for t in T)

    def mul(self, other: "SuperForm") -> "SuperForm":
        table: dict = {}
        for (S1, T1, E1), c1 in self.table.items():
            w1 = self._word(S1, T1)
            for (S2, T2, E2), c2 in other.table.items():
                ms = _merge_sign(w1, self._word(S2, T2))
                if ms is None:
                    continue
                word, sign = ms
                S = tuple(a for tag, a in word if tag == 0)
                T = tuple(t for tag, t in word if tag == 1)
                E = tuple(a + b for a, b in zip(E1, E2))
                key = (S, T, E)
                table[key] = table.get(key, ZERO) + sign * c1 * c2
        return SuperForm(self.chart, table)

    def form_degree_parts(self) -> dict[int, "SuperForm"]:
        parts: dict[int, dict] = {}
        for (S, T, E), c in self.table.items():
            d = len(T) + sum(E)
            parts.setdefault(d, {})[(S, T, E)] = c
        return {d: SuperForm(self.chart, t, canon=False) for d, t in parts.items()}

    def __repr__(self):
        if not self.table:
            return "0"
        ch = self.chart
        parts = []
        for (S, T, E), c in sorted(self.table.items()):
            factors = [ch.odd_names[a] for a in S]
            factors += [f"d{ch.even[t].name}" for t in T]
            for a, e in enumerate(E):
                if e:
                    factors.append(f"d{ch.odd_names[a]}" + (f"^{e}" if e > 1 else ""))
            mono = "*".join(factors)
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


def superform_is_zero(f: SuperForm, config: Config = DEFAULT_CONFIG) -> VerificationResult:
    return combine_results(is_zero(c, config) for c in f.table.values())


def _d_superform(f: SuperForm) -> SuperForm:
    """The de Rham differential of the graded chart: x -> dx, xdot -> dxdot."""
    chart = f.chart
    table: dict = {}

    def add(key, c):
        if c != 0:
            table[key] = table.get(key, ZERO) + c

    for (S, T, E), c in f.table.items():
        for i, xi in enumerate(chart.even):
            dc = diff(c, xi)
            if dc == 0:
                continue
            # insert dx_i: passes the xdot block (|S| odd symbols), then merges
            # into the dx block
            if i in T:
                continue
            before = sum(1 for t in T if t < i)
            sign = (-1) ** (len(S) + before)
            Tn = tuple(sorted(T + (i,)))
            add((S, Tn, E), sign * dc)
        for p, a in enumerate(S):
            # replace xdot_a by dxdot_a (even, commutes to the E block)
            Sn = S[:p] + S[p + 1 :]
            En = tuple(e + 1 if b == a else e for b, e in enumerate(E))
            add((Sn, T, En), (-1) ** p * c)
    return SuperForm(chart, table)


def _derive_term(chart, key, c, gen_images: Callable, parity: int):
    """Apply a derivation given on generators to one term, by graded Leibniz.

    gen_images(tag, index) returns the image SuperForm of the generator
    (tag 0: xdot, 1: dx, 2: dxdot) or None when it is annihilated.  The
    coefficient c (even) is treated as constant.
    """
    S, T, E = key
    factors: list[tuple[int, int]] = [(0, a) for a in S] + [(1, t) for t in T]
    for a, e in enumerate(E):
        factors.extend([(2, a)] * e)
    out = SuperForm.zero(chart)
    prefix_parity = 0
    for pos, (tag, idx) in enumerate(factors):
        img = gen_images(tag, idx)
        if img is not None and not img.is_zero_sf():
            # rebuild: (factors before) * img * (factors after)
            sign = (-1) ** (parity * prefix_parity)
            term = SuperForm(chart, {((), (), (0,) * chart.r): c}, canon=False)
            for tag2, idx2 in factors[:pos]:
                term = term.mul(_generator_form(chart, tag2, idx2))
            term = term.mul(img)
            for tag2, idx2 in factors[pos + 1 :]:
                term = term.mul(_generator_form(chart, tag2, idx2))
            out = out + term.scale(sign)
        prefix_parity = (prefix_parity + (1 if tag in (0, 1) else 0)) % 2
    return out


def _generator_form(chart: GradedChart, tag: int, idx: int) -> SuperForm:
    E0 = (0,) * chart.r
    one = sp.Integer(1)
    if tag == 0:
        return SuperForm(chart, {((idx,), (), E0): one}, canon=False)
    if tag == 1:
        return SuperForm(chart, {((), (idx,), E0): one}, canon=False)
    E = tuple(1 if a == idx else 0 for a in range(chart.r))
    return SuperForm(chart, {((), (), E): one}, canon=False)


class GradedTensor11:
    """A (1,1) tensor on a graded chart, stored by its coordinate blocks.

    blocks[(c, a)] is the GradedFunction coefficient of d/d(coordinate c)
    in the image of d/d(coordinate a); coordinates are numbered even
    first.  Internal degree d constrains each block's coefficient degree
    to d - |a| + |c| where coordinate parities are 0 or 1.
    """

    __slots__ = ("chart", "degree", "blocks")

    def __init__(self, chart: GradedChart, degree: int,
                 blocks: Mapping[tuple[int, int], GradedFunction]):
        self.chart = chart
        self.degree = degree
        self.blocks = {}
        total = chart.n + chart.r
        for (c, a), f in blocks.items():
            if f.is_zero_fun():
                continue
            want = degree - self._parity(a) + self._parity(c)
            for k in f.table:
                if len(k) != want:
                    raise ValueError(
                        f"block ({c},{a}) has degree {len(k)}, expected {want}"
                    )
            self.blocks[(c, a)] = f
        self._check_range(total)

    def _check_range(self, total):
        for c, a in self.blocks:
            if not (0 <= c < total and 0 <= a < total):
                raise ValueError("block index out of range")

    def _parity(self, idx: int) -> int:
        return 0 if idx < self.chart.n else 1

    def block(self, c: int, a: int) -> GradedFunction:
        return self.blocks.get((c, a), GradedFunction(self.chart, {}))

    def __add__(self, other: "GradedTensor11") -> "GradedTensor11":
        if self.degree != other.degree:
            raise ValueError("adding graded tensors of different degree")
        keys = set(self.blocks) | set(other.blocks)
        return GradedTensor11(
            self.chart, self.degree, {k: self.block(*k) + other.block(*k) for k in keys}
        )

    def __sub__(self, other: "GradedTensor11") -> "GradedTensor11":
        return self + other.scale(-1)

    def scale(self, s: Scalar) -> "GradedTensor11":
        return GradedTensor11(
            self.chart, self.degree, {k: f.scale(s) for k, f in self.blocks.items()}
        )

    def apply_to_field(self, W: GradedVectorField) -> GradedVectorField:
        """Evaluate on a vector field; coefficients multiply from the left."""
        chart = self.chart
        comps = list(W.xcomp) + list(W.ocomp)
        out = [GradedFunction(chart, {}) for _ in range(chart.n + chart.r)]
        for (c, a), f in self.blocks.items():
            if comps[a].is_zero_fun():
                continue
            out[c] = out[c] + comps[a].mul(f)
        return GradedVectorField(
            chart, W.degree + self.degree, out[: chart.n], out[chart.n :]
        )

    def compose(self, other: "GradedTensor11") -> "GradedTensor11":
        """Endomorphism composition self o other (left coefficients)."""
        chart = self.chart
        blocks: dict = {}
        for (c, k), f in self.blocks.items():
            for (k2, a), g in other.blocks.items():
                if k2 != k:
                    continue
                key = (c, a)
                prod = g.mul(f)
                blocks[key] = blocks.get(key, GradedFunction(chart, {})) + prod
        return GradedTensor11(chart, self.degree + other.degree, blocks)

    def entries(self):
        for f in self.blocks.values():
            yield from f.entries()

    def is_zero_tensor(self) -> bool:
        return not self.blocks

    def __repr__(self):
        ch = self.chart
        names = [s.name for s in ch.even] + list(ch.odd_names)
        parts = []
        for (c, a), f in sorted(self.blocks.items()):
            parts.append(f"d{names[a]} (x) ({f}) d/d{names[c]}")
        return " + ".join(parts) if parts else "0"


def gt_is_zero(T: GradedTensor11, config: Config = DEFAULT_CONFIG) -> VerificationResult:
    return combine_results(is_zero(c, config) for c in T.entries())


# -- derivation operators ----------------------------------------------------


class _Derivation:
    """A derivation of the form algebra given by images of the generators
    and of the coordinate functions."""

    def __init__(self, chart: GradedChart, parity: int,
                 on_function: Callable[[SuperForm], SuperForm],
                 gen_images: Callable[[int, int], SuperForm | None]):
        self.chart = chart
        self.parity = parity
        self.on_function = on_function
        self.gen_images = gen_images

    def __call__(self, f: SuperForm) -> SuperForm:
        out = self.on_function(f)
        for key, c in f.table.items():
            out = out + _derive_term(self.chart, key, c, self.gen_images, self.parity)
        return out


def _iota_field(W: GradedVectorField) -> _Derivation:
    """Interior product of a vector field: d(coord) -> component."""
    chart = W.chart

    def gen_images(tag, idx):
        if tag == 1:
            return SuperForm.from_graded_function(W.xcomp[idx])
        if tag == 2:
            return SuperForm.from_graded_function(W.ocomp[idx])
        return None

    def on_function(f):
        return SuperForm.zero(chart)

    return _Derivation(chart, (W.degree + 1) % 2, on_function, gen_images)


def _iota_tensor(K: GradedTensor11) -> _Derivation:
    """Insertion of a (1,1) tensor: d(coord c) -> sum_a block[c,a] d(coord a)."""
    chart = K.chart
    n = chart.n

    def image_of_dcoord(c: int) -> SuperForm:
        out = SuperForm.zero(chart)
        for (c2, a), f in K.blocks.items():
            if c2 != c:
                continue
            tag = 1 if a < n else 2
            idx = a if a < n else a - n
            out = out + SuperForm.from_graded_function(f).mul(_generator_form(chart, tag, idx))
        return out

    def gen_images(tag, idx):
        if tag == 1:
            return image_of_dcoord(idx)
        if tag == 2:
            return image_of_dcoord(idx + n)
        return None

    def on_function(f):
        return SuperForm.zero(chart)

    return _Derivation(chart, K.degree % 2, on_function, gen_images)


def _lie_operator(iota: _Derivation) -> Callable[[SuperForm], SuperForm]:
    """L = iota o d - (-1)^{parity(iota)} d o iota."""
    sign = (-1) ** iota.parity

    def op(f: SuperForm) -> SuperForm:
        return iota(_d_superform(f)) - _d_superform(iota(f)).scale(sign)

    return op


def _lie_parity(obj) -> int:
    if isinstance(obj, GradedVectorField):
        return obj.degree % 2
    return (obj.degree + 1) % 2


def _lie_of(obj) -> Callable[[SuperForm], SuperForm]:
    if isinstance(obj, GradedVectorField):
        return _lie_operator(_iota_field(obj))
    return _lie_operator(_iota_tensor(obj))


def _extract_tensor11(chart: GradedChart, op: Callable, degree: int) -> GradedTensor11:
    """Read off the vector-valued 1-form R with L_R = op from op's values on
    the coordinate functions."""
    blocks: dict = {}
    n, r = chart.n, chart.r
    for c in range(n + r):
        beta = op(SuperForm.coordinate(chart, c))
        for (S, T, E), coeff in beta.table.items():
            if len(T) + sum(E) != 1:
                raise ValueError(f"operator image of coordinate {c} is not a 1-form: {beta}")
            if T:
                a = T[0]
            else:
                a = n + next(i for i, e in enumerate(E) if e)
            f = GradedFunction(chart, {S: coeff})
            key = (c, a)
            blocks[key] = blocks.get(key, GradedFunction(chart, {})) + f
    return GradedTensor11(chart, degree, blocks)


class GradedVV2:
    """A graded vector-valued 2-form, stored by component 2-forms."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: GradedChart, components: Sequence[SuperForm]):
        self.chart = chart
        self.components = list(components)

    def entries(self):
        for f in self.components:
            yield from f.entries()

    def is_zero_vv2(self) -> bool:
        return all(f.is_zero_sf() for f in self.components)

    def evaluate_components(self, W1: GradedVectorField, W2: GradedVectorField) -> list[GradedFunction]:
        """Contract both slots with vector fields (W1 inserted first)."""
        i1, i2 = _iota_field(W1), _iota_field(W2)
        comps = []
        for f in self.components:
            g = i2(i1(f))
            table = {}
            for (S, T, E), c in g.table.items():
                if T or any(E):
                    raise ValueError("contraction did not produce a function")
                table[S] = table.get(S, ZERO) + c
            comps.append(GradedFunction(self.chart, table))
        return comps


def vv2_is_zero(S: GradedVV2, config: Config = DEFAULT_CONFIG) -> VerificationResult:
    return combine_results(is_zero(c, config) for c in S.entries())


def graded_fn_11(K: GradedTensor11, L: GradedTensor11) -> GradedVV2:
    """Graded FN bracket of two vector-valued 1-forms via the derivation
    representation: [K,L] is extracted from [L_K, L_L]."""
    if K.chart != L.chart:
        raise ValueError("FN bracket across charts")
    chart = K.chart
    LK, LL = _lie_of(K), _lie_of(L)
    pK, pL = _lie_parity(K), _lie_parity(L)
    sign = (-1) ** (pK * pL)
    comps = []
    for c in range(chart.n + chart.r):
        f = SuperForm.coordinate(chart, c)
        comps.append(LK(LL(f)) - LL(LK(f)).scale(sign))
    return GradedVV2(chart, comps)


def graded_lie_derivative(Q: GradedVectorField, T: GradedTensor11) -> GradedTensor11:
    """Lie derivative of a graded (1,1) tensor along a homogeneous field.

    Computed through the derivation representation; the commutator order
    [L_T, L_Q] is the convention pinned by the catalog oracle (it makes
    the T^M and ell blocks of the derivative of the vertical endomorphism
    come out positive).
    """
    if Q.chart != T.chart:
        raise ValueError("Lie derivative across charts")
    chart = Q.chart
    LQ, LT = _lie_of(Q), _lie_of(T)
    pQ, pT = _lie_parity(Q), _lie_parity(T)
    sign = (-1) ** (pQ * pT)

    def op(f: SuperForm) -> SuperForm:
        return LT(LQ(f)) - LQ(LT(f)).scale(sign)

    return _extract_tensor11(chart, op, Q.degree + T.degree)


# ---------------------------------------------------------------------------
# constructions


def graded_chart_of(A: AlgebroidData) -> GradedChart:
    """The chart of A[1]: base coordinates plus one odd coordinate per frame
    section."""
    if A.rank == A.base.dim:
        odd = tuple(f"d{c.name}" for c in A.base.coords)
    else:
        odd = tuple(f"w{a + 1}" for a in range(A.rank))
    return GradedChart(f"{A.name}[1]", A.base.coords, odd)


def homological_field(A: AlgebroidData) -> GradedVectorField:
    """Q = rho^i_a xdot^a d/dx^i - (1/2) c^g_{ab} xdot^a xdot^b d/dxdot^g."""
    return homological_field_on(A, graded_chart_of(A))


def homological_field_on(A: AlgebroidData, chart: GradedChart) -> GradedVectorField:
    if chart.n != A.base.dim or chart.r != A.rank:
        raise ValueError("graded chart does not match the algebroid")
    xcomp = [
        GradedFunction(chart, {(al,): A.rho[i][al] for al in range(A.rank)})
        for i in range(A.base.dim)
    ]
    ocomp = []
    for g in range(A.rank):
        table = {}
        for (al, be), comps in A.c.items():
            if comps[g] != 0:
                table[(al, be)] = -comps[g]
        ocomp.append(GradedFunction(chart, table))
    return GradedVectorField(chart, 1, xcomp, ocomp)


def de_rham_field(chart: GradedChart) -> GradedVectorField:
    """xdot^i d/dx^i; requires matching even/odd counts."""
    if chart.n != chart.r:
        raise ValueError("de Rham field needs n = r")
    xcomp = [GradedFunction.odd_coord(chart, i) for i in range(chart.n)]
    ocomp = [GradedFunction(chart, {}) for _ in range(chart.r)]
    return GradedVectorField(chart, 1, xcomp, ocomp)


def euler_field(chart: GradedChart) -> GradedVectorField:
    """xdot^a d/dxdot^a, degree 0."""
    xcomp = [GradedFunction(chart, {}) for _ in range(chart.n)]
    ocomp = [GradedFunction.odd_coord(chart, a) for a in range(chart.r)]
    return GradedVectorField(chart, 0, xcomp, ocomp)


def vertical_endomorphism(chart: GradedChart) -> GradedTensor11:
    """V = dx^i (x) d/dxdot^i, internal degree -1."""
    if chart.n != chart.r:
        raise ValueError(f"vertical endomorphism needs n = r, got {chart.n} != {chart.r}")
    one = GradedFunction.scalar(chart, sp.Integer(1))
    return GradedTensor11(chart, -1, {(chart.n + i, i): one for i in range(chart.n)})


def core_lift(chart: GradedChart, U: BundleMapU) -> GradedTensor11:
    """The degree -1 tensor with dx -> d/dxdot block equal to U's matrix."""
    if U.dim_cols != chart.n or U.rank_rows != chart.r:
        raise ValueError("bundle map shape does not match the graded chart")
    blocks = {}
    for al in range(chart.r):
        for i in range(chart.n):
            e = U.matrix[al][i]
            if e != 0:
                blocks[(chart.n + al, i)] = GradedFunction.scalar(chart, e)
    return GradedTensor11(chart, -1, blocks)


def linear_lift(chart: GradedChart, triple: IMTriple) -> GradedTensor11:
    """The degree-0 tensor of a triple (D, ell, T^M): T^M in the dx -> d/dx
    block, ell in the dxdot -> d/dxdot block and D in the dx -> d/dxdot
    block weighted by odd coordinates.

    The D block carries a minus sign; this is the unique sign for which
    the Lie derivative of the vertical endomorphism along a
    deformed-structure field equals the lift of the tangent-lift triple.
    """
    n, r = chart.n, chart.r
    tm = triple.tm.matrix()
    blocks: dict = {}
    for i in range(n):
        for j in range(n):
            if tm[i][j] != 0:
                blocks[(i, j)] = GradedFunction.scalar(chart, tm[i][j])
    for al in range(r):
        for be in range(r):
            if triple.ell[al][be] != 0:
                blocks[(n + al, n + be)] = GradedFunction.scalar(chart, triple.ell[al][be])
    for al in range(r):
        for i in range(n):
            table = {}
            for g in range(r):
                c = triple.frame_action[g].values[i].components[al]
                if c != 0:
                    table[(g,)] = table.get((g,), ZERO) - c
            f = GradedFunction(chart, table)
            if not f.is_zero_fun():
                key = (n + al, i)
                blocks[key] = blocks.get(key, GradedFunction(chart, {})) + f
    return GradedTensor11(chart, 0, blocks)


# ---------------------------------------------------------------------------
# checks


def check_homological(Q: GradedVectorField, config: Config = DEFAULT_CONFIG) -> VerificationResult:
    """is_zero on every component of [Q, Q]."""
    if Q.degree != 1:
        raise ValueError("homological check needs a degree-1 field")
    return gvf_is_zero(graded_commutator(Q, Q), config)


def euler_check(chart: GradedChart, Q: GradedVectorField | None = None,
                config: Config = DEFAULT_CONFIG) -> CheckReport:
    """i_{d_dR} V = Euler field, plus the forcing direction on a supplied Q."""
    report = CheckReport(f"Euler contraction on {chart.name}")
    V = vertical_endomorphism(chart)
    E = euler_field(chart)
    d = de_rham_field(chart)
    report.add("iota_dR_V_equals_euler", gvf_is_zero(V.apply_to_field(d) - E, config))
    if Q is not None:
        if Q.degree != 1:
            raise ValueError("supplied field must have degree 1")
        contraction = gvf_is_zero(V.apply_to_field(Q) - E, config)
        report.add("iota_Q_V_equals_euler", contraction)
        delta = [
            [sp.Integer(1) if i == j else ZERO for j in range(chart.n)]
            for i in range(chart.n)
        ]
        anchor_res = []
        for i in range(chart.n):
            for j in range(chart.r):
                got = Q.xcomp[i].table.get((j,), ZERO)
                anchor_res.append(is_zero(got - delta[i][j], config))
        anchor = combine_results(anchor_res)
        report.add("anchor_is_identity", anchor)
        agree = contraction.holds == anchor.holds
        report.add(
            "forcing[iota-condition iff anchor=I]",
            proved_zero() if agree else proved_nonzero("the two conditions disagree"),
        )
    return report


def almost_tangent_check(T: GradedTensor11, config: Config = DEFAULT_CONFIG) -> CheckReport:
    """ker = im for a degree -1 tensor, by symbolic rank of the body block."""
    report = CheckReport("almost tangent structure")
    chart = T.chart
    n, r = chart.n, chart.r
    if T.degree != -1:
        raise ValueError("almost tangent check needs internal degree -1")
    B = [[T.block(n + al, i).table.get((), ZERO) for i in range(n)] for al in range(r)]
    elim = linalg.eliminate(B)
    full = elim.rank == n and n == r
    report.add(
        "ker_equals_im",
        proved_zero() if full else proved_nonzero(f"body block rank {elim.rank} of {n}"),
    )
    if elim.localization:
        report.note(f"rank is generic; localized away from: {', '.join(elim.localization)}")
    report.add("squares_to_zero", gt_is_zero(T.compose(T), config))
    return report


def de_rham_field_identified(chart: GradedChart, U: BundleMapU) -> GradedVectorField:
    """The pushforward of the de Rham field along the graded diffeomorphism
    (x, xdot) -> (x, U(x) xdot) induced by an invertible U."""
    n, r = chart.n, chart.r
    if n != r:
        raise ValueError("identification needs rank = dim")
    Uinv = linalg.invert([list(row) for row in U.matrix])
    xcomp = [
        GradedFunction(chart, {(b,): Uinv[i][b] for b in range(r)}) for i in range(n)
    ]
    ocomp = []
    for al in range(r):
        # d_dR(U^al_j xdot^j) = d_i U^al_j xdot^i xdot^j, then substitute
        # xdot^i -> (U^{-1})^i_b xdot^b
        acc = GradedFunction(chart, {})
        for i in range(n):
            for j in range(r):
                coeff = diff(U.matrix[al][j], chart.even[i])
                if coeff == 0:
                    continue
                fi = GradedFunction(chart, {(b,): Uinv[i][b] for b in range(r)})
                fj = GradedFunction(chart, {(b,): Uinv[j][b] for b in range(r)})
                acc = acc + fi.mul(fj).scale(coeff)
        ocomp.append(acc)
    return GradedVectorField(chart, 1, xcomp, ocomp)


def theorem1_check(A: AlgebroidData, U: BundleMapU,
                   config: Config = DEFAULT_CONFIG) -> CheckReport:
    """Both graded characterizations of deformed-structure algebroids.

    Reports, for the homological field Q of A and V = core lift of U:
    invertibility of U, the almost tangent property of V, homologicity of
    Q, [[Q,V],V] = 0, [d_dR, Q] = 0 after the U-identification, the two
    theorem forms as conjunctions with homologicity, and the lift identity
    L_Q V = linear_lift(lemma_triple(A, U)).
    """
    if A.rank != A.base.dim:
        raise ValueError(f"{A.name}: theorem needs rank = dim, got {A.rank} != {A.base.dim}")
    report = CheckReport(f"theorem 1 on {A.name}")
    chart = graded_chart_of(A)
    Q = homological_field_on(A, chart)
    V = core_lift(chart, U)

    inv_rank = linalg.rank([list(row) for row in U.matrix])
    report.add(
        "U_invertible",
        proved_zero() if inv_rank == A.rank else proved_nonzero(f"rank {inv_rank}"),
    )
    at = almost_tangent_check(V, config)
    report.extend(at, "almost_tangent.")
    report.add("VV_bracket", vv2_is_zero(graded_fn_11(V, V), config))

    homological = check_homological(Q, config)
    report.add("homological", homological)

    K = graded_lie_derivative(Q, V)
    vvq = vv2_is_zero(graded_fn_11(K, V), config)
    report.add("VVQ_bracket", vvq)
    report.add("theorem1_form1", combine_results([homological, vvq]))

    if inv_rank == A.rank:
        W = de_rham_field_identified(chart, U)
        drc = gvf_is_zero(graded_commutator(W, Q), config)
        report.add("dR_commutes", drc)
        report.add("theorem1_form2", combine_results([homological, drc]))
    else:
        report.add("dR_commutes", proved_nonzero("U not invertible; no identification"))
        report.add("theorem1_form2", proved_nonzero("U not invertible"))

    lift = linear_lift(chart, lemma_triple(A, U))
    report.add("lift_identity", gt_is_zero(K - lift, config))
    return report
