import dataclasses

import pytest
import sympy as sp

from njk.algebroids import BundleMapU
from njk.catalog import build, pair_groupoid, projection_groupoid, tm_plus
from njk.groupoids import (
    Cochain,
    algebroid_of,
    check_axioms,
    cochain_is_zero,
    delta_0,
    delta_minus1,
    left_lift,
    lemma_check,
    multiplicative_check,
    right_lift,
    theorem2_check,
)
from njk import groupoids
from njk.scalars import ZERO, Config, canonical, var
from njk.tensors import Chart, SmoothMap, VVForm, vvform_is_zero

PAIR = pair_groupoid(2)
TM = tm_plus(2)
PROJ = projection_groupoid(1, 1)


# -- axioms --------------------------------------------------------------------


def test_pair_axioms_all_proved():
    report = check_axioms(PAIR.presentation)
    assert report.passed
    assert all(item.result.verdict == "ProvedZero" for item in report.items)


def test_corrupted_multiplication_fails_unit_law():
    P = PAIR.presentation
    bad_m = SmoothMap(
        "m", P.G2, P.G, [P.m.components[0], P.m.components[1], -P.m.components[2], P.m.components[3]]
    )
    corrupted = dataclasses.replace(P, m=bad_m)
    report = check_axioms(corrupted)
    assert not report.passed
    failing = [i for i in report.items if not i.result.holds]
    assert any("unit_law" in i.name for i in failing)
    assert all(i.result.verdict == "ProvedNonzero" for i in failing)


def test_missing_g3_reports_skip():
    P = dataclasses.replace(PAIR.presentation, G3=None, q12=None, q23=None)
    report = check_axioms(P)
    assert report.passed
    assert any("associativity: skipped" in n for n in report.notes)


# -- algebroid of a presentation -------------------------------------------------


def test_pair_groupoid_integrates_tangent_algebroid():
    A = algebroid_of(PAIR.presentation)
    n = 2
    for i in range(n):
        for al in range(n):
            assert canonical(A.rho[i][al] - (1 if i == al else 0)) == 0
    assert not A.c


def test_tm_plus_integrates_abelian():
    A = algebroid_of(TM.presentation)
    assert all(canonical(e) == 0 for row in A.rho for e in row)
    assert not A.c


def test_prelie_groupoid_algebroid_anchor_is_action_fields():
    entry = build("prelie")
    A = algebroid_of(entry.presentation)
    # engine convention: anchor of the kernel frame is +(a |> x); the
    # catalog compensates with U = -identity
    x = entry.presentation.M.coords
    assert canonical(A.rho[1][0] - x[0]) == 0
    assert not A.c


# -- lifts -----------------------------------------------------------------------


def test_right_lift_routes_agree_on_catalog():
    for entry in (TM, PAIR, PROJ):
        a = right_lift(entry.presentation, entry.bundle_map, route="dm")
        b = right_lift(entry.presentation, entry.bundle_map, route="frame")
        assert vvform_is_zero(a - b).holds


def test_tm_plus_right_lift_is_vertical_endomorphism():
    R = right_lift(TM.presentation, TM.bundle_map)
    assert vvform_is_zero(R - TM.expected["right_lift"]).verdict == "ProvedZero"
    L = left_lift(TM.presentation, TM.bundle_map)
    assert vvform_is_zero(L + TM.expected["right_lift"]).verdict == "ProvedZero"


def test_pair_lifts_are_factor_projections():
    R = right_lift(PAIR.presentation, PAIR.bundle_map)
    L = left_lift(PAIR.presentation, PAIR.bundle_map)
    assert vvform_is_zero(R - PAIR.expected["right_lift"]).holds
    assert vvform_is_zero(L - PAIR.expected["left_lift"]).holds


def test_projection_lift_tables():
    R = right_lift(PROJ.presentation, PROJ.bundle_map)
    L = left_lift(PROJ.presentation, PROJ.bundle_map)
    assert vvform_is_zero(R - PROJ.expected["right_lift"]).holds
    assert vvform_is_zero(L - PROJ.expected["left_lift"]).holds


# -- delta ----------------------------------------------------------------------


def test_delta_minus1_closed_forms():
    assert delta_minus1(TM.presentation, TM.bundle_map).is_zero_form()
    dpair = delta_minus1(PAIR.presentation, PAIR.bundle_map)
    assert vvform_is_zero(dpair - VVForm.identity(PAIR.presentation.G)).holds
    dproj = delta_minus1(PROJ.presentation, PROJ.bundle_map)
    assert vvform_is_zero(dproj - PROJ.expected["delta_U"]).holds


def test_delta0_of_multiplicative_tensor_vanishes():
    P = PAIR.presentation
    cochain, wf = delta_0(P, VVForm.identity(P.G))
    assert wf.passed
    assert cochain_is_zero(cochain).verdict == "ProvedZero"


def test_delta_squared_zero_on_catalog():
    for entry in (TM, PAIR, PROJ):
        P = entry.presentation
        dU = delta_minus1(P, entry.bundle_map)
        cochain, _ = delta_0(P, dU)
        assert cochain_is_zero(cochain).verdict == "ProvedZero"


def test_delta0_nonzero_for_non_multiplicative_tensor():
    P = PAIR.presentation
    a1 = P.G.coords[0]
    T = VVForm(P.G, 1, {((0,), 0): a1})
    cochain, _ = delta_0(P, T)
    res = cochain_is_zero(cochain)
    assert res.verdict == "ProvedNonzero"


# -- multiplicativity -------------------------------------------------------------


def test_multiplicative_check_accepts_delta_and_identity():
    P = PAIR.presentation
    dU = delta_minus1(P, PAIR.bundle_map)
    assert multiplicative_check(P, dU).passed
    assert multiplicative_check(P, VVForm.identity(P.G)).passed


def test_multiplicative_check_rejects_mutated_tensor_with_witness():
    P = PAIR.presentation
    a1 = P.G.coords[0]
    T = VVForm(P.G, 1, {((0,), 0): a1})
    report = multiplicative_check(P, T)
    assert not report.passed
    assert report.get("paths_agree[direct iff delta0]").holds
    failing = [i for i in report.items if not i.result.holds]
    assert failing and all(i.result.verdict == "ProvedNonzero" for i in failing)


def test_kappa_pushforward_is_multiplicative_on_ttb():
    entry = build("double_tangent")
    P = entry.presentation
    assert multiplicative_check(P, entry.expected["delta_U"]).passed


# -- theorem 2 ---------------------------------------------------------------------


def test_theorem2_requires_doubled_dimension():
    M = Chart.make("M", "x")
    G = Chart.make("G", "y")
    x, y = M.coords[0], G.coords[0]
    ident_pair = SmoothMap("e", G, Chart.make("G2t", "z"), [y])
    G2 = Chart.make("G2t", "z")
    z = G2.coords[0]
    trivial = SmoothMap("p", G2, G, [z])
    P = dataclasses.replace(
        PAIR.presentation,
        name="trivial",
        G=G,
        M=M,
        s=SmoothMap("s", G, M, [y]),
        t=SmoothMap("t", G, M, [y]),
        u=SmoothMap("u", M, G, [x]),
        i=SmoothMap("i", G, G, [y]),
        G2=G2,
        p1=trivial,
        p2=trivial,
        m=trivial,
        unit_left=SmoothMap("ul", G, G2, [y]),
        unit_right=SmoothMap("ur", G, G2, [y]),
        inv_left=SmoothMap("il", G, G2, [y]),
        inv_right=SmoothMap("ir", G, G2, [y]),
        mi_pair=SmoothMap("mi", G2, G2, [z]),
        G3=None,
        q12=None,
        q23=None,
    )
    result = theorem2_check(P, BundleMapU.identity(1))
    assert not result.report.passed
    assert any("unachievable" in n for n in result.report.notes)


def test_theorem2_pair_extracts_identity_operator():
    result = theorem2_check(PAIR.presentation, PAIR.bundle_map)
    assert result.report.passed
    assert vvform_is_zero(result.N - VVForm.identity(PAIR.presentation.M)).holds


def test_theorem2_projection_extracts_projection():
    result = theorem2_check(PROJ.presentation, PROJ.bundle_map)
    assert result.report.passed
    assert vvform_is_zero(result.N - PROJ.expected["N"]).holds


# -- lemma -------------------------------------------------------------------------


def test_lemma_check_pair_both_sides_zero():
    report = lemma_check(PAIR.presentation, PAIR.bundle_map)
    assert report.passed
    assert all(item.result.verdict == "ProvedZero" for item in report.items)


def test_lemma_check_projection():
    assert lemma_check(PROJ.presentation, PROJ.bundle_map).passed


# -- translator reuse -----------------------------------------------------------


def test_one_translator_per_embedding(monkeypatch):
    built = []
    init = groupoids._Translator.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groupoids._Translator, "__init__", counting)
    report = build("pair_groupoid").verify(Config(seed=0))
    assert report.passed
    # unit_left, unit_right, mi_pair and the identity of G2
    assert len(built) <= 4
