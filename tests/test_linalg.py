import pytest
import sympy as sp
from hypothesis import given
from hypothesis import strategies as st

from njk import linalg
from njk.linalg import (
    InconsistentSystem,
    Solver,
    eliminate,
    invert,
    mat_mul,
    nullspace,
    rank,
    solve,
)
from njk.scalars import ZERO, Config, canonical, is_zero, opaque, register_builtin, var

x, y = var("x"), var("y")


def test_rank_constant():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2


def test_rank_function_field_is_generic():
    # pivot x is generically nonzero; rank 2 away from x = 0
    m = [[x, ZERO], [ZERO, sp.Integer(1)]]
    elim = eliminate(m)
    assert elim.rank == 2
    assert elim.localization == ["x"]


def test_nullspace():
    m = [[sp.Integer(1), sp.Integer(0), x]]
    basis = nullspace(m)
    assert len(basis) == 2
    for vec in basis:
        out = sp.Add(*[m[0][j] * vec[j] for j in range(3)])
        assert canonical(out) == 0


def test_solve_with_parameters():
    a, b = var("pa"), var("pb")
    m = [[sp.Integer(1), sp.Integer(1)], [sp.Integer(0), sp.Integer(1)]]
    sol = solve(m, [a + b, b])
    assert [canonical(s) for s in sol] == [canonical(a), canonical(b)]


def test_solve_detects_inconsistency():
    a = var("pa")
    m = [[sp.Integer(1)], [sp.Integer(1)]]
    try:
        solve(m, [a, a + 1])
    except InconsistentSystem:
        pass
    else:
        raise AssertionError("expected InconsistentSystem")


def test_invert_function_field():
    m = [[sp.Integer(1), x], [ZERO, sp.Integer(1) + x**2]]
    inv = invert(m)
    prod = mat_mul(m, inv)
    for i in range(2):
        for j in range(2):
            assert canonical(prod[i][j] - (1 if i == j else 0)) == 0


def test_invert_singular_raises():
    with pytest.raises(ValueError):
        invert([[x, y], [x * y, y**2]])


def test_invert_runs_one_elimination(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(linalg, "eliminate", counting)
    m = [[sp.Integer(1), x, ZERO], [y, sp.Integer(1) + x**2, ZERO], [ZERO, x * y, 1 / (1 + y)]]
    inv = invert(m)
    assert len(calls) == 1
    prod = mat_mul(m, inv)
    for i in range(3):
        for j in range(3):
            assert canonical(prod[i][j] - (1 if i == j else 0)) == 0


# -- before/after: one factorization against a fresh elimination per rhs -------


def reference_solve(matrix, rhs, zero_check=None):
    """The elimination of [A | b] per right-hand side, as solve did before
    the factorization was stored (kept verbatim as the oracle)."""
    ncols = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    elim = eliminate(aug, pivot_limit=ncols)
    pivot_rows = {r for r, _ in elim.pivots}
    for r in range(len(elim.rows)):
        residual = canonical(elim.rows[r][ncols])
        if r in pivot_rows or residual == 0:
            continue
        if zero_check is not None and zero_check(residual):
            continue
        raise InconsistentSystem(f"row {r}: 0 = {residual}")
    sol = [ZERO] * ncols
    for r, c in elim.pivots:
        sol[c] = canonical(elim.rows[r][ncols] / elim.rows[r][c])
    return sol


MONOMIALS = (sp.Integer(1), x, y, x * y)
PARAM = var("pa")

# small polynomials in QQ[x, y]
polys = st.lists(st.integers(-2, 2), min_size=len(MONOMIALS), max_size=len(MONOMIALS)).map(
    lambda cs: sp.Add(*[c * m for c, m in zip(cs, MONOMIALS) if c])
)
# about two entries in three are zero, so pivots must be searched for
entries = st.one_of(st.just(ZERO), st.just(ZERO), polys)


@st.composite
def systems(draw):
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    A = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        # rank deficiency: the last row is a combination of the others
        coeffs = [draw(polys) for _ in range(nrows - 1)]
        A[-1] = [sp.Add(*[c * row[j] for c, row in zip(coeffs, A)]) for j in range(ncols)]
    rhss = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            # consistent: b = A x0, x0 with rational-function entries
            x0 = [draw(polys) / (1 + draw(st.sampled_from(MONOMIALS[1:]))) for _ in range(ncols)]
            rhss.append([sp.Add(*[a * v for a, v in zip(row, x0)]) for row in A])
        else:
            # arbitrary, with a free parameter: inconsistent unless A is onto
            rhss.append([draw(polys) + draw(st.integers(-1, 1)) * PARAM for _ in range(nrows)])
    return A, rhss


def _outcome(f, *args):
    try:
        return ("solution", f(*args))
    except InconsistentSystem as err:
        return ("inconsistent", str(err))


@given(systems())
def test_solver_matches_fresh_elimination(system):
    A, rhss = system
    solver = Solver(A)
    for b in rhss:
        want = _outcome(reference_solve, A, b)
        assert _outcome(solver, b) == want
        assert _outcome(solve, A, b) == want


def test_opaque_residual_needs_zero_check():
    register_builtin("sin")
    register_builtin("cos")
    s, c = opaque("sin")(x), opaque("cos")(x)
    A = [[sp.Integer(1)], [sp.Integer(1)]]
    b = [s**2 + c**2, sp.Integer(1)]

    def check(e):
        return is_zero(e, Config(seed=0)).holds

    with pytest.raises(InconsistentSystem) as err:
        Solver(A)(b)
    with pytest.raises(InconsistentSystem) as ref_err:
        reference_solve(A, b)
    assert str(err.value) == str(ref_err.value)
    assert Solver(A)(b, check) == reference_solve(A, b, check) == [canonical(s**2 + c**2)]
