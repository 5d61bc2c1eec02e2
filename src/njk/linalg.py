"""Symbolic Gaussian elimination over the rational function field.

Entries are Scalars; a pivot counts as nonzero when its canonical form is
a nonzero rational function (opaque applications are treated as
independent transcendentals).  Every non-constant pivot is recorded so
callers can report the localization locus: results are valid wherever no
recorded pivot vanishes.

A matrix that is solved against many right-hand sides is factored once:
``Solver(A)`` eliminates [A | I], records the row operations T in the
identity block, and then solves each A x = b by applying T to b.  The
zero check for consistency residuals is supplied with each right-hand
side, not with the factorization.  ``solve`` and ``invert`` are thin
wrappers around it, so there is one elimination-based solving path.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from .scalars import Scalar, ZERO, canonical


@dataclass
class Elimination:
    """Reduced row echelon data for a matrix over the rational function field."""

    rows: list[list[Scalar]]
    pivots: list[tuple[int, int]]
    pivot_exprs: list[Scalar]
    ncols: int

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def localization(self) -> list[str]:
        """Non-constant pivots; results are generic away from their zeros."""
        return sorted({str(p) for p in self.pivot_exprs if not p.is_Rational})


def eliminate(matrix: list[list[Scalar]], pivot_limit: int | None = None) -> Elimination:
    """Gauss-Jordan elimination; pivots are chosen only in the first
    ``pivot_limit`` columns (all columns by default), preferring constant
    pivots, then low operation count, then low row index."""
    rows = [[sp.sympify(e) for e in row] for row in matrix]
    if not rows:
        return Elimination([], [], [], 0)
    ncols = len(rows[0])
    limit = ncols if pivot_limit is None else pivot_limit
    pivots: list[tuple[int, int]] = []
    pivot_exprs: list[Scalar] = []
    lead = 0
    for col in range(limit):
        best = None
        for r in range(lead, len(rows)):
            c = canonical(rows[r][col])
            rows[r][col] = c
            if c == 0:
                continue
            score = (0 if c.is_Rational else 1, sp.count_ops(c), r)
            if best is None or score < best[0]:
                best = (score, r, c)
        if best is None:
            continue
        _, r, pexpr = best
        rows[lead], rows[r] = rows[r], rows[lead]
        pivots.append((lead, col))
        pivot_exprs.append(pexpr)
        for r2 in range(len(rows)):
            if r2 == lead:
                continue
            factor = canonical(rows[r2][col] / pexpr)
            if factor == 0:
                continue
            rows[r2] = [canonical(a - factor * b) for a, b in zip(rows[r2], rows[lead])]
        lead += 1
        if lead == len(rows):
            break
    return Elimination(rows, pivots, pivot_exprs, ncols)


def rank(matrix: list[list[Scalar]]) -> int:
    """Generic rank over the rational function field."""
    return eliminate(matrix).rank


def nullspace(matrix: list[list[Scalar]]) -> list[list[Scalar]]:
    """Basis of the right kernel, canonicalized, in free-column order."""
    elim = eliminate(matrix)
    pivot_cols = {c: r for r, c in elim.pivots}
    free_cols = [c for c in range(elim.ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [ZERO] * elim.ncols
        vec[fc] = sp.Integer(1)
        for r, c in elim.pivots:
            vec[c] = canonical(-elim.rows[r][fc] / elim.rows[r][c])
        basis.append(vec)
    return basis


class InconsistentSystem(ValueError):
    pass


class Solver:
    """A x = b for one matrix A and any number of right-hand sides b.

    [A | I] is eliminated once, with pivots chosen only among A's columns,
    so the identity block ends up holding the row operations T that
    eliminate([A | b]) would apply to b.  Each call applies T to b, checks
    the rows without a pivot for consistency and divides by the pivots;
    since canonical forms are normal forms, the result equals the one of a
    fresh elimination of [A | b].
    """

    def __init__(self, matrix: list[list[Scalar]]):
        self.ncols = len(matrix[0])
        nrows = len(matrix)
        one = sp.Integer(1)
        aug = [
            list(row) + [one if i == j else ZERO for j in range(nrows)]
            for i, row in enumerate(matrix)
        ]
        elim = eliminate(aug, pivot_limit=self.ncols)
        self.rank = elim.rank
        self.transform = [row[self.ncols:] for row in elim.rows]
        self.pivots = [(r, c, elim.rows[r][c]) for r, c in elim.pivots]
        self.pivot_rows = {r for r, _ in elim.pivots}

    def __call__(self, rhs: list[Scalar], zero_check=None) -> list[Scalar]:
        """Solve A x = rhs exactly; rhs may contain free symbolic parameters.

        The system must be consistent as an identity of rational functions
        (otherwise InconsistentSystem).  Free columns are set to zero, so
        the solution is the unique one when A has full column rank.
        zero_check, when given, decides consistency residuals that are not
        canonically zero (needed when opaque atoms satisfy hidden
        relations).
        """
        terms = [(j, b) for j, b in enumerate(rhs) if b != 0]
        y = [
            canonical(sp.Add(*[row[j] * b for j, b in terms if row[j] != 0]))
            for row in self.transform
        ]
        for r, residual in enumerate(y):
            if r in self.pivot_rows or residual == 0:
                continue
            if zero_check is not None and zero_check(residual):
                continue
            raise InconsistentSystem(f"row {r}: 0 = {residual}")
        sol = [ZERO] * self.ncols
        for r, c, pivot in self.pivots:
            sol[c] = canonical(y[r] / pivot)
        return sol


def solve(matrix: list[list[Scalar]], rhs: list[Scalar],
          zero_check=None) -> list[Scalar]:
    """Solve A x = b once; see ``Solver`` for the contract."""
    return Solver(matrix)(rhs, zero_check)


def invert(matrix: list[list[Scalar]]) -> list[list[Scalar]]:
    """Inverse over the rational function field; raises if rank-deficient."""
    n = len(matrix)
    solver = Solver(matrix)
    if solver.rank != n:
        raise ValueError("matrix is not invertible over the function field")
    cols = [solver([sp.Integer(1) if i == j else ZERO for i in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[Scalar]], b: list[list[Scalar]]) -> list[list[Scalar]]:
    return [
        [sp.Add(*[a[i][k] * b[k][j] for k in range(len(b))]) for j in range(len(b[0]))]
        for i in range(len(a))
    ]
