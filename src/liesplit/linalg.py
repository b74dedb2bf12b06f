"""Exact dense linear algebra over the rationals.

Entries pass through the one coercion :func:`liesplit.rationals.scalar`:
an ``int`` when integral, a ``Fraction`` otherwise, and a ``float`` raises
``TypeError``.  Solutions and nullspace vectors follow the same rule.

Rank, nullspace, and solving all run through fraction-free (Bareiss)
elimination on integer rows: each row is first scaled by the common
denominator of its entries (which changes neither the row space nor the
nullspace), then eliminated with the two-step Bareiss rule so
intermediate entries stay bounded by minors of the input.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .rationals import QQ, common_denominator, exact, scalar


class Matrix:
    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = tuple(tuple(map(scalar, row)) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "Matrix":
        return cls(list(zip(*cols)))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    def matvec(self, v: Sequence) -> tuple:
        v = [scalar(x) for x in v]
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        return tuple(exact(sum(map(mul, row, v))) for row in self.rows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        return Matrix([[sum(map(mul, row, col)) for col in cols] for row in self.rows])

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, c) -> "Matrix":
        c = scalar(c)
        return Matrix([[x * c for x in row] for row in self.rows])

    def is_skew(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return all(
            self.rows[i][j] == -self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i, self.ncols)
        )

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({[list(map(str, row)) for row in self.rows]})"


def _integer_rows(m: Matrix) -> list[list[int]]:
    out = []
    for row in m.rows:
        d = common_denominator(row)
        out.append([x.numerator * (d // x.denominator) for x in row] if d != 1 else list(row))
    return out


def _bareiss_echelon(rows: list[list[int]], ncols: int):
    """Fraction-free elimination; returns (pivot list [(row, col)], echelon rows)."""
    rows = [row[:] for row in rows]
    nrows = len(rows)
    pivots: list[tuple[int, int]] = []
    prev = 1
    pr = 0
    for pc in range(ncols):
        pivot_row = None
        for r in range(pr, nrows):
            if rows[r][pc]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != pr:
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        piv = rows[pr][pc]
        for r in range(pr + 1, nrows):
            # the update must run even when v == 0 to keep divisions exact
            v = rows[r][pc]
            row_r = rows[r]
            row_p = rows[pr]
            for c in range(ncols):
                row_r[c] = (row_r[c] * piv - row_p[c] * v) // prev
        prev = piv
        pivots.append((pr, pc))
        pr += 1
        if pr == nrows:
            break
    return pivots, rows


def rank(m: Matrix) -> int:
    pivots, _ = _bareiss_echelon(_integer_rows(m), m.ncols)
    return len(pivots)


def rank_and_nullspace(m: Matrix):
    """Exact rank and a basis of the right nullspace.

    rank + len(basis) == ncols; every basis vector v satisfies M v = 0.
    """
    ncols = m.ncols
    pivots, ech = _bareiss_echelon(_integer_rows(m), ncols)
    pivot_cols = [pc for _, pc in pivots]
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        x = [0] * ncols
        x[f] = 1
        for r in range(len(pivots) - 1, -1, -1):
            pr, pc = pivots[r]
            s = 0
            row = ech[pr]
            for c in range(pc + 1, ncols):
                if row[c] and x[c]:
                    s = s + row[c] * x[c]
            x[pc] = exact(-s / QQ(row[pc]))
        basis.append(tuple(x))
    return len(pivots), basis


def solve(m: Matrix, b: Sequence):
    """One exact solution of M x = b (free variables at 0), or None."""
    sols = solve_many(m, [list(b)])
    return sols[0] if sols is not None else None


def solve_many(m: Matrix, bs: Sequence[Sequence]):
    """Solve M x = b for several right-hand sides at once; None if any is inconsistent."""
    ncols = m.ncols
    k = len(bs)
    aug = Matrix([list(row) + [bs[t][i] for t in range(k)] for i, row in enumerate(m.rows)])
    pivots, ech = _bareiss_echelon(_integer_rows(aug), aug.ncols)
    for pr, pc in pivots:
        if pc >= ncols:
            return None
    sols = []
    for t in range(k):
        x = [0] * ncols
        for r in range(len(pivots) - 1, -1, -1):
            pr, pc = pivots[r]
            row = ech[pr]
            s = row[ncols + t]
            for c in range(pc + 1, ncols):
                if row[c] and x[c]:
                    s = s - row[c] * x[c]
            x[pc] = exact(s / QQ(row[pc]))
        sols.append(tuple(x))
    return sols


def inverse(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise ValueError("not square")
    # for square M, M X = I is consistent exactly when M is nonsingular
    cols = solve_many(m, [[int(i == j) for i in range(m.nrows)] for j in range(m.nrows)])
    if cols is None:
        raise ValueError("matrix is singular")
    return Matrix.from_columns(cols)
