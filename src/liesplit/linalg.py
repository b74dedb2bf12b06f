"""Exact linear algebra over the rationals: dense matrices, sparse elimination.

Entries pass through the one coercion :func:`liesplit.rationals.scalar`:
an ``int`` when integral, a ``Fraction`` otherwise, and a ``float`` raises
``TypeError`` (a row of plain ints already follows the rule and is kept
as it is).  Solutions and nullspace vectors follow the same rule.

Rank, nullspace and solving all run through one sparse fraction-free
echelon routine.  Each row is scaled by the common denominator of its
entries (which changes neither the row space nor the nullspace) and kept
as {column: int} of its nonzero entries.  Columns are taken left to
right; the pivot of a column is the row with the fewest nonzeros among
the rows that have an entry there, and only those rows are updated.

This is Bareiss's elimination (Math. Comp. 22, 1968) made lazy.  Eager
Bareiss updates every remaining row r at step k, with pivot row P, pivot
p_k and pivot-column entry v of r, to (p_k r - v P) / p_(k-1); every
stored entry is then a minor of the input, so the division is exact.
For v = 0 the update only multiplies r by p_k / p_(k-1), and these
factors telescope: a row last updated at step m holds its eager value
times p_m / p_k.  So each row keeps p_m, the pivot of its last update
(1 before any), and its next update is (p r - v P) // p_m with P and p
at their eager values.  That quotient is the eager row, a row of minors,
so the division is exact, and so is bringing a stale pivot row to its
eager value (times p_k / p_m).  Whatever rows are picked, the pivot
columns are the greedy leftmost column basis, so the nullspace vectors
(1 at one free column, 0 at the others) and the solutions (free
variables at 0) are unique, and one back-substitution gives both.

:func:`rank_mod_p` runs the same column sweep modulo the prime
P = 2^61 - 1.  An r x r minor that is nonzero modulo P is nonzero over
the integers, so it is a lower bound on the rank, equal to it unless P
divides every r x r minor of the cleared rows, r = rank(M).  It serves
the sampled certificates that need a rank only from below.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .rationals import QQ, common_denominator, exact, scalar


class Matrix:
    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = tuple(tuple(row) if {*map(type, row)} <= {int} else tuple(map(scalar, row))
                          for row in rows)
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


def _integer_rows(m: Matrix) -> list[dict]:
    """Each row scaled by the common denominator of its entries, as {col: int} of the nonzeros."""
    out = []
    for row in m.rows:
        d = common_denominator(row)
        if d == 1:
            out.append({c: x for c, x in enumerate(row) if x})
        else:
            out.append({c: x.numerator * (d // x.denominator) for c, x in enumerate(row) if x})
    return out


def _echelon(rows: list[dict], ncols: int):
    """Sparse fraction-free elimination over columns 0 .. ncols-1 of the int rows ``rows``.

    Returns ([(pivot column, pivot row)] by increasing column, the rows left
    over).  A pivot row vanishes left of its pivot column; a left-over row
    vanishes in every column below ``ncols``.  See the module docstring for
    the update rule and why its division is exact.
    """
    # rows by leading column, each with the pivot of its last update (its Bareiss divisor)
    waiting: dict[int, list] = {}
    for row in rows:
        if row:
            waiting.setdefault(min(row), []).append((row, 1))
    pivots = []
    prev = 1
    for pc in range(ncols):
        hits = waiting.pop(pc, None)
        if hits is None:
            continue
        k = min(range(len(hits)), key=lambda i: len(hits[i][0]))
        prow, d = hits.pop(k)
        if d != prev and hits:
            prow = {c: x * prev // d for c, x in prow.items()}
            d = prev
        piv = prow[pc] * prev // d
        for row, d in hits:
            v = row[pc]
            new = {c: x * piv // d for c, x in row.items() if c not in prow}
            for c, x in prow.items():
                y = (row.get(c, 0) * piv - x * v) // d
                if y:
                    new[c] = y
            if new:
                waiting.setdefault(min(new), []).append((new, piv))
        pivots.append((pc, prow))
        prev = piv
    return pivots, [row for rest in waiting.values() for row, _ in rest]


def _back_substitute(pivots, x: list) -> list:
    """``x`` with its pivot entries set so that every pivot row annihilates it.

    The other entries of ``x`` are given; they are 0 except the few that
    pick one nullspace vector or one right-hand side.
    """
    for pc, row in reversed(pivots):
        s = -sum(v * x[c] for c, v in row.items() if x[c])
        p = row[pc]
        x[pc] = s // p if type(s) is int and not s % p else exact(s / QQ(p))
    return x


def rank(m: Matrix) -> int:
    pivots, _ = _echelon(_integer_rows(m), m.ncols)
    return len(pivots)


P = 2**61 - 1


def rank_mod_p(m: Matrix) -> int:
    """Rank of M modulo the prime ``P``: a lower bound on ``rank(M)``.

    The rows are cleared to integers as for :func:`rank` and reduced mod P;
    each pivot row is scaled to lead with 1, so a row with entry v in the pivot
    column is updated to row - v * (pivot row).
    """
    waiting: dict[int, list] = {}
    for row in _integer_rows(m):
        row = {c: y for c, x in row.items() if (y := x % P)}
        if row:
            waiting.setdefault(min(row), []).append(row)
    r = 0
    for pc in range(m.ncols):
        hits = waiting.pop(pc, None)
        if hits is None:
            continue
        prow = hits.pop(min(range(len(hits)), key=lambda i: len(hits[i])))
        inv = pow(prow[pc], -1, P)
        prow = {c: x * inv % P for c, x in prow.items()}
        for row in hits:
            v = row[pc]
            new = {c: x for c, x in row.items() if c not in prow}
            for c, x in prow.items():
                if y := (row.get(c, 0) - v * x) % P:
                    new[c] = y
            if new:
                waiting.setdefault(min(new), []).append(new)
        r += 1
    return r


def rank_and_nullspace(m: Matrix):
    """Exact rank and a basis of the right nullspace.

    rank + len(basis) == ncols; every basis vector v satisfies M v = 0.
    """
    ncols = m.ncols
    pivots, _ = _echelon(_integer_rows(m), ncols)
    pivot_set = {pc for pc, _ in pivots}
    basis = []
    for f in range(ncols):
        if f not in pivot_set:
            x = [0] * ncols
            x[f] = 1
            basis.append(tuple(_back_substitute(pivots, x)))
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
    pivots, rest = _echelon(_integer_rows(aug), ncols)
    if rest:
        return None
    sols = []
    for t in range(k):
        # M x - b = 0 is the augmented matrix times (x, -e_t)
        x = [0] * (ncols + k)
        x[ncols + t] = -1
        sols.append(tuple(_back_substitute(pivots, x)[:ncols]))
    return sols


def inverse(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise ValueError("not square")
    # for square M, M X = I is consistent exactly when M is nonsingular
    cols = solve_many(m, [[int(i == j) for i in range(m.nrows)] for j in range(m.nrows)])
    if cols is None:
        raise ValueError("matrix is singular")
    return Matrix.from_columns(cols)
