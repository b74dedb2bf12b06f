"""Exact linear algebra over the rationals: dense matrices, sparse elimination.

Entries pass through the one coercion :func:`liesplit.rationals.scalar`:
an ``int`` when integral, a ``Fraction`` otherwise, and a ``float`` raises
``TypeError`` (a row of plain ints already follows the rule and is kept
as it is).  Solutions and nullspace vectors follow the same rule.

Rank, nullspace, solving and inverses all run through one sparse
fraction-free echelon routine.  Each row (right-hand sides appended) is
scaled by the common denominator of its entries (which changes neither the
row space nor the nullspace) and kept as {column: int} of its nonzeros.
Columns are taken left to right; the pivot of a column is the row with the
fewest nonzeros among the rows that have an entry there, and only those
rows are updated.

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
variables at 0) are unique, and one pass of back-substitution over sparse
vectors gives all of them.  Products skip zero cells.  The builders'
realization proof in ``liesplit.liealg`` needs from here only the rank
that shows their Gram matrix nondegenerate.

Ranks modulo the prime P = 2^30 - 35 have one elimination of their own,
:func:`skew_rank_mod_p`: on the sparse strict upper triangle of a skew
matrix it pivots on 2 x 2 blocks (Bunch, Math. Comp. 38, 1982), each
removing two rows and the same two columns and adding 2 to the rank.  A
general M goes through [[0, M], [-M^T, 0]], of rank 2 rank(M) over any
field (:func:`rank_mod_p`).  A Pfaffian or minor nonzero modulo P is
nonzero over the integers, so both are lower bounds on the exact rank,
for the sampled certificates that need no more; the rank over F_P does
not depend on the pivot order.

P is the largest prime below 2^30, so a residue is one CPython digit and a
product of two residues two.  For a sample bound B with 2 B + 1 <= P, a
minor or Pfaffian f whose coefficients P does not all divide vanishes
modulo P at a uniform point of [-B, B]^n with probability at most
deg f / (2 B + 1) (Schwartz, J. ACM 27, 1980), as it does over Q.  Every
sampled rank draws its points through :func:`_best_rank`, which checks B first.
"""

from __future__ import annotations

import random
from operator import mul
from typing import Sequence

from .rationals import (QQ, _check_count, _check_int, _check_length, _is_int, combine,
                        common_denominator, exact, scalar)


class Matrix:
    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = tuple(tuple(row) if {*map(type, row)} <= {int} else tuple(map(scalar, row))
                          for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r, row in enumerate(self.rows):
            _check_length(f"row {r}", len(row), self.ncols, "entries")

    @classmethod
    def _shaped(cls, rows, ncols: int) -> "Matrix":
        """``cls(rows)``, of ``ncols`` columns also when it has no rows."""
        m = cls(rows)
        m.ncols = m.ncols if m.nrows else ncols
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "Matrix":
        """The matrix with these columns; one not as long as the first raises ``ValueError``."""
        for c, col in enumerate(cols):
            _check_length(f"column {c}", len(col), len(cols[0]), "entries")
        return cls._shaped(list(zip(*cols)), len(cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def transpose(self) -> "Matrix":
        return Matrix.from_columns(self.rows) if self.rows else Matrix([()] * self.ncols)

    def matvec(self, v: Sequence) -> tuple:
        v = [scalar(x) for x in v]
        _check_length("vector", len(v), self.ncols, "entries")
        return tuple(exact(sum(map(mul, row, v))) for row in self.rows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        _check_length("right factor", other.nrows, self.ncols, "rows")
        nonzero = [[(c, y) for c, y in enumerate(row) if y] for row in other.rows]
        out = [[0] * other.ncols for _ in self.rows]
        for acc, row in zip(out, self.rows):
            for x, cells in zip(row, nonzero):
                for c, y in cells if x else ():
                    acc[c] += x * y
        return Matrix._shaped(out, other.ncols)

    def scale(self, c) -> "Matrix":
        """c * self: zero cells stay 0, int cells stay ints for an integral c."""
        c = scalar(c)
        if type(c) is int:
            rows = [[x * c if type(x) is int else exact(x * c) for x in row] for row in self.rows]
        else:
            rows = [[exact(x * c) if x else 0 for x in row] for row in self.rows]
        return Matrix._shaped(rows, self.ncols)

    def is_skew(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return all(
            self.rows[i][j] == -self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i, self.ncols)
        )

    def __eq__(self, other):
        return isinstance(other, Matrix) and (self.ncols, self.rows) == (other.ncols, other.rows)

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({[list(map(str, row)) for row in self.rows]})"


def _cleared(row: dict) -> dict:
    """The sparse row {col: nonzero exact scalar} times its common denominator, as ints."""
    d = common_denominator(row.values())
    return row if d == 1 else {c: x.numerator * (d // x.denominator) for c, x in row.items()}


def _integer_rows(m: Matrix) -> list[dict]:
    """Each row of ``m`` as a :func:`_cleared` sparse row."""
    return [_cleared({c: x for c, x in enumerate(row) if x}) for row in m.rows]


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


def _back_substitute(pivots, x: dict, k: int, ncols: int) -> list:
    """The k vectors x_t of length ``ncols`` that every pivot row annihilates, from ``x``, their
    other entries as {column: {t: x_t[column]}}, to which one pass adds every pivot entry."""
    for pc, row in reversed(pivots) if k else ():
        s = combine({}, ((x[c], v) for c, v in row.items() if c in x))
        p = -row[pc]
        x[pc] = {t: y // p if type(y) is int and not y % p else exact(y / QQ(p))
                 for t, y in s.items()}
    out = [[0] * ncols for _ in range(k)]
    for c, entries in x.items():
        for t, y in entries.items() if c < ncols else ():
            out[t][c] = y
    return [tuple(v) for v in out]


def rank(m: Matrix) -> int:
    pivots, _ = _echelon(_integer_rows(m), m.ncols)
    return len(pivots)


P = 2**30 - 35  # 1073741789


def _check_ceiling(rk: int, cap: int, what: str) -> None:
    if rk > cap:  # the ceiling, and so the index floor under it, was wrong
        raise AssertionError(f"{what} {rk} exceeds the proven ceiling {cap}: index floor bug")


def _sample_point(rng, dim, bound, support=None):
    xi = [0] * dim
    for i in range(dim) if support is None else support:
        xi[i] = rng.randint(-bound, bound)
    return xi


def _best_rank(rank_at, dim, cap, trials, seed, bound, support=None):
    """(best, witness): the largest ``rank_at(xi)`` over ``trials`` seeded points xi of
    [-bound, bound]^dim (zero off ``support``), and the first point that reaches it.

    ``cap`` is a proven ceiling on the rank at any point (for the index, dim minus the
    algebra's ``index_floor``): the draws stop at the first point that reaches it, which
    leaves both values as the full run would, and a rank above it raises
    ``AssertionError``.  ``seed`` must be an ``int`` (``random.Random`` would hash a string
    or a float), ``trials`` an ``int`` >= 1 and ``bound`` an ``int`` with 1 <= bound and
    2 bound + 1 <= ``P``; all are checked before any draw."""
    _check_int("seed", seed)
    _check_count("trials", trials)
    if not _is_int(bound) or bound < 1 or 2 * bound + 1 > P:
        raise ValueError(f"bound must be an integer with 1 <= bound <= {(P - 1) // 2}, "
                         f"got {bound!r}")
    rng = random.Random(seed)
    best, witness = -1, ()
    for _ in range(trials):
        xi = _sample_point(rng, dim, bound, support)
        rk = rank_at(xi)
        if rk > best:
            _check_ceiling(rk, cap, "sampled rank")
            best, witness = rk, tuple(xi)
            if best == cap:
                break
    return best, witness


def skew_rank_mod_p(upper: list) -> int:
    """Rank modulo ``P`` of the skew-symmetric int matrix A whose strict upper triangle is
    ``upper``: ``upper[i]`` maps j > i to a_ij (absent entries are 0).  The rows are
    updated in place.

    Each step takes the first row p with an entry left and pivots on the 2 x 2 block
    of p and q = its first column: rows and columns p and q go, the rank grows by 2,
    and a_ij becomes a_ij - (a_iq a_pj - a_ip a_qj) / a_pq.  Rows before p are zero,
    so row p is whole in ``upper[p]``; only the rows i meeting row p or row q change,
    and only at j > i.  An entry is reduced mod P when its row or column is pivoted
    on, so it grows by less than 2 P^2 a step until then.
    """
    r = 0
    for p, row in enumerate(upper):
        row = {k: y for k, x in row.items() if (y := x % P)}
        if not row:
            continue
        q = min(row)
        inv = pow(row.pop(q), -1, P)
        g = {k: x * inv % P for k, x in row.items()}  # a_pk / a_pq
        h = {}  # a_qk: minus column q above row q, then row q
        for k in range(p + 1, q):
            if x := upper[k].pop(q, 0) % P:
                h[k] = P - x
        for k, x in upper[q].items():
            if x := x % P:
                h[k] = x
        upper[q] = {}
        for i in g.keys() | h.keys():
            # a_ij + a_qi a_pj / a_pq - a_pi a_qj / a_pq, for j > i
            new = upper[i]
            get = new.get
            if hi := h.get(i):
                for j, x in g.items():
                    if j > i:
                        new[j] = get(j, 0) + hi * x
            if gi := g.get(i):
                for j, x in h.items():
                    if j > i:
                        new[j] = get(j, 0) - gi * x
        r += 2
    return r


def rank_mod_p(m: Matrix) -> int:
    """Rank of M modulo the prime ``P``: a lower bound on ``rank(M)``.

    The rows are cleared to integers as for :func:`rank` and bordered into the
    skew matrix [[0, M], [-M^T, 0]], whose rank is 2 rank(M) over any field, for
    :func:`skew_rank_mod_p`.
    """
    k = m.nrows
    upper = [{k + c: x for c, x in row.items()} for row in _integer_rows(m)]
    return skew_rank_mod_p(upper + [{} for _ in range(m.ncols)]) // 2


def rank_and_nullspace(m: Matrix):
    """Exact rank and a basis of the right nullspace.

    rank + len(basis) == ncols; every basis vector v satisfies M v = 0.
    """
    ncols = m.ncols
    pivots, _ = _echelon(_integer_rows(m), ncols)
    pivot_set = {pc for pc, _ in pivots}
    free = [f for f in range(ncols) if f not in pivot_set]
    return len(pivots), _back_substitute(pivots, {f: {t: 1} for t, f in enumerate(free)},
                                         len(free), ncols)


def solve(m: Matrix, b: Sequence):
    """One exact solution of M x = b (free variables at 0), or None; see :func:`solve_many`."""
    sols = solve_many(m, [list(b)])
    return sols[0] if sols is not None else None


def solve_many(m: Matrix, bs: Sequence[Sequence]):
    """Solve M x = b for several right-hand sides at once; None if any is inconsistent.
    A b without exactly one entry per row of M raises a ``ValueError`` naming it."""
    ncols = m.ncols
    aug = [{c: x for c, x in enumerate(row) if x} for row in m.rows]  # [M | b_0 .. b_(k-1)]
    for t, b in enumerate(bs):
        _check_length(f"right-hand side {t}", len(b), m.nrows, "entries")
        for i, y in enumerate(b if {*map(type, b)} <= {int} else map(scalar, b)):
            if y:
                aug[i][ncols + t] = y
    pivots, rest = _echelon([_cleared(row) for row in aug], ncols)
    if rest:
        return None
    # M x - b = 0 is the augmented matrix times (x, -e_t)
    k = len(bs)
    return _back_substitute(pivots, {ncols + t: {t: -1} for t in range(k)}, k, ncols)


def inverse(m: Matrix) -> Matrix:
    _check_length("matrix to invert", m.ncols, m.nrows, "columns")
    # for square M, M X = I is consistent exactly when M is nonsingular
    cols = solve_many(m, [[int(i == j) for i in range(m.nrows)] for j in range(m.nrows)])
    if cols is None:
        raise ValueError("matrix is singular")
    return Matrix.from_columns(cols)
