"""Differential property tests: ``Matrix`` and its solvers against a naive reference.

The reference keeps a matrix as a list of rows of ``Fraction`` and runs
textbook Gauss-Jordan elimination.  ``Matrix`` stores integral entries as
ints and eliminates fraction-free on sparse rows cleared to integers, so
agreement on random rational matrices (dense up to 4 x 4, sparse up to
10 x 10, skew-symmetric) checks the scalar rule, the denominator
clearing, the pivot choice, the per-row Bareiss divisors and the
back-substitution.  The free variables of a nullspace vector and of a
solution are 0 except the one set to 1, which pins both to the
reduced-row-echelon answer exactly.  The rank modulo the prime P never
exceeds the exact rank, equals it on the drawn matrices, and drops on
planted matrices whose minors P divides.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from liesplit.linalg import P, Matrix, inverse, rank, rank_and_nullspace, rank_mod_p, solve  # noqa: E402

# derandomized, so every run checks the same examples
CHECKS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


# -- the reference: lists of Fraction rows -------------------------------------


def r_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def r_matvec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def r_rref(a):
    """(reduced row echelon form, pivot columns) by Gauss-Jordan in Fractions."""
    rows = [list(r) for r in a]
    pivots = []
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def r_nullspace(a, ncols):
    rows, pivots = r_rref(a)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -rows[r][f]
        basis.append(x)
    return basis


def r_solve(a, b):
    ncols = len(a[0])
    rows, pivots = r_rref([row + [bi] for row, bi in zip(a, b)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][ncols]
    return x


# -- strategies and comparison -------------------------------------------------


entries = st.one_of(
    st.just(0),
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6])),
)


# the nonzero entries of sparse and skew matrices: wider, so pivots other than +-1 are common
# (no filter: rejected draws would bias the examples towards small matrices)
nonzero = st.builds(Fraction, st.integers(1, 99) | st.integers(-99, -1), st.sampled_from([1, 2, 3, 6]))


def sparse_row(draw, ncols):
    row = [Fraction(0)] * ncols
    for c in draw(st.lists(st.integers(0, ncols - 1), min_size=2, max_size=4)):
        row[c] = draw(nonzero)
    return row


def sparse_skew(draw, n):
    m = [[Fraction(0)] * n for _ in range(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            m[i][j] = draw(nonzero)
            m[j][i] = -m[i][j]
    return m


@st.composite
def matrices(draw, nrows=None, ncols=None):
    """A reference matrix: dense up to 4 x 4, sparse up to 10 x 10, or skew-symmetric.

    Some rows repeat combinations of earlier ones and skew matrices may
    factor through a smaller one, so ranks drop.
    """
    kind = draw(st.sampled_from(("dense", "sparse", "skew")))
    if kind == "skew" and None not in (nrows, ncols) and nrows != ncols:
        kind = "sparse"
    top = 4 if kind == "dense" else 10
    if kind == "skew":
        n = nrows or ncols or draw(st.integers(1, top))
        # C B C^T with B skew k x k has rank at most k
        k = draw(st.integers(1, n))
        b = sparse_skew(draw, k)
        if k == n:
            return b
        c = [sparse_row(draw, k) for _ in range(n)]
        return r_mul(r_mul(c, b), [list(col) for col in zip(*c)])
    nrows = draw(st.integers(1, top)) if nrows is None else nrows
    ncols = draw(st.integers(1, top)) if ncols is None else ncols
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entries), draw(entries)
            rows.append([Fraction(s) * x + Fraction(t) * y for x, y in zip(a, b)])
        elif kind == "dense":
            rows.append([Fraction(draw(entries)) for _ in range(ncols)])
        else:
            rows.append(sparse_row(draw, ncols))
    return rows


def exact_form(values):
    """``values`` as a list, after checking the one scalar rule on each of them."""
    values = list(values)
    for x in values:
        assert not isinstance(x, float)
        assert type(x) is (int if x.denominator == 1 else Fraction)
    return values


def ref(m):
    """The reference form of ``m``, after checking the scalar rule on every stored entry."""
    assert all(len(row) == m.ncols for row in m.rows) and len(m.rows) == m.nrows
    return [exact_form(row) for row in m.rows]


@CHECKS
@given(matrices(), st.data())
def test_construction_products_and_transpose_match_reference(a, data):
    m = Matrix(a)
    assert ref(m) == a
    assert ref(Matrix([[str(x) for x in row] for row in a])) == a  # 'num/den' strings
    assert ref(m.transpose()) == [list(c) for c in zip(*a)]
    b = data.draw(matrices(nrows=m.ncols))
    assert ref(m * Matrix(b)) == r_mul(a, b)
    c = data.draw(entries)
    assert ref(m.scale(c)) == [[x * c for x in row] for row in a]
    v = data.draw(st.lists(entries, min_size=m.ncols, max_size=m.ncols))
    assert exact_form(m.matvec(v)) == r_matvec(a, v)


# more examples: a wrong Bareiss divisor on a row that skipped updates shows in few of them
@settings(CHECKS, max_examples=250)
@given(matrices())
def test_rank_and_nullspace_match_reference(a):
    m = Matrix(a)
    r, basis = rank_and_nullspace(m)
    assert r == rank(m) == len(r_rref(a)[1])
    assert [exact_form(v) for v in basis] == r_nullspace(a, m.ncols)
    # modulo P the rank can only drop, and on small entries it does not
    assert rank_mod_p(m) <= r
    assert rank_mod_p(m) == r


@pytest.mark.parametrize("rows", [
    [[1, 0], [0, P]],                   # an entry equal to P
    [[1, (P + 1) // 2], [2, 1]],        # det -P, reached by a row update
    [[1, 0, 1], [0, 1, 0], [Fraction(1, 3), 0, Fraction(P + 1, 3)]],  # cleared to 1, 0, P + 1
], ids=["entry", "update", "fraction"])
def test_rank_mod_p_drops_when_p_divides_the_minors(rows):
    m = Matrix(rows)
    assert rank_mod_p(m) == rank(m) - 1


@CHECKS
@given(matrices(), st.data())
def test_solve_matches_reference(a, data):
    m = Matrix(a)
    b = data.draw(st.lists(entries, min_size=m.nrows, max_size=m.nrows))
    want = r_solve(a, [Fraction(x) for x in b])
    got = solve(m, b)
    assert (None if got is None else exact_form(got)) == want
    # a right-hand side in the column space is always consistent
    x = data.draw(st.lists(entries, min_size=m.ncols, max_size=m.ncols))
    b = r_matvec(a, x)
    assert exact_form(solve(m, b)) == r_solve(a, b)


@CHECKS
@given(st.integers(1, 4).flatmap(lambda n: matrices(nrows=n, ncols=n)))
def test_inverse_matches_reference(a):
    m = Matrix(a)
    n = m.nrows
    if len(r_rref(a)[1]) < n:
        with pytest.raises(ValueError, match="singular"):
            inverse(m)
        return
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rows, _ = r_rref([row + e for row, e in zip(a, identity)])
    assert ref(inverse(m)) == [row[n:] for row in rows]
    assert ref(inverse(m) * m) == identity
