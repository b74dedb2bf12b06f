"""Differential property tests: the invariant expansions against textbook formulas.

``poly_det`` and ``poly_pfaffian`` are ``poly.laplace_expansion``, which meets
in the middle on int terms: the bottom levels of subproblems (column bitmasks)
reachable through nonzero entries are built level by level, the top rows are
summed into one coefficient per subproblem at half the depth, and each such
subproblem is built only to be multiplied by its coefficient.  The Leibniz
permutation sum and the perfect-matching sum share none of that.  Random sparse
matrices with zero rows and columns leave levels empty or unreachable, odd and
even sizes split the levels unevenly and evenly, and ``Fraction`` entries
exercise the common denominator.  With lambda as a grade of the terms, the
expansion of det(lambda I + A) gives the coefficient of each lambda-power asked
for, against the determinant with lambda as one more variable.  The products of
these small exponents pass the expansion's one exponent bound, so they run with
no carry test; ``test_invariants`` covers the bound itself.  ``_power_sums`` adds
every product of one p_k into a single int dict; the reference is the plain
``Polynomial``-arithmetic loop of Newton's identities.
"""

from fractions import Fraction
from functools import reduce
from itertools import permutations
from operator import mul

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from liesplit.invariants import (  # noqa: E402
    _power_sums,
    charpoly_coefficients,
    poly_det,
    poly_pfaffian,
)
from liesplit.liealg import build_gl, build_sl  # noqa: E402
from liesplit.poly import Polynomial, laplace_expansion  # noqa: E402
from liesplit.splitting import horospherical_splitting  # noqa: E402
from liesplit.zalgebra import _sl_diagonals  # noqa: E402

# derandomized, so every run checks the same examples
CHECKS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
NV = 2

coefficients = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
# about half the entries are zero, so whole rows and columns often vanish
entries = st.one_of(
    st.just(Polynomial.zero(NV)),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), coefficients,
                    max_size=3).map(lambda t: Polynomial(NV, t)),
)


@st.composite
def sparse_matrices(draw):
    size = draw(st.integers(0, 7))
    zero_rows = draw(st.sets(st.integers(0, 6), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 6), max_size=2))
    return [[Polynomial.zero(NV) if r in zero_rows or c in zero_cols else draw(entries)
             for c in range(size)] for r in range(size)]


@st.composite
def skew_matrices(draw):
    size = 2 * draw(st.integers(0, 4))
    zero = draw(st.sets(st.integers(0, 7), max_size=1))  # a zero row and its column
    A = [[Polynomial.zero(NV)] * size for _ in range(size)]
    for r in range(size):
        for c in range(r + 1, size):
            if not {r, c} & zero:
                A[r][c] = draw(entries)
                A[c][r] = -A[r][c]
    return A


def _sign(perm) -> int:
    """The sign of a permutation, by counting its inversions."""
    n = len(perm)
    return -1 if sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2 else 1


def leibniz(A, nv):
    """sum over permutations s of sign(s) prod_i A[i][s(i)]."""
    total = Polynomial.zero(nv)
    for perm in permutations(range(len(A))):
        factors = [A[i][j] for i, j in enumerate(perm)]
        if all(factors):
            total = total + reduce(mul, factors, Polynomial.constant(nv, _sign(perm)))
    return total


def perfect_matchings(items):
    """Every way to pair off ``items`` (a tuple of even length), as lists of pairs."""
    if not items:
        yield []
        return
    for k in range(1, len(items)):
        for rest in perfect_matchings(items[1:k] + items[k + 1:]):
            yield [(items[0], items[k])] + rest


def matching_sum(A, nv):
    """sum over perfect matchings M of sign(i1 j1 i2 j2 ...) prod A[i][j] over (i, j) in M."""
    total = Polynomial.zero(nv)
    for M in perfect_matchings(tuple(range(len(A)))):
        factors = [A[i][j] for i, j in M]
        if all(factors):
            sign = _sign([x for pair in M for x in pair])
            total = total + reduce(mul, factors, Polynomial.constant(nv, sign))
    return total


@CHECKS
@given(sparse_matrices())
def test_poly_det_equals_the_leibniz_sum(A):
    # the empty matrix has no entry to carry a variable count: its determinant is 1 on none
    assert poly_det(A) == (leibniz(A, NV) if A else Polynomial.constant(0, 1))


@CHECKS
@given(skew_matrices())
def test_poly_pfaffian_equals_the_matching_sum(A):
    assert poly_pfaffian(A) == (matching_sum(A, NV) if A else Polynomial.constant(0, 1))


@CHECKS
@given(skew_matrices())
def test_pfaffian_squares_to_the_determinant(A):
    pf = poly_pfaffian(A)
    assert pf * pf == poly_det(A)


def lambda_reference(A, nv):
    """{k: the coefficient of lambda^k in det(lambda I + A)}, the nonzero ones, with lambda one
    more variable, the last, through ``poly_det``: as ``_charpoly_reference`` of
    ``test_invariants`` expands det(lambda I - Y)."""
    if not A:
        return {0: Polynomial.constant(nv, 1)}
    lam = Polynomial.variable(nv + 1, nv)
    det = poly_det([[(lam if r == c else 0) + e.lift(nv + 1) for c, e in enumerate(row)]
                    for r, row in enumerate(A)])
    return {k: p for k, p in det.split_last().items() if p}


@CHECKS
@given(sparse_matrices(), st.data())
def test_lambda_graded_expansion_equals_lambda_as_a_variable(A, data):
    want, size = lambda_reference(A, NV), len(A)
    cells = {(r, c): e for r, row in enumerate(A) for c, e in enumerate(row) if e}
    assert laplace_expansion(NV, size, cells, False, set(range(size + 1))) == want
    powers = data.draw(st.sets(st.integers(0, size)))
    assert laplace_expansion(NV, size, cells, False, powers) == {
        k: p for k, p in want.items() if k in powers}


def newton_reference(e):
    """Newton's identities in ``Polynomial`` arithmetic, one new polynomial per step."""
    p = {}
    for k in sorted(e):
        acc = e[k].scale(k if k % 2 else -k)
        for i in range(1, k):
            if e[i].terms and p[k - i].terms:
                acc = acc + e[i] * p[k - i] if i % 2 else acc - e[i] * p[k - i]
        p[k] = acc
    return p


def _adapted_sl4():
    # the adapted sl(4) of case sl2n --n 2: t0 = diag(1,-1,-1,1)
    g = build_sl(4)
    t1 = _sl_diagonals(g, ({0: 1, 3: -1}, {1: 1, 2: -1}))
    t0 = _sl_diagonals(g, ({0: 1, 1: -1, 2: -1, 3: 1},))
    return horospherical_splitting(g, t1, t0_basis=t0).algebra


CHARPOLYS = {"adapted_sl4": charpoly_coefficients(_adapted_sl4()),
             "gl3": charpoly_coefficients(build_gl(3))}


def test_power_sums_of_the_builder_coefficients():
    assert any(F.den > 1 for F in CHARPOLYS["adapted_sl4"].values())
    for e in CHARPOLYS.values():
        assert _power_sums(e) == newton_reference(e)


@CHECKS
@given(st.sampled_from(sorted(CHARPOLYS)), st.lists(coefficients, min_size=4, max_size=4))
def test_power_sums_equal_the_polynomial_newton_loop(name, scales):
    # rescaled e_k: rational denominators, zeros and cancellations the builders never give
    e = {k: F.scale(scales[k - 1]) for k, F in CHARPOLYS[name].items()}
    assert _power_sums(e) == newton_reference(e)
