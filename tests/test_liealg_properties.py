"""Property tests of the integer bracket table against the Fraction-valued brackets.

The Jacobi reference walks the triples i < j < k with one Fraction-valued
dict per bracket, as the check did before it kept the brackets as ints
scaled by a common denominator.  The table itself must hold D times every
``bracket_pair``, and the Poisson columns must read it unchanged.
Algebras are builder algebras in a permuted and rescaled basis (fractional
constants that pass), the same with one constant perturbed (usually failing
at some later triple), and random constants.
"""

from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from liesplit.liealg import (  # noqa: E402
    JacobiReport,
    LieAlgebra,
    _pair,
    build_gl,
    build_sl,
    build_so_even,
    jacobi_report,
    sub_algebra,
)
from liesplit.poly import _unit  # noqa: E402
from liesplit.rationals import combine  # noqa: E402

CHECKS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

BASES = [build_sl(2), build_gl(2), build_sl(3), build_so_even(2),
         sub_algebra(build_sl(3), [0, 1, 2, 3, 4])]   # the Borel of sl(3)


def _jacobi_reference(dim, constants) -> JacobiReport:
    for i in range(dim):
        for j in range(i + 1, dim):
            cij = _pair(constants, i, j)
            for k in range(j + 1, dim):
                acc = {}
                # [[x_i,x_j],x_k] + [[x_j,x_k],x_i] + [[x_k,x_i],x_j]
                for idx, inner in ((k, cij), (i, _pair(constants, j, k)),
                                   (j, _pair(constants, k, i))):
                    combine(acc, ((_pair(constants, m, idx), c) for m, c in inner.items()))
                if acc:
                    return JacobiReport(False, (i, j, k))
    return JacobiReport(True, None)


nonzero = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.sampled_from([1, 2, 3, 5]))


@st.composite
def rebased(draw):
    """(dim, constants) of a builder algebra in the basis y_a = s_a x_perm[a]."""
    L = draw(st.sampled_from(BASES))
    n = L.dim
    perm = draw(st.permutations(range(n)))
    where = {p: a for a, p in enumerate(perm)}
    s = [draw(nonzero) for _ in range(n)]
    constants = {}
    for a in range(n):
        for b in range(a + 1, n):
            br = L.bracket_pair(perm[a], perm[b])
            entries = [(where[k], s[a] * s[b] * c / s[where[k]]) for k, c in br.items()]
            if entries:
                constants[(a, b)] = entries
    return n, constants


@st.composite
def perturbed(draw):
    n, constants = draw(rebased())
    a = draw(st.integers(0, n - 2))
    b = draw(st.integers(a + 1, n - 1))
    k = draw(st.integers(0, n - 1))
    entries = dict(constants.get((a, b), ()))
    entries[k] = entries.get(k, 0) + draw(nonzero)
    constants[(a, b)] = list(entries.items())
    return n, constants


@st.composite
def random_constants(draw):
    n = draw(st.integers(3, 5))
    constants = {}
    for a in range(n):
        for b in range(a + 1, n):
            targets = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
            if targets:
                constants[(a, b)] = [(k, draw(nonzero)) for k in targets]
    return n, constants


def _both(algebra):
    n, constants = algebra
    got = jacobi_report(n, constants)
    want = _jacobi_reference(n, {p: [(k, Fraction(c)) for k, c in e] for p, e in constants.items()})
    assert (got.passed, got.first_violation) == (want.passed, want.first_violation)
    return got


@CHECKS
@given(rebased())
def test_rebased_builder_algebras_pass(algebra):
    assert _both(algebra).passed


@CHECKS
@given(st.one_of(perturbed(), random_constants()))
def test_jacobi_report_matches_reference(algebra):
    _both(algebra)


@CHECKS
@given(st.one_of(rebased(), random_constants()))
def test_bracket_table_holds_every_bracket_times_d(algebra):
    n, constants = algebra
    L = LieAlgebra._derived([f"x{a}" for a in range(n)], constants, "custom", index_floor=0)
    D, T = L.bracket_table
    assert D == lcm(*(Fraction(c).denominator for e in constants.values() for _, c in e))
    for a in range(n):
        for b in range(n):
            assert all(type(c) is int for _, c in T[a][b])
            assert dict(T[a][b]) == {k: D * c for k, c in L.bracket_pair(a, b).items()}
    # column j of D pi: the i with [x_i, x_j] != 0, each with the terms of D [x_i, x_j]
    assert L.poisson_columns[0] == D
    for j, column in enumerate(L.poisson_columns[1]):
        assert dict(column) == {i: {_unit(n, k): c for k, c in T[i][j]}
                                for i in range(n) if T[i][j]}
