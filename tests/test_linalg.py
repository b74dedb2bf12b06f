import random

import pytest

from liesplit import Matrix, QQ, inverse, rank, rank_and_nullspace, solve


def random_matrix(rng, nrows, ncols, frac=False):
    if frac:
        return Matrix(
            [
                [QQ(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(ncols)]
                for _ in range(nrows)
            ]
        )
    return Matrix([[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)])


def test_identity_full_rank():
    r, basis = rank_and_nullspace(Matrix.identity(3))
    assert r == 3
    assert basis == []


def test_zero_matrix_nullspace():
    r, basis = rank_and_nullspace(Matrix.zeros(2, 3))
    assert r == 0
    assert len(basis) == 3


def test_tall_rank_two():
    # hand elimination: the two columns are independent
    m = Matrix([[0, 1], [-1, 0], [2, -3]])
    r, basis = rank_and_nullspace(m)
    assert r == 2
    assert basis == []


def test_rank_equals_rank_of_transpose():
    rng = random.Random(31337)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), frac=rng.random() < 0.5)
        assert rank(m) == rank(m.transpose())


def test_nullspace_vectors_are_annihilated():
    rng = random.Random(5)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 7))
        r, basis = rank_and_nullspace(m)
        assert r + len(basis) == m.ncols
        for v in basis:
            assert all(x == 0 for x in m.matvec(v))


def test_solve_consistent_system():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = random_matrix(rng, rng.randint(1, 6), n)
        x = [QQ(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        b = m.matvec(x)
        sol = solve(m, b)
        assert sol is not None
        assert m.matvec(sol) == b


def test_solve_inconsistent_returns_none():
    m = Matrix([[1, 0], [1, 0]])
    assert solve(m, [1, 2]) is None


def test_inverse_round_trip():
    rng = random.Random(23)
    found = 0
    while found < 10:
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, frac=True)
        if rank(m) < n:
            continue
        found += 1
        assert m * inverse(m) == Matrix.identity(n)


def test_inverse_of_singular_raises():
    with pytest.raises(ValueError):
        inverse(Matrix([[1, 2], [2, 4]]))


def test_skew_detection():
    assert Matrix([[0, 2], [-2, 0]]).is_skew()
    assert not Matrix([[1, 2], [-2, 0]]).is_skew()


def test_float_entries_are_rejected():
    with pytest.raises(TypeError, match="float 0.1 "):
        Matrix([[1, QQ(1, 2)], [0.1, 0]])
    # an all-int row is kept as it is; a float beside ints still raises
    with pytest.raises(TypeError, match="float 2.0 "):
        Matrix([[1, 2], [3, 2.0]])


def test_bool_and_fraction_entries_follow_the_scalar_rule():
    m = Matrix([[True, False, 3], [QQ(4, 2), QQ(1, 3), 5], (7, 8, 9)])
    assert m.rows == ((1, 0, 3), (2, QQ(1, 3), 5), (7, 8, 9))
    assert [list(map(type, row)) for row in m.rows] == [[int, int, int], [int, QQ, int],
                                                         [int, int, int]]
