"""The length rule at every entry point: a row, column, vector, right-hand side, point,
coefficient list, basis, diagonal, matrix or polynomial whose size is not the one its space
asks for raises a ``ValueError`` naming it with both sizes, never a bare ``IndexError`` or
"dimension mismatch", and nothing is truncated or padded with zeros."""

from functools import lru_cache

import pytest

from liesplit.invariants import (bidecompose, custom_basis, hilbert_basis, jacobian_rank,
                                 transport_basis)
from liesplit.liealg import build_sl, change_basis
from liesplit.linalg import Matrix, rank_and_nullspace, solve
from liesplit.poisson import hamiltonian_field, poisson_bracket, tensor_at
from liesplit.poly import Polynomial
from liesplit.splitting import horospherical_splitting
from liesplit.weyl import (build_root_system, enumerate_weyl, invariant_basis, restriction_check,
                           w0_compute)
from liesplit.zalgebra import run_case, z_generators


@lru_cache(maxsize=None)
def _sl3_borel():
    g = build_sl(3)  # dim 8
    S = horospherical_splitting(g, [[int(i == c) for i in range(8)] for c in g.triangular.cartan])
    return S, transport_basis(hilbert_basis(g, "charpoly"), S)


@lru_cache(maxsize=None)
def _weyl_a2():
    return enumerate_weyl(build_root_system("A", 2))  # model space of dimension 3


def _x(nvars, i=0):
    return Polynomial.variable(nvars, i)


def _identity2():
    return Matrix([[1, 0], [0, 1]])


def _matvec(v):
    return _identity2().matvec(v)


def _matmul(rows):
    return _identity2() * Matrix(rows)


def _exponents(e):
    return Polynomial(2, {e: 1})


def _eval(point):
    return _x(2).eval(point)


def _int_gradient(point):
    return _x(2).int_gradient(point)


def _map_vars(images):
    return (_x(2) * _x(2, 1)).map_vars(images, 2)


def _plus(q):
    return _x(2) + q


def _times(q):
    return _x(2) * q


def _sum_of_products(b):
    return Polynomial.sum_of_products(2, [(1, _x(2), b)])


def _field(F):
    return list(hamiltonian_field(build_sl(2), F))


def _custom(F):
    return custom_basis(build_sl(2), [F])


def _bracket(G):
    return poisson_bracket(build_sl(2), _x(3), G)


def _tensor(point):
    return tensor_at(build_sl(2), point)


def _t1(vectors):
    return horospherical_splitting(build_sl(3), vectors)


def _t0(vectors):
    return horospherical_splitting(build_sl(3), [], t0_basis=vectors)


def _basis(vectors):
    return change_basis(build_sl(2), vectors, ["a", "b", "c"])


def _bidecompose(F):
    return bidecompose(_sl3_borel()[0], F)


def _solve(b):
    return solve(_identity2(), b)


def _linear_form(coeffs):
    return Polynomial.linear_form(3, coeffs)


def _names(names):
    return change_basis(build_sl(2), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], names)


def _invariants_on_2(rows):
    return invariant_basis([Matrix(rows)], 1, 2)


def _w0(t0):
    return w0_compute(_weyl_a2(), t0)


def _restriction(t0):
    return restriction_check(_weyl_a2(), t0, dmax=1)


def _centre(z0):
    S, B = _sl3_borel()
    return z_generators(S, B, z0_gens=z0)


def _horo_t1(t1):
    return run_case("horo", {"n": 3, "t1": t1})


_ROWS = [
    (Matrix, [[1, 2], [3]], "row 1 has 1 entries, expected 2"),  # once "ragged rows"
    (_matvec, [1, 2, 3], "vector has 3 entries, expected 2"),  # once "dimension mismatch"
    (_matmul, [[1], [2], [3]], "right factor has 3 rows, expected 2"),
    (_exponents, (1, 0, 0), "exponent vector has 3 exponents, expected 2"),
    (_eval, [1], "point has 1 coordinates, expected 2"),
    (_int_gradient, [1, 2, 3], "point has 3 coordinates, expected 2"),
    (_map_vars, [_x(2)], "map_vars has 1 images, expected 2"),
    (_map_vars, [_x(2), _x(3)], "image 1 has 3 variables, expected 2"),
    (_plus, _x(3), "operand has 3 variables, expected 2"),  # once "variable count mismatch"
    (_times, _x(3), "factor has 3 variables, expected 2"),
    (_sum_of_products, _x(3), "sum_of_products: b has 3 variables, expected 2"),
    (_field, _x(2), "F has 2 variables, expected 3"),
    (_bracket, _x(2), "G has 2 variables, expected 3"),
    (_custom, _x(4), "custom generator 0 has 4 variables, expected 3"),  # once "F has 4 variables"
    (_tensor, [1, 2], "point has 2 coordinates, expected 3"),
    (_t1, [[0, 1, 0]], "t1 vector 0 has 3 entries, expected 8"),
    (_t0, [[1]], "t0 vector 0 has 1 entries, expected 8"),
    (_t1, [0] * 8, "t1 vector 0 is 0, not a sequence of 8 entries"),  # once a bare TypeError
    (_t0, [0] * 8, "t0 vector 0 is 0, not a sequence of 8 entries"),
    (_basis, [[1, 0, 0], [0, 1, 0]], "new basis has 2 vectors, expected 3"),
    (_bidecompose, _x(3), "bidecompose: F has 3 variables, expected 8"),
    # each of these was once truncated, padded with zeros or a bare error
    (Matrix.from_columns, [(1, 2, 3), (4, 5)], "column 1 has 2 entries, expected 3"),
    (_solve, [1, 2, 3], "right-hand side 0 has 3 entries, expected 2"),  # once (1, 2)
    (_solve, [1], "right-hand side 0 has 1 entries, expected 2"),  # once an IndexError
    (_linear_form, [1], "linear_form has 1 coefficients, expected 3"),  # once x0
    (_linear_form, [1, 2, 3, 4], "linear_form has 4 coefficients, expected 3"),
    (_basis, [[1, 0, 0, 7], [0, 1, 0], [0, 0, 1]],
     "new basis vector 0 has 4 entries, expected 3"),  # once dropped the 7
    (_names, ["a", "b"], "new basis has 2 names, expected 3"),
    (_invariants_on_2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
     "matrix 0 has 3 rows, expected 2"),  # once a space of 2 vectors
    (_invariants_on_2, [[1, 0]], "matrix 0 has 1 rows, expected 2"),
    (_invariants_on_2, [[1, 0, 0], [0, 1, 0]], "matrix 0 has 3 columns, expected 2"),
    (_w0, [(1, -1)], "t0 vector 0 has 2 entries, expected 3"),
    (_restriction, [(1, -1, 0, 0)], "t0 vector 0 has 4 entries, expected 3"),
    (_w0, [], "the t0 basis is empty"),  # once "right factor has 3 rows, expected 0"
    (_restriction, [], "the t0 basis is empty"),
    (jacobian_rank, [_x(3), _x(2)], "polynomial 1 has 2 variables, expected 3"),
    (_centre, [_x(3)], "Z0 generator 0 has 3 variables, expected 8"),
    (_horo_t1, [[1, -1]], "t1 diagonal [1, -1] has 2 entries, expected 3"),  # once exit 0
]


@pytest.mark.parametrize("entry, value, message", _ROWS,
                         ids=[f"{f.__name__.strip('_')}-{v!r}" for f, v, _ in _ROWS])
def test_length_rule_rejects_a_wrong_size_by_name(entry, value, message):
    with pytest.raises(ValueError) as exc:
        entry(value)
    assert str(exc.value) == message


# a matrix with no rows keeps its column count, and one with no columns its row count
_SHAPES = [
    (lambda: Matrix.from_columns([(), ()]), (0, 2)),  # once 0 x 0
    (lambda: Matrix([[], []]).transpose(), (0, 2)),  # once 0 x 0
    (lambda: Matrix.from_columns([(), ()]).transpose(), (2, 0)),
    (lambda: Matrix.from_columns([(), ()]).scale(3), (0, 2)),  # once 0 x 0
    (lambda: Matrix([[], []]) * Matrix.from_columns([(), (), ()]), (2, 3)),  # once 2 x 0
]


@pytest.mark.parametrize("build, shape", _SHAPES, ids=["from_columns", "transpose",
                                                        "transpose_back", "scale", "product"])
def test_a_matrix_without_rows_or_columns_keeps_its_shape(build, shape):
    m = build()
    assert (m.nrows, m.ncols) == shape
    assert len(m.rows) == shape[0] and all(len(row) == shape[1] for row in m.rows)


def test_the_nullspace_of_a_matrix_without_rows_is_the_whole_space():
    # once (0, []): the two columns were lost
    assert rank_and_nullspace(Matrix.from_columns([(), ()])) == (0, [(1, 0), (0, 1)])
    assert Matrix.from_columns([(), ()]) != Matrix.from_columns([(), (), ()])  # once both 0 x 0
