"""The integer rule at every entry point: a size, a rank, a node, a count, an exponent, a
basis index or a case parameter that is a bool, a float, a string, out of range or (in a
list) repeated raises a ``ValueError`` naming it, never a bare ``TypeError``, and nothing
is truncated, parsed or read as 0 or 1."""

from functools import lru_cache

import pytest

from liesplit.invariants import eliminate_on_subspace, hilbert_basis, transport_basis
from liesplit.liealg import LieAlgebra, build_gl, build_sl, build_so_even, subalgebra_indices
from liesplit.linalg import Matrix
from liesplit.poisson import index_estimate, tensor_at
from liesplit.poly import Polynomial
from liesplit.splitting import horospherical_splitting
from liesplit.weyl import (SatakeDiagram, build_root_system, enumerate_weyl, restriction_check,
                           satake_subspaces)
from liesplit.zalgebra import run_case


@lru_cache(maxsize=None)
def _sl2_splitting():
    g = build_sl(2)  # basis order (e, h, f)
    S = horospherical_splitting(g, [[0, 1, 0]])
    return S, transport_basis(hilbert_basis(g, "charpoly"), S)


def _subalgebra(v):
    return subalgebra_indices(build_sl(2), v, "h")


def _targets(v):
    return LieAlgebra(("a", "b", "c"), {(0, 1): v})


def _part_on(v):
    return Polynomial.variable(3, 0).part_on(v)


def _keep(v):
    S, B = _sl2_splitting()
    return eliminate_on_subspace(B, S, v)


def _trials(v):
    return index_estimate(build_sl(2), trials=v)


def _dmax(v):
    return restriction_check(enumerate_weyl(build_root_system("A", 1)), [], dmax=v)


def _rank_a(v):
    return build_root_system("A", v)


def _rank_d(v):
    return build_root_system("D", v)


def _arrows(v):
    return satake_subspaces(build_root_system("A", 3), SatakeDiagram(v))


def _pow(v):
    return Polynomial.variable(1, 0) ** v


def _horo_t1(v):
    return run_case("horo", {"n": 3, "t1": v})


def _case(v):
    return run_case(*v)


def _diff(v):
    return (Polynomial.variable(3, 1) * Polynomial.variable(3, 2)).diff(v)


def _monomial(v):
    return Polynomial.monomial(3, v)


def _variable(v):
    return Polynomial.variable(3, v)


def _sum_c(v):
    x = Polynomial.variable(3, 0)
    return Polynomial.sum_of_products(3, [(v, x, x)])


def _lift_nvars(v):
    return Polynomial.variable(2, 0).lift(v)


def _constant_nvars(v):
    return Polynomial.constant(v, 5)


def _variable_nvars(v):
    return Polynomial.variable(v, 0)


def _rank_e6(v):
    return build_root_system("E6", v)


def _gradient_at(v):
    return Polynomial.variable(2, 0).int_gradient(v)


def _coefficient(v):
    return Polynomial(2, {(1, 0): v})


def _matrix_entry(v):
    return Matrix([[v, 2]])


def _eval_at(v):
    return Polynomial.variable(2, 0).eval(v)


def _tensor_point(v):
    return tensor_at(build_sl(2), v)


_ROWS = [
    (_subalgebra, [0, True], "h: True is not a basis index in range(3)"),
    (_subalgebra, [0.0], "h: 0.0 is not a basis index in range(3)"),
    (_subalgebra, ["0"], "h: '0' is not a basis index in range(3)"),
    (_subalgebra, [3], "h: 3 is not a basis index in range(3)"),
    (_subalgebra, [0, 0], "h: 0 is listed twice"),
    (_targets, ((True, 1),), "bracket [0, 1]: target True is not a basis index in range(3)"),
    (_targets, ((2.0, 1),), "bracket [0, 1]: target 2.0 is not a basis index in range(3)"),
    (_targets, (("2", 1),), "bracket [0, 1]: target '2' is not a basis index in range(3)"),
    (_targets, ((3, 1),), "bracket [0, 1]: target 3 is not a basis index in range(3)"),
    (_targets, ((2, 1), (2, 1)), "bracket [0, 1]: target 2 is listed twice"),
    (_part_on, [True], "part_on: True is not a variable index in range(3)"),
    (_part_on, [1.0], "part_on: 1.0 is not a variable index in range(3)"),
    (_part_on, ["1"], "part_on: '1' is not a variable index in range(3)"),
    (_part_on, [3], "part_on: 3 is not a variable index in range(3)"),
    (_part_on, [1, 1], "part_on: 1 is listed twice"),
    (_keep, [True], "keep: True is not a generator index in range(1)"),
    (_keep, [0.0], "keep: 0.0 is not a generator index in range(1)"),
    (_keep, ["0"], "keep: '0' is not a generator index in range(1)"),
    (_keep, [1], "keep: 1 is not a generator index in range(1)"),
    (_keep, [0, 0], "keep: 0 is listed twice"),
    (_trials, True, "trials must be an integer, got True"),
    (_trials, 2.0, "trials must be an integer, got 2.0"),
    (_trials, "3", "trials must be an integer, got '3'"),
    (_trials, 0, "trials >= 1 required, got 0"),
    (_dmax, True, "dmax must be an integer, got True"),
    (_dmax, 2.0, "dmax must be an integer, got 2.0"),
    (_dmax, "3", "dmax must be an integer, got '3'"),
    (_dmax, 0, "dmax >= 1 required, got 0"),
    (build_gl, True, "gl(n) needs an integer n, got True"),  # once built gl(True)
    (build_gl, 2.0, "gl(n) needs an integer n, got 2.0"),
    (build_gl, "2", "gl(n) needs an integer n, got '2'"),
    (build_gl, 0, "gl(n) needs n >= 1, got 0"),
    (build_sl, True, "sl(n) needs an integer n, got True"),
    (build_sl, 2.0, "sl(n) needs an integer n, got 2.0"),  # once a bare TypeError
    (build_sl, "2", "sl(n) needs an integer n, got '2'"),
    (build_sl, 1, "sl(n) needs n >= 2, got 1"),
    (build_so_even, True, "so(2n) needs an integer n, got True"),
    (build_so_even, 2.0, "so(2n) needs an integer n, got 2.0"),
    (build_so_even, "2", "so(2n) needs an integer n, got '2'"),
    (build_so_even, 1, "so(2n) needs n >= 2, got 1"),
    (_rank_a, True, "A_n needs an integer n, got True"),
    (_rank_a, 2.5, "A_n needs an integer n, got 2.5"),
    (_rank_d, "4", "D_n needs an integer n, got '4'"),
    (_rank_d, 2, "D_n needs n >= 3, got 2"),
    (_arrows, ((True, 3),), "arrow (True, 3) must join two integer nodes"),  # once node 1
    (_arrows, ((1.0, 3),), "arrow (1.0, 3) must join two integer nodes"),
    (_arrows, (("1", 3),), "arrow ('1', 3) must join two integer nodes"),
    (_arrows, ((1, 9),), "arrow (1,9) outside the diagram"),
    (_arrows, ((1, 3), (3, 2)), "arrows must be disjoint: node 3 is in two arrows"),
    (_pow, True, "exponent must be a nonnegative integer, got True"),  # once x**True == x
    (_pow, 2.0, "exponent must be a nonnegative integer, got 2.0"),
    (_pow, "2", "exponent must be a nonnegative integer, got '2'"),
    (_pow, -1, "exponent must be a nonnegative integer, got -1"),
    (_horo_t1, [[True, False, -1]], "got [[True, False, -1]]"),  # once ran as (1, 0, -1)
    (_horo_t1, [[1.0, 0, -1]], "got [[1.0, 0, -1]]"),
    (_horo_t1, [["1/2", 0, "-1/2"]], "got [['1/2', 0, '-1/2']]"),
    (_horo_t1, "fulll", "t1 must be 'full', 'zero' or integer diagonals, got 'fulll'"),
    (_horo_t1, [[1, 0, 0, -1]], "[1, 0, 0, -1] is not a traceless diagonal of size 3"),
    (_horo_t1, [[1, -1, 0], [1, -1, 0]], "t1 diagonals [[1, -1, 0], [1, -1, 0]] are dependent"),
    (_case, ("borel", {"m": 3}), "borel does not take 'm'; accepted keys: ['n']"),  # once n = 2
    (_case, ("aks", {"n": 2, "t1": "zero"}), "aks does not take 't1'; accepted keys: ['n']"),
    (_case, ("e6_weyl", {"n": 5}), "e6_weyl does not take 'n'; accepted keys: []"),
    (_diff, True, "diff: True is not a variable index in range(3)"),  # once d/dx1
    (_diff, 1.0, "diff: 1.0 is not a variable index in range(3)"),  # once a TypeError
    (_monomial, {True: 1}, "variable must be an integer, got True"),  # once equal to x1
    (_monomial, {"0": 1}, "variable must be an integer, got '0'"),  # once a bare TypeError
    (_monomial, {0: 1.0}, "exponent of variable 0 must be an integer, got 1.0"),
    (_monomial, (0, True, 0), "exponent of variable 1 must be an integer, got True"),
    (_variable, True, "variable must be an integer, got True"),
    (_variable, 1.0, "variable must be an integer, got 1.0"),  # once a bare TypeError
    (_sum_c, True, "sum_of_products: c must be an integer, got True"),
    (_sum_c, 1.5, "sum_of_products: c must be an integer, got 1.5"),
    (_rank_e6, 4, "E6 takes no rank, got 4"),  # once rank 6
    (_rank_e6, 6, "E6 takes no rank, got 6"),
    (_lift_nvars, 3.0, "lift: new_nvars must be an integer, got 3.0"),  # once a bare TypeError
    (_lift_nvars, "3", "lift: new_nvars must be an integer, got '3'"),
    (_lift_nvars, 1, "lift: new_nvars >= 2 required, got 1"),  # a lift drops no variable
    (Polynomial, -1, "nvars >= 0 required, got -1"),  # once accepted
    (Polynomial, 2.0, "nvars must be an integer, got 2.0"),
    (Polynomial, True, "nvars must be an integer, got True"),  # once one variable
    (Polynomial.zero, -1, "nvars >= 0 required, got -1"),  # once accepted
    (_constant_nvars, -1, "nvars >= 0 required, got -1"),  # once failed only on printing
    (_variable_nvars, 2.5, "nvars must be an integer, got 2.5"),  # once a bare TypeError
    (_gradient_at, [1.5, 2], "point coordinate 0 must be an integer, got 1.5"),  # once [1.0, 0]
    (_gradient_at, ["1/2", 0], "point coordinate 0 must be an integer, got '1/2'"),  # TypeError
    (_gradient_at, [1, True], "point coordinate 1 must be an integer, got True"),
    # a bool scalar was read as 0 or 1 wherever a value enters through rationals.scalar
    (_coefficient, True, "bool True is not an exact scalar"),
    (_matrix_entry, True, "bool True is not an exact scalar"),
    (_eval_at, [True, 3], "bool True is not an exact scalar"),
    (_tensor_point, [True, 0, 1], "bool True in the point is not an exact scalar"),
]


@pytest.mark.parametrize("entry, value, message", _ROWS,
                         ids=[f"{f.__name__.strip('_')}-{v!r}" for f, v, _ in _ROWS])
def test_integer_rule_rejects_a_bad_value_by_name(entry, value, message):
    with pytest.raises(ValueError) as exc:
        entry(value)
    assert message in str(exc.value)
