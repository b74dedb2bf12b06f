"""Each rejection of public input that no other test reaches, with its type and message."""

from functools import cache

import pytest

from liesplit import cli
from liesplit.invariants import (bidecompose, custom_basis, double_shift_basis, dual_matrix,
                                 eliminate_on_subspace, ggs_check, hilbert_basis,
                                 poly_pfaffian, transport_basis)
from liesplit.liealg import LieAlgebra, algebra_to_json, build_double, build_sl
from liesplit.poisson import sphericity
from liesplit.poly import Polynomial
from liesplit.splitting import contract, horospherical_splitting, make_splitting
from liesplit.weyl import build_root_system
from liesplit.zalgebra import z_generators

# [a, b] = b: a Lie algebra with no matrix realization, rank or triangular decomposition
_AB = LieAlgebra(("a", "b"), {(0, 1): [(1, 1)]})
_X = Polynomial.linear_form(2, (1, 0))
_ZERO = Polynomial.constant(2, 0)
_E = Polynomial.variable(3, 0)


@cache
def _sl2():
    L = build_sl(2)
    return L, make_splitting(L, (0,)), hilbert_basis(L, "charpoly")


@cache
def _sl3():
    L = build_sl(3)
    return L, make_splitting(L, (0, 1, 2, 3, 4)), hilbert_basis(L, "charpoly")


def _supplied_t0(count):
    """sl(4) with t1 = <h_1> and a supplied t0 of ``count`` vectors: the first vector of the
    default t0, then h_1 itself."""
    L = build_sl(4)
    t1 = [[int(i == L.triangular.cartan[0]) for i in range(L.dim)]]
    S = horospherical_splitting(L, t1)
    t0 = [S.algebra.base_change[i, S.t0_indices[0]] for i in range(L.dim)]
    horospherical_splitting(L, t1, t0_basis=[t0] + t1 * (count - 1))


def _borel_of_a_file(tmp_path):
    path = tmp_path / "ab.json"
    path.write_text(algebra_to_json(_AB), encoding="utf-8")
    cli.main(["check-ggs", "--algebra", str(path), "--h", "borel"])


_REJECTIONS = [
    ("dual_matrix", lambda _: dual_matrix(_AB), ValueError,
     "custom carries no complete matrix realization"),
    ("pfaffian_odd", lambda _: poly_pfaffian([[_X]]), ValueError,
     "Pfaffian needs even size, got 1"),
    ("pfaffian_not_skew", lambda _: poly_pfaffian([[_ZERO, _X], [_X, _ZERO]]), ValueError,
     r"matrix is not skew-symmetric at \(0, 1\)"),
    ("transport_basis", lambda _: transport_basis(_sl3()[2], _sl2()[1]), ValueError,
     r"splitting algebra sl\(2\) is not an adapted rebuild of the basis algebra sl\(3\)"),
    ("bidecompose_zero", lambda _: bidecompose(_sl2()[1], Polynomial.constant(3, 0)),
     ValueError, "cannot bidecompose the zero polynomial"),
    ("bidecompose_inhomogeneous", lambda _: bidecompose(_sl2()[1], _E**3 + _E + _E * _E),
     ValueError, "bidecompose needs a homogeneous polynomial, got degrees 1 and 2"),
    ("ggs_algebras", lambda _: ggs_check(_sl3()[1], _sl2()[2]), ValueError,
     r"basis and splitting live on different algebras: basis on sl\(2\), splitting on "
     r"sl\(3\)"),
    ("ggs_side", lambda _: ggs_check(_sl2()[1], _sl2()[2], side="x"), ValueError,
     "side must be 'h' or 'r', got 'x'"),
    ("eliminate_algebras", lambda _: eliminate_on_subspace(_sl3()[2], _sl2()[1]), ValueError,
     r"basis and splitting live on different algebras: basis on sl\(3\), splitting on "
     r"sl\(2\)"),
    ("double_shift_base", lambda _: double_shift_basis(_sl2()[2]), ValueError,
     "double shifts need a basis over a double builder algebra"),
    ("double_shift_side",
     lambda _: double_shift_basis(hilbert_basis(build_double(build_sl(2)), "charpoly"), "x"),
     ValueError, "side must be 'h' or 'r', got 'x'"),
    ("contract_side", lambda _: contract(_sl2()[1], side="x"), ValueError,
     "side must be keep_h or keep_r, got 'x'"),
    ("horospherical", lambda _: horospherical_splitting(_AB, []), ValueError,
     "horospherical splittings need a reductive builder algebra"),
    ("t0_count", lambda _: _supplied_t0(3), ValueError, "supplied t0 has 3 vectors, expected 2"),
    ("t0_orthogonal", lambda _: _supplied_t0(2), ValueError,
     "supplied t0 vector 1 is not orthogonal to t1"),
    ("root_system_type", lambda _: build_root_system("B", 3), ValueError,
     "unsupported root system type 'B'"),
    ("z_generators_empty", lambda _: z_generators(_sl2()[1], custom_basis(build_sl(2), [])),
     ValueError, "empty Hilbert basis"),
    ("sphericity", lambda _: sphericity(make_splitting(_AB, (0,))), ValueError,
     r"sphericity needs a reductive builder algebra \(known rank\)"),
    ("cli_borel", _borel_of_a_file, SystemExit,
     "borel preset needs a reductive builder algebra"),
    ("cli_h", lambda _: cli.main(["check-ggs", "--algebra", "sl:3", "--h", "upper"]),
     SystemExit, "cannot parse --h 'upper'"),
]


@pytest.mark.parametrize("call, kind, message", [case[1:] for case in _REJECTIONS],
                         ids=[case[0] for case in _REJECTIONS])
def test_rejection_names_what_was_given(call, kind, message, tmp_path):
    with pytest.raises(kind, match=f"^{message}$"):
        call(tmp_path)
