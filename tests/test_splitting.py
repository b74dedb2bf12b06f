import json
import random
import re
from pathlib import Path

import pytest

from liesplit import liealg, zalgebra
from liesplit.invariants import bidecompose, hilbert_basis, transport_basis
from liesplit.liealg import (LieAlgebra, build_double, build_gl, build_sl, build_so_even,
                             jacobi_report, sub_algebra)
from liesplit.poisson import generic_stabilizer, poisson_bracket, tensor_at
from liesplit.poly import Polynomial
from liesplit.rationals import QQ
from liesplit.splitting import (
    BracketParameter,
    contract,
    family_bracket,
    horospherical_splitting,
    make_decomposition,
    make_splitting,
    pencil_member,
)


def _jacobi_holds(L):
    """The exhaustive Jacobi check re-run on a built algebra."""
    return jacobi_report(L.dim, L.constants).passed


def _validated_copy_agrees(A):
    """A derived algebra stores no empty bracket, and the public constructor (every entry
    checked, then the exhaustive Jacobi sweep) stores its constants unchanged."""
    return all(A.constants.values()) and LieAlgebra(A.names, A.constants).constants == A.constants


def sl2():
    return build_sl(2)  # basis order (e, h, f)


def test_make_splitting_borel():
    S = make_splitting(sl2(), (0, 1))
    assert S.dim_h == 2 and S.dim_r == 1
    assert S.h_indices == (0, 1) and S.r_indices == (2,)


@pytest.mark.parametrize("h", [(), (1,), (0, 1), (0, 1, 2)])
def test_h_degree_sums_the_h_slots(h):
    D = make_decomposition(sl2(), h)
    for e in (b"\x00\x00\x00", b"\x03\x00\x01", b"\x01\x02\x05", b"\xff\x01\x00"):
        x = Polynomial.monomial(3, e)
        assert x.split_degree(D.h_indices) == {sum(e[i] for i in h): x}


def test_make_splitting_rejects_non_subalgebra():
    with pytest.raises(ValueError):
        make_splitting(sl2(), (0, 2))  # {e, f} is not closed


# sl(3) has basis (E12, E13, E23, h1, h2, E21, E31, E32): each list is bad at the entry named
BAD_INDEX_LISTS = [
    ((0, 0, 1, 3, 4), "0 is listed twice"),
    ((0, 1, 2, 3, 4, 0), "0 is listed twice"),  # the Borel plus a repeat
    ((0, 99), "99 is not a basis index in range(8)"),
    ((3, -1), "-1 is not a basis index in range(8)"),
    ((0, 0.5), "0.5 is not a basis index in range(8)"),
    ((True, 3), "True is not a basis index in range(8)"),
    (("1",), "'1' is not a basis index in range(8)"),
    ((0, 5), "indices [0, 5] do not span a subalgebra: [E12, E21] has a component on h1"),
]


@pytest.mark.parametrize("entry", [make_decomposition, make_splitting, sub_algebra,
                                   lambda g, h: generic_stabilizer(g, h, trials=1)],
                         ids=["make_decomposition", "make_splitting", "sub_algebra",
                              "generic_stabilizer"])
@pytest.mark.parametrize("indices, message", BAD_INDEX_LISTS)
def test_one_check_names_the_bad_index(entry, indices, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        entry(build_sl(3), indices)


def test_splitting_names_the_bracket_leaving_r():
    g = build_sl(3)
    assert make_decomposition(g, (3, 4)).r_indices == (0, 1, 2, 5, 6, 7)
    with pytest.raises(ValueError, match=r"^r indices \[0, 1, 2, 5, 6, 7\] do not span a "
                                         r"subalgebra: \[E12, E21\] has a component on h1$"):
        make_splitting(g, (3, 4))


def so8_splitting():
    so8 = build_so_even(4)
    return horospherical_splitting(so8, [[QQ(1) if i == c else QQ(0) for i in range(28)]
                                         for c in so8.triangular.cartan[:3]])


def test_so8_horospherical_closure():
    S = so8_splitting()
    assert len(S.h_indices) == 15 and len(S.r_indices) == 13
    assert S.is_horospherical
    assert len(S.t0_indices) == 1
    # (u+, t1, u-, t0): r = u- + t0 is the complement of h in index order
    assert S.h_indices == tuple(range(15)) and S.r_indices == tuple(range(15, 28))
    assert S.t0_indices == (27,)


def test_contraction_formula_on_sl2():
    S = make_splitting(sl2(), (0, 1))
    c0 = contract(S, "keep_h")
    assert c0.bracket_pair(1, 0) == {0: QQ(2)}    # [h,e] kept
    assert c0.bracket_pair(1, 2) == {2: QQ(-2)}   # [h,f] projects onto r
    assert c0.bracket_pair(0, 2) == {}            # [e,f] = h is killed
    cinf = contract(S, "keep_r")
    assert cinf.bracket_pair(0, 2) == {1: QQ(1)}  # coadjoint part survives
    assert cinf.bracket_pair(1, 0) == {}


def test_contract_keep_r_requires_splitting():
    sl3 = build_sl(3)
    # h the Cartan: its complement, the root vectors, is not closed ([E12, E21] = h1)
    D = make_decomposition(sl3, tuple(sl3.triangular.cartan))
    assert not D.r_closed
    contract(D, "keep_h")
    with pytest.raises(ValueError, match="keep_r needs r to be a subalgebra"):
        contract(D, "keep_r")
    with pytest.raises(ValueError, match="the pencil needs r"):  # its certificate needs r closed
        family_bracket(D, BracketParameter(1, 2))
    with pytest.raises(ValueError, match="the pencil needs r"):
        pencil_member(D, (0, 1))


def test_a_closed_r_is_read_off_the_data():
    # the Borel of sl(3) through make_decomposition: r = u- is closed, as make_splitting checks
    sl3 = build_sl(3)
    h = tuple(sl3.triangular.plus) + tuple(sl3.triangular.cartan)
    D, S = make_decomposition(sl3, h), make_splitting(sl3, h)
    assert D.r_closed and S.r_closed
    assert _bracket_table(contract(D, "keep_r")) == _bracket_table(contract(S, "keep_r"))
    for p in ((1, 0), (0, 1), (1, 1), (2, -3)):
        assert _bracket_table(pencil_member(D, p)) == _bracket_table(pencil_member(S, p))


def _bracket_table(L):
    return {pair: dict(entries) for pair, entries in L.constants.items()}


def test_family_bracket_endpoints_and_identity():
    # on the horospherical splitting of sl3 with t1 a proper part of the
    # Cartan, (1,1) lists some pairs' entries in another order than the
    # adapted algebra does: the identity holds per pair, not as tuples
    g = build_sl(3)
    horo = horospherical_splitting(g, [[QQ(1) if i == g.triangular.cartan[0] else QQ(0)
                                        for i in range(8)]])
    for S in (make_splitting(sl2(), (0, 1)), horo):
        for p, want in (((1, 1), S.algebra), ((1, 0), contract(S, "keep_h")),
                        ((0, 1), contract(S, "keep_r"))):
            assert _bracket_table(family_bracket(S, BracketParameter(*p))) == _bracket_table(want)
    with pytest.raises(ValueError):
        BracketParameter(0, 0)


def double_sl3_splitting():
    g = build_sl(3)
    d = build_double(g)
    t1 = []
    for k, i in enumerate(g.triangular.cartan):
        v = [QQ(0)] * d.dim
        v[i], v[g.dim + k] = QQ(1), -QQ(1)
        t1.append(v)
    return horospherical_splitting(d, t1)


def test_family_jacobi_for_random_parameters():
    # family_bracket builds members unchecked; the three-anchor certificate
    # says every (1, t) member is a Lie bracket, which is checked here
    rng = random.Random(11)
    sl3 = build_sl(3)
    borel = make_splitting(sl3, tuple(sl3.triangular.plus) + tuple(sl3.triangular.cartan))
    for S, n in ((borel, 10), (double_sl3_splitting(), 3), (so8_splitting(), 2)):
        for _ in range(n):
            t = QQ(rng.randint(-30, 30), rng.randint(1, 12))
            assert _jacobi_holds(family_bracket(S, BracketParameter(1, t)))


def _cartan_line(g, k):
    return [QQ(1) if i == g.triangular.cartan[k] else QQ(0) for i in range(g.dim)]


def test_pencil_bracket_is_linear_on_bi_components():
    # {F, G}_(a,b) = a{F, G}_0 + b{F, G}_inf, the identity that lets the
    # suites bracket at (1,0) and (0,1) only; coordinates join the
    # bi-components so that most brackets are nonzero
    sl3, so4 = build_sl(3), build_so_even(2)
    cases = (
        (sl3, "charpoly", [_cartan_line(sl3, 0)]),
        (so4, "charpoly", [_cartan_line(so4, 0)]),
        (build_double(sl2()), "charpoly", [[QQ(0), QQ(1), QQ(0), -QQ(1)]]),
    )
    rng = random.Random(7)
    for g, kind, t1 in cases:
        S = horospherical_splitting(g, t1)
        B = transport_basis(hilbert_basis(g, kind), S)
        polys = [c for F in B.polys for c in bidecompose(S, F).values()]
        polys += [Polynomial.variable(g.dim, i) for i in range(g.dim)]
        params = [(1, 0), (0, 1), (1, 1), (2, 0), (1, QQ(rng.randint(-40, 40), rng.randint(1, 9)))]
        members = [(QQ(a), QQ(b), pencil_member(S, (a, b))) for a, b in params]
        nonzero = 0
        for x, F in enumerate(polys):
            for G in polys[x + 1:]:
                b0 = poisson_bracket(contract(S, "keep_h"), F, G)
                binf = poisson_bracket(contract(S, "keep_r"), F, G)
                nonzero += not (b0.is_zero() and binf.is_zero())
                for a, b, L in members:
                    assert poisson_bracket(L, F, G) == a * b0 + b * binf
        assert nonzero > len(polys)


def test_contractions_built_once_per_side_without_a_jacobi_check(monkeypatch):
    S = so8_splitting()
    calls = []
    check = liealg.jacobi_report

    def counting(dim, constants):
        calls.append(dim)
        return check(dim, constants)

    monkeypatch.setattr(liealg, "jacobi_report", counting)
    con_h, con_r = contract(S, "keep_h"), contract(S, "keep_r")
    for _ in range(3):
        assert contract(S, "keep_h") is con_h and pencil_member(S, (1, 0)) is con_h
        assert contract(S, "keep_r") is con_r and pencil_member(S, BracketParameter(0, 1)) is con_r
        assert pencil_member(S, (1, 1)) is S.algebra
        tensor_at(pencil_member(S, (1, 0)), [1] * S.algebra.dim)
    # Lie by the Inonu-Wigner argument in contract's docstring, not by enumeration
    assert calls == []
    # a (1,t) member is the unchecked family_bracket, not a cached object
    assert pencil_member(S, (1, 2)) is not pencil_member(S, (1, 2))
    assert calls == []
    # another splitting object owns its own pair
    assert contract(so8_splitting(), "keep_h") is not con_h


def test_unchecked_contractions_pass_the_exhaustive_jacobi_check():
    # the oracle for the rebuilds, contractions and pencil members, which run no check
    sl3, sl4 = build_sl(3), build_sl(4)
    borel = make_splitting(sl3, tuple(sl3.triangular.plus) + tuple(sl3.triangular.cartan))
    horo4 = horospherical_splitting(sl4, [_cartan_line(sl4, 0)])
    # every builder of the exhaustive builder check, t1 = its Cartan minus one coordinate
    builders = [build(n) for build, sizes in ((build_gl, range(1, 6)), (build_sl, range(2, 7)),
                                              (build_so_even, range(2, 6))) for n in sizes]
    rebuilds = [horospherical_splitting(L, [_cartan_line(L, k) for k in range(L.rank - 1)])
                for L in builders]
    for S in (borel, horo4, so8_splitting(), double_sl3_splitting(), *rebuilds):
        for A in (S.algebra, contract(S, "keep_h"), contract(S, "keep_r"),
                  family_bracket(S, (1, QQ(-3, 2)))):
            assert _validated_copy_agrees(A), A.kind
        assert _bracket_table(contract(S, "keep_h")) == _bracket_table(family_bracket(S, (1, 0)))
    # a bare Decomposition: h the Cartan, its complement (the root vectors) not closed
    D = make_decomposition(sl3, tuple(sl3.triangular.cartan))
    assert _jacobi_holds(contract(D, "keep_h"))
    assert contract(D, "keep_h").constants != sl3.constants


def test_pencil_members_isomorphic_via_grading_rescale():
    # x_h -> x_h, x_r -> t x_r carries the (1,t) bracket to the original one
    rng = random.Random(5)
    g = build_sl(3)
    S = make_splitting(g, tuple(g.triangular.plus) + tuple(g.triangular.cartan))
    for _ in range(4):
        t = QQ(rng.randint(1, 20), rng.randint(1, 7))
        Lt = family_bracket(S, BracketParameter(1, t))
        scale = [QQ(1) if i in S.h_set else t for i in range(g.dim)]
        keys = set(Lt.constants) | set(g.constants)
        for (i, j) in keys:
            lhs = {}
            for k, c in Lt.bracket_pair(i, j).items():
                lhs[k] = c * scale[k]
            rhs = {}
            for k, c in g.bracket_pair(i, j).items():
                val = scale[i] * scale[j] * c
                rhs[k] = val
            assert lhs == rhs, (i, j)


def test_contraction_never_increases_tensor_rank_on_ann_h():
    rng = random.Random(3)
    g = build_sl(3)
    S = make_splitting(g, tuple(g.triangular.plus) + tuple(g.triangular.cartan))
    for _ in range(6):
        xi = [0] * g.dim
        for i in S.r_indices:
            xi[i] = rng.randint(-50, 50)
        r0 = tensor_at(pencil_member(S, BracketParameter(1, 0)), xi).rank
        r1 = tensor_at(pencil_member(S, BracketParameter(1, 1)), xi).rank
        assert r0 <= r1


def test_drinfeld_double_contraction():
    # double(sl2) with h = <e, h-xi>: the keep_h contraction is b acting on
    # its dual, matching the directly-built semidirect product b x (b*)^ab.
    d = build_double(sl2())
    t1 = [[QQ(0), QQ(1), QQ(0), -QQ(1)]]
    S = horospherical_splitting(d, t1)
    con = contract(S, "keep_h")  # basis (e, m=h-xi, f, p=h+xi)
    # direct model: basis (E, H, E*, H*), [H,E]=2E, [E,E*]=2H*, [H,E*]=-2E*
    model = LieAlgebra(
        ["E", "H", "Es", "Hs"],
        {(0, 1): ((0, QQ(-2)),), (0, 2): ((3, QQ(2)),), (1, 2): ((2, QQ(-2)),)},
    )
    # isomorphism E->e, H->m, Es->f, Hs->(1/4)p
    from liesplit.liealg import change_basis

    img = change_basis(
        con,
        [
            [QQ(1), QQ(0), QQ(0), QQ(0)],
            [QQ(0), QQ(1), QQ(0), QQ(0)],
            [QQ(0), QQ(0), QQ(1), QQ(0)],
            [QQ(0), QQ(0), QQ(0), QQ(1, 4)],
        ],
        ["E", "H", "Es", "Hs"],
    )
    assert img.constants == model.constants


def test_horospherical_extreme_cases():
    g = sl2()
    full = horospherical_splitting(g, [[QQ(0), QQ(1), QQ(0)]])
    assert len(full.t1_indices) == 1 and len(full.t0_indices) == 0
    assert full.dim_h == 2  # h = b
    empty = horospherical_splitting(g, [])
    assert len(empty.t0_indices) == 1
    assert empty.dim_h == 1  # h = u


def test_horospherical_sl3_paper_subspace():
    # t1 = span diag(1,0,-1); the complement is span diag(1,-2,1)
    g = build_sl(3)
    cart = g.triangular.cartan
    v = [QQ(0)] * 8
    v[cart[0]] = QQ(1)
    v[cart[1]] = QQ(1)  # h1 + h2 = diag(1,0,-1)
    S = horospherical_splitting(g, [v])
    t0 = S.t0_indices[0]
    # the adapted t0 vector, read through the base change, is diag(1,-2,1):
    col = [S.algebra.base_change[i, t0] for i in range(8)]
    assert col[cart[0]] == 1 and col[cart[1]] == -1
    assert all(col[i] == 0 for i in range(8) if i not in cart)


def test_horospherical_rejects_degenerate_t1():
    g = build_sl(3)
    cart = g.triangular.cartan
    bad = [QQ(0)] * 8
    bad[0] = QQ(1)  # a root vector, not in the Cartan
    with pytest.raises(ValueError):
        horospherical_splitting(g, [bad])
    v1 = [QQ(0)] * 8
    v1[cart[0]] = QQ(1)
    v2 = [QQ(0)] * 8
    v2[cart[0]] = QQ(2)
    # a dependent t1 names its first vector that is zero or a combination of the ones before it
    with pytest.raises(ValueError, match="t1 vectors are dependent: t1 vector 1 is a combination"
                                         " of the ones before it$"):
        horospherical_splitting(g, [v1, v2])
    with pytest.raises(ValueError, match="t1 vectors are dependent: t1 vector 1 is zero$"):
        horospherical_splitting(g, [v1, [0] * 8])


def test_horospherical_checks_a_supplied_t0():
    g = build_sl(3)
    h1, h2 = ([int(i == c) for i in range(8)] for c in g.triangular.cartan)
    t1 = [[a + b for a, b in zip(h1, h2)]]  # diag(1,0,-1); its complement is h1 - h2 = diag(1,-2,1)
    t0 = [[a - b for a, b in zip(h1, h2)]]
    assert horospherical_splitting(g, t1, t0_basis=t0).algebra.constants == \
        horospherical_splitting(g, t1).algebra.constants
    for t1_basis, t0_basis, message in (
            (t1, t0 + [h1], "supplied t0 has 2 vectors, expected 1$"),
            (t1, [h1], "supplied t0 vector 0 is not orthogonal to t1$"),
            # the first vector that is zero or a combination of the ones before it is named
            (t1, [[0] * 8], "supplied t0 vectors are dependent: t0 vector 0 is zero$"),
            ([], [h1, [2 * x for x in h1]],
             "supplied t0 vectors are dependent: t0 vector 1 is a combination of the ones before it$")):
        with pytest.raises(ValueError, match=message):
            horospherical_splitting(g, t1_basis, t0_basis=t0_basis)
    # with t1 = 0 any basis of the Cartan is a t0, in the order given
    S = horospherical_splitting(g, [], t0_basis=[h2, h1])
    assert [[S.algebra.base_change[i, t] for i in g.triangular.cartan] for t in S.t0_indices] == \
        [[0, 1], [1, 0]]


def test_float_t1_vectors_are_rejected():
    g = build_sl(3)
    t1 = [0] * g.dim
    t1[g.triangular.cartan[0]] = 0.5
    with pytest.raises(TypeError, match="float 0.5 in t1 vector"):
        horospherical_splitting(g, [t1])


class _Split(Exception):
    """Stops a case once its horospherical splitting exists."""


def test_golden_rebuilds_carry_the_triangular_data_of_their_blocks(monkeypatch):
    """``change_basis`` gives every golden case's adapted algebra the triangular data of
    its blocks (u+, t1 + t0, u-), as read off the rebuilt constants and Gram matrix."""
    made = []

    def split(L, t1_basis, t0_basis=None):
        made.append(horospherical_splitting(L, t1_basis, t0_basis))
        raise _Split

    monkeypatch.setattr(zalgebra, "horospherical_splitting", split)
    golden = json.loads((Path(__file__).parent / "data" / "case_reports.json").read_text())
    for entry in golden:  # one seed per case: the splitting does not depend on it
        if entry["name"] not in ("e6_weyl", "aks") and entry["seed"] == 1:
            with pytest.raises(_Split):
                zalgebra.run_case(entry["name"], dict(entry["params"]), seed=entry["seed"])
    assert len(made) == 10
    for S in made:
        A, base = S.algebra, S.algebra.base_algebra.triangular
        nplus, k = len(base.plus), len(S.t1_indices)
        minus = range(nplus + k, nplus + k + len(base.minus))
        assert A.triangular == liealg._triangular(
            A.constants, range(nplus), S.t1_indices + S.t0_indices, minus, A.gram), A.kind
