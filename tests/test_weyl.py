import random
import tracemalloc
from dataclasses import replace
from math import prod
from operator import mul

import pytest

from liesplit._kernels import pure
from liesplit import weyl
from liesplit.linalg import Matrix, inverse, rank, rank_and_nullspace
from liesplit.poly import Polynomial
from liesplit.rationals import QQ, clear_denominators
from liesplit.weyl import (
    SatakeDiagram,
    _basic_invariants,
    _decode,
    _encode,
    _fundamental_forms,
    _molien_series,
    _monomials,
    build_root_system,
    enumerate_weyl,
    invariant_basis,
    restriction_check,
    satake_subspaces,
    w0_compute,
)


def _breadth_first(rs):
    """Reference enumeration: (roots, generator root permutations, {key: length}) with
    the keys in breadth-first order from the identity, each new key s w tested against
    the dict."""
    n = rs.model_dim
    positive = [tuple(r) for r in rs.positive_roots]
    roots = tuple(positive + [tuple(-x for x in r) for r in positive])
    where = {r: k for k, r in enumerate(roots)}
    pad = bytes(range(len(roots), 256))
    perms = [bytes(where[tuple(Matrix(_decode(g, n)).matvec(r))] for r in roots) + pad
             for g in rs.reflections]
    elements = [bytes(where[a] for a in rs.simple_roots)]
    length = {elements[0]: 0}
    for el in elements:   # grows while it is walked
        for perm in perms:
            w = el.translate(perm)
            if w not in length:
                length[w] = length[el] + 1
                elements.append(w)
    return roots, perms, length


def _steps(W):
    """(k, parent, s) for each element k > 0, read from the level orbits: element k = p m + t
    of block p > 0 of a level is generator s = via[p] applied after element came_from[p] m + t."""
    for m, came_from, via in W._levels:
        for k in range(m, m * len(came_from)):
            p, t = divmod(k, m)
            yield k, came_from[p] * m + t, via[p]


def _w0_reference(W, t0_basis):
    """Reference normalizer loop: every element's integer images of the t0 basis, tested
    against an integer annihilator of t0; returns (orders, element orders, matrices)."""
    rs = W.root_system
    T = Matrix.from_columns(t0_basis)
    proj = inverse(T.transpose() * rs.gram * T) * (T.transpose() * rs.gram)
    S = Matrix.from_columns(rs.simple_roots)
    to_alpha = inverse(S.transpose() * rs.gram * S) * (S.transpose() * rs.gram)
    annihilator = [clear_denominators(v)[1] for v in rank_and_nullspace(T.transpose())[1]]
    tables = [[sum(map(mul, row, root)) for root in W.roots] for row in annihilator]
    scaled = []   # (d, C, F) with d u = sum_i C_i alpha_i + F in integers
    for u in zip(*T.rows):
        c = to_alpha.matvec(u)
        d, cf = clear_denominators(c + tuple(x - y for x, y in zip(u, S.matvec(c))))
        scaled.append((d, cf[: rs.rank], cf[rs.rank:]))

    def image(el):
        return tuple(tuple(f + sum(x * W.roots[k][t] for x, k in zip(coeffs, el))
                           for t, f in enumerate(fixed))
                     for _, coeffs, fixed in scaled)

    identity = image(W.elements[0])
    n_count = z_count = 0
    images = set()
    for el in W.elements:
        if all(sum(x * table[k] for x, k in zip(coeffs, el)) + sum(map(mul, row, fixed)) == 0
               for _, coeffs, fixed in scaled for row, table in zip(annihilator, tables)):
            n_count += 1
            img = image(el)
            z_count += img == identity
            images.add(img)
    mats = {Matrix.from_columns([[QQ(x) / d for x in proj.matvec(v)]
                                 for (d, _, _), v in zip(scaled, img)])
            for img in images}
    ident = Matrix.identity(len(t0_basis))
    orders = {}
    for m in mats:
        k, acc = 1, m
        while acc != ident:
            k, acc = k + 1, acc * m
        orders[k] = orders.get(k, 0) + 1
    return (W.order, n_count, z_count, len(mats)), orders, mats


def test_positive_root_counts():
    assert len(build_root_system("A", 2).positive_roots) == 3
    assert len(build_root_system("D", 4).positive_roots) == 12
    assert len(build_root_system("E6").positive_roots) == 36


@pytest.mark.parametrize("label, rank_, order, positive", [
    ("A", 2, 6, 3), ("A", 3, 24, 6), ("A", 4, 120, 10), ("D", 3, 24, 6),
    ("D", 4, 192, 12), ("E6", None, 51840, 36),
])
def test_degrees_give_order_and_reflection_count(label, rank_, order, positive):
    rs = build_root_system(label, rank_)
    assert prod(rs.degrees) == order
    assert sum(d - 1 for d in rs.degrees) == positive == len(rs.positive_roots)


def test_weyl_orders_small():
    assert enumerate_weyl(build_root_system("A", 2)).order == 6
    assert enumerate_weyl(build_root_system("A", 3)).order == 24
    assert enumerate_weyl(build_root_system("D", 4)).order == 192


def test_enumeration_stops_at_the_order_of_the_degrees():
    rs = build_root_system("D", 4)
    with pytest.raises(AssertionError, match="passed"):
        enumerate_weyl(replace(rs, degrees=(2, 4, 4, 3)))  # 96 < 192
    with pytest.raises(AssertionError, match="!="):
        enumerate_weyl(replace(rs, degrees=(2, 4, 4, 12)))  # 384 > 192


_GROUPS = [("A", r) for r in range(1, 7)] + [("D", r) for r in (3, 4, 5)] + [("E6", None)]


@pytest.mark.parametrize("label, rank_", _GROUPS)
def test_coset_enumeration_matches_breadth_first_oracle(label, rank_):
    rs = build_root_system(label, rank_)
    W = enumerate_weyl(rs)
    roots, perms, length = _breadth_first(rs)
    identity = next(iter(length))
    assert W.roots == roots
    assert W.order == len(length) == prod(rs.degrees)
    assert W.elements[0] == identity
    assert set(W.elements) == set(length)
    assert W.generators == [identity.translate(p) for p in perms]
    # each element k > 0 is a generator applied after its parent, by a reduced word
    steps = list(_steps(W))
    assert [k for k, _, _ in steps] == list(range(1, W.order))
    word = [0] * W.order
    for k, parent, s in steps:
        assert W.elements[parent].translate(perms[s]) == W.elements[k]
        word[k] = word[parent] + 1
    assert word == [length[el] for el in W.elements]
    # the key names the image of each simple root, for every element through D5
    sample = W.elements if W.order <= 1920 else random.Random(0).sample(W.elements, 64)
    for el in sample:
        m = W.matrix(el)
        for i, alpha in enumerate(rs.simple_roots):
            assert tuple(m.matvec(alpha)) == W.roots[el[i]]


def test_every_enumeration_check_fires():
    rs = build_root_system("A", 2)
    s0, s1 = rs.reflections
    one = _encode(Matrix.identity(3).rows, 3)
    swap13 = _encode([[0, 0, 1], [0, 1, 0], [1, 0, 0]], 3)   # the reflection in e1 - e3
    # the identity for s_1 and the true s_1 for s_2: s_2 fixes v_2 but is no element of <s_1>
    with pytest.raises(AssertionError, match="not closed under s_2 at level 2"):
        enumerate_weyl(replace(rs, reflections=(one, s0)))
    # s_1 = s_(e1 - e3) moves v_2, so the cosets of <s_1> along the orbit of v_2 overlap
    with pytest.raises(AssertionError, match="repeats an element at level 2"):
        enumerate_weyl(replace(rs, reflections=(swap13, s1)))
    with pytest.raises(AssertionError, match="passed"):
        enumerate_weyl(replace(rs, degrees=(2, 2)))   # the third coset of <s_1> passes 4
    with pytest.raises(AssertionError, match="enumerated order 2 != "):
        enumerate_weyl(replace(rs, reflections=(s0, s0)))


def test_enumeration_checks_each_reflection_permutes_the_roots():
    # a "root system" with roots +-(1, -1), +-(1, 0) and a singular s_1 that sends
    # (1, -1) and (1, 0) both to (1, 0): every image is a root, but two coincide
    rs = build_root_system("A", 1)
    fake = replace(rs, positive_roots=((1, -1), (1, 0)), positive_alpha=((1,), (1,)),
                   reflections=(_encode([[1, 0], [0, 0]], 2),))
    with pytest.raises(AssertionError, match="s_1 does not permute the roots"):
        enumerate_weyl(fake)


def test_key_table_is_a_sequence_of_keys_in_coset_order():
    rs = build_root_system("A", 3)
    W = enumerate_weyl(rs)
    r = rs.rank
    keys = list(W.elements)
    assert len(W.elements) == W.order == len(keys) == len(W.keys) // r
    assert keys == [W.keys[k * r:(k + 1) * r] for k in range(W.order)]
    assert all(type(key) is bytes for key in keys)
    assert W.elements[-1] == keys[-1] and W.elements[-W.order] == keys[0]
    for k in (W.order, -W.order - 1):
        with pytest.raises(IndexError):
            W.elements[k]
    # the order the level orbits index: element k is generator s after its parent
    for k, parent, s in _steps(W):
        assert W.matrix(keys[k]) == W.matrix(W.generators[s]) * W.matrix(keys[parent])
    assert [W.elements.find(key) for key in keys] == list(range(W.order))
    assert set(random.Random(0).sample(W.elements, 5)) <= set(keys)


def test_key_table_finds_only_aligned_keys():
    W = enumerate_weyl(build_root_system("A", 3))
    r = W.root_system.rank
    keys = set(W.elements)
    # a run of r bytes that straddles two stored keys and is no key itself
    straddling = next(bytes(W.keys[i:i + r]) for i in range(1, len(W.keys) - r)
                      if i % r and bytes(W.keys[i:i + r]) not in keys)
    assert W.keys.find(straddling) >= 0
    assert W.elements.find(straddling) == -1
    with pytest.raises(ValueError, match="not an element"):
        W.matrix(straddling)
    assert W.elements.find(W.elements[0][:-1]) == -1


def test_enumeration_of_e6_stays_small():
    # the table is allocated once and filled in place: no final copy of it, and no
    # per-element word arrays beside it
    rs = build_root_system("E6")
    size = 6 * 51840
    tracemalloc.start()
    try:
        W = enumerate_weyl(rs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(W.keys) == size
    assert peak <= 1.6 * size, peak / size
    assert held <= 1.3 * size, held / size


_W0_CASES = [
    ("E6", None, ((1, 5), (2, 4))), ("E6", None, ((1, 5),)), ("A", 5, ((1, 5), (2, 4))),
    ("A", 4, ((1, 4), (2, 3))), ("A", 3, ((1, 3),)), ("D", 4, ((3, 4),)), ("D", 5, ((4, 5),)),
]


@pytest.mark.parametrize("label, rank_, arrows", _W0_CASES)
def test_w0_matches_per_element_oracle(label, rank_, arrows):
    rs = build_root_system(label, rank_)
    W = enumerate_weyl(rs)
    t0 = satake_subspaces(rs, SatakeDiagram(arrows))
    rep = w0_compute(W, t0)
    assert (rep.orders, rep.element_orders, set(rep.matrices)) == _w0_reference(W, t0)
    assert len(rep.matrices) == rep.order_w0


def test_w0_full_space_matches_per_element_oracle():
    # nonzero F (the fixed line of the A2 model) and the full support
    W = enumerate_weyl(build_root_system("A", 2))
    basis = [tuple(QQ(1) if i == j else QQ(0) for i in range(3)) for j in range(3)]
    rep = w0_compute(W, basis)
    assert (rep.orders, rep.element_orders, set(rep.matrices)) == _w0_reference(W, basis)


def test_restriction_rejects_dmax_below_one():
    rs = build_root_system("A", 3)
    W = enumerate_weyl(rs)
    t0 = satake_subspaces(rs, SatakeDiagram(((1, 3),)))
    for dmax in (0, -1):
        with pytest.raises(ValueError, match=f"dmax >= 1 required, got {dmax}"):
            restriction_check(W, t0, dmax=dmax)
    assert restriction_check(W, t0, dmax=1).per_degree == [(1, 0, 0)]


@pytest.mark.parametrize("dmax", [True, 2.0, "3"])
def test_restriction_rejects_a_dmax_that_is_not_an_int(dmax):
    rs = build_root_system("A", 3)
    W = enumerate_weyl(rs)
    t0 = satake_subspaces(rs, SatakeDiagram(((1, 3),)))
    with pytest.raises(ValueError, match=f"dmax must be an integer, got {dmax!r}"):
        restriction_check(W, t0, dmax=dmax)


def test_elements_permute_roots_exhaustive():
    for label, rank in (("A", 2), ("A", 3), ("A", 4), ("D", 4)):
        rs = build_root_system(label, rank)
        W = enumerate_weyl(rs)
        roots = set(rs.positive_roots) | {tuple(-x for x in r) for r in rs.positive_roots}
        matrices = set()
        for el in W.elements:
            m = W.matrix(el)
            matrices.add(m)
            for r in rs.positive_roots:
                assert tuple(m.matvec(r)) in roots
            # the key names the image of each simple root
            for i, alpha in enumerate(rs.simple_roots):
                assert tuple(m.matvec(alpha)) == W.roots[el[i]]
        assert len(matrices) == W.order


def test_matrix_checks_the_key():
    W = enumerate_weyl(build_root_system("A", 2))
    assert W.matrix(W.elements[0]) == Matrix.identity(3)
    with pytest.raises(ValueError):
        W.matrix(bytes([0, 0]))
    W.roots = W.roots[::-1]
    with pytest.raises(AssertionError):
        W.matrix(W.generators[0])


def test_int8_encoding_and_product_never_wrap():
    assert _decode(_encode([[127, -128], [0, 1]], 2), 2) == [[127, -128], [0, 1]]
    for bad in (128, -129, QQ(1, 2)):
        with pytest.raises(ValueError):
            _encode([[bad]], 1)
    assert pure.matmul_i8(_encode([[11]], 1), _encode([[-11]], 1), 1) == _encode([[-121]], 1)
    big = _encode([[100, 0], [0, 1]], 2)
    with pytest.raises(OverflowError):
        pure.matmul_i8(big, big, 2)


def test_satake_a3_matches_symmetric_diagonal():
    rs = build_root_system("A", 3)
    t0 = satake_subspaces(rs, SatakeDiagram(((1, 3),)))
    assert len(t0) == 1
    assert tuple(int(x) for x in t0[0]) == (1, -1, -1, 1)


def test_satake_dn_arrow_spans_last_axis():
    rs = build_root_system("D", 4)
    t0 = satake_subspaces(rs, SatakeDiagram(((3, 4),)))
    assert len(t0) == 1
    v = [int(x) for x in t0[0]]
    assert v[:3] == [0, 0, 0] and v[3] != 0


def test_satake_e6_dimension():
    rs = build_root_system("E6")
    t0 = satake_subspaces(rs, SatakeDiagram(((1, 5), (2, 4))))
    assert len(t0) == 2


def test_satake_validation():
    with pytest.raises(ValueError):
        SatakeDiagram(((1, 1),))
    with pytest.raises(ValueError):
        SatakeDiagram(((1, 2), (2, 3)))
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        satake_subspaces(rs, SatakeDiagram(((1, 9),)))


def test_w0_a4_is_s2():
    rs = build_root_system("A", 4)
    W = enumerate_weyl(rs)
    t0 = satake_subspaces(rs, SatakeDiagram(((1, 4), (2, 3))))
    rep = w0_compute(W, t0)
    assert rep.orders == (120, 8, 4, 2)
    assert rep.element_orders == {1: 1, 2: 1}


def test_w0_full_space_recovers_w():
    rs = build_root_system("A", 2)
    W = enumerate_weyl(rs)
    basis = [tuple(QQ(1) if i == j else QQ(0) for i in range(3)) for j in range(3)]
    rep = w0_compute(W, basis)
    assert rep.order_n == W.order
    assert rep.order_z == 1
    assert rep.order_w0 == W.order


def test_restriction_sl5_fails_at_degree_one():
    rs = build_root_system("A", 4)
    W = enumerate_weyl(rs)
    t0 = satake_subspaces(rs, SatakeDiagram(((1, 4), (2, 3))))
    rc = restriction_check(W, t0)
    assert rc.per_degree[0] == (1, 0, 1)
    assert rc.first_failure_degree == 1
    assert not rc.verdict_up_to_dmax


def test_restriction_so8_passes_all_degrees():
    rs = build_root_system("D", 4)
    W = enumerate_weyl(rs)
    t0 = satake_subspaces(rs, SatakeDiagram(((3, 4),)))
    rc = restriction_check(W, t0)
    assert rc.first_failure_degree is None
    assert rc.verdict_up_to_dmax
    assert rc.dmax == 6
    for d, image_dim, inv_dim in rc.per_degree:
        assert image_dim == inv_dim == (1 if d % 2 == 0 else 0)


def _acts(m, p):
    """p(m x) for the substitution x_i -> row_i . x."""
    lin = [Polynomial.linear_form(p.nvars, row) for row in m.rows]
    return p.map_vars(lin, p.nvars)


def test_generator_fixed_space_equals_element_fixed_space():
    for label, rank in (("A", 2), ("A", 3), ("D", 3)):
        rs = build_root_system(label, rank)
        W = enumerate_weyl(rs)
        gens = [W.matrix(g) for g in W.generators]
        all_mats = [W.matrix(el) for el in W.elements]
        for d in (1, 2, 3):
            fixed = invariant_basis(gens, d, rs.model_dim)
            assert len(fixed) == len(invariant_basis(all_mats, d, rs.model_dim))
            for p in fixed:
                assert all(_acts(m, p) == p for m in all_mats), (label, d)


def test_invariant_basis_is_the_common_fixed_space_of_any_matrices():
    # once an AssertionError: the kernel of (2 - 1) + (0 - 1) is everything, but neither
    # matrix fixes x
    assert invariant_basis([Matrix([[2]]), Matrix([[0]])], 1, 1) == []
    # the shear x0 -> x0 + x1, x1 -> x1 generates no finite group, and fixes exactly x1^d
    shear = [Matrix([[1, 1], [0, 1]])]
    x1 = Polynomial.variable(2, 1)
    assert invariant_basis(shear, 1, 2) == [x1]
    assert invariant_basis(shear, 2, 2) == [x1**2]
    # an empty list fixes every monomial
    assert len(invariant_basis([], 2, 2)) == 3


def test_image_dimension_monotone_under_products():
    # products of lower-degree restricted invariants stay inside the
    # restricted image of the matching degree
    rs = build_root_system("A", 3)
    W = enumerate_weyl(rs)
    t0 = satake_subspaces(rs, SatakeDiagram(((1, 3),)))
    gens = [W.matrix(g) for g in W.generators]
    a = len(t0)
    restr = [
        Polynomial.linear_form(a, [QQ(t0[s][i]) for s in range(a)]) for i in range(rs.model_dim)
    ]

    def image_polys(d):
        return [p.map_vars(restr, a) for p in invariant_basis(gens, d, rs.model_dim)]

    from liesplit.linalg import Matrix, rank

    i2 = image_polys(2)
    i4 = image_polys(4)
    prods = [p * q for p in i2 for q in i2]
    monos = sorted({e for p in i4 + prods for e in p.terms})
    base = [[p.coeff(e) for e in monos] for p in i4]
    r_base = rank(Matrix(base)) if base else 0
    both = base + [[p.coeff(e) for e in monos] for p in prods]
    assert rank(Matrix(both)) == r_base


def test_restriction_verdicts_match_ggs_routes():
    # the cross-module verdict table: sl4 yes, sl3 no, sl5 no, so8 yes
    cases = [
        ("A", 3, ((1, 3),), True),
        ("A", 2, ((1, 2),), False),
        ("A", 4, ((1, 4), (2, 3)), False),
        ("D", 4, ((3, 4),), True),
    ]
    for label, rank_, arrows, expected in cases:
        rs = build_root_system(label, rank_)
        W = enumerate_weyl(rs)
        t0 = satake_subspaces(rs, SatakeDiagram(arrows))
        rc = restriction_check(W, t0)
        assert rc.verdict_up_to_dmax == expected


def test_restriction_full_table_without_short_circuit():
    rs = build_root_system("A", 4)
    W = enumerate_weyl(rs)
    t0 = satake_subspaces(rs, SatakeDiagram(((1, 4), (2, 3))))
    rc = restriction_check(W, t0, dmax=4, stop_at_failure=False)
    assert rc.first_failure_degree == 1
    assert [d for d, _, _ in rc.per_degree] == [1, 2, 3, 4]   # past the failure, up to dmax
    for d, image_dim, inv_dim in rc.per_degree:
        assert image_dim <= inv_dim


def _degrees_series(degrees, dmax):
    """Coefficients of prod_i (1 - t^d_i)^(-1) up to t^dmax."""
    coeffs = [1] + [0] * dmax
    for d in degrees:
        for k in range(d, dmax + 1):
            coeffs[k] += coeffs[k - d]
    return coeffs


def test_molien_oracle_counts_invariants_of_w():
    # the model's fundamental degrees: A_n on n+1 coordinates has 1..n+1
    cases = (
        ("A", 2, (1, 2, 3), 6),
        ("A", 3, (1, 2, 3, 4), 6),
        ("D", 4, (2, 4, 4, 6), 6),
        ("E6", None, (2, 5, 6, 8, 9, 12), 4),
    )
    for label, rank_, degrees, dmax in cases:
        rs = build_root_system(label, rank_)
        W = enumerate_weyl(rs)
        gens = [W.matrix(g) for g in W.generators]
        series = _degrees_series(degrees, dmax)
        for d in range(1, dmax + 1):
            assert len(invariant_basis(gens, d, rs.model_dim)) == series[d], (label, d)


def test_molien_oracle_counts_invariants_of_w0():
    # the library's Molien column against the kernel of sum_g (g - 1) over every W0 element
    for label, rank_, arrows in (("E6", None, ((1, 5), (2, 4))), ("E6", None, ((1, 6), (3, 5))),
                                 ("A", 4, ((1, 4), (2, 3))), ("A", 7, ((1, 7), (2, 6), (3, 5)))):
        rs = build_root_system(label, rank_)
        t0 = satake_subspaces(rs, SatakeDiagram(arrows))
        rep = w0_compute(enumerate_weyl(rs), t0)
        series = _molien_series(rep.matrices, len(t0), 6)
        assert series[0] == 1
        for d in range(1, 7):
            assert len(invariant_basis(rep.matrices, d, len(t0))) == series[d], (label, d)


def _oracle_rows(W, t0, w0, dmax):
    """The restriction table by whole invariants: C[t]^W_d as the kernel of sum_i (s_i - 1)
    on the degree-d coefficients, restricted to t0 and ranked, and C[t0]^W0_d as the kernel
    over every W0 element."""
    rs = W.root_system
    gens = [W.matrix(g) for g in W.generators]
    a = len(t0)
    restr = [Polynomial.linear_form(a, [t0[s][i] for s in range(a)]) for i in range(rs.model_dim)]
    rows = []
    for d in range(1, dmax + 1):
        image = [p.map_vars(restr, a) for p in invariant_basis(gens, d, rs.model_dim)]
        monos = sorted({e for p in image for e in p.terms})
        rows.append((d, rank(Matrix([[p.coeff(e) for e in monos] for p in image])),
                     len(invariant_basis(w0.matrices, d, a))))
    return rows


_ORACLE_CASES = [
    ("A", 2, ((1, 2),), 6), ("A", 3, ((1, 3),), 6), ("A", 4, ((1, 4), (2, 3)), 6),
    ("A", 5, ((1, 5), (2, 4)), 6), ("D", 4, ((3, 4),), 6), ("D", 5, ((4, 5),), 6),
    ("E6", None, ((1, 5), (2, 4)), 5), ("E6", None, ((1, 6), (3, 5)), 5),
]


@pytest.mark.parametrize("label, rank_, arrows, dmax", _ORACLE_CASES)
def test_restriction_matches_the_invariant_basis_oracle(label, rank_, arrows, dmax):
    rs = build_root_system(label, rank_)
    W = enumerate_weyl(rs)
    t0 = satake_subspaces(rs, SatakeDiagram(arrows))
    rep = w0_compute(W, t0)
    rc = restriction_check(W, t0, rep, dmax=dmax, stop_at_failure=False)
    assert rc.per_degree == _oracle_rows(W, t0, rep, dmax)


@pytest.mark.parametrize("t0, rows", [
    ([(1, 1, 1)], [(1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 1, 1)]),   # the W-fixed line itself
    ([(1, 0, 0)], [(1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 1, 1)]),   # off the roots' span
])
def test_restriction_sees_the_fixed_direction_of_the_a2_model(t0, rows):
    # the power sums over the weight orbits vanish on the fixed line and see only the part of
    # x in the span of the roots; the fixed linear form x0 + x1 + x2 is the degree-1 generator
    W = enumerate_weyl(build_root_system("A", 2))
    rep = w0_compute(W, t0)
    rc = restriction_check(W, t0, rep, dmax=4, stop_at_failure=False)
    assert rc.per_degree == rows == _oracle_rows(W, t0, rep, 4)
    assert rc.verdict_up_to_dmax


def test_restriction_tables_at_scale():
    # A7 1:7,2:6,3:5 is the t0 of sl2n at n = 4, and E6 1:5,2:4 that of e6_weyl, through d = 12
    rs = build_root_system("A", 7)
    W = enumerate_weyl(rs)
    t0 = satake_subspaces(rs, SatakeDiagram(((1, 7), (2, 6), (3, 5))))
    rep = w0_compute(W, t0)
    assert rep.orders == (40320, 384, 16, 24)
    rc = restriction_check(W, t0, rep, dmax=8)
    assert rc.per_degree == [(1, 0, 0), (2, 1, 1), (3, 1, 1), (4, 2, 2), (5, 1, 1), (6, 3, 3),
                             (7, 2, 2), (8, 4, 4)]
    rs = build_root_system("E6")
    W = enumerate_weyl(rs)
    t0 = satake_subspaces(rs, SatakeDiagram(((1, 5), (2, 4))))
    rc = restriction_check(W, t0, dmax=12, stop_at_failure=False)
    assert rc.per_degree[3:] == [(4, 1, 1), (5, 1, 1), (6, 2, 2), (7, 1, 1), (8, 2, 2), (9, 2, 2),
                                 (10, 2, 2), (11, 2, 2), (12, 3, 3)]
    assert rc.first_failure_degree == 3


@pytest.mark.parametrize("label, rank_", _GROUPS)
def test_basic_invariants_have_the_fundamental_degrees(label, rank_):
    rs = build_root_system(label, rank_)
    W = enumerate_weyl(rs)
    gens = _basic_invariants(W, _fundamental_forms(rs))
    fixed = rs.model_dim - rs.rank
    assert [d for d, _ in gens] == [1] * fixed + sorted(rs.degrees)
    # each fundamental form pairs to zero with every simple root but its own
    for i, form in enumerate(_fundamental_forms(rs)):
        pairings = [sum(map(mul, form, alpha)) for alpha in rs.simple_roots]
        assert pairings[i] > 0 and pairings[:i] + pairings[i + 1:] == [0] * (rs.rank - 1)
    # an orbit is W-stable: every generator permutes it
    for _, forms in gens[fixed:]:
        for g in W.generators:
            m = W.matrix(g).transpose()
            assert {m.matvec(nu) for nu in forms} == set(forms)


@pytest.mark.parametrize("label, rank_, t0", [
    ("A", 2, [(1, 0, 0)]), ("A", 3, [(1, -1, -1, 1)]), ("D", 4, [(0, 0, 0, 2), (1, 1, 0, 0)]),
])
def test_each_generator_is_invariant_and_restricts_as_its_expansion(label, rank_, t0):
    # the whole invariant sum_nu (nu . x)^d, expanded: fixed by every generator of W, and
    # its substitution into t0 is the generator the restriction table is built from
    rs = build_root_system(label, rank_)
    W = enumerate_weyl(rs)
    n, a = rs.model_dim, len(t0)
    restr = [Polynomial.linear_form(a, [u[i] for u in t0]) for i in range(n)]
    for d, forms in _basic_invariants(W, _fundamental_forms(rs)):
        f = sum((Polynomial.linear_form(n, nu) ** d for nu in forms), Polynomial.zero(n))
        assert f, (label, d)
        assert all(_acts(W.matrix(g), f) == f for g in W.generators), (label, d)
        assert weyl._power_sum_on_t0(forms, d, t0) == f.map_vars(restr, a), (label, d)


def test_a_degree_table_that_does_not_multiply_to_the_order_raises():
    rs = build_root_system("A", 3)
    W = enumerate_weyl(rs)
    t0 = satake_subspaces(rs, SatakeDiagram(((1, 3),)))
    W.root_system = replace(rs, degrees=(2, 3, 5))
    with pytest.raises(AssertionError, match=r"multiply to 30, not \|W\| = 24"):
        restriction_check(W, t0)


def test_the_search_names_the_degree_no_candidate_reaches():
    # the power sums over +-e_i give p_2, p_4 and p_6 but never the Pfaffian x1 x2 x3 x4,
    # so the second invariant of degree 4 is missing at every point
    rs = build_root_system("D", 4)
    W = enumerate_weyl(rs)
    forms = _fundamental_forms(rs)
    with pytest.raises(AssertionError, match="no orbit power sum of degree 4"):
        _basic_invariants(W, forms[:1])
    assert [d for d, _ in _basic_invariants(W, forms[:1] + forms[2:3])] == [2, 4, 4, 6]


def test_a_molien_column_one_short_trips_the_escape_assertion(monkeypatch):
    rs = build_root_system("D", 4)
    W = enumerate_weyl(rs)
    t0 = satake_subspaces(rs, SatakeDiagram(((3, 4),)))
    short = weyl._molien_series
    monkeypatch.setattr(weyl, "_molien_series",
                        lambda *args: [x - (d == 2) for d, x in enumerate(short(*args))])
    with pytest.raises(AssertionError, match="escape the W0-invariants"):
        restriction_check(W, t0)


def test_molien_rejects_a_matrix_of_the_wrong_shape_and_a_set_that_is_no_group():
    rs = build_root_system("E6")
    W = enumerate_weyl(rs)
    t0 = satake_subspaces(rs, SatakeDiagram(((1, 5), (2, 4))))
    rep = w0_compute(W, t0)
    k = len(rep.matrices)
    for bad, message in ((Matrix.identity(3), f"matrix {k} has 3 rows, expected 2"),
                         (Matrix([[1, 0, 0], [0, 1, 0]]), f"matrix {k} has 3 columns, expected 2")):
        with pytest.raises(ValueError, match=message):
            restriction_check(W, t0, replace(rep, matrices=rep.matrices + [bad]))
    # 1 and 0 on a line: (1/(1 - t) + 1) / 2 has t-coefficient 1/2
    with pytest.raises(AssertionError, match="not an integer"):
        _molien_series([Matrix([[1]]), Matrix([[0]])], 1, 2)


def test_degrees_past_255_are_rejected_by_name():
    # x1^256 would carry into the byte of x0
    with pytest.raises(ValueError, match="degree <= 255 required, got 256"):
        _monomials(2, 256)
    rs = build_root_system("D", 4)
    W = enumerate_weyl(rs)
    t0 = satake_subspaces(rs, SatakeDiagram(((3, 4),)))
    with pytest.raises(ValueError, match="dmax <= 255 required, got 256"):
        restriction_check(W, t0, dmax=256)
