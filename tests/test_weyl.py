import random
import tracemalloc
from dataclasses import replace
from itertools import combinations
from math import prod
from operator import mul

import pytest

from liesplit._kernels import pure
from liesplit.linalg import Matrix, inverse, rank_and_nullspace
from liesplit.poly import Polynomial
from liesplit.rationals import QQ, clear_denominators
from liesplit.weyl import (
    SatakeDiagram,
    _decode,
    _encode,
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
    # element k > 0 is s_last[k] applied after element parent[k], by a reduced word
    word = [0] * W.order
    for k in range(1, W.order):
        assert W.elements[W._parent[k]].translate(perms[W._last[k]]) == W.elements[k]
        word[k] = word[W._parent[k]] + 1
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
    # the order that _parent and _last index: element k is s_last[k] after element parent[k]
    for k in range(1, W.order):
        gen = W.generators[W._last[k]]
        assert W.matrix(keys[k]) == W.matrix(gen) * W.matrix(keys[W._parent[k]])
    assert [W.elements.find(key) for key in keys] == list(range(W.order))
    assert set(random.Random(0).sample(W.elements, 5)) <= set(keys)


def test_key_table_finds_only_aligned_keys():
    W = enumerate_weyl(build_root_system("A", 3))
    r = W.root_system.rank
    keys = set(W.elements)
    # a run of r bytes that straddles two stored keys and is no key itself
    straddling = next(W.keys[i:i + r] for i in range(1, len(W.keys) - r)
                      if i % r and W.keys[i:i + r] not in keys)
    assert W.keys.find(straddling) >= 0
    assert W.elements.find(straddling) == -1
    with pytest.raises(ValueError, match="not an element"):
        W.matrix(straddling)
    assert W.elements.find(W.elements[0][:-1]) == -1


def test_enumeration_of_e6_stays_small():
    rs = build_root_system("E6")
    tracemalloc.start()
    try:
        W = enumerate_weyl(rs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(W.keys) == 6 * 51840
    assert peak < 2_000_000, peak


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


def test_invariant_basis_rejects_a_set_that_is_not_a_finite_group():
    # the kernel of (2 - 1) + (0 - 1) is everything, but neither matrix fixes x
    with pytest.raises(AssertionError):
        invariant_basis([Matrix([[2]]), Matrix([[0]])], 1, 1)


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


def _det(rows):
    if not rows:
        return QQ(1)
    return sum(
        (-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
    )


def _molien_series(matrices, dmax):
    """Coefficients of 1/|G| sum_g 1/det(1 - t g) up to t^dmax, exactly."""
    total = [QQ(0)] * (dmax + 1)
    for g in matrices:
        a = g.nrows
        # det(1 - t g) = sum_k (-t)^k (sum of the principal k-minors of g)
        p = [QQ(0)] * (dmax + 1)
        for k in range(min(a, dmax) + 1):
            p[k] = (-1) ** k * sum(
                (_det([[g[i, j] for j in idx] for i in idx]) for idx in combinations(range(a), k)),
                QQ(0),
            )
        inv = [QQ(1)] + [QQ(0)] * dmax
        for k in range(1, dmax + 1):
            inv[k] = -sum((p[j] * inv[k - j] for j in range(1, k + 1)), QQ(0))
        total = [x + y for x, y in zip(total, inv)]
    return [x / len(matrices) for x in total]


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
    for label, rank_, arrows in (("E6", None, ((1, 5), (2, 4))), ("A", 4, ((1, 4), (2, 3)))):
        rs = build_root_system(label, rank_)
        t0 = satake_subspaces(rs, SatakeDiagram(arrows))
        rep = w0_compute(enumerate_weyl(rs), t0)
        series = _molien_series(rep.matrices, 6)
        for d in range(1, 7):
            assert len(invariant_basis(rep.matrices, d, len(t0))) == series[d], (label, d)
