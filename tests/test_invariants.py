import random
import tracemalloc

import pytest

from liesplit import _kernels as K
from liesplit import invariants, zalgebra
from liesplit.liealg import build_double, build_gl, build_sl, build_so_even, change_basis
from liesplit.invariants import (
    HilbertBasis,
    aks_restrict,
    bidecompose,
    _charpoly,
    _pfaffian_sign_holds,
    _power_sums,
    charpoly_coefficients,
    custom_basis,
    double_shift_basis,
    dual_matrix,
    eliminate_on_subspace,
    ggs_check,
    hilbert_basis,
    jacobian_rank,
    poly_det,
    poly_pfaffian,
    restrict_to_t0,
    transport_basis,
    verify_invariance,
)
from liesplit.linalg import P, Matrix, _pfaffian_mod_p, rank_mod_p
from liesplit.poisson import poisson_bracket
from liesplit.poly import Polynomial
from liesplit.rationals import QQ
from liesplit.splitting import (
    BracketParameter,
    _vectors,
    contract,
    horospherical_splitting,
    make_decomposition,
    make_splitting,
    pencil_member,
)


def _gl_block_indices(gl, sizes):
    order = [(i, j) for i in range(gl.matrix_size) for j in range(gl.matrix_size) if i < j]
    order += [(i, i) for i in range(gl.matrix_size)]
    order += [(i, j) for i in range(gl.matrix_size) for j in range(gl.matrix_size) if i > j]
    bounds = []
    start = 0
    for s in sizes:
        bounds.append((start, start + s))
        start += s

    def inside(i, j):
        return any(a <= i < b and a <= j < b for a, b in bounds)

    return [k for k, (i, j) in enumerate(order) if inside(i, j)]


def sl3_paper_splitting():
    g = build_sl(3)
    cart = g.triangular.cartan
    v = [QQ(0)] * 8
    v[cart[0]] = QQ(1)
    v[cart[1]] = QQ(1)  # diag(1, 0, -1)
    return g, horospherical_splitting(g, [v])


# -- Hilbert bases -------------------------------------------------------


def test_sl2_charpoly_is_the_casimir():
    sl2 = build_sl(2)
    B = hilbert_basis(sl2, "charpoly")
    assert B.degrees == [2]
    e, h, f = (Polynomial.variable(3, i) for i in range(3))
    target = h * h + 4 * e * f
    assert B.polys[0].canonical()[0] == target.canonical()[0]


def test_gl3_trace_powers():
    B = hilbert_basis(build_gl(3), "trace_powers")
    assert B.degrees == [1, 2, 3]


def _matrix_power_traces(L, top=None):
    """The nonzero (tr Y^k, k) for k up to ``top`` (the matrix size by default) by repeated
    products of the polynomial matrix Y: the reference for the Newton's-identities route
    of ``hilbert_basis``."""
    Y = dual_matrix(L)
    size = L.matrix_size
    top = top or size
    zero = Polynomial.zero(L.dim)
    current, out = Y, []
    for k in range(1, top + 1):
        tr = sum((current[i][i] for i in range(size)), zero)
        if tr.terms:
            out.append((tr, k))
        if k < top:
            current = [[sum((current[i][t] * Y[t][j] for t in range(size)), zero)
                        for j in range(size)] for i in range(size)]
    return out


def _traceless_diagonals(L, diags):
    """sl-basis coordinates of traceless diagonal matrices, as the case studies build them."""
    out = []
    for diag in diags:
        v = [0] * L.dim
        for k, i in enumerate(L.triangular.cartan):
            v[i] = sum(diag[: k + 1])
        out.append(v)
    return out


def test_trace_powers_equal_matrix_power_traces():
    # the adapted sl_4 of case sl2n --n 2 and sl_5 of case sl2n1 --n 2
    sl4 = _sl4_splitting()[1].algebra
    g = build_sl(5)
    sl5 = horospherical_splitting(
        g, _traceless_diagonals(g, ([0, 1, 0, -1, 0], [1, 0, 0, 0, -1])),
        t0_basis=_traceless_diagonals(g, ([1, 0, -2, 0, 1], [0, 1, -2, 1, 0]))).algebra
    for L in (sl4, sl5):
        Y = dual_matrix(L)
        assert any(e.den > 1 for row in Y for e in row)
    for L in (build_gl(3), build_sl(3), sl4, sl5):
        B = hilbert_basis(L, "trace_powers")
        want = _matrix_power_traces(L)
        assert B.degrees == [k for _, k in want], L.kind
        assert all(_same_terms(F, G) for F, (G, _) in zip(B.polys, want)), L.kind


@pytest.mark.parametrize("n", [2, 3, 4])
def test_so_trace_powers_end_on_the_pfaffian(n):
    # on so(2n) the odd traces vanish and p_2n gives way to the Pfaffian, as e_2n does
    so = build_so_even(n)
    B, charpoly = hilbert_basis(so, "trace_powers"), hilbert_basis(so, "charpoly")
    assert B.degrees == [2 * k for k in range(1, n)] + [n]
    assert B.generators[-1] == charpoly.generators[-1]  # the Pfaffian
    want = _matrix_power_traces(so, 2 * n - 2)
    assert [d for _, d in want] == B.degrees[:-1]
    assert all(_same_terms(F, G) for F, (G, _) in zip(B.polys, want))
    # Newton's sums of the charpoly basis without its Pfaffian: p_k needs e_1 .. e_k only
    e = {k: Polynomial.zero(so.dim) for k in range(1, 2 * n - 1)}
    e.update((d, F) for F, d in charpoly.generators[:-1])
    assert B.polys[:-1] == [p for p in _power_sums(e).values() if p.terms]


def test_so8_minors_and_pfaffian():
    so8 = build_so_even(4)
    B = hilbert_basis(so8, "charpoly")
    assert B.degrees == [2, 4, 6, 4]
    pf = B.polys[-1]
    delta8 = charpoly_coefficients(so8)[8]
    assert pf * pf == delta8


def test_so6_pfaffian_sign_rule():
    # the Pfaffian is taken of J Y with det J = (-1)^n, so Pf^2 = (-1)^n Delta_2n
    so6 = build_so_even(3)
    B = hilbert_basis(so6, "charpoly")
    assert B.degrees == [2, 4, 3]
    pf = B.polys[-1]
    delta6 = charpoly_coefficients(so6)[6]
    assert pf * pf == -delta6 and not delta6.is_zero()


def test_invariance_checks():
    sl2 = build_sl(2)
    e, h, f = (Polynomial.variable(3, i) for i in range(3))
    assert verify_invariance(sl2, h * h + 4 * e * f)
    assert not verify_invariance(sl2, h * h)
    assert verify_invariance(sl2, Polynomial.constant(3, QQ(7, 3)))


def test_poly_det_and_pfaffian_standard_forms():
    # det of a 3x3 constant matrix and Pf of the standard skew form
    nv = 1
    c = lambda v: Polynomial.constant(nv, v)
    det = poly_det([[c(2), c(0), c(0)], [c(0), c(3), c(0)], [c(0), c(0), c(4)]])
    assert det == c(24)
    z = c(0)
    std = [
        [z, c(1), z, z],
        [c(-1), z, z, z],
        [z, z, z, c(1)],
        [z, z, c(-1), z],
    ]
    assert poly_pfaffian(std) == c(1)


def test_poly_det_and_pfaffian_bound_exponents_once(monkeypatch):
    # a product takes one cell per row (Pf: one above the diagonal): where every variable's
    # largest exponents over the rows sum to at most 255 no product carries, and none is
    # tested; past that each product is ``mul_terms``, and one that carries raises
    x = lambda k: Polynomial.monomial(2, {0: k})
    one, zero = Polynomial.constant(2, 1), Polynomial.zero(2)

    def skew(a01, a02, a03, a12, a13, a23):  # Pf = a01 a23 - a02 a13 + a03 a12
        up = {(0, 1): a01, (0, 2): a02, (0, 3): a03, (1, 2): a12, (1, 3): a13, (2, 3): a23}
        return [[up[r, c] if r < c else -up[c, r] if c < r else zero for c in range(4)]
                for r in range(4)]

    checked, mul = [], K.mul_terms
    monkeypatch.setattr(K, "mul_terms", lambda *args: checked.append(1) or mul(*args))
    assert poly_det([[x(200), one], [one, x(55)]]) == x(255) - one
    assert poly_pfaffian(skew(x(200), zero, one, one, zero, x(55))) == x(255) + one
    assert not checked
    # row maxima 200 + 100: every product tested, none carries
    assert poly_det([[x(200), zero], [x(100), x(55)]]) == x(255)
    assert checked
    with pytest.raises(OverflowError, match="255"):
        poly_det([[x(200), one], [one, x(56)]])
    with pytest.raises(OverflowError, match="255"):
        poly_pfaffian(skew(x(200), zero, zero, zero, zero, x(56)))


@pytest.mark.parametrize("expand", [poly_det, poly_pfaffian])
def test_poly_det_and_pfaffian_reject_a_matrix_that_is_not_square(expand):
    c = lambda v, nv=1: Polynomial.constant(nv, v)
    with pytest.raises(ValueError, match="1-row matrix is not square: row 0 has 2 entries"):
        expand([[c(2), c(3)]])
    with pytest.raises(ValueError, match="2-row matrix is not square: row 0 has 3 entries"):
        expand([[c(1), c(2), c(3)], [c(4), c(6), c(5)]])
    with pytest.raises(ValueError, match="2-row matrix is not square: row 1 has 1 entries"):
        expand([[c(0), c(1)], [c(-1)]])
    with pytest.raises(ValueError, match=r"entry \(1, 0\) has 3 variables, entry \(0, 0\) has 1"):
        expand([[c(0), c(1)], [c(-1, 3), c(0)]])


@pytest.mark.parametrize("expand, entries", [(poly_det, [[2]]),
                                             (poly_pfaffian, [[0, 1], [-1, 0]])])
def test_poly_det_and_pfaffian_reject_an_entry_that_is_not_a_polynomial(expand, entries):
    # a bare number has no variable count: the entry is named, not an AttributeError raised
    with pytest.raises(ValueError, match=r"entry \(0, 0\) is not a Polynomial"):
        expand(entries)


def test_so8_charpoly_drops_finished_minors():
    # the expansion meets in the middle and never holds the levels just below the top
    # (about 2.1 MB here); level by level to the top it peaked at 3.8 MB, and the memo
    # that kept every minor until the end at 6.5 MB
    tracemalloc.start()
    try:
        charpoly_coefficients(build_so_even(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000, peak


def _adapted_so8():
    """The adapted so(8) of case so2n: t1 the first three Cartan coordinates."""
    g = build_so_even(4)
    cart = g.triangular.cartan
    return horospherical_splitting(g, [[int(k == i) for k in range(g.dim)] for i in cart[:3]],
                                   [[int(k == cart[3]) for k in range(g.dim)]]).algebra


def _count_term_pairs(monkeypatch):
    """A one-item list that counts the term pairs of every ``mul_terms`` and of every
    unchecked ``mul_add_terms`` (the expansions' products) from now on."""
    count = [0]
    for name in ("mul_terms", "mul_add_terms"):
        def counted(a, b, *rest, kernel=getattr(K, name)):
            count[0] += len(a) * len(b)
            return kernel(a, b, *rest)

        monkeypatch.setattr(K, name, counted)
    return count


def test_so8_adapted_charpoly_term_products(monkeypatch):
    # 41,964 term products meeting in the middle with the rows taken from both ends inward,
    # 49,854 with the rows in order, 86,793 level by level to the top
    L = _adapted_so8()
    count = _count_term_pairs(monkeypatch)
    charpoly_coefficients(L)
    assert count[0] <= 52_000, count[0]


def test_so8_adapted_hilbert_basis_term_products(monkeypatch):
    # the even e_k below e_8 only, and the sign of the Pfaffian at one point: 11,890 term
    # products (15,236 with the rows in order); 61,082 when the whole charpoly and Pf * Pf
    # were built
    L = _adapted_so8()
    L.realization_certificate
    count = _count_term_pairs(monkeypatch)
    hilbert_basis(L, "charpoly")
    assert count[0] <= 16_000, count[0]


def _charpoly_reference(L):
    """k -> e_k of det(lambda I - Y) through ``poly_det``, every lambda-power multiplied out:
    the parts of each degree in lambda, the last variable, with lambda then set to 1."""
    Y, size, n = dual_matrix(L), L.matrix_size, L.dim
    lam = Polynomial.variable(n + 1, n)
    det = poly_det([[(lam if r == c else 0) - Y[r][c].lift(n + 1) for c in range(size)]
                    for r in range(size)])
    at_one = [Polynomial.variable(n, i) for i in range(n)] + [Polynomial.constant(n, 1)]
    by_lambda = {k: p.map_vars(at_one, n) for k, p in det.split_degree([n]).items()}
    return {k: (-1) ** k * by_lambda.get(size - k, Polynomial.zero(n))
            for k in range(1, size + 1)}


@pytest.mark.parametrize("L", [build_so_even(2), build_so_even(3), build_so_even(4),
                               build_sl(4), build_gl(3)], ids=lambda L: L.kind)
def test_selected_charpoly_coefficients_equal_the_whole_expansion(L):
    want = _charpoly_reference(L)
    assert charpoly_coefficients(L) == want
    size = L.matrix_size
    Y = invariants._dual_cells(L)
    for ks in (range(2, size - 1, 2), range(1, size + 1, 3), [size]):
        assert _charpoly(L.dim, size, Y, ks) == {k: want[k] for k in ks}, list(ks)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_so_odd_charpoly_coefficients_vanish(n):
    # Y^T = -J Y J, so det(lambda - Y) = det(lambda + Y)
    e = charpoly_coefficients(build_so_even(n))
    assert all(e[k].is_zero() for k in range(1, 2 * n, 2))
    assert not any(e[k].is_zero() for k in range(2, 2 * n + 1, 2))


@pytest.mark.parametrize("c", [2, -1])
def test_a_wrong_pfaffian_fails_the_sign_check(monkeypatch, c):
    # c Pf differs from Pf(J Y(x)) modulo P at any point where Pf(x) is nonzero modulo P
    expand = invariants.laplace_expansion  # the expansion of det and Pf that hilbert_basis calls

    def scaled_pfaffian(n, size, cells, pfaffian, powers):
        out = expand(n, size, cells, pfaffian, powers)
        return {k: c * p for k, p in out.items()} if pfaffian else out

    monkeypatch.setattr(invariants, "laplace_expansion", scaled_pfaffian)
    for L in (build_so_even(3), _adapted_so8()):
        with pytest.raises(ValueError, match="Pfaffian sign convention failure"):
            hilbert_basis(L, "charpoly")


def _standard_skew(n):
    return [[(j == i + 1) - (i == j + 1) if i // 2 == j // 2 else 0 for j in range(2 * n)]
            for i in range(2 * n)]


@pytest.mark.parametrize("K, pf", [(_standard_skew(2), 1), (_standard_skew(3), 1),
                                   ([[0, 0, 1, 0], [0, 0, 1, 1], [-1, -1, 0, 0],
                                     [0, -1, 0, 0]], -1)])
def test_pfaffian_sign_check_at_a_point(K, pf):
    # Y = J K: Pf(J Y) = Pf(K), and Y(x) = x_0 J K on one coordinate, so Pf(J Y(x)) =
    # x_0^n Pf(K) modulo P: the check at one point rejects -Pf and 2 Pf, and a zero Pf
    c = lambda v: Polynomial.constant(1, v)
    Y = [[c(v) for v in row] for row in K[::-1]]
    assert poly_pfaffian(Y[::-1]) == c(pf)
    mats, size = [{(r, col): v for r, row in enumerate(K[::-1]) for col, v in enumerate(row)
                   if v}], len(K)
    x0n = Polynomial.monomial(1, {0: size // 2})
    assert [_pfaffian_sign_holds(p * x0n, mats, size) for p in (pf, -pf, 2 * pf, 0)] == [
        True, False, False, False]
    # the 2 x 2 pivots' Pfaffian modulo P, which the Jacobian rows of Pf read, and its n-th
    # power law under scaling; one zero row leaves it 0
    assert _pfaffian_mod_p(K) == pf % P
    assert _pfaffian_mod_p([[-3 * v for v in row] for row in K]) == (-3) ** (size // 2) * pf % P
    assert _pfaffian_mod_p([[0] * size] + K[1:]) == 0


def test_so8_trace_powers_are_newtons_sums_of_the_whole_charpoly():
    # the odd e_k and e_8 are never built, and the basis is the one the whole charpoly gives
    L = _adapted_so8()
    B = hilbert_basis(L, "trace_powers")
    p = _power_sums(_charpoly_reference(L))
    assert B.degrees == [2, 4, 6, 4]
    assert B.polys[:-1] == [p[2], p[4], p[6]]
    assert B.polys[-1] == hilbert_basis(L, "charpoly").polys[-1]
    assert [len(F.terms) for F in B.polys] == [16, 274, 4416, 105]


# -- bi-decomposition ------------------------------------------------------


def test_bidecompose_sl2_casimir():
    sl2 = build_sl(2)
    S = make_splitting(sl2, (0, 1))
    e, h, f = (Polynomial.variable(3, i) for i in range(3))
    C = h * h + 4 * e * f
    assert bidecompose(S, C) == {1: 4 * e * f, 2: h * h}


def test_bidecompose_monomial_single_component():
    sl2 = build_sl(2)
    S = make_splitting(sl2, (0, 1))
    e = Polynomial.variable(3, 0)
    f = Polynomial.variable(3, 2)
    assert bidecompose(S, e * f**2) == {1: e * f**2}


def test_bidecompose_requires_homogeneous():
    sl2 = build_sl(2)
    S = make_splitting(sl2, (0, 1))
    e = Polynomial.variable(3, 0)
    with pytest.raises(ValueError):
        bidecompose(S, e + e * e)


def test_bidecompose_double_casimir_components():
    d = build_double(build_sl(2))
    S = horospherical_splitting(d, [[QQ(0), QQ(1), QQ(0), -QQ(1)]])
    e, h, f, xi = (Polynomial.variable(4, i) for i in range(4))
    C = h * h + 4 * e * f
    Bc = transport_basis(custom_basis(d, [C]), S)
    parts = bidecompose(S, Bc.polys[0])
    names = S.algebra.names
    m = Polynomial.variable(4, names.index("t1_1"))
    p = Polynomial.variable(4, names.index("t0_1"))
    eA = Polynomial.variable(4, names.index("E12"))
    fA = Polynomial.variable(4, names.index("E21"))
    assert parts == {0: QQ(1, 4) * p * p, 1: QQ(1, 2) * m * p + 4 * eA * fA, 2: QQ(1, 4) * m * m}


def test_bidecompose_is_split_once_per_splitting_and_value():
    sl2 = build_sl(2)
    e, h, f = (Polynomial.variable(3, i) for i in range(3))
    S = make_splitting(sl2, (0, 1))
    C = h * h + 4 * e * f
    dec = bidecompose(S, C)
    assert list(dec) == [1, 2]
    # the same value by another route, with a different term order, splits equally
    again = bidecompose(S, Polynomial(3, {(1, 0, 1): 8, (0, 2, 0): 2}).scale(QQ(1, 2)))
    assert again == dec == {1: 4 * e * f, 2: h * h}
    # another splitting of the same algebra splits the same polynomial its own way
    assert bidecompose(make_splitting(sl2, (1, 2)), C) == {1: 4 * e * f, 2: h * h}
    assert bidecompose(make_decomposition(sl2, (1,)), C) == {0: 4 * e * f, 2: h * h}
    # a basis splits its generators once per h: the same list again, and for an equal h
    B = custom_basis(sl2, [C])
    split = B.split(S)
    assert split == [dec] and B.split(S) is split
    assert B.split(make_splitting(sl2, (0, 1))) is split
    other = B.split(make_decomposition(sl2, (1,)))
    assert other is not split and other == [{0: 4 * e * f, 2: h * h}]
    assert B.split(make_decomposition(sl2, (1,))) is other
    # an equal h on an algebra of another dimension finds no split and is rejected
    with pytest.raises(ValueError, match="^bidecompose: F has 3 variables, expected 8$"):
        B.split(make_decomposition(build_sl(3), (0, 1)))


def _holds_polynomial(value) -> bool:
    if isinstance(value, Polynomial):
        return True
    if isinstance(value, dict):
        return any(map(_holds_polynomial, [*value.keys(), *value.values()]))
    return isinstance(value, (list, tuple, set, frozenset)) and any(map(_holds_polynomial, value))


def test_a_basis_splits_each_generator_once_for_every_reader(monkeypatch):
    g, S = sl3_paper_splitting()
    B = transport_basis(hilbert_basis(g, "trace_powers"), S)
    calls = []

    def counted(D, F):
        calls.append(F)
        return bidecompose(D, F)

    monkeypatch.setattr(invariants, "bidecompose", counted)
    for side in ("h", "r"):
        ggs_check(S, B, side=side)
    zalgebra.z_generators(S, B)
    zalgebra.property_suite(S, B)
    zalgebra._z_algebra(S, B, "m_tilde", trials=1, seed=0)  # its centres read the split too
    assert zalgebra._middle_components_nonzero(S, B)
    assert [id(F) for F in calls] == [id(F) for F in B.polys]
    # the split is the basis's: the splitting holds no polynomial
    assert not any(_holds_polynomial(v) for v in vars(S).values())


def test_reconstruction_property():
    g, S = sl3_paper_splitting()
    B = transport_basis(hilbert_basis(g, "trace_powers"), S)
    for F, d in B.generators:
        total = Polynomial.zero(F.nvars)
        for c in bidecompose(S, F).values():
            total = total + c
        assert total == F


def test_extreme_components_invariant_under_contractions():
    g, S = sl3_paper_splitting()
    B = transport_basis(hilbert_basis(g, "trace_powers"), S)
    ch = contract(S, "keep_h")
    cr = contract(S, "keep_r")
    for F, d in B.generators:
        parts = bidecompose(S, F)
        assert verify_invariance(ch, parts[min(parts)])
        assert verify_invariance(cr, parts[max(parts)])


def _double_splitting(n):
    """The horospherical splitting of case ``double`` at ``n``, with the double's basis."""
    g = build_sl(n + 1)
    gd = build_double(g)
    cart = list(enumerate(g.triangular.cartan))
    t1, t0 = (_vectors(gd.dim, ({i: 1, g.dim + k: s} for k, i in cart)) for s in (-1, 1))
    S = horospherical_splitting(gd, t1, t0_basis=t0)
    return S, transport_basis(hilbert_basis(gd, "charpoly"), S)


@pytest.mark.parametrize("name, n", [("so2n", 3), ("so2n", 4), ("sl2n", 2), ("double", 2)])
def test_extremes_are_the_least_and_greatest_h_degree_of_each_split(name, n):
    if name == "double":
        S, B = _double_splitting(n)
    else:
        S = _case_splitting(name, n)
        B = hilbert_basis(S.algebra, "charpoly")
    parts = B.split(S)
    for side, pick in (("h", min), ("r", max)):
        extremes = B.extremes(S, side)
        assert [(j, i) for j, i, _ in extremes] == [(j, pick(p)) for j, p in enumerate(parts)]
        # the very polynomials of the split, which the Z's rows name by identity
        assert all(F is parts[j][i] for j, i, F in extremes)
    assert any(min(p) != max(p) for p in parts)
    with pytest.raises(ValueError, match="^side must be 'h' or 'r', got 'm'$"):
        B.extremes(S, "m")


def test_an_elimination_and_a_double_shift_keep_the_invariance_route():
    # a combination of invariants, or an invariant minus a polynomial in the central xi's,
    # is invariant by the same certificate; the brackets agree
    g, S = _sl4_splitting()
    B = transport_basis(hilbert_basis(g, "trace_powers"), S)
    mod = eliminate_on_subspace(B, S, keep=[0])
    assert mod.polys[2] != B.polys[2] and verify_invariance(S.algebra, mod.polys[2])
    assert mod.invariance == B.invariance == "realization"
    lifts = hilbert_basis(build_double(build_sl(3)), "charpoly")
    for B in (lifts, custom_basis(lifts.algebra, lifts.polys)):
        for side in ("h", "r"):
            shifted = double_shift_basis(B, side)
            assert shifted.invariance == B.invariance in ("double", "brackets")
            assert shifted.polys != B.polys
            assert all(verify_invariance(B.algebra, F) for F in shifted.polys)


def test_pencil_commutativity_of_components():
    rng = random.Random(1)
    g, S = sl3_paper_splitting()
    B = transport_basis(hilbert_basis(g, "trace_powers"), S)
    comps = []
    for F, d in B.generators:
        comps.extend(bidecompose(S, F).values())
    params = [BracketParameter(1, 0), BracketParameter(0, 1), BracketParameter(1, 1)]
    params += [BracketParameter(1, rng.randint(2, 30)) for _ in range(5)]
    for _ in range(8):
        a, b = rng.sample(range(len(comps)), 2)
        for p in params:
            assert poisson_bracket(pencil_member(S, p), comps[a], comps[b]).is_zero()


def test_complement_independence_operator():
    # two complements to b in sl2: m = <f> and m~ = <f + a e + b h>; the
    # substitution operator carries top components to top components exactly
    sl2 = build_sl(2)
    e, h, f = (Polynomial.variable(3, i) for i in range(3))
    C = h * h + 4 * e * f
    S = make_splitting(sl2, (0, 1))
    top_m = bidecompose(S, C)[1]
    for alpha, beta in ((1, 0), (0, 1), (3, -2)):
        # operator L: identity on b, f -> f + alpha e + beta h
        image = f + alpha * e + beta * h
        L_top = top_m.map_vars([e, h, image], 3)
        # decomposition with respect to the tilted complement, via the
        # adapted basis (e, h, f~), mapped back to the original coordinates
        adapted = change_basis(
            sl2,
            [[1, 0, 0], [0, 1, 0], [QQ(alpha), QQ(beta), 1]],
            ["e", "h", "ft"],
        )
        A = adapted.base_change.transpose()
        from liesplit.linalg import inverse

        fwd = inverse(A)
        C_new = C.map_vars([Polynomial.linear_form(3, fwd.rows[i]) for i in range(3)], 3)
        D2 = make_decomposition(adapted, (0, 1))
        parts = bidecompose(D2, C_new)
        top_new = parts[min(parts)]
        back = top_new.map_vars([Polynomial.linear_form(3, A.rows[i]) for i in range(3)], 3)
        assert back == L_top


# -- ggs checks ------------------------------------------------------------


def test_ggs_sl2_borel():
    sl2 = build_sl(2)
    S = make_splitting(sl2, (0, 1))
    B = hilbert_basis(sl2, "charpoly")
    rep = ggs_check(S, B, side="h")
    assert rep.sum_m == 1 == rep.dim_m
    assert rep.verdict and rep.consistent


def test_ggs_gl4_dichotomy():
    gl4 = build_gl(4)
    D13 = make_decomposition(gl4, _gl_block_indices(gl4, [1, 3]))
    trace = hilbert_basis(gl4, "trace_powers")
    charp = hilbert_basis(gl4, "charpoly")
    r1 = ggs_check(D13, trace)
    assert (r1.sum_m, r1.dim_m, r1.verdict) == (8, 6, False)
    assert r1.consistent
    r2 = ggs_check(D13, charp)
    assert (r2.sum_m, r2.dim_m, r2.verdict) == (6, 6, True)
    assert r2.consistent
    D22 = make_decomposition(gl4, _gl_block_indices(gl4, [2, 2]))
    assert ggs_check(D22, trace).verdict
    assert ggs_check(D22, charp).verdict


def test_ggs_jacobian_consistency_across_cases():
    # degree-sum verdict and Jacobian-rank independence agree on builders
    g, S = sl3_paper_splitting()
    B = transport_basis(hilbert_basis(g, "trace_powers"), S)
    rep = ggs_check(S, B, side="h")
    assert not rep.verdict
    assert rep.consistent  # jacobian rank < rank exactly when verdict fails


def test_ggs_check_names_a_failed_index_hypothesis():
    g = build_sl(3)
    B = hilbert_basis(g, "charpoly")
    D = make_decomposition(g, (0, 1))  # h = <E12, E13>: h x m^ab has index 4, sl(3) has 2
    with pytest.raises(ValueError, match=r"5 < dim m = 6 because the hypothesis "
                                         r"ind\(h x m\^ab\) = ind q fails: .* index 4, sl\(3\) has 2"):
        ggs_check(D, B)
    # where the indices agree, a short degree sum still breaks the theorem
    S = make_splitting(g, g.triangular.plus + g.triangular.cartan)
    # built directly: custom_basis would reject the non-invariant generator
    x = Polynomial.variable(g.dim, g.triangular.cartan[0])
    planted = HilbertBasis(g, ((x, 1),))
    with pytest.raises(AssertionError, match="0 < dim m = 3: violates a theorem"):
        ggs_check(S, planted)


def _borel(L):
    return make_splitting(L, L.triangular.plus + L.triangular.cartan)


def _horo_first_cartan(L):
    t1 = [int(i == L.triangular.cartan[0]) for i in range(L.dim)]
    return horospherical_splitting(L, [t1])


@pytest.mark.parametrize("build, make, kind", [
    (lambda: build_sl(2), _borel, "charpoly"),
    (lambda: build_sl(3), _borel, "charpoly"),
    (lambda: build_sl(4), _borel, "charpoly"),
    (lambda: build_gl(3), _borel, "charpoly"),
    (lambda: build_so_even(4), _borel, "charpoly"),
    (lambda: build_sl(3), _horo_first_cartan, "trace_powers"),
    (lambda: build_sl(4), _horo_first_cartan, "trace_powers"),
    (lambda: build_so_even(4), _borel, "trace_powers"),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_side_r_equals_side_h_of_the_swapped_splitting(build, make, kind, seed):
    """Side r of (h, r) is side h of the splitting (r, h), read with the bidegree reversed."""
    S = make(build())
    B = hilbert_basis(S.algebra, kind)
    rep = ggs_check(S, B, side="r", seed=seed)
    oracle = ggs_check(make_splitting(S.algebra, S.r_indices), B, side="h", seed=seed)
    assert [(r.degree, r.deg_m_top, r.bidegree_top[::-1]) for r in rep.rows] == \
        [(r.degree, r.deg_m_top, r.bidegree_top) for r in oracle.rows]
    fields = ("sum_m", "dim_m", "verdict", "jacobian_rank_top", "consistent")
    assert [getattr(rep, f) for f in fields] == [getattr(oracle, f) for f in fields]


# -- elimination -----------------------------------------------------------


def _sl4_splitting():
    g = build_sl(4)
    cart = g.triangular.cartan
    t0 = [[QQ(0)] * 15]
    t0[0][cart[0]] = QQ(1)
    t0[0][cart[2]] = -QQ(1)  # diag(1,-1,-1,1)
    t1 = []
    for diag in ([1, 0, 0, -1], [0, 1, -1, 0]):
        v = [QQ(0)] * 15
        run = QQ(0)
        for k, i in enumerate(cart):
            run = run + QQ(diag[k])
            v[i] = run
        t1.append(v)
    return g, horospherical_splitting(g, t1, t0_basis=t0)


def test_eliminate_sl4_quartic():
    g, S = _sl4_splitting()
    B = transport_basis(hilbert_basis(g, "trace_powers"), S)
    assert restrict_to_t0(S, B.polys[0]) == Polynomial.monomial(1, [2], 4)
    assert restrict_to_t0(S, B.polys[1]).is_zero()
    mod = eliminate_on_subspace(B, S, keep=[0])
    P2, P3, P4 = B.polys
    assert mod.polys[1] == P3
    assert mod.polys[2] == P4 - QQ(1, 4) * P2 * P2
    assert restrict_to_t0(S, mod.polys[2]).is_zero()
    rep = ggs_check(S, mod, side="h")
    assert rep.verdict and rep.consistent
    # the greedy choice keeps P2 unasked: the same basis
    assert eliminate_on_subspace(B, S).generators == mod.generators


def test_eliminate_walks_the_generators_in_degree_order():
    # listed P4, P3, P2: a list-order walk would keep P4 and leave P2 nonzero on t0 too
    g, S = _sl4_splitting()
    P2, P3, P4 = transport_basis(hilbert_basis(g, "trace_powers"), S).generators
    B = HilbertBasis(S.algebra, (P4, P3, P2))
    mod = eliminate_on_subspace(B, S)
    assert mod.generators[1:] == (P3, P2)
    assert mod.generators[0] == (P4[0] - QQ(1, 4) * P2[0] * P2[0], 4)
    assert [not restrict_to_t0(S, F).is_zero() for F in mod.polys] == [False, False, True]
    assert ggs_check(S, mod, side="h").verdict


@pytest.mark.parametrize("keep,message", [
    ([-3], "keep: -3 is not a generator index in range(3)"),
    ([5], "keep: 5 is not a generator index in range(3)"),
    ([True], "keep: True is not a generator index"),
    ([0.0], "keep: 0.0 is not a generator index"),
    (["0"], "keep: '0' is not a generator index"),
    ([0, 0], "keep: 0 is listed twice"),
])
def test_eliminate_rejects_malformed_keep(keep, message):
    g, S = _sl4_splitting()
    B = transport_basis(hilbert_basis(g, "trace_powers"), S)
    with pytest.raises(ValueError) as exc:
        eliminate_on_subspace(B, S, keep)
    assert str(exc.value).startswith(message)


def test_eliminate_sl3_infeasible():
    g, S = sl3_paper_splitting()
    B = transport_basis(hilbert_basis(g, "trace_powers"), S)
    assert restrict_to_t0(S, B.polys[0]) == Polynomial.monomial(1, [2], 6)
    assert restrict_to_t0(S, B.polys[1]) == Polynomial.monomial(1, [3], -6)
    # P3 is kept as well: its cubic restriction is no combination of P2's quadratic one,
    # so 2 generators stay nonzero on t0, more than dim t0 = 1, and nothing is corrected
    mod = eliminate_on_subspace(B, S, keep=[0])
    assert mod.generators == B.generators
    assert sum(not restrict_to_t0(S, F).is_zero() for F in mod.polys) == 2 > len(S.t0_indices) == 1
    with pytest.raises(ValueError, match="t0 restrictions need a horospherical splitting"):
        restrict_to_t0(make_splitting(g, g.triangular.plus + g.triangular.cartan), B.polys[0])


# -- restrictions to t0 from the diagonal of rho(t0) -------------------------


def _case_splitting(name, n):
    """The horospherical splitting of the case study ``name`` at ``n``, as ``run_case``
    builds it, or for 'so_cartan' the one of so(2n) with t1 = 0, where t0 is the whole
    Cartan and the Pfaffian restricts to the nonzero product of the diagonal; for
    'sl_cartan' and 'gl_cartan' the one of sl(n) or gl(n) with t1 = 0."""
    if name in ("sl_cartan", "gl_cartan"):
        return horospherical_splitting((build_sl if name == "sl_cartan" else build_gl)(n), [])
    if name.startswith("so"):
        g = build_so_even(n)
        units = [[int(i == c) for i in range(g.dim)] for c in g.triangular.cartan]
        split = n - 1 if name == "so2n" else 0
        return horospherical_splitting(g, units[:split], t0_basis=units[split:])
    N = 2 * n + (name == "sl2n1")
    g = build_sl(N)
    if name == "sl2n":  # t1 antisymmetric, t0 symmetric diagonals
        t1 = [[int(k == i) - int(k == N - 1 - i) for k in range(N)] for i in range(n)]
        t0 = [[int(k in (i, N - 1 - i)) - int(k in (i + 1, N - 2 - i)) for k in range(N)]
              for i in range(n - 1)]
    else:  # t0 = diag(c_n..c_1, -2 sum c_i, c_1..c_n), listed from c_n
        t1 = [[int(k == n - i) - int(k == n + i) for k in range(N)] for i in range(1, n + 1)]
        t0 = [[int(k in (n - i, n + i)) - 2 * int(k == n) for k in range(N)]
              for i in range(n, 0, -1)]
    return horospherical_splitting(g, _traceless_diagonals(g, t1),
                                   t0_basis=_traceless_diagonals(g, t0))


def _diagonal_restrictions(S, B, kind):
    """Each generator of the ``kind`` basis ``B`` on t0, read off the diagonal
    d_k(c) = sum_s c_s rho(t0_s)_kk: e_j(d) or sum_k d_k^j by its degree j, and Pf of the
    J-twisted diagonal for the so(2n) Pfaffian, the last generator there."""
    L = S.algebra
    k, size = len(S.t0_indices), L.matrix_size
    d = [Polynomial.zero(k) for _ in range(size)]
    for s, idx in enumerate(S.t0_indices):
        for (r, c), v in L.realization[idx].items():
            assert r == c, f"rho(t0_{s}) is not diagonal"
            d[r] = d[r] + Polynomial.variable(k, s, v)
    e = [Polynomial.constant(k, 1)] + [Polynomial.zero(k)] * size
    for x in d:  # the coefficients of prod (1 + d_k t), one factor at a time
        e = [e[0]] + [e[j] + x * e[j - 1] for j in range(1, size + 1)]
    p = [sum((x**j for x in d), Polynomial.zero(k)) for j in range(size + 1)]
    out = [(e if kind == "charpoly" else p)[j] for j in B.degrees]
    if S.algebra.base_algebra.kind.startswith("so("):
        out[-1] = poly_pfaffian([[d[c] if r + c == size - 1 else Polynomial.zero(k)
                                  for c in range(size)] for r in range(size)])
    return out


@pytest.mark.parametrize("name, n", [("sl2n", 2), ("sl2n", 3), ("sl2n1", 1), ("sl2n1", 2),
                                     ("sl2n1", 3), ("so2n", 3), ("so2n", 4), ("so_cartan", 3),
                                     ("so_cartan", 4), ("sl_cartan", 3), ("sl_cartan", 4),
                                     ("sl_cartan", 5), ("sl_cartan", 6), ("gl_cartan", 4)])
@pytest.mark.parametrize("kind", ["charpoly", "trace_powers"])
def test_restrictions_equal_symmetric_functions_of_the_t0_diagonal(name, n, kind):
    # Chevalley restriction: on t0 every invariant is a symmetric function of the diagonal
    # of Y = sum_s c_s rho(t0_s); no determinant and no Newton's identities on this side
    S = _case_splitting(name, n)
    B = hilbert_basis(S.algebra, kind)
    want = _diagonal_restrictions(S, B, kind)
    assert [restrict_to_t0(S, F) for F in B.polys] == want
    assert not all(r.is_zero() for r in want)


def test_double_shift_bidegree():
    d = build_double(build_sl(2))
    e, h, f, xi = (Polynomial.variable(4, i) for i in range(4))
    C = h * h + 4 * e * f
    B = custom_basis(d, [C, xi])
    sh = double_shift_basis(B, side="h")
    assert sh.polys[0] == C - xi * xi
    S = horospherical_splitting(d, [[QQ(0), QQ(1), QQ(0), -QQ(1)]])
    shifted = transport_basis(sh, S)
    assert list(bidecompose(S, shifted.polys[0])) == [1]
    # r-side shift for even degree coincides with the h-side shift
    assert double_shift_basis(B, side="r").polys[0] == sh.polys[0]


# -- AKS restriction ---------------------------------------------------------


def test_aks_sl2_singleton():
    sl2 = build_sl(2)
    S = make_splitting(sl2, (0, 1))
    rep = aks_restrict(S, hilbert_basis(sl2, "charpoly"))
    assert len(rep.side_h.generators) == 1
    assert rep.side_h.commutes and rep.side_r.commutes
    # the pure-b part of the Casimir is the toral square
    hvar = Polynomial.variable(2, 1)
    assert rep.side_h.generators[0].canonical()[0] == (hvar * hvar).canonical()[0]


def test_aks_sl3_two_generators_commute():
    sl3 = build_sl(3)
    S = make_splitting(sl3, tuple(sl3.triangular.plus) + tuple(sl3.triangular.cartan))
    rep = aks_restrict(S, hilbert_basis(sl3, "charpoly"))
    assert len(rep.side_h.generators) == 2
    assert rep.side_h.commutes
    assert rep.side_r.commutes


# -- transcendence-degree stability (small ranks) ----------------------------


def test_trdeg_of_top_components_matches_rank_on_borel():
    for n in (2, 3):
        g = build_sl(n)
        S = make_splitting(g, tuple(g.triangular.plus) + tuple(g.triangular.cartan))
        B = hilbert_basis(g, "charpoly")
        tops = [parts[min(parts)] for parts in (bidecompose(S, F) for F in B.polys)]
        assert jacobian_rank(tops, trials=5, seed=0) == g.rank


def test_jacobian_rank_needs_at_least_one_trial():
    x = Polynomial.variable(2, 0)
    for polys in ([x], []):
        with pytest.raises(ValueError, match="trials >= 1 required"):
            jacobian_rank(polys, trials=0)
        for trials in (True, 2.5, "3"):
            with pytest.raises(ValueError, match="trials must be an integer"):
                jacobian_rank(polys, trials=trials)


def _jacobian_rank_by_eval(polys, trials, seed, bound):
    """The row construction ``jacobian_rank`` replaced: den_p * dp/dx_i as polynomials,
    evaluated to Fractions whose numerators make the rows."""
    n = polys[0].nvars
    grads = [{i: p.diff(i).scale(p.den) for i in p.support_vars()} for p in polys]
    rng = random.Random(seed)
    best = 0
    for _ in range(max(1, trials)):
        x = [rng.randint(-bound, bound) for _ in range(n)]
        rows = [[grad[i].eval(x).numerator if i in grad else 0 for i in range(n)]
                for grad in grads]
        assert rows == [p.int_gradient(x) for p in polys]
        best = max(best, rank_mod_p(Matrix(rows)))
        if best == min(len(polys), n):
            break
    return best


def test_jacobian_rank_rows_are_the_evaluated_gradients():
    so8 = build_so_even(4)
    cart = so8.triangular.cartan
    units = [[int(i == c) for i in range(so8.dim)] for c in cart]
    so8_split = horospherical_splitting(so8, units[:3], t0_basis=units[3:])
    cases = ((so8_split, "charpoly"), (_sl4_splitting()[1], "charpoly"))
    for S, kind in cases:
        B = hilbert_basis(S.algebra, kind)
        for side in (min, max):
            polys = [parts[side(parts)] for parts in (bidecompose(S, F) for F in B.polys)]
            for seed, bound in ((0, 997), (1, 97), (2, 1)):
                want = _jacobian_rank_by_eval(polys, trials=3, seed=seed, bound=bound)
                assert jacobian_rank(polys, trials=3, seed=seed, bound=bound) == want
            if S is so8_split:  # a good generating system: top and bottom ranks are 4
                assert jacobian_rank(polys, trials=3) == so8.rank
    # the sl_4 components carry denominators up to 256
    assert max(parts[min(parts)].den for parts in (bidecompose(S, F) for F in B.polys)) == 256


# -- invariance on every coordinate ------------------------------------------


def _reference_invariant(L, F):
    """{F, x_j} = sum_i dF/dx_i [x_i, x_j] = 0 for every j, from ``Polynomial.diff`` and
    ``bracket_pair``."""
    for j in range(L.dim):
        field = Polynomial.zero(L.dim)
        for i in range(L.dim):
            coeffs = [0] * L.dim
            for k, c in L.bracket_pair(i, j).items():
                coeffs[k] = c
            field = field + F.diff(i) * Polynomial.linear_form(L.dim, coeffs)
        if not field.is_zero():
            return False
    return True


def _invariance_cases():
    """(algebra, invariants, root indices): builders and both contractions of an sl3 splitting."""
    builders = ((build_sl(3), "charpoly"), (build_so_even(2), "charpoly"),
                (build_gl(3), "charpoly"), (build_double(build_sl(2)), "charpoly"))
    cases = [(L, hilbert_basis(L, kind).polys, L.triangular) for L, kind in builders]
    g, S = sl3_paper_splitting()
    decs = [bidecompose(S, F) for F in transport_basis(hilbert_basis(g, "trace_powers"), S).polys]
    cases.append((contract(S, "keep_h"), [p[min(p)] for p in decs], S.algebra.triangular))
    cases.append((contract(S, "keep_r"), [p[max(p)] for p in decs], S.algebra.triangular))
    return cases


def _planted(L, invariants, tri):
    """Casimir + x_j for every j, and every product of two root coordinates."""
    casimir = next(F for F in invariants if F.degree() == 2)
    planted = [casimir + Polynomial.variable(L.dim, j) for j in range(L.dim)]
    roots = tri.plus + tri.minus
    return planted + [Polynomial.variable(L.dim, a) * Polynomial.variable(L.dim, b)
                      for a in roots for b in roots if a <= b]


def test_verify_invariance_equals_reference_brackets():
    for L, invariants, tri in _invariance_cases():
        planted = _planted(L, invariants, tri)
        for F in invariants + planted:
            assert verify_invariance(L, F) == _reference_invariant(L, F), (L, F)
        assert all(verify_invariance(L, F) for F in invariants)
        assert not all(verify_invariance(L, F) for F in planted)


def test_custom_basis_rejects_a_non_invariant_naming_its_degree():
    sl2 = build_sl(2)
    h = Polynomial.variable(sl2.dim, sl2.triangular.cartan[0])
    with pytest.raises(AssertionError, match="custom generator 0 of degree 2 is not invariant"):
        custom_basis(sl2, [h * h])
    L, invariants, tri = _invariance_cases()[-2]  # keep_h contraction of sl3
    cubic = next(F for F in invariants if F.degree() == 3)
    bad = next(F for F in _planted(L, invariants, tri)[L.dim:] if not verify_invariance(L, F))
    assert custom_basis(L, [cubic]).invariance == "brackets"
    with pytest.raises(AssertionError, match="custom generator 1 of degree 2 is not invariant"):
        custom_basis(L, [cubic, bad])


def test_custom_basis_reads_each_degree_and_names_a_zero_or_inhomogeneous_generator():
    sl2 = build_sl(2)
    e, h, f = (Polynomial.variable(3, i) for i in range(3))
    C = h * h + 4 * e * f
    assert custom_basis(sl2, [C, C * C]).generators == ((C, 2), (C * C, 4))
    # C + C^2 is invariant, so only its degrees are wrong
    with pytest.raises(ValueError, match="custom generator 1 is not homogeneous$"):
        custom_basis(sl2, [C, C + C * C])
    with pytest.raises(ValueError, match="custom generator 0 is zero$"):
        custom_basis(sl2, [Polynomial.zero(3)])
    # once an AttributeError, and "is zero" for None
    for bad in (5, None, "C"):
        with pytest.raises(ValueError, match=f"custom generator 1 is {bad!r}, not a Polynomial$"):
            custom_basis(sl2, [C, bad])


@pytest.mark.parametrize("kind", ["charpoly", "trace_powers"])
def test_double_basis_is_the_lifts_of_its_base_and_the_xi(kind):
    for base in (build_sl(2), build_sl(3), build_gl(2), build_so_even(3)):
        gd = build_double(base)
        B = hilbert_basis(gd, kind)
        want = [(F.lift(gd.dim), d) for F, d in hilbert_basis(base, kind).generators]
        want += [(Polynomial.variable(gd.dim, k), 1) for k in range(base.dim, gd.dim)]
        assert B.generators == tuple(want) and B.invariance == "double", base


@pytest.mark.parametrize("kind", ["charpoly", "trace_powers"])
def test_basis_on_a_rebuilt_double_is_the_transported_one(kind):
    # the rebuild carries no realization: the verified basis change carries the double's
    # basis over, and with it the route that proved the generators invariant
    for base in (build_sl(2), build_sl(3)):
        gd = build_double(base)
        t1 = [[int(t == i) - int(t == base.dim + k) for t in range(gd.dim)]
              for k, i in enumerate(base.triangular.cartan)]
        S = horospherical_splitting(gd, t1)
        B = hilbert_basis(S.algebra, kind)
        want = transport_basis(hilbert_basis(gd, kind), S)
        assert B.algebra is S.algebra and B.generators == want.generators, base
        assert B.invariance == want.invariance == "double", base


@pytest.mark.parametrize("kind", ["so_minors_pfaffian", "double_extended",
                                  "double_extended:charpoly", "double_extended:trace_powers"])
def test_a_kind_the_algebra_decides_is_no_spelling(kind):
    # so(2n) takes its Pfaffian and a double its base's lifts under charpoly and trace_powers
    for L in (build_so_even(2), build_double(build_sl(2)), build_sl(3)):
        with pytest.raises(ValueError, match=f"unknown Hilbert basis kind '{kind}'"):
            hilbert_basis(L, kind)


def _same_terms(F, G):
    """Equal int terms over equal denominators."""
    return (F.terms == G.terms and F.den == G.den
            and all(type(c) is int for c in F.terms.values()) and type(F.den) is int)


def test_basis_on_adapted_algebra_equals_transported_basis():
    sl3, sl4, so8 = build_sl(3), build_sl(4), build_so_even(4)

    def units(L, idx):
        return [[int(t == i) for t in range(L.dim)] for i in idx]

    cases = (
        (sl3, "charpoly", units(sl3, sl3.triangular.cartan), None),
        (sl4, "trace_powers", _traceless_diagonals(sl4, ([1, 0, 0, -1], [0, 1, -1, 0])),
         _traceless_diagonals(sl4, ([1, -1, -1, 1],))),
        (so8, "charpoly", units(so8, so8.triangular.cartan[:3]),
         units(so8, so8.triangular.cartan[3:])),
    )
    for g, kind, t1v, t0v in cases:
        S = horospherical_splitting(g, t1v, t0_basis=t0v)
        direct = hilbert_basis(S.algebra, kind)
        moved = transport_basis(hilbert_basis(g, kind), S)
        assert direct.degrees == moved.degrees
        assert all(_same_terms(F, G) for F, G in zip(direct.polys, moved.polys)), kind


# -- invariance proved from the realization ---------------------------------


def _mutated(build, field):
    """A fresh builder algebra with one realization entry, or one Gram entry, changed, or
    its Gram matrix zeroed."""
    L = build()
    if field == "realization":
        rho = list(L.realization)
        cell, v = next(iter(rho[0].items()))
        rho[0] = {**rho[0], cell: v + 1}
        L.realization = rho
    elif field == "gram_zero":  # symmetric and ad-invariant, but degenerate
        L.gram = Matrix([[0] * L.dim] * L.dim)
    else:
        rows = [list(r) for r in L.gram.rows]
        a, b = (L.triangular.cartan[0],) * 2 if field == "gram_cartan" else (0, 1)
        rows[a][b] += 1
        L.gram = Matrix(rows)
    return L


@pytest.mark.parametrize("field, failure", [
    ("realization", "no homomorphism"),
    ("gram_cartan", "not ad-invariant"),
    ("gram_offdiagonal", "not symmetric"),
    ("gram_zero", "the Gram matrix is degenerate"),
])
@pytest.mark.parametrize("build, kind", [
    (lambda: build_sl(3), "charpoly"),
    (lambda: build_so_even(4), "charpoly"),
], ids=["sl3", "so8"])
def test_certificate_fails_on_a_mutated_algebra(build, kind, field, failure):
    L = _mutated(build, field)
    cert = L.realization_certificate
    assert not cert.passed and failure in cert.failure
    with pytest.raises(ValueError, match="is not proved: .*" + failure):
        hilbert_basis(L, kind)
    assert build().realization_certificate.passed


def test_double_needs_the_base_constants():
    gd = build_double(build_sl(2))
    gd.constants = {**gd.constants, (0, gd.dim - 1): ((0, 1),)}  # [e, xi] = e: xi not central
    with pytest.raises(ValueError, match="not those of its base"):
        hilbert_basis(gd, "charpoly")


def test_certificate_needs_a_realization():
    sl2 = build_sl(2)
    cert = build_double(sl2).realization_certificate  # the xi's have no matrices
    assert not cert.passed and "no complete matrix realization" in cert.failure
    assert custom_basis(sl2, [hilbert_basis(sl2, "charpoly").polys[0]]).invariance \
        == "brackets"
