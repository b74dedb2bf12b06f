"""sympy as an independent oracle for the determinant expansions and the bracket.

``charpoly_coefficients``, ``poly_det`` and ``poly_pfaffian`` expand
polynomial matrices by one first-row expansion over int terms
(``poly.laplace_expansion``), met in the middle, and the power traces
follow from the characteristic coefficients by Newton's identities; sympy
expands the same symbolic matrices with its own algorithms (Berkowitz
characteristic polynomial, symbolic determinant, matrix powers).
``poisson_bracket`` clears the denominators of the structure constants and
of both arguments and divides once; sympy differentiates and sums the
textbook formula.  ``rank`` and ``rank_and_nullspace`` eliminate sparse and
fraction-free; sympy's ``DomainMatrix`` row-reduces over QQ.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from liesplit.invariants import (  # noqa: E402
    _power_sums,
    charpoly_coefficients,
    dual_matrix,
    hilbert_basis,
    poly_det,
    poly_pfaffian,
)
from liesplit.invariants import bidecompose  # noqa: E402
from liesplit import weyl  # noqa: E402
from liesplit.liealg import build_gl, build_sl, build_so_even  # noqa: E402
from liesplit.linalg import rank, rank_and_nullspace  # noqa: E402
from liesplit.poisson import poisson_bracket, tensor_at  # noqa: E402
from liesplit.poly import Polynomial  # noqa: E402
from liesplit.splitting import contract, horospherical_splitting  # noqa: E402
from liesplit.zalgebra import _sl_diagonals  # noqa: E402

ALGEBRAS = {"sl3": lambda: build_sl(3), "gl4": lambda: build_gl(4), "so4": lambda: build_so_even(2)}


def to_sympy(p: Polynomial, xs):
    return sum((sympy.Rational(c.numerator, c.denominator) * sympy.prod(x**k for x, k in zip(xs, e))
                for e, c in p.items()), sympy.Integer(0))


def terms_of(p: Polynomial):
    return {tuple(e): c for e, c in p.items()}


def sympy_terms(expr, xs):
    out = {}
    for e, c in sympy.Poly(sympy.expand(expr), *xs).as_dict().items():
        if c:
            out[tuple(e)] = Fraction(int(c.p), int(c.q))
    return out


def dual_matrices(name):
    L = ALGEBRAS[name]()
    xs = sympy.symbols(f"x0:{L.dim}")
    Y = dual_matrix(L)
    return L, xs, Y, sympy.Matrix([[to_sympy(e, xs) for e in row] for row in Y])


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_charpoly_coefficients_match_sympy(name):
    L, xs, _, Ys = dual_matrices(name)
    lam = sympy.Symbol("lam")
    # det(lam I - Y) = sum_k (-1)^k e_k lam^(N-k)
    coeffs = sympy.Poly(Ys.charpoly(lam).as_expr(), lam).all_coeffs()
    assert len(coeffs) == L.matrix_size + 1
    ours = charpoly_coefficients(L)
    for k in range(1, L.matrix_size + 1):
        assert terms_of(ours[k]) == sympy_terms((-1) ** k * coeffs[k], xs)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_det_and_pfaffian_match_sympy(name):
    _, xs, Y, Ys = dual_matrices(name)
    det = sympy_terms(Ys.det(), xs)
    assert terms_of(poly_det(Y)) == det
    # Pf [[0, Y], [-Y^T, 0]] = (-1)^(n(n-1)/2) det Y for an n x n block Y
    n = len(Y)
    zero = Polynomial.zero(Y[0][0].nvars)
    block = [[zero] * n + list(Y[r]) for r in range(n)]
    block += [[-Y[c][r] for c in range(n)] + [zero] * n for r in range(n)]
    sign = (-1) ** (n * (n - 1) // 2)
    assert terms_of(poly_pfaffian(block)) == {e: sign * c for e, c in det.items()}


def test_so4_pfaffian_squares_to_sympy_det():
    _, xs, Y, Ys = dual_matrices("so4")
    size = len(Y)
    # the antidiagonal flip that makes the so(2n) dual element skew-symmetric
    K = [[Y[size - 1 - r][c] for c in range(size)] for r in range(size)]
    Ks = sympy.Matrix([[Ys[size - 1 - r, c] for c in range(size)] for r in range(size)])
    pf = poly_pfaffian(K)
    assert not pf.is_zero()
    assert terms_of(pf * pf) == sympy_terms(Ks.det(), xs)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_power_traces_match_sympy(name):
    L, xs, _, Ys = dual_matrices(name)
    want = {k: sympy_terms((Ys**k).trace(), xs) for k in range(1, L.matrix_size + 1)}
    assert {k: terms_of(p) for k, p in _power_sums(charpoly_coefficients(L)).items()} == want
    if name != "so4":  # the so(2n) power traces are no Hilbert basis; hilbert_basis rejects them
        B = hilbert_basis(L, "trace_powers")
        assert [(terms_of(F), d) for F, d in B.generators] == [(want[k], k) for k in want if want[k]]


def sympy_bracket(L, F, G, xs):
    """sum_ij pi_ij dF/dx_i dG/dx_j with pi_ij = sum_k c_ij^k x_k, in sympy."""
    dF = [sympy.diff(F, x) for x in xs]
    dG = [sympy.diff(G, x) for x in xs]
    total = sympy.Integer(0)
    for (i, j), entries in L.constants.items():
        pi = sum(sympy.Rational(c.numerator, c.denominator) * xs[k] for k, c in entries)
        total += pi * (dF[i] * dG[j] - dF[j] * dG[i])
    return total


@pytest.mark.parametrize("side", ["keep_h", "keep_r"])
def test_fractional_bracket_matches_sympy(side):
    # the adapted sl(5) of case sl2n1 --n 2: t1 = diag(0,1,0,-1,0), diag(1,0,0,0,-1)
    g = build_sl(5)
    t0 = _sl_diagonals(g, ({2 - i: 1, 2 + i: 1, 2: -2} for i in (1, 2)))
    t1 = _sl_diagonals(g, ({2 - i: 1, 2 + i: -1} for i in (1, 2)))
    S = horospherical_splitting(g, t1, t0_basis=t0[::-1])
    assert {c for entries in S.algebra.constants.values() for _, c in entries} >= {
        Fraction(1, 2), Fraction(-1, 2)}
    C = contract(S, side)
    assert C.poisson_columns[0] == 2
    p2, p3 = (hilbert_basis(S.algebra, "trace_powers").polys[k] for k in (0, 1))
    # bi-components with denominators: (2, 0) of p2 with (1, 2) of p3 at keep_h,
    # (0, 2) of p2 with (2, 1) of p3 at keep_r
    h2, h3 = (2, 1) if side == "keep_h" else (0, 2)
    F, G = (bidecompose(S, p)[i] for p, i in ((p2, h2), (p3, h3)))
    assert F.den > 1 and G.den > 1
    xs = sympy.symbols(f"x0:{C.dim}")
    # the pair commutes (the bi-components span a Poisson-commutative family); times
    # x_0 / 3 the second factor is no longer invariant, so the bracket is nonzero
    H = G * Polynomial.variable(C.dim, 0, Fraction(1, 3))
    for A, want_zero in ((G, True), (H, False)):
        ours = poisson_bracket(C, F, A)
        assert ours.is_zero() == want_zero
        assert terms_of(ours) == sympy_terms(
            sympy_bracket(C, to_sympy(F, xs), to_sympy(A, xs), xs), xs)


def so8_poisson_tensor():
    """The so(8) Poisson tensor at a seeded point with entries bounded by 10^6."""
    L = build_so_even(4)
    rng = random.Random(8)
    return tensor_at(L, [rng.randint(-10**6, 10**6) for _ in range(L.dim)]).matrix


def a5_degree4_matrix(monkeypatch):
    """The blocks s_i - 1 on the degree-4 polynomials of the A5 model, one per generator,
    stacked as invariant_basis builds them."""
    W = weyl.enumerate_weyl(weyl.build_root_system("A", 5))
    seen = []

    def spy(m):
        seen.append(m)
        return rank_and_nullspace(m)

    monkeypatch.setattr(weyl, "rank_and_nullspace", spy)
    weyl.invariant_basis([W.matrix(g) for g in W.generators], 4, W.root_system.model_dim)
    (m,) = seen
    return m


@pytest.mark.parametrize("build", ["so8_tensor", "a5_degree4"])
def test_rank_and_nullspace_match_sympy(build, monkeypatch):
    from sympy.polys.matrices import DomainMatrix

    m = so8_poisson_tensor() if build == "so8_tensor" else a5_degree4_matrix(monkeypatch)
    assert (m.nrows, m.ncols) == ((28, 28) if build == "so8_tensor" else (5 * 126, 126))
    to_qq = sympy.QQ.convert
    dm = DomainMatrix([[to_qq(x) for x in row] for row in m.rows], (m.nrows, m.ncols), sympy.QQ)
    _, pivots = dm.rref()
    free = [c for c in range(m.ncols) if c not in set(pivots)]
    r, basis = rank_and_nullspace(m)
    assert r == rank(m) == len(pivots) == m.ncols - len(basis)
    assert r == (24 if build == "so8_tensor" else 121)
    # a kernel vector that is 1 at one free column and 0 at the others is unique
    for f, v in zip(free, basis):
        assert [v[c] for c in free] == [int(c == f) for c in free]
        col = DomainMatrix([[to_qq(x)] for x in v], (m.ncols, 1), sympy.QQ)
        assert (dm * col).is_zero_matrix
