"""Property tests for the Lie-Poisson bracket and its Hamiltonian field."""

import random
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from liesplit.invariants import hilbert_basis, transport_basis, verify_invariance  # noqa: E402
from liesplit.liealg import (build_double, build_gl, build_sl, build_so_even,  # noqa: E402
                             change_basis, sub_algebra)
from liesplit.linalg import Matrix, rank  # noqa: E402
from liesplit.poisson import hamiltonian_field, poisson_bracket, tensor_at  # noqa: E402
from liesplit.poly import Polynomial  # noqa: E402
from liesplit.rationals import QQ  # noqa: E402
from liesplit.splitting import contract, horospherical_splitting, pencil_member  # noqa: E402
from liesplit.zalgebra import _vectors  # noqa: E402


def _traceless_diagonals(g, diags):
    """sl-basis coordinates of traceless diagonal matrices."""
    out = []
    for diag in diags:
        v = [0] * g.dim
        for k, i in enumerate(g.triangular.cartan):
            v[i] = sum(diag[: k + 1])
        out.append(v)
    return out


def _sl3_adapted():
    """The adapted sl(3) of case sl2n1 --n 1: t1 = diag(1, 0, -1), t0 = diag(1, -2, 1)."""
    g = build_sl(3)
    return horospherical_splitting(g, _traceless_diagonals(g, [[1, 0, -1]]),
                                   t0_basis=_traceless_diagonals(g, [[1, -2, 1]])).algebra


def _sl3_keep_h():
    """The keep_h contraction of the horospherical splitting of sl(3) with t1 = diag(1, 0, -1)."""
    g = build_sl(3)
    return contract(horospherical_splitting(g, _traceless_diagonals(g, [[1, 0, -1]])), "keep_h")


ALGEBRAS = {"sl3": build_sl(3), "so4": build_so_even(2),
            "sl3_adapted": _sl3_adapted(), "sl3_keep_h": _sl3_keep_h()}
# derandomized, so every run checks the same examples
CHECKS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def polynomials(dim, max_degree=2, max_terms=4):
    """Random polynomials of total degree <= max_degree with small integer coefficients."""
    monomial = st.lists(st.integers(0, dim - 1), max_size=max_degree)
    term = st.tuples(monomial, st.integers(-3, 3))

    def build(terms):
        p = Polynomial.zero(dim)
        for variables, coeff in terms:
            exps = [0] * dim
            for v in variables:
                exps[v] += 1
            p = p + Polynomial.monomial(dim, exps, coeff)
        return p

    return st.lists(term, max_size=max_terms).map(build)


def _structure_constants(L):
    return {c for i in range(L.dim) for j in range(L.dim) for c in L.bracket_pair(i, j).values()}


def _derived_series_dims(L):
    """Dimensions of g, [g, g], [[g, g], [g, g]], ... until the series stops shrinking."""
    span = [[int(i == k) for k in range(L.dim)] for i in range(L.dim)]
    dims = [L.dim]
    while span:
        derived = []
        for u in span:
            for v in span:
                w = [0] * L.dim
                for i, a in enumerate(u):
                    for j, b in enumerate(v):
                        if a and b:
                            for k, c in L.bracket_pair(i, j).items():
                                w[k] += a * b * c
                if rank(Matrix(derived + [w])) > len(derived):
                    derived.append(w)
        if len(derived) == len(span):
            break
        span = derived
        dims.append(len(span))
    return dims


def test_bracket_property_algebras_are_what_they_claim():
    # the adapted coordinates carry fractional structure constants
    assert {QQ(1, 2), QQ(-1, 2)} <= _structure_constants(ALGEBRAS["sl3_adapted"])
    # solvable and not abelian, hence not reductive
    dims = _derived_series_dims(ALGEBRAS["sl3_keep_h"])
    assert dims[-1] == 0 and dims[1] > 0
    assert _derived_series_dims(ALGEBRAS["sl3"]) == [8]


def algebras_and_polys(data, count):
    """Every algebra of ALGEBRAS, each with ``count`` drawn polynomials."""
    for L in ALGEBRAS.values():
        yield (L,) + tuple(data.draw(polynomials(L.dim)) for _ in range(count))


@CHECKS
@given(st.data())
def test_bracket_is_antisymmetric(data):
    for L, F, G in algebras_and_polys(data, 2):
        assert poisson_bracket(L, F, G) == -poisson_bracket(L, G, F)


@CHECKS
@given(st.data())
def test_bracket_satisfies_leibniz(data):
    for L, F, G, H in algebras_and_polys(data, 3):
        lhs = poisson_bracket(L, F, G * H)
        assert lhs == poisson_bracket(L, F, G) * H + G * poisson_bracket(L, F, H)


@CHECKS
@given(st.data())
def test_bracket_satisfies_jacobi(data):
    for L, F, G, H in algebras_and_polys(data, 3):
        total = (poisson_bracket(L, F, poisson_bracket(L, G, H))
                 + poisson_bracket(L, G, poisson_bracket(L, H, F))
                 + poisson_bracket(L, H, poisson_bracket(L, F, G)))
        assert total.is_zero()


def _borel(n):
    g = build_gl(n)
    return sub_algebra(g, g.triangular.plus + g.triangular.cartan)


BORELS = {n: _borel(n) for n in (2, 3, 4)}


@st.composite
def solvable_algebras(draw):
    """A Borel of gl(2..4) rewritten in a random integer unimodular basis: the product of
    elementary matrices I + c E_ij drawn from small integers."""
    B = BORELS[draw(st.integers(2, 4))]
    P = [[int(r == c) for c in range(B.dim)] for r in range(B.dim)]
    index = st.integers(0, B.dim - 1)
    for i, j, c in draw(st.lists(st.tuples(index, index, st.integers(-2, 2)), max_size=8)):
        if i != j:
            P[i] = [a + c * b for a, b in zip(P[i], P[j])]
    return change_basis(B, [list(col) for col in zip(*P)], [f"y{a}" for a in range(B.dim)])


def _reference_bracket(L, F, G):
    """sum over i < j of pi_ij (dF/dx_i dG/dx_j - dF/dx_j dG/dx_i), pi_ij = sum_k c_ij^k x_k,
    from ``Polynomial.diff`` and the stored constants."""
    total = Polynomial.zero(L.dim)
    for (i, j), entries in L.constants.items():
        pi = Polynomial.linear_form(L.dim, [dict(entries).get(k, 0) for k in range(L.dim)])
        total = total + pi * (F.diff(i) * G.diff(j) - F.diff(j) * G.diff(i))
    return total


@CHECKS
@given(st.data())
def test_bracket_on_random_solvable_algebras(data):
    L = data.draw(solvable_algebras())
    assert _derived_series_dims(L)[-1] == 0
    F, G, H = (data.draw(polynomials(L.dim)) for _ in range(3))
    FG = poisson_bracket(L, F, G)
    assert FG == _reference_bracket(L, F, G)
    assert FG == -poisson_bracket(L, G, F)
    assert poisson_bracket(L, F, G * H) == FG * H + G * poisson_bracket(L, F, H)
    assert (poisson_bracket(L, F, poisson_bracket(L, G, H))
            + poisson_bracket(L, G, poisson_bracket(L, H, F))
            + poisson_bracket(L, H, FG)).is_zero()


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_field_of_a_coordinate_is_the_lie_bracket(name):
    L = ALGEBRAS[name]
    for i in range(L.dim):
        field = dict(hamiltonian_field(L, Polynomial.variable(L.dim, i)))
        for j in range(L.dim):
            coeffs = [0] * L.dim
            for k, c in L.bracket_pair(i, j).items():
                coeffs[k] = c
            assert field[j] == Polynomial.linear_form(L.dim, coeffs)


def _first_cartan_rebuild(g):
    """A horospherical rebuild of g with t1 spanned by the first Cartan coordinate; for the
    double of sl(2), by h - xi with t0 spanned by h + xi, as the double case builds it."""
    if g.base_algebra is None:
        return horospherical_splitting(g, [[int(t == g.triangular.cartan[0])
                                            for t in range(g.dim)]])
    h, xi = g.base_algebra.triangular.cartan[0], g.base_algebra.dim
    return horospherical_splitting(g, [[int(t == h) - int(t == xi) for t in range(g.dim)]],
                                   t0_basis=[[int(t == h) + int(t == xi)
                                              for t in range(g.dim)]])


BUILDERS = {"sl3": build_sl(3), "so4": build_so_even(2), "gl3": build_gl(3),
            "so8": build_so_even(4), "double_sl2": build_double(build_sl(2))}


@pytest.mark.parametrize("name, kind", [
    ("sl3", "charpoly"), ("sl3", "trace_powers"),
    ("so4", "charpoly"), ("so4", "trace_powers"),
    ("gl3", "charpoly"), ("gl3", "trace_powers"), ("so8", "charpoly"), ("so8", "trace_powers"),
    ("double_sl2", "charpoly"), ("double_sl2", "trace_powers"),
])
def test_hilbert_generators_are_invariant(name, kind):
    """The bracket oracle on every builder basis the realization certificate proves, and on
    the same kind over a horospherical rebuild (transported for the double)."""
    g = BUILDERS[name]
    B = hilbert_basis(g, kind)
    assert B.invariance == ("double" if g.base_algebra else "realization")
    S = _first_cartan_rebuild(g)
    moved = transport_basis(B, S) if g.base_algebra else hilbert_basis(S.algebra, kind)
    for L, basis in ((g, B), (S.algebra, moved)):
        assert all(verify_invariance(L, F) for F in basis.polys), L


def test_h_squared_is_not_invariant_in_sl2():
    sl2 = build_sl(2)
    h = Polynomial.variable(3, 1)
    assert not verify_invariance(sl2, h * h)
    assert verify_invariance(sl2, h * h + 4 * Polynomial.variable(3, 0) * Polynomial.variable(3, 2))


@lru_cache(maxsize=None)
def _rank_family(name):
    """A splitting of sl(n) (t1 = the first Cartan coordinate), so(8) (t1 = the first three)
    or the Cartan double of sl(3) (t1 = h_k - xi_k, t0 = h_k + xi_k, as case double builds
    it), and the algebras whose tensors are ranked on it: the builder, its rebuild, both
    contractions and the pencil member at (2, -3)."""
    if name == "double_sl3":
        g = build_double(build_sl(3))
        m, cart = g.base_algebra.dim, list(enumerate(g.base_algebra.triangular.cartan))
        S = horospherical_splitting(g, _vectors(g.dim, ({i: 1, m + k: -1} for k, i in cart)),
                                    t0_basis=_vectors(g.dim, ({i: 1, m + k: 1} for k, i in cart)))
    else:
        g = build_so_even(4) if name == "so8" else build_sl(int(name[2:]))
        cart = g.triangular.cartan
        S = horospherical_splitting(g, _vectors(g.dim, ({i: 1} for i in
                                                        cart[: 3 if name == "so8" else 1])))
    return S, (g, S.algebra, contract(S, "keep_h"), contract(S, "keep_r"),
               pencil_member(S, (2, -3)))


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "sl5", "so8", "double_sl3"])
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32))
def test_tensor_rank_is_the_exact_rank(name, seed):
    """The rank ``tensor_at`` reports, from a rank mod P that meets the ceiling or else from
    elimination, equals the exact rank of its matrix at a generic point, the zero point, a
    point of Ann(h) and a point of t0, on every algebra of the family."""
    S, algebras = _rank_family(name)
    rng = random.Random(seed)
    for support in (range(S.algebra.dim), (), S.r_indices, S.t0_indices):
        xi = [0] * S.algebra.dim
        for i in support:
            xi[i] = rng.randint(-10**6, 10**6)
        for L in algebras:
            sample = tensor_at(L, xi)
            assert sample.rank == rank(sample.matrix), (name, L.kind, xi)
