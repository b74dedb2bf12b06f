"""Property tests for the Lie-Poisson bracket and its Hamiltonian field."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from liesplit.invariants import hilbert_basis, verify_invariance  # noqa: E402
from liesplit.liealg import build_sl, build_so_even  # noqa: E402
from liesplit.linalg import Matrix, rank  # noqa: E402
from liesplit.poisson import hamiltonian_field, poisson_bracket  # noqa: E402
from liesplit.poly import Polynomial  # noqa: E402
from liesplit.rationals import QQ  # noqa: E402
from liesplit.splitting import contract, horospherical_splitting  # noqa: E402


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


def test_field_restricted_to_targets():
    L = ALGEBRAS["sl3"]
    F = Polynomial.variable(L.dim, 0) * Polynomial.variable(L.dim, 5)
    full = dict(hamiltonian_field(L, F))
    part = dict(hamiltonian_field(L, F, targets=[2, 6]))
    assert part == {2: full[2], 6: full[6]}


@pytest.mark.parametrize("name, kind", [
    ("sl3", "charpoly"), ("sl3", "trace_powers"),
    ("so4", "so_minors_pfaffian"),
])
def test_hilbert_generators_are_invariant(name, kind):
    L = ALGEBRAS[name]
    for g in hilbert_basis(L, kind, verify=False).polys:
        assert verify_invariance(L, g)


def test_h_squared_is_not_invariant_in_sl2():
    sl2 = build_sl(2)
    h = Polynomial.variable(3, 1)
    assert not verify_invariance(sl2, h * h)
    assert verify_invariance(sl2, h * h + 4 * Polynomial.variable(3, 0) * Polynomial.variable(3, 2))
