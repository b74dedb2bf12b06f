"""Property tests for the Lie-Poisson bracket and its Hamiltonian field."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from liesplit.invariants import hilbert_basis, verify_invariance  # noqa: E402
from liesplit.liealg import build_sl, build_so_even  # noqa: E402
from liesplit.poisson import hamiltonian_field, poisson_bracket  # noqa: E402
from liesplit.poly import Polynomial  # noqa: E402

ALGEBRAS = {"sl3": build_sl(3), "so4": build_so_even(2)}
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


@st.composite
def algebra_and_polys(draw, count):
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    L = ALGEBRAS[name]
    return (L,) + tuple(draw(polynomials(L.dim)) for _ in range(count))


@CHECKS
@given(algebra_and_polys(2))
def test_bracket_is_antisymmetric(args):
    L, F, G = args
    assert poisson_bracket(L, F, G) == -poisson_bracket(L, G, F)


@CHECKS
@given(algebra_and_polys(3))
def test_bracket_satisfies_leibniz(args):
    L, F, G, H = args
    lhs = poisson_bracket(L, F, G * H)
    assert lhs == poisson_bracket(L, F, G) * H + G * poisson_bracket(L, F, H)


@CHECKS
@given(algebra_and_polys(3))
def test_bracket_satisfies_jacobi(args):
    L, F, G, H = args
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
