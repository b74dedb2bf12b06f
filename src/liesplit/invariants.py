"""Symmetric invariants: Hilbert bases, bi-degrees, and generating-system tests.

Invariants of the matrix builders are polynomials on the dual space via
the trace-form identification of the algebra with its dual (one half of
the trace for the antidiagonal orthogonal realization).  Concretely the
generic dual element is the matrix Y(x) = sum_a y_a X_a with G y = x,
where G is the Gram matrix of the invariant form on the chosen basis.
The characteristic coefficients e_k are the lambda^(N-k) coefficients of det(lambda I + Y),
Y's nonzero entries read off the M_b (``_dual_cells``) and expanded by
``poly.laplace_expansion``, lambda a grade of its int terms; the power traces tr(Y^k)
follow by Newton's identities.  The same expansion gives the Pfaffian, which replaces
the top generator of either family when every rho(e_a) is skew about the
antidiagonal J, as on so(2n): then J Y is skew, so its entries are not checked again.
There Y^T = -J Y J, so det(lambda - Y) = det(lambda + Y) and every odd e_k is
zero: ``hilbert_basis`` asks the final sum of the expansion for the even
lambda-powers of e_2 .. e_(2n-2) only, and checks Pf(x) = Pf(J Y(x)) modulo P at one
seeded point x, by ``linalg._pfaffian_mod_p``, which fixes its sign without e_2n, never
built.  All are exact polynomials in the dual coordinates x.  This module reads no
terms and calls no kernel (an expansion bounds its exponents once: ``poly``'s carry rule).

Each of them is a conjugation-invariant function of Y, so its invariance is a
theorem once rho is a homomorphism and G a nondegenerate ad-invariant form:
``hilbert_basis`` proves it by the algebra's cached
``LieAlgebra.realization_certificate`` (the lifts on a Cartan double by its
base's) and brackets nothing.  ``verify_invariance`` brackets a polynomial against
every coordinate; it serves ``custom_basis`` and the contractions, where
the theorem says nothing.  The polynomial arithmetic that bracketing the
builder bases would exercise is covered by the differential and sympy
oracles of the test suite.

``bidecompose(D, F)`` splits a homogeneous F of degree d into the dict
{i: the component of bidegree (i, d - i)} over the nonzero components, i
(the h-degree) increasing.  It keeps no state: a basis keeps the splits of its
own generators, one list per h (``HilbertBasis.split``), and reads their extreme
components, the least h-degree on side h and the greatest on side r, in one place
(``HilbertBasis.extremes``), which the GGS test, the centres and the property suite share.

The good-generating-system test is a degree-sum criterion: for a
subalgebra h with complement m, sum_j deg_m F_j^bullet >= dim m whenever
the contraction h x m^ab has the index of q, with equality exactly when
the top components stay algebraically independent.  The report
cross-checks the degree sum against the Jacobian rank modulo the prime
``linalg.P`` = 2^30 - 35 at sampled points (a lower bound on the exact rank
there); the two must agree on builder algebras.  A builder generator keeps its recipe
(e_k, p_k, Pf or an elimination's combination), whose gradient is tr(X M_b) for an N x N
matrix X of Y, so its bi-components' rows come from the realization (``_component_rows``).
"""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import chain, combinations
from math import prod
from operator import mul

from .liealg import LieAlgebra, sub_algebra
from .linalg import (P, Matrix, _best_rank, _mod_p, _pfaffian_mod_p, _sample_point, inverse,
                     rank, skew_rank_mod_p, solve)  # noqa: F401 (rank: the perfbench tracer tests)
from .poisson import hamiltonian_field, index_estimate, poisson_bracket
from .poly import Polynomial, laplace_expansion
from .rationals import _check_length, _indices
from .splitting import Decomposition, contract


# -- generic dual element and determinant/pfaffian expansion -----------


def _dual_cells(L: LieAlgebra) -> dict:
    """{(r, c): Y(x)[r][c]} over the nonzero entries of Y(x) = sum_b x_b M_b (``dual_matrix``)."""
    if L.realization is None or L.gram is None:
        raise ValueError(f"{L.kind} carries no complete matrix realization")
    return Polynomial.linear_matrix(L.dim, L._dual_matrices)


def dual_matrix(L: LieAlgebra):
    """Entries of Y(x) = sum_b x_b M_b, the generic dual element in the matrix realization."""
    Y, size, zero = _dual_cells(L), L.matrix_size, Polynomial.zero(L.dim)
    return [[Y.get((r, c), zero) for c in range(size)] for r in range(size)]


def _cells(entries) -> tuple:
    """(size, nvars, {(r, c): entry} over the nonzero entries) of a square matrix of
    polynomials on one variable count, or a ValueError."""
    for r, row in enumerate(entries):
        if len(row) != len(entries):
            raise ValueError(f"{len(entries)}-row matrix is not square: row {r} has {len(row)} "
                             "entries")
        for c, e in enumerate(row):
            if not isinstance(e, Polynomial):
                raise ValueError(f"entry ({r}, {c}) is not a Polynomial: {e!r}")
            if e.nvars != entries[0][0].nvars:
                raise ValueError(f"entry ({r}, {c}) has {e.nvars} variables, entry (0, 0) "
                                 f"has {entries[0][0].nvars}")
    return len(entries), entries[0][0].nvars if entries else 0, {
        (r, c): e for r, row in enumerate(entries) for c, e in enumerate(row) if e}


def poly_det(entries) -> Polynomial:
    """Determinant of a square matrix of polynomials, by ``poly.laplace_expansion``."""
    size, n, cells = _cells(entries)
    return laplace_expansion(n, size, cells, False, None).get(0, Polynomial.zero(n))


def poly_pfaffian(entries) -> Polynomial:
    """Pfaffian of a skew-symmetric polynomial matrix by first-row expansion.

    Normalized so the block-diagonal standard form (blocks [[0,1],[-1,0]])
    has Pfaffian +1.
    """
    size, n, cells = _cells(entries)
    if size % 2:
        raise ValueError(f"Pfaffian needs even size, got {size}")
    for i in range(size):
        for j in range(i, size):
            if entries[i][j] != -entries[j][i]:
                raise ValueError(f"matrix is not skew-symmetric at ({i}, {j})")
    return laplace_expansion(n, size, cells, True, None).get(0, Polynomial.zero(n))


def charpoly_coefficients(L: LieAlgebra) -> dict:
    """Map k -> e_k with det(lambda I - Y) = sum_k (-1)^k e_k lambda^(N-k).

    On a realization skew about the antidiagonal J (so(2n)), Y^T = -J Y J, so
    det(lambda - Y) = det(lambda + Y) and every odd e_k is identically zero; this map
    still holds them all, while ``hilbert_basis`` expands only the even ones it keeps."""
    return _charpoly(L.dim, L.matrix_size, _dual_cells(L), range(1, L.matrix_size + 1))


def _charpoly(n: int, size: int, Y: dict, ks) -> dict:
    """Map k -> e_k = [lambda^(N-k)] det(lambda I + Y) for each k of ``ks``, Y the nonzero
    cells of a size x size matrix over n variables: the expansion forms those degrees only."""
    e = laplace_expansion(n, size, Y, False, {size - k for k in ks})
    return {k: e.get(size - k, Polynomial.zero(n)) for k in ks}


def _power_sums(e: dict) -> dict:
    """Map k -> p_k = tr(Y^k) from k -> e_k by Newton's identities, for each k of ``e``.

    p_k = sum_{i<k} (-1)^(i-1) e_i p_{k-i} + (-1)^(k-1) k e_k, integer
    multipliers only (Macdonald, Symmetric Functions, I.2), each p_k one
    :meth:`Polynomial.sum_of_products`.  An e_i that ``e`` lacks is taken as zero: on
    so(2n) ``e`` holds the even ones only, the odd ones being zero.
    """
    p = {}
    for k in sorted(e):
        q = {**p, 0: Polynomial.constant(e[k].nvars, k)}  # k e_k is e_k times the constant k
        p[k] = Polynomial.sum_of_products(e[k].nvars, ((1 if i % 2 else -1, e[i], q[k - i])
                                                       for i in (k, *range(1, k)) if i in e))
    return p


def _pfaffian_sign_holds(pf: Polynomial, mats, size: int) -> bool:
    """Whether pf(x) = Pf(J Y(x)) modulo ``linalg.P`` at a seeded point x of [-997, 997]^dim
    where pf(x) is nonzero modulo P: Y(x) = sum_b x_b M_b (``LieAlgebra._dual_matrices``), J Y(x)
    its rows reversed, and Pf by ``linalg._pfaffian_mod_p``, as the Jacobian rows of Pf read it.
    The identity holds as polynomials for the true Pfaffian, so one such point fixes its sign
    and rejects c Pf for c != 1 modulo P; a ``pf`` zero at five draws fails."""
    rng = random.Random(0)
    for _ in range(5):
        x = _sample_point(rng, pf.nvars, 997)
        if v := _mod_p(pf.eval(x)):
            break
    else:
        return False
    Y = [[0] * size for _ in range(size)]
    for xb, m in zip(x, mats):
        for (r, c), y in m.items() if xb else ():
            Y[r][c] += xb * _mod_p(y)
    return v == _pfaffian_mod_p(Y[::-1])


# -- Hilbert bases ------------------------------------------------------


@dataclass(frozen=True)
class HilbertBasis:
    algebra: LieAlgebra
    generators: tuple  # of (Polynomial, degree)
    # what proved every generator invariant: 'realization' (the algebra's realization
    # certificate), 'double' (the base's, for the lifts on a Cartan double), 'brackets'
    # (verify_invariance, for a custom basis), kept by a transport, an elimination and a
    # double shift (combinations of invariants and of the central xi's)
    invariance: str | None = None
    # per generator for _component_rows: ('e', k), ('p', k), ('pf',) or ('combination', base,
    # ((c, ((s, m_s), ..)), ..)) for base - sum c prod F_s^m_s; None off a realization
    recipes: tuple | None = None
    _splits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def split(self, D: Decomposition) -> list:
        """Each generator's :func:`bidecompose` dict on ``D``, in generator order, computed once
        per ``D.h_indices`` and kept on the basis: the same list each call, not to be mutated."""
        key = D.algebra.dim, D.h_indices  # a D of another dimension meets bidecompose's check
        if key not in self._splits:
            self._splits[key] = [bidecompose(D, F) for F, _ in self.generators]
        return self._splits[key]

    def extremes(self, D: Decomposition, side: str) -> list:
        """[(j, i, F_j,i)] in generator order: the component of generator j on ``D`` of least
        h-degree i on side 'h', of greatest on side 'r', the very polynomial :meth:`split` holds."""
        if side not in ("h", "r"):
            raise ValueError(f"side must be 'h' or 'r', got {side!r}")
        pick = min if side == "h" else max
        return [(j, (i := pick(parts)), parts[i]) for j, parts in enumerate(self.split(D))]

    @property
    def polys(self):
        return [g for g, _ in self.generators]

    @property
    def degrees(self):
        return [d for _, d in self.generators]


def verify_invariance(L: LieAlgebra, F: Polynomial) -> bool:
    """Exact check that {F, x_j} = 0 for every coordinate x_j."""
    return all(V.is_zero() for _, V in hamiltonian_field(L, F))


def _b_of(L: LieAlgebra) -> int:
    """b(g) = (dim + rank) / 2, the dimension of a Borel subalgebra of a reductive g."""
    b, odd = divmod(L.dim + L.rank, 2)
    if odd:
        raise ValueError(f"dim + rank = {L.dim} + {L.rank} of {L.kind} is odd, so it is "
                         "not reductive: b(g) = (dim + rank) / 2 needs an even sum")
    return b


def _double_base(L: LieAlgebra) -> LieAlgebra | None:
    """The base of a Cartan double (``liealg.build_double``), else None: the double is the
    one algebra with a base and no base change."""
    return L.base_algebra if L.base_change is None else None


def hilbert_basis(L: LieAlgebra, kind: str) -> HilbertBasis:
    """The basic invariants of a builder algebra or its adapted rebuild, in one family.

    kind: 'charpoly', the characteristic coefficients e_k, or 'trace_powers', the power
    traces p_k = tr Y^k from the e_k by Newton's identities; identically zero ones (the
    trace on sl, the odd ones on so) are dropped.  On so(2n), read off a realization skew
    about the antidiagonal, the Pfaffian (degree n) replaces the top generator: e_2n =
    +-Pf^2, and Newton's identities invert over Q.  There the odd e_k vanish and e_2n
    is not needed, so only e_2, e_4, .., e_(2n-2) are expanded, and the expanded Pf is
    checked against ``linalg._pfaffian_mod_p`` of J Y(x) at one sampled point x where it is
    nonzero modulo P (a ``ValueError`` if it fails).  On a Cartan double the basis is the
    lifts of its base's basis of the same kind, then the appended xi coordinates.  An
    adapted rebuild that carries no realization (one of a double) gets its base's basis
    through :func:`transport_basis`.  A ready list of polynomials goes through
    :func:`custom_basis`.

    The generators are always proved invariant without a bracket: each is a
    conjugation-invariant function of Y(x) = rho(G^-1 x), invariant once
    ``LieAlgebra.realization_certificate`` holds (on a double, its base's certificate),
    and ``HilbertBasis.invariance`` names that route.  The certificate is checked before
    any generator is built (the so(J) condition of the Pfaffian, that J rho(e_a) is skew for
    every a, makes J Y skew, so its entries are not checked again); a failed one raises
    ``ValueError``, with no fallback to brackets.
    """
    if kind not in ("charpoly", "trace_powers"):
        raise ValueError(f"unknown Hilbert basis kind {kind!r}")
    if L.realization is None and L.base_change is not None:
        return _transport(hilbert_basis(L.base_algebra, kind), L)
    base, recipes = _double_base(L), None
    if base is not None:
        # the lifts are invariant as the base generators are once the constants are the
        # base's, which also makes the appended xi coordinates central
        if L.constants != base.constants:
            raise ValueError(f"invariance of the {kind} basis of {L.kind} is not proved: "
                             "its structure constants are not those of its base")
        route = "double"
        gens = [(g.lift(L.dim), d) for g, d in hilbert_basis(base, kind).generators]
        gens += [(Polynomial.variable(L.dim, k), 1) for k in range(base.dim, L.dim)]
    else:
        cert = L.realization_certificate
        if not cert.passed:
            raise ValueError(f"invariance of the {kind} basis of {L.kind} is not proved: "
                             f"{cert.failure}")
        route = "realization"
        Y, size, n = _dual_cells(L), L.matrix_size, L.dim
        # so(J) of even size, J the antidiagonal: J rho(e_a) is skew for every a, so
        # Y^T = -J Y J, J Y is skew, the odd e_k vanish and the Pfaffian takes e_2n's place
        skew = size % 2 == 0 and all(m.get((size - 1 - c, size - 1 - r), 0) == -v
                                     for m in L.realization for (r, c), v in m.items())
        e = _charpoly(n, size, Y, range(2, size - 1, 2) if skew else range(1, size + 1))
        coeffs = _power_sums(e) if kind == "trace_powers" else e
        gens = [(c, k) for k, c in coeffs.items() if c.terms]  # k increasing
        recipes = [("p" if kind == "trace_powers" else "e", k) for _, k in gens]
        if skew:
            JY = {(size - 1 - r, c): v for (r, c), v in Y.items()}  # the rows of Y reversed
            pf = laplace_expansion(n, size, JY, True, None).get(0, Polynomial.zero(n))
            if not _pfaffian_sign_holds(pf, L._dual_matrices, size):
                raise ValueError("Pfaffian sign convention failure: Pf(x) != Pf(J Y(x)) "
                                 "modulo P at a sampled point")
            gens.append((pf, size // 2))
            recipes.append(("pf",))

    if L.rank is not None:
        if len(gens) != L.rank:
            raise AssertionError(f"generator count {len(gens)} != rank {L.rank}")
        total = sum(d for _, d in gens)
        if total != _b_of(L):
            raise AssertionError(f"sum of degrees {total} != b(g) = {_b_of(L)}")
    return HilbertBasis(L, tuple(gens), route, recipes and tuple(recipes))


def custom_basis(L: LieAlgebra, polys) -> HilbertBasis:
    """A basis from nonzero homogeneous polynomials, each of its own degree; each is
    bracketed against every coordinate (:func:`verify_invariance`), the route named
    'brackets'.  One that is not a Polynomial, has the wrong variable count, or is zero,
    non-homogeneous or not invariant is named by its index."""
    gens = []
    for i, g in enumerate(polys):
        if not isinstance(g, Polynomial):
            raise ValueError(f"custom generator {i} is {g!r}, not a Polynomial")
        _check_length(f"custom generator {i}", g.nvars, L.dim, "variables")
        if not (g and g.is_homogeneous()):
            raise ValueError(f"custom generator {i} is {'not homogeneous' if g else 'zero'}")
        if not verify_invariance(L, g):
            raise AssertionError(f"custom generator {i} of degree {g.degree()} is not invariant")
        gens.append((g, g.degree()))
    return HilbertBasis(L, tuple(gens), "brackets")


def transport_basis(B: HilbertBasis, S: Decomposition) -> HilbertBasis:
    """Rewrite a basis in the adapted coordinates of a rebuilt splitting.  The invariance
    route stays ``B``'s: the rebuild is the isomorphism ``change_basis`` verified."""
    return _transport(B, S.algebra)


def _transport(B: HilbertBasis, adapted: LieAlgebra) -> HilbertBasis:
    if adapted.base_algebra is not B.algebra or adapted.base_change is None:
        raise ValueError(f"splitting algebra {adapted.kind} is not an adapted rebuild of the "
                         f"basis algebra {B.algebra.kind}")
    A = inverse(adapted.base_change.transpose())
    n = adapted.dim
    images = [Polynomial.linear_form(n, A.rows[i]) for i in range(n)]
    gens = tuple((g.map_vars(images, n), d) for g, d in B.generators)
    return HilbertBasis(adapted, gens, B.invariance,  # on a realization, Y'(x) is Y(A x)
                        B.recipes if adapted.realization is not None else None)


# -- restriction to t0 ----------------------------------------------------


def restrict_to_t0(S: Decomposition, F: Polynomial) -> Polynomial:
    """Restriction of F (a function on the dual) to t0, carried into the dual by the
    invariant form: x_a -> <sum_s c_s t0_s, X_a> = sum_s G[t0_s, a] c_s, an exact
    polynomial in c_1..c_k over the adapted Gram rows of t0, substituted afresh per call."""
    if not S.is_horospherical:
        raise ValueError("t0 restrictions need a horospherical splitting")
    G, k = S.algebra.gram.rows, len(S.t0_indices)
    return F.map_vars([Polynomial.linear_form(k, [G[i][a] for i in S.t0_indices])
                       for a in range(S.algebra.dim)], k)


# -- bi-homogeneous decomposition ---------------------------------------


def bidecompose(D: Decomposition, F: Polynomial) -> dict:
    """Split a homogeneous F of degree d by h-degree: {i: the component of bidegree
    (i, d - i)}, nonzero components only, i increasing; callers split by total degree first."""
    _check_length("bidecompose: F", F.nvars, D.algebra.dim, "variables")
    if F.is_zero():
        raise ValueError("cannot bidecompose the zero polynomial")
    if not F.is_homogeneous():
        a, b, *_ = F.split_degree(range(F.nvars))  # the total degrees, increasing
        raise ValueError(f"bidecompose needs a homogeneous polynomial, got degrees {a} and {b}")
    return F.split_degree(D.h_indices)


def jacobian_rank(polys, trials: int = 5, seed: int = 0, bound: int = 997) -> int:
    """Max over sampled integer points of the Jacobian rank modulo ``linalg.P``.

    Each is a lower bound on the exact Jacobian rank at its point, hence on the
    transcendence degree.  Row p is ``p.int_gradient(x)``, the gradient of den_p * p
    at the point x evaluated in ints straight from p's terms: a row scale prime to P
    changes no rank modulo P, and any scale keeps the lower bound.  The points come
    from ``linalg._best_rank``, which checks 2 bound + 1 <= P (see ``linalg``).  All
    polynomials have the variable count of the first, or a ``ValueError`` names one.
    The Z and GGS tops take builder rows from :func:`_component_rows`, equal up to units."""
    n = polys[0].nvars if polys else 0
    for i, p in enumerate(polys):
        _check_length(f"polynomial {i}", p.nvars, n, "variables")
    return _jacobian_rank([(p, None) for p in polys], n, trials, seed, bound)


def _jacobian_rank(rows, n, trials, seed, bound, B=None, D=None) -> int:
    """:func:`jacobian_rank` of the (polynomial, source) ``rows``, a source (j, i) naming the
    h-degree-i component on ``D`` of generator j of ``B``: B's :func:`_component_rows` once
    they hold over 2 (d + 1) N^2 terms, d the top degree (measured crossovers: 160 to 1,020)."""
    known = [k for k, (_, c) in enumerate(rows) if c] if B and B.recipes else []
    if known and sum(len(rows[k][0].terms) for k in known) <= 2 * (
            max(B.degrees) + 1) * B.algebra.matrix_size ** 2:
        known = []

    def rank_at(x):  # the rows bordered into [[0, J], [-J^T, 0]] for skew_rank_mod_p
        route = _component_rows(B, D, x, [rows[k][1] for k in known]) if known else None
        ready = dict(zip(known, route or ()))
        grads = (ready[k] if k in ready else p.int_gradient(x) for k, (p, _) in enumerate(rows))
        upper = [{len(rows) + c: v for c, v in enumerate(g) if v} for g in grads]
        return skew_rank_mod_p(upper + [{} for _ in range(n)]) // 2

    return _best_rank(rank_at, n, min(len(rows), n), trials, seed, bound)[0]


# -- Jacobian rows from the realization, modulo P ---------------------------


def _matmul_mod_p(A, B):
    """A B modulo P; up to N = 16, where N products of residues fit 64 bits, B's rows packed."""
    if len(B) > 16:
        return [[sum(map(mul, row, col)) % P for col in zip(*B)] for row in A]
    packed = [int.from_bytes(array("Q", row).tobytes(), sys.byteorder) for row in B]
    return [[v % P for v in memoryview(sum(map(mul, row, packed)).to_bytes(
        8 * len(B), sys.byteorder)).cast("Q")] for row in A]


@cache
def _interpolation_mod_p(k: int) -> list:
    """V^-1 mod P for V = (s^i), s = 1 .. k: g = sum_(i<k) c_i s^i has c_i = (V^-1 g)_i."""
    V = inverse(Matrix([[s**i for i in range(k)] for s in range(1, k + 1)]))
    return [[_mod_p(v) for v in row] for row in V.rows]


def _recipe_gradients(recipes, Y, mats):
    """Each recipe's gradient mod P at Y = Y(y), dF/dy_b = tr(X M_b) (``mats``: [flat cells],
    [residues]); a ``ValueError`` where Pf = 0.  With t_m = tr(Y^m M_b), d p_k = k t_(k-1);
    Faddeev-LeVerrier's B_k = sum_(i<=k) a_i Y^(k-i), a_k of det(lambda - Y) = sum a_k
    lambda^(N-k) by Newton, give d a_k = -tr(B_(k-1) M_b), e_k = (-1)^k a_k; Y^-1 = -B_(N-1) / a_N
    and a_N = (-1)^(N/2) Pf^2 give d Pf = Pf tr(Y^-1 dY) / 2 = (-1)^(N/2) d a_N / (2 Pf)."""
    N = len(Y)
    powers = [[[int(r == c) for c in range(N)] for r in range(N)], Y]  # Y^0 .. Y^(N-1)
    while len(powers) < N:
        powers.append(_matmul_mod_p(Y, powers[-1]))
    t, p, a, yt = [], [None], [1], [v for col in zip(*Y) for v in col]  # p[k] = tr(Y^k)
    for m, X in enumerate(powers):
        flat = [v for row in X for v in row]
        t.append([sum(map(mul, map(flat.__getitem__, cells), vs)) % P for cells, vs in mats])
        p.append(sum(map(mul, flat, yt)) % P)
        a.append(-sum(map(mul, a[::-1], p[1:])) * pow(m + 1, -1, P) % P)

    def d_a(k):  # the gradient of a_k
        return [-sum(map(mul, a[k - 1::-1], col)) % P for col in zip(*t[:k])]

    @cache
    def at(r):  # (value, gradient) of the recipe r
        if r[0] == "e":
            return (-1) ** r[1] * a[r[1]] % P, [(-1) ** r[1] * v % P for v in d_a(r[1])]
        if r[0] == "p":
            return p[r[1]], [r[1] * v % P for v in t[r[1] - 1]]
        if r[0] == "pf":
            pf = _pfaffian_mod_p(Y[::-1])  # J Y: the rows of Y in reverse order
            u = (-1) ** (N // 2) * pow(2 * pf, -1, P)
            return pf, [u * v % P for v in d_a(N)]
        v, g = at(r[1])  # base - sum c prod_s F_s^m_s
        for c, exps in r[2]:
            fs = [(m, *at(recipes[s])) for s, m in exps]
            c, pows = _mod_p(c), [pow(f, m, P) for m, f, _ in fs]
            v -= c * prod(pows)
            for k, (m, f, df) in enumerate(fs):  # d/dF_k of c prod_s F_s^m_s
                u = c * m * pow(f, m - 1, P) * prod(pows[:k] + pows[k + 1:]) % P
                g = [(x - u * y) % P for x, y in zip(g, df)]
        return v % P, g

    return [at(r)[1] for r in recipes]


def _component_rows(B: HilbertBasis, D: Decomposition, x, comps) -> list | None:
    """For each (j, i) of ``comps``, the gradient at x modulo P of F_j,i, the h-degree-i component
    on ``D`` of generator j of ``B`` (its ``int_gradient`` over den), interpolated from those of
    G_j(s) = F_j(s x_h, x_r) = sum_i s^i F_j,i(x) at s = 1 .. d_j + 1; None if Pf(J Y) is 0
    modulo P at one of those s."""
    h, N, degrees = set(D.h_indices), B.algebra.matrix_size, B.degrees
    mats = [([N * c + r for r, c in m], [_mod_p(v) for v in m.values()])
            for m in B.algebra._dual_matrices]  # tr(X M_b) reads the flattened X at c N + r
    Yh, Yr = [[0] * N for _ in range(N)], [[0] * N for _ in range(N)]
    for b, (xb, (cells, vs)) in enumerate(zip(x, mats)):
        for k, v in zip(cells, vs) if xb else ():
            (Yh if b in h else Yr)[k % N][k // N] += xb * v
    grads = [[] for _ in B.generators]  # grads[j][s - 1]: G_j's gradient at s
    try:
        for s in range(1, max(degrees) + 2):
            at = _recipe_gradients(B.recipes, [[(s * u + v) % P for u, v in zip(*rows)]
                                               for rows in zip(Yh, Yr)], mats)
            for g, row in zip(grads, at):  # dG/dx_b = s dF/dy_b for b in h
                g.append([s * v % P if b in h else v for b, v in enumerate(row)])
    except ValueError:  # Pf(J Y) = 0: no inverse of 2 Pf modulo P
        return None
    weights = [(_interpolation_mod_p(degrees[j] + 1)[i], grads[j]) for j, i in comps]
    return [[sum(map(mul, w, col)) % P for col in zip(*g)] for w, g in weights]


# -- good generating systems --------------------------------------------


@dataclass
class GgsRow:
    degree: int
    deg_m_top: int          # complement-degree of the relevant extreme component
    toral_valued: bool | None
    bidegree_top: tuple


@dataclass
class GgsReport:
    side: str
    rows: list
    sum_m: int
    dim_m: int
    verdict: bool
    jacobian_rank_top: int
    rank: int | None
    consistent: bool | None
    a_count: int | None
    dim_toral: int | None
    bidegree_claim_ok: bool | None


def ggs_check(D: Decomposition, B: HilbertBasis, side: str = "h",
              trials: int = 5, seed: int = 0) -> GgsReport:
    """Degree-sum criterion for a good generating system, with Jacobian cross-check.

    One rule on both sides: each generator contributes its extreme component,
    the one of least degree in the side's subalgebra (least h-degree on side h,
    least r-degree on side r, when r is closed), and deg_m is its degree in
    the complement m (r on side h, h on side r).  The verdict is sum deg_m == dim m.
    Rows give the bidegree as (h-degree, r-degree) on both sides.
    On a horospherical splitting, ``bidegree_claim_ok`` certifies the bi-degree
    claim when a = dim of the toral part: every extreme component not supported on
    the toral part has degree 1 in the side's subalgebra, so it reads (1, d-1) on
    side h and (d-1, 1) on side r (None when a > dim, or off horospherical splittings).
    """
    if B.algebra is not D.algebra:
        raise ValueError(f"basis and splitting live on different algebras: basis on "
                         f"{B.algebra.kind}, splitting on {D.algebra.kind}")
    if side not in ("h", "r"):
        raise ValueError(f"side must be 'h' or 'r', got {side!r}")
    if side == "r" and not D.r_closed:
        raise ValueError("side 'r' needs a full splitting")
    horo = D.is_horospherical
    toral = D.t0_indices if side == "h" else D.t1_indices
    toral_set = set(toral)
    rows, sum_m, tops = [], 0, B.extremes(D, side)
    for d, (_, i, top) in zip(B.degrees, tops):
        bidegree = (i, d - i)
        deg_m = bidegree[side == "h"]
        tval = top.support_vars() <= toral_set if horo else None
        rows.append(GgsRow(d, deg_m, tval, bidegree))
        sum_m += deg_m
    dim_m = D.dim_r if side == "h" else D.dim_h
    verdict = sum_m == dim_m
    if sum_m < dim_m:
        # the inequality needs ind(h x m^ab) = ind q; an input that breaks it is no bug
        ind_c, ind_q = (index_estimate(A, trials=trials, seed=seed).claimed_index
                        for A in (contract(D, f"keep_{side}"), D.algebra))
        if ind_c > ind_q:
            raise ValueError(f"sum of complement degrees {sum_m} < dim m = {dim_m} because the "
                             f"hypothesis ind({side} x m^ab) = ind q fails: the keep_{side} "
                             f"contraction has sampled index {ind_c}, {D.algebra.kind} has {ind_q}")
        raise AssertionError(f"sum of complement degrees {sum_m} < dim m = {dim_m}: "
                             "violates a theorem")
    jrank = _jacobian_rank([(F, (j, i)) for j, i, F in tops], D.algebra.dim, trials, seed, 997,
                           B, D)
    rank_known = D.algebra.rank
    consistent = None if rank_known is None else verdict == (jrank == rank_known)
    a_count = dim_toral = claim_ok = None
    if horo:
        a_count = sum(1 for r in rows if r.toral_valued)
        dim_toral = len(toral)
        if a_count < dim_toral:
            raise AssertionError(f"a = {a_count} < dim toral part {dim_toral}: "
                                 "violates a theorem")
        if a_count == dim_toral:
            claim_ok = all(r.toral_valued or r.bidegree_top[side == "r"] == 1 for r in rows)
    return GgsReport(side, rows, sum_m, dim_m, verdict, jrank, rank_known,
                     consistent, a_count, dim_toral, claim_ok)


# -- elimination on the toral subspace -----------------------------------


def _weighted_exponents(weights, total):
    """All exponent tuples m with sum m_s * weights_s == total."""
    if not weights:
        return [()] if total == 0 else []
    return [(k,) + rest for k in range(total // weights[0] + 1)
            for rest in _weighted_exponents(weights[1:], total - k * weights[0])]


def _power_product(factors, exponents) -> Polynomial:
    """The product of factors[s] ** exponents[s], some exponent nonzero."""
    return reduce(mul, (f**e for f, e in zip(factors, exponents) if e))


def eliminate_on_subspace(B: HilbertBasis, S: Decomposition, keep=()) -> HilbertBasis:
    """Correct the generators so that all but the kept ones vanish on t0.

    The generators are walked in increasing degree, stable in list order.  A generator
    P of degree d is kept when its t0-restriction is nonzero and an exact linear solve
    cannot write it as a weighted-degree-d polynomial in the restrictions kept so far;
    otherwise P is replaced by P - that combination, whose restriction is zero.  The
    modified family is again a Hilbert basis (triangular change), of ``B``'s invariance
    route, and each corrected recipe names its combination.  Without ``keep`` the
    kept restrictions are a minimal homogeneous generating set of the restricted image
    (graded Nakayama: a basis of R+/R+^2), so no homogeneous generating system has fewer
    generators nonzero on t0.
    ``keep`` lists distinct generator indices kept in any case, as ``rationals._indices`` checks.
    """
    if B.algebra is not S.algebra:
        raise ValueError(f"basis and splitting live on different algebras: basis on "
                         f"{B.algebra.kind}, splitting on {S.algebra.kind}")
    seen = set(_indices("keep:", keep, len(B.generators), "generator index"))
    n = B.algebra.dim
    kept = []  # (index, generator, degree, its restriction)
    new_gens, recipes = list(B.generators), B.recipes and list(B.recipes)
    for idx in sorted(range(len(B.generators)), key=lambda j: B.generators[j][1]):
        P, d = B.generators[idx]
        target = restrict_to_t0(S, P)
        if idx not in seen:
            if target.is_zero():
                continue
            exps = _weighted_exponents([w for _, _, w, _ in kept], d)
            prods = [_power_product([r for *_, r in kept], m) for m in exps]
            monos = sorted({e for p in prods for e in p.terms} | set(target.terms))
            lam = solve(Matrix([[p.coeff(e) for p in prods] for e in monos]),
                        [target.coeff(e) for e in monos])
            if lam is not None:
                Q = Polynomial.sum_of_products(n, chain([(1, P, Polynomial.constant(n, 1))], (
                    (-1, Polynomial.constant(n, c), _power_product([g for _, g, *_ in kept], m))
                    for c, m in zip(lam, exps) if c)))
                new_gens[idx] = (Q, d)
                if recipes:
                    recipes[idx] = ("combination", recipes[idx], tuple(
                        (c, tuple((kept[s][0], k) for s, k in enumerate(m) if k))
                        for c, m in zip(lam, exps) if c))
                continue
        kept.append((idx, P, d, target))
    return HilbertBasis(B.algebra, tuple(new_gens), B.invariance, recipes and tuple(recipes))


def double_shift_basis(B: HilbertBasis, side: str = "h") -> HilbertBasis:
    """The corrected generators F_j - fbar_j (side h) / F_j - (-1)^d fbar_j (side r).

    fbar_j is the Cartan restriction of F_j rewritten in the appended
    xi variables via the fixed identification h_i -> xi_i.  Degree-1
    generators (the xi's themselves) pass through unchanged.  The xi's are central, so
    ``B.invariance`` is kept; no recipe is.
    """
    L = B.algebra
    base = _double_base(L)
    if base is None:
        raise ValueError("double shifts need a basis over a double builder algebra")
    if side not in ("h", "r"):
        raise ValueError(f"side must be 'h' or 'r', got {side!r}")
    cartan = base.triangular.cartan
    n = L.dim
    images = [Polynomial.variable(n, base.dim + cartan.index(i)) if i in cartan
              else Polynomial.variable(n, i) if i >= base.dim else Polynomial.zero(n)
              for i in range(n)]
    sign = {d: -1 if side == "r" and d % 2 else 1 for d in B.degrees}
    return HilbertBasis(L, tuple((F if d == 1 else F - sign[d] * F.map_vars(images, n), d)
                                 for F, d in B.generators), B.invariance)


# -- AKS restriction ------------------------------------------------------


@dataclass
class AksSide:
    generators: list       # nonzero restricted invariants, over the summand's variables
    commutes: bool


@dataclass
class AksReport:
    side_h: AksSide
    side_r: AksSide


def _aks_side(L, indices, B):
    sub = sub_algebra(L, indices)
    gens = [p for F, _ in B.generators if not (p := F.part_on(indices)).is_zero()]
    return AksSide(gens, all(poisson_bracket(sub, a, b).is_zero()
                             for a, b in combinations(gens, 2)))


def aks_restrict(S: Decomposition, B: HilbertBasis) -> AksReport:
    """Restrictions of the invariants to each summand's dual are Poisson-commutative.

    Side h keeps the pure-h components (the restrictions to Ann(r)) and
    checks pairwise brackets inside S(h) with h's own Lie-Poisson
    structure; side r is symmetric.
    """
    return AksReport(_aks_side(S.algebra, S.h_indices, B), _aks_side(S.algebra, S.r_indices, B))
