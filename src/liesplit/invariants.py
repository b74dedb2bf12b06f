"""Symmetric invariants: Hilbert bases, bi-degrees, and generating-system tests.

Invariants of the matrix builders are polynomials on the dual space via
the trace-form identification of the algebra with its dual (one half of
the trace for the antidiagonal orthogonal realization).  Concretely the
generic dual element is the matrix Y(x) = sum_a y_a X_a with G y = x,
where G is the Gram matrix of the invariant form on the chosen basis.
The characteristic coefficients e_k come from the determinant of lambda I - Y,
a Laplace expansion along the first half of the rows, met by the minors of the
rest built level by level (``_first_row_expansion``), each minor one
``Polynomial.sum_of_products``; the power traces tr(Y^k)
follow by Newton's identities.  The Pfaffian, the only other expansion, replaces
the top generator of either family when every rho(e_a) is skew about the
antidiagonal J, as on so(2n): the condition ``poly_pfaffian`` checks on J Y.
All are exact polynomials in the dual coordinates x.

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
(the h-degree) increasing; the extreme components are ``parts[min(parts)]``
(least h-degree) and ``parts[max(parts)]`` (least r-degree).  Each split is
memoized on ``D`` by ``id(F)``, holding F so the id stays its own: a lookup
hashes no polynomial.

The good-generating-system test is a degree-sum criterion: for a
subalgebra h with complement m, sum_j deg_m F_j^bullet >= dim m whenever
the contraction h x m^ab has the index of q, with equality exactly when
the top components stay algebraically independent.  The report
cross-checks the degree sum against the Jacobian rank modulo the prime
``linalg.P`` = 2^30 - 35 at sampled points (a lower bound on the exact rank
there); the two must agree on builder algebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations
from math import lcm
from operator import mul

from .liealg import LieAlgebra, sub_algebra
from .linalg import Matrix, _best_rank, inverse, rank, rank_mod_p, solve  # noqa: F401  (rank: read by the perfbench tracer tests)
from .poisson import hamiltonian_field, index_estimate, poisson_bracket
from .poly import Polynomial
from .rationals import QQ, _check_length, _indices
from .splitting import Decomposition, contract


# -- generic dual element and determinant/pfaffian expansion -----------


def dual_matrix(L: LieAlgebra):
    """Entries of Y(x), the generic dual element in the matrix realization."""
    if L.realization is None or L.gram is None:
        raise ValueError(f"{L.kind} carries no complete matrix realization")
    n = L.dim
    ginv = inverse(L.gram)
    y = [Polynomial.linear_form(n, ginv.rows[a]) for a in range(n)]
    size = L.matrix_size
    Y = [[Polynomial.zero(n) for _ in range(size)] for _ in range(size)]
    for a in range(n):
        if y[a].is_zero():
            continue
        for (r, c), v in L.realization[a].items():
            Y[r][c] = Y[r][c] + y[a] * v
    return Y


def _first_row_expansion(entries, split, levels: int) -> Polynomial:
    """Alternating first-row expansion of a polynomial matrix, met in the middle.

    ``split(idx)`` gives the row to expand along and the columns it runs
    over; dropping the t-th column leaves the subproblem, with sign (-1)^t.
    The subproblems reachable through nonzero entries are listed one level per
    size.  At depth = ``levels // 2`` below the top the expansion is a
    generalized Laplace expansion: the top ``depth`` levels are summed, from
    the top down, into one coefficient per subproblem at that depth (the
    signed minors of the first rows, or the Pfaffian analogue), and each
    subproblem there is built only when its coefficient multiplies it into the
    result, then dropped.  It is built from the level below it, and the levels
    below that are built from the bottom up, each dropped once the next exists,
    so the large levels just below the top are never held whole.  The entries
    are cleared to one denominator d, so every minor and coefficient is an integral
    :meth:`Polynomial.sum_of_products` with no rescaling; a full product takes
    ``levels`` entries, so the result is divided once by d^levels.
    """
    nv = entries[0][0].nvars if entries else 0
    d = lcm(*(e.den for row in entries for e in row))
    cleared = [[e.scale(d) for e in row] for row in entries]

    def nonzero(idx):  # (t, entry, subproblem) for each nonzero entry of idx's row
        row, cols = split(idx)
        return [(t, cleared[row][j], cols[:t] + cols[t + 1 :])
                for t, j in enumerate(cols) if cleared[row][j]]

    def minor(idx, below) -> Polynomial:
        if not idx:
            return Polynomial.constant(nv, 1)
        return Polynomial.sum_of_products(nv, (((-1) ** t, e, below(sub))
                                               for t, e, sub in nonzero(idx)))

    depth = levels // 2
    reach = [[tuple(range(len(entries)))]]  # the top, then the reachable subproblems by level
    while reach[-1] and reach[-1][0]:
        reach.append(list(dict.fromkeys(s for idx in reach[-1] for *_, s in nonzero(idx))))
    built: dict = {}
    for level in reversed(reach[depth + 1:]):
        built = {idx: minor(idx, built.__getitem__) for idx in level}  # drops the level below
    coeffs = {reach[0][0]: Polynomial.constant(nv, 1)}  # the top rows summed down to depth
    for _ in range(depth):
        paths: dict = {}
        for idx, c in coeffs.items():
            for t, e, sub in nonzero(idx):
                paths.setdefault(sub, []).append(((-1) ** t, e, c))
        coeffs = {sub: c for sub, p in paths.items()
                  if (c := Polynomial.sum_of_products(nv, p))}
    return Polynomial.sum_of_products(nv, ((1, c, minor(idx, built.__getitem__))
                                           for idx, c in coeffs.items())).scale(QQ(1, d**levels))


def _square_size(entries) -> int:
    """The size of a square matrix of polynomials on one variable count, or a ValueError."""
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
    return len(entries)


def poly_det(entries) -> Polynomial:
    """Determinant of a square matrix of polynomials, by ``_first_row_expansion`` over
    column subsets."""
    size = _square_size(entries)
    return _first_row_expansion(entries, lambda cols: (size - len(cols), cols), size)


def poly_pfaffian(entries) -> Polynomial:
    """Pfaffian of a skew-symmetric polynomial matrix by first-row expansion.

    Normalized so the block-diagonal standard form (blocks [[0,1],[-1,0]])
    has Pfaffian +1.
    """
    size = _square_size(entries)
    if size % 2:
        raise ValueError("Pfaffian needs even size")
    for i in range(size):
        for j in range(i, size):
            if entries[i][j] != -entries[j][i]:
                raise ValueError("matrix is not skew-symmetric")
    return _first_row_expansion(entries, lambda idx: (idx[0], idx[1:]), size // 2)


def charpoly_coefficients(L: LieAlgebra) -> dict:
    """Map k -> e_k with det(lambda I - Y) = sum_k (-1)^k e_k lambda^(N-k)."""
    Y = dual_matrix(L)
    size = L.matrix_size
    n = L.dim
    lam = Polynomial.variable(n + 1, n)
    entries = [
        [
            (lam - Y[r][c].lift(n + 1) if r == c else -Y[r][c].lift(n + 1))
            for c in range(size)
        ]
        for r in range(size)
    ]
    by_lambda = poly_det(entries).split_last()  # lambda is the last variable
    out = {}
    for k in range(1, size + 1):
        p = by_lambda.get(size - k, Polynomial.zero(n))
        out[k] = -p if k % 2 else p
    return out


def _power_sums(e: dict) -> dict:
    """Map k -> p_k = tr(Y^k) from k -> e_k by Newton's identities.

    p_k = sum_{i<k} (-1)^(i-1) e_i p_{k-i} + (-1)^(k-1) k e_k, integer
    multipliers only (Macdonald, Symmetric Functions, I.2), each p_k one
    :meth:`Polynomial.sum_of_products`.
    """
    p = {}
    for k in sorted(e):
        q = {**p, 0: Polynomial.constant(e[k].nvars, k)}  # k e_k is e_k times the constant k
        p[k] = Polynomial.sum_of_products(e[k].nvars, ((1 if i % 2 else -1, e[i], q[k - i])
                                                       for i in (k, *range(1, k))))
    return p


# -- Hilbert bases ------------------------------------------------------


@dataclass
class HilbertBasis:
    algebra: LieAlgebra
    generators: tuple  # of (Polynomial, degree)
    # what proved every generator invariant: 'realization' (the algebra's realization
    # certificate), 'double' (the base's, for the lifts on a Cartan double), 'brackets'
    # (verify_invariance, for a custom basis), kept by a transport; None only after an
    # elimination or a double shift
    invariance: str | None = None

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
    +-Pf^2, and Newton's identities invert over Q.  On a Cartan double the basis is the
    lifts of its base's basis of the same kind, then the appended xi coordinates.  An
    adapted rebuild that carries no realization (one of a double) gets its base's basis
    through :func:`transport_basis`.  A ready list of polynomials goes through
    :func:`custom_basis`.

    The generators are always proved invariant without a bracket: each is a
    conjugation-invariant function of Y(x) = rho(G^-1 x), invariant once
    ``LieAlgebra.realization_certificate`` holds (on a double, its base's certificate),
    and ``HilbertBasis.invariance`` names that route.  The certificate is checked before
    any generator is built (the so(J) condition of the Pfaffian is the skew check of JY in
    :func:`poly_pfaffian`); a failed one raises ``ValueError``, with no fallback to brackets.
    """
    if kind not in ("charpoly", "trace_powers"):
        raise ValueError(f"unknown Hilbert basis kind {kind!r}")
    if L.realization is None and L.base_change is not None:
        return _transport(hilbert_basis(L.base_algebra, kind), L)
    base = _double_base(L)
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
        e = charpoly_coefficients(L)
        coeffs = _power_sums(e) if kind == "trace_powers" else e
        size = L.matrix_size
        gens = [(coeffs[k], k) for k in range(1, size + 1) if coeffs[k].terms]
        # so(J) of even size, J the antidiagonal: J rho(e_a) is skew for every a
        if size % 2 == 0 and all(m.get((size - 1 - c, size - 1 - r), 0) == -v
                                 for m in L.realization for (r, c), v in m.items()):
            pf = poly_pfaffian(dual_matrix(L)[::-1])  # J Y: the rows of Y in reverse order
            # J is the antidiagonal of det J = (-1)^n, so Pf(J Y)^2 = (-1)^n det Y
            if pf * pf != (-1) ** (size // 2) * e[size]:
                raise ValueError("Pfaffian sign convention failure: Pf^2 != (-1)^n Delta_2n")
            gens[-1] = (pf, size // 2)

    if L.rank is not None:
        if len(gens) != L.rank:
            raise AssertionError(f"generator count {len(gens)} != rank {L.rank}")
        total = sum(d for _, d in gens)
        if total != _b_of(L):
            raise AssertionError(f"sum of degrees {total} != b(g) = {_b_of(L)}")
    return HilbertBasis(L, tuple(gens), route)


def custom_basis(L: LieAlgebra, polys) -> HilbertBasis:
    """A basis from nonzero homogeneous polynomials, each of its own degree; each is
    bracketed against every coordinate (:func:`verify_invariance`), the route named
    'brackets'.  One that is not a Polynomial, zero, non-homogeneous or not invariant is
    named by its index."""
    gens = []
    for i, g in enumerate(polys):
        if not isinstance(g, Polynomial):
            raise ValueError(f"custom generator {i} is {g!r}, not a Polynomial")
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
        raise ValueError("splitting is not an adapted rebuild of the basis algebra")
    A = inverse(adapted.base_change.transpose())
    n = adapted.dim
    images = [Polynomial.linear_form(n, A.rows[i]) for i in range(n)]
    gens = tuple((g.map_vars(images, n), d) for g, d in B.generators)
    return HilbertBasis(adapted, gens, B.invariance)


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
    (i, d - i)}, nonzero components only, i increasing; callers split by total degree first.

    Computed once per ``D`` and polynomial object (see the module docstring): later calls
    with the same F return the same dict, not to be mutated."""
    _check_length("bidecompose: F", F.nvars, D.algebra.dim, "variables")
    got = D._bidecompositions.get(id(F))
    if got is not None:
        return got[1]
    if F.is_zero():
        raise ValueError("cannot bidecompose the zero polynomial")
    if not F.is_homogeneous():
        raise ValueError("bidecompose needs a homogeneous polynomial")
    parts = F.split_degree(D.h_indices)
    D._bidecompositions[id(F)] = (F, parts)
    return parts


def jacobian_rank(polys, trials: int = 5, seed: int = 0, bound: int = 997) -> int:
    """Max over sampled integer points of the Jacobian rank modulo ``linalg.P``.

    Each is a lower bound on the exact Jacobian rank at its point, hence on the
    transcendence degree.  Row p is ``p.int_gradient(x)``, the gradient of den_p * p
    at the point x evaluated in ints straight from p's terms: a row scale prime to P
    changes no rank modulo P, and any scale keeps the lower bound.  The points come
    from ``linalg._best_rank``, which checks 2 bound + 1 <= P (see ``linalg``).  All
    polynomials have the variable count of the first, or a ``ValueError`` names one."""
    n = polys[0].nvars if polys else 0
    for i, p in enumerate(polys):
        _check_length(f"polynomial {i}", p.nvars, n, "variables")
    best, _ = _best_rank(lambda x: rank_mod_p(Matrix([p.int_gradient(x) for p in polys])), n,
                         min(len(polys), n), trials, seed, bound)
    return best


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
        raise ValueError("basis and splitting live on different algebras")
    if side not in ("h", "r"):
        raise ValueError("side must be 'h' or 'r'")
    if side == "r" and not D.r_closed:
        raise ValueError("side 'r' needs a full splitting")
    horo = D.is_horospherical
    toral = D.t0_indices if side == "h" else D.t1_indices
    toral_set = set(toral)
    rows = []
    tops = []
    sum_m = 0
    for F, d in B.generators:
        parts = bidecompose(D, F)
        i = (min if side == "h" else max)(parts)
        bidegree = (i, d - i)
        deg_m = bidegree[side == "h"]
        tval = parts[i].support_vars() <= toral_set if horo else None
        rows.append(GgsRow(d, deg_m, tval, bidegree))
        tops.append(parts[i])
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
        raise AssertionError(
            f"sum of complement degrees {sum_m} < dim m = {dim_m}: violates a theorem"
        )
    jrank = jacobian_rank(tops, trials=trials, seed=seed)
    rank_known = D.algebra.rank
    consistent = None
    if rank_known is not None:
        consistent = verdict == (jrank == rank_known)
    a_count = dim_toral = claim_ok = None
    if horo:
        a_count = sum(1 for r in rows if r.toral_valued)
        dim_toral = len(toral)
        if a_count < dim_toral:
            raise AssertionError(
                f"a = {a_count} < dim toral part {dim_toral}: violates a theorem"
            )
        if a_count == dim_toral:
            claim_ok = all(r.toral_valued or r.bidegree_top[side == "r"] == 1 for r in rows)
    return GgsReport(side, rows, sum_m, dim_m, verdict, jrank, rank_known,
                     consistent, a_count, dim_toral, claim_ok)


# -- elimination on the toral subspace -----------------------------------


def _weighted_exponents(weights, total):
    """All exponent tuples m with sum m_s * weights_s == total."""
    if not weights:
        return [()] if total == 0 else []
    out = []
    w0 = weights[0]
    for k in range(total // w0 + 1):
        for rest in _weighted_exponents(weights[1:], total - k * w0):
            out.append((k,) + rest)
    return out


def _power_product(factors, exponents) -> Polynomial:
    """The product of factors[s] ** exponents[s], some exponent nonzero."""
    return reduce(mul, (f**e for f, e in zip(factors, exponents) if e))


def eliminate_on_subspace(B: HilbertBasis, S: Decomposition, keep=()) -> HilbertBasis:
    """Correct the generators so that all but the kept ones vanish on t0.

    The generators are walked in increasing degree, stable in list order.  A generator
    P of degree d is kept when its t0-restriction is nonzero and an exact linear solve
    cannot write it as a weighted-degree-d polynomial in the restrictions kept so far;
    otherwise P is replaced by P - that combination, whose restriction is zero.  The
    modified family is again a Hilbert basis (triangular change).  Without ``keep`` the
    kept restrictions are a minimal homogeneous generating set of the restricted image
    (graded Nakayama: a basis of R+/R+^2), so no homogeneous generating system has fewer
    generators nonzero on t0.
    ``keep`` lists distinct generator indices kept in any case, as ``rationals._indices`` checks.
    """
    if B.algebra is not S.algebra:
        raise ValueError("basis and splitting live on different algebras")
    seen = set(_indices("keep:", keep, len(B.generators), "generator index"))
    n = B.algebra.dim
    kept = []  # (generator, degree, its restriction)
    new_gens = list(B.generators)
    for idx in sorted(range(len(B.generators)), key=lambda j: B.generators[j][1]):
        P, d = B.generators[idx]
        target = restrict_to_t0(S, P)
        if idx not in seen:
            if target.is_zero():
                continue
            exps = _weighted_exponents([w for _, w, _ in kept], d)
            prods = [_power_product([r for *_, r in kept], m) for m in exps]
            monos = sorted({e for p in prods for e in p.terms} | set(target.terms))
            lam = solve(Matrix([[p.coeff(e) for p in prods] for e in monos]),
                        [target.coeff(e) for e in monos])
            if lam is not None:
                Q = Polynomial.sum_of_products(n, chain([(1, P, Polynomial.constant(n, 1))], (
                    (-1, Polynomial.constant(n, c), _power_product([g for g, *_ in kept], m))
                    for c, m in zip(lam, exps) if c)))
                new_gens[idx] = (Q, d)
                continue
        kept.append((P, d, target))
    return HilbertBasis(B.algebra, tuple(new_gens))


def double_shift_basis(B: HilbertBasis, side: str = "h") -> HilbertBasis:
    """The corrected generators F_j - fbar_j (side h) / F_j - (-1)^d fbar_j (side r).

    fbar_j is the Cartan restriction of F_j rewritten in the appended
    xi variables via the fixed identification h_i -> xi_i.  Degree-1
    generators (the xi's themselves) pass through unchanged.
    """
    L = B.algebra
    base = _double_base(L)
    if base is None:
        raise ValueError("double shifts need a basis over a double builder algebra")
    if side not in ("h", "r"):
        raise ValueError("side must be 'h' or 'r'")
    cartan = base.triangular.cartan
    n = L.dim
    images = [Polynomial.variable(n, base.dim + cartan.index(i)) if i in cartan
              else Polynomial.variable(n, i) if i >= base.dim else Polynomial.zero(n)
              for i in range(n)]
    gens = []
    for F, d in B.generators:
        sign = -1 if side == "r" and d % 2 else 1
        gens.append((F if d == 1 else F - sign * F.map_vars(images, n), d))
    return HilbertBasis(L, tuple(gens))


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
    L = S.algebra
    side_h = _aks_side(L, S.h_indices, B)
    side_r = _aks_side(L, S.r_indices, B)
    return AksReport(side_h, side_r)
