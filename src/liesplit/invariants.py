"""Symmetric invariants: Hilbert bases, bi-degrees, and generating-system tests.

Invariants of the matrix builders are polynomials on the dual space via
the trace-form identification of the algebra with its dual (one half of
the trace for the antidiagonal orthogonal realization).  Concretely the
generic dual element is the matrix Y(x) = sum_a y_a X_a with G y = x,
where G is the Gram matrix of the invariant form on the chosen basis.
The characteristic coefficients e_k come from one memoized determinant
expansion of lambda I - Y; the power traces tr(Y^k) follow from them by
Newton's identities, and the so(2n) principal-minor sums are even e_k.
The Pfaffian is the only other expansion.  All are exact polynomials in
the dual coordinates x.

The good-generating-system test is a degree-sum criterion: for a
subalgebra h with complement m, sum_j deg_m F_j^bullet >= dim m whenever
the contraction h x m^ab has the index of q, with equality exactly when
the top components stay algebraically independent.  The report
cross-checks the degree sum against the Jacobian rank modulo 2^61 - 1 at
sampled points (a lower bound on the exact rank there); the two must agree
on builder algebras.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .liealg import LieAlgebra, sub_algebra
from .linalg import Matrix, inverse, rank, rank_mod_p, solve  # noqa: F401  (rank: read by the perfbench tracer tests)
from .poisson import hamiltonian_field, index_estimate, poisson_bracket
from .poly import Polynomial
from .splitting import Decomposition, Splitting, contract


# -- generic dual element and determinant/pfaffian expansion -----------


def dual_matrix(L: LieAlgebra):
    """Entries of Y(x), the generic dual element in the matrix realization."""
    if L.realization is None or any(m is None for m in L.realization) or L.gram is None:
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


def _first_row_expansion(entries, split) -> Polynomial:
    """Alternating first-row expansion of a polynomial matrix, memoized over index tuples.

    ``split(idx)`` gives the row to expand along and the columns it runs
    over; dropping the t-th column leaves the subproblem, with sign (-1)^t.
    """
    nv = entries[0][0].nvars if entries else 0
    return _expand(entries, split, tuple(range(len(entries))), {(): Polynomial.constant(nv, 1)})


def _expand(entries, split, idx, memo) -> Polynomial:
    # a module-level recursion: a self-referencing closure would be a reference
    # cycle, holding every memoized minor until the next cycle collection
    got = memo.get(idx)
    if got is not None:
        return got
    row, cols = split(idx)
    acc = Polynomial.zero(entries[0][0].nvars)
    sign = 1
    for t, j in enumerate(cols):
        e = entries[row][j]
        if e.terms:
            sub = _expand(entries, split, cols[:t] + cols[t + 1 :], memo)
            acc = acc + e * sub if sign > 0 else acc - e * sub
        sign = -sign
    memo[idx] = acc
    return acc


def poly_det(entries) -> Polynomial:
    """Determinant of a square matrix of polynomials, memoized over column subsets."""
    size = len(entries)
    return _first_row_expansion(entries, lambda cols: (size - len(cols), cols))


def poly_pfaffian(entries) -> Polynomial:
    """Pfaffian of a skew-symmetric polynomial matrix by first-row expansion.

    Normalized so the block-diagonal standard form (blocks [[0,1],[-1,0]])
    has Pfaffian +1.
    """
    size = len(entries)
    if size % 2:
        raise ValueError("Pfaffian needs even size")
    for i in range(size):
        for j in range(i, size):
            if entries[i][j] != -entries[j][i]:
                raise ValueError("matrix is not skew-symmetric")
    return _first_row_expansion(entries, lambda idx: (idx[0], idx[1:]))


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
    full = poly_det(entries)
    by_lambda: dict[int, dict] = {}
    for e, c in full.items():
        by_lambda.setdefault(e[n], {})[e[:n]] = c  # lambda is the last variable
    out = {}
    for k in range(1, size + 1):
        p = Polynomial(n, by_lambda.get(size - k, {}))
        if k % 2:
            p = -p
        out[k] = p
    return out


def _power_sums(e: dict) -> dict:
    """Map k -> p_k = tr(Y^k) from k -> e_k by Newton's identities.

    p_k = sum_{i<k} (-1)^(i-1) e_i p_{k-i} + (-1)^(k-1) k e_k, integer
    multipliers only (Macdonald, Symmetric Functions, I.2).
    """
    p = {}
    for k in sorted(e):
        acc = e[k].scale(k if k % 2 else -k)
        for i in range(1, k):
            if e[i].terms and p[k - i].terms:
                acc = acc + e[i] * p[k - i] if i % 2 else acc - e[i] * p[k - i]
        p[k] = acc
    return p


# -- Hilbert bases ------------------------------------------------------


@dataclass
class HilbertBasis:
    algebra: LieAlgebra
    kind: str
    generators: tuple  # of (Polynomial, degree)

    @property
    def polys(self):
        return [g for g, _ in self.generators]

    @property
    def degrees(self):
        return [d for _, d in self.generators]


def verify_invariance(L: LieAlgebra, F: Polynomial) -> bool:
    """Exact check that {F, x_j} = 0 for every coordinate x_j; by Jacobi the x with
    {F, x} = 0 form a subalgebra, so the x_j of ``L.generating_set`` decide it."""
    return all(V.is_zero() for _, V in hamiltonian_field(L, F, L.generating_set))


def _b_of(L: LieAlgebra) -> int:
    """b(g) = (dim + rank) / 2, the dimension of a Borel subalgebra of a reductive g."""
    b, odd = divmod(L.dim + L.rank, 2)
    assert not odd, "dim + rank is even for a reductive algebra"
    return b


def hilbert_basis(L: LieAlgebra, kind: str, verify: bool = True) -> HilbertBasis:
    """Builder-backed Hilbert bases.

    kind: 'charpoly', 'trace_powers', 'so_minors_pfaffian', or
    'double_extended[:base_kind]' (base kind defaults to charpoly).  Every
    kind starts from the characteristic coefficients; the power traces
    come from them by Newton's identities.  A ready list of
    (Polynomial, degree) pairs goes through :func:`custom_basis`.
    """
    root = L
    while root.base_change is not None:  # an adapted rebuild keeps the realization
        root = root.base_algebra
    if kind in ("charpoly", "trace_powers"):
        if root.kind.startswith("so("):
            raise ValueError(f"{kind} is no Hilbert basis of {L.kind}: the so(2n) invariants "
                             "need the Pfaffian of degree n; use so_minors_pfaffian")
        coeffs = charpoly_coefficients(L)
        if kind == "trace_powers":
            coeffs = _power_sums(coeffs)
        # identically-zero generators (the trace on sl) are dropped
        gens = [(coeffs[k], k) for k in range(1, L.matrix_size + 1) if coeffs[k].terms]
    elif kind == "so_minors_pfaffian":
        if not root.kind.startswith("so("):
            raise ValueError("so_minors_pfaffian needs the so(2n) builder")
        size = L.matrix_size
        n = size // 2
        if n % 2:
            raise ValueError(
                "Pfaffian sign convention failure: over the rationals the antidiagonal "
                f"realization of so({size}) has Pf^2 = -Delta_{size} when n is odd"
            )
        coeffs = charpoly_coefficients(L)
        gens = [(coeffs[2 * k], 2 * k) for k in range(1, n)]
        Y = dual_matrix(L)
        K = [[Y[size - 1 - r][c] for c in range(size)] for r in range(size)]
        pf = poly_pfaffian(K)
        if pf * pf != coeffs[size]:
            raise ValueError("Pfaffian sign convention failure: Pf^2 != Delta_2n")
        gens.append((pf, n))
    elif kind.startswith("double_extended"):
        base = L.base_algebra
        if base is None or not L.kind.startswith("double["):
            raise ValueError("double_extended needs a double builder algebra")
        base_kind = kind.split(":", 1)[1] if ":" in kind else "charpoly"
        bb = hilbert_basis(base, base_kind, verify=False)
        gens = [(g.lift(L.dim), d) for g, d in bb.generators]
        gens += [(Polynomial.variable(L.dim, k), 1) for k in range(base.dim, L.dim)]
    else:
        raise ValueError(f"unknown Hilbert basis kind {kind!r}")

    if L.rank is not None:
        if len(gens) != L.rank:
            raise AssertionError(f"generator count {len(gens)} != rank {L.rank}")
        total = sum(d for _, d in gens)
        if total != _b_of(L):
            raise AssertionError(f"sum of degrees {total} != b(g) = {_b_of(L)}")
    basis = HilbertBasis(L, kind, tuple(gens))
    return _invariance_checked(basis) if verify else basis


def custom_basis(L: LieAlgebra, polys_degrees, verify: bool = True) -> HilbertBasis:
    basis = HilbertBasis(L, "custom", tuple((p, d) for p, d in polys_degrees))
    return _invariance_checked(basis) if verify else basis


def _invariance_checked(basis: HilbertBasis) -> HilbertBasis:
    for g, d in basis.generators:
        if not verify_invariance(basis.algebra, g):
            raise AssertionError(f"{basis.kind} generator of degree {d} is not invariant")
    return basis


def transport_basis(B: HilbertBasis, S: Decomposition) -> HilbertBasis:
    """Rewrite a basis in the adapted coordinates of a rebuilt splitting."""
    adapted = S.algebra
    if adapted.base_algebra is not B.algebra or adapted.base_change is None:
        raise ValueError("splitting is not an adapted rebuild of the basis algebra")
    A = inverse(adapted.base_change.transpose())
    n = adapted.dim
    images = [Polynomial.linear_form(n, A.rows[i]) for i in range(n)]
    gens = tuple((g.map_vars(images, n), d) for g, d in B.generators)
    return HilbertBasis(adapted, B.kind + "@adapted", gens)


# -- restriction to subspaces of the algebra ----------------------------


def restrict_to_span(L: LieAlgebra, F: Polynomial, vectors) -> Polynomial:
    """Restriction of F (a function on the dual) to the image of a subspace.

    The subspace of the algebra spanned by ``vectors`` is carried into the
    dual by the invariant form, i.e. x_a -> <v(c), X_a> with
    v(c) = sum_s c_s vectors[s]; the result is an exact polynomial in the
    parameters c_1..c_k.
    """
    if L.gram is None:
        raise ValueError("restriction needs the invariant-form Gram matrix")
    k = len(vectors)
    gram_t = L.gram.transpose()
    pairings = [gram_t.matvec(v) for v in vectors]  # <v, X_a> for every a
    images = [Polynomial.linear_form(k, [p[a] for p in pairings]) for a in range(L.dim)]
    return F.map_vars(images, k)


def _restrict_to_toral(S: Splitting, F: Polynomial, indices, label) -> Polynomial:
    if not S.is_horospherical:
        raise ValueError(f"{label} restrictions need a horospherical splitting")
    unit = [[int(t == i) for t in range(S.algebra.dim)] for i in indices]
    return restrict_to_span(S.algebra, F, unit)


def restrict_to_t0(S: Splitting, F: Polynomial) -> Polynomial:
    return _restrict_to_toral(S, F, S.t0_indices, "t0")


def restrict_to_t1(S: Splitting, F: Polynomial) -> Polynomial:
    return _restrict_to_toral(S, F, S.t1_indices, "t1")


# -- bi-homogeneous decomposition ---------------------------------------


@dataclass
class BiComponent:
    poly: Polynomial
    bidegree: tuple  # (h-degree, r-degree)


@dataclass
class BiDecomposition:
    components: list
    top: Polynomial     # minimal h-degree component (invariant of the keep_h contraction)
    bottom: Polynomial  # minimal r-degree component

    def component(self, i):
        """The (i, d-i) piece, zero when absent."""
        for c in self.components:
            if c.bidegree[0] == i:
                return c.poly
        if self.components:
            return Polynomial.zero(self.components[0].poly.nvars)
        raise ValueError("decomposition of the zero polynomial")


def bidecompose(D: Decomposition, F: Polynomial) -> BiDecomposition:
    """Split a homogeneous F by h-degree; callers split by total degree first."""
    if F.nvars != D.algebra.dim:
        raise ValueError("polynomial does not live on the splitting's algebra")
    if F.is_zero():
        raise ValueError("cannot bidecompose the zero polynomial")
    if not F.is_homogeneous():
        raise ValueError("bidecompose needs a homogeneous polynomial")
    d = F.degree()
    comps = [BiComponent(p, (i, d - i)) for i, p in F.split(D.h_degree_of_exponent).items()]
    return BiDecomposition(comps, comps[0].poly, comps[-1].poly)


def jacobian_rank(polys, trials: int = 5, seed: int = 0, bound: int = 997) -> int:
    """Max over sampled integer points of the Jacobian rank modulo 2^61 - 1.

    Each is a lower bound on the exact Jacobian rank at its point, hence on the
    transcendence degree."""
    if not polys:
        return 0
    n = polys[0].nvars
    grads = [[p.diff(i) for i in range(n)] for p in polys]
    rng = random.Random(seed)
    best = 0
    for _ in range(max(1, trials)):
        x = [rng.randint(-bound, bound) for _ in range(n)]
        rows = [[g.eval(x) for g in grad] for grad in grads]
        best = max(best, rank_mod_p(Matrix(rows)))
        if best == min(len(polys), n):
            break
    return best


# -- good generating systems --------------------------------------------


@dataclass
class GgsRow:
    degree: int
    deg_m_top: int          # complement-degree of the relevant extreme component
    deg_h_bottom: int       # h-degree of the other extreme component
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

    side 'h': the complement is r/m and the extreme components are the
    minimal-h-degree ones; side 'r' (full splittings only) is symmetric.
    """
    if B.algebra is not D.algebra:
        raise ValueError("basis and splitting live on different algebras")
    if side not in ("h", "r"):
        raise ValueError("side must be 'h' or 'r'")
    if side == "r" and not isinstance(D, Splitting):
        raise ValueError("side 'r' needs a full splitting")
    horo = D.is_horospherical
    toral = D.t0_indices if side == "h" else D.t1_indices
    toral_set = set(toral)
    rows = []
    tops = []
    sum_m = 0
    for F, d in B.generators:
        dec = bidecompose(D, F)
        if side == "h":
            top = dec.top
            hdeg_top = dec.components[0].bidegree[0]
            deg_m = d - hdeg_top
            bidegree_top = (hdeg_top, deg_m)
            other = dec.components[-1].bidegree[0]
        else:
            top = dec.bottom
            hdeg_top = dec.components[-1].bidegree[0]
            deg_m = hdeg_top
            bidegree_top = (hdeg_top, d - hdeg_top)
            other = d - dec.components[0].bidegree[0]
        tval = None
        if horo:
            tval = top.support_vars() <= toral_set
        rows.append(GgsRow(d, deg_m, other, tval, bidegree_top))
        tops.append(top)
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
            want = (lambda r: (1, r.degree - 1)) if side == "h" else (lambda r: (r.degree - 1, 1))
            claim_ok = all(r.toral_valued or r.bidegree_top == want(r) for r in rows)
    return GgsReport(side, rows, sum_m, dim_m, verdict, jrank, rank_known,
                     consistent, a_count, dim_toral, claim_ok)


# -- elimination on the toral subspace -----------------------------------


class EliminationInfeasible(ValueError):
    pass


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


def eliminate_on_subspace(B: HilbertBasis, S: Splitting, keep) -> HilbertBasis:
    """Correct non-kept generators so their restrictions to t0 vanish.

    For each non-kept generator P of degree d, an exact linear solve
    expresses P|_t0 as a weighted-degree-d polynomial in the kept
    restrictions; the result replaces P by P - that combination.  The
    modified family is again a Hilbert basis (triangular change).
    """
    keep = sorted(keep)
    if B.algebra is not S.algebra:
        raise ValueError("basis and splitting live on different algebras")
    kept = [(i, *B.generators[i]) for i in keep]
    restrictions = {i: restrict_to_t0(S, g) for i, g, _ in kept}
    weights = [d for _, _, d in kept]
    new_gens = list(B.generators)
    for idx, (P, d) in enumerate(B.generators):
        if idx in keep:
            continue
        target = restrict_to_t0(S, P)
        exps = _weighted_exponents(weights, d)
        if target.is_zero() and not exps:
            continue
        prods = []
        for m in exps:
            prod = Polynomial.constant(len(S.t0_indices), 1)
            for (i, _, _), k in zip(kept, m):
                if k:
                    prod = prod * restrictions[i] ** k
            prods.append(prod)
        monos = sorted({e for p in prods for e in p.terms} | set(target.terms))
        if not monos and target.is_zero():
            continue
        A = Matrix([[p.coeff(e) for p in prods] for e in monos])
        b = [target.coeff(e) for e in monos]
        lam = solve(A, b) if prods else (None if not target.is_zero() else ())
        if lam is None:
            raise EliminationInfeasible(
                f"generator of degree {d}: its t0-restriction is not a weighted-degree "
                f"combination of the kept restrictions"
            )
        correction = Polynomial.zero(B.algebra.dim)
        for coeff, m in zip(lam, exps):
            if coeff:
                term = Polynomial.constant(B.algebra.dim, coeff)
                for (i, g, _), k in zip(kept, m):
                    if k:
                        term = term * g**k
                correction = correction + term
        new_gens[idx] = (P - correction, d)
    return HilbertBasis(B.algebra, f"modified[{B.kind}]", tuple(new_gens))


def double_shift_basis(B: HilbertBasis, side: str = "h") -> HilbertBasis:
    """The corrected generators F_j - fbar_j (side h) / F_j - (-1)^d fbar_j (side r).

    fbar_j is the Cartan restriction of F_j rewritten in the appended
    xi variables via the fixed identification h_i -> xi_i.  Degree-1
    generators (the xi's themselves) pass through unchanged.
    """
    L = B.algebra
    base = L.base_algebra
    if base is None or not L.kind.startswith("double["):
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
    return HilbertBasis(L, f"double_shift[{side}]", tuple(gens))


# -- AKS restriction ------------------------------------------------------


@dataclass
class AksSide:
    generators: list       # nonzero restricted invariants, over the summand's variables
    commutes: bool
    first_failure: tuple | None


@dataclass
class AksReport:
    side_h: AksSide
    side_r: AksSide


def _aks_side(L, indices, B, pure_side):
    sub = sub_algebra(L, indices)
    gens = []
    for F, d in B.generators:
        p = Polynomial(L.dim, {e: c for e, c in F.items()
                               if all(k == 0 or i in pure_side for i, k in enumerate(e))})
        if p.is_zero():
            continue
        gens.append(p.restrict_vars(list(indices)))
    commutes = True
    failure = None
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            if not poisson_bracket(sub, gens[a], gens[b]).is_zero():
                commutes = False
                failure = (a, b)
                break
        if failure:
            break
    return AksSide(gens, commutes, failure)


def aks_restrict(S: Splitting, B: HilbertBasis) -> AksReport:
    """Restrictions of the invariants to each summand's dual are Poisson-commutative.

    Side h keeps the pure-h components (the restrictions to Ann(r)) and
    checks pairwise brackets inside S(h) with h's own Lie-Poisson
    structure; side r is symmetric.
    """
    L = S.algebra
    side_h = _aks_side(L, S.h_indices, B, set(S.h_indices))
    side_r = _aks_side(L, S.r_indices, B, set(S.r_indices))
    return AksReport(side_h, side_r)
