"""Lie-Poisson brackets, Poisson tensors at points, and sampled invariants.

Genericity is probabilistic throughout: a "generic" point is the best
witness over seed-deterministic uniform integer samples.  Every sampled
rank is a certificate, so claimed indices are always upper bounds on the
true index and reports store their witnesses for replay.  ``tensor_at``
gives the exact rank at a point (its callers also compare ranks from
above); ``index_estimate`` needs the rank only from below and takes it
modulo the prime 2^61 - 1 (``linalg.rank_mod_p``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import _kernels as K
from .liealg import LieAlgebra, escaping_bracket
from .linalg import Matrix, rank, rank_and_nullspace, rank_mod_p, solve
from .poly import Polynomial
from .rationals import QQ, qq_str, scalar
from .splitting import BracketParameter, Decomposition, Splitting, contract, pencil_member

DEFAULT_BOUND = 10**6


def _field_terms(L: LieAlgebra, F: Polynomial, targets):
    """Yield (j, int terms of D_L den_F {F, x_j}) for j in ``targets``, D_L from
    ``LieAlgebra.poisson_columns``; F's derivatives are taken once, along the x_i used."""
    if F.nvars != L.dim:
        raise ValueError("polynomials must live on the algebra's coordinates")
    n = L.dim
    columns = L.poisson_columns[1]
    targets = dict.fromkeys(targets)
    used = {i for j in targets for i, _, _ in columns[j]}
    dF = {i: d for i in used if (d := K.diff_terms(F.terms, i, n))}
    for j in targets:
        V = {}
        for i, lin, sign in columns[j]:
            if i in dF:
                K.axpy_terms(V, K.mul_terms(dF[i], lin, n), sign)
        yield j, V


def hamiltonian_field(L: LieAlgebra, F: Polynomial, targets=None):
    """Yield (j, V_j) with V_j = {F, x_j} = sum_i pi_ij dF/dx_i and pi_ij = sum_k c_ij^k x_k.

    Runs over ``targets`` (every coordinate by default), differentiating F only along the
    x_i they use; by Jacobi, F is invariant when V_j = 0 on ``LieAlgebra.generating_set``.
    """
    den = L.poisson_columns[0] * F.den
    for j, V in _field_terms(L, F, range(L.dim) if targets is None else targets):
        yield j, Polynomial._of(L.dim, V, den)


def poisson_bracket(L: LieAlgebra, F: Polynomial, G: Polynomial) -> Polynomial:
    """{F, G} = sum_j {F, x_j} dG/dx_j, over the coordinates G depends on, in integers
    divided once by D_L den_F den_G."""
    if G.nvars != L.dim:
        raise ValueError("polynomials must live on the algebra's coordinates")
    n = L.dim
    dG = {j: d for j in range(n) if (d := K.diff_terms(G.terms, j, n))}
    acc: dict = {}
    for j, V in _field_terms(L, F, dG):
        if V:
            K.axpy_terms(acc, K.mul_terms(V, dG[j], n), 1)
    return Polynomial._of(n, acc, L.poisson_columns[0] * F.den * G.den)


@dataclass
class PoissonTensorSample:
    point: tuple
    parameter: BracketParameter | None
    matrix: Matrix
    rank: int
    order: tuple
    block_a_rank: int | None = None

    def kernel(self):
        _, basis = rank_and_nullspace(self.matrix)
        return basis


def _tensor_matrix(L: LieAlgebra, xi, order) -> Matrix:
    """pi(xi)[a][b] = xi([x_a, x_b]) for exact ``xi``, rows and columns in ``order``."""
    n = L.dim
    rows = [[0] * n for _ in range(n)]
    for (i, j), entries in L.constants.items():
        v = 0
        for k, c in entries:
            if xi[k]:
                v = v + c * xi[k]
        if v:
            rows[i][j] = v
            rows[j][i] = -v
    return Matrix([[rows[a][b] for b in order] for a in order])


def _even(rk: int) -> int:
    if rk % 2:
        raise AssertionError("skew-symmetric matrices have even rank; elimination bug")
    return rk


def tensor_at(L_or_S, xi, parameter=None) -> PoissonTensorSample:
    """Poisson tensor pi(xi)[a][b] = xi([x_a, x_b]), exact rank included.

    When a splitting is passed, rows/columns follow its adapted order
    (h block first) and the off-diagonal block A gets its own rank
    (dim of the h-orbit of xi when xi kills h).
    """
    parameter = None if parameter is None else BracketParameter.of(parameter)
    if isinstance(L_or_S, Decomposition):
        S = L_or_S
        L = S.algebra if parameter is None else pencil_member(S, parameter)
        order = S.order
    else:
        S = None
        L = L_or_S
        if parameter is not None:
            raise ValueError("a pencil parameter needs a splitting")
        order = tuple(range(L.dim))
    xi = [scalar(x, "the point") for x in xi]
    if len(xi) != L.dim:
        raise ValueError("point length must equal dim")
    mat = _tensor_matrix(L, xi, order)
    rk = _even(rank(mat))
    block_a_rank = None
    if S is not None:
        nh = S.dim_h
        block_a_rank = rank(Matrix([row[nh:] for row in mat.rows[:nh]]))
    return PoissonTensorSample(tuple(xi), parameter, mat, rk, order, block_a_rank)


@dataclass
class IndexEstimate:
    """dim - certified_max_rank, where certified_max_rank is the best rank of pi at the
    sampled points taken modulo 2^61 - 1: a lower bound on the exact rank of pi at the
    witness, so claimed_index is an upper bound on the index."""
    claimed_index: int
    certified_max_rank: int
    samples: int
    seed: int
    b_value: object
    witness: tuple = field(repr=False, default=())

    def as_dict(self):
        return {
            "claimed_index": self.claimed_index,
            "certified_max_rank": self.certified_max_rank,
            "samples": self.samples,
            "seed": self.seed,
            "b_value": qq_str(self.b_value),
            "witness": [qq_str(x) for x in self.witness],
        }


def _sample_point(rng, dim, bound, support=None):
    if support is None:
        return [rng.randint(-bound, bound) for _ in range(dim)]
    xi = [0] * dim
    for i in support:
        xi[i] = rng.randint(-bound, bound)
    return xi


def index_estimate(L: LieAlgebra, trials: int = 8, seed: int = 0,
                   bound: int = DEFAULT_BOUND) -> IndexEstimate:
    """dim - (max sampled rank of pi(xi) mod 2^61 - 1); an upper bound on the index,
    claimed exact."""
    if trials < 1:
        raise ValueError("trials >= 1 required")
    rng = random.Random(seed)
    best_rank = 0
    witness: tuple = ()
    for _ in range(trials):
        xi = _sample_point(rng, L.dim, bound)
        rk = _even(rank_mod_p(_tensor_matrix(L, xi, range(L.dim))))
        if rk > best_rank:
            best_rank = rk
            witness = tuple(xi)
    claimed = L.dim - best_rank
    return IndexEstimate(claimed, best_rank, trials, seed, QQ(L.dim + claimed, 2), witness)


def regular_point_check(L: LieAlgebra, xi, estimate: IndexEstimate | None = None,
                        trials: int = 8, seed: int = 0) -> bool:
    """True iff dim ker pi(xi) equals the (cached or freshly claimed) index."""
    if estimate is None:
        estimate = index_estimate(L, trials=trials, seed=seed)
    sample = tensor_at(L, xi)
    return L.dim - sample.rank == estimate.claimed_index


@dataclass
class StabilizerReport:
    h_indices: tuple
    sample_point: tuple
    stabilizer_basis: list
    dim_star: int
    index_star: IndexEstimate
    stabilizer_constants_zero: bool
    subalgebra: LieAlgebra

    @property
    def is_abelian(self):
        return self.stabilizer_constants_zero


def generic_stabilizer(L: LieAlgebra, h_indices, trials: int = 8, seed: int = 0,
                       bound: int = 997) -> StabilizerReport:
    """Stabilizer in h of a generic point of Ann(h) under the h-action on (q/h)*.

    h must span a subalgebra.  For xi in Ann(h) the stabilizer is
    {x in h : xi([x, y]) = 0 for all y in q}; the best (smallest) witness
    over the sampled points is kept, and the stabilizer is returned as an
    abstract algebra with restricted structure constants.
    """
    h_indices = tuple(h_indices)
    hs = set(h_indices)
    r_support = [i for i in range(L.dim) if i not in hs]
    esc = escaping_bracket(L, h_indices)
    if esc:
        i, j, _ = esc
        raise ValueError(f"indices {list(h_indices)} do not span a subalgebra: "
                         f"[{L.names[i]}, {L.names[j]}] leaves the span")
    rng = random.Random(seed)
    best = None
    # Ann(h) = 0 only when h is everything; the definition then collapses to
    # the stabilizer of a generic point of the full dual.
    support = r_support if r_support else None
    for _ in range(max(1, trials)):
        xi = _sample_point(rng, L.dim, bound, support=support)
        rows = []
        for y in range(L.dim):
            row = []
            for x in h_indices:
                br = L.bracket_pair(x, y)
                row.append(sum(c * xi[k] for k, c in br.items() if xi[k]))
            rows.append(row)
        _, basis = rank_and_nullspace(Matrix(rows))
        if best is None or len(basis) < len(best[1]):
            best = (tuple(xi), basis)
    xi, basis = best
    dim_star = len(basis)
    # structure constants of the stabilizer in its own basis
    full_basis = []
    for v in basis:
        w = [0] * L.dim
        for pos, i in enumerate(h_indices):
            w[i] = v[pos]
        full_basis.append(w)
    constants = {}
    all_zero = True
    for a in range(dim_star):
        for b in range(a + 1, dim_star):
            w = L.bracket_vec(full_basis[a], full_basis[b])
            if not w:
                continue
            # must lie in the span of the stabilizer (it is a subalgebra)
            target = [w.get(i, 0) for i in range(L.dim)]
            coeffs = solve(Matrix.from_columns(full_basis), target) if full_basis else None
            if coeffs is None:
                raise AssertionError(
                    "sampled stabilizer failed to close under the bracket; sampling bug"
                )
            entries = tuple((k, c) for k, c in enumerate(coeffs) if c)
            if entries:
                constants[(a, b)] = entries
                all_zero = False
    names = [f"s{k + 1}" for k in range(dim_star)]
    stab = LieAlgebra(names, constants, kind="stabilizer")
    idx = index_estimate(stab, trials=max(1, trials), seed=seed + 1, bound=bound) if dim_star \
        else IndexEstimate(0, 0, 0, seed, QQ(0))
    return StabilizerReport(h_indices, xi, basis, dim_star, idx, all_zero, stab)


@dataclass
class SphericityReport:
    s0: int
    s_inf: int
    r_gh: int
    r_gr: int
    c_gh: object
    c_gr: object
    rank: int
    verdicts: dict
    h_star: StabilizerReport
    r_star: StabilizerReport
    ind_contraction_h: int
    ind_contraction_r: int


def sphericity(S: Splitting, trials: int = 8, seed: int = 0) -> SphericityReport:
    """Rosenlicht-style invariants s0, s_inf plus rank/complexity bookkeeping.

    Uses s0 = dim Ann(h) - dim h + dim h_star and ind h_star = rank - r(G/H);
    the inequality s0 + s_inf >= rank is a theorem and is enforced loudly.
    """
    L = S.algebra
    if L.rank is None:
        raise ValueError("sphericity needs a reductive builder algebra (known rank)")
    ell = L.rank
    h_star = generic_stabilizer(L, S.h_indices, trials=trials, seed=seed)
    r_star = generic_stabilizer(L, S.r_indices, trials=trials, seed=seed + 17)
    s0 = (L.dim - S.dim_h) - S.dim_h + h_star.dim_star
    s_inf = (L.dim - S.dim_r) - S.dim_r + r_star.dim_star
    if s0 + s_inf < ell:
        raise AssertionError(
            f"s0 + s_inf = {s0 + s_inf} < rank {ell}: violates a theorem, implementation bug"
        )
    r_gh = ell - h_star.index_star.claimed_index
    r_gr = ell - r_star.index_star.claimed_index
    c_gh = QQ(s0 - r_gh, 2)
    c_gr = QQ(s_inf - r_gr, 2)
    for name, c in (("c(G/H)", c_gh), ("c(G/R)", c_gr)):
        if c.denominator != 1 or c < 0:
            raise AssertionError(f"{name} = {c} is not a nonnegative integer; bug detector")
    ind0 = index_estimate(contract(S, "keep_h"), trials=max(5, trials), seed=seed + 3)
    indinf = index_estimate(contract(S, "keep_r"), trials=max(5, trials), seed=seed + 4)
    verdicts = {
        "sum_equals_rank": s0 + s_inf == ell,
        "nondegenerate": ind0.claimed_index == ell and indinf.claimed_index == ell,
        "h_star_abelian": h_star.is_abelian,
        "r_star_abelian": r_star.is_abelian,
    }
    return SphericityReport(s0, s_inf, r_gh, r_gr, c_gh, c_gr, ell, verdicts,
                            h_star, r_star, ind0.claimed_index, indinf.claimed_index)
