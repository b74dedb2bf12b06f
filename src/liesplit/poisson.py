"""Lie-Poisson brackets, Poisson tensors at points, and sampled invariants.

Brackets, fields, tensors and stabilizers read the int table
``LieAlgebra.bracket_table`` (constants scaled by D): D pi(xi) has the ranks
and kernels of pi(xi), and ``tensor_at`` divides it once by D.  One helper,
``_tensor_entries``, reads the strict upper triangle of D pi(xi) off the
stored pairs i < j; the tensors are built from it.  Fields and brackets bound exponents by
one OR of each argument's keys, under the one carry rule ``_kernels._carry_free``.

Genericity is probabilistic throughout: a "generic" point is the best witness
over seed-deterministic uniform integer samples, all drawn by ``linalg._best_rank``.
Every sampled rank is a certificate, so claimed indices are always upper bounds on
the true index.  The draws stop at a ceiling no rank can pass; the tensor's is
``_ceiling``, dim - ``LieAlgebra.index_floor`` rounded down to even, the floor
being the lower bound on the index that the algebra's construction proves (its
rank for a reductive builder algebra, inherited by rebuilds, contractions and
pencil members), so an estimate that meets its floor proves the index.  The
index estimate stores its witness and the stabilizer report its ``sample_point``,
for replay.  Ranks are taken modulo the one-digit prime ``linalg.P`` by skew
2 x 2 pivots on that upper triangle (``linalg.skew_rank_mod_p``),
with no full matrix and no lower triangle: a lower bound on the exact rank.  An
exact rank (``tensor_at``'s, and the stabilizer's ``dim_star``) is the rank mod P
when that meets the proven ceiling, the upper bound, and else comes from exact
elimination (``linalg.rank``, ``linalg.rank_and_nullspace``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from . import _kernels as K
from .liealg import LieAlgebra, _bracket, subalgebra_indices
from .linalg import (Matrix, _best_rank, _check_ceiling, rank, rank_and_nullspace,
                     skew_rank_mod_p, solve_many)
from .poly import Polynomial
from .rationals import QQ, _check_length, qq_str, scalar
from .splitting import Decomposition, contract

DEFAULT_BOUND = 10**6


def _field_terms(L: LieAlgebra, F: Polynomial, targets, bound: int):
    """Yield (j, int terms of D_L den_F {F, x_j}) for j in ``targets`` (distinct), D_L from
    ``LieAlgebra.poisson_columns``, on F's kept partials (``Polynomial.partials``); with
    ``bound``, the OR of F's keys, and one linear factor carry-free no product is tested."""
    n = L.dim
    _check_length("F", F.nvars, n, "variables")
    columns = L.poisson_columns[1]
    dF = F.partials()
    mul = K.mul_add_terms if K._carry_free(n, (bound,), 1) else K.mul_terms
    for j in targets:
        V: dict = {}
        for i, lin in columns[j]:
            if i in dF:
                mul(lin, dF[i], n, V)
        yield j, {e: c for e, c in V.items() if c}


def hamiltonian_field(L: LieAlgebra, F: Polynomial):
    """Yield (j, V_j) with V_j = {F, x_j} = sum_i pi_ij dF/dx_i and pi_ij = sum_k c_ij^k x_k,
    for every coordinate x_j, on F's kept partials; F is invariant when every V_j = 0."""
    den = L.poisson_columns[0] * F.den
    for j, V in _field_terms(L, F, range(L.dim), reduce(or_, F.terms, 0)):
        yield j, Polynomial._of(L.dim, V, den)


def poisson_bracket(L: LieAlgebra, F: Polynomial, G: Polynomial) -> Polynomial:
    """{F, G} = sum_j {F, x_j} dG/dx_j, over the coordinates G depends on, in integers
    divided once by D_L den_F den_G; both read their kept partials.

    On a contraction (``L.kept_block``) the argument of lower degree in the kept block
    takes the Hamiltonian field, and {F, G} = -{G, F} when that is G.  By the Lenard-Magri
    recursion of the pencil, {F_i, .}_keep_h = -{F_(i-1), .}_keep_r on the bi-components
    F_i of an invariant, and its extreme components are Casimirs of their own contraction,
    so the field of the lower one is the smaller, and zero for a Casimir: on the sl(5)
    splitting of case sl2n1, a pair of 269 and 55 terms takes 3,536 term products at
    keep_h where the other order takes 32,884 (degrees by ``Polynomial._degrees``).  The
    products V_j dG_j run untested when the ORs of F's and G's keys and one linear factor do."""
    n = L.dim
    _check_length("G", G.nvars, n, "variables")
    _check_length("F", F.nvars, n, "variables")
    sign, kept = 1, L.kept_block
    if kept is not None and max(G._degrees(kept), default=-1) < max(F._degrees(kept), default=-1):
        F, G, sign = G, F, -1
    dG, bound = G.partials(), reduce(or_, F.terms, 0)
    mul = K.mul_add_terms if K._carry_free(n, (bound, reduce(or_, G.terms, 0)), 1) else K.mul_terms
    acc: dict = {}
    for j, V in _field_terms(L, F, dG, bound):
        if V:
            mul(V, dG[j], n, acc)
    return Polynomial._of(n, {e: sign * c for e, c in acc.items() if c},
                          L.poisson_columns[0] * F.den * G.den)


@dataclass
class PoissonTensorSample:
    matrix: Matrix
    rank: int


def _tensor_entries(L: LieAlgebra, xi):
    """Yield (i, j, D xi([x_i, x_j])) for the pairs i < j with a stored bracket and a
    nonzero value, (D, T) = ``L.bracket_table``: the strict upper triangle of D pi(xi)."""
    T = L.bracket_table[1]
    for i, j in L.constants:
        v = 0
        for k, c in T[i][j]:
            v += c * xi[k]
        if v:
            yield i, j, v


def _tensor_matrix(L: LieAlgebra, xi) -> Matrix:
    """D pi(xi) for exact ``xi``, from :func:`_tensor_entries`; all ints for an int ``xi``."""
    n = L.dim
    rows = [[0] * n for _ in range(n)]
    for i, j, v in _tensor_entries(L, xi):
        rows[i][j] = v
        rows[j][i] = -v
    return Matrix(rows)


def _rank_mod_p(L: LieAlgebra, xi, h=None) -> int:
    """Rank modulo ``linalg.P`` of D pi(xi) at an int point, or with a set ``h`` of its
    entries that meet h, from :func:`_tensor_entries` straight into ``skew_rank_mod_p``."""
    upper = [{} for _ in range(L.dim)]
    for i, j, v in _tensor_entries(L, xi):
        if h is None or i in h or j in h:
            upper[i][j] = v
    return skew_rank_mod_p(upper)


def _ceiling(L: LieAlgebra) -> int:
    """Every rank of pi, mod P or exact, is even and at most dim - ind <= dim - index_floor."""
    return (L.dim - L.index_floor) // 2 * 2


def _tensor_rank(L: LieAlgebra, xi, mat=None) -> int:
    """The exact rank of pi(xi): its rank mod P at an int point when that meets the
    :func:`_ceiling` (a rank mod P bounds it from below, the generic rank from above),
    else the elimination of ``mat`` = D pi(xi), built when not given."""
    if all(type(x) is int for x in xi):
        rk = _rank_mod_p(L, xi)
        _check_ceiling(rk, cap := _ceiling(L), "the rank modulo P")
        if rk == cap:
            return rk
    rk = rank(_tensor_matrix(L, xi) if mat is None else mat)
    if rk % 2:
        raise AssertionError("skew-symmetric matrices have even rank; elimination bug")
    return rk


def tensor_at(L: LieAlgebra, xi) -> PoissonTensorSample:
    """Poisson tensor pi(xi)[a][b] = xi([x_a, x_b]) of ``L`` and its exact rank, from
    :func:`_tensor_rank`; a pencil member is ``splitting.pencil_member``'s algebra, and the
    h-orbit dimension of a point of Ann(h) is dim h - ``generic_stabilizer``'s ``dim_star``."""
    xi = [scalar(x, "the point") for x in xi]
    _check_length("point", len(xi), L.dim, "coordinates")
    mat = _tensor_matrix(L, xi)
    rk = _tensor_rank(L, xi, mat)
    D = L.bracket_table[0]
    if D > 1:  # the exact tensor pi(xi)
        mat = Matrix([[x // D if x % D == 0 else QQ(x, D) for x in row] for row in mat.rows])
    return PoissonTensorSample(mat, rk)


@dataclass
class IndexEstimate:
    """dim - certified_max_rank, where certified_max_rank is the best rank of pi at the
    sampled points taken modulo the prime ``linalg.P`` = 2^30 - 35: a lower bound on the
    exact rank of pi at the witness, so claimed_index is an upper bound on the index.
    The skew elimination adds 2 per pivot, so the rank is even by construction.
    ``samples`` is the ``trials`` budget, not the points drawn: the draws stop at the first
    point whose rank meets ``_ceiling``, so sl(2) and so(8) draw once and report 8 at the
    default.  A claimed index equal to ``index_floor`` is exact: the floor bounds it below."""
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


def index_estimate(L: LieAlgebra, trials: int = 8, seed: int = 0,
                   bound: int = DEFAULT_BOUND) -> IndexEstimate:
    """dim - (max sampled rank of pi(xi) mod ``linalg.P``); an upper bound on the index,
    claimed exact.  The draws stop at the :func:`_ceiling`, which no later point passes."""
    best, witness = _best_rank(lambda xi: _rank_mod_p(L, xi), L.dim, _ceiling(L), trials,
                               seed, bound)
    claimed = L.dim - best
    return IndexEstimate(claimed, best, trials, seed, QQ(L.dim + claimed, 2), witness)


@dataclass
class StabilizerReport:
    """The stabilizer in h of the sampled point ``sample_point`` of Ann(h).

    ``sample_point`` is the first sample whose h columns have the largest rank mod P, and
    ``dim_star`` the exact kernel dimension there, by elimination: an upper bound on the
    dimension of the generic stabilizer (the kernel can only grow on special points),
    which is the side it certifies."""
    h_indices: tuple
    sample_point: tuple
    stabilizer_basis: list
    dim_star: int
    index_star: IndexEstimate
    is_abelian: bool          # the stabilizer's structure constants all vanish
    subalgebra: LieAlgebra


def generic_stabilizer(L: LieAlgebra, h_indices, trials: int = 8, seed: int = 0,
                       bound: int = 997) -> StabilizerReport:
    """Stabilizer in h of a generic point of Ann(h) under the h-action on (q/h)*.

    h must pass ``subalgebra_indices``.  For xi in Ann(h) the stabilizer is
    {x in h : xi([x, y]) = 0 for all y in q}, the kernel of the h columns of D pi(xi),
    ranked mod P from ``_tensor_entries`` at each sample (see ``StabilizerReport``); the
    stabilizer is returned as an abstract algebra with restricted structure constants.

    For h != q the draws stop at the proven ceiling min(|h|, dim - |h|, (dim -
    ``index_floor``) // 2) on that rank: xi vanishes on [h, h], so D pi(xi) is [[0, -B^T],
    [B, C]] with B its rows off h in the h columns, [[0, -B^T], [B, 0]] (the entries that
    meet h) has rank 2 rank B, and a nonsingular k x k minor B0 of B makes a principal
    minor det(B0)^2 of pi(xi), so 2 k <= dim - ``index_floor``.  For h = q the h columns
    are all of D pi(xi), under ``index_estimate``'s ceiling.
    """
    h_indices = subalgebra_indices(L, h_indices, "h")
    # Ann(h) = 0 only when h is everything; the definition then collapses to
    # the stabilizer of a generic point of the full dual.
    support = [i for i in range(L.dim) if i not in h_indices] or None
    h, full = set(h_indices), _ceiling(L)
    cap = full if support is None else min(len(h), L.dim - len(h), full // 2)

    def rank_at(xi):
        return _rank_mod_p(L, xi) if support is None else _rank_mod_p(L, xi, h) // 2

    _, xi = _best_rank(rank_at, L.dim, cap, trials, seed, bound, support)
    # the h columns of D pi(xi): x in h is in the kernel iff xi([x, y]) = 0 for all y
    _, basis = rank_and_nullspace(Matrix([[row[x] for x in h_indices]
                                          for row in _tensor_matrix(L, xi).rows]))
    dim_star = len(basis)
    # structure constants of the stabilizer in its own basis, one solve for all brackets
    full_basis = [{i: c for i, c in zip(h_indices, v) if c} for v in basis]
    brackets = {(a, b): w for a in range(dim_star) for b in range(a + 1, dim_star)
                if (w := _bracket(L.constants, full_basis[a].items(), full_basis[b].items()))}
    constants = {}
    if brackets:
        # each bracket must lie in the span of the stabilizer (it is a subalgebra)
        coeffs = solve_many(Matrix([[v.get(i, 0) for v in full_basis] for i in range(L.dim)]),
                            [[w.get(i, 0) for i in range(L.dim)] for w in brackets.values()])
        if coeffs is None:
            raise AssertionError(
                "sampled stabilizer failed to close under the bracket; sampling bug"
            )
        constants = {pair: tuple((k, c) for k, c in enumerate(col) if c)
                     for pair, col in zip(brackets, coeffs)}
    names = [f"s{k + 1}" for k in range(dim_star)]
    stab = LieAlgebra(names, constants, kind="stabilizer")
    idx = index_estimate(stab, trials=trials, seed=seed + 1, bound=bound)
    return StabilizerReport(h_indices, xi, basis, dim_star, idx, not constants, stab)


@dataclass
class SphericityReport:
    s0: int
    s_inf: int
    c_gh: object
    c_gr: object
    rank: int
    verdicts: dict


def sphericity(S: Decomposition, trials: int = 8, seed: int = 0) -> SphericityReport:
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
    # c(G/H) = (s0 - r(G/H)) / 2 with r(G/H) = rank - ind h_star; the same for G/R
    c_gh = QQ(s0 - ell + h_star.index_star.claimed_index, 2)
    c_gr = QQ(s_inf - ell + r_star.index_star.claimed_index, 2)
    for name, c in (("c(G/H)", c_gh), ("c(G/R)", c_gr)):
        if c.denominator != 1 or c < 0:
            raise AssertionError(f"{name} = {c} is not a nonnegative integer; bug detector")
    ind0 = index_estimate(contract(S, "keep_h"), trials=max(5, trials), seed=seed + 3)
    indinf = index_estimate(contract(S, "keep_r"), trials=max(5, trials), seed=seed + 4)
    verdicts = {
        "sum_equals_rank": s0 + s_inf == ell,
        "nondegenerate": ind0.claimed_index == ell and indinf.claimed_index == ell,
    }
    return SphericityReport(s0, s_inf, c_gh, c_gr, ell, verdicts)
