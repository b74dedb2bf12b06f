"""Lie algebras from exact structure constants, and the standard builders.

Structure constants are stored sparsely for basis pairs i < j, under the
scalar rule of ``rationals`` (a float constant raises ``TypeError`` naming
its bracket); the bracket extends by antisymmetry.  Outside constants (a user's,
``algebra_from_json``, ``sub_algebra``, stabilizers) enter through ``LieAlgebra(names,
constants, kind)``: it names a malformed name, key or bracket and runs an exhaustive
Jacobi check over all basis triples.  ``LieAlgebra._derived`` builds, unchecked, an
algebra with the facts its construction proves (index floor, rank, triangular data,
realization, Gram matrix, the kept block of a contraction): the builders (``_assemble``
proves them Lie by their realization, and ``build_double`` adds central xi's),
``change_basis`` (it checks a bracket isomorphism), ``splitting.contract`` (an
Inonu-Wigner contraction of a Lie algebra is Lie, see its docstring) and
``splitting.family_bracket``: a pencil member a*[,]_0 + b*[,]_inf has a Jacobiator
quadratic in (a, b), so the pencil is Lie once (1,0), (0,1) and (1,1) are; its Poisson
bracket is linear in (a, b), {F, G}_(a,b) = a{F, G}_0 + b{F, G}_inf, so commutativity
is decided at (1,0) and (0,1) (see its docstring).

One cached int table per algebra, ``LieAlgebra.bracket_table`` (every [x_a, x_b]
scaled by the common denominator D of the constants), serves the Jacobi check,
the Poisson columns, tensors and stabilizers of ``poisson`` and the centre.
One cached certificate per algebra, ``LieAlgebra.realization_certificate``,
checks that the realization is a homomorphism and the Gram matrix a nondegenerate
invariant form; ``invariants.hilbert_basis`` proves its builder bases invariant by it.

``LieAlgebra.index_floor`` is the lower bound on the index that an algebra's
construction proves, and ``poisson.index_estimate`` stops sampling once a rank meets
the ceiling dim - index_floor.  A reductive builder algebra and its double carry their
rank (ind = rk for reductive algebras); a ``change_basis`` rebuild, an isomorphism,
keeps the floor of the algebra it rewrites, and so do the contractions and pencil
members of ``splitting`` (the index can only grow under a contraction).  The public
constructor proves floor 0 (custom, JSON-loaded, ``sub_algebra``, stabilizers).

Builders produce gl(n), sl(n), so(2n) in the antidiagonal realization
(matrices skew with respect to the antidiagonal, so the Cartan is
diagonal and the nilradical strictly upper triangular) and the
reductive extension q + t with an abelian copy of the Cartan appended.  A matrix builder supplies only its basis matrices in (u+, t, u-)
order and how a commutator decomposes in that basis; one routine,
``_assemble``, derives the rest: structure constants, the invariant-form
Gram matrix (the trace form, halved for so(2n)) used to identify the
algebra with its dual, and triangular data (root labels and the restriction
of the form to the Cartan), read by ``_triangular`` as for the double and
the horospherical rebuilds.  Each builder checks its own size, and the matrix
size N of an algebra is read off its realization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence

from .linalg import Matrix, inverse, rank
from .poly import _unit
from .rationals import (QQ, _check_length, _check_size, _indices, _is_int,
                        clear_denominators, combine, common_denominator, exact, scalar)


class JacobiError(ValueError):
    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"Jacobi identity fails on basis triple {triple}")


@dataclass
class JacobiReport:
    passed: bool
    first_violation: tuple | None


@dataclass
class TriangularData:
    plus: tuple
    cartan: tuple
    minus: tuple
    root_labels: dict          # root-vector index -> tuple of values on the Cartan basis
    cartan_form: Matrix        # Gram matrix of the invariant form restricted to the Cartan


@dataclass
class RealizationCertificate:
    """Whether rho (``realization``) is a homomorphism and G (``gram``) a nondegenerate
    invariant form; ``failure`` names the first fact that fails (None when ``passed``)."""
    passed: bool
    failure: str | None


class LieAlgebra:
    # facts only a construction proves, set by ``_derived`` (see the module docstring)
    rank = triangular = realization = matrix_size = gram = base_algebra = base_change = None
    kept_block = None  # on a contraction, the basis indices of the subalgebra it keeps

    def __init__(self, names, constants, kind="custom"):
        """The algebra of outside structure constants {(i, j): [(k, c_ij^k), ...]}, i < j,
        on ``names``, a list or tuple of distinct strings, one per basis vector; each entry
        checked, then the exhaustive Jacobi sweep; its index floor is 0."""
        self.names, self.kind = _names(names), kind
        self.dim = n = len(self.names)
        if not isinstance(constants, dict):
            raise ValueError(f"constants must be a dict, got a {type(constants).__name__}")
        self.constants = {}  # zeros and empty brackets dropped, scalars under the scalar rule
        for key, entries in constants.items():
            if not (isinstance(key, tuple) and len(key) == 2 and all(map(_is_int, key))
                    and 0 <= key[0] < key[1] < n):
                raise ValueError(f"constants must be indexed by pairs i<j, got {key!r}")
            where = f"bracket [{key[0]}, {key[1]}]"
            if not (isinstance(entries, (list, tuple)) and all(
                    isinstance(e, (list, tuple)) and len(e) == 2 for e in entries)):
                raise ValueError(f"{where}: {entries!r} is not a list of (target, coeff) pairs")
            _indices(f"{where}: target", [k for k, _ in entries], n, "basis index")
            if kept := tuple((k, x) for k, c in entries if (x := scalar(c, where))):
                self.constants[key] = kept
        self.index_floor = 0  # a proven lower bound on the index, see the module docstring
        if not (report := jacobi_report(n, self.constants)).passed:
            raise JacobiError(report.first_violation)

    @classmethod
    def _derived(cls, names, constants, kind, *, index_floor, rank=None, triangular=None,
                 realization=None, gram=None, base_algebra=None, base_change=None,
                 kept_block=None):
        """The algebra of ``constants`` stored as ``__init__`` stores them, unchecked: its
        caller proves it Lie, and ``index_floor`` and the facts given."""
        L = cls.__new__(cls)
        L.names = tuple(names)
        L.dim, L.constants, L.kind, L.index_floor = len(L.names), constants, kind, index_floor
        L.rank, L.triangular, L.gram = rank, triangular, gram
        L.base_algebra, L.base_change, L.realization = base_algebra, base_change, realization
        L.kept_block = kept_block
        if realization is not None:  # N x N matrices: 1 + the largest index
            L.matrix_size = 1 + max((max(p) for m in realization for p in m), default=-1)
        return L

    # -- bracket ------------------------------------------------------
    def bracket_pair(self, i, j):
        """[x_i, x_j] as a sparse dict k -> coefficient."""
        return _pair(self.constants, i, j)

    @cached_property
    def bracket_table(self) -> tuple:
        """(D, T): D is the least positive int making every structure constant integral and
        T[a][b] holds [x_a, x_b] as (k, D c_ab^k) int pairs, for every ordered pair."""
        return _int_table(self.dim, self.constants)

    @cached_property
    def realization_certificate(self) -> RealizationCertificate:
        """rho[e_a, e_b] = sum_k c_ab^k rho(e_k) for every a < b, and G symmetric and
        nondegenerate with G ad(e_a) skew for every a, checked once from this algebra's own
        fields.  Then Y(x) = rho(G^-1 x) is equivariant, so every conjugation-invariant
        function of Y is an invariant of the algebra."""
        return _certify_realization(self)

    @cached_property
    def poisson_columns(self) -> tuple:
        """(D, columns): columns[j] lists the (i, lin) with lin the int terms of
        D pi_ij = D sum_k c_ij^k x_k, for the Lie-Poisson tensor pi, read off ``bracket_table``."""
        D, T = self.bracket_table
        n = self.dim
        return D, [[(i, {_unit(n, k): c for k, c in T[i][j]}) for i in range(n) if T[i][j]]
                   for j in range(n)]

    def __repr__(self):
        return f"LieAlgebra({self.kind}, dim={self.dim})"


def _names(names) -> tuple:
    """``tuple(names)`` for a list or tuple of distinct strings, else a ``ValueError``."""
    if not isinstance(names, (list, tuple)):
        raise ValueError(f"names must be a list or tuple of strings, got {names!r}")
    first: dict = {}  # name -> its first index
    for i, x in enumerate(names):
        if not isinstance(x, str):
            raise ValueError(f"name {i} is {x!r}, not a string")
        if first.setdefault(x, i) != i:
            raise ValueError(f"name {i} {x!r} repeats name {first[x]}")
    return tuple(names)


def _pair(constants, i, j):
    """[x_i, x_j] read off constants stored for pairs i < j, as a dict k -> coefficient."""
    if i < j:
        return dict(constants.get((i, j), ()))
    return {k: -c for k, c in constants.get((j, i), ())}


def _bracket(constants, u, v):
    """Bracket of two vectors given as (index, exact coefficient) pairs, as a sparse dict."""
    return combine({}, ((_pair(constants, i, j), a * b) for i, a in u for j, b in v))


def _int_table(dim, constants) -> tuple:
    """The ``LieAlgebra.bracket_table`` of the constants stored for pairs i < j."""
    D = common_denominator(c for entries in constants.values() for _, c in entries)
    T = [[()] * dim for _ in range(dim)]
    for (i, j), entries in constants.items():
        if i < j:
            T[i][j] = tuple((k, c.numerator * (D // c.denominator)) for k, c in entries)
            T[j][i] = tuple((k, -c) for k, c in T[i][j])
    return D, T


def jacobi_report(dim, constants) -> JacobiReport:
    """Exhaustive Jacobi check over all basis triples i < j < k, in lexicographic order,
    on the ``_int_table``: the Jacobiator is quadratic in the constants, so scaling
    them by D keeps its zeros."""
    _, table = _int_table(dim, constants)
    for i in range(dim):
        for j in range(i + 1, dim):
            cij = table[i][j]
            for k in range(j + 1, dim):
                acc = {}
                # [[x_i,x_j],x_k] + [[x_j,x_k],x_i] + [[x_k,x_i],x_j]
                for idx, inner in ((k, cij), (i, table[j][k]), (j, table[k][i])):
                    for m, c in inner:
                        for t, d in table[m][idx]:
                            acc[t] = acc.get(t, 0) + c * d
                if any(acc.values()):
                    return JacobiReport(False, (i, j, k))
    return JacobiReport(True, None)


# -- matrix-realization helpers ---------------------------------------


def _commutators(mats):
    """(i, j, [mats[i], mats[j]]) for every pair i < j of sparse matrices {(r, c): coeff}: each
    matrix is indexed by row once, and both products of a pair accumulate into one dict."""
    rows = [{} for _ in mats]
    for m, by_row in zip(mats, rows):
        for (r, c), v in m.items():
            by_row.setdefault(r, []).append((c, v))
    for i, j in combinations(range(len(mats)), 2):
        out = {}
        for x, by_row, sign in ((mats[i], rows[j], 1), (mats[j], rows[i], -1)):
            for (r, c), v in x.items():
                v *= sign
                for c2, w in by_row.get(c, ()):
                    out[r, c2] = out.get((r, c2), 0) + v * w
        yield i, j, {k: exact(v) for k, v in out.items() if v}


def _certify_realization(L: LieAlgebra) -> RealizationCertificate:
    """The ``LieAlgebra.realization_certificate``: the homomorphism on the sparse matrices,
    then the form on the int ``bracket_table`` against the sparse rows of D_G G."""
    rho, n = L.realization, L.dim
    if rho is None or L.gram is None:
        return RealizationCertificate(False, f"{L.kind} carries no complete matrix "
                                             "realization and Gram matrix")
    for a, b, comm in _commutators(rho):
        if comm != combine({}, ((rho[k], c) for k, c in L.constants.get((a, b), ()))):
            return RealizationCertificate(False, "the realization is no homomorphism on "
                                                 f"[{L.names[a]}, {L.names[b]}]")
    _, ints = clear_denominators(x for row in L.gram.rows for x in row)
    G = [{c: v for c, v in enumerate(ints[r * n:(r + 1) * n]) if v} for r in range(n)]
    for r in range(n):
        for c, v in G[r].items():
            if G[c].get(r) != v:
                return RealizationCertificate(False, "the Gram matrix is not symmetric at "
                                                     f"({L.names[r]}, {L.names[c]})")
    for a, row in enumerate(L.bracket_table[1]):
        # U[b][c] = D D_G B([e_a, e_b], e_c); invariance is U skew
        U = [combine({}, ((G[k], c) for k, c in row[b])) for b in range(n)]
        for b in range(n):
            for c, v in U[b].items():
                if U[c].get(b, 0) != -v:
                    return RealizationCertificate(False, "the Gram matrix is not ad-invariant: "
                                                         f"G ad({L.names[a]}) is not skew")
    if rank(L.gram) < n:
        return RealizationCertificate(False, "the Gram matrix is degenerate")
    return RealizationCertificate(True, None)


def _triangular(constants, plus, cartan, minus, gram) -> TriangularData:
    """Root labels read off the constants (the Cartan must act diagonally on u+ and u-) and
    the Cartan block of ``gram``."""
    plus, cartan, minus = tuple(plus), tuple(cartan), tuple(minus)
    labels = {}
    for r in plus + minus:
        vals = []
        for c in cartan:
            br = _pair(constants, c, r)
            if any(k != r for k in br):
                raise ValueError(f"Cartan element {c} does not act diagonally on root vector {r}")
            vals.append(br.get(r, 0))
        labels[r] = tuple(vals)
    cf = Matrix([[gram[a, b] for b in cartan] for a in cartan])
    return TriangularData(plus, cartan, minus, labels, cf)


def _assemble(mats, names, decompose, ell, kind, half=False) -> LieAlgebra:
    """The algebra of the basis matrices ``mats``, listed as (u+, Cartan of size ``ell``, u-)
    with u+ and u- of equal size: the constants of [mats[i], mats[j]] as ``decompose`` writes
    a matrix in the basis, the trace form (half of it when ``half``) as Gram matrix, the
    triangular data, and the realization, of rank ``ell``.  It is Lie with no Jacobi sweep:
    e_i -> mats[i] is injective (each matrix holds a cell no earlier one holds) and the
    constants recombine to every commutator, so it embeds the algebra in gl(N)."""
    n = len(mats)
    by_cell = {}  # (c, r) -> the (b, M_b[r, c]) of the matrices holding cell (r, c)
    for b, (name, m) in enumerate(zip(names, mats)):
        if all((c, r) in by_cell for r, c in m):
            raise ValueError(f"{kind}: basis matrix {name} touches no entry new to the basis")
        for (r, c), y in m.items():
            by_cell.setdefault((c, r), []).append((b, y))
    constants = {}
    for i, j, comm in _commutators(mats):
        entries = tuple((k, c) for k, c in decompose(comm) if c)
        if combine({}, ((mats[k], c) for k, c in entries)) != comm:
            raise ValueError(f"{kind}: the constants of [{names[i]}, {names[j]}] do not "
                             "recombine to its commutator")
        if entries:
            constants[(i, j)] = entries
    g = [[0] * n for _ in range(n)]  # tr(M_a M_b) = sum of M_a[r, c] M_b[c, r]
    for a, m in enumerate(mats):
        for cell, x in m.items():
            for b, y in by_cell.get(cell, ()):
                g[a][b] += x * y
    gram = Matrix([[QQ(v, 2) if v % 2 else v // 2 for v in row] for row in g] if half else g)
    nplus = (n - ell) // 2
    tri = _triangular(constants, range(nplus), range(nplus, nplus + ell),
                      range(nplus + ell, n), gram)
    return LieAlgebra._derived(names, constants, kind, index_floor=ell,  # reductive: ind = rank
                               rank=ell, triangular=tri, realization=mats, gram=gram)


# -- builders ----------------------------------------------------------


def _ename(i, j, n):
    if n <= 9:
        return f"E{i + 1}{j + 1}"
    return f"E{i + 1}_{j + 1}"


def build_gl(n: int) -> LieAlgebra:
    _check_size("gl(n)", n, 1)
    order = (
        [(i, j) for i in range(n) for j in range(n) if i < j]
        + [(i, i) for i in range(n)]
        + [(i, j) for i in range(n) for j in range(n) if i > j]
    )
    pos = {p: a for a, p in enumerate(order)}

    def decompose(m):
        return [(pos[p], v) for p, v in m.items()]

    return _assemble([{p: 1} for p in order], [_ename(i, j, n) for (i, j) in order],
                     decompose, n, f"gl({n})")


def build_sl(n: int) -> LieAlgebra:
    _check_size("sl(n)", n, 2)
    uppers = [(i, j) for i in range(n) for j in range(n) if i < j]
    lowers = [(i, j) for i in range(n) for j in range(n) if i > j]
    mats = [{p: 1} for p in uppers]
    names = [_ename(i, j, n) for (i, j) in uppers]
    for k in range(n - 1):
        mats.append({(k, k): 1, (k + 1, k + 1): -1})
        names.append(f"h{k + 1}")
    mats.extend({p: 1} for p in lowers)
    names.extend(_ename(i, j, n) for (i, j) in lowers)
    nup = len(uppers)
    off_pos = {p: a for a, p in enumerate(uppers)}
    off_pos.update({p: nup + n - 1 + a for a, p in enumerate(lowers)})

    def decompose(m):
        out = [(off_pos[(r, c)], v) for (r, c), v in m.items() if r != c]
        # diagonal decomposes over h_k via partial sums
        run = 0
        for k in range(n - 1):
            run = run + m.get((k, k), 0)
            if run:
                out.append((nup + k, run))
        return out

    return _assemble(mats, names, decompose, n - 1, f"sl({n})")


def build_so_even(n: int) -> LieAlgebra:
    """so(2n), realized as matrices skew-symmetric about the antidiagonal."""
    _check_size("so(2n)", n, 2)
    size = 2 * n
    # orbit representatives (i, j) with i + j < size - 1; mirror of (i, j) is
    # (size-1-j, size-1-i) and the antidiagonal itself is forced to zero
    uppers = [(i, j) for i in range(size) for j in range(size) if i < j and i + j < size - 1]
    diag = [(i, i) for i in range(n)]
    lowers = [(i, j) for i in range(size) for j in range(size) if i > j and i + j < size - 1]
    order = uppers + diag + lowers
    pos = {p: a for a, p in enumerate(order)}
    mats = [{(i, j): 1, (size - 1 - j, size - 1 - i): -1} for (i, j) in order]
    names = [f"M{i + 1}{j + 1}" if size <= 9 else f"M{i + 1}_{j + 1}" for (i, j) in order]

    def decompose(m):
        return [(pos[p], v) for p, v in m.items() if p in pos]

    return _assemble(mats, names, decompose, n, f"so({size})", half=True)


def build_double(base: LieAlgebra) -> LieAlgebra:
    """The reductive extension: append an abelian copy of the Cartan.

    The appended generators xi_1..xi_l are central; the identification
    with the Cartan basis h_i -> xi_i is fixed once and used by the
    invariant constructions, and every Jacobiator is one of the base's.  The invariant form
    is the base's Gram matrix next to its Cartan form on the xi's.  The double carries no
    matrix realization: its invariants are lifts of the base's (``invariants.hilbert_basis``).
    """
    if base.triangular is None:  # with a rank and a Gram matrix, see ``LieAlgebra._derived``
        raise ValueError("the double needs a reductive builder algebra")
    tri = base.triangular
    ell = len(tri.cartan)
    dim = base.dim + ell
    rows = [list(row) + [0] * ell for row in base.gram.rows]
    rows += [[0] * base.dim + list(row) for row in tri.cartan_form.rows]
    gram = Matrix(rows)
    # the xi's bracket to zero with everything
    tri = _triangular(base.constants, tri.plus, tuple(tri.cartan) + tuple(range(base.dim, dim)),
                      tri.minus, gram)
    rk = base.rank + ell  # reductive as well: ind = rank
    return LieAlgebra._derived(list(base.names) + [f"xi{k + 1}" for k in range(ell)],
                               base.constants, f"double[{base.kind}]", index_floor=rk, rank=rk,
                               triangular=tri, gram=gram, base_algebra=base)


def _closure_gap(L: LieAlgebra, indices: tuple, label: str) -> str | None:
    """None if ``indices`` span a subalgebra of ``L``, else the first bracket leaving it."""
    seen = set(indices)
    T = L.bracket_table[1]
    for a, i in enumerate(indices):
        for j in indices[a + 1 :]:
            for k, _ in T[i][j]:
                if k not in seen:
                    return (f"{label} indices {list(indices)} do not span a subalgebra: "
                            f"[{L.names[i]}, {L.names[j]}] has a component on {L.names[k]}")
    return None


def subalgebra_indices(L: LieAlgebra, indices: Sequence[int], label: str) -> tuple:
    """``tuple(indices)`` if they are distinct basis indices spanning a subalgebra of ``L``;
    else a ``ValueError`` naming ``label`` and the first bad entry: an index outside
    range(L.dim), a repeated one, or the first bracket in pair order leaving the span."""
    indices = _indices(f"{label}:", indices, L.dim, "basis index")
    if gap := _closure_gap(L, indices, label):
        raise ValueError(gap)
    return indices


def sub_algebra(L: LieAlgebra, indices: Sequence[int]) -> LieAlgebra:
    """The subalgebra on basis indices that pass :func:`subalgebra_indices`, in their order."""
    indices = subalgebra_indices(L, indices, "sub_algebra")
    pos = {v: i for i, v in enumerate(indices)}
    constants = {}
    for a, i in enumerate(indices):
        for b in range(a + 1, len(indices)):
            entries = tuple((pos[k], c) for k, c in L.bracket_pair(i, indices[b]).items())
            if entries:
                constants[(a, b)] = entries
    return LieAlgebra([L.names[i] for i in indices], constants, kind=f"sub[{L.kind}]")


def change_basis(L: LieAlgebra, new_vectors, new_names, kind=None) -> LieAlgebra:
    """Rewrite the algebra in the basis given by ``new_vectors`` (old coordinates): dim
    vectors of dim entries and dim distinct string ``new_names``, or a ``ValueError``
    naming what is off.  The rebuild keeps the rank, the index floor, the realization and
    the Gram matrix, and the triangular data when every new vector is a multiple of a root
    vector or lies in the Cartan (the horospherical rebuilds of ``splitting``)."""
    _check_length("new basis", len(new_vectors), L.dim, "vectors")
    _check_length("new basis", len(_names(new_names)), L.dim, "names")
    for k, v in enumerate(new_vectors):
        _check_length(f"new basis vector {k}", len(v), L.dim, "entries")
    P = Matrix.from_columns(new_vectors)
    sparse = [{r: c for r, c in enumerate(v) if c} for v in zip(*P.rows)]  # under the scalar rule
    try:
        Pinv = inverse(P)
    except ValueError:
        raise ValueError("new basis vectors are dependent") from None
    # new coordinates of an old vector w are sum_k w_k * (column k of P^-1)
    columns = [{r: c for r, c in enumerate(col) if c} for col in zip(*Pinv.rows)]
    # [P e_a, P e_b] = sum of P_ia P_jb [e_i, e_j] over the brackets of L that are not zero
    hits = [[(a, x) for a, x in enumerate(row) if x] for row in P.rows]  # the P_ia != 0 of i
    images = {}
    for (i, j), entries in L.constants.items():
        entries = dict(entries)
        for a, x in hits[i]:
            for b, y in hits[j]:
                if a != b:  # [P e_a, P e_a] = 0
                    key, s = ((a, b), x * y) if a < b else ((b, a), -x * y)
                    combine(images.setdefault(key, {}), [(entries, s)])
    constants = {}
    for (a, b), image in sorted(images.items()):
        if coeffs := combine({}, ((columns[k], c) for k, c in image.items())):
            constants[(a, b)] = tuple(sorted(coeffs.items()))
    gram = None if L.gram is None else P.transpose() * L.gram * P
    realization = None if L.realization is None else [
        combine({}, ((L.realization[r], c) for r, c in v.items())) for v in sparse]
    # P c'_ab = [P e_a, P e_b] for all a < b (0 = 0 unlisted): P is an isomorphism, so Lie
    for (a, b), image in images.items():
        if combine({}, ((sparse[k], c) for k, c in constants.get((a, b), ()))) != image:
            raise ValueError(f"basis change breaks the bracket [{new_names[a]}, {new_names[b]}]")
    tri = L.triangular
    if tri is not None:  # multiples of root vectors and Cartan elements keep their blocks
        plus, minus = ([a for a, v in enumerate(sparse) if len(v) == 1 and v.keys() <= set(b)]
                       for b in (tri.plus, tri.minus))
        cartan = [a for a, v in enumerate(sparse) if v.keys() <= set(tri.cartan)]
        tri = (_triangular(constants, plus, cartan, minus, gram)
               if len(plus) + len(cartan) + len(minus) == L.dim else None)
    return LieAlgebra._derived(new_names, constants, kind or f"adapted[{L.kind}]",
                               index_floor=L.index_floor, rank=L.rank, triangular=tri,
                               realization=realization, gram=gram, base_algebra=L, base_change=P)


# -- structure-constant file format ------------------------------------


def algebra_to_json(L: LieAlgebra) -> str:
    brackets = []
    for (i, j) in sorted(L.constants):
        entries = [[k, c.numerator, c.denominator] for k, c in L.constants[(i, j)]]
        brackets.append([i, j, entries])
    return json.dumps({"dim": L.dim, "basis_names": list(L.names), "brackets": brackets},
                      indent=1)


def algebra_from_json(text: str) -> LieAlgebra:
    """The algebra of an ``algebra_to_json`` document; ``ValueError`` names a malformed entry."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a constants document is a JSON object, not a {type(doc).__name__}")
    names, brackets = doc.get("basis_names"), doc.get("brackets")
    if not (isinstance(names, list) and all(isinstance(x, str) for x in names)):
        raise ValueError(f"basis_names {names!r} must be a list of strings")
    if not (_is_int(doc.get("dim")) and doc["dim"] == len(names)):
        raise ValueError(f"dim {doc.get('dim')!r} does not match the number of basis names")
    if not isinstance(brackets, list):
        raise ValueError(f"brackets {brackets!r} must be a list")
    constants = {}
    for item in brackets:
        if not (isinstance(item, list) and len(item) == 3 and isinstance(item[2], list)):
            raise ValueError(f"bracket {item!r} must be [i, j, [[k, num, den], ...]]")
        i, j, entries = item
        if not (_is_int(i) and _is_int(j) and i < j):
            raise ValueError(f"bracket [{i!r}, {j!r}]: brackets must be listed for "
                             "integer pairs i < j")
        if (i, j) in constants:
            raise ValueError(f"bracket [{i}, {j}] is listed twice")
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 3
                    and all(_is_int(x) for x in entry) and entry[2] != 0):
                raise ValueError(f"bracket [{i}, {j}]: entry {entry!r} must be three integers "
                                 "[k, num, den] with den != 0")
        constants[(i, j)] = tuple((k, QQ(num, den)) for k, num, den in entries)
    return LieAlgebra(names, constants, kind="custom")
