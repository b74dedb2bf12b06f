"""Lie algebras from exact structure constants, and the standard builders.

Structure constants are stored sparsely for basis pairs i < j, under the
scalar rule of ``rationals`` (a float constant raises ``TypeError`` naming
its bracket); the bracket extends by antisymmetry.  Every constructor runs an
exhaustive Jacobi check over all basis triples, except ``change_basis`` (it checks
that the basis change is a bracket isomorphism onto the checked algebra it rewrites)
and ``splitting.family_bracket``: a pencil member a*[,]_0 + b*[,]_inf has a
Jacobiator quadratic in (a, b), so the pencil is certified by the checks
at (1,0), (0,1) and (1,1); its Poisson bracket is linear in (a, b),
{F, G}_(a,b) = a{F, G}_0 + b{F, G}_inf, so commutativity is decided at
(1,0) and (0,1) (see its docstring).

Builders produce gl(n), sl(n), so(2n) in the antidiagonal realization
(matrices skew with respect to the antidiagonal, so the Cartan is
diagonal and the nilradical strictly upper triangular), direct sums,
and the reductive extension q + t with an abelian copy of the Cartan
appended.  Reductive builders carry triangular data (root labels and
the restriction of the trace form to the Cartan) plus a matrix
realization and the full invariant-form Gram matrix used to identify
the algebra with its dual.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .linalg import Matrix, inverse, rank_and_nullspace
from .poly import _unit
from .rationals import QQ, combine, common_denominator, exact, scalar


class JacobiError(ValueError):
    def __init__(self, triple, residual):
        self.triple = triple
        self.residual = residual
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


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


class LieAlgebra:
    def __init__(self, names, constants, rank=None, triangular=None,
                 realization=None, matrix_size=None, gram=None, kind="custom",
                 base_algebra=None, base_change=None, check=True):
        self.dim = len(names)
        self.names = tuple(names)
        self.constants = {}
        for (i, j), entries in constants.items():
            if not (_is_int(i) and _is_int(j) and 0 <= i < j < self.dim):
                raise ValueError(f"constants must be indexed by pairs i<j, got {(i, j)}")
            seen = set()
            kept = []
            where = f"bracket [{i}, {j}]"
            for k, c in entries:
                if not (_is_int(k) and 0 <= k < self.dim):
                    raise ValueError(f"{where}: target {k!r} is not a basis index "
                                     f"in range({self.dim})")
                if k in seen:
                    raise ValueError(f"{where}: target {k} is listed twice")
                seen.add(k)
                c = scalar(c, where)
                if c:
                    kept.append((k, c))
            if kept:
                self.constants[(i, j)] = tuple(kept)
        self.rank = rank
        self.triangular = triangular
        self.realization = realization
        self.matrix_size = matrix_size
        self.gram = gram
        self.kind = kind
        self.base_algebra = base_algebra
        self.base_change = base_change
        if check:
            report = jacobi_report(self.dim, self.constants)
            if not report.passed:
                raise JacobiError(report.first_violation, None)

    # -- bracket ------------------------------------------------------
    def bracket_pair(self, i, j):
        """[x_i, x_j] as a sparse dict k -> coefficient."""
        return _pair(self.constants, i, j)

    def bracket_vec(self, u, v):
        """Bracket of two coordinate vectors, as a sparse dict."""
        ui = [(i, c) for i, c in enumerate(map(scalar, u)) if c]
        vj = [(j, c) for j, c in enumerate(map(scalar, v)) if c]
        return combine({}, ((self.bracket_pair(i, j), a * b) for i, a in ui for j, b in vj))

    @cached_property
    def generating_set(self) -> tuple:
        """Basis indices whose coordinates generate the algebra under the bracket: a greedy
        adding the coordinate of largest Lie-closure gain (lowest index on ties)."""
        memo, chosen, span = {}, (), ({}, [])
        while len(span[1]) < self.dim:
            c, span = max(((c, _closure(self.constants, memo, *span, {c: 1}))
                           for c in range(self.dim)), key=lambda t: len(t[1][1]))
            chosen += (c,)
        return chosen

    @cached_property
    def poisson_columns(self) -> tuple:
        """(D, columns): D is the least positive int making every structure constant
        integral, and columns[j] lists the (i, lin, sign) with D pi_ij = sign * lin for
        the Lie-Poisson tensor pi_ij = sum_k c_ij^k x_k, where lin holds the int terms of
        D sum_k c_ab^k x_k for the stored pair (a, b) = (i, j) or (j, i)."""
        D = common_denominator(c for entries in self.constants.values() for _, c in entries)
        columns = [[] for _ in range(self.dim)]
        for (i, j), entries in self.constants.items():
            lin = {_unit(self.dim, k): c.numerator * (D // c.denominator) for k, c in entries}
            columns[j].append((i, lin, 1))
            columns[i].append((j, lin, -1))
        return D, columns

    def center(self):
        """Basis of the centre, as coordinate vectors."""
        rows = []
        for j in range(self.dim):
            for k in range(self.dim):
                rows.append([self.bracket_pair(i, j).get(k, 0) for i in range(self.dim)])
        _, basis = rank_and_nullspace(Matrix(rows))
        return basis

    def __repr__(self):
        return f"LieAlgebra({self.kind}, dim={self.dim})"


def _pair(constants, i, j):
    """[x_i, x_j] read off constants stored for pairs i < j, as a dict k -> coefficient."""
    if i < j:
        return dict(constants.get((i, j), ()))
    return {k: -c for k, c in constants.get((j, i), ())}


def _closure(constants, memo, pivots, gens, v):
    """Lie closure of ``gens`` and ``v`` as (echelon pivots with lead 1, spanning keys)."""
    pivots, gens, queue = dict(pivots), list(gens), [v]
    while queue:
        v = queue.pop()
        while v and (p := min(v)) in pivots:
            v = combine(dict(v), [(pivots[p], -v[p])])
        if v:
            key = tuple(sorted(v.items()))
            for g in gens:
                if (key, g) not in memo:
                    memo[key, g] = combine({}, ((_pair(constants, i, j), a * b)
                                                 for i, a in key for j, b in g))
                queue.append(memo[key, g])
            gens.append(key)
            pivots[min(v)] = {k: exact(c / QQ(v[min(v)])) for k, c in v.items()}
    return pivots, gens


def jacobi_report(dim, constants) -> JacobiReport:
    """Exhaustive Jacobi check over all basis triples i < j < k, in lexicographic order.

    table[a][b] holds [x_a, x_b] as (k, D c) int pairs, with D the common denominator
    of the constants; the Jacobiator is quadratic in c, so scaling by D keeps its zeros.
    """
    D = common_denominator(c for entries in constants.values() for _, c in entries)
    table = [[()] * dim for _ in range(dim)]
    for (i, j), entries in constants.items():
        if i < j:
            table[i][j] = tuple((k, c.numerator * (D // c.denominator)) for k, c in entries)
            table[j][i] = tuple((k, -c) for k, c in table[i][j])
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


def check_jacobi(arg) -> JacobiReport:
    """Re-run the exhaustive Jacobi check on an algebra (or raw (dim, constants))."""
    if isinstance(arg, LieAlgebra):
        return jacobi_report(arg.dim, arg.constants)
    dim, constants = arg
    norm = {(i, j): tuple((k, scalar(c, f"bracket [{i}, {j}]")) for k, c in entries)
            for (i, j), entries in constants.items()}
    return jacobi_report(dim, norm)


# -- matrix-realization helpers ---------------------------------------


def _smul(a: dict, b: dict) -> dict:
    """Sparse product of matrices given as {(r, c): coeff}."""
    bysrc: dict[int, list] = {}
    for (r, c), v in b.items():
        bysrc.setdefault(r, []).append((c, v))
    return combine({}, (({(r, c2): v2 for c2, v2 in bysrc.get(c, ())}, v)
                        for (r, c), v in a.items()))


def _scomm(a: dict, b: dict) -> dict:
    return combine(_smul(a, b), [(_smul(b, a), -1)])


def _strace_product(a: dict, b: dict):
    total = 0
    for (r, c), v in a.items():
        w = b.get((c, r))
        if w:
            total = total + v * w
    return total


def _constants_from_realization(mats, decompose):
    constants = {}
    n = len(mats)
    for i in range(n):
        for j in range(i + 1, n):
            comm = _scomm(mats[i], mats[j])
            coeffs = decompose(comm)
            entries = tuple((k, c) for k, c in coeffs if c)
            if entries:
                constants[(i, j)] = entries
    return constants


def _gram_from_realization(mats, half=False):
    n = len(mats)
    g = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            v = _strace_product(mats[a], mats[b])
            if half:
                v = QQ(v, 2)
            g[a][b] = v
            g[b][a] = v
    return Matrix(g)


def _extract_root_labels(constants, cartan, roots, dim):
    """Read alpha(t_c) off the structure constants; Cartan action must be diagonal."""
    labels = {}
    for r in roots:
        vals = []
        for c in cartan:
            br = _pair(constants, c, r)
            extra = {k: v for k, v in br.items() if k != r}
            if extra:
                raise ValueError(f"Cartan element {c} does not act diagonally on root vector {r}")
            vals.append(br.get(r, 0))
        labels[r] = tuple(vals)
    return labels


def _triangular(constants, plus, cartan, minus, gram, dim):
    roots = tuple(plus) + tuple(minus)
    labels = _extract_root_labels(constants, tuple(cartan), roots, dim)
    cf = Matrix([[gram[a, b] for b in cartan] for a in cartan])
    return TriangularData(tuple(plus), tuple(cartan), tuple(minus), labels, cf)


# -- builders ----------------------------------------------------------


def _ename(i, j, n):
    if n <= 9:
        return f"E{i + 1}{j + 1}"
    return f"E{i + 1}_{j + 1}"


def build_gl(n: int) -> LieAlgebra:
    if n < 1:
        raise ValueError("gl(n) needs n >= 1")
    order = (
        [(i, j) for i in range(n) for j in range(n) if i < j]
        + [(i, i) for i in range(n)]
        + [(i, j) for i in range(n) for j in range(n) if i > j]
    )
    pos = {p: a for a, p in enumerate(order)}
    mats = [{p: 1} for p in order]
    names = [_ename(i, j, n) for (i, j) in order]

    def decompose(m):
        return [(pos[p], v) for p, v in m.items()]

    constants = _constants_from_realization(mats, decompose)
    gram = _gram_from_realization(mats)
    nup = n * (n - 1) // 2
    plus = tuple(range(nup))
    cartan = tuple(range(nup, nup + n))
    minus = tuple(range(nup + n, len(order)))
    tri = _triangular(constants, plus, cartan, minus, gram, len(order))
    return LieAlgebra(names, constants, rank=n, triangular=tri, realization=mats,
                      matrix_size=n, gram=gram, kind=f"gl({n})")


def build_sl(n: int) -> LieAlgebra:
    if n < 2:
        raise ValueError("sl(n) needs n >= 2")
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

    constants = _constants_from_realization(mats, decompose)
    gram = _gram_from_realization(mats)
    plus = tuple(range(nup))
    cartan = tuple(range(nup, nup + n - 1))
    minus = tuple(range(nup + n - 1, len(mats)))
    tri = _triangular(constants, plus, cartan, minus, gram, len(mats))
    return LieAlgebra(names, constants, rank=n - 1, triangular=tri, realization=mats,
                      matrix_size=n, gram=gram, kind=f"sl({n})")


def build_so_even(n: int) -> LieAlgebra:
    """so(2n), realized as matrices skew-symmetric about the antidiagonal."""
    if n < 2:
        raise ValueError("so(2n) needs n >= 2")
    size = 2 * n
    # orbit representatives (i, j) with i + j < size - 1; mirror of (i, j) is
    # (size-1-j, size-1-i) and the antidiagonal itself is forced to zero
    uppers = [(i, j) for i in range(size) for j in range(size) if i < j and i + j < size - 1]
    diag = [(i, i) for i in range(n)]
    lowers = [(i, j) for i in range(size) for j in range(size) if i > j and i + j < size - 1]
    order = uppers + diag + lowers
    pos = {p: a for a, p in enumerate(order)}

    def mat(p):
        i, j = p
        return {(i, j): 1, (size - 1 - j, size - 1 - i): -1}

    mats = [mat(p) for p in order]
    names = [f"M{i + 1}{j + 1}" if size <= 9 else f"M{i + 1}_{j + 1}" for (i, j) in order]

    def decompose(m):
        return [(pos[p], v) for p, v in m.items() if p in pos]

    constants = _constants_from_realization(mats, decompose)
    gram = _gram_from_realization(mats, half=True)
    plus = tuple(range(len(uppers)))
    cartan = tuple(range(len(uppers), len(uppers) + n))
    minus = tuple(range(len(uppers) + n, len(order)))
    tri = _triangular(constants, plus, cartan, minus, gram, len(order))
    return LieAlgebra(names, constants, rank=n, triangular=tri, realization=mats,
                      matrix_size=size, gram=gram, kind=f"so({size})")


def build_double(base: LieAlgebra) -> LieAlgebra:
    """The reductive extension: append an abelian copy of the Cartan.

    The appended generators xi_1..xi_l are central; the identification
    with the Cartan basis h_i -> xi_i is fixed once and used by the
    invariant constructions.
    """
    if base.triangular is None or base.rank is None:
        raise ValueError("the double needs a reductive builder algebra")
    ell = len(base.triangular.cartan)
    names = list(base.names) + [f"xi{k + 1}" for k in range(ell)]
    constants = dict(base.constants)  # xi's bracket to zero with everything
    dim = base.dim + ell
    tcf = base.triangular.cartan_form
    gram = None
    if base.gram is not None:
        rows = []
        for i in range(dim):
            row = []
            for j in range(dim):
                if i < base.dim and j < base.dim:
                    row.append(base.gram[i, j])
                elif i >= base.dim and j >= base.dim:
                    row.append(tcf[i - base.dim, j - base.dim])
                else:
                    row.append(0)
            rows.append(row)
        gram = Matrix(rows)
    cartan = tuple(base.triangular.cartan) + tuple(range(base.dim, dim))
    labels = {r: tuple(v) + (0,) * ell for r, v in base.triangular.root_labels.items()}
    cf = Matrix([[gram[a, b] for b in cartan] for a in cartan])
    tri = TriangularData(base.triangular.plus, cartan, base.triangular.minus, labels, cf)
    realization = None
    if base.realization is not None:
        realization = list(base.realization) + [None] * ell
    return LieAlgebra(names, constants, rank=base.rank + ell, triangular=tri,
                      realization=realization, matrix_size=base.matrix_size,
                      gram=gram, kind=f"double[{base.kind}]", base_algebra=base)


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    names = list(a.names)
    for nm in b.names:
        names.append(nm if nm not in a.names else nm + "'")
    constants = dict(a.constants)
    for (i, j), entries in b.constants.items():
        constants[(i + a.dim, j + a.dim)] = tuple((k + a.dim, c) for k, c in entries)
    rank = None
    if a.rank is not None and b.rank is not None:
        rank = a.rank + b.rank
    return LieAlgebra(names, constants, rank=rank, kind=f"sum[{a.kind},{b.kind}]")


def custom_algebra(names, raw_constants, **kw) -> LieAlgebra:
    """Algebra from raw constants {(i, j): [(k, coeff), ...]} with i < j."""
    constants = {tuple(pair): entries for pair, entries in raw_constants.items()}
    return LieAlgebra(names, constants, kind=kw.pop("kind", "custom"), **kw)


def build_algebra(kind: str, **params) -> LieAlgebra:
    """Dispatcher: kind in {gl, sl, so_even, double, direct_sum, custom}."""
    if kind == "gl":
        return build_gl(params["n"])
    if kind == "sl":
        return build_sl(params["n"])
    if kind in ("so_even", "so"):
        n = params["n"]
        if kind == "so":
            if n % 2:
                raise ValueError("only so(2n) is supported")
            n //= 2
        return build_so_even(n)
    if kind == "double":
        base = params.get("base")
        if base is None:
            base = build_algebra(params["base_kind"], n=params["n"])
        return build_double(base)
    if kind == "direct_sum":
        return direct_sum(params["a"], params["b"])
    if kind == "custom":
        return custom_algebra(params["names"], params["constants"])
    raise ValueError(f"unknown builder kind {kind!r}")


def escaping_bracket(L: LieAlgebra, indices: Sequence[int]):
    """The first (i, j, k) with i, j in ``indices`` and a component of [x_i, x_j]
    on x_k outside them, in pair order; None when the indices span a subalgebra."""
    idx_set = set(indices)
    for a, i in enumerate(indices):
        for j in indices[a + 1 :]:
            for k in L.bracket_pair(i, j):
                if k not in idx_set:
                    return i, j, k
    return None


def sub_algebra(L: LieAlgebra, indices: Sequence[int]) -> LieAlgebra:
    """The subalgebra spanned by the given basis indices (must be closed)."""
    indices = list(indices)
    esc = escaping_bracket(L, indices)
    if esc:
        i, j, _ = esc
        raise ValueError(f"indices {indices} do not span a subalgebra: "
                         f"[{L.names[i]}, {L.names[j]}] leaves the span")
    pos = {v: i for i, v in enumerate(indices)}
    constants = {}
    for a, i in enumerate(indices):
        for b in range(a + 1, len(indices)):
            entries = tuple((pos[k], c) for k, c in L.bracket_pair(i, indices[b]).items())
            if entries:
                constants[(a, b)] = entries
    return LieAlgebra([L.names[i] for i in indices], constants, kind=f"sub[{L.kind}]")


def change_basis(L: LieAlgebra, new_vectors, new_names, kind=None) -> LieAlgebra:
    """Rewrite the algebra in the basis given by ``new_vectors`` (old coordinates)."""
    if len(new_vectors) != L.dim:
        raise ValueError("need a full new basis")
    P = Matrix.from_columns(new_vectors)
    new_vectors = list(zip(*P.rows))  # under the scalar rule
    try:
        Pinv = inverse(P)
    except ValueError:
        raise ValueError("new basis vectors are dependent") from None
    # new coordinates of an old vector w are sum_k w_k * (column k of P^-1)
    columns = [{r: c for r, c in enumerate(col) if c} for col in zip(*Pinv.rows)]
    constants, images = {}, {}
    for a in range(L.dim):
        for b in range(a + 1, L.dim):
            images[a, b] = L.bracket_vec(new_vectors[a], new_vectors[b])
            coeffs = combine({}, ((columns[k], c) for k, c in images[a, b].items()))
            if coeffs:
                constants[(a, b)] = tuple(sorted(coeffs.items()))
    gram = None
    if L.gram is not None:
        gram = P.transpose() * L.gram * P
    realization = None
    if L.realization is not None and all(m is not None for m in L.realization):
        realization = [combine({}, zip(L.realization, vec)) for vec in new_vectors]
    new = LieAlgebra(new_names, constants, rank=L.rank, realization=realization,
                     matrix_size=L.matrix_size, gram=gram, kind=kind or f"adapted[{L.kind}]",
                     base_algebra=L, base_change=P, check=False)
    # P c'_ab = [P e_a, P e_b] for all a < b: P is an isomorphism onto L, so Jacobi holds
    sparse = [{r: c for r, c in enumerate(v) if c} for v in new_vectors]
    for (a, b), image in images.items():
        if combine({}, ((sparse[k], c) for k, c in new.bracket_pair(a, b).items())) != image:
            raise ValueError(f"basis change breaks the bracket [{new_names[a]}, {new_names[b]}]")
    return new


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
