"""Splittings q = h + r, Inonu-Wigner contractions, and the bracket pencil.

A ``Decomposition`` fixes a subalgebra h spanned by distinct basis vectors
and r, the other basis vectors in index order; that is enough for the
contraction h x r^ab and for bi-degree work (the h-degree is the degree in
``h_indices``, read by ``Polynomial.split_degree``).  Whether r is a subalgebra
too is a fact of the data, read once off the bracket table as ``r_closed``;
``make_splitting`` insists on it.  A closed r unlocks the second contraction
and the two-parameter family of compatible brackets

    [.,.]_(a,b) = a*[.,.]_keep_h + b*[.,.]_keep_r,

with (1,1) giving back the original bracket exactly.

``horospherical_splitting`` rebuilds a reductive algebra in a basis
adapted to h+ = u+ + t1 and h- = u- + t0 with t0 the orthogonal
complement of t1 in the Cartan; the new Cartan coordinates are named
t1_i / t0_i and the splitting records both blocks, which makes it horospherical.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .liealg import LieAlgebra, Matrix, _closure_gap, change_basis, subalgebra_indices
from .linalg import rank, rank_and_nullspace
from .rationals import _check_length, clear_denominators, combine, qq_str, scalar


@dataclass(frozen=True)
class BracketParameter:
    """Projective pencil parameter: (1,0) is t=0, (0,1) is t=infinity, (1,t) generic."""

    a: object
    b: object

    def __post_init__(self):
        a, b = scalar(self.a), scalar(self.b)
        if not a and not b:
            raise ValueError("(0, 0) is not a pencil parameter")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def of(cls, p) -> "BracketParameter":
        """``p`` itself, or the parameter built from an (a, b) pair."""
        return p if isinstance(p, cls) else cls(*p)

    def label(self) -> str:
        return f"({qq_str(self.a)},{qq_str(self.b)})"


class Decomposition:
    """q = h + r: h a subalgebra on distinct basis vectors, r the others in index order."""

    def __init__(self, algebra: LieAlgebra, h_indices):
        self.algebra = algebra
        self.h_indices = subalgebra_indices(algebra, h_indices, "h")
        self.h_set = frozenset(self.h_indices)
        self.r_indices = tuple(i for i in range(algebra.dim) if i not in self.h_set)
        self.r_set = frozenset(self.r_indices)
        self._r_gap = _closure_gap(algebra, self.r_indices, "r")  # why r is not closed, or None
        self.r_closed = self._r_gap is None  # r is a subalgebra too
        self._contractions: dict = {}  # side -> its contraction, see ``contract``
        self._bidecompositions: dict = {}  # id(F) -> (F, its split), see ``bidecompose``
        self.t1_indices: tuple = ()
        self.t0_indices: tuple = ()

    @property
    def is_horospherical(self) -> bool:
        """Whether the toral blocks t1, t0 of ``horospherical_splitting`` are recorded."""
        return bool(self.t1_indices or self.t0_indices)

    @property
    def dim_h(self):
        return len(self.h_indices)

    @property
    def dim_r(self):
        return len(self.r_indices)

    def __repr__(self):
        return f"{type(self).__name__}(h={self.dim_h}, r={self.dim_r}, dim={self.algebra.dim})"


def make_decomposition(L: LieAlgebra, h_part) -> Decomposition:
    return Decomposition(L, h_part)


def make_splitting(L: LieAlgebra, h_part) -> Decomposition:
    """The decomposition with h spanned by the given basis indices and r the rest, or a
    ``ValueError`` naming the first bracket that leaves r."""
    D = Decomposition(L, h_part)
    if not D.r_closed:
        raise ValueError(D._r_gap)
    return D


def contract(D: Decomposition, side: str = "keep_h") -> LieAlgebra:
    """Inonu-Wigner contraction on D.algebra's basis, built once per ``D``: later calls
    return the same object, not to be mutated.

    It is Lie whenever ``D.algebra`` is (Inonu and Wigner, PNAS 39, 1953), so no Jacobi
    check runs.  For t != 0 and phi_t the identity on ``keep`` and t on the rest,
    mu_t(x, y) = phi_t^-1 mu(phi_t x, phi_t y) is isomorphic to mu.  ``keep`` is a
    subalgebra (``Decomposition`` checks h and reads ``r_closed``), so mu_t is polynomial
    in t with the constants written here at t = 0; its Jacobiator, polynomial in t
    and zero for t != 0, vanishes at t = 0 too.  ``D.algebra`` is Lie by the Jacobi sweep
    of the public constructor or by the construction that derived it.

    The contraction inherits ``D.algebra.index_floor``: at a fixed point the Poisson
    tensor of mu_t has entries polynomial in t, so its rank at t = 0 is at most its rank
    at some t != 0, where mu_t ~ mu; hence ind mu_0 >= ind mu.  It records the indices of
    ``keep`` as ``kept_block``, by which ``poisson.poisson_bracket`` orders its arguments."""
    if side not in D._contractions:
        sets = {"keep_h": (D.h_set, D.r_set), "keep_r": (D.r_set, D.h_set)}
        if side not in sets:
            raise ValueError("side must be keep_h or keep_r")
        if side == "keep_r" and not D.r_closed:
            raise ValueError("keep_r needs r to be a subalgebra (a full splitting)")
        keep, other = sets[side]
        # brackets inside keep stay, inside other vanish, across keep only their other part
        constants = {}
        for (i, j), entries in D.algebra.constants.items():
            kept = entries if {i, j} <= keep else tuple(e for e in entries if e[0] in other)
            if kept and not {i, j} <= other:
                constants[(i, j)] = kept
        D._contractions[side] = LieAlgebra._derived(
            D.algebra.names, constants, f"contract[{side}]({D.algebra.kind})",
            index_floor=D.algebra.index_floor, kept_block=tuple(sorted(keep)))
    return D._contractions[side]


def family_bracket(S: Decomposition, p: BracketParameter) -> LieAlgebra:
    """The pencil member a*[,]_0 + b*[,]_infinity; (1,1) is the original algebra.

    Combines the two contractions of ``contract`` without a per-member Jacobi
    check; two arguments settle the whole pencil.
    Jacobi: the Jacobiator of a*mu_0 + b*mu_inf is the quadratic form
    a^2 J(mu_0) + ab J(mu_0, mu_inf) + b^2 J(mu_inf) in (a, b), so it
    vanishes for every member once it vanishes at three pairwise
    non-proportional parameters: (1,0) and (0,1), the contractions, Lie by
    the proof in ``contract``, and (1,1), ``S.algebra`` itself.
    ``zalgebra.property_suite`` compares this function's anchors with them.
    Commutativity: {F, G}_(a,b) = a{F, G}_0 + b{F, G}_inf, so a pair
    commutes for every member iff it commutes at (1,0) and (0,1).
    Index: every member inherits ``S.algebra.index_floor``.  For ab != 0 and phi the map
    that is a on h and b on r, phi^-1 [phi x, phi y] = a[x, y]_0 + b[x, y]_inf, so the
    member is isomorphic to q; for a = 0 or b = 0 it is a nonzero multiple of a
    contraction, whose index is at least ind q (see ``contract``).
    """
    if not S.r_closed:
        raise ValueError("the pencil needs r to be a subalgebra (a full splitting)")
    p = BracketParameter.of(p)
    c0, cinf = contract(S, "keep_h").constants, contract(S, "keep_r").constants
    constants = {}
    for key in c0.keys() | cinf.keys():
        acc = combine({}, ((dict(c0.get(key, ())), p.a), (dict(cinf.get(key, ())), p.b)))
        if acc:
            constants[key] = tuple(acc.items())
    return LieAlgebra._derived(S.algebra.names, constants, f"family{p.label()}({S.algebra.kind})",
                               index_floor=S.algebra.index_floor)


def pencil_member(S: Decomposition, p) -> LieAlgebra:
    """``S.algebra`` at (1,1), the cached contractions at (1,0) and (0,1), else family_bracket."""
    p = BracketParameter.of(p)
    if (p.a, p.b) == (1, 1):
        return S.algebra
    side = {(1, 0): "keep_h", (0, 1): "keep_r"}.get((p.a, p.b))
    if side is None or not S.r_closed:
        return family_bracket(S, p)  # raises when r is not closed
    return contract(S, side)


def _vectors(dim: int, maps):
    """Coordinate vectors of length ``dim``, one per {position: value} map."""
    return [[entries.get(i, 0) for i in range(dim)] for entries in maps]


def _normalize_direction(vec):
    """Scale to coprime integers with the first nonzero entry positive."""
    _, ints = clear_denominators(vec)
    lead = next((x for x in ints if x), 0)
    g = gcd(*ints) if lead > 0 else -gcd(*ints)  # 0 only for the zero vector
    return tuple(x // g for x in ints) if g else tuple(ints)


def horospherical_splitting(L: LieAlgebra, t1_basis, t0_basis=None) -> Decomposition:
    """Adapted splitting h+ = u+ + t1, h- = u- + t0 with t0 = t1-perp in the Cartan.

    ``t1_basis`` lists vectors (full coordinates of L) supported on the
    Cartan; the returned splitting lives on a rebuilt algebra whose basis
    is (u+, t1, u-, t0), with Cartan coordinates renamed t1_i / t0_i.
    An explicit ``t0_basis`` may be passed to pin the coordinates used by
    restriction reports; it must span the orthogonal complement of t1.
    """
    tri = L.triangular
    if tri is None:
        raise ValueError("horospherical splittings need a reductive builder algebra")
    cartan = list(tri.cartan)
    ell = len(cartan)
    cpos = {c: i for i, c in enumerate(cartan)}

    def to_cartan(vectors, label):
        out = []
        for j, v in enumerate(vectors):
            if not isinstance(v, (list, tuple)):
                raise ValueError(f"{label} vector {j} is {v!r}, not a sequence of {L.dim} entries")
            _check_length(f"{label} vector {j}", len(v), L.dim, "entries")
            w = [0] * ell
            for i, c in enumerate(v):
                c = scalar(c, f"{label} vector")
                if not c:
                    continue
                if i not in cpos:
                    raise ValueError(
                        f"{label} vector has a component outside the Cartan ({L.names[i]})"
                    )
                w[cpos[i]] = c
            out.append(w)
        return out

    t1_cart = to_cartan(t1_basis, "t1")
    k = len(t1_cart)
    if k:
        T1 = Matrix.from_columns(t1_cart)
        if rank(T1) != k:
            raise ValueError("t1 vectors are dependent")
        T1tG = T1.transpose() * tri.cartan_form
        # <,> must stay nondegenerate on t1
        if rank(T1tG * T1) != k:
            raise ValueError("the invariant form is degenerate on t1")
    if t0_basis is None:
        t0_cart = ([_normalize_direction(v) for v in rank_and_nullspace(T1tG)[1]] if k
                   else [tuple(int(i == j) for i in range(ell)) for j in range(ell)])
    else:
        t0_cart = to_cartan(t0_basis, "t0")
        if len(t0_cart) != ell - k:
            raise ValueError("supplied t0 has the wrong dimension")
        if k and any(x != 0 for v in t0_cart for x in T1tG.matvec(v)):
            raise ValueError("supplied t0 is not orthogonal to t1")
        if rank(Matrix.from_columns(t0_cart)) != len(t0_cart):
            raise ValueError("supplied t0 vectors are dependent")

    toral = _vectors(L.dim, (dict(zip(cartan, w)) for w in [*t1_cart, *t0_cart]))
    new_vectors = (_vectors(L.dim, ({i: 1} for i in tri.plus)) + toral[:k]
                   + _vectors(L.dim, ({i: 1} for i in tri.minus)) + toral[k:])
    names = ([L.names[i] for i in tri.plus] + [f"t1_{i + 1}" for i in range(k)]
             + [L.names[i] for i in tri.minus] + [f"t0_{i + 1}" for i in range(ell - k)])
    adapted = change_basis(L, new_vectors, names, kind=f"horo[{L.kind}]")

    nplus, nminus = len(tri.plus), len(tri.minus)
    S = make_splitting(adapted, range(nplus + k))  # h = u+ + t1, r = u- + t0 in index order
    S.t1_indices = tuple(range(nplus, nplus + k))
    S.t0_indices = tuple(range(nplus + k + nminus, L.dim))
    return S
