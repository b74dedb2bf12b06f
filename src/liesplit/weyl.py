"""Root systems, reflection groups, and restriction of invariants to subtori.

Model spaces: types A_n and D_n use the coordinate (epsilon) model, so
group elements are (signed) permutation matrices; E6 uses simple-root
coordinates, where reflections are small integer matrices and the inner
product is the Cartan matrix.

A Weyl group acts faithfully on its roots, so an element w is fixed by
where it sends the simple roots.  Each element is keyed by the ``bytes``
of the indices of w(alpha_1), ..., w(alpha_r) in one fixed list of all
roots (six bytes per element of W(E6)).  An element x permutes the
roots, and ``key.translate(perm_x)`` is the key of x w, so enumeration
and the normalizer computation run on keys and integers and never form a
matrix.  All keys sit back to back in one ``bytes`` table, r bytes per
element.  W is enumerated as a chain of parabolic cosets (Humphreys,
*Reflection Groups and Coxeter Groups*, 1.10 and 1.12), one
``translate`` per coset and no membership test, and the result is
checked: closed under every generator, no key twice (proved from the
coset structure, with no table of seen keys) and |W| = prod d_i.
Model-space matrices are built only on request, as the int8 product over
an element's generator word, and are checked against the key.

Each root system carries its fundamental degrees (A_n: 2, ..., n+1; D_n:
2, 4, ..., 2n-2 and n; E6: 2, 5, 6, 8, 9, 12): |W| = prod d_i bounds and
certifies the enumeration, sum (d_i - 1) counts the positive roots, and
max d_i is the default restriction degree.  Every root is W-conjugate to a
simple root (Humphreys 1.5), so the roots are the ``_orbit`` walks from the
simple roots in simple-root coordinates, one per simple root not yet reached.

Restriction works on generators, never on a whole invariant.  The W side is
n = ``model_dim`` basic invariants: the linear forms that vanish on the roots
(the W-fixed part of the model, a line for A_n), and for each fundamental
degree d the first orbit power sum f = sum_nu (nu . x)^d, over the W-orbit of
a fundamental weight's linear form, whose gradient raises the Jacobian rank at
a seeded integer point.  A Jacobian of rank n modulo ``linalg.P`` at one point
proves the n invariants algebraically independent; their degrees multiply to
|W|, which the enumeration certified, and the sorted degrees of independent
homogeneous invariants dominate the basic degrees, so they equal them and
C[f] has the Hilbert series of C[t]^W and is all of it (Humphreys,
*Reflection Groups and Coxeter Groups*, 3.7-3.9).  Each generator is
restricted to t0 by substituting t0 into its linear forms before the powers
are taken, and the image in degree d is the span of the weighted degree-d
products of the restricted generators.  The W0 side is Molien's formula:
dim C[t0]^W0_d is the t^d coefficient of (1/|W0|) sum_g 1/det(1 - t g).

``invariant_basis`` (the kernel of one square matrix sum_m (m - 1) on the
degree-d coefficients) is kept as the oracle the tests check both sides
against.  A finite group keeps an inner product, so <m x, x> <= |x|^2 and
the sum kills x only when every m fixes x; one block per matrix would cost
|W0| times the rows.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import prod
from operator import mul

from . import _kernels as K
from .linalg import P, Matrix, _best_rank, inverse, rank, rank_and_nullspace, rank_mod_p
from .poly import Polynomial, _exponents, _unit
from .rationals import (QQ, _check_count, _check_length, _check_size, _is_int,
                        clear_denominators, exact)


def _encode(mat_rows, n) -> bytes:
    out = bytearray(n * n)
    for i in range(n):
        for j in range(n):
            x = mat_rows[i][j]
            v = int(x)
            if v != x or not -128 <= v <= 127:
                raise ValueError(f"matrix entry ({i}, {j}) = {x} is not an int8 integer")
            out[i * n + j] = v & 0xFF
    return bytes(out)


def _decode(b: bytes, n):
    return [[(b[i * n + j] ^ 0x80) - 0x80 for j in range(n)] for i in range(n)]


_NEGATE = bytes(-x & 0xFF for x in range(256))   # x -> -x modulo 256


def _int_vector(v) -> tuple:
    out = tuple(int(x) for x in v)
    if out != tuple(v):
        raise ValueError(f"vector {v} is not integral")
    return out


@dataclass
class RootSystem:
    rank: int
    model_dim: int
    simple_roots: tuple       # model-space vectors
    positive_roots: tuple     # model-space vectors
    gram: Matrix              # inner product on the model space
    reflections: tuple        # generator matrices, encoded int8 bytes
    degrees: tuple            # fundamental degrees: |W| = prod, reflections = sum(d - 1)
    positive_alpha: tuple     # the positive roots in simple-root coordinates, same order


def _reflection_matrix_model(alpha, gram: Matrix, n):
    """s_alpha(v) = v - 2 (v,alpha)/(alpha,alpha) alpha, as columns over the model."""
    ga = gram.matvec(alpha)
    norm = sum(map(mul, alpha, ga))
    cols = []
    for j in range(n):
        coeff = 2 * ga[j] / QQ(norm)
        cols.append([int(i == j) - coeff * alpha[i] for i in range(n)])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _positive_roots_alpha(cartan: Matrix, rank: int):
    """All positive roots in simple-root coordinates: the ``_orbit`` of each simple root not
    yet reached under s_i(v) = v - <v, alpha_i^vee> alpha_i (see the module docstring)."""
    gens = [[[int(t == j) - (cartan[i, j] if t == i else 0) for j in range(rank)]
             for t in range(rank)] for i in range(rank)]
    roots: dict = {}
    for a in Matrix.identity(rank).rows:
        if a not in roots:
            roots.update(dict.fromkeys(_orbit(a, gens)))
    return sorted(v for v in roots if min(v) >= 0)


_E6_EDGES = ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))  # chain 1-2-3-4-5, node 6 on 3


def build_root_system(type_label: str, rank: int | None = None) -> RootSystem:
    """Supported types: ('A', n), ('D', n >= 3), ('E6',); E6 takes no rank."""
    if type_label == "E6":
        if rank is not None:
            raise ValueError(f"E6 takes no rank, got {rank!r}")
        rank = n = 6
        c = [[0] * 6 for _ in range(6)]
        for i in range(6):
            c[i][i] = 2
        for i, j in _E6_EDGES:
            c[i - 1][j - 1] = c[j - 1][i - 1] = -1
        gram = Matrix(c)  # the Cartan matrix: unit simple roots, all of squared length 2
        simples = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
        degrees = (2, 5, 6, 8, 9, 12)
    elif type_label in ("A", "D"):
        _check_size(f"{type_label}_n", rank, 1 if type_label == "A" else 3)
        n = rank + 1 if type_label == "A" else rank
        gram = Matrix.identity(n)
        # e_j - e_(j+1), and for D_n also e_(n-1) + e_n
        simples = tuple(tuple((i == j) - (i == j + 1) for i in range(n)) for j in range(n - 1))
        if type_label == "A":
            degrees = tuple(range(2, rank + 2))
        else:
            simples += (tuple(int(i >= n - 2) for i in range(n)),)
            degrees = tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    else:
        raise ValueError(f"unsupported root system type {type_label!r}")

    rows = []
    for i in range(rank):
        gi = gram.matvec(simples[i])
        norm = QQ(sum(map(mul, simples[i], gi)))
        rows.append([2 * sum(map(mul, simples[j], gi)) / norm for j in range(rank)])
    cartan = Matrix(rows)

    pos_alpha = _positive_roots_alpha(cartan, rank)
    expected = sum(d - 1 for d in degrees)
    if len(pos_alpha) != expected:
        raise AssertionError(f"positive root count {len(pos_alpha)} != {expected}")
    positive = tuple(
        tuple(sum(v[j] * simples[j][i] for j in range(rank)) for i in range(n))
        for v in pos_alpha
    )
    reflections = tuple(_encode(_reflection_matrix_model(a, gram, n), n) for a in simples)
    return RootSystem(rank, n, simples, positive, gram, reflections, degrees, tuple(pos_alpha))


class KeyTable:
    """A read-only sequence of ``bytes``: keys stored back to back in ``data``, ``width``
    bytes each.  ``find`` matches only at key-aligned offsets."""

    __slots__ = ("data", "width")

    def __init__(self, data: bytes, width: int):
        self.data = data
        self.width = width

    def __len__(self):
        return len(self.data) // self.width

    def __getitem__(self, k: int) -> bytes:
        k = range(len(self))[k]   # negative k and IndexError as for a list
        return self.data[k * self.width:(k + 1) * self.width]

    def __iter__(self):
        w = self.width
        return (self.data[i:i + w] for i in range(0, len(self.data), w))

    def find(self, key, start: int = 0, end: int | None = None) -> int:
        """Position of the first key equal to ``key`` among keys start..end-1, or -1; a
        match across a key boundary does not count."""
        w = self.width
        if len(key) != w:
            return -1
        stop = len(self.data) if end is None else end * w
        at = self.data.find(key, start * w, stop)
        while at > 0 and at % w:
            at = self.data.find(key, at - at % w + w, stop)
        return at // w if at >= 0 else -1


Sequence.register(KeyTable)   # registered, not subclassed: random.sample takes it as is


class WeylGroup:
    """A finite Weyl group with elements keyed by root images.

    ``roots`` lists every root in model coordinates as integer tuples, the
    positive roots first and then their negatives.  The key of w is the
    ``bytes`` whose i-th entry is the index of w(alpha_i) in ``roots``.
    ``keys`` holds every key back to back, r = rank bytes each, and
    ``elements`` reads it as a sequence of keys.

    ``elements`` is in coset order.  Let W_j = <s_1, ..., s_j> (W_0 = {1})
    and let v_j pair to delta_ij with alpha_i.  The W_j-orbit of v_j is a
    breadth-first walk under s_1, ..., s_j from v_j; the walk gives each
    point p a representative d_p, with d_(s p) = s d_p for the step that
    first reaches s p.  Then W_j is listed as the blocks d_p W_(j-1), one per
    point in walk order, each block being the keys of W_(j-1) passed
    through the root permutation of d_p by one ``translate``; W_(j-1) itself
    is the first block.  v_j is dominant and W_(j-1) is its stabilizer, so
    the blocks are the cosets, but the enumeration does not rely on it.  It
    checks, for every point p and generator s, that s d_p lies in the block
    of s p; with W_(j-1) a group by induction, s (d_p W_(j-1)) then stays in
    the listed set, which contains 1 and so is all of W_j.  No key repeats:
    each simple reflection is checked once to permute the roots, and
    s_1, ..., s_(j-1) are checked to fix v_j, so every element of block p
    sends v_j to p; blocks of distinct points are then disjoint, and within
    a block distinct keys of W_(j-1) stay distinct.  At the end it checks
    |W| = prod d_i.

    Element k > 0 is s_last[k] applied after element parent[k]: the element
    d_(s p) w of a block is s applied after d_p w.  A representative from
    the walk is the shortest in its coset, so each word is reduced.
    """

    def __init__(self, root_system: RootSystem, roots, keys: bytes, parent, last, generators):
        self.root_system = root_system
        self.n = root_system.model_dim
        self.roots = roots
        self.keys = keys                  # every key back to back, coset order, identity first
        self.elements = KeyTable(keys, root_system.rank)
        self.generators = generators      # keys of the simple reflections
        self._parent = parent
        self._last = last

    @property
    def order(self):
        return len(self.elements)

    def matrix(self, element: bytes) -> Matrix:
        """Model-space matrix: the int8 product of the element's generator word."""
        k = self.elements.find(element)
        if k < 0:
            raise ValueError("not an element of this Weyl group")
        rs = self.root_system
        n = self.n
        acc = _encode(Matrix.identity(n).rows, n)
        while k:
            acc = K.matmul_i8(acc, rs.reflections[self._last[k]], n)
            k = self._parent[k]
        m = Matrix(_decode(acc, n))
        for i, alpha in enumerate(rs.simple_roots):
            if m.matvec(alpha) != self.roots[element[i]]:
                raise AssertionError(f"matrix does not send simple root {i + 1} to its keyed root")
        return m


def enumerate_weyl(rs: RootSystem) -> WeylGroup:
    """W as a chain of parabolic cosets on root-image keys, certified closed and of order prod d.

    The ``WeylGroup`` docstring gives the element order and the proof.  A
    point of an orbit is held as its pairings with the roots, one byte per
    root (for v_j, the alpha_j-coordinates of the roots), so s moves it by
    one ``translate``.
    """
    order = prod(rs.degrees)
    n = rs.model_dim
    width = rs.rank   # bytes per key
    positive = [_int_vector(r) for r in rs.positive_roots]
    roots = tuple(positive + [tuple(-x for x in r) for r in positive])
    if len(roots) > 256:
        raise ValueError(f"{len(roots)} roots do not fit in one-byte root indices")
    where = {r: k for k, r in enumerate(roots)}
    pad = bytes(range(len(roots), 256))
    perms = []   # root permutations of the simple reflections, 256 bytes each
    for i, g in enumerate(rs.reflections):
        mat = _decode(g, n)
        perms.append(bytes(where[tuple(sum(map(mul, row, r)) for row in mat)] for r in roots) + pad)
        if len(set(perms[-1])) != 256:
            raise AssertionError(f"s_{i + 1} does not permute the roots")
    unit = bytes(range(256))   # the identity permutation
    zeros = bytes(256 - len(roots))
    coords = bytes(x & 0xFF for a in rs.positive_alpha for x in a)   # row by row, mod 256
    identity = bytes(where[_int_vector(a)] for a in rs.simple_roots)
    keys = bytearray(identity)
    table = KeyTable(keys, width)   # reads the keys as they grow
    parent = array("I", [0])
    last = array("B", [0])
    for j in range(rs.rank):
        prefix = bytes(keys)   # the group of the previous level, the first block
        m = len(prefix) // width
        # <s v, root_b> = <v, s root_b>: s sends the pairings P to b -> P[perm_s[b]]
        column = coords[j::rs.rank]   # the alpha_j-coordinates of the positive roots
        start = column + column.translate(_NEGATE) + zeros
        # the prefix fixes v_j, so block p sends v_j to p and blocks of distinct points are
        # disjoint; an s_i moving v_j would make the block of s_i v_j the prefix again
        if any(perms[i].translate(start) != start for i in range(j)):
            raise AssertionError(f"Weyl enumeration repeats an element at level {j + 1}")
        orbit = [start]
        points = {start: 0}
        reps = [unit]   # root permutation of the representative of each point
        for d, point in enumerate(orbit):   # point d's block is keys d * m .. (d + 1) * m - 1
            for s in range(j + 1):
                image = perms[s].translate(point)
                e = points.setdefault(image, len(orbit))
                if e == len(orbit):   # a new point; its block is s applied to block d
                    orbit.append(image)
                    if m * (e + 1) > order:
                        raise AssertionError(f"Weyl enumeration passed |W| = {order}")
                    reps.append(reps[d].translate(perms[s]))
                    keys += prefix.translate(reps[e])
                    parent.extend(range(d * m, (d + 1) * m))
                    last.frombytes(bytes((s,)) * m)
                # closure: s d_p lies in the block of s p, i.e. d_(s p)^-1 s d_p is in the prefix
                rep = keys[d * m * width:(d * m + 1) * width].translate(perms[s])
                if table.find(rep, e * m, (e + 1) * m) < 0:
                    raise AssertionError(
                        f"Weyl enumeration is not closed under s_{s + 1} at level {j + 1}")
    if len(keys) != order * width:
        raise AssertionError(f"enumerated order {len(keys) // width} != |W| = {order}")
    generators = [identity.translate(p) for p in perms]
    return WeylGroup(rs, roots, bytes(keys), parent, last, generators)


@dataclass
class SatakeDiagram:
    arrows: tuple  # pairs of 1-based node indices

    def __post_init__(self):
        if not isinstance(self.arrows, (list, tuple)):
            raise ValueError(f"arrows must be a list or tuple of node pairs, got {self.arrows!r}")
        seen = set()
        for a in self.arrows:
            if not (isinstance(a, (list, tuple)) and len(a) == 2 and all(map(_is_int, a))):
                raise ValueError(f"arrow {a!r} must join two integer nodes")
            i, j = a
            if i == j:
                raise ValueError(f"an arrow must join two distinct nodes, got {(i, j)}")
            for x in (i, j):
                if x in seen:
                    raise ValueError(f"arrows must be disjoint: node {x} is in two arrows")
                seen.add(x)
        object.__setattr__(self, "arrows", tuple((i, j) for i, j in self.arrows))


def satake_subspaces(rs: RootSystem, diagram: SatakeDiagram):
    """t0, the span of the arrow differences alpha_i - alpha_j, as a list of vectors."""
    for i, j in diagram.arrows:
        if not (1 <= i <= rs.rank and 1 <= j <= rs.rank):
            raise ValueError(f"arrow ({i},{j}) outside the diagram")
    t0 = [
        tuple(rs.simple_roots[i - 1][t] - rs.simple_roots[j - 1][t] for t in range(rs.model_dim))
        for i, j in diagram.arrows
    ]
    if t0 and rank(Matrix.from_columns(t0)) != len(t0):
        raise ValueError("arrow differences are dependent")
    return t0


@dataclass
class W0Report:
    order_w: int
    order_n: int
    order_z: int
    order_w0: int
    matrices: list            # exact action matrices on the t0 basis
    element_orders: dict      # multiplicative order -> count

    @property
    def orders(self):
        return (self.order_w, self.order_n, self.order_z, self.order_w0)


def _t0_images(expansions, key, roots) -> tuple:
    """D w(u) = sum_i C_i w(alpha_i) + F in integers, for each t0 expansion (C, F, _)."""
    out = []
    for coeffs, fixed, _ in expansions:
        img = list(fixed)
        for x, k in zip(coeffs, key):
            for t, y in enumerate(roots[k]):
                img[t] += x * y
        out.append(tuple(img))
    return tuple(out)


def _check_t0(t0_basis, n: int) -> None:
    """A ``ValueError`` for an empty t0 basis, or naming the first t0 vector not of n entries."""
    if not t0_basis:
        raise ValueError("the t0 basis is empty")
    for k, u in enumerate(t0_basis):
        _check_length(f"t0 vector {k}", len(u), n, "entries")


def w0_compute(W: WeylGroup, t0_basis) -> W0Report:
    """N_W(t0), Z_W(t0), and the induced action W0 = N/Z on t0.

    Membership in N is decided in integers.  Each t0 vector u is written
    once as sum_i c_i alpha_i + f with f orthogonal to the roots, hence
    fixed by W, and scaled to integers; then w(u) = sum_i c_i w(alpha_i) + f
    is read off the key and tested against an integer annihilator of t0.
    Only members are projected onto the t0 basis in rationals.  The t0 basis is not
    empty and each vector has ``model_dim`` entries, or a ``ValueError`` says which.
    """
    rs = W.root_system
    _check_t0(t0_basis, rs.model_dim)
    a = len(t0_basis)
    T = Matrix.from_columns(t0_basis)
    proj = inverse(T.transpose() * rs.gram * T) * (T.transpose() * rs.gram)
    S = Matrix.from_columns(rs.simple_roots)
    to_alpha = inverse(S.transpose() * rs.gram * S) * (S.transpose() * rs.gram)
    _, null = rank_and_nullspace(T.transpose())
    annihilator = [clear_denominators(v)[1] for v in null]
    expansions = []   # (C, F, proj / D) with D u = sum_i C_i alpha_i + F in integers
    checks = []       # (C, table lookup, target): w in N iff each sum_i C_i table[w[i]] == target
    for u in zip(*T.rows):  # the t0 vectors under the scalar rule
        c = to_alpha.matvec(u)
        f = tuple(x - y for x, y in zip(u, S.matvec(c)))
        d, scaled = clear_denominators(c + f)
        coeffs, fixed = scaled[: rs.rank], scaled[rs.rank:]
        expansions.append((coeffs, fixed, proj.scale(QQ(1, d))))
        for row in annihilator:
            table = [sum(map(mul, row, root)) for root in W.roots]
            checks.append((coeffs, table.__getitem__, -sum(map(mul, row, fixed))))
    fixed_t0 = _t0_images(expansions, W.elements[0], W.roots)
    n_count = 0
    z_count = 0
    images: dict[tuple, None] = {}   # integer images of the t0 basis, one per W0 element
    for el in zip(*[iter(W.keys)] * rs.rank):   # each key as a tuple of root indices
        for coeffs, lookup, target in checks:
            if sum(map(mul, coeffs, map(lookup, el))) != target:
                break
        else:
            n_count += 1
            key = _t0_images(expansions, el, W.roots)
            if key == fixed_t0:
                z_count += 1
            images[key] = None
    ident = Matrix.identity(a)
    mats = [
        Matrix.from_columns([p.matvec(img) for img, (_, _, p) in zip(key, expansions)])
        for key in images
    ]
    orders: dict[int, int] = {}
    for mat in mats:
        k = 1
        acc = mat
        while acc != ident:
            acc = acc * mat
            k += 1
            if k > 1000:
                raise AssertionError("runaway element order")
        orders[k] = orders.get(k, 0) + 1
    return W0Report(W.order, n_count, z_count, len(mats), mats, orders)


# -- invariants of reflection groups ------------------------------------


def _monomials(nvars, degree):
    """Keys of the degree-``degree`` monomials, in combination order; past degree 255 a key
    would carry into the next variable's byte, so that raises ``ValueError``."""
    if degree > 255:
        raise ValueError(f"degree <= 255 required, got {degree}: exponents are stored in one byte")
    return [sum(_unit(nvars, i) for i in combo)
            for combo in combinations_with_replacement(range(nvars), degree)]


def _monomial_images(m_rows, nvars, degree):
    """Images of the degree-``degree`` monomials under x_i -> row_i . x, in ``_monomials`` order."""
    lin = [Polynomial.linear_form(nvars, m_rows[i]) for i in range(nvars)]
    # keyed by the nondecreasing tuple of variable indices of each monomial
    images: dict[tuple, Polynomial] = {(): Polynomial.constant(nvars, 1)}
    for d in range(1, degree + 1):
        images = {combo: images[combo[1:]] * lin[combo[0]]
                  for combo in combinations_with_replacement(range(nvars), d)}
    return images.values()


def invariant_basis(matrices, degree, nvars):
    """Basis of the degree-``degree`` polynomials fixed by every matrix.

    For the elements or generators of a finite group acting by
    x_i -> row_i . x, this is the kernel of sum_m (m - 1); the module
    docstring gives the argument.  Every basis vector is checked against
    every matrix, so other inputs raise ``AssertionError``, not a wrong space;
    a matrix that is not ``nvars`` x ``nvars`` raises a ``ValueError`` naming it.
    """
    monos = _monomials(nvars, degree)
    pos = {e: i for i, e in enumerate(monos)}
    moves = []   # per matrix, the columns of m - 1 as {row: value}
    total = [[0] * len(monos) for _ in monos]
    for k, m in enumerate(matrices):
        _check_length(f"matrix {k}", m.nrows, nvars, "rows")
        _check_length(f"matrix {k}", m.ncols, nvars, "columns")
        moves.append([{pos[f]: image.coeff(f) for f in image.terms}
                      for image in _monomial_images(m.rows, nvars, degree)])
        for col, column in enumerate(moves[-1]):
            column[col] = column.get(col, 0) - 1
            for row, c in column.items():
                total[row][col] += c
    _, null = rank_and_nullspace(Matrix(total))
    for cols, v in product(moves, null):
        acc = [0] * len(monos)
        for x, column in zip(v, cols):
            for row, c in column.items():
                acc[row] += x * c
        if any(acc):
            raise AssertionError("a matrix moves a vector in the kernel of sum_m (m - 1)")
    return [Polynomial(nvars, {_exponents(e, nvars): c for e, c in zip(monos, v)}) for v in null]


@dataclass
class RestrictionReport:
    per_degree: list          # (degree, restricted image dim, W0-invariant dim)
    first_failure_degree: int | None
    verdict_up_to_dmax: bool
    dmax: int


def _check_dmax(dmax) -> None:
    """A ``ValueError`` unless ``dmax`` is an ``int`` in 1..255: a table of no rows would read
    as onto, and a polynomial key keeps each exponent in one byte."""
    _check_count("dmax", dmax)
    if dmax > 255:
        raise ValueError(f"dmax <= 255 required, got {dmax}: exponents are stored in one byte")


def _orbit(start: tuple, gens) -> list:
    """The orbit of the integer vector ``start`` under the integer matrices ``gens`` (as rows),
    by closure."""
    orbit = [start]
    seen = {start}
    for v in orbit:   # grows while it is walked
        for rows in gens:
            w = tuple(sum(map(mul, row, v)) for row in rows)
            if w not in seen:
                seen.add(w)
                orbit.append(w)
    return orbit


def _fundamental_forms(rs: RootSystem) -> list:
    """For each fundamental weight w_i, a positive integer multiple of the linear form
    x -> <w_i, x>: sum over the positive roots alpha of c_i(alpha) <alpha, x>, with c_i(alpha)
    the alpha_i-coordinate of alpha.  The map T x = sum_alpha <alpha, x> alpha commutes with
    W, so it is a positive multiple of the identity on each irreducible summand of the span
    of the roots (Schur) and kills the fixed part; the form is <T w_i, x> times
    2 / |alpha_i|^2, as <alpha, w_i> = c_i(alpha) |alpha_i|^2 / 2, and w_i is in one summand."""
    g_roots = [tuple(sum(map(mul, row, r)) for row in rs.gram.rows) for r in rs.positive_roots]
    return [tuple(sum(c[i] * v[t] for c, v in zip(rs.positive_alpha, g_roots))
                  for t in range(rs.model_dim))
            for i in range(rs.rank)]


_JACOBIAN_POINTS = 4    # seeded integer points tried for the Jacobian certificate
_POINT_BOUND = 997      # their coordinates lie in [-B, B]


def _basic_invariants(W: WeylGroup, candidates) -> list:
    """Basic invariants of W on the model space, as [(degree, forms)] standing for
    sum_nu (nu . x)^degree: the linear forms that vanish on the simple roots, then per
    fundamental degree, increasing, the first power sum over the W-orbit of a form in
    ``candidates`` whose gradient at the point is independent modulo ``P`` of those
    chosen (the module docstring has the proof).  A point where some degree finds none gives
    way to the next one ``linalg._best_rank`` draws; ``AssertionError`` names the degree
    after the last, and degrees that do not multiply to |W| raise it before any search."""
    rs = W.root_system
    n = rs.model_dim
    if prod(rs.degrees) != W.order:
        raise AssertionError(f"the degrees {rs.degrees} multiply to {prod(rs.degrees)}, "
                             f"not |W| = {W.order}")
    fixed = [(1, [tuple(clear_denominators(v)[1])])
             for v in rank_and_nullspace(Matrix(rs.simple_roots))[1]]
    # forms transform by the transposes: (nu . w x) = (w^T nu) . x
    gens = [W.matrix(g).transpose().rows for g in W.generators]
    orbits, chosen = [], []   # orbits of the candidates, each computed when first tried

    def rank_at(point):
        chosen[:] = fixed   # then the generators this point certifies
        rows = [forms[0] for _, forms in fixed]   # the gradients at the point
        pairings = []   # per orbit, (nu . point) for each nu
        for d in sorted(rs.degrees):
            for k, start in enumerate(candidates):
                if k == len(orbits):
                    orbits.append(_orbit(tuple(start), gens))
                if k == len(pairings):
                    pairings.append([sum(map(mul, nu, point)) for nu in orbits[k]])
                # the gradient of f, divided by d: sum_nu (nu . point)^(d - 1) nu
                weights = [pow(v, d - 1, P) for v in pairings[k]]
                grad = [sum(map(mul, weights, column)) for column in zip(*orbits[k])]
                if rank_mod_p(Matrix(rows + [grad])) > len(rows):
                    rows.append(grad)
                    chosen.append((d, orbits[k]))
                    break
            else:
                break   # no candidate of degree d at this point
        return len(rows)

    if _best_rank(rank_at, n, n, _JACOBIAN_POINTS, 0, _POINT_BOUND)[0] < n:
        d = sorted(rs.degrees)[len(chosen) - len(fixed)]   # where the last point failed
        raise AssertionError(f"no orbit power sum of degree {d} raises the Jacobian rank "
                             f"at any of {_JACOBIAN_POINTS} points")
    return chosen


def _molien_series(matrices, a: int, dmax: int) -> list:
    """[dim C[t0]^W0_d for d = 0..dmax] from the a x a matrices of every W0 element: the
    t^d coefficients of (1/|W0|) sum_g 1/det(1 - t g) (Molien), one series per distinct
    det(1 - t g).  A matrix of another shape raises a ``ValueError`` naming it."""
    dets = Counter()
    for k, g in enumerate(matrices):
        _check_length(f"matrix {k}", g.nrows, a, "rows")
        _check_length(f"matrix {k}", g.ncols, a, "columns")
        # det(1 - t g) = sum_j c_j t^j, by Newton: j c_j = -sum_(i <= j) tr(g^i) c_(j - i);
        # g has finite order, so the c_j are integers and exact() makes them ints
        traces = []
        power = g
        for _ in range(a):
            traces.append(sum(power[i, i] for i in range(a)))
            power = power * g
        c = [1]
        for j in range(1, a + 1):
            c.append(exact(-sum(traces[i - 1] * c[j - i] for i in range(1, j + 1)) / QQ(j)))
        dets[tuple(c)] += 1
    total = [0] * (dmax + 1)
    for c, count in dets.items():
        series = [1]   # the power series of 1 / det(1 - t g)
        for d in range(1, dmax + 1):
            series.append(-sum(c[j] * series[d - j] for j in range(1, min(a, d) + 1)))
        total = [x + count * y for x, y in zip(total, series)]
    dims = [QQ(x, len(matrices)) for x in total]
    if any(x.denominator != 1 for x in dims):
        raise AssertionError("a Molien coefficient is not an integer: W0 is not a group")
    return [x.numerator for x in dims]


def _power_sum_on_t0(forms, d: int, t0_basis) -> Polynomial:
    """sum_nu (nu . x)^d on x = sum_s c_s u_s, in the c_s: nu . x = sum_s (nu . u_s) c_s, so
    t0 goes into each linear form before its power is taken, once per distinct form."""
    a = len(t0_basis)
    one = Polynomial.constant(a, 1)
    on_t0 = Counter(tuple(sum(map(mul, nu, u)) for u in t0_basis) for nu in forms)
    return Polynomial.sum_of_products(a, ((m, one, Polynomial.linear_form(a, ell) ** d)
                                          for ell, m in on_t0.items() if any(ell)))


def restriction_check(W: WeylGroup, t0_basis, w0: W0Report | None = None,
                      dmax: int | None = None, stop_at_failure: bool = True) -> RestrictionReport:
    """Degree-by-degree surjectivity of restriction onto the W0-invariants of t0.

    Soundness is one-sided: a failing degree certifies that restriction is
    not onto (hence no good generating system exists for the matching
    horospherical subalgebra); success only certifies degrees 1..dmax,
    which is recorded in the report.  Both columns are exact: the module
    docstring gives the route and the proof.  A ``dmax`` outside 1..255 would
    certify nothing or overflow an exponent and raises ``ValueError``, as do a
    non-``int`` one and an empty t0 basis.
    """
    rs = W.root_system
    if dmax is None:
        dmax = max(rs.degrees)
    _check_dmax(dmax)
    _check_t0(t0_basis, rs.model_dim)
    if w0 is None:
        w0 = w0_compute(W, t0_basis)
    w0_dims = _molien_series(w0.matrices, len(t0_basis), dmax)
    gens = _basic_invariants(W, _fundamental_forms(rs))
    restricted = []   # (degree, generator on t0) for the nonzero ones, degree by degree
    # products[d]: (product, index of its last factor) for each weighted degree-d monomial
    # in the restricted generators, factors in nondecreasing index
    products = [[(Polynomial.constant(len(t0_basis), 1), 0)]]
    per_degree = []
    first_failure = None
    for d in range(1, dmax + 1):
        for e, forms in gens:
            if e == d and (g := _power_sum_on_t0(forms, d, t0_basis)):
                restricted.append((d, g))
        products.append([(p * g, i) for i, (e, g) in enumerate(restricted) if e <= d
                         for p, j in products[d - e] if j <= i])
        monos = sorted({m for p, _ in products[d] for m in p.terms})
        image_dim = rank(Matrix([[p.coeff(m) for m in monos] for p, _ in products[d]]))
        w0_dim = w0_dims[d]
        if image_dim > w0_dim:
            raise AssertionError("restricted invariants escape the W0-invariants; bug")
        per_degree.append((d, image_dim, w0_dim))
        if image_dim < w0_dim and first_failure is None:
            first_failure = d
            if stop_at_failure:
                break
    return RestrictionReport(per_degree, first_failure, first_failure is None, dmax)
