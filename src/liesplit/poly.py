"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial over ``nvars`` variables is int terms over one denominator,
as in FLINT's ``fmpq_poly``: ``terms`` maps packed exponent keys to
nonzero ``int`` coefficients and the value is terms / ``den``.  The pair
is kept primitive (gcd(den, all coefficients) = 1, den > 0), so den = 1
for an integral polynomial and equal polynomials have equal ``terms`` and
``den``.  The kernels run on ints alone: a sum scales both sides to the
lcm of the denominators, a product multiplies them, and each result is
reduced once; ``mul_terms`` can also add a product into a caller's dict,
so a sum of products builds no dict per product.  Only the polynomial
core (this module, ``_kernels`` and ``poisson``, whose brackets work on
:meth:`~Polynomial.partials` dicts) calls a kernel or ``_of`` or reads the
items or values of ``terms``.  Other code combines polynomials by the
arithmetic, :meth:`~Polynomial.sum_of_products` (c * a * b summed into one
int dict: Newton's identities, substitutions), :func:`laplace_expansion`
(det, Pf and the lambda-graded det(lambda I + A) of a matrix, as from
:meth:`~Polynomial.linear_matrix`) and :meth:`~Polynomial.split_degree` (by degree);
it reads coefficients only through :meth:`~Polynomial.coeff`,
:meth:`~Polynomial.items`, :meth:`~Polynomial.eval`,
:meth:`~Polynomial.canonical` and :meth:`~Polynomial.to_string`, the only
producers of rational values, and :meth:`~Polynomial.int_gradient` (den
times the gradient at an integer point, in ints), and builds only linear keys
(``_unit``).  :meth:`~Polynomial.part_on` and :meth:`~Polynomial.split_degree`
regroup terms by masking keys, the latter through ``_degree_reader``, the one
reader of degrees in a set of variables, which orders ``poisson``'s brackets too.
A key packs the exponent vector into one int, 8 bits per variable, variable 0 in
the most significant byte, over ``nvars`` bytes: a monomial product is one integer
addition, integer order is the order of the exponent bytes, and an exponent stays
at most 255 by one carry rule, ``_kernels._carry_free`` (``mul_terms`` raises
``OverflowError`` past it; a carry-free expansion or bracket runs ``mul_add_terms``).
Coefficients and points enter through :func:`liesplit.rationals.scalar`,
which rejects ``float``; the constructor takes {exponent sequence:
coefficient} maps.  Values are immutable by convention (no caller of
``_of`` changes a terms dict it handed over), which lets a polynomial keep
its partial derivatives once taken (:meth:`Polynomial.partials`).  The zero
polynomial has no terms, den = 1, and degree ``None``.
"""

from __future__ import annotations

from functools import cache, lru_cache, reduce
from math import gcd, lcm
from operator import mul, or_
from typing import Iterable, Sequence

from . import _kernels as K
from .rationals import (QQ, _check_count, _check_int, _check_length, _indices, _is_int,
                        clear_denominators, exact, qq_str, scalar)


def _unit(nvars: int, i: int) -> int:
    """Key of the monomial ``x_i``."""
    return 1 << 8 * (nvars - 1 - i)


def _exponents(key: int, nvars: int) -> bytes:
    """The exponent vector of a key, one byte per variable."""
    return key.to_bytes(nvars, "big")


@cache
def _degree_reader(nvars: int, variables: tuple | None = None):
    """keys -> [the degree of each in ``variables`` (None: all)]: (k & E) + ((k >> 8) & E), E
    the alternate bytes masked to the slots of ``variables``, holds byte pairs in 16-bit lanes
    summed mod 65535 = 2^16 - 1, exact to 256 variables.  Built once per (nvars, variables)."""
    slots = range(nvars) if variables is None else variables
    mask = sum(0xFF * _unit(nvars, i) for i in slots)  # the exponent slots of ``variables``
    if nvars > 256:
        return lambda keys: [sum(_exponents(k & mask, nvars)) for k in keys]
    E = 255 * ((1 << 16 * ((nvars + 1) // 2)) - 1) // 65535
    low, high = mask & E, mask >> 8 & E
    return lambda keys: [((k & low) + (k >> 8 & high)) % 65535 for k in keys]


def _pack(e, nvars: int) -> int:
    """Packed key of an exponent sequence of length ``nvars``, each an ``int`` in 0..255."""
    if isinstance(e, int):
        raise TypeError(f"exponent {e!r} must be a sequence of {nvars} exponents")
    if not isinstance(e, bytes):
        for i, k in enumerate(e):
            _check_int(f"exponent of variable {i}", k)
            if not 0 <= k < 256:
                raise ValueError(f"exponent {k} of variable {i} is outside 0..255")
        e = bytes(e)
    _check_length("exponent vector", len(e), nvars, "exponents")
    return int.from_bytes(e, "big")


def _reduced(terms: dict, den: int) -> tuple:
    """(terms, den) divided by gcd(den, content): the primitive form of terms / den."""
    g = gcd(den, *terms.values())
    return (terms, den) if g == 1 else ({e: c // g for e, c in terms.items()}, den // g)


class Polynomial:
    __slots__ = ("nvars", "terms", "den", "_partials")

    def __init__(self, nvars: int, terms=None):
        """The polynomial of a {exponent sequence: exact scalar} map (repeated keys add up)."""
        _check_count("nvars", nvars, 0)
        self.nvars = nvars
        clean = {}
        for e, c in (terms or {}).items():
            e = _pack(e, nvars)
            clean[e] = clean.get(e, 0) + scalar(c)
        clean = {e: c for e, c in clean.items() if c}
        self.den, ints = clear_denominators(clean.values())
        self.terms = dict(zip(clean, ints))

    @classmethod
    def _of(cls, nvars: int, terms: dict, den: int = 1) -> "Polynomial":
        """terms / den from nonzero int ``terms`` and a positive ``den``, made primitive."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms, p.den = _reduced(terms, den) if den != 1 else (terms, 1)
        return p

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        _check_count("nvars", nvars, 0)
        return cls(nvars, {bytes(nvars): c})

    @classmethod
    def variable(cls, nvars: int, i: int, coeff=1) -> "Polynomial":
        return cls.monomial(nvars, {i: 1}, coeff)

    @classmethod
    def monomial(cls, nvars: int, exps, coeff=1) -> "Polynomial":
        """``exps`` is a mapping var->exponent or a full exponent sequence of length nvars."""
        _check_count("nvars", nvars, 0)
        e = [0] * nvars
        for i, k in exps.items() if isinstance(exps, dict) else enumerate(exps):
            _check_int("variable", i)
            if not 0 <= i < nvars:
                raise ValueError(f"variable {i} outside 0..{nvars - 1}")
            e[i] = k
        # a sequence is packed as given, so a short one meets the constructor's length check
        return cls(nvars, {tuple(e if isinstance(exps, dict) else exps): coeff})

    @classmethod
    def linear_matrix(cls, nvars: int, mats: Sequence[dict]) -> dict:
        """{(r, c): sum_b mats[b][r, c] x_b} over the cells some matrix holds, from one sparse
        {(r, c): nonzero exact scalar} matrix per variable."""
        _check_length("linear_matrix", len(mats), nvars, "matrices")
        cells: dict = {}
        for b, m in enumerate(mats):
            for rc, v in m.items():
                cells.setdefault(rc, {})[_unit(nvars, b)] = scalar(v)
        return {rc: cls._of(nvars, dict(zip(t, ints)), d)
                for rc, t in cells.items() for d, ints in [clear_denominators(t.values())]}

    @classmethod
    def linear_form(cls, nvars: int, coeffs: Sequence) -> "Polynomial":
        """sum_i coeffs[i] x_i: one coefficient per variable, a short list is not padded."""
        _check_length("linear_form", len(coeffs), nvars, "coefficients")
        d, ints = clear_denominators(scalar(c) for c in coeffs)
        return cls._of(nvars, {_unit(nvars, i): c for i, c in enumerate(ints) if c}, d)

    # -- basic queries ------------------------------------------------
    def items(self):
        """Yield (exponent bytes, coefficient as ``QQ``) for every term."""
        n, d = self.nvars, self.den
        for e, c in self.terms.items():
            yield _exponents(e, n), QQ(c, d)

    def coeff(self, key: int):
        """The coefficient of the packed key ``key`` (zero when absent), under the scalar rule."""
        c = self.terms.get(key, 0)
        return c if self.den == 1 else exact(QQ(c, self.den))

    def _degrees(self, variables: tuple | None = None) -> list:
        """The degree of each term in ``variables`` (None: all), in the order of ``terms``."""
        return _degree_reader(self.nvars, variables)(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree, or ``None`` for the zero polynomial."""
        if not self.terms:
            return None
        return max(self._degrees())

    def is_homogeneous(self) -> bool:
        return len(set(self._degrees())) <= 1

    def split_degree(self, variables) -> dict:
        """{k: the part of self of degree k in ``variables``}, nonzero parts only, k increasing;
        a ``ValueError`` names the first entry that is not a variable or repeats one."""
        n = self.nvars
        variables = _indices("split_degree:", variables, n, "variable index")
        parts: dict = {}
        for k, (e, c) in zip(self._degrees(variables), self.terms.items()):
            parts.setdefault(k, {})[e] = c
        return {k: Polynomial._of(n, t, self.den) for k, t in sorted(parts.items())}

    def support_vars(self) -> set:
        used = _exponents(reduce(or_, self.terms, 0), self.nvars)
        return {i for i, k in enumerate(used) if k}

    # -- arithmetic ---------------------------------------------------
    def _plus(self, other, sign: int) -> "Polynomial":
        """self + sign * other over the least common denominator."""
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        _check_length("operand", other.nvars, self.nvars, "variables")
        da, db = self.den, other.den
        if da == db:
            out = dict(self.terms)
        else:
            m = lcm(da, db)
            out = {e: c * (m // da) for e, c in self.terms.items()}
            sign *= m // db
            da = m
        K.axpy_terms(out, other.terms, sign)
        return Polynomial._of(self.nvars, out, da)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.nvars, {e: -c for e, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            _check_length("factor", other.nvars, self.nvars, "variables")
            if not (self.terms and other.terms):
                return Polynomial.zero(self.nvars)
            return Polynomial._of(self.nvars, K.mul_terms(self.terms, other.terms, self.nvars),
                                  self.den * other.den)
        return self.scale(other)

    __rmul__ = __mul__

    @classmethod
    def sum_of_products(cls, nvars: int, products) -> "Polynomial":
        """Sum c * a * b over the (int c, Polynomial a, Polynomial b) ``products``, taken one
        at a time (a generator can build each factor when it is needed) into one int dict
        over the running lcm of the a.den * b.den, rescaled in place only when it grows; c
        and the denominator ratio go on the smaller factor, zeros are dropped once at the end."""
        acc: dict = {}
        den = 1  # acc / den is the sum so far
        for c, a, b in products:
            _check_int("sum_of_products: c", c)
            _check_length("sum_of_products: a", a.nvars, nvars, "variables")
            _check_length("sum_of_products: b", b.nvars, nvars, "variables")
            if not (c and a.terms and b.terms):
                continue
            d = a.den * b.den
            if den % d:
                m = lcm(den, d)
                up = m // den
                for e in acc:
                    acc[e] *= up
                den = m
            c *= den // d
            small, big = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
            K.mul_terms(small if c == 1 else {e: v * c for e, v in small.items()}, big, nvars, acc)
        for e in [e for e, v in acc.items() if not v]:  # in place: no second copy of acc
            del acc[e]
        return cls._of(nvars, acc, den)

    def scale(self, c) -> "Polynomial":
        c = scalar(c)
        if not c:
            return Polynomial.zero(self.nvars)
        num = c.numerator  # 1 shares the terms: a value is never changed in place
        return Polynomial._of(self.nvars, self.terms if num == 1 else
                              {e: v * num for e, v in self.terms.items()}, self.den * c.denominator)

    def __pow__(self, k: int) -> "Polynomial":
        if not _is_int(k) or k < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus -----------------------------------------------------
    def diff(self, var: int) -> "Polynomial":
        _indices("diff:", (var,), self.nvars, "variable index")
        return Polynomial._of(self.nvars, K.diff_terms(self.terms, var, self.nvars), self.den)

    def partials(self) -> dict:
        """{i: int terms of den * d self/d x_i} for every variable i that self uses, in
        increasing i; taken once per polynomial and kept, so not to be mutated."""
        try:
            return self._partials
        except AttributeError:
            n, t = self.nvars, self.terms
            self._partials = {i: K.diff_terms(t, i, n) for i in sorted(self.support_vars())}
            return self._partials

    def int_gradient(self, point: Sequence[int]) -> list:
        """[den * d self/d x_i at the integer ``point`` for each i], ints, in one pass over
        the terms: a term's partial derivatives share prefix and suffix products of its
        factors x_j^k_j.  Each coordinate is an ``int`` under the integer rule."""
        n = self.nvars
        _check_length("point", len(point), n, "coordinates")
        for i, x in enumerate(point):
            _check_int(f"point coordinate {i}", x)
        grad = [0] * n
        factors: dict = {}  # (i, k) -> (i, k * point[i] ** (k - 1), point[i] ** k)
        for e, c in self.terms.items():
            fs = []
            for ik in enumerate(_exponents(e, n)):
                if ik[1]:
                    f = factors.get(ik)
                    if f is None:
                        i, k = ik
                        low = point[i] ** (k - 1)
                        f = factors[ik] = (i, k * low, low * point[i])
                    fs.append(f)
            after = [1] * len(fs)  # after[j]: the product of the factor values past j
            for j in range(len(fs) - 1, 0, -1):
                after[j - 1] = after[j] * fs[j][2]
            before = c  # c times the product of the factor values ahead of j
            for (i, d, v), a in zip(fs, after):
                grad[i] += before * d * a
                before *= v
        return grad

    def eval(self, point: Sequence):
        n = self.nvars
        _check_length("point", len(point), n, "coordinates")
        pow_cache: dict[tuple[int, int], object] = {}  # only the coordinates used are read
        total = 0
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(_exponents(e, n)):
                if k:
                    p = pow_cache.get((i, k))
                    if p is None:
                        p = scalar(point[i]) ** k
                        pow_cache[(i, k)] = p
                    v = v * p
            total = total + v
        return QQ(total, self.den)

    # -- substitution -------------------------------------------------
    def map_vars(self, images: Sequence["Polynomial"], target_nvars: int) -> "Polynomial":
        """Substitute every variable ``x_i`` by ``images[i]`` (over ``target_nvars``)."""
        _check_length("map_vars", len(images), self.nvars, "images")
        for i, im in enumerate(images):
            _check_length(f"image {i}", im.nvars, target_nvars, "variables")
        n = self.nvars
        # the exponent slots of variables sent to zero: a term using one contributes nothing
        dead = sum(0xFF * _unit(n, i) for i, im in enumerate(images) if not im.terms)
        power = lru_cache(maxsize=None)(lambda i, k: images[i] ** k)

        def products():  # c x^e -> (c, its factors but the last, the last)
            one = Polynomial.constant(target_nvars, 1)
            for e, c in self.terms.items():
                if not e & dead:
                    fs = [power(i, k) for i, k in enumerate(_exponents(e, n)) if k] or [one]
                    yield c, reduce(mul, fs[:-1]) if len(fs) > 1 else one, fs[-1]

        out = Polynomial.sum_of_products(target_nvars, products())
        return out if self.den == 1 else out.scale(QQ(1, self.den))

    def lift(self, new_nvars: int) -> "Polynomial":
        """Reinterpret over ``new_nvars`` >= ``nvars`` variables, the new ones last."""
        _check_count("lift: new_nvars", new_nvars, self.nvars)
        shift = 8 * (new_nvars - self.nvars)
        return Polynomial._of(new_nvars, {e << shift: c for e, c in self.terms.items()}, self.den)

    def part_on(self, keep: Sequence[int]) -> "Polynomial":
        """The terms supported on the variables ``keep``, reindexed onto them (``keep[j]``
        becomes x_j): self with every other variable set to zero, over len(keep) variables;
        a ``ValueError`` names the first entry that is not a variable or repeats one."""
        n = self.nvars
        keep = _indices("part_on:", keep, n, "variable index")
        others = (1 << 8 * n) - 1 - sum(0xFF * _unit(n, i) for i in keep)
        out = {}
        for e, c in self.terms.items():
            if not e & others:
                ex = _exponents(e, n)
                out[int.from_bytes(bytes(ex[i] for i in keep), "big")] = c
        return Polynomial._of(len(keep), out, self.den)

    # -- normalisation and display -------------------------------------
    def canonical(self):
        """Return (monic polynomial, scalar) with self = scalar * monic.

        The normalising coefficient is the one attached to the largest
        packed exponent key, so proportional polynomials collapse to
        the same canonical form.
        """
        if not self.terms:
            return self, QQ(1)
        c = QQ(self.terms[max(self.terms)], self.den)
        return self.scale(1 / c), c

    def to_string(self, names: Iterable[str] | None = None) -> str:
        if not self.terms:
            return "0"
        n = self.nvars
        names = list(names) if names is not None else [f"x{i}" for i in range(n)]
        parts = []
        for d, e in sorted(zip(self._degrees(), self.terms), reverse=True):
            c = self.coeff(e)
            factors = []
            for i, k in enumerate(_exponents(e, n)):
                if k == 1:
                    factors.append(names[i])
                elif k > 1:
                    factors.append(f"{names[i]}^{k}")
            if not factors:
                parts.append(qq_str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(qq_str(c) + "*" + "*".join(factors))
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            # only an exact scalar is a constant: a 'num/den' string would equal it and hash
            # apart, and a float or a bool is not a scalar at all
            if type(other) not in (int, QQ):
                return NotImplemented
            if other == 0:
                return not self.terms
            other = Polynomial.constant(self.nvars, other)
        return self.nvars == other.nvars and self.den == other.den and self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() <= {0}:  # a constant equals its value, so it hashes as it
            return hash(QQ(self.terms.get(0, 0), self.den))
        return hash((self.nvars, self.den, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.to_string()})"


def laplace_expansion(nvars: int, size: int, cells: dict, pfaffian: bool, powers) -> dict:
    """{0: det A}, or with ``pfaffian`` {0: Pf A}, for the size x size matrix A of the nonzero
    ``cells`` {(r, c): Polynomial}; with a set ``powers`` (not None), {k: [lambda^k]
    det(lambda I + A)} for k in it; a zero has no key.  One first-row expansion of int terms
    over d, the dens' lcm, graded {lambda-degree: terms}.  A subproblem is the bitmask U of
    the columns (Pf: indices) used; its row is the next (Pf: the least index not in U), and
    the step to column j has the sign of the parity of the free columns below j.  Met in the
    middle: the lower levels are built bottom up, each dropping the last, the top ones down to
    coefficients, and each minor at half depth only for its coefficient, in ``powers``.  A
    product takes one cell per row: all are ``mul_add_terms`` when one OR of keys per row is
    ``_kernels._carry_free``, else ``mul_terms`` with its ``OverflowError``.
    A det takes its rows from both ends inward, which on the builders' realizations (upper and
    lower triangles, Cartan on the diagonal) makes up to a quarter fewer term products."""
    at = [min(2 * r, 2 * size - 1 - 2 * r) for r in range(size)]  # r in the order 0, N-1, 1, ..
    cells = ({rc: p for rc, p in cells.items() if rc[0] < rc[1]} if pfaffian  # Pf: i < j
             else {(at[r], at[c]): p for (r, c), p in cells.items()})  # P A P^T: the same det
    d = lcm(*(p.den for p in cells.values()))
    graded = {rc: {0: p.terms if p.den == d else {e: v * (d // p.den) for e, v in p.terms.items()}}
              for rc, p in cells.items()}
    for r in range(size) if powers is not None else ():
        graded.setdefault((r, r), {})[1] = {0: d}  # lambda d
    rows: list = [[] for _ in range(size)]  # (column bit, d A[r][c], -d A[r][c]), graded
    for (r, c), g in sorted(graded.items()):
        rows[r].append((1 << c, g, {k: {e: -v for e, v in t.items()} for k, t in g.items()}))
    bounds = (reduce(or_, (e for _, g, _ in row for e in g.get(0, ())), 0) for row in rows)
    kernel = K.mul_add_terms if K._carry_free(nvars, bounds) else K.mul_terms

    @cache
    def moves(U):  # [(signed cell, U with its column)] over the nonzero cells of U's row
        if pfaffian:
            low = ~U & (U + 1)
            U, r = U | low, low.bit_length() - 1
        else:
            r = U.bit_count()
        return [((neg if (~U & (bit - 1)).bit_count() & 1 else pos), U | bit)
                for bit, pos, neg in rows[r] if not U & bit]

    def clean(g):  # zero coefficients and empty degrees dropped
        return {k: t for k, u in g.items()
                if (t := {e: v for e, v in u.items() if v} if 0 in u.values() else u)}

    def pull(U, steps, table):  # the sum of cell * table[V] over the (cell, V) steps of U
        acc: dict = {}
        for g, V in steps(U):
            if V in table:
                for i, x in g.items():
                    for j, y in table[V].items():
                        kernel(x, y, nvars, acc.setdefault(i + j, {}))
        return clean(acc)

    levels = size // 2 if pfaffian else size
    depth = levels // 2
    reach, back = [[0]], {}  # the reachable subproblems by level; back[V]: the steps into V
    for _ in range(levels):
        for U in reach[-1]:
            for g, V in moves(U):
                back.setdefault(V, []).append((g, U))
        reach.append(list(dict.fromkeys(V for U in reach[-1] for _, V in moves(U))))
    one = {0: {0: 1}}
    built = dict.fromkeys(reach[levels], one)
    for level in reversed(reach[depth + 1:levels]):  # the bottom up, each level dropping the last
        built = {U: m for U in level if (m := pull(U, moves, built))}
    coeffs = {0: one}
    for level in reach[1:depth + 1]:  # the top down
        coeffs = {V: c for V in level if (c := pull(V, back.__getitem__, coeffs))}
    out: dict = {}
    for U, c in coeffs.items():  # each minor at depth built for its coefficient alone
        m = pull(U, moves, built) if depth < levels else one
        for i, x in c.items():
            for j, y in m.items():
                if powers is None or i + j in powers:
                    kernel(x, y, nvars, out.setdefault(i + j, {}))
    return {k: Polynomial._of(nvars, t, d**levels) for k, t in sorted(clean(out).items())}
