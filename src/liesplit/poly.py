"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial over ``nvars`` variables stores ``terms``, a map from packed
exponent keys to nonzero coefficients.  A key packs the exponent vector
into one int, 8 bits per variable, variable 0 in the most significant
byte, over a fixed width of ``nvars`` bytes, so individual exponents stay
below 256 (a product past 255 raises ``OverflowError``), a monomial
product is one integer addition, and integer order equals the order of the
exponent bytes.  Outside the polynomial core (this module and
``_kernels``), code builds and reads keys only through ``_unit`` and
``_exponents``.  A coefficient is an ``int`` when it is integral and a
``Fraction`` otherwise (:func:`liesplit.rationals.exact`); coefficients
and points enter through :func:`liesplit.rationals.scalar`, which rejects
``float``.  The public interface speaks exponent sequences and ``QQ``
scalars: the constructor takes {exponent sequence: coefficient} maps and
:meth:`Polynomial.items` yields (exponent bytes, ``QQ``) pairs.  Values
are immutable by convention: every operation returns a fresh polynomial.
The zero polynomial has an empty term map and reports its degree as
``None``.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterable, Sequence

from . import _kernels as K
from .rationals import QQ, exact, qq_str, scalar


def _unit(nvars: int, i: int) -> int:
    """Key of the monomial ``x_i``."""
    return 1 << 8 * (nvars - 1 - i)


def _exponents(key: int, nvars: int) -> bytes:
    """The exponent vector of a key, one byte per variable."""
    return key.to_bytes(nvars, "big")


def _pack(e, nvars: int) -> int:
    """Packed key of an exponent sequence of length ``nvars``."""
    if isinstance(e, int):
        raise TypeError(f"exponent {e!r} must be a sequence of {nvars} exponents")
    e = bytes(e)
    if len(e) != nvars:
        raise ValueError(f"exponent vector {e!r} has length {len(e)}, expected {nvars}")
    return int.from_bytes(e, "big")


class Polynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None, _clean: bool = False):
        self.nvars = nvars
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            clean = {}
            for e, c in terms.items():
                e = _pack(e, nvars)
                c = clean.get(e, 0) + scalar(c)
                if c:
                    clean[e] = exact(c)
                else:
                    clean.pop(e, None)
            self.terms = clean

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {}, _clean=True)

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        c = scalar(c)
        if not c:
            return cls.zero(nvars)
        return cls(nvars, {0: c}, _clean=True)

    @classmethod
    def variable(cls, nvars: int, i: int, coeff=1) -> "Polynomial":
        return cls.monomial(nvars, {i: 1}, coeff)

    @classmethod
    def monomial(cls, nvars: int, exps, coeff=1) -> "Polynomial":
        """``exps`` is a mapping var->exponent or a full exponent sequence."""
        coeff = scalar(coeff)
        if not coeff:
            return cls.zero(nvars)
        e = bytearray(nvars)
        if isinstance(exps, dict):
            for i, k in exps.items():
                e[i] = k
        else:
            for i, k in enumerate(exps):
                e[i] = k
        return cls(nvars, {int.from_bytes(e, "big"): coeff}, _clean=True)

    @classmethod
    def linear_form(cls, nvars: int, coeffs: Sequence) -> "Polynomial":
        terms = {}
        for i, c in enumerate(coeffs):
            c = scalar(c)
            if c:
                terms[_unit(nvars, i)] = c
        return cls(nvars, terms, _clean=True)

    # -- basic queries ------------------------------------------------
    def items(self):
        """Yield (exponent bytes, coefficient as ``QQ``) for every term."""
        n = self.nvars
        for e, c in self.terms.items():
            yield _exponents(e, n), QQ(c)

    def _degrees(self):
        n = self.nvars
        return (sum(_exponents(e, n)) for e in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree, or ``None`` for the zero polynomial."""
        if not self.terms:
            return None
        return max(self._degrees())

    def is_homogeneous(self) -> bool:
        return len(set(self._degrees())) <= 1

    def homogeneous_components(self) -> dict:
        """Map total degree -> homogeneous part."""
        parts: dict[int, dict] = {}
        for d, (e, c) in zip(self._degrees(), self.terms.items()):
            parts.setdefault(d, {})[e] = c
        return {d: Polynomial(self.nvars, t, _clean=True) for d, t in sorted(parts.items())}

    def support_vars(self) -> set:
        used = _exponents(reduce(or_, self.terms, 0), self.nvars)
        return {i for i, k in enumerate(used) if k}

    # -- arithmetic ---------------------------------------------------
    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        K.axpy_terms(out, other.terms, 1)
        return Polynomial(self.nvars, out, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        K.axpy_terms(out, other.terms, -1)
        return Polynomial(self.nvars, out, _clean=True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            if not (self.terms and other.terms):
                return Polynomial.zero(self.nvars)
            return Polynomial(self.nvars, K.mul_terms(self.terms, other.terms, self.nvars), _clean=True)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = scalar(c)
        if not c:
            return Polynomial.zero(self.nvars)
        return Polynomial(self.nvars, {e: exact(v * c) for e, v in self.terms.items()}, _clean=True)

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
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
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range for {self.nvars} variables")
        return Polynomial(self.nvars, K.diff_terms(self.terms, var, self.nvars), _clean=True)

    def eval(self, point: Sequence):
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        n = self.nvars
        point = [scalar(p) for p in point]
        pow_cache: dict[tuple[int, int], object] = {}
        total = 0
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(_exponents(e, n)):
                if k:
                    p = pow_cache.get((i, k))
                    if p is None:
                        p = point[i] ** k
                        pow_cache[(i, k)] = p
                    v = v * p
            total = total + v
        return QQ(total)

    # -- substitution -------------------------------------------------
    def map_vars(self, images: Sequence["Polynomial"], target_nvars: int) -> "Polynomial":
        """Substitute every variable ``x_i`` by ``images[i]`` (over ``target_nvars``)."""
        if len(images) != self.nvars:
            raise ValueError("one image per variable is required")
        for im in images:
            if im.nvars != target_nvars:
                raise ValueError("images must live in the target variable space")
        n = self.nvars
        pow_cache: dict[tuple[int, int], Polynomial] = {}
        out: dict = {}
        one = Polynomial.constant(target_nvars, 1)
        for e, c in self.terms.items():
            piece = one
            for i, k in enumerate(_exponents(e, n)):
                if k:
                    p = pow_cache.get((i, k))
                    if p is None:
                        p = images[i] ** k
                        pow_cache[(i, k)] = p
                    piece = piece * p
            K.axpy_terms(out, piece.terms, c)
        return Polynomial(target_nvars, out, _clean=True)

    def substitute(self, images: dict) -> "Polynomial":
        """Substitute selected variables; unmapped variables stay themselves."""
        full = [images.get(i, Polynomial.variable(self.nvars, i)) for i in range(self.nvars)]
        return self.map_vars(full, self.nvars)

    def lift(self, new_nvars: int, offset: int = 0) -> "Polynomial":
        """Reinterpret over a larger variable space, shifting indices by ``offset``."""
        if offset + self.nvars > new_nvars:
            raise ValueError("lift target too small")
        shift = 8 * (new_nvars - offset - self.nvars)
        return Polynomial(new_nvars, {e << shift: c for e, c in self.terms.items()}, _clean=True)

    def restrict_vars(self, keep: Sequence[int]) -> "Polynomial":
        """Reindex onto the variables ``keep``; fails if other variables occur."""
        n = self.nvars
        pos = {v: i for i, v in enumerate(keep)}
        out = {}
        for e, c in self.terms.items():
            e2 = bytearray(len(keep))
            for i, k in enumerate(_exponents(e, n)):
                if k:
                    if i not in pos:
                        raise ValueError(f"variable {i} occurs but is not kept")
                    e2[pos[i]] = k
            out[int.from_bytes(e2, "big")] = c
        return Polynomial(len(keep), out, _clean=True)

    # -- normalisation and display -------------------------------------
    def canonical(self):
        """Return (monic polynomial, scalar) with self = scalar * monic.

        The normalising coefficient is the one attached to the largest
        packed exponent key, so proportional polynomials collapse to
        the same canonical form.
        """
        if not self.terms:
            return self, QQ(1)
        c = QQ(self.terms[max(self.terms)])
        return self.scale(1 / c), c

    def to_string(self, names: Iterable[str] | None = None) -> str:
        if not self.terms:
            return "0"
        n = self.nvars
        names = list(names) if names is not None else [f"x{i}" for i in range(n)]
        parts = []
        for d, e in sorted(zip(self._degrees(), self.terms), reverse=True):
            c = self.terms[e]
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
            if other == 0:
                return not self.terms
            return self.terms == Polynomial.constant(self.nvars, other).terms
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.to_string()})"
