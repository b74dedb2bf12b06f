"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial over ``nvars`` variables stores a map from packed exponent
vectors (``bytes``, one byte per variable, so individual exponents stay
below 256) to nonzero rationals.  Values are immutable by convention:
every operation returns a fresh polynomial.  The zero polynomial has an
empty term map and reports its degree as ``None``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import _kernels as K
from .rationals import QQ, QQ0, QQ1, qq_str


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
                e = bytes(e)
                if len(e) != nvars:
                    raise ValueError(f"exponent vector {e!r} has length {len(e)}, expected {nvars}")
                c = QQ(c)
                if c:
                    clean[e] = clean.get(e, QQ0) + c
                    if not clean[e]:
                        del clean[e]
            self.terms = clean

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {}, _clean=True)

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        c = QQ(c)
        if not c:
            return cls.zero(nvars)
        return cls(nvars, {bytes(nvars): c}, _clean=True)

    @classmethod
    def variable(cls, nvars: int, i: int, coeff=1) -> "Polynomial":
        return cls.monomial(nvars, {i: 1}, coeff)

    @classmethod
    def monomial(cls, nvars: int, exps, coeff=1) -> "Polynomial":
        """``exps`` is a mapping var->exponent or a full exponent sequence."""
        coeff = QQ(coeff)
        if not coeff:
            return cls.zero(nvars)
        e = bytearray(nvars)
        if isinstance(exps, dict):
            for i, k in exps.items():
                e[i] = k
        else:
            for i, k in enumerate(exps):
                e[i] = k
        return cls(nvars, {bytes(e): coeff}, _clean=True)

    @classmethod
    def linear_form(cls, nvars: int, coeffs: Sequence) -> "Polynomial":
        terms = {}
        for i, c in enumerate(coeffs):
            c = QQ(c)
            if c:
                e = bytearray(nvars)
                e[i] = 1
                terms[bytes(e)] = c
        return cls(nvars, terms, _clean=True)

    # -- basic queries ------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree, or ``None`` for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_components(self) -> dict:
        """Map total degree -> homogeneous part."""
        parts: dict[int, dict] = {}
        for e, c in self.terms.items():
            parts.setdefault(sum(e), {})[e] = c
        return {d: Polynomial(self.nvars, t, _clean=True) for d, t in sorted(parts.items())}

    def support_vars(self) -> set:
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        return used

    # -- arithmetic ---------------------------------------------------
    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        K.axpy_terms(out, other.terms, QQ1)
        return Polynomial(self.nvars, out, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        K.axpy_terms(out, other.terms, -QQ1)
        return Polynomial(self.nvars, out, _clean=True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            return Polynomial(self.nvars, K.mul_terms(self.terms, other.terms, self.nvars), _clean=True)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = QQ(c)
        if not c:
            return Polynomial.zero(self.nvars)
        return Polynomial(self.nvars, {e: v * c for e, v in self.terms.items()}, _clean=True)

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
        return Polynomial(self.nvars, K.diff_terms(self.terms, var), _clean=True)

    def eval(self, point: Sequence):
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        point = [QQ(p) for p in point]
        pow_cache: dict[tuple[int, int], object] = {}
        total = QQ0
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    p = pow_cache.get((i, k))
                    if p is None:
                        p = point[i] ** k
                        pow_cache[(i, k)] = p
                    v = v * p
            total = total + v
        return total

    # -- substitution -------------------------------------------------
    def map_vars(self, images: Sequence["Polynomial"], target_nvars: int) -> "Polynomial":
        """Substitute every variable ``x_i`` by ``images[i]`` (over ``target_nvars``)."""
        if len(images) != self.nvars:
            raise ValueError("one image per variable is required")
        for im in images:
            if im.nvars != target_nvars:
                raise ValueError("images must live in the target variable space")
        pow_cache: dict[tuple[int, int], Polynomial] = {}
        out: dict = {}
        one = Polynomial.constant(target_nvars, 1)
        for e, c in self.terms.items():
            piece = one
            for i, k in enumerate(e):
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
        out = {}
        for e, c in self.terms.items():
            e2 = bytearray(new_nvars)
            e2[offset : offset + self.nvars] = e
            out[bytes(e2)] = c
        return Polynomial(new_nvars, out, _clean=True)

    def restrict_vars(self, keep: Sequence[int]) -> "Polynomial":
        """Reindex onto the variables ``keep``; fails if other variables occur."""
        pos = {v: i for i, v in enumerate(keep)}
        out = {}
        for e, c in self.terms.items():
            e2 = bytearray(len(keep))
            for i, k in enumerate(e):
                if k:
                    if i not in pos:
                        raise ValueError(f"variable {i} occurs but is not kept")
                    e2[pos[i]] = k
            out[bytes(e2)] = c
        return Polynomial(len(keep), out, _clean=True)

    # -- normalisation and display -------------------------------------
    def canonical(self):
        """Return (monic polynomial, scalar) with self = scalar * monic.

        The normalising coefficient is the one attached to the largest
        packed exponent vector, so proportional polynomials collapse to
        the same canonical form.
        """
        if not self.terms:
            return self, QQ1
        lead = max(self.terms)
        c = self.terms[lead]
        return self.scale(QQ1 / c), c

    def to_string(self, names: Iterable[str] | None = None) -> str:
        if not self.terms:
            return "0"
        names = list(names) if names is not None else [f"x{i}" for i in range(self.nvars)]
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            factors = []
            for i, k in enumerate(e):
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
