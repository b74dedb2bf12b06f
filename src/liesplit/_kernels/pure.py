"""Term kernels: the hot loops of polynomial arithmetic, on integers only.

Terms are dicts mapping packed exponent keys to nonzero ``int``
coefficients.  A polynomial keeps its one denominator beside its terms
(``liesplit.poly``), so the kernels never see a ``Fraction``: a caller
scales by a denominator before a kernel call and normalises once after.
A key packs an exponent vector into one int, 8 bits per variable,
variable 0 in the most significant byte, over a fixed width of ``nvars``
bytes: a monomial product is one integer addition and integer order
equals the order of the exponent bytes.  So an exponent is at most 255, and
:func:`_carry_free` is the one carry rule: a factor's bound is the OR of its
keys (1 per slot for a linear factor), and no product of one term per factor
carries when the slot-wise sum of the bounds stays at most 255.  ``mul_terms``
tests its factors' bounds, past 255 each term of one against the other's bound,
past that the term's pairs, and raises ``OverflowError`` for a pair that carries;
it returns the product or adds it into a dict the caller passes, so a sum of
products drops its zeros once.  ``mul_add_terms``, the one product loop, runs
untested where an expansion's or a bracket's bound passes.

Square integer matrices for reflection-group work are encoded as
``bytes`` of two's-complement int8 entries, row major; a product entry
outside int8 raises ``OverflowError``.
"""

from __future__ import annotations

from functools import cache, reduce
from operator import or_

COMPILED = False


@cache
def _slots(nvars: int) -> int:
    """1 in each of the ``nvars`` exponent slots."""
    return int.from_bytes(b"\x01" * nvars, "big")


def _carry_free(nvars: int, bounds, linear: int = 0) -> bool:
    """Whether the slot-wise sum of ``bounds`` (one OR of keys per factor) and of 1 per slot
    for each of ``linear`` < 256 linear factors stays <= 255: no s + b carries out of a slot."""
    ones = _slots(nvars)
    carries, s = ones << 8, linear * ones
    for b in bounds:
        if (s ^ b ^ (s + b)) & carries:
            return False
        s += b
    return True


def mul_terms(a: dict, b: dict, nvars: int, out: dict | None = None) -> dict:
    """The terms of a * b; with ``out``, out += a * b in place and returned, zero
    coefficients kept for the caller to drop once it has added every product."""
    if len(a) > len(b):  # iterate the smaller map outside
        a, b = b, a
    if not a:
        return {} if out is None else out
    bound = reduce(or_, b, 0)
    if not _carry_free(nvars, (reduce(or_, a, 0), bound)):
        for ea in a:  # some pair might carry: test each term against b's bound, then its pairs
            for eb in () if _carry_free(nvars, (ea, bound)) else b:
                if not _carry_free(nvars, (ea, eb)):
                    raise OverflowError("exponent sum exceeds 255, the largest exponent "
                                        "a packed exponent byte holds")
    if out is None and len(a) == 1:  # one term: no two products share a key
        (ea, ca), = a.items()
        return {ea + eb: ca * cb for eb, cb in b.items()}
    acc = mul_add_terms(a, b, nvars, {} if out is None else out)
    if out is None:
        for e in [e for e, c in acc.items() if not c]:  # in place: no second copy of acc
            del acc[e]
    return acc


def mul_add_terms(a: dict, b: dict, nvars: int, out: dict) -> dict:
    """``mul_terms(a, b, nvars, out)`` with no carry test: out += a * b, zeros kept."""
    if len(a) > len(b):  # iterate the smaller map outside
        a, b = b, a
    items = b.items()
    get = out.get
    for ea, ca in a.items():
        for eb, cb in items:
            e = ea + eb
            out[e] = get(e, 0) + ca * cb
    return out


def axpy_terms(acc: dict, src: dict, coeff: int) -> None:
    """In place: acc += coeff * src."""
    if not coeff:
        return
    for e, c in src.items():
        v = acc.get(e)
        if v is None:
            acc[e] = coeff * c
        else:
            v += coeff * c
            if v:
                acc[e] = v
            else:
                del acc[e]


def diff_terms(t: dict, nvars: int) -> dict:
    """{i: the terms of dt/dx_i} for every variable i that t uses, i increasing, in one walk
    over the terms."""
    units = [1 << 8 * (nvars - 1 - i) for i in range(nvars)]
    out = [{} for _ in range(nvars)]
    for e, c in t.items():
        for i, k in enumerate(e.to_bytes(nvars, "big")):
            if k:
                out[i][e - units[i]] = c * k
    return {i: d for i, d in enumerate(out) if d}


def matmul_i8(a: bytes, b: bytes, n: int) -> bytes:
    av = [(x ^ 0x80) - 0x80 for x in a]
    bv = [(x ^ 0x80) - 0x80 for x in b]
    out = bytearray(n * n)
    for i in range(n):
        ai = av[i * n : (i + 1) * n]
        row = i * n
        for j in range(n):
            s = 0
            for k in range(n):
                s += ai[k] * bv[k * n + j]
            if not -128 <= s <= 127:
                raise OverflowError(f"int8 product entry ({i}, {j}) = {s} is out of range")
            out[row + j] = s & 0xFF
    return bytes(out)
