"""Term kernels: the hot loops of polynomial arithmetic, on integers only.

Terms are dicts mapping packed exponent keys to nonzero ``int``
coefficients.  A polynomial keeps its one denominator beside its terms
(``liesplit.poly``), so the kernels never see a ``Fraction``: a caller
scales by a denominator before a kernel call and normalises once after.
A key packs an exponent vector into one int, 8 bits per variable,
variable 0 in the most significant byte, over a fixed width of ``nvars``
bytes: a monomial product is one integer addition and integer order
equals the order of the exponent bytes.  A term product whose exponent of
some variable would exceed 255 raises ``OverflowError``; it never carries
into the next variable.  ``mul_terms`` either returns the product or adds
it into a dict the caller passes, so a sum of products builds no
intermediate dicts and drops its zero coefficients once.

Square integer matrices for reflection-group work are encoded as
``bytes`` of two's-complement int8 entries, row major; a product entry
outside int8 raises ``OverflowError``.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

COMPILED = False


def _slots(nvars: int, byte: int) -> int:
    """``byte`` repeated in each of the ``nvars`` exponent slots."""
    return int.from_bytes(bytes((byte,)) * nvars, "big")


def mul_terms(a: dict, b: dict, nvars: int, out: dict | None = None) -> dict:
    """The terms of a * b; with ``out``, out += a * b in place and returned, zero
    coefficients kept for the caller to drop once it has added every product."""
    if len(a) > len(b):  # iterate the smaller map outside
        a, b = b, a
    if not a:
        return {} if out is None else out
    if (reduce(or_, a, 0) | reduce(or_, b, 0)) & _slots(nvars, 0x80):
        # some exponent is >= 128: test each pair for a carry out of a slot
        carries = _slots(nvars, 1) << 8  # the bit just above each slot
        for ea in a:
            for eb in b:
                if (ea ^ eb ^ (ea + eb)) & carries:
                    raise OverflowError("exponent sum exceeds 255, the largest exponent "
                                        "a packed exponent byte holds")
    items = b.items()
    if out is None and len(a) == 1:  # one term: no two products share a key
        (ea, ca), = a.items()
        return {ea + eb: ca * cb for eb, cb in items}
    acc = {} if out is None else out
    get = acc.get
    for ea, ca in a.items():
        for eb, cb in items:
            e = ea + eb
            acc[e] = get(e, 0) + ca * cb
    if out is None:
        for e in [e for e, c in acc.items() if not c]:  # in place: no second copy of acc
            del acc[e]
    return acc


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


def diff_terms(t: dict, var: int, nvars: int) -> dict:
    shift = 8 * (nvars - 1 - var)
    unit = 1 << shift
    out = {}
    for e, c in t.items():
        k = (e >> shift) & 0xFF
        if k:
            out[e - unit] = c * k
    return out


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
