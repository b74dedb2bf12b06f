"""Term kernels: the hot loops of polynomial arithmetic.

Terms are dicts mapping packed exponent keys to nonzero exact
coefficients.  A key packs an exponent vector into one int, 8 bits per
variable, variable 0 in the most significant byte, over a fixed width of
``nvars`` bytes: a monomial product is one integer addition and integer
order equals the order of the exponent bytes.  Coefficients follow
:func:`liesplit.rationals.exact` (int when integral, ``Fraction``
otherwise), and every kernel returns them in that form.  ``axpy_terms``
accepts any hashable keys.  A term product whose exponent of some variable
would exceed 255 raises ``OverflowError``; it never carries into the next
variable.

Square integer matrices for reflection-group work are encoded as
``bytes`` of two's-complement int8 entries, row major; a product entry
outside int8 raises ``OverflowError``.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from ..rationals import QQ, common_denominator, exact

COMPILED = False


def _slots(nvars: int, byte: int) -> int:
    """``byte`` repeated in each of the ``nvars`` exponent slots."""
    return int.from_bytes(bytes((byte,)) * nvars, "big")


def _ints(t: dict) -> bool:
    return set(map(type, t.values())) <= {int}


def _cleared(t: dict, scale=1):
    """(d, u) with scale * t == u / d, where u has int coefficients."""
    m = common_denominator(t.values())
    s = scale.numerator
    return scale.denominator * m, {e: s * c.numerator * (m // c.denominator) for e, c in t.items()}


def mul_terms(a: dict, b: dict, nvars: int) -> dict:
    if len(a) > len(b):  # iterate the smaller map outside
        a, b = b, a
    if not a:
        return {}
    if (reduce(or_, a, 0) | reduce(or_, b, 0)) & _slots(nvars, 0x80):
        # some exponent is >= 128: test each pair for a carry out of a slot
        carries = _slots(nvars, 1) << 8  # the bit just above each slot
        for ea in a:
            for eb in b:
                if (ea ^ eb ^ (ea + eb)) & carries:
                    raise OverflowError("exponent sum exceeds 255, the largest exponent "
                                        "a packed exponent byte holds")
    d = 1
    if not (_ints(a) and _ints(b)):
        # clear denominators so the loop below multiplies ints, not Fractions
        da, a = _cleared(a)
        db, b = _cleared(b)
        d = da * db
    items = b.items()
    if len(a) == 1:  # one term (most calls from brackets): no two products share a key
        (ea, ca), = a.items()
        out = {ea + eb: ca * cb for eb, cb in items}
    else:
        out = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in items:
                e = ea + eb
                out[e] = get(e, 0) + ca * cb
        for e in [e for e, c in out.items() if not c]:  # in place: no second copy of out
            del out[e]
    if d != 1:
        for e, c in out.items():
            out[e] = exact(QQ(c, d))
    return out


def axpy_terms(acc: dict, src: dict, coeff) -> None:
    """In place: acc += coeff * src.  ``coeff`` may be any exact scalar."""
    if not coeff:
        return
    coeff = exact(coeff)
    if type(coeff) is int and _ints(src):
        for e, c in src.items():
            v = acc.get(e)
            if v is None:
                acc[e] = coeff * c
            else:
                v = v + coeff * c  # int + int, or a non-integral Fraction + int
                if v:
                    acc[e] = v
                else:
                    del acc[e]
        return
    d, src = _cleared(src, coeff)  # in ints: coeff * src == src / d from here on
    for e, c in src.items():
        v = acc.get(e)
        if v is not None:
            c = v.numerator * d + v.denominator * c  # v + c/d == c' / (den(v) d)
            if not c:
                del acc[e]
                continue
            acc[e] = exact(QQ(c, v.denominator * d))
        else:
            acc[e] = exact(QQ(c, d))


def diff_terms(t: dict, var: int, nvars: int) -> dict:
    shift = 8 * (nvars - 1 - var)
    unit = 1 << shift
    out = {}
    for e, c in t.items():
        k = (e >> shift) & 0xFF
        if k:
            out[e - unit] = c * k
    if not _ints(out):
        return {e: exact(c) for e, c in out.items()}
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
