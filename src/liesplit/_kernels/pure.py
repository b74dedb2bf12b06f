"""Pure-Python term kernels.

These are the reference implementations of the hot loops; the compiled
module ``speedups`` mirrors them exactly.  Terms are dicts mapping packed
exponent vectors (``bytes``, one byte per variable) to nonzero rational
coefficients.  Square integer matrices for reflection-group work are
encoded as ``bytes`` of two's-complement int8 entries, row major; a
product entry outside int8 raises ``OverflowError``, and so does a
term product whose exponent of some variable exceeds 255.
"""

from __future__ import annotations

COMPILED = False


def mul_terms(a: dict, b: dict, nvars: int) -> dict:
    out = {}
    if len(a) > len(b):  # iterate the smaller map outside
        a, b = b, a
    try:
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = bytes(x + y for x, y in zip(ea, eb))
                c = ca * cb
                acc = out.get(e)
                if acc is None:
                    out[e] = c
                else:
                    acc = acc + c
                    if acc:
                        out[e] = acc
                    else:
                        del out[e]
    except ValueError:  # bytes() rejects an exponent sum above 255
        raise OverflowError("exponent sum exceeds 255, the largest exponent "
                            "a packed exponent byte holds") from None
    return out


def axpy_terms(acc: dict, src: dict, coeff) -> None:
    """In place: acc += coeff * src.  ``coeff`` may be any exact scalar."""
    if not coeff:
        return
    for e, c in src.items():
        v = acc.get(e)
        if v is None:
            acc[e] = coeff * c
        else:
            v = v + coeff * c
            if v:
                acc[e] = v
            else:
                del acc[e]


def diff_terms(t: dict, var: int) -> dict:
    out = {}
    for e, c in t.items():
        k = e[var]
        if k:
            e2 = bytearray(e)
            e2[var] = k - 1
            out[bytes(e2)] = c * k
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
