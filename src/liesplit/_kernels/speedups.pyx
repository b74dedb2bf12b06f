# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled term kernels; semantics identical to ``pure``."""

from cpython.bytes cimport PyBytes_AS_STRING, PyBytes_FromStringAndSize

COMPILED = True


def mul_terms(dict a, dict b, Py_ssize_t nvars):
    cdef dict out = {}
    cdef Py_ssize_t i
    cdef const unsigned char *pa
    cdef const unsigned char *pb
    cdef unsigned char *pe
    cdef bytes e
    cdef object ca, cb, c, acc
    if len(a) > len(b):
        a, b = b, a
    for ea, ca in a.items():
        pa = <const unsigned char *> PyBytes_AS_STRING(<bytes> ea)
        for eb, cb in b.items():
            pb = <const unsigned char *> PyBytes_AS_STRING(<bytes> eb)
            e = PyBytes_FromStringAndSize(NULL, nvars)
            pe = <unsigned char *> PyBytes_AS_STRING(e)
            for i in range(nvars):
                if pa[i] + pb[i] > 255:
                    raise OverflowError("exponent sum exceeds 255, the largest exponent "
                                        "a packed exponent byte holds")
                pe[i] = pa[i] + pb[i]
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
    return out


def axpy_terms(dict acc, dict src, coeff):
    cdef object c, v
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


def diff_terms(dict t, Py_ssize_t var):
    cdef dict out = {}
    cdef Py_ssize_t k
    cdef bytes e2
    cdef unsigned char *pe
    cdef const unsigned char *pt
    cdef Py_ssize_t n, i
    for e, c in t.items():
        pt = <const unsigned char *> PyBytes_AS_STRING(<bytes> e)
        k = pt[var]
        if k:
            n = len(<bytes> e)
            e2 = PyBytes_FromStringAndSize(NULL, n)
            pe = <unsigned char *> PyBytes_AS_STRING(e2)
            for i in range(n):
                pe[i] = pt[i]
            pe[var] = k - 1
            out[e2] = c * k
    return out


def matmul_i8(bytes a, bytes b, int n):
    cdef const char *pa = PyBytes_AS_STRING(a)
    cdef const char *pb = PyBytes_AS_STRING(b)
    cdef bytes out = PyBytes_FromStringAndSize(NULL, n * n)
    cdef char *po = PyBytes_AS_STRING(out)
    cdef int i, j, k, s
    for i in range(n):
        for j in range(n):
            s = 0
            for k in range(n):
                s += (<signed char> pa[i * n + k]) * (<signed char> pb[k * n + j])
            if s < -128 or s > 127:
                raise OverflowError(f"int8 product entry ({i}, {j}) = {s} is out of range")
            po[i * n + j] = <char> s
    return out
