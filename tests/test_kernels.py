"""Parity between the compiled kernels and the pure-Python reference."""

import random

import pytest

from liesplit import QQ
from liesplit._kernels import pure

speedups = pytest.importorskip("liesplit._kernels.speedups")


def random_terms(rng, nvars, nterms):
    return {
        bytes(rng.randint(0, 4) for _ in range(nvars)): QQ(rng.randint(-9, 9), rng.randint(1, 7))
        for _ in range(nterms)
    }


def test_mul_terms_parity():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(1, 6)
        a = random_terms(rng, n, rng.randint(1, 8))
        b = random_terms(rng, n, rng.randint(1, 8))
        assert pure.mul_terms(a, b, n) == speedups.mul_terms(a, b, n)


def test_axpy_terms_parity():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 6)
        acc1 = random_terms(rng, n, 5)
        acc2 = dict(acc1)
        src = random_terms(rng, n, 5)
        c = QQ(rng.randint(-5, 5), rng.randint(1, 4))
        pure.axpy_terms(acc1, src, c)
        speedups.axpy_terms(acc2, src, c)
        assert acc1 == acc2


def test_diff_terms_parity():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        t = random_terms(rng, n, 6)
        v = rng.randrange(n)
        assert pure.diff_terms(t, v) == speedups.diff_terms(t, v)


def test_matmul_i8_parity():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(1, 8)
        a = bytes((rng.randint(-4, 4)) & 0xFF for _ in range(n * n))
        b = bytes((rng.randint(-4, 4)) & 0xFF for _ in range(n * n))
        assert pure.matmul_i8(a, b, n) == speedups.matmul_i8(a, b, n)


def test_matmul_i8_overflow_raises():
    big = bytes([100, 0, 0, 1])
    for impl in (pure, speedups):
        with pytest.raises(OverflowError):
            impl.matmul_i8(big, big, 2)


def test_mul_terms_exponent_overflow_raises():
    a = {bytes([200, 1]): QQ(1)}
    b = {bytes([100, 0]): QQ(1)}
    for impl in (pure, speedups):
        with pytest.raises(OverflowError, match="255"):
            impl.mul_terms(a, b, 2)
