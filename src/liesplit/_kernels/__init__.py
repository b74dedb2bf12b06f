"""Kernel selection: compiled extension when built, pure Python otherwise."""

from __future__ import annotations

try:
    from . import speedups as impl
except ImportError:
    from . import pure as impl  # type: ignore[no-redef]

COMPILED = impl.COMPILED
mul_terms = impl.mul_terms
axpy_terms = impl.axpy_terms
diff_terms = impl.diff_terms
matmul_i8 = impl.matmul_i8
