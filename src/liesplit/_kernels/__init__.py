"""The int-only term kernels, in pure Python (see ``pure``)."""

from __future__ import annotations

from .pure import COMPILED, _carry_free, axpy_terms, diff_terms, matmul_i8, mul_add_terms, mul_terms

__all__ = ["COMPILED", "axpy_terms", "diff_terms", "matmul_i8", "mul_add_terms", "mul_terms"]
