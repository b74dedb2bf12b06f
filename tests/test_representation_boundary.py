"""The polynomial representation stays behind ``poly``: outside ``poly``, ``poisson`` and
``_kernels``, no module calls a term kernel or ``Polynomial._of``, or reads the items or
values of a terms dict; they build polynomials through ``Polynomial`` operations such as
``sum_of_products`` and ``split_degree``, and ``invariants`` does not import ``_kernels``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "liesplit"
CORE = {"poly.py", "poisson.py"}
HIDDEN = {"mul_terms", "axpy_terms", "diff_terms", "_of"}
OUTSIDE = sorted(p for p in PACKAGE.rglob("*.py")
                 if p.name not in CORE and "_kernels" not in p.relative_to(PACKAGE).parts)


def _reaches(tree):
    """Yield (line, what) for each use of the representation in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in HIDDEN:
                yield node.lineno, node.attr
            elif (node.attr in ("items", "values") and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "terms"):
                yield node.lineno, f"terms.{node.attr}"
        elif isinstance(node, ast.Name) and node.id in HIDDEN:
            yield node.lineno, node.id


def test_the_boundary_covers_the_modules_that_build_invariants():
    assert {"invariants.py", "splitting.py", "zalgebra.py", "weyl.py"} <= {p.name for p in OUTSIDE}
    # the Weyl group's int8 matrix products are the one kernel used outside the core
    tree = ast.parse((PACKAGE / "invariants.py").read_text(encoding="utf-8"))
    assert not any(isinstance(node, ast.ImportFrom) and "_kernels" in
                   [node.module, *(a.name for a in node.names)] for node in ast.walk(tree))


@pytest.mark.parametrize("path", OUTSIDE, ids=[p.name for p in OUTSIDE])
def test_no_module_outside_the_core_reaches_into_the_representation(path):
    assert list(_reaches(ast.parse(path.read_text(encoding="utf-8")))) == []


def test_weyl_imports_only_the_arithmetic_layers():
    """The Weyl route draws its Jacobian points through ``linalg``, not ``poisson``: it
    imports only ``_kernels``, ``linalg``, ``poly`` and ``rationals`` of the package."""
    tree = ast.parse((PACKAGE / "weyl.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:  # from . import x, from .x import y
            imported.update([node.module] if node.module else (a.name for a in node.names))
    assert imported == {"_kernels", "linalg", "poly", "rationals"}, imported
