"""The polynomial representation stays behind ``poly``: outside ``poly``, ``poisson`` and
``_kernels``, no module calls a term kernel or ``Polynomial._of``, or reads the items or
values of a terms dict; they build polynomials through ``Polynomial`` operations such as
``sum_of_products`` and ``split_degree``, and ``invariants`` does not import ``_kernels``.
The key format itself stays inside ``poly`` and ``_kernels``: no other module, ``poisson``
included, packs or unpacks an exponent vector, reads degrees off keys or uses the slot
constants (``liealg`` builds linear keys through ``poly._unit`` only)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "liesplit"
CORE = {"poly.py", "poisson.py"}
HIDDEN = {"mul_terms", "mul_add_terms", "axpy_terms", "diff_terms", "_carry_free", "_of"}
KEY_FORMAT = {"_exponents", "_pack", "_degree_reader", "_slots"}
OUTSIDE = sorted(p for p in PACKAGE.rglob("*.py")
                 if p.name not in CORE and "_kernels" not in p.relative_to(PACKAGE).parts)
BEYOND_POLY = sorted(p for p in PACKAGE.rglob("*.py")
                     if p.name != "poly.py" and "_kernels" not in p.relative_to(PACKAGE).parts)


def _names(tree, names):
    """Yield (line, name) for each use (a name, an attribute or an import) of ``names``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in names:
            yield node.lineno, node.id
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, a.name) for a in node.names if a.name in names)


def _reaches(tree):
    """Yield (line, what) for each use of the representation in a module's syntax tree."""
    yield from _names(tree, HIDDEN)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("items", "values")
                and isinstance(node.value, ast.Attribute) and node.value.attr == "terms"):
            yield node.lineno, f"terms.{node.attr}"


def test_the_boundary_covers_the_modules_that_build_invariants():
    assert {"invariants.py", "splitting.py", "zalgebra.py", "weyl.py"} <= {p.name for p in OUTSIDE}
    # the Weyl group's int8 matrix products are the one kernel used outside the core
    tree = ast.parse((PACKAGE / "invariants.py").read_text(encoding="utf-8"))
    assert not any(isinstance(node, ast.ImportFrom) and "_kernels" in
                   [node.module, *(a.name for a in node.names)] for node in ast.walk(tree))


@pytest.mark.parametrize("path", OUTSIDE, ids=[p.name for p in OUTSIDE])
def test_no_module_outside_the_core_reaches_into_the_representation(path):
    assert list(_reaches(ast.parse(path.read_text(encoding="utf-8")))) == []


@pytest.mark.parametrize("path", BEYOND_POLY, ids=[p.name for p in BEYOND_POLY])
def test_only_poly_and_the_kernels_read_the_key_format(path):
    assert list(_names(ast.parse(path.read_text(encoding="utf-8")), KEY_FORMAT)) == []


def test_weyl_imports_only_the_arithmetic_layers():
    """The Weyl route draws its Jacobian points through ``linalg``, not ``poisson``: it
    imports only ``_kernels``, ``linalg``, ``poly`` and ``rationals`` of the package."""
    tree = ast.parse((PACKAGE / "weyl.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:  # from . import x, from .x import y
            imported.update([node.module] if node.module else (a.name for a in node.names))
    assert imported == {"_kernels", "linalg", "poly", "rationals"}, imported
