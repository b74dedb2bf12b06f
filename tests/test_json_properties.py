"""Property tests for the structure-constant JSON documents.

A valid document round-trips through ``algebra_from_json`` and
``algebra_to_json`` unchanged.  A document with one node replaced or
deleted either still loads or is rejected with ``ValueError``; any other
exception is a loader bug.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from liesplit.liealg import (  # noqa: E402
    algebra_from_json,
    algebra_to_json,
    build_gl,
    build_sl,
    build_so_even,
    LieAlgebra,
)
from liesplit.rationals import QQ  # noqa: E402

# derandomized, so every run checks the same examples
CHECKS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

BUILT = (build_sl(2), build_gl(2), build_so_even(2))


@st.composite
def two_step_nilpotent(draw):
    """[x_i, x_j] for i < j < p lands in the central x_p, ..., x_{p+q-1}: Jacobi holds."""
    p = draw(st.integers(1, 3))
    q = draw(st.integers(0, 2))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)
    constants = {}
    for i in range(p):
        for j in range(i + 1, p):
            targets = draw(st.lists(st.integers(p, p + q - 1), unique=True)) if q else []
            if targets:
                constants[(i, j)] = tuple((k, QQ(draw(coeff))) for k in targets)
    return LieAlgebra([f"x{i}" for i in range(p + q)], constants)


algebras = st.sampled_from(BUILT) | two_step_nilpotent()

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for k, child in enumerate(node):
            yield from _paths(child, prefix + (k,))


@CHECKS
@given(algebras)
def test_valid_document_round_trips(L):
    text = algebra_to_json(L)
    back = algebra_from_json(text)
    assert back.names == L.names
    assert back.constants == L.constants
    assert algebra_to_json(back) == text


@st.composite
def accepted_inputs(draw):
    """(names, constants) the public constructor accepts: distinct names of any text, as a
    list or a tuple, and any constants on at most two basis vectors (no Jacobi triple
    exists there), or two-step nilpotent ones, zero coefficients included, beyond."""
    names = draw(st.lists(st.text(max_size=4), min_size=1, max_size=5, unique=True))
    n = len(names)
    coeff = st.integers(-9, 9) | st.fractions(max_denominator=9)
    if n <= 2:
        p, targets = n, st.integers(0, n - 1)
    else:
        p = draw(st.integers(1, n - 1))  # brackets of x_0..x_(p-1) land in the centre x_p..
        targets = st.integers(p, n - 1)
    constants = {(i, j): draw(st.lists(st.tuples(targets, coeff), max_size=2,
                                       unique_by=lambda e: e[0]))
                 for i in range(p) for j in range(i + 1, p)}
    return draw(st.sampled_from((list, tuple)))(names), constants


@CHECKS
@given(accepted_inputs())
def test_every_accepted_algebra_round_trips(inputs):
    L = LieAlgebra(*inputs)
    back = algebra_from_json(algebra_to_json(L))
    assert (back.names, back.constants) == (L.names, L.constants)


@CHECKS
@given(algebras, st.data())
def test_mutated_document_loads_or_raises_value_error(L, data):
    doc = json.loads(algebra_to_json(L))
    paths = list(_paths(doc))
    path = data.draw(st.sampled_from(paths))
    if not path:
        doc = data.draw(json_values)
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(json_values)
    try:
        algebra_from_json(json.dumps(doc))
    except ValueError:
        pass
