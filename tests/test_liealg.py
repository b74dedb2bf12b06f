import json

import pytest

from liesplit.liealg import (
    JacobiError,
    LieAlgebra,
    algebra_from_json,
    algebra_to_json,
    build_double,
    build_gl,
    build_sl,
    build_so_even,
    change_basis,
    jacobi_report,
    sub_algebra,
)
from liesplit import liealg
from liesplit.linalg import Matrix, rank_and_nullspace
from liesplit.rationals import QQ


def _jacobi_holds(L):
    """The exhaustive Jacobi check re-run on a built algebra."""
    return jacobi_report(L.dim, L.constants).passed


def _validated_copy_agrees(A):
    """A derived algebra stores no empty bracket, and the public constructor (every entry
    checked, then the exhaustive Jacobi sweep) stores its constants unchanged."""
    return all(A.constants.values()) and LieAlgebra(A.names, A.constants).constants == A.constants


def test_sl2_chevalley_basis():
    sl2 = build_sl(2)
    assert sl2.dim == 3
    assert sl2.rank == 1
    e, h, f = 0, 1, 2
    assert sl2.bracket_pair(h, e) == {e: QQ(2)}
    assert sl2.bracket_pair(h, f) == {f: QQ(-2)}
    assert sl2.bracket_pair(e, f) == {h: QQ(1)}


def test_so8_dimension_and_rank():
    so8 = build_so_even(4)
    assert so8.dim == 4 * 7  # n(2n-1)
    assert so8.rank == 4
    assert len(so8.triangular.plus) == 12  # n(n-1) positive roots
    assert _jacobi_holds(so8)


def test_double_sl3_dimensions_and_center():
    d = build_double(build_sl(3))
    assert d.dim == 10
    assert d.rank == 4
    # the centre: the x with [x, x_j] = 0 for every j, one equation per (j, k) component
    n = d.dim
    rows = [[0] * n for _ in range(n * n)]
    for i, row in enumerate(d.bracket_table[1]):
        for j, entries in enumerate(row):
            for k, c in entries:
                rows[j * n + k][i] = c
    _, center = rank_and_nullspace(Matrix(rows))
    assert len(center) == 2
    # the appended copy of the Cartan is central
    for v in center:
        assert all(v[i] == 0 for i in range(8))


def test_jacobi_failure_reported_with_triple():
    # [x,y]=z, [y,z]=x, [x,z]=x fails Jacobi at (x,y,z)
    constants = {(0, 1): ((2, QQ(1)),), (1, 2): ((0, QQ(1)),), (0, 2): ((0, QQ(1)),)}
    with pytest.raises(JacobiError) as err:
        LieAlgebra(["x", "y", "z"], constants)
    assert err.value.triple == (0, 1, 2)


def test_abelian_algebra_passes_jacobi():
    L = LieAlgebra(["a", "b", "c"], {})
    assert _jacobi_holds(L)


def test_structure_constants_json_round_trip():
    sl3 = build_sl(3)
    text = algebra_to_json(sl3)
    back = algebra_from_json(text)
    assert back.dim == sl3.dim
    assert back.names == sl3.names
    assert back.constants == sl3.constants
    # fractions survive exactly
    L = LieAlgebra(["a", "b"], {(0, 1): ((0, QQ(22, 7)),)})
    assert algebra_from_json(algebra_to_json(L)).constants == L.constants


def _json_algebra(brackets):
    return json.dumps({"dim": 2, "basis_names": ["x0", "x1"], "brackets": brackets})


@pytest.mark.parametrize("brackets, message", [
    ([[0, 1, [[7, 1, 1]]]], "bracket [0, 1]: target 7"),             # target outside the basis
    ([[0, 1, [[0, 1, 1], [0, 1, 1]]]], "bracket [0, 1]: target 0"),  # duplicate target
    ([[0, 1, [[0, 1, 1]]], [0, 1, [[1, 1, 1]]]], "[0, 1] is listed twice"),
    ([[0, 1, [[0, 1, 0]]]], "entry [0, 1, 0]"),                      # den = 0
    ([[0, 1, [[0.0, 1, 1]]]], "entry [0.0, 1, 1]"),                  # non-integer target
    ([[0, 1.5, [[0, 1, 1]]]], "bracket [0, 1.5]"),                   # non-integer pair
    ([[0, 1, 5]], "bracket [0, 1, 5] must be"),                       # entries not a list
    ([[0, 1]], "bracket [0, 1] must be"),                             # entries missing
    (5, "brackets 5 must be a list"),
    # a string is the whole document
    pytest.param('{"dim": 2, "basis_names": ["x0", "x1"]}', "brackets None must be a list",
                 id="no-brackets"),
    pytest.param('[[0, 1, []]]', "not a list", id="top-level-list"),
    pytest.param('{"dim": 2, "basis_names": "x0", "brackets": []}', "basis_names 'x0'",
                 id="names-not-a-list"),
    pytest.param('{"dim": 3, "basis_names": ["x0", "x1"], "brackets": []}', "dim 3 does not",
                 id="dim-mismatch"),
])
def test_json_constants_rejected_with_the_offending_entry(brackets, message):
    text = brackets if isinstance(brackets, str) else _json_algebra(brackets)
    with pytest.raises(ValueError) as exc:
        algebra_from_json(text)
    assert message in str(exc.value)


@pytest.mark.parametrize("names, constants, message", [
    ([1, 2], {}, "name 0 is 1, not a string"),
    (["x", "x"], {}, "name 1 'x' repeats name 0"),
    ("ab", {}, "names must be a list or tuple of strings, got 'ab'"),
    (5, {}, "names must be a list or tuple of strings, got 5"),
] + [(["x0", "x1"], constants, message) for constants, message in [
    ({(0, 1): ((7, 1),)}, "bracket [0, 1]: target 7 is not a basis index"),
    ({(0, 1): ((0, 1), (0, 1))}, "bracket [0, 1]: target 0 is listed twice"),
    ({(0, 1): ((0.5, 1),)}, "bracket [0, 1]: target 0.5 is not a basis index"),
    ({(0, 1): [(1, 1, 5)]}, "bracket [0, 1]: [(1, 1, 5)] is not a list of (target, coeff) pairs"),
    ({(0, 1): [1]}, "bracket [0, 1]: [1] is not a list of (target, coeff) pairs"),
    ({(0, 1): 5}, "bracket [0, 1]: 5 is not a list of (target, coeff) pairs"),
    ({0: [(1, 1)]}, "constants must be indexed by pairs i<j, got 0"),
    ({(1, 0): [(1, 1)]}, "constants must be indexed by pairs i<j, got (1, 0)"),
    ([((0, 1), [(1, 1)])], "constants must be a dict, got a list"),
]] + [
    # a bool coefficient was read as 1
    (["a", "b", "c"], {(0, 1): [(2, True)]}, "bool True in bracket [0, 1] is not an exact"),
])
def test_constructor_names_the_malformed_entry(names, constants, message):
    with pytest.raises(ValueError) as exc:
        LieAlgebra(names, constants)
    assert message in str(exc.value)


@pytest.mark.parametrize("names, message", [
    (["a", "b", "a"], "name 2 'a' repeats name 0"),  # once accepted
    ([0, 1, 2], "name 0 is 0, not a string"),  # once accepted
    ("abc", "names must be a list or tuple of strings, got 'abc'"),  # once read as a, b, c
    (5, "names must be a list or tuple of strings, got 5"),
])
def test_change_basis_applies_the_constructor_name_rule(names, message):
    with pytest.raises(ValueError) as exc:
        change_basis(build_sl(2), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], names)
    assert str(exc.value) == message


def test_gram_matches_trace_form():
    sl2 = build_sl(2)
    # <e,f> = tr(E12 E21) = 1, <h,h> = 2
    assert sl2.gram[0, 2] == 1
    assert sl2.gram[1, 1] == 2
    assert sl2.gram[0, 0] == 0
    so4 = build_so_even(2)
    # so builder uses half the trace
    cart = so4.triangular.cartan
    assert so4.gram[cart[0], cart[0]] == 1


def test_sub_algebra_restriction_and_closure_error():
    sl2 = build_sl(2)
    b = sub_algebra(sl2, (0, 1))
    assert b.dim == 2
    assert b.bracket_pair(1, 0) == {0: QQ(2)}  # [h, e] = 2e
    with pytest.raises(ValueError):
        sub_algebra(sl2, (0, 2))  # [e,f] = h escapes


def test_change_basis_preserves_structure():
    sl2 = build_sl(2)
    # rescale e by 3 and f by 1/3: an automorphism image
    new = change_basis(
        sl2,
        [[QQ(3), 0, 0], [0, QQ(1), 0], [0, 0, QQ(1, 3)]],
        ["e'", "h'", "f'"],
    )
    assert new.bracket_pair(1, 0) == {0: QQ(2)}
    assert new.bracket_pair(0, 2) == {1: QQ(1)}
    assert _jacobi_holds(new)
    # multiples of root vectors and a Cartan element keep the triangular data; f + e does not
    tri = new.triangular
    assert (tri.plus, tri.cartan, tri.minus) == ((0,), (1,), (2,))
    assert tri.root_labels == {0: (2,), 2: (-2,)} and tri.cartan_form == Matrix([[2]])
    skewed = change_basis(sl2, [[1, 0, 0], [0, 1, 0], [1, 0, 1]], ["e", "h", "f+e"])
    assert skewed.triangular is None


@pytest.mark.parametrize("build, size", [
    (lambda: build_gl(3), 3), (lambda: build_sl(4), 4), (lambda: build_so_even(4), 8),
    (lambda: change_basis(build_sl(2), [[1, 0, 0], [0, 1, 0], [1, 0, 1]], ["e", "h", "f+e"]), 2),
    (lambda: build_double(build_sl(2)), None),  # no realization, no matrix size
])
def test_matrix_size_is_read_off_the_realization(build, size):
    assert build().matrix_size == size


def test_change_basis_rejects_a_corrupted_constant(monkeypatch):
    sl3 = build_sl(3)
    vectors = [[int(t == i) + int(t == 0 and i == 3) for t in range(8)] for i in range(8)]
    assert change_basis(sl3, vectors, list("abcdefgh")).dim == 8

    true_inverse = liealg.inverse

    def corrupted(P):  # one wrong entry in one column of P^-1 corrupts the constants
        good = true_inverse(P)
        return Matrix([[c + (r == 0 and k == 4) for k, c in enumerate(row)]
                       for r, row in enumerate(good.rows)])

    monkeypatch.setattr(liealg, "inverse", corrupted)
    with pytest.raises(ValueError, match="basis change breaks the bracket"):
        change_basis(sl3, vectors, list("abcdefgh"))


def test_change_basis_rejects_dependent_vectors():
    sl2 = build_sl(2)
    with pytest.raises(ValueError, match="new basis vectors are dependent"):
        change_basis(sl2, [[1, 0, 0], [0, 1, 0], [1, 1, 0]], ["a", "b", "c"])
    # the first vector that is zero or a combination of the ones before it is named
    for vectors, message in (
            ([[1, 0, 0], [0, 1, 0], [1, 1, 0]], "vector 2 is a combination of the ones before it"),
            ([[1, 0, 0], [0, 0, 0], [0, 0, 1]], "vector 1 is zero"),
            ([[0, 1, 0], ["-1/2", 0, 0], [2, 1, 0]], "vector 2 is a combination of the ones before it")):
        with pytest.raises(ValueError, match=f"^new basis vectors are dependent: new basis {message}$"):
            change_basis(sl2, vectors, ["a", "b", "c"])


def test_root_labels_give_diagonal_cartan_action():
    sl3 = build_sl(3)
    tri = sl3.triangular
    for r, label in tri.root_labels.items():
        for pos, c in enumerate(tri.cartan):
            br = sl3.bracket_pair(c, r)
            assert br == ({r: label[pos]} if label[pos] else {})


def test_double_needs_a_builder_algebra():
    # the public constructor takes no rank, triangular data or Gram matrix
    sl2 = build_sl(2)
    with pytest.raises(ValueError, match="the double needs a reductive builder algebra"):
        build_double(LieAlgebra(sl2.names, sl2.constants))


def test_double_gram_is_the_base_form_next_to_the_cartan_form():
    base = build_sl(3)
    d = build_double(base)
    cf = base.triangular.cartan_form
    for i in range(d.dim):
        for j in range(d.dim):
            if i < base.dim and j < base.dim:
                assert d.gram[i, j] == base.gram[i, j]
            elif i >= base.dim and j >= base.dim:
                assert d.gram[i, j] == cf[i - base.dim, j - base.dim]
            else:
                assert d.gram[i, j] == 0
    assert d.triangular.cartan == base.triangular.cartan + (8, 9)
    assert all(d.triangular.root_labels[r] == label + (0, 0)
               for r, label in base.triangular.root_labels.items())


def test_float_structure_constants_are_rejected():
    raw = {(0, 1): [(0, -2.0)], (0, 2): [(1, 1)], (1, 2): [(2, -2)]}
    with pytest.raises(TypeError, match=r"float -2\.0 in bracket \[0, 1\]"):
        LieAlgebra(["e", "h", "f"], raw)


# -- builders proved Lie by their realization ---------------------------------


def test_builders_make_no_jacobi_sweep(monkeypatch):
    calls = []
    check = liealg.jacobi_report

    def counting(dim, constants):
        calls.append(dim)
        return check(dim, constants)

    monkeypatch.setattr(liealg, "jacobi_report", counting)
    for L in (build_gl(3), build_sl(3), build_so_even(3)):
        assert L.realization_certificate.passed
        assert build_double(L).base_algebra is L
    # Lie by _assemble's proof: independent matrices whose commutators the constants recombine
    # to; the double appends central xi's, so its Jacobiators are the base's
    assert calls == []


@pytest.mark.parametrize("build, sizes", [
    (build_gl, range(1, 6)), (build_sl, range(2, 7)), (build_so_even, range(2, 6)),
], ids=["gl1-5", "sl2-6", "so4-10"])
def test_builder_constants_pass_the_exhaustive_jacobi_check(build, sizes):
    # the oracle for the builders and their doubles, which run no check
    for n in sizes:
        L = build(n)
        for A in (L, build_double(L)):
            assert _validated_copy_agrees(A), A.kind


def test_assemble_names_the_bracket_a_lossy_decompose_drops():
    mats = [{(0, 1): 1}, {(0, 0): 1}, {(1, 1): 1}, {(1, 0): 1}]  # gl(2): E12, E11, E22, E21
    names = ["E12", "E11", "E22", "E21"]

    def decompose(m):
        return [(names.index(f"E{r + 1}{c + 1}"), v) for (r, c), v in m.items()]

    def without_e22(m):  # forgets the E22 component of every commutator
        return [(k, v) for k, v in decompose(m) if k != 2]

    assert liealg._assemble(mats, names, decompose, 2, "gl(2)").constants == \
        build_gl(2).constants
    # [E12, E11] and [E12, E22] have no E22 component; [E12, E21] = E11 - E22 is the first loss
    with pytest.raises(ValueError, match=r"gl\(2\): the constants of \[E12, E21\] do not "
                                         "recombine to its commutator"):
        liealg._assemble(mats, names, without_e22, 2, "gl(2)")


def test_assemble_needs_an_entry_new_to_the_basis_in_every_matrix():
    # E11 + E22 touches only cells E11 and E22 already hold: independence is not shown
    mats = [{(0, 1): 1}, {(0, 0): 1}, {(1, 1): 1}, {(0, 0): 1, (1, 1): 1}, {(1, 0): 1}]
    names = ["E12", "E11", "E22", "I", "E21"]
    with pytest.raises(ValueError, match="basis matrix I touches no entry new to the basis"):
        liealg._assemble(mats, names, lambda m: [], 2, "gl(2)+I")
