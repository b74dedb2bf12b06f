"""Planted defects, each caught: a verdict that reads False or a theorem check that raises.

Each row plants one defect by monkeypatch, runs one small case, and names the verdicts the
defect flips (every other verdict still holds) or the error it raises.  The rows here cover
the bi-degree layer: each defect rewrites what ``invariants.bidecompose`` returns, which
every reader of a split reaches through ``HilbertBasis.split``.  The next rows plant a wrong
entry in one matrix M_b of Y(x) = sum_b x_b M_b, which the Jacobian rows read, and the row
oracle (a realization row is the gradient the terms give, modulo P) catches it.  The last
rows plant a wrong column sign in ``poly.laplace_expansion``, the one expansion of the
determinants and Pfaffians that ``hilbert_basis`` builds its generators from, or negate the
Pfaffian it returns.
"""

import inspect
import re

import pytest

from liesplit import invariants, poly
from liesplit.invariants import hilbert_basis
from liesplit.liealg import build_so_even
from liesplit.linalg import P
from liesplit.poly import Polynomial
from liesplit.splitting import _vectors, horospherical_splitting
from liesplit.zalgebra import run_case


def _drop_a_term(parts):
    """The first term of the part with most terms left out."""
    k = max(parts, key=lambda i: len(parts[i].terms))
    e, c = next(parts[k].items())
    rest = parts[k] - Polynomial(parts[k].nvars, {tuple(e): c})
    return {i: p for i, p in {**parts, k: rest}.items() if p}


def _fold_a_middle_part(parts):
    """The first part of h-degree strictly between the extremes added to the lowest."""
    low, mids = min(parts), [i for i in parts if min(parts) < i < max(parts)]
    if not mids:
        return parts
    folded = {i: c for i, c in parts.items() if i != mids[0]}
    folded[low] = folded[low] + parts[mids[0]]
    return folded


def _relabel_the_lowest_part(parts):
    """The lowest part moved up one h-degree, where that degree holds no part."""
    low = min(parts)
    if low + 1 in parts:
        return parts
    return dict(sorted(((low + 1 if i == low else i), c) for i, c in parts.items()))


RECONSTRUCTION = {"property_bidecompose_reconstruction", "property_extreme_components_invariant",
                  "property_pencil_commutativity_sampled"}
SUM_BELOW = "sum of complement degrees {} < dim m = {}: violates a theorem"

# (defect, case, params, the verdicts it flips or the AssertionError it raises)
ROWS = [
    (_drop_a_term, "sl2n", {"n": 2}, RECONSTRUCTION),
    (_drop_a_term, "so2n", {"n": 3}, RECONSTRUCTION | {"z_commutes_sampled"}),
    (_drop_a_term, "borel", {"n": 2}, {"property_bidecompose_reconstruction",
                                       "property_extreme_components_invariant", "trdeg_equals_b"}),
    (_drop_a_term, "double", {"n": 1}, SUM_BELOW.format(1, 2)),
    (_fold_a_middle_part, "double", {"n": 1},
     {"middle_components_nonzero", "property_extreme_components_invariant"}),
    (_fold_a_middle_part, "sl2n", {"n": 2}, "a = 0 < dim toral part 1: violates a theorem"),
    # the double's degree-2 lifts split into one part, the next h-degree free: side h reads
    # a complement degree one too low
    (_relabel_the_lowest_part, "double", {"n": 1}, SUM_BELOW.format(1, 2)),
    (_relabel_the_lowest_part, "double", {"n": 2}, SUM_BELOW.format(4, 5)),
]


def _plant(monkeypatch, defect):
    """Install ``defect`` behind ``invariants.bidecompose``; the list counts the splits it
    changed."""
    real, changed = invariants.bidecompose, []

    def planted(D, F):
        parts = real(D, F)
        out = defect(parts)
        if list(out.items()) != list(parts.items()):
            changed.append(F)
        return out

    monkeypatch.setattr(invariants, "bidecompose", planted)
    return changed


@pytest.mark.parametrize("defect, case, params, expected", ROWS,
                         ids=[f"{d.__name__[1:]}-{c}-{p['n']}" for d, c, p, _ in ROWS])
def test_a_planted_split_defect_is_caught(monkeypatch, defect, case, params, expected):
    changed = _plant(monkeypatch, defect)
    if isinstance(expected, str):
        with pytest.raises(AssertionError, match=f"^{expected}$"):
            run_case(case, params, seed=1)
        assert changed
        return
    verdicts = run_case(case, params, seed=1).verdicts
    assert changed
    assert {k for k, v in verdicts.items() if v is not True} == expected


@pytest.mark.parametrize("case, n", [("sl2n", 2), ("so2n", 3), ("borel", 2)])
def test_the_relabelling_never_applies_where_the_next_degree_is_taken(monkeypatch, case, n):
    # every generator of these cases has a part at its least h-degree plus one, so the
    # relabelling changes no split and no verdict can see it: it is caught only where a
    # split has a gap above its lowest part, as on the double's rows above
    changed = _plant(monkeypatch, _relabel_the_lowest_part)
    assert run_case(case, {"n": n}, seed=1).passed
    assert not changed


# -- the realization's Jacobian rows ----------------------------------------


def _so6_splitting():
    g = build_so_even(3)
    cart = g.triangular.cartan
    S = horospherical_splitting(g, _vectors(g.dim, ({i: 1} for i in cart[:2])),
                                t0_basis=_vectors(g.dim, [{cart[2]: 1}]))
    return S, hilbert_basis(S.algebra, "charpoly")


def _rows_off_int_gradient(B, S, x):
    """The bi-components (j, i) whose realization row at x is not their gradient modulo P,
    ``int_gradient`` over den."""
    parts = B.split(S)
    comps = [(j, i) for j, p in enumerate(parts) for i in p]
    return [(j, i) for (j, i), row in zip(comps, invariants._component_rows(B, S, x, comps))
            if row != [v * pow(parts[j][i].den, -1, P) % P for v in parts[j][i].int_gradient(x)]]


@pytest.mark.parametrize("side", ["h", "r"])
def test_one_wrong_entry_of_a_dual_matrix_fails_the_row_oracle(monkeypatch, side):
    S, B = _so6_splitting()
    x = [(7 * k) % 23 - 11 for k in range(S.algebra.dim)]
    assert _rows_off_int_gradient(B, S, x) == []
    # one entry of the first M_b of a coordinate on the side, plus one
    b = next(b for b in (S.h_indices if side == "h" else S.r_indices)
             if S.algebra._dual_matrices[b])
    mats = list(S.algebra._dual_matrices)
    cell = next(iter(mats[b]))
    mats[b] = {**mats[b], cell: mats[b][cell] + 1}
    monkeypatch.setitem(S.algebra.__dict__, "_dual_matrices", tuple(mats))
    assert _rows_off_int_gradient(B, S, x)


# -- the expansion's column signs -------------------------------------------

SIGN = "(~U & (bit - 1)).bit_count() & 1"  # the parity of the free columns below column j
PFAFFIAN_FAILURE = ("Pfaffian sign convention failure: Pf(x) != Pf(J Y(x)) modulo P at a "
                    "sampled point")

# (the wrong parity, case, params, the verdicts it flips or the ValueError it raises)
SIGN_ROWS = [
    # the used columns below j: a determinant changes by (-1)^(N (N - 1) / 2) only, as every
    # permutation takes each column once, but a Pfaffian takes half the indices as columns,
    # so Pf(J Y) is another polynomial and its sign check at one point fails
    ("(U & (bit - 1)).bit_count() & 1", "so2n", {"n": 3}, PFAFFIAN_FAILURE),
    # only the column just below j: the e_k of sl(4) are no longer invariants
    ("(~U & (bit >> 1)).bit_count() & 1", "sl2n", {"n": 2},
     {"property_extreme_components_invariant", "property_pencil_commutativity_sampled"}),
]


@pytest.mark.parametrize("parity, case, params, expected", SIGN_ROWS,
                         ids=[f"{c}-{p['n']}" for _, c, p, _ in SIGN_ROWS])
def test_a_wrong_column_sign_of_the_expansion_is_caught(monkeypatch, parity, case, params,
                                                        expected):
    source = inspect.getsource(poly.laplace_expansion)
    assert source.count(SIGN) == 1
    namespace = dict(vars(poly))
    exec(compile(source.replace(SIGN, parity), poly.__file__, "exec"), namespace)
    monkeypatch.setattr(invariants, "laplace_expansion", namespace["laplace_expansion"])
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            run_case(case, params, seed=1)
        return
    verdicts = run_case(case, params, seed=1).verdicts
    assert {k for k, v in verdicts.items() if v is not True} == expected


@pytest.mark.parametrize("n", [3, 4])
def test_a_negated_pfaffian_of_the_expansion_is_caught(monkeypatch, n):
    # -Pf squares to Pf^2, so no verdict sees it; the check against linalg's Pfaffian of
    # J Y(x) modulo P at one point does
    expand = invariants.laplace_expansion

    def negated(n, size, cells, pfaffian, powers):
        out = expand(n, size, cells, pfaffian, powers)
        return {k: -p for k, p in out.items()} if pfaffian else out

    monkeypatch.setattr(invariants, "laplace_expansion", negated)
    with pytest.raises(ValueError, match=f"^{re.escape(PFAFFIAN_FAILURE)}$"):
        run_case("so2n", {"n": n}, seed=1)
