"""Readings that depend only on the splitting, not on the basis that writes it.

The degree sums sum_m, the bidegrees, s0, s_inf, the indices, the kept degrees and the
restrictions to t0 are invariants of (q, h, r, t0, t1).  The splitting of each case below,
taken as ``run_case`` builds it, is rewritten by a monomial basis change P: block-diagonal
on (u+, t1, u-, t0), a signed scaled permutation within u+ and within u-, and the identity
on t1 and t0, so every block keeps its span, every restriction keeps its coordinates c and
every term count stays.  The basis is rebuilt by ``hilbert_basis`` on each algebra (on the
double's rebuilds, which carry no realization, that is the transport of the double's
basis) and every reading must come out equal.
"""

import pytest

from liesplit import zalgebra
from liesplit.invariants import eliminate_on_subspace, ggs_check, hilbert_basis, restrict_to_t0
from liesplit.liealg import change_basis
from liesplit.poisson import index_estimate, sphericity
from liesplit.splitting import contract, make_splitting
from liesplit.zalgebra import _kept_degrees, run_case

# (case, params, the basis kind the case builds)
CASES = [
    ("sl2n", {"n": 2}, "trace_powers"),
    ("sl2n1", {"n": 1}, "trace_powers"),
    ("sl2n1", {"n": 2}, "trace_powers"),
    ("so2n", {"n": 3}, "charpoly"),
    ("borel", {"n": 3}, "charpoly"),
    ("horo", {"n": 3, "t1": "zero"}, "charpoly"),
    ("double", {"n": 1}, "charpoly"),
]


class _Built(Exception):
    pass


def _case_splitting(monkeypatch, case, params):
    """The horospherical splitting ``run_case`` builds for the case, taken as it is built:
    the case stops there."""
    build = zalgebra.horospherical_splitting

    def built(*args, **kwargs):
        raise _Built(build(*args, **kwargs))

    monkeypatch.setattr(zalgebra, "horospherical_splitting", built)
    with pytest.raises(_Built) as done:
        run_case(case, params)
    monkeypatch.undo()
    return done.value.args[0]


def _monomial_rewrite(S):
    """The splitting S rewritten by a monomial P that reverses u+ and u-, scales their
    vectors by 2, -3, 2, -3, ... and fixes t1 and t0; h and r keep their index blocks."""
    L = S.algebra
    start = len(S.h_indices)  # u+ is 0 .. nplus - 1, then t1; u- starts r, then t0
    nplus, nminus = start - len(S.t1_indices), L.dim - start - len(S.t0_indices)
    image = list(range(L.dim))
    image[:nplus] = reversed(range(nplus))
    image[start:start + nminus] = reversed(range(start, start + nminus))
    blocks = set(range(nplus)) | set(range(start, start + nminus))
    scale = [(2 if a % 2 else -3) if a in blocks else 1 for a in range(L.dim)]
    vectors = [[scale[a] * int(i == image[a]) for i in range(L.dim)] for a in range(L.dim)]
    names = [f"{L.names[image[a]]}'" if a in blocks else L.names[a] for a in range(L.dim)]
    S2 = make_splitting(change_basis(L, vectors, names), S.h_indices)
    S2.t1_indices, S2.t0_indices = S.t1_indices, S.t0_indices
    return S2


def _readings(S, kind):
    B = hilbert_basis(S.algebra, kind)
    reps = [ggs_check(S, B, side=side, trials=3, seed=0) for side in ("h", "r")]
    sph = sphericity(S, trials=3, seed=0)
    return {
        "sum_m": [(r.sum_m, r.dim_m) for r in reps],
        "bidegrees": sorted((i, d - i) for d, parts in zip(B.degrees, B.split(S)) for i in parts),
        "extreme_bidegrees": [sorted(row.bidegree_top for row in r.rows) for r in reps],
        "s0": sph.s0,
        "s_inf": sph.s_inf,
        "index": [index_estimate(A, trials=3, seed=0).claimed_index
                  for A in (S.algebra, contract(S, "keep_h"), contract(S, "keep_r"))],
        "kept": _kept_degrees(S, eliminate_on_subspace(B, S)),
        "restrictions": [restrict_to_t0(S, F) for F in B.polys],
    }


@pytest.mark.parametrize("case, params, kind", CASES,
                         ids=[f"{c}-{'-'.join(map(str, p.values()))}" for c, p, _ in CASES])
def test_readings_survive_a_monomial_basis_change(monkeypatch, case, params, kind):
    S = _case_splitting(monkeypatch, case, params)
    S2 = _monomial_rewrite(S)
    assert S2.algebra.constants != S.algebra.constants  # the rewrite is not the identity
    assert _readings(S2, kind) == _readings(S, kind)
