import json
import random
import re
from functools import lru_cache
from pathlib import Path

import pytest

from liesplit import _kernels as K, liealg, linalg, poisson, zalgebra
from liesplit.invariants import bidecompose, hilbert_basis, jacobian_rank
from liesplit.liealg import (LieAlgebra, algebra_from_json, algebra_to_json, build_double,
                             build_gl, build_sl, build_so_even, change_basis,
                             sub_algebra)
from liesplit.linalg import P, Matrix, _best_rank, _sample_point, rank, rank_and_nullspace, solve
from liesplit.poisson import (generic_stabilizer, index_estimate, poisson_bracket, sphericity,
                              tensor_at)
from liesplit.poly import Polynomial
from liesplit.rationals import QQ
from liesplit.splitting import (
    contract,
    family_bracket,
    horospherical_splitting,
    make_splitting,
    pencil_member,
)
from liesplit.zalgebra import _sl_diagonals, _vectors, run_case


def _direct_sum(a, b):
    """a + b with no bracket between the summands, b's names primed where they clash."""
    names = list(a.names) + [nm if nm not in a.names else nm + "'" for nm in b.names]
    constants = dict(a.constants)
    for (i, j), entries in b.constants.items():
        constants[(i + a.dim, j + a.dim)] = tuple((k + a.dim, c) for k, c in entries)
    return LieAlgebra._derived(names, constants, f"sum[{a.kind},{b.kind}]", index_floor=0,
                               rank=a.rank + b.rank)


def _bracket_vec(L, u, v):
    """[u, v] of two coordinate vectors, as a sparse dict, from ``bracket_pair``."""
    out = {}
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            if a and b:
                for k, c in L.bracket_pair(i, j).items():
                    out[k] = out.get(k, 0) + QQ(a) * b * c
    return {k: c for k, c in out.items() if c}


def test_direct_sum_builder():
    a = build_sl(2)
    b = build_sl(2)
    s = _direct_sum(a, b)
    assert s.dim == 6
    assert s.rank == 2
    # cross brackets vanish, block brackets survive
    assert s.bracket_pair(0, 3) == {}
    assert s.bracket_pair(3, 4) == {3: QQ(-2)}
    assert liealg.jacobi_report(s.dim, s.constants).passed


def sl2_vars():
    return (Polynomial.variable(3, i) for i in range(3))


def _adapted_sl3():
    """The horospherical splitting of sl(3) with t1 spanned by diag(1, 0, -1) = h1 + h2."""
    g = build_sl(3)
    return horospherical_splitting(g, [[int(i in g.triangular.cartan) for i in range(g.dim)]])


def test_index_estimate_witness_replays():
    S = _adapted_sl3()
    # the adapted basis and its contraction have half-integral constants
    for g, D in ((build_sl(3), 1), (S.algebra, 2), (contract(S, "keep_h"), 2)):
        assert g.bracket_table[0] == D
        est = index_estimate(g, trials=4, seed=3)
        doc = est.as_dict()
        witness = [QQ(x) for x in doc["witness"]]
        assert len(witness) == g.dim
        sample = tensor_at(g, witness)
        assert sample.rank == est.certified_max_rank == doc["certified_max_rank"]
        # the exact tensor, not D times it
        pi = [[sum(witness[k] * c for k, c in g.bracket_pair(a, b).items())
               for b in range(g.dim)] for a in range(g.dim)]
        assert sample.matrix == Matrix(pi)


def test_index_witness_of_an_abelian_algebra_is_a_point():
    # every rank is 0: the witness is the first sample, no longer the empty tuple
    gl1 = build_gl(1)
    est = index_estimate(gl1, trials=3, seed=0)
    assert len(est.witness) == 1 and est.claimed_index == 1
    assert tensor_at(gl1, est.witness).rank == est.certified_max_rank == 0


def test_degree_one_bracket_is_lie_bracket():
    sl2 = build_sl(2)
    e, h, f = sl2_vars()
    assert poisson_bracket(sl2, h, e) == 2 * e
    assert poisson_bracket(sl2, e, f) == h


def test_bracket_products_at_the_exponent_limit(monkeypatch):
    # with every exponent of F and G below 128, V_j = {F, x_j} stays at most 128 and dG_j
    # below 128, so no product carries and none is tested: {h^127 e, h^127 f} reaches h^255;
    # an exponent of 128 sends every product through the carry test, and one past 255 raises
    sl2 = build_sl(2)
    e, h, f = sl2_vars()
    pi = {(0, 1): -2 * e, (0, 2): h, (1, 2): -2 * f}  # [e, h] = -2e, [e, f] = h, [h, f] = -2f

    def reference(F, G):
        return sum((c * (F.diff(i) * G.diff(j) - F.diff(j) * G.diff(i))
                    for (i, j), c in pi.items()), Polynomial.zero(3))

    small, large, too_large = (h**127 * e, h**127 * f), (h**128 * e, f), (h**128 * e, h**127 * f)
    want = [reference(*small), reference(*large)]
    assert want[0] == h**255 - 508 * e * h**253 * f
    checked, mul = [], K.mul_terms
    monkeypatch.setattr(K, "mul_terms", lambda *args: checked.append(1) or mul(*args))
    assert poisson_bracket(sl2, *small) == want[0]
    assert not checked
    assert poisson_bracket(sl2, *large) == want[1]
    assert checked
    with pytest.raises(OverflowError, match="255"):
        poisson_bracket(sl2, *too_large)


def test_casimir_brackets_vanish():
    sl2 = build_sl(2)
    e, h, f = sl2_vars()
    C = h * h + 4 * e * f
    for g in (e, h, f):
        assert poisson_bracket(sl2, C, g).is_zero()


def test_antisymmetry_self_bracket():
    sl2 = build_sl(2)
    e, h, f = sl2_vars()
    F = e * h + 3 * f**2
    assert poisson_bracket(sl2, F, F).is_zero()


def test_tensor_at_zero_point():
    sl2 = build_sl(2)
    s = tensor_at(sl2, [0, 0, 0])
    assert s.rank == 0
    assert all(x == 0 for row in s.matrix.rows for x in row)


def test_tensor_at_dual_of_h():
    sl2 = build_sl(2)
    s = tensor_at(sl2, [0, 1, 0])
    assert s.rank == 2
    assert s.matrix.is_skew()
    # only xi([e,f]) = xi(h) = 1 pairs nontrivially
    assert s.matrix[0, 2] == 1 and s.matrix[2, 0] == -1


def test_tensor_block_rank_on_contraction():
    sl2 = build_sl(2)
    S = make_splitting(sl2, (0, 1))
    s = tensor_at(pencil_member(S, (1, 0)), [0, 0, 5])
    assert s.rank == 2
    # dim of the h-orbit of a generic point of Ann(h)
    assert S.dim_h - generic_stabilizer(sl2, S.h_indices).dim_star == 1


def test_index_abelian():
    ab = LieAlgebra(list("abcd"), {})
    assert index_estimate(ab, trials=3, seed=0).claimed_index == 4


def test_index_sl2():
    est = index_estimate(build_sl(2), trials=5, seed=0)
    assert est.claimed_index == 1
    assert est.b_value == QQ(2)
    assert est.certified_max_rank == 2


def _sl3_borel_splitting():
    sl3 = build_sl(3)
    return make_splitting(sl3, tuple(sl3.triangular.plus) + tuple(sl3.triangular.cartan))


def test_index_contraction_sl3_borel():
    con = contract(_sl3_borel_splitting(), "keep_h")
    assert index_estimate(con, trials=5, seed=1).claimed_index == 2


def test_regular_point_check():
    # a point is regular iff dim ker pi(xi) is the index
    sl2 = build_sl(2)
    est = index_estimate(sl2, trials=5, seed=0)
    assert sl2.dim - tensor_at(sl2, [0, 1, 0]).rank == est.claimed_index
    assert sl2.dim - tensor_at(sl2, [0, 0, 0]).rank != est.claimed_index


def _sl4_horospherical():
    """The horospherical splitting of sl(4) with t1 spanned by diag(1, 0, 0, -1) and
    diag(0, 1, -1, 0)."""
    g = build_sl(4)
    t1 = []
    cart = g.triangular.cartan
    for diag in ([1, 0, 0, -1], [0, 1, -1, 0]):
        v = [QQ(0)] * g.dim
        run = QQ(0)
        for k, i in enumerate(cart):
            run = run + QQ(diag[k])
            v[i] = run
        t1.append(v)
    return horospherical_splitting(g, t1)


def test_regular_points_in_ann_h_for_sl4_splitting():
    # generic points of Ann(h) are regular for the semidirect setup of the
    # 2n = 4 case; five seeds, five samples
    S = _sl4_horospherical()
    L = S.algebra
    est = index_estimate(L, trials=6, seed=0)
    assert est.claimed_index == 3
    for seed in range(5):
        rng = random.Random(seed)
        xi = [0] * L.dim
        for i in S.r_indices:
            xi[i] = rng.randint(-999, 999)
        assert L.dim - tensor_at(L, xi).rank == est.claimed_index


def test_sampling_needs_at_least_one_trial():
    sl2 = build_sl(2)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials >= 1 required"):
            generic_stabilizer(sl2, (0, 1), trials=trials)
        with pytest.raises(ValueError, match="trials >= 1 required"):
            index_estimate(sl2, trials=trials)


@pytest.mark.parametrize("trials", [True, 1.5, "3"])
def test_sampling_needs_an_int_number_of_trials(trials):
    # True was reported as samples=True; 1.5 raised TypeError from range
    sl2 = build_sl(2)
    message = re.escape(f"trials must be an integer, got {trials!r}")
    with pytest.raises(ValueError, match=message):
        generic_stabilizer(sl2, (0, 1), trials=trials)
    with pytest.raises(ValueError, match=message):
        index_estimate(sl2, trials=trials)


@pytest.mark.parametrize("seed", ["a", 1.0, True])
def test_samplers_reject_a_seed_that_is_not_an_int(seed):
    # each sampler checks the seed before its first draw, as it checks trials
    sl2 = build_sl(2)
    calls = (lambda: generic_stabilizer(sl2, (0, 1), seed=seed),
             lambda: sphericity(make_splitting(sl2, (0, 1)), seed=seed),
             lambda: index_estimate(sl2, seed=seed),
             lambda: jacobian_rank([Polynomial.variable(3, 0)], seed=seed))
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            call()


@pytest.mark.parametrize("bound", [0, True, 2**40, 1.5, -3])
@pytest.mark.parametrize("sampler", ["index_estimate", "generic_stabilizer", "jacobian_rank"])
def test_samplers_reject_a_bad_bound(sampler, bound):
    # 0 drew only the zero point (index 8 for sl(3)), True ran as 1, 2**40 broke
    # 2 bound + 1 <= P, and 1.5 and -3 failed inside randrange
    sl3 = build_sl(3)
    call = {"index_estimate": lambda: index_estimate(sl3, bound=bound),
            "generic_stabilizer": lambda: generic_stabilizer(sl3, (0, 1), bound=bound),
            "jacobian_rank": lambda: jacobian_rank([Polynomial.variable(8, 0)], bound=bound)}
    with pytest.raises(ValueError, match=re.escape(f"bound must be an integer with 1 <= bound "
                                                   f"<= {(P - 1) // 2}, got {bound!r}")):
        call[sampler]()


def _counting_rank(ranks):
    """A fake ``rank_at`` returning ``ranks`` in turn and recording every point it sees."""
    seen = []

    def rank_at(xi):
        seen.append(tuple(xi))
        return ranks[len(seen) - 1]

    return rank_at, seen


def test_best_rank_draws_the_sample_point_sequence():
    rank_at, seen = _counting_rank([0] * 6)
    _best_rank(rank_at, 4, 99, 6, 13, 50, support=[0, 2])
    rng = random.Random(13)
    assert seen == [tuple(_sample_point(rng, 4, 50, support=[0, 2])) for _ in range(6)]
    assert all(xi[1] == xi[3] == 0 for xi in seen)


def test_best_rank_keeps_the_first_point_at_the_best_rank():
    rank_at, seen = _counting_rank([1, 3, 2, 3, 0])
    assert _best_rank(rank_at, 3, 4, 5, 0, 9) == (3, seen[1])
    assert len(seen) == 5
    # every rank equal: the first point is the witness
    rank_at, seen = _counting_rank([0, 0, 0])
    assert _best_rank(rank_at, 2, 2, 3, 1, 9) == (0, seen[0])


def test_best_rank_draws_nothing_after_the_cap():
    rank_at, seen = _counting_rank([1, 2, 4, 4, 4])
    assert _best_rank(rank_at, 3, 4, 5, 2, 9) == (4, seen[2])
    assert len(seen) == 3


def test_best_rank_raises_above_the_cap():
    rank_at, seen = _counting_rank([2, 6, 4])
    with pytest.raises(AssertionError, match="sampled rank 6 exceeds the proven ceiling 4"):
        _best_rank(rank_at, 3, 4, 3, 0, 9)
    assert len(seen) == 2


def test_a_floor_above_the_index_is_caught():
    # the Borel contraction of sl(3) has index 2, so a floor of 4 caps the rank at 4 < 6
    S = _sl3_borel_splitting()
    con = contract(S, "keep_h")
    bad = LieAlgebra._derived(con.names, con.constants, con.kind, index_floor=4)
    with pytest.raises(AssertionError, match="exceeds the proven ceiling 4: index floor bug"):
        index_estimate(bad, trials=5, seed=1)
    xi = _sample_point(random.Random(1), con.dim, 99)
    assert tensor_at(con, xi).rank == 6
    with pytest.raises(AssertionError, match="rank modulo P 6 exceeds the proven ceiling 4"):
        tensor_at(bad, xi)
    # h = q: the h columns are all of pi(xi), under the same ceiling
    with pytest.raises(AssertionError, match="sampled rank 6 exceeds the proven ceiling 4"):
        generic_stabilizer(bad, range(con.dim), trials=5, seed=1)
    # the Borel h: its 5 columns have rank 3 on Ann(h), over the ceiling min(5, 3, 4 // 2)
    assert generic_stabilizer(con, S.h_indices, trials=5, seed=1).dim_star == 5 - 3
    with pytest.raises(AssertionError, match="sampled rank 3 exceeds the proven ceiling 2"):
        generic_stabilizer(bad, S.h_indices, trials=5, seed=1)


def test_rational_points_and_floorless_algebras_take_elimination(monkeypatch):
    calls = []
    monkeypatch.setattr(poisson, "rank", lambda m: calls.append(m) or rank(m))
    sl3 = build_sl(3)
    xi = _sample_point(random.Random(2), sl3.dim, 99)
    assert tensor_at(sl3, xi).rank == 6 and not calls  # the rank mod P meets the ceiling 6
    for L, point in ((sl3, [QQ(1, 2)] + xi[1:]), (LieAlgebra(sl3.names, sl3.constants), xi),
                     (sl3, [0] * sl3.dim)):
        calls.clear()
        sample = tensor_at(L, point)
        assert len(calls) == 1 and sample.rank == rank(sample.matrix), (L, point)


def _so8_horospherical():
    g = build_so_even(4)
    units = [[int(i == k) for i in range(g.dim)] for k in g.triangular.cartan[:3]]
    return horospherical_splitting(g, units)


def _double_sl2_horospherical():
    d = build_double(build_sl(2))  # basis (e, h, f, xi1)
    return horospherical_splitting(d, [[0, 1, 0, -1]])


_CEILING_SPLITTINGS = {"sl3": _adapted_sl3, "sl4": _sl4_horospherical,
                       "double_sl2": _double_sl2_horospherical, "so8": _so8_horospherical}


def test_index_floors_follow_the_construction():
    sl3, so8 = build_sl(3), build_so_even(4)
    assert (sl3.index_floor, so8.index_floor, build_gl(4).index_floor) == (2, 4, 4)
    assert build_double(sl3).index_floor == 4
    S = _adapted_sl3()
    assert S.algebra.index_floor == 2  # a change_basis rebuild
    for side in ("keep_h", "keep_r"):
        assert contract(S, side).index_floor == 2
    for p in ((1, 0), (0, 1), (2, -3)):
        assert family_bracket(S, p).index_floor == 2
    plus = sl3.triangular.plus
    for L in (algebra_from_json(algebra_to_json(so8)), sub_algebra(sl3, plus),
              generic_stabilizer(sl3, plus).subalgebra, LieAlgebra(["a"], {}),
              change_basis(LieAlgebra(["a"], {}), [[2]], ["b"])):
        assert L.index_floor == 0


@pytest.mark.parametrize("label", _CEILING_SPLITTINGS)
def test_the_ceiling_changes_no_estimate(label):
    S = _CEILING_SPLITTINGS[label]()
    for side in ("keep_h", "keep_r"):
        con = contract(S, side)
        assert con.index_floor == S.algebra.rank
        floorless = LieAlgebra(con.names, con.constants)
        for seed in range(5):
            assert (index_estimate(con, trials=5, seed=seed).as_dict()
                    == index_estimate(floorless, trials=5, seed=seed).as_dict())


def test_contraction_estimates_stop_at_the_ceiling(monkeypatch):
    draws = []

    def counting(*args, **kwargs):
        draws.append(1)
        return _sample_point(*args, **kwargs)

    monkeypatch.setattr(linalg, "_sample_point", counting)
    S = _so8_horospherical()
    for side in ("keep_h", "keep_r"):
        draws.clear()
        est = index_estimate(contract(S, side), trials=5, seed=0)
        assert (est.claimed_index, est.samples, len(draws)) == (4, 5, 1)
    # a JSON-loaded so(8) proves no floor, so it draws the whole budget
    draws.clear()
    est = index_estimate(algebra_from_json(algebra_to_json(build_so_even(4))), trials=5, seed=0)
    assert (est.claimed_index, est.samples, len(draws)) == (4, 5, 5)


def test_generic_stabilizer_sl2_cases():
    sl2 = build_sl(2)
    rb = generic_stabilizer(sl2, (0, 1), trials=6, seed=2)
    assert rb.dim_star == 1 and rb.is_abelian
    ru = generic_stabilizer(sl2, (2,), trials=6, seed=2)
    assert ru.dim_star == 0
    rfull = generic_stabilizer(sl2, (0, 1, 2), trials=6, seed=2)
    assert rfull.dim_star == index_estimate(sl2, trials=5, seed=0).claimed_index


def test_stabilizer_closure_and_witness():
    sl3 = build_sl(3)
    rep = generic_stabilizer(sl3, tuple(sl3.triangular.plus) + tuple(sl3.triangular.cartan),
                             trials=6, seed=4)
    assert rep.dim_star == len(rep.stabilizer_basis)
    # witness point is stored and annihilates the stabilizer directions
    L = sl3
    for v in rep.stabilizer_basis:
        full = [QQ(0)] * L.dim
        for pos, i in enumerate(rep.h_indices):
            full[i] = v[pos]
        for j in range(L.dim):
            unit = [QQ(1) if t == j else QQ(0) for t in range(L.dim)]
            w = _bracket_vec(L, full, unit)
            val = sum((QQ(rep.sample_point[k]) * c for k, c in w.items()), QQ(0))
            assert val == 0


def test_sphericity_sl2_sides():
    sl2 = build_sl(2)
    rep = sphericity(make_splitting(sl2, (0, 1)), trials=6, seed=3)
    assert (rep.s0, rep.s_inf) == (0, 1)
    assert rep.verdicts["sum_equals_rank"]
    assert rep.verdicts["nondegenerate"]
    assert rep.c_gh == 0 and rep.c_gr == 0


def test_sphericity_sl3_horospherical():
    g = build_sl(3)
    cart = g.triangular.cartan
    v = [QQ(0)] * 8
    v[cart[0]] = QQ(1)
    v[cart[1]] = QQ(1)
    S = horospherical_splitting(g, [v])
    rep = sphericity(S, trials=6, seed=3)
    assert (rep.s0, rep.s_inf) == (1, 1)
    assert rep.verdicts["sum_equals_rank"]


def test_sphericity_double_sl2():
    d = build_double(build_sl(2))
    S = horospherical_splitting(d, [[QQ(0), QQ(1), QQ(0), -QQ(1)]])
    rep = sphericity(S, trials=6, seed=3)
    assert (rep.s0, rep.s_inf) == (1, 1)
    assert rep.rank == 2
    assert rep.verdicts["sum_equals_rank"]


def test_skewness_and_even_rank_random():
    rng = random.Random(7)
    sl3 = build_sl(3)
    for _ in range(8):
        xi = [rng.randint(-20, 20) for _ in range(8)]
        s = tensor_at(sl3, xi)
        assert s.matrix.is_skew()
        assert s.rank % 2 == 0


def test_kernel_is_stabilizer():
    rng = random.Random(9)
    sl3 = build_sl(3)
    xi = [rng.randint(-20, 20) for _ in range(8)]
    s = tensor_at(sl3, xi)
    for v in rank_and_nullspace(s.matrix)[1]:
        # xi([v, y]) = 0 for every basis direction y
        for j in range(8):
            unit = [QQ(1) if t == j else QQ(0) for t in range(8)]
            w = _bracket_vec(sl3, list(v), unit)
            assert sum((QQ(xi[k]) * c for k, c in w.items()), QQ(0)) == 0


def test_float_tensor_point_is_rejected():
    with pytest.raises(TypeError, match="float 0.1 in the point"):
        tensor_at(build_sl(2), [1, 0.1, 2])


def test_stabilizer_closure_check_builds_no_algebra(monkeypatch):
    sl3 = build_sl(3)
    with pytest.raises(ValueError, match="do not span a subalgebra"):
        generic_stabilizer(sl3, (0, 5), trials=2)  # [E12, E21] = h1 leaves the span
    calls = []
    check = liealg.jacobi_report

    def counting(dim, constants):
        calls.append(dim)
        return check(dim, constants)

    monkeypatch.setattr(liealg, "jacobi_report", counting)
    rep = generic_stabilizer(sl3, tuple(sl3.triangular.plus), trials=2, seed=1)
    assert calls == [rep.dim_star]  # the stabilizer's own check, nothing else


def _stabilizer_reference(L, h_indices, trials, seed, bound=997):
    """(witness, basis, constants) of the generic stabilizer from ``bracket_pair`` rows,
    with one ``solve`` per bracket of two basis vectors."""
    support = [i for i in range(L.dim) if i not in h_indices] or None
    rng = random.Random(seed)
    best = None
    for _ in range(trials):
        xi = _sample_point(rng, L.dim, bound, support=support)
        rows = [[sum(c * xi[k] for k, c in L.bracket_pair(x, y).items()) for x in h_indices]
                for y in range(L.dim)]
        _, basis = rank_and_nullspace(Matrix(rows))
        if best is None or len(basis) < len(best[1]):
            best = (tuple(xi), basis)
    xi, basis = best
    full = [[dict(zip(h_indices, v)).get(i, 0) for i in range(L.dim)] for v in basis]
    constants = {}
    for a in range(len(full)):
        for b in range(a + 1, len(full)):
            w = _bracket_vec(L, full[a], full[b])
            if w:
                coeffs = solve(Matrix.from_columns(full), [w.get(i, 0) for i in range(L.dim)])
                constants[(a, b)] = {k: c for k, c in enumerate(coeffs) if c}
    return xi, basis, constants


def test_generic_stabilizer_matches_bracket_pair_rows():
    S = _adapted_sl3()
    sl2 = build_sl(2)
    cases = [(S.algebra, S.h_indices), (S.algebra, S.r_indices),
             (contract(S, "keep_h"), S.h_indices),
             # the stabilizer of a point of the second summand is all of the first sl(2)
             (_direct_sum(sl2, sl2), (0, 1, 2))]
    for L, h in cases:
        for seed in range(3):
            rep = generic_stabilizer(L, h, trials=4, seed=seed)
            xi, basis, constants = _stabilizer_reference(L, h, 4, seed)
            assert (rep.sample_point, rep.stabilizer_basis) == (xi, basis)
            assert {p: dict(e) for p, e in rep.subalgebra.constants.items()} == constants
            assert rep.is_abelian == (not constants)
    assert not rep.is_abelian and rep.dim_star == 3


@lru_cache(maxsize=None)
def _case_bases(case):
    """The splitting and basis of case sl2n1 at n = 2 (sl(5), power traces) or so2n at n = 4
    (so(8), characteristic coefficients and the Pfaffian), built as the cases build them."""
    if case == "sl2n1":
        g = build_sl(5)
        t0 = _sl_diagonals(g, ({2 - i: 1, 2 + i: 1, 2: -2} for i in (1, 2)))
        t1 = _sl_diagonals(g, ({2 - i: 1, 2 + i: -1} for i in (1, 2)))
        S = horospherical_splitting(g, t1, t0[::-1])
        return S, hilbert_basis(S.algebra, "trace_powers")
    g = build_so_even(4)
    cart = g.triangular.cartan
    S = horospherical_splitting(g, _vectors(g.dim, ({i: 1} for i in cart[:3])),
                                _vectors(g.dim, [{cart[3]: 1}]))
    return S, hilbert_basis(S.algebra, "charpoly")


@pytest.mark.parametrize("case", ["sl2n1", "so2n"])
@pytest.mark.parametrize("side", ["keep_h", "keep_r"])
def test_contraction_brackets_are_exactly_antisymmetric(case, side):
    """{F, G} = -{G, F} exactly for every pair of bi-components (on so(8), every pair within
    30,000 term products, which leaves out the large sextic components with all but the
    smallest others), and for each bi-component with every coordinate, which it need not
    commute with; there both orders equal the bracket on the same contraction with no
    kept block, in the order given."""
    S, B = _case_bases(case)
    L = contract(S, side)
    plain = LieAlgebra._derived(L.names, L.constants, L.kind, index_floor=L.index_floor)
    parts = [c for F in B.polys for c in bidecompose(S, F).values()]
    nonzero = 0
    for a, F in enumerate(parts):
        for G in parts[a + 1:]:
            if case == "sl2n1" or len(F.terms) * len(G.terms) <= 30_000:
                assert poisson_bracket(L, F, G) == -poisson_bracket(L, G, F)
        for j in range(L.dim):
            x = Polynomial.variable(L.dim, j)
            Fx = poisson_bracket(L, F, x)
            assert Fx == -poisson_bracket(L, x, F) == poisson_bracket(plain, F, x)
            assert poisson_bracket(plain, x, F) == -Fx
            nonzero += bool(Fx)
    assert nonzero > len(parts)


def _term_pairs(monkeypatch):
    """A list whose one entry counts the term pairs of ``_kernels.mul_terms`` and of the
    unchecked ``_kernels.mul_add_terms`` from now on."""
    count = [0]
    for name in ("mul_terms", "mul_add_terms"):
        def counted(a, b, *rest, kernel=getattr(K, name)):
            count[0] += len(a) * len(b)
            return kernel(a, b, *rest)

        monkeypatch.setattr(K, name, counted)
    return count


@pytest.mark.parametrize("case", ["sl2n1", "so2n"])
def test_a_casimir_costs_the_same_in_either_order(case, monkeypatch):
    """An extreme bi-component, a Casimir of the contraction keeping the block it has least
    degree in, takes the field whichever argument it is: both orders cost what the Casimir
    first costs on the same contraction with no kept block."""
    S, B = _case_bases(case)
    count = _term_pairs(monkeypatch)
    for F in B.polys:
        parts = bidecompose(S, F)
        for side, end in (("keep_h", min(parts)), ("keep_r", max(parts))):
            L, E = contract(S, side), parts[end]
            plain = LieAlgebra._derived(L.names, L.constants, L.kind, index_floor=0)
            for i, C in parts.items():
                if i != end:
                    costs = []
                    for A, X, Y in ((plain, E, C), (L, E, C), (L, C, E)):
                        count[0] = 0
                        assert poisson_bracket(A, X, Y).is_zero()
                        costs.append(count[0])
                    assert costs[0] == costs[1] == costs[2], (side, end, i, costs)


class _Built(Exception):
    pass


@lru_cache(maxsize=None)
def _golden_splittings():
    """Every splitting a golden case report runs ``sphericity`` on, taken from ``run_case``
    as it builds it: the case stops at its first horospherical splitting."""
    golden = json.loads((Path(__file__).parent / "data" / "case_reports.json").read_text())
    build = zalgebra.horospherical_splitting

    def built(*args, **kwargs):
        raise _Built(build(*args, **kwargs))

    out = {}
    zalgebra.horospherical_splitting = built
    try:
        for entry in golden:
            try:
                run_case(entry["name"], dict(entry["params"]))
            except _Built as done:
                out[f"{entry['name']}{entry['params']}"] = done.args[0]
    finally:
        zalgebra.horospherical_splitting = build
    return out


def _exact_rank_stabilizer(L, h_indices, trials, seed, bound=997):
    """(dim_star, sample_point) as ``generic_stabilizer`` took them by exact elimination:
    the first of all ``trials`` points of Ann(h) whose h columns have the largest rank."""
    support = [i for i in range(L.dim) if i not in h_indices] or None

    def h_columns(xi):
        return Matrix([[row[x] for x in h_indices]
                       for row in poisson._tensor_matrix(L, xi).rows])

    _, xi = _best_rank(lambda xi: rank(h_columns(xi)), L.dim, len(h_indices), trials, seed,
                       bound, support)
    return len(rank_and_nullspace(h_columns(xi))[1]), xi


def test_stabilizers_match_the_exact_rank_draws_on_every_golden_splitting(monkeypatch):
    draws, inner = [], []

    def counting(*args, **kwargs):
        if not inner:  # not a draw of the stabilizer's own index estimate
            draws.append(1)
        return _sample_point(*args, **kwargs)

    def estimate(*args, **kwargs):
        inner.append(1)
        try:
            return index_estimate(*args, **kwargs)
        finally:
            inner.pop()

    monkeypatch.setattr(linalg, "_sample_point", counting)
    monkeypatch.setattr(poisson, "index_estimate", estimate)
    splittings = _golden_splittings()
    assert len(splittings) == 10, sorted(splittings)
    for label, S in splittings.items():
        for h in (S.h_indices, S.r_indices):
            for seed in range(4):
                expected = _exact_rank_stabilizer(S.algebra, h, 8, seed)
                draws.clear()
                rep = generic_stabilizer(S.algebra, h, trials=8, seed=seed)
                assert (rep.dim_star, rep.sample_point) == expected, (label, h, seed)
                assert len(draws) == 1, (label, h, seed)  # the first draw meets the ceiling
