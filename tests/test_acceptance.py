"""Acceptance suite: exact-value regression plus property checks, desk scale.

One test per criterion; each prints a PASS line with its runtime (visible
with ``pytest -s`` and in captured output) and enforces the runtime budget.
"""

import json
import random
import time
from pathlib import Path

from liesplit.liealg import build_double, build_gl, build_sl, change_basis
from liesplit.invariants import (
    bidecompose,
    eliminate_on_subspace,
    ggs_check,
    hilbert_basis,
    transport_basis,
)
from liesplit.linalg import inverse
from liesplit.poisson import index_estimate
from liesplit.poly import Polynomial
from liesplit.rationals import QQ
from liesplit.splitting import (
    contract,
    horospherical_splitting,
    make_decomposition,
    make_splitting,
)
from liesplit.zalgebra import run_case


_REPORT_CACHE = {}


def cached_case(name, frozen_params, seed=1):
    key = (name, frozen_params, seed)
    if key not in _REPORT_CACHE:
        t0 = time.perf_counter()
        rep = run_case(name, dict(frozen_params), seed=seed)
        _REPORT_CACHE[key] = (rep, time.perf_counter() - t0)
    return _REPORT_CACHE[key]


def announce(num, elapsed, message):
    print(f"ACCEPTANCE {num} PASS ({elapsed:.2f}s): {message}")


def test_criterion_1_sl3_restriction_values():
    rep, elapsed = cached_case("sl2n1", (("n", 1),))
    assert rep.tables["restrictions"] == {"P2": "6*c^2", "P3": "-6*c^3"}
    assert rep.verdicts["no_ggs"]
    assert rep.verdicts["elimination_infeasible"]
    assert elapsed < 1.0
    announce(1, elapsed, "sl_3 restrictions are 6c^2 and -6c^3, no generating system")


def test_criterion_2_so8_case():
    rep, elapsed = cached_case("so2n", (("n", 4),))
    assert rep.tables["restrictions"] == {
        "Delta_2": "-c^2", "Delta_4": "0", "Delta_6": "0", "Pf": "0"
    }
    assert rep.verdicts["ggs_exists"]
    assert rep.tables["sum_m"] == 13 == rep.tables["dim_m"]  # dim u_- + dim t_0
    assert rep.tables["per_generator_deg_m"] == [2, 3, 5, 3]
    assert elapsed < 30.0
    announce(2, elapsed, "so_8 minors/Pfaffian: only Delta_2 restricts, degree sum 13")


def test_criterion_3_e6_weyl():
    rep, elapsed = cached_case("e6_weyl", ())
    assert rep.tables["orders"] == [51840, 1152, 192, 6]
    assert rep.verdicts["w0_is_s3"]
    assert rep.tables["element_orders"] == {"1": 1, "2": 3, "3": 2}
    assert rep.verdicts["failure_at_degree_3"]
    per_degree = {d: (im, inv) for d, im, inv in rep.tables["per_degree"]}
    assert per_degree[2] == (1, 1)
    assert per_degree[3] == (0, 1)
    assert elapsed < 300.0
    # sampled root-permutation check of the big group
    from liesplit.weyl import build_root_system, enumerate_weyl

    rs = build_root_system("E6")
    W = enumerate_weyl(rs)
    rng = random.Random(0)
    roots = set(rs.positive_roots) | {tuple(-x for x in r) for r in rs.positive_roots}
    for el in rng.sample(W.elements, 64):
        m = W.matrix(el)
        for r in rng.sample(rs.positive_roots, 6):
            assert tuple(m.matvec(r)) in roots
    announce(3, elapsed, "E6: order 51840, W0 = S3 (1152/192/6), restriction fails at degree 3")


def _gl4_block_indices(gl4, sizes):
    order = [(i, j) for i in range(4) for j in range(4) if i < j]
    order += [(i, i) for i in range(4)]
    order += [(i, j) for i in range(4) for j in range(4) if i > j]
    bounds = []
    start = 0
    for s in sizes:
        bounds.append((start, start + s))
        start += s

    def inside(i, j):
        return any(a <= i < b and a <= j < b for a, b in bounds)

    return [k for k, (i, j) in enumerate(order) if inside(i, j)]


def test_criterion_4_gl4_dichotomy():
    t0 = time.perf_counter()
    gl4 = build_gl(4)
    trace = hilbert_basis(gl4, "trace_powers")
    charp = hilbert_basis(gl4, "charpoly")
    D13 = make_decomposition(gl4, _gl4_block_indices(gl4, [1, 3]))
    r_t = ggs_check(D13, trace)
    assert (r_t.sum_m, r_t.dim_m, r_t.verdict) == (8, 6, False)
    r_c = ggs_check(D13, charp)
    assert (r_c.sum_m, r_c.dim_m, r_c.verdict) == (6, 6, True)
    D22 = make_decomposition(gl4, _gl4_block_indices(gl4, [2, 2]))
    assert ggs_check(D22, trace).verdict
    assert ggs_check(D22, charp).verdict
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    announce(4, elapsed, "gl_4 dichotomy: traces fail (8>6), charpoly passes; both pass for 2+2")


def test_criterion_5_sl4_elimination():
    t0 = time.perf_counter()
    g = build_sl(4)
    cart = g.triangular.cartan
    t0v = [[QQ(0)] * 15]
    t0v[0][cart[0]] = QQ(1)
    t0v[0][cart[2]] = -QQ(1)
    t1v = []
    for diag in ([1, 0, 0, -1], [0, 1, -1, 0]):
        v = [QQ(0)] * 15
        run = QQ(0)
        for k, i in enumerate(cart):
            run = run + QQ(diag[k])
            v[i] = run
        t1v.append(v)
    S = horospherical_splitting(g, t1v, t0_basis=t0v)
    B = transport_basis(hilbert_basis(g, "trace_powers"), S)
    mod = eliminate_on_subspace(B, S, keep=[0])
    P2, P3, P4 = B.polys
    assert mod.polys[2] == P4 - QQ(1, 4) * P2 * P2
    assert mod.polys[1] == P3
    assert ggs_check(S, mod, side="h").verdict
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(5, elapsed, "sl_4: corrected quartic P4 - (1/4)P2^2, modified basis is good")


def test_criterion_6_double_cases():
    repA1, t1 = cached_case("double", (("n", 1),))
    assert repA1.tables["m_tilde_count"] == 3 == repA1.tables["b"]
    assert repA1.tables["trdeg"] == 3
    assert repA1.verdicts["z_commutes"]
    assert repA1.tables["common_ggs"] and repA1.tables["all_degrees_even"]
    repA2, t2 = cached_case("double", (("n", 2),))
    # |M~| must equal b of the extended algebra: 2l + sum(d_j - 1) = 4 + 3 = 7
    assert repA2.tables["m_tilde_count"] == 7 == repA2.tables["b"]
    assert repA2.tables["trdeg"] == 7
    assert repA2.verdicts["z_commutes"]
    assert repA2.verdicts["m_tilde_count_equals_b"]
    assert not repA2.tables["common_ggs"]  # degree 3 is odd
    assert len(repA2.tables["parameters"]) == 8  # three ends plus five random
    elapsed = t1 + t2
    assert elapsed < 60.0
    announce(6, elapsed, "doubles: 3 = b and 7 = b free generators, brackets vanish everywhere")


def test_criterion_7_sphericity_law():
    t0 = time.perf_counter()
    reports = [
        cached_case("borel", (("n", 2),))[0],
        cached_case("horo", (("n", 3), ("t1", ((1, 0, -1),))))[0],
        cached_case("sl2n", (("n", 2),))[0],
        cached_case("so2n", (("n", 4),))[0],
        cached_case("double", (("n", 1),))[0],
        cached_case("double", (("n", 2),))[0],
    ]
    for rep in reports:
        tables = rep.tables
        if rep.case == "borel":
            assert rep.verdicts["s0_is_zero"] and rep.verdicts["sphericity_sum_equals_rank"]
        elif rep.case == "horo":
            assert rep.verdicts["s0_formula"] and rep.verdicts["sum_equals_rank"]
            assert tables["s0"] == 1 and tables["s_inf"] == 1
        elif rep.case == "double":
            assert rep.verdicts["s0_equals_s_inf_equals_rank_of_base"]
        else:
            assert rep.verdicts["sphericity_formula"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce(7, elapsed, "s0 + s_inf = rank and s0 = rank - dim t1 on every tested splitting")


def test_criterion_8_index_law():
    t0 = time.perf_counter()
    cases = []
    sl2 = build_sl(2)
    cases.append((sl2, horospherical_splitting(sl2, [[QQ(0), QQ(1), QQ(0)]]), 5))
    sl3 = build_sl(3)
    cart3 = sl3.triangular.cartan
    v = [QQ(0)] * 8
    v[cart3[0]] = QQ(1)
    v[cart3[1]] = QQ(1)
    cases.append((sl3, horospherical_splitting(sl3, [v]), 5))
    d2 = build_double(sl2)
    cases.append((d2, horospherical_splitting(d2, [[QQ(0), QQ(1), QQ(0), -QQ(1)]]), 5))
    sl4 = build_sl(4)
    cart4 = sl4.triangular.cartan
    t1v = []
    for diag in ([1, 0, 0, -1], [0, 1, -1, 0]):
        w = [QQ(0)] * 15
        run = QQ(0)
        for k, i in enumerate(cart4):
            run = run + QQ(diag[k])
            w[i] = run
        t1v.append(w)
    cases.append((sl4, horospherical_splitting(sl4, t1v), 5))
    from liesplit.liealg import build_so_even

    so8 = build_so_even(4)
    t1so = []
    for i in so8.triangular.cartan[:3]:
        w = [QQ(0)] * 28
        w[i] = QQ(1)
        t1so.append(w)
    cases.append((so8, horospherical_splitting(so8, t1so), 5))
    for g, S, seeds in cases:
        ell = g.rank
        for seed in range(seeds):
            i0 = index_estimate(contract(S, "keep_h"), trials=5, seed=seed).claimed_index
            ii = index_estimate(contract(S, "keep_r"), trials=5, seed=seed).claimed_index
            # the index never drops below the rank; equality certifies sphericity
            assert i0 == ell and ii == ell
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    announce(8, elapsed, "both contractions keep index = rank, five seeds per side")


def test_criterion_9_property_suites_and_complement_operator():
    t0 = time.perf_counter()
    # make sure the core cases are present even when this test runs alone
    for name, frozen in (
        ("borel", (("n", 2),)),
        ("sl2n", (("n", 2),)),
        ("sl2n1", (("n", 1),)),
        ("so2n", (("n", 4),)),
        ("double", (("n", 1),)),
        ("double", (("n", 2),)),
    ):
        cached_case(name, frozen)
    failures = []
    for (name, _, _), (rep, _) in _REPORT_CACHE.items():
        for key, value in rep.verdicts.items():
            if key.startswith("property_") and not value:
                failures.append((name, key))
    assert not failures, failures
    # complement-independence operator on sl_2
    sl2 = build_sl(2)
    e, h, f = (Polynomial.variable(3, i) for i in range(3))
    C = h * h + 4 * e * f
    S = make_splitting(sl2, (0, 1))
    top = bidecompose(S, C)[1]
    for alpha, beta in ((2, 5), (-1, 3)):
        image = f + alpha * e + beta * h
        L_top = top.map_vars([e, h, image], 3)
        adapted = change_basis(sl2, [[1, 0, 0], [0, 1, 0], [QQ(alpha), QQ(beta), 1]],
                               ["e", "h", "ft"])
        A = adapted.base_change.transpose()
        fwd = inverse(A)
        C_new = C.map_vars([Polynomial.linear_form(3, fwd.rows[i]) for i in range(3)], 3)
        D2 = make_decomposition(adapted, (0, 1))
        parts = bidecompose(D2, C_new)
        top_new = parts[min(parts)]
        back = top_new.map_vars([Polynomial.linear_form(3, A.rows[i]) for i in range(3)], 3)
        assert back == L_top
    elapsed = time.perf_counter() - t0
    announce(9, elapsed, "property suites green on every case; complement operator exact on sl_2")


def test_criterion_10_aks_restrictions():
    t0 = time.perf_counter()
    for n in (2, 3):
        rep, _ = cached_case("aks", (("n", n),))
        assert rep.verdicts["side_h_commutes"]
        assert rep.verdicts["side_r_commutes"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(10, elapsed, "restricted invariants Poisson-commute inside each summand")


GOLDEN = Path(__file__).parent / "data" / "case_reports.json"


def _freeze(value):
    return tuple(_freeze(v) for v in value) if isinstance(value, list) else value


def test_case_reports_match_golden():
    """Every cached report, verdicts, tables and stage labels, equals its recorded form."""
    t0 = time.perf_counter()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for entry in golden:
        rep, _ = cached_case(entry["name"], _freeze(entry["params"]), entry["seed"])
        doc = rep.to_dict()
        doc["timings_ms"] = list(doc["timings_ms"])
        assert json.loads(json.dumps(doc)) == entry["report"], entry["name"]
    announce("golden", time.perf_counter() - t0,
             f"{len(golden)} case reports equal their recorded verdicts, tables and stages")
