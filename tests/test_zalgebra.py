import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from liesplit.liealg import build_double, build_sl
from liesplit import invariants, zalgebra
from liesplit.invariants import (HilbertBasis, bidecompose, custom_basis, ggs_check,
                                 hilbert_basis, jacobian_rank, transport_basis)
from liesplit.linalg import Matrix, rank
from liesplit.poisson import poisson_bracket
from liesplit.poly import Polynomial
from liesplit.rationals import QQ
from liesplit.splitting import BracketParameter, _vectors, horospherical_splitting, pencil_member
from liesplit.weyl import SatakeDiagram, satake_subspaces
from liesplit.zalgebra import (
    CaseParameterError,
    CaseReport,
    available_cases,
    commutativity_suite,
    property_suite,
    run_case,
    z_generators,
)


def borel_sl2():
    sl2 = build_sl(2)
    S = horospherical_splitting(sl2, [[QQ(0), QQ(1), QQ(0)]])
    B = transport_basis(hilbert_basis(sl2, "charpoly"), S)
    return sl2, S, B


def test_z_generators_full_mode_sl2():
    sl2, S, B = borel_sl2()
    names = S.algebra.names
    t_var = Polynomial.variable(3, names.index("t1_1"))
    tops = []  # Z0 = k[F_top]; Zinf = S(t) since the whole Cartan sits in h
    from liesplit.invariants import bidecompose

    parts = bidecompose(S, B.polys[0])
    Z = z_generators(S, B, [parts[min(parts)]], [t_var], mode="full")
    tags = [tag for _, tag in Z]
    # both components, plus the toral line from the opposite centre; the
    # supplied Z0 generator coincides with the top component and merges away
    assert len(Z) == 3
    assert tags.count("Zinf") == 1
    assert jacobian_rank([p for p, _ in Z], trials=5, seed=0) == 2  # = b(sl2)
    suite = commutativity_suite(S, Z, extra_params=[(1, 5)])
    assert suite.passed


def test_z_generators_mode_m_counts_components():
    sl2, S, B = borel_sl2()
    Z = z_generators(S, B)  # mode 'full' with no centres: the components alone
    assert len(Z) == 2  # the (1,1) and (2,0) components
    with pytest.raises(ValueError, match="unknown mode 'm'"):
        z_generators(S, B, mode="m")


def test_trdeg_examples():
    h2 = Polynomial.monomial(3, {1: 2})
    ef = Polynomial.monomial(3, {0: 1, 2: 1})
    assert jacobian_rank([h2, ef], trials=4, seed=0) == 2
    x = Polynomial.variable(2, 0)
    assert jacobian_rank([x, x * x], trials=4, seed=0) == 1


def test_trdeg_of_fractional_polynomials():
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    p = x * x * QQ(1, 2) + y * QQ(1, 3)
    # each gradient row is scaled by its own polynomial's denominator, never entrywise
    assert jacobian_rank([p, 6 * p], trials=4, seed=0) == 1
    assert jacobian_rank([p, p * p * QQ(5, 7), z * QQ(1, 4)], trials=4, seed=0) == 2


def test_commutativity_suite_detects_noncommuting_pair():
    sl2, S, B = borel_sl2()
    names = S.algebra.names
    e = Polynomial.variable(3, names.index("E12"))
    f = Polynomial.variable(3, names.index("E21"))
    suite = commutativity_suite(S, [(e, "e"), (f, "f")])
    assert not suite.passed
    assert suite.failures[0][:2] == ("e", "f")
    # [e,f] vanishes only at the keep_h end, and (0,1) is bracketed second
    assert suite.failures[0][2] == "(0,1)"


def _first_failures(S, gens, params):
    """The exhaustive oracle: bracket every listed member, keep each pair's first failure."""
    members = [(p, pencil_member(S, p)) for p in params]
    out = []
    for a, (fa, ta) in enumerate(gens):
        for fb, tb in gens[a + 1:]:
            for p, L in members:
                if not poisson_bracket(L, fa, fb).is_zero():
                    out.append((ta, tb, p.label()))
                    break
    return out


def test_commutativity_suite_labels_match_exhaustive_loop():
    # planted pairs: [t, e] = 2e lies in h and survives only at (1,0),
    # [e, f] only at (0,1); e and f fail against the Casimir at an end
    # although it commutes with them at (1,1)
    sl2, S, B = borel_sl2()
    names = S.algebra.names
    t, e, f = (Polynomial.variable(3, names.index(n)) for n in ("t1_1", "E12", "E21"))
    gens = [(t, "t"), (e, "e"), (f, "f"), (B.polys[0], "C"), (t * t, "t2")]
    g3 = build_sl(3)
    S3 = horospherical_splitting(g3, [[QQ(1) if i == g3.triangular.cartan[0] else QQ(0)
                                       for i in range(8)]])
    coords = [(Polynomial.variable(8, i), n) for i, n in enumerate(S3.algebra.names)]
    extra = [(1, 5), (2, -3), (0, 7)]
    params = [BracketParameter(*p) for p in [(1, 0), (0, 1), (1, 1)] + extra]
    for splitting, Z in ((S, gens), (S3, coords)):
        suite = commutativity_suite(splitting, Z, extra_params=extra)
        assert suite.failures == _first_failures(splitting, Z, params)
        assert suite.parameters == [p.label() for p in params]
        assert suite.pairs_checked == len(Z) * (len(Z) - 1) // 2
    assert ("t", "e", "(1,0)") in commutativity_suite(S, gens).failures
    assert poisson_bracket(S.algebra, t, e) == poisson_bracket(pencil_member(S, (1, 0)), t, e)
    assert poisson_bracket(pencil_member(S, (0, 1)), t, e).is_zero()


def test_sl3_borel_component_count_and_trdeg():
    sl3 = build_sl(3)
    S = horospherical_splitting(sl3, [
        [QQ(1) if i == sl3.triangular.cartan[0] else QQ(0) for i in range(8)],
        [QQ(1) if i == sl3.triangular.cartan[1] else QQ(0) for i in range(8)],
    ])
    B = transport_basis(hilbert_basis(sl3, "charpoly"), S)
    Z = z_generators(S, B)
    assert len(Z) == 5  # 2 + 3 nonzero components = b(sl3)
    assert jacobian_rank([p for p, _ in Z], trials=5, seed=1) == 5


def test_z_generators_merge_scalar_multiples_only():
    # a multiple of a component merges away; a polynomial of the same term count and largest
    # key, one coefficient off, is kept: a bucket by size and leading key is not the test
    sl3 = build_sl(3)
    S = horospherical_splitting(sl3, [
        [QQ(1) if i == sl3.triangular.cartan[0] else QQ(0) for i in range(8)],
        [QQ(1) if i == sl3.triangular.cartan[1] else QQ(0) for i in range(8)],
    ])
    B = transport_basis(hilbert_basis(sl3, "charpoly"), S)
    comp = max((c for parts in B.split(S) for c in parts.values()), key=lambda c: len(c.terms))
    e, c = min(comp.items())
    off = comp + Polynomial(comp.nvars, {tuple(e): c})
    assert len(off.terms) == len(comp.terms) and max(off.terms) == max(comp.terms)
    Z = z_generators(S, B, [QQ(-3, 2) * comp, off])
    assert [tag for _, tag in Z].count("Z0") == 1 and Z[-1][0] is off


def test_double_m_tilde_exact_generators():
    d = build_double(build_sl(2))
    e, h, f, xi = (Polynomial.variable(4, i) for i in range(4))
    C = h * h + 4 * e * f
    B0 = custom_basis(d, [C, xi])
    S = horospherical_splitting(d, [[QQ(0), QQ(1), QQ(0), -QQ(1)]])
    B = transport_basis(B0, S)
    names = S.algebra.names
    z0 = [Polynomial.variable(4, names.index("t0_1"))]
    zinf = [Polynomial.variable(4, names.index("t1_1"))]
    Z = z_generators(S, B, z0, zinf, mode="m_tilde")
    assert len(Z) == 3
    # middle component of the Casimir plus the two toral directions
    m = Polynomial.variable(4, names.index("t1_1"))
    p = Polynomial.variable(4, names.index("t0_1"))
    eA = Polynomial.variable(4, names.index("E12"))
    fA = Polynomial.variable(4, names.index("E21"))
    want_mid = (QQ(1, 2) * m * p + 4 * eA * fA).canonical()[0]
    canon = [g.canonical()[0] for g, _ in Z]
    assert want_mid in canon
    assert p.canonical()[0] in canon and m.canonical()[0] in canon
    assert commutativity_suite(S, Z, extra_params=[(1, 3), (1, -7)]).passed


def test_property_suite_borel_sl3():
    sl3 = build_sl(3)
    S = horospherical_splitting(sl3, [
        [QQ(1) if i == sl3.triangular.cartan[0] else QQ(0) for i in range(8)],
        [QQ(1) if i == sl3.triangular.cartan[1] else QQ(0) for i in range(8)],
    ])
    B = transport_basis(hilbert_basis(sl3, "charpoly"), S)
    results = property_suite(S, B, seed=3)
    assert all(results.values())


def test_pencil_commutativity_needs_every_sampled_pair():
    sl2, S, B = borel_sl2()
    assert property_suite(S, B, seed=0)["pencil_commutativity_sampled"] is True
    # the components of the sl(3) Borel have 3, 3, 1, 7 and 4 terms, so no pair fits a
    # budget of two term products: nothing is bracketed
    sl3 = build_sl(3)
    S3 = horospherical_splitting(sl3, [[QQ(1) if i == c else QQ(0) for i in range(8)]
                                       for c in sl3.triangular.cartan])
    B3 = transport_basis(hilbert_basis(sl3, "charpoly"), S3)
    assert property_suite(S3, B3, seed=0, pair_budget=2)["pencil_commutativity_sampled"] is False


@pytest.mark.parametrize("knob,value,message", [
    ("n_pairs", 0, "n_pairs >= 1 required, got 0"),
    ("n_pairs", -3, "n_pairs >= 1 required, got -3"),
    ("n_pairs", True, "n_pairs must be an integer, got True"),
    ("pair_budget", 0, "pair_budget >= 1 required, got 0"),
    ("pair_budget", 2.5, "pair_budget must be an integer, got 2.5"),
])
def test_property_suite_rejects_pair_knobs_that_check_nothing(knob, value, message):
    sl2, S, B = borel_sl2()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        property_suite(S, B, **{knob: value})


@pytest.mark.parametrize("value,message", [
    (0, "max_pairs >= 1 required, got 0"),
    (-1, "max_pairs >= 1 required, got -1"),
    ("4", "max_pairs must be an integer, got '4'"),
    (False, "max_pairs must be an integer, got False"),
])
def test_commutativity_suite_rejects_max_pairs_that_check_nothing(value, message):
    sl2, S, B = borel_sl2()
    Z = z_generators(S, B)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        commutativity_suite(S, Z, max_pairs=value)
    assert commutativity_suite(S, Z, max_pairs=1).pairs_checked == 1


@pytest.mark.parametrize("seed", ["abc", 1.5, True])
def test_suites_reject_a_seed_that_is_not_an_int_before_any_draw(monkeypatch, seed):
    sl2, S, B = borel_sl2()
    Z = z_generators(S, B)

    def no_draw(*args):
        raise AssertionError("drew with a rejected seed")

    monkeypatch.setattr(zalgebra.random, "Random", no_draw)
    message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=message):
        property_suite(S, B, seed=seed)
    with pytest.raises(ValueError, match=message):
        commutativity_suite(S, Z, max_pairs=1, seed=seed)


def _suite_brackets(monkeypatch, name, n):
    """The case report at seed 1 and the (algebra, F, G) of every ``poisson_bracket`` call
    that ``property_suite`` makes in it."""
    calls = []
    suite = zalgebra.property_suite

    def recording(*args, **kw):
        def bracket(L, F, G):
            calls.append((L, F, G))
            return poisson_bracket(L, F, G)

        monkeypatch.setattr(zalgebra, "poisson_bracket", bracket)
        try:
            return suite(*args, **kw)
        finally:
            monkeypatch.setattr(zalgebra, "poisson_bracket", poisson_bracket)

    monkeypatch.setattr(zalgebra, "property_suite", recording)
    return run_case(name, {"n": n}, seed=1), calls


def test_sampled_pencil_pairs_are_bracketed_once(monkeypatch):
    # sl(2) has one generator with two components: one pair, once per contraction
    rep, calls = _suite_brackets(monkeypatch, "borel", 2)
    assert len(calls) == 2
    (L0, *pair0), (L1, *pair1) = calls
    assert L0 is not L1 and list(map(id, pair0)) == list(map(id, pair1))
    assert rep.verdicts["property_pencil_commutativity_sampled"] is True


def test_sampled_pencil_pairs_are_distinct(monkeypatch):
    rep, calls = _suite_brackets(monkeypatch, "double", 1)
    per_algebra = {}
    for L, F, G in calls:
        per_algebra.setdefault(id(L), []).append(frozenset((id(F), id(G))))
    assert len(per_algebra) == 2
    for pairs in per_algebra.values():
        assert len(pairs) == 5 and len(set(pairs)) == 5
    assert rep.verdicts["property_pencil_commutativity_sampled"] is True


def _sl3_one_toral_line():
    """sl3 split horospherically by one Cartan direction t1_1, with t0 the line t0_1."""
    sl3 = build_sl(3)
    cartan = sl3.triangular.cartan
    S = horospherical_splitting(sl3, [[QQ(1) if i == cartan[0] else QQ(0) for i in range(8)]])
    x = dict(zip(S.algebra.names, (Polynomial.variable(8, i) for i in range(8))))
    return S, x


def test_centre_generators_are_toral_variables_and_extreme_components():
    S, x = _sl3_one_toral_line()
    B = hilbert_basis(S.algebra, "charpoly")
    e2, e3 = (bidecompose(S, F) for F in B.polys)
    t0, t1 = x["t0_1"], x["t1_1"]
    # every least-h-degree component lies on t0, so z0 is t0 alone
    assert (e2[0], e3[0]) == (QQ(-1, 12) * t0**2, QQ(-1, 108) * t0**3)
    # of the least-r-degree components, e_2's lies on t1 and e_3's does not
    assert e2[2] == QQ(-1, 4) * t1**2
    want = (x["E12"] * x["E23"] * x["E31"] + QQ(1, 2) * x["E13"] * t1 * x["E31"]
            - QQ(1, 2) * x["E23"] * t1 * x["E32"] + QQ(1, 12) * t1**2 * t0)
    assert e3[2] == want
    z0, zinf = zalgebra._centre_generators(S, B)
    assert z0 == [t0]
    assert zinf == [t1, want]
    # on the Borel of sl2 t0 is empty and the least-h-degree component joins z0
    sl2, S2, B2 = borel_sl2()
    parts = bidecompose(S2, B2.polys[0])
    t1 = Polynomial.variable(3, S2.algebra.names.index("t1_1"))
    assert zalgebra._centre_generators(S2, B2) == ([parts[min(parts)]], [t1])


def test_double_centres_are_the_toral_coordinates():
    # on the Cartan double every extreme component lies on its torus, so the case takes its
    # centres from the same rule as the other Z stages
    for n in (1, 2, 3):
        g = build_sl(n + 1)
        gd = build_double(g)
        cart = list(enumerate(g.triangular.cartan))
        t1v = _vectors(gd.dim, ({i: 1, g.dim + k: -1} for k, i in cart))
        t0v = _vectors(gd.dim, ({i: 1, g.dim + k: 1} for k, i in cart))
        S = horospherical_splitting(gd, t1v, t0_basis=t0v)
        B = transport_basis(hilbert_basis(gd, "charpoly"), S)
        x = [Polynomial.variable(gd.dim, i) for i in range(gd.dim)]
        assert zalgebra._centre_generators(S, B) == (
            [x[i] for i in S.t0_indices], [x[i] for i in S.t1_indices]), n


def test_middle_components_nonzero_finds_a_missing_h_degree():
    S, x = _sl3_one_toral_line()
    L = S.algebra
    t0, t1, e12, e21 = x["t0_1"], x["t1_1"], x["E12"], x["E21"]
    assert zalgebra._middle_components_nonzero(S, hilbert_basis(L, "charpoly"))
    # h-degrees 0 and 1 of a cubic: the middle h-degree 2 is missing
    assert list(bidecompose(S, t0**3 + t0**2 * t1)) == [0, 1]
    assert not zalgebra._middle_components_nonzero(
        S, HilbertBasis(L, ((t1, 1), (t0**3 + t0**2 * t1, 3))))
    # h-degrees 0, 1, 2 of a quadric, and a linear form with no middle h-degree at all
    assert zalgebra._middle_components_nonzero(
        S, HilbertBasis(L, ((t0, 1), (t0**2 + e12 * e21 + t1**2, 2))))


def test_pencil_jacobi_fails_when_a_member_loses_an_entry(monkeypatch):
    sl2, S, B = borel_sl2()
    build = zalgebra.family_bracket

    def lossy(S, p):
        L = build(S, p)
        L.constants.pop(next(iter(L.constants)))
        return L

    monkeypatch.setattr(zalgebra, "family_bracket", lossy)
    assert property_suite(S, B, seed=0)["pencil_jacobi"] is False


def test_run_case_unknown_name():
    with pytest.raises(ValueError):
        run_case("nonsense")


def test_available_cases():
    assert "sl2n1" in available_cases()
    assert "e6_weyl" in available_cases()


def test_case_report_round_trip():
    rep = run_case("aks", {"n": 2}, seed=5)
    doc = rep.to_dict()
    text = json.dumps(doc)
    back = CaseReport.from_dict(json.loads(text))
    assert back.to_dict() == doc
    assert back.passed == rep.passed


@pytest.mark.parametrize("name,params", [
    ("borel", {"n": 2}),
    ("borel", {"n": 3}),
    ("horo", {"n": 3, "t1": [[1, 0, -1]]}),
    ("double", {"n": 1}),
    ("double", {"n": 2}),
    ("sl2n", {"n": 2}),
    ("sl2n1", {"n": 1}),
    ("aks", {"n": 3}),
])
def test_cases_pass(name, params):
    rep = run_case(name, params, seed=1)
    failed = [k for k, v in rep.verdicts.items() if not v]
    assert not failed, failed


def test_bidegree_claim_holds_wherever_it_is_defined(monkeypatch):
    # GgsReport.bidegree_claim_ok is defined when a = dim of the toral part; record every
    # ggs_check report of the case studies and require the claim wherever it is defined
    reports = []

    def recording(*args, **kw):
        reports.append(ggs_check(*args, **kw))
        return reports[-1]

    monkeypatch.setattr(zalgebra, "ggs_check", recording)
    claims = {}
    for name, n in [("horo", 3), ("double", 1), ("double", 2), ("sl2n", 2), ("sl2n1", 1),
                    ("so2n", 4)]:
        reports.clear()
        run_case(name, {"n": n}, seed=1)
        assert all((r.bidegree_claim_ok is None) == (r.a_count != r.dim_toral) for r in reports)
        claims[name, n] = [(r.side, r.bidegree_claim_ok) for r in reports
                           if r.bidegree_claim_ok is not None]
    assert claims == {
        ("horo", 3): [("h", True)],
        ("double", 1): [("h", True), ("r", True), ("r", True)],
        ("double", 2): [("h", True), ("r", True)],
        ("sl2n", 2): [("h", True), ("r", True)],  # the modified basis; a > dim t0 unmodified
        ("sl2n1", 1): [],
        ("so2n", 4): [("h", True), ("r", True)],
    }


def test_so2n_rejects_n_below_three():
    with pytest.raises(CaseParameterError, match=re.escape("so2n needs n >= 3")):
        run_case("so2n", {"n": 2})


def test_so6_case_matches_sl4():
    # so(6) = sl(4), and the so2n splitting of so(6) is the sl2n splitting of sl(4)
    so6 = run_case("so2n", {"n": 3}, seed=1)
    sl4 = run_case("sl2n", {"n": 2}, seed=1)
    assert all(so6.verdicts.values())
    keys = ("s0", "s_inf", "weyl_orders", "weyl_per_degree", "sum_m", "dim_m", "b", "trdeg")
    assert {k: so6.tables[k] for k in keys} == {k: sl4.tables[k] for k in keys}
    assert (so6.tables["s0"], so6.tables["s_inf"], so6.tables["b"]) == (1, 2, 9)
    assert so6.tables["sum_m"] == so6.tables["dim_m"] == 7


@pytest.mark.parametrize("n", [2.9, 2.0, "3", True, None])
def test_run_case_rejects_a_size_that_is_not_an_int(n):
    # 2.9 once ran sl(2) and reported n = 2; "3" was parsed
    with pytest.raises(CaseParameterError, match=f"borel needs an integer n, got {n!r}"):
        run_case("borel", {"n": n})


@pytest.mark.parametrize("name, params", [("so2n", {"n": 4}), ("e6_weyl", {}), ("borel", {"n": 2})])
def test_run_case_rejects_dmax_below_one(name, params):
    # an empty restriction table would read as onto; the check runs before any build
    for dmax in (0, -1):
        with pytest.raises(CaseParameterError, match=f"dmax >= 1 required, got {dmax}"):
            run_case(name, params, seed=1, dmax=dmax)
    # past 255 an exponent would not fit its byte
    with pytest.raises(CaseParameterError, match="dmax <= 255 required, got 256"):
        run_case(name, params, seed=1, dmax=256)


@pytest.mark.parametrize("dmax", [True, 2.0, "3"])
@pytest.mark.parametrize("name, params", [("e6_weyl", {}), ("sl2n", {"n": 2}), ("borel", {"n": 2})])
def test_run_case_rejects_a_dmax_that_is_not_an_int(name, params, dmax):
    # True was reported as "dmax": true; 2.0 failed in restriction_check after the build
    with pytest.raises(CaseParameterError, match=re.escape(f"dmax must be an integer, got {dmax!r}")):
        run_case(name, params, seed=1, dmax=dmax)


@pytest.mark.parametrize("name", ["borel", "so2n", "e6_weyl"])
def test_run_case_rejects_trials_below_one_before_any_build(name, monkeypatch):
    def build(*args):
        raise AssertionError("the case ran")

    monkeypatch.setitem(zalgebra._CASES, name, build)
    for trials in (0, -1):
        with pytest.raises(CaseParameterError, match="trials >= 1 required"):
            run_case(name, {"n": 2}, trials=trials)


@pytest.mark.parametrize("name", ["borel", "horo", "e6_weyl"])
@pytest.mark.parametrize("option, value", [("trials", True), ("trials", 2.5), ("trials", "3"),
                                           ("seed", "a"), ("seed", 1.0)])
def test_run_case_rejects_trials_or_seed_not_an_int_before_any_build(name, option, value,
                                                                     monkeypatch):
    # trials=True ran one trial; 2.5 and seed="a" raised TypeError after the build
    def build(*args):
        raise AssertionError("the case ran")

    monkeypatch.setitem(zalgebra._CASES, name, build)
    with pytest.raises(CaseParameterError,
                       match=re.escape(f"{option} must be an integer, got {value!r}")):
        run_case(name, {"n": 3}, **{option: value})


def test_horo_rejects_a_zero_diagonal():
    # before, horospherical_splitting raised a plain ValueError ("t1 vectors are dependent")
    with pytest.raises(CaseParameterError, match=re.escape("t1 diagonal [0, 0, 0] is zero")):
        run_case("horo", {"n": 3, "t1": [[0, 0, 0]]})


def test_horo_rejects_dependent_diagonals():
    with pytest.raises(CaseParameterError,
                       match=re.escape("t1 diagonals [[1, -1, 0], [2, -2, 0]] are dependent")):
        run_case("horo", {"n": 3, "t1": [[1, -1, 0], [2, -2, 0]]})


@pytest.mark.parametrize("t1", [[[1, 0, -2]], [[1, 0, 0, -1]]])
def test_horo_rejects_malformed_diagonal(t1):
    # not traceless, and one entry more than sl(3) has: neither may be truncated
    with pytest.raises(ValueError, match="traceless diagonal of size 3"):
        run_case("horo", {"n": 3, "t1": t1})


def test_sl2n_verdict_table_consistency():
    # matrix route and reflection-group route agree on the worked rows
    rep4 = run_case("sl2n", {"n": 2}, seed=2)
    assert rep4.verdicts["routes_agree"] and rep4.verdicts["ggs_exists"]
    rep3 = run_case("sl2n1", {"n": 1}, seed=2)
    assert rep3.verdicts["routes_agree"] and rep3.verdicts["no_ggs"]
    rep5 = run_case("sl2n1", {"n": 2}, seed=2)
    assert rep5.verdicts["no_ggs"]


def test_kept_table_restricts_the_corrected_generators_afresh(monkeypatch):
    # a planted defect: each solved combination doubled, so the corrected P4 = P4 - 2 lam P2^2
    # no longer vanishes on t0; the kept table must show it rather than trust the elimination
    solve = invariants.solve
    monkeypatch.setattr(invariants, "solve",
                        lambda A, b: None if (x := solve(A, b)) is None else [2 * c for c in x])
    rep = run_case("sl2n", {"n": 2}, seed=1)
    assert rep.tables["kept"] == ["P2", "P4"]
    assert rep.verdicts["ggs_exists"] is False


class _SplittingBuilt(Exception):
    """Stops a case once its splitting is built."""


# the Satake arrows of each case's diagram, as (type, rank, arrows) for its size n
_SATAKE_ARROWS = {
    "sl2n": lambda n: ("A", 2 * n - 1, [(i, 2 * n - i) for i in range(1, n)]),
    "sl2n1": lambda n: ("A", 2 * n, [(i, 2 * n + 1 - i) for i in range(1, n + 1)]),
    "so2n": lambda n: ("D", n, [(n - 1, n)]),
}


@pytest.mark.parametrize("name, n", [("sl2n", 2), ("sl2n", 3), ("sl2n", 4), ("sl2n1", 1),
                                     ("sl2n1", 2), ("sl2n1", 3), ("so2n", 3), ("so2n", 4),
                                     ("so2n", 5)])
def test_splitting_t0_spans_the_satake_arrows(name, n, monkeypatch):
    # the Weyl route reads t0 off the splitting; it is the span of the arrow differences
    # alpha_i - alpha_j of the case's Satake diagram.  Only the splitting is built.
    built = []

    def build_and_stop(*args, **kwargs):
        built.append(horospherical_splitting(*args, **kwargs))
        raise _SplittingBuilt

    monkeypatch.setattr(zalgebra, "horospherical_splitting", build_and_stop)
    with pytest.raises(_SplittingBuilt):
        run_case(name, {"n": n})
    type_label, rank_, arrows = _SATAKE_ARROWS[name](n)
    rs, t0 = zalgebra._splitting_t0(built[0], type_label, rank_)
    arrow_t0 = satake_subspaces(rs, SatakeDiagram(tuple(arrows)))
    assert len(t0) == len(arrows)
    assert rank(Matrix(t0)) == rank(Matrix(t0 + arrow_t0)) == len(arrows)


def test_horo_with_zero_t1():
    # t1 = 0: h is the nilradical u+, and t0 is the whole Cartan
    rep = run_case("horo", {"n": 3, "t1": "zero"}, seed=1)
    failed = [k for k, v in rep.verdicts.items() if not v]
    assert not failed, failed
    t = rep.tables
    assert (t["s0"], t["s_inf"], t["dim_t0"], t["dim_t1"]) == (2, 0, 2, 0)


_OPTIMIZED_CHECKS = {
    # dim + rank = 3 + 0 is odd: no Borel subalgebra dimension
    "b_of": ("from liesplit.invariants import _b_of\n"
             "from liesplit.liealg import LieAlgebra\n"
             "_b_of(LieAlgebra._derived(['a', 'b', 'c'], {}, 'custom', index_floor=0, rank=0))\n",
             "ValueError: dim + rank = 3 + 0"),
    # a Poisson tensor made non-skew reaches property_suite's skewness check
    "tensor_skew": ("from liesplit import zalgebra\n"
                    "from liesplit.invariants import hilbert_basis\n"
                    "from liesplit.liealg import LieAlgebra, build_sl\n"
                    "from liesplit.linalg import Matrix\n"
                    "from liesplit.splitting import horospherical_splitting\n"
                    "g = build_sl(2)\n"
                    "S = horospherical_splitting(g, [[0, 1, 0]])\n"
                    "tensor_at = zalgebra.tensor_at\n"
                    "def broken(L, xi, *rest):\n"
                    "    sample = tensor_at(L, xi, *rest)\n"
                    "    if isinstance(L, LieAlgebra):\n"
                    "        sample.matrix = Matrix([[1] * L.dim] * L.dim)\n"
                    "    return sample\n"
                    "zalgebra.tensor_at = broken\n"
                    "zalgebra.property_suite(S, hilbert_basis(S.algebra, 'charpoly'))\n",
                    "AssertionError: the Poisson tensor of"),
}


@pytest.mark.parametrize("name", sorted(_OPTIMIZED_CHECKS))
def test_library_checks_survive_python_O(name):
    """The checks raise explicitly, so ``python -O`` (which drops asserts) keeps them."""
    code, message = _OPTIMIZED_CHECKS[name]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-O", "-c", "assert False\n" + code],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 1 and message in run.stderr.splitlines()[-1], run.stderr
