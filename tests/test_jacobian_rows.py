"""Jacobian rows from the realization against ``Polynomial.int_gradient``, modulo P.

``invariants._component_rows`` takes the gradient of each bi-component of a builder
generator from Y(x) = sum_b x_b M_b, without walking the component's terms.  Each of its
rows must be the component's gradient modulo ``linalg.P``, its ``int_gradient`` (den times
the gradient) over den: a unit multiple of the terms' row, which keeps every sampled rank,
and so every report, as the terms would give it, and the same scale, which also pins the
signs of the Pfaffian's rows.  The oracle runs on the Z and the GGS tops of every golden
case at its first draw point, and on random points of a few small bases.
"""

import json
import random
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from liesplit import invariants, zalgebra
from liesplit.invariants import (_component_rows, eliminate_on_subspace, hilbert_basis,
                                 transport_basis)
from liesplit.liealg import build_sl, build_so_even
from liesplit.linalg import P, _sample_point
from liesplit.poly import _degree_reader, _exponents
from liesplit.splitting import _vectors, horospherical_splitting
from liesplit.zalgebra import _sl_diagonals

GOLDEN = Path(__file__).parent / "data" / "case_reports.json"


def _gradient_mod_p(p, x) -> list:
    """The gradient of ``p`` at the integer point x modulo P, from its terms."""
    inv = pow(p.den, -1, P)
    return [v * inv % P for v in p.int_gradient(x)]


def row_failures(B, D, x, comps=None):
    """The (j, i) of ``comps`` (default: every bi-component of ``B`` on ``D``) whose realization
    row at x is not the component's gradient modulo P."""
    parts = B.split(D)
    comps = comps or [(j, i) for j, p in enumerate(parts) for i in p]
    rows = _component_rows(B, D, x, comps)
    assert rows is not None, "a Pfaffian vanished at a node"
    return [(j, i) for (j, i), row in zip(comps, rows) if row != _gradient_mod_p(parts[j][i], x)]


def _kinds(B, j) -> set:
    r, out = B.recipes[j], set()
    while r[0] == "combination":
        out.add("combination")
        r = r[1]
    return out | {r[0]}


def _recorded_calls(monkeypatch, cases):
    """Every Jacobian rank a case asks for, as (where, rows, n, seed, bound, B, D)."""
    calls, side = [], []
    real_rank, real_ggs = invariants._jacobian_rank, zalgebra.ggs_check

    def rank(rows, n, trials, seed, bound, B=None, D=None):
        calls.append((side[-1] if side else "z", rows, n, seed, bound, B, D))
        return real_rank(rows, n, trials, seed, bound, B, D)

    def ggs(D, B, side_="h", **kw):
        side.append(side_)
        try:
            return real_ggs(D, B, side=side_, **kw)
        finally:
            side.pop()

    monkeypatch.setattr(invariants, "_jacobian_rank", rank)
    monkeypatch.setattr(zalgebra, "_jacobian_rank", rank)
    monkeypatch.setattr(zalgebra, "ggs_check", lambda D, B, side="h", **kw: ggs(D, B, side, **kw))
    for name, params, seed in cases:
        zalgebra.run_case(name, params, seed=seed)
    return calls


def test_realization_rows_match_int_gradient_on_every_golden_case(monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cases = [(e["name"], {k: v for k, v in e["params"]}, e["seed"]) for e in golden
             if e["name"] not in ("e6_weyl", "aks") and e["seed"] == 1]
    checked, kinds, where = 0, set(), set()
    for label, rows, n, seed, bound, B, D in _recorded_calls(monkeypatch, cases):
        comps = [c for _, c in rows if c]
        if not (B and B.recipes and comps):
            continue
        x = _sample_point(random.Random(seed), n, bound)  # the first point _best_rank draws
        assert row_failures(B, D, x, comps) == [], (B.algebra.kind, label)
        checked += len(comps)
        kinds |= set().union(*(_kinds(B, j) for j, _ in comps))
        where.add(label)
    assert checked > 80
    assert kinds == {"e", "p", "pf", "combination"}
    assert where == {"z", "h", "r"}


def _so6_transported():
    g = build_so_even(3)
    cart = g.triangular.cartan
    S = horospherical_splitting(g, _vectors(g.dim, ({i: 1} for i in cart[:2])),
                                t0_basis=_vectors(g.dim, [{cart[2]: 1}]))
    return S, transport_basis(hilbert_basis(g, "charpoly"), S)


def _sl4_eliminated():
    # the splitting of case sl2n at n = 2
    g = build_sl(4)
    S = horospherical_splitting(g, _sl_diagonals(g, [{0: 1, 3: -1}, {1: 1, 2: -1}]),
                                t0_basis=_sl_diagonals(g, [{0: 1, 3: 1, 1: -1, 2: -1}]))
    return S, eliminate_on_subspace(hilbert_basis(S.algebra, "trace_powers"), S)


BASES = {"so6_transported": _so6_transported(), "sl4_eliminated": _sl4_eliminated()}


def test_the_small_bases_carry_the_recipes_they_test():
    S, B = BASES["so6_transported"]
    assert B.algebra is S.algebra and B.algebra.base_change is not None
    assert [r[0] for r in B.recipes] == ["e", "e", "pf"]
    S, B = BASES["sl4_eliminated"]
    assert "combination" in {r[0] for r in B.recipes}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(BASES)), st.data())
def test_realization_rows_match_int_gradient_at_random_points(name, data):
    S, B = BASES[name]
    x = data.draw(st.lists(st.integers(-997, 997), min_size=S.algebra.dim,
                           max_size=S.algebra.dim))
    if ("pf",) in B.recipes:  # Pf(J Y) = 0 at a node, as at x = 0, leaves the rows to the terms
        assume(_component_rows(B, S, x, [(0, 0)]) is not None)
    assert row_failures(B, S, x) == []


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 258), st.data())
def test_lane_degrees_agree_with_decoding(nvars, data):
    exps = bytearray(data.draw(st.binary(min_size=nvars, max_size=nvars)))
    for i in data.draw(st.sets(st.integers(0, nvars - 1), max_size=8)):
        exps[i] = 255
    key = int.from_bytes(exps, "big")
    assert _degree_reader(nvars)([key]) == [sum(_exponents(key, nvars))] == [sum(exps)]
    chosen = tuple(data.draw(st.sets(st.integers(0, nvars - 1), max_size=8)))
    assert _degree_reader(nvars, chosen)([key]) == [sum(exps[i] for i in chosen)]


def test_lane_degrees_at_every_exponent_255_near_the_lane_limit():
    for nvars in (1, 2, 255, 256, 257, 258):
        key = int.from_bytes(bytes([255] * nvars), "big")
        assert _degree_reader(nvars)([key]) == [255 * nvars]
