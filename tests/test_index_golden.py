"""Sampled index estimates pinned to recorded values.

``tests/data/index_estimates.json`` holds ``IndexEstimate.as_dict()`` for
each algebra below at seeds 0-2 and bounds 10^6 (the default) and 2 (small
points, where the tensor has more zeros and more ranks modulo P could
drop).  It was written by the general column elimination that preceded the
skew 2 x 2 pivots; the rank of a matrix over F_P does not depend on the
pivot order, so every estimate (rank, witness, b value) must stay equal.

Running this module as a script prints the file from the code it imports.
"""

import json
from pathlib import Path

from liesplit.liealg import build_double, build_gl, build_sl, build_so_even
from liesplit.poisson import generic_stabilizer, index_estimate
from liesplit.splitting import contract, horospherical_splitting

GOLDEN = Path(__file__).parent / "data" / "index_estimates.json"
SEEDS = (0, 1, 2)
BOUNDS = (10**6, 2)


def _units(dim, indices):
    return [[int(i == k) for i in range(dim)] for k in indices]


def _so8_horospherical():
    g = build_so_even(4)
    cart = g.triangular.cartan
    return horospherical_splitting(g, _units(g.dim, cart[:3]), t0_basis=_units(g.dim, cart[3:]))


def _adapted_sl3():
    """sl(3) rebuilt on the splitting with t1 spanned by diag(1, 0, -1): constants in 1/2 Z."""
    g = build_sl(3)
    return horospherical_splitting(g, [[int(i in g.triangular.cartan) for i in range(g.dim)]])


def _gl4_block_stabilizer():
    """The stabilizer in h = gl(1) + gl(3) of a generic point of Ann(h): non-abelian, with
    a large common denominator of its constants."""
    g = build_gl(4)
    h = [k for k, name in enumerate(g.names) if (name[1] == "1") == (name[2] == "1")]  # E_ab
    return generic_stabilizer(g, h).subalgebra


CASES = {
    "so8": lambda: build_so_even(4),
    "gl4": lambda: build_gl(4),
    "adapted_sl3": lambda: _adapted_sl3().algebra,
    "double_sl3": lambda: build_double(build_sl(3)),
    "so8_horo_keep_h": lambda: contract(_so8_horospherical(), "keep_h"),
    "so8_horo_keep_r": lambda: contract(_so8_horospherical(), "keep_r"),
    "gl4_block_stabilizer": _gl4_block_stabilizer,
}


def estimates():
    out = {}
    for name, build in CASES.items():
        L = build()
        out[name] = [{"seed": seed, "bound": bound,
                      "estimate": index_estimate(L, seed=seed, bound=bound).as_dict()}
                     for seed in SEEDS for bound in BOUNDS]
    return out


def test_index_estimates_match_golden():
    assert estimates() == json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_a_centre_and_a_denominator():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    # gl(4) has a one-dimensional centre, so its index is 4 = rank + 1
    assert {e["estimate"]["claimed_index"] for e in golden["gl4"]} == {4}
    assert _adapted_sl3().algebra.bracket_table[0] == 2
    assert _gl4_block_stabilizer().bracket_table[0] > 1


if __name__ == "__main__":
    # one estimate per line
    print("{\n" + ",\n".join(
        f"{json.dumps(name)}: [\n" + ",\n".join(map(json.dumps, rows)) + "\n]"
        for name, rows in estimates().items()) + "\n}")
