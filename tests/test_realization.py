"""Oracle for the matrix-realized algebras: constants and Gram matrix are those of the matrices.

For every basis pair a < b, sum_k c_ab^k rho(e_k) = rho(e_a) rho(e_b) - rho(e_b) rho(e_a), and
the Gram matrix is the trace form tr(rho(e_a) rho(e_b)), half of it for so(2n).  The check runs
on dense matrices with plain loops, independent of the sparse helpers of ``liealg``.
"""

import pytest

from liesplit.liealg import build_gl, build_sl, build_so_even
from liesplit.rationals import QQ
from liesplit.splitting import horospherical_splitting


def _dense(m, size):
    A = [[0] * size for _ in range(size)]
    for (r, c), v in m.items():
        A[r][c] = v
    return A


def _mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _unit_vectors(dim, indices):
    return [[int(t == i) for t in range(dim)] for i in indices]


def _sl_diagonal(L, diag):
    """sl-coordinates of diag(diag): h_k carries the partial sum d_1 + ... + d_k."""
    v, run = [0] * L.dim, 0
    for k, i in enumerate(L.triangular.cartan):
        run += diag[k]
        v[i] = run
    return v


def _so8_case_splitting():
    # case so2n, n = 4: t1 spans the first three Cartan coordinates, t0 the last
    g = build_so_even(4)
    cart = g.triangular.cartan
    return horospherical_splitting(g, _unit_vectors(g.dim, cart[:3]),
                                   t0_basis=_unit_vectors(g.dim, cart[3:])).algebra


def _sl4_case_splitting():
    # case sl2n, n = 2: t1 = diag(a1, a2, -a2, -a1), t0 = diag(c, -c, -c, c)
    g = build_sl(4)
    t1 = [_sl_diagonal(g, d) for d in ([1, 0, 0, -1], [0, 1, -1, 0])]
    return horospherical_splitting(g, t1, t0_basis=[_sl_diagonal(g, [1, -1, -1, 1])]).algebra


def _sl5_case_splitting():
    # case sl2n1, n = 2: t1 = diag(a2, a1, 0, -a1, -a2), t0 = diag(c2, c1, -2c1 - 2c2, c1, c2)
    g = build_sl(5)
    t1 = [_sl_diagonal(g, d) for d in ([0, 1, 0, -1, 0], [1, 0, 0, 0, -1])]
    t0 = [_sl_diagonal(g, d) for d in ([1, 0, -2, 0, 1], [0, 1, -2, 1, 0])]
    return horospherical_splitting(g, t1, t0_basis=t0).algebra


ALGEBRAS = (
    [(f"gl({n})", lambda n=n: build_gl(n), 1) for n in range(1, 5)]
    + [(f"sl({n})", lambda n=n: build_sl(n), 1) for n in range(2, 6)]
    + [(f"so({2 * n})", lambda n=n: build_so_even(n), 2) for n in (2, 3, 4)]
    + [("horo[so(8)]", _so8_case_splitting, 2),
       ("horo[sl(4)]", _sl4_case_splitting, 1),
       ("horo[sl(5)]", _sl5_case_splitting, 1)]
)


@pytest.mark.parametrize("kind,make,trace_scale", ALGEBRAS, ids=[a[0] for a in ALGEBRAS])
def test_constants_and_gram_are_those_of_the_realization(kind, make, trace_scale):
    L = make()
    assert L.kind == kind
    size = L.matrix_size
    rho = [_dense(m, size) for m in L.realization]
    for a in range(L.dim):
        for b in range(L.dim):
            prod = _mul(rho[a], rho[b])
            trace = sum(prod[i][i] for i in range(size))
            assert L.gram[a, b] == QQ(trace, trace_scale), (L.names[a], L.names[b])
            if a < b:
                other = _mul(rho[b], rho[a])
                got = [[0] * size for _ in range(size)]
                for k, c in L.constants.get((a, b), ()):
                    for i in range(size):
                        for j in range(size):
                            got[i][j] += c * rho[k][i][j]
                want = [[prod[i][j] - other[i][j] for j in range(size)] for i in range(size)]
                assert got == want, f"[{L.names[a]}, {L.names[b]}]"
