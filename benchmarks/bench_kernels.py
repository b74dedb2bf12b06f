"""Benchmark the compiled kernels against the pure-Python reference.

Run as a script:  python benchmarks/bench_kernels.py  [--repeat N]

Covers the hot loop of symbolic Poisson-bracket work: sparse polynomial
products.  Both kernel implementations are imported directly, so the
benchmark is independent of which one the package selected at import.
The shipped Poisson bracket and the Weyl-group work are timed end to end
by the ``brackets`` and ``weyl_e6`` workloads of ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import random
import time

from liesplit._kernels import pure
from liesplit.rationals import QQ

try:
    from liesplit._kernels import speedups
except ImportError:
    speedups = None


def random_terms(rng, nvars, nterms, max_exp=3):
    out = {}
    while len(out) < nterms:
        e = bytes(rng.randint(0, max_exp) for _ in range(nvars))
        out[e] = QQ(rng.randint(-99, 99), rng.randint(1, 9))
    return out


def bench(fn, repeat):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def poly_product_case(impl, rng_seed=7, nvars=28, nterms=300):
    rng = random.Random(rng_seed)
    a = random_terms(rng, nvars, nterms)
    b = random_terms(rng, nvars, nterms)

    def run():
        impl.mul_terms(a, b, nvars)

    return run


CASES = [
    ("poly product 300x300 terms, 28 vars", poly_product_case),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if speedups is None:
        print("compiled kernels unavailable; showing pure timings only")
    header = f"{'case':45s} {'pure':>10s} {'compiled':>10s} {'speedup':>8s}"
    print(header)
    print("-" * len(header))
    for label, case in CASES:
        t_pure = bench(case(pure), args.repeat)
        if speedups is not None:
            t_fast = bench(case(speedups), args.repeat)
            print(f"{label:45s} {t_pure * 1e3:9.1f}ms {t_fast * 1e3:9.1f}ms "
                  f"{t_pure / t_fast:7.1f}x")
        else:
            print(f"{label:45s} {t_pure * 1e3:9.1f}ms {'-':>10s} {'-':>8s}")


if __name__ == "__main__":
    main()
