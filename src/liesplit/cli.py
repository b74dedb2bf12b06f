"""Command-line interface: case studies, ad-hoc checks, and reports.

Subcommands
    case      run a named case study and print its report
    check-ggs degree-sum test for a basis against a subalgebra
    weyl-w0   normalizer/centralizer orders and restriction table
    index     sampled index estimate for an algebra

Exit code 0 means every asserted verdict holds; the first failed verdict
is named on stderr otherwise.  Every subcommand prints one
``zalgebra.CaseReport``: JSON with the stable top-level fields {case,
params, seed, verdicts, tables, timings_ms, version}, or markdown.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache

from . import __version__
from .liealg import algebra_from_json, build_double, build_gl, build_sl, build_so_even
from .invariants import ggs_check, hilbert_basis
from .poisson import index_estimate
from .splitting import make_decomposition
from .weyl import _check_dmax
from .zalgebra import (CaseParameterError, CaseReport, _satake, _Timer, _weyl_route,
                       available_cases, run_case)


def _ints(option: str, spec: str, pattern: str) -> list:
    """The integers in ``spec`` if it matches ``pattern``; a one-line exit naming it if not."""
    if not re.fullmatch(pattern, spec):
        raise SystemExit(f"cannot parse {option} {spec!r}")
    return [int(x) for x in re.findall(r"\d+", spec)]


def _or_exit(label: str, f, *args, **kwargs):
    """``f(*args, **kwargs)``; a ``ValueError`` from it becomes a one-line exit after ``label``."""
    try:
        return f(*args, **kwargs)
    except ValueError as exc:
        raise SystemExit(f"{label}: {exc}") from None


def _load_algebra(spec: str):
    """'sl:4', 'gl:3', 'so:8', 'double:sl:3', or a path to a constants file."""
    if ":" in spec:
        m = re.fullmatch(r"(double:)?(gl|sl|so):(\d+)", spec)
        if m is None:
            raise SystemExit(f"cannot parse --algebra {spec!r}: expected gl:N, sl:N, so:N, "
                             "double:<kind>:N or a constants file")
        n = int(m[3])
        if m[2] == "so" and n % 2:  # so:N names so(N)
            raise SystemExit(f"--algebra {spec!r}: only so(2n) is supported")
        if m[2] == "so" and n < 4:
            raise SystemExit(f"--algebra {spec!r}: so:N needs an even N >= 4, got {n}")
        build, n = {"gl": (build_gl, n), "sl": (build_sl, n), "so": (build_so_even, n // 2)}[m[2]]
        L = _or_exit(f"--algebra {spec!r}", build, n)  # sl:1
        return build_double(L) if m[1] else L
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SystemExit(f"cannot read --algebra {spec!r}: {exc.strerror}") from None
    return _or_exit(f"--algebra {spec!r}", algebra_from_json, text)  # names the bad entry


def _parse_h(spec: str, algebra):
    """'borel', 'glblocks:1,3', or 'indices:0,1,2'."""
    if spec == "borel":
        tri = algebra.triangular
        if tri is None:
            raise SystemExit("borel preset needs a reductive builder algebra")
        return tuple(tri.plus) + tuple(tri.cartan)
    if spec.startswith("indices:"):
        return tuple(_ints("--h", spec, r"indices:\d+(,\d+)*"))
    if spec.startswith("glblocks:"):
        sizes = _ints("--h", spec, r"glblocks:\d+(,\d+)*")
        if algebra.realization is None:
            raise SystemExit(f"--h {spec!r}: glblocks needs a matrix builder algebra")
        if sum(sizes) > algebra.matrix_size:
            raise SystemExit(f"--h {spec!r}: block sizes sum to {sum(sizes)} > matrix size "
                             f"{algebra.matrix_size}")
        block = [k for k, s in enumerate(sizes) for _ in range(s)]  # the block of each row
        return tuple(idx for idx, mat in enumerate(algebra.realization)
                     if all(max(r, c) < len(block) and block[r] == block[c] for r, c in mat))
    raise SystemExit(f"cannot parse --h {spec!r}")


def _t1_arg(text: str):
    """'full', 'zero', or one traceless diagonal given as comma-separated integers."""
    if text in ("full", "zero"):
        return text
    try:
        return [[int(x) for x in text.split(",")]]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not 'full', 'zero' or a comma list of integers") from None


def _json(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=1, default=str)``, byte for byte.  Indenting sends
    ``json.dumps`` through the pure-Python encoder, whose closures leave a reference
    cycle per call; here only scalars and empty containers reach ``json.dumps``."""
    if not (isinstance(obj, (dict, list, tuple)) and obj):
        return json.dumps(obj, default=str)
    pad = "\n" + " " * (depth + 1)
    if isinstance(obj, dict):
        items = (json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": " + _json(v, depth + 1)
                 for k, v in obj.items())
        return "{" + pad + ("," + pad).join(items) + "\n" + " " * depth + "}"
    return "[" + pad + ("," + pad).join(_json(v, depth + 1) for v in obj) + "\n" + " " * depth + "]"


def _emit(rep: CaseReport, fmt: str):
    if fmt == "json":
        print(_json(rep.to_dict()))
        return
    print(f"## {rep.case}")
    for key in ("params", "seed", "version"):
        print(f"- {key}: {getattr(rep, key)}")
    if rep.verdicts:
        print("\n| verdict | holds |")
        print("|---|---|")
        for k, v in rep.verdicts.items():
            print(f"| {k} | {'yes' if v else 'NO'} |")
    if rep.tables:
        print("\n| table entry | value |")
        print("|---|---|")
        for k, v in rep.tables.items():
            print(f"| {k} | {v} |")
    print(f"\n- timings_ms: {rep.timings_ms}")


def _cmd_case(args) -> int:
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.t1 is not None:
        params["t1"] = args.t1
    try:
        rep = run_case(args.name, params, seed=args.seed, trials=args.trials, dmax=args.dmax)
    except CaseParameterError as exc:  # e.g. a non-traceless diagonal
        raise SystemExit(f"case {args.name}: {exc}") from None
    _emit(rep, args.format)
    if not rep.passed:
        failed = [k for k, v in rep.verdicts.items() if not v]
        print(f"FAILED verdict: {failed[0]}", file=sys.stderr)
        return 1
    return 0


def _cmd_check_ggs(args) -> int:
    timer = _Timer()
    algebra = _load_algebra(args.algebra)
    h = _parse_h(args.h, algebra)
    deco = _or_exit(f"check-ggs --h {args.h!r}", make_decomposition, algebra, h)
    timer.lap("build")
    basis = _or_exit(f"check-ggs --basis {args.basis}", hilbert_basis, algebra, args.basis)
    timer.lap("basis")
    rep = _or_exit(f"check-ggs --h {args.h!r} --side {args.side}", ggs_check,
                   deco, basis, side=args.side, seed=args.seed)
    timer.lap("ggs")
    rows = [{"degree": r.degree, "deg_m": r.deg_m_top, "bidegree": list(r.bidegree_top)}
            for r in rep.rows]
    _emit(CaseReport("check-ggs", {"algebra": args.algebra, "h": args.h, "basis": args.basis},
                     args.seed, {"is_ggs": rep.verdict,
                                 "criterion_consistent": rep.consistent in (True, None)},
                     {"sum_m": rep.sum_m, "dim_m": rep.dim_m,
                      "jacobian_rank": rep.jacobian_rank_top, "rows": rows}, timer.marks),
          args.format)
    return 0 if rep.consistent in (True, None) else 1


def _cmd_weyl_w0(args) -> int:
    timer = _Timer()
    flat = _ints("--arrows", args.arrows, r"\d+:\d+(,\d+:\d+)*")
    arrows = tuple(zip(flat[::2], flat[1::2]))
    if args.type == "E6" and args.rank is not None:
        raise SystemExit(f"weyl-w0: --type E6 takes no --rank, got --rank {args.rank}")
    if args.type != "E6" and args.rank is None:
        raise SystemExit(f"weyl-w0: --type {args.type} needs --rank")
    given = f"weyl-w0 --type {args.type}" + ("" if args.rank is None else f" --rank {args.rank}")
    rs, t0 = _or_exit(f"{given} --arrows {args.arrows!r}", _satake, args.type, args.rank, arrows)
    if args.dmax is not None:
        _or_exit("weyl-w0", _check_dmax, args.dmax)
    _, rep, rc = _weyl_route(rs, t0, args.dmax, timer.lap)
    tables = {
        "orders": list(rep.orders),
        "element_orders": {str(k): v for k, v in sorted(rep.element_orders.items())},
        "per_degree": [list(x) for x in rc.per_degree],
        "first_failure_degree": rc.first_failure_degree,
        "dmax": rc.dmax,
    }
    _emit(CaseReport("weyl-w0", {"type": args.type, "rank": rs.rank, "arrows": args.arrows}, 0,
                     {"restriction_onto_up_to_dmax": rc.verdict_up_to_dmax}, tables, timer.marks),
          args.format)
    return 0


def _cmd_index(args) -> int:
    timer = _Timer()
    algebra = _load_algebra(args.algebra)
    timer.lap("load")
    est = _or_exit(f"index --trials {args.trials}", index_estimate,
                   algebra, trials=args.trials, seed=args.seed)
    timer.lap("index")
    _emit(CaseReport("index", {"algebra": args.algebra, "dim": algebra.dim}, args.seed, {},
                     est.as_dict(), timer.marks), args.format)
    return 0


@lru_cache(maxsize=None)  # one per process: a parser's object graph is cyclic garbage
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liesplit",
        description="Exact splitting/contraction toolkit for Lie-Poisson structures",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("json", "markdown"), default="json")

    p = sub.add_parser("case", help="run a named case study", parents=[report])
    p.add_argument("name", choices=available_cases())
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t1", type=_t1_arg, default=None,
                   help="for the horo case: 'full' or 'zero' toral part, or one traceless "
                        "diagonal as comma-separated integers, e.g. 1,0,-1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--dmax", type=int, default=None)
    p.set_defaults(func=_cmd_case)

    p = sub.add_parser("check-ggs", help="degree-sum generating-system test", parents=[report])
    p.add_argument("--algebra", required=True,
                   help="builder spec like sl:4 / gl:4 / so:8, or a constants file")
    p.add_argument("--h", required=True,
                   help="'borel', 'glblocks:n1,n2,...', or 'indices:i,j,...'")
    p.add_argument("--basis", default="charpoly",
                   choices=("charpoly", "trace_powers"), help="the e_k or the p_k = tr Y^k; "
                   "so(2n) takes its Pfaffian for the top one, a double its base's lifts")
    p.add_argument("--side", choices=("h", "r"), default="h")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_ggs)

    p = sub.add_parser("weyl-w0", help="normalizer quotient and restriction table",
                       parents=[report])
    p.add_argument("--type", required=True, choices=("A", "D", "E6"))
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--arrows", required=True, help="pairs like 1:5,2:4")
    p.add_argument("--dmax", type=int, default=None)
    p.set_defaults(func=_cmd_weyl_w0)

    p = sub.add_parser("index", help="sampled index estimate", parents=[report])
    p.add_argument("--algebra", required=True)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_index)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
