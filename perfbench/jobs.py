"""The benchmark's workloads: job lists, their inputs and the exactness gate.

Every job calls the public ``liesplit`` API through module attributes
(``ls.run_case``, ``cli.main``, ...), so the outside-in tracer sees each
call.  A job returns the values it observed; the gate compares them with
the job's golden values, which are the exact values asserted in
``tests/test_acceptance.py`` plus "every named verdict holds".  A job
whose golden value differs, or that raises, counts as failed.

Workloads and why each exists:

``brackets``
    ``run_case`` for so2n n=4, sl2n1 n=2 and double n=2.  Polynomial
    products and sparse accumulation under ``poisson_bracket`` and
    ``verify_invariance`` dominate; the so2n job carries the 30 s
    acceptance bound.
``weyl_e6``
    ``run_case("e6_weyl")``: Weyl-group enumeration over int8 matrices and
    the rational W0 projection; polynomial products are negligible, so it
    bypasses any change to the polynomial core.
``desk_checks``
    The remaining small cases, the gl_4 dichotomy, the sl_4 elimination,
    the index law on ten contractions and two CLI subcommands: many small
    constructions, rank samples, polynomial evaluation and transport.

Seeds.  The sampled suites inside ``run_case`` (pair sampling in
``property_suite`` and ``commutativity_suite``) make the work of the
larger cases depend strongly on the case seed: one pass of ``brackets``
took 24 s to 111 s over case seeds 0-4, and sl2n n=2 varied by half.
Those cases (all of ``brackets`` and ``weyl_e6``, and sl2n n=2) run at
the acceptance suite's seed ``CASE_SEED``, which is also where so2n's
30 s bound is enforced.  Every other ``desk_checks`` job takes the
workload seed: the small cases' ``run_case``, ``ggs_check``,
``index_estimate`` (seeds 5*seed to 5*seed+4) and the CLI ``--seed``.
Job order is fixed: it moves peak memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import liesplit as ls
import liesplit.cli as cli

CASE_SEED = 1

# stage labels each case report writes into ``timings_ms``
STAGES = {
    "borel": ("build", "z_algebra", "suites"),
    "horo": ("build", "checks"),
    "double": ("build", "ggs", "z_algebra", "suites"),
    "sl2n": ("build", "elimination", "z_algebra", "weyl", "suites"),
    "sl2n1": ("build", "elimination", "weyl", "suites"),
    "so2n": ("build", "ggs", "z_algebra", "weyl", "suites"),
    "e6_weyl": ("enumerate", "w0", "restriction"),
    "aks": ("aks",),
}


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[int, dict], dict]   # (seed, inputs) -> observed values
    golden: dict                       # exact expected values, key by key
    span: str | None = None            # span whose time in this job is reported as ``metric``
    metric: str | None = None
    case: str | None = None            # run_case name, for stage timings
    stages: tuple = field(default=())


_MISSING = object()


def gate(job: Job, observed: dict) -> list[str]:
    """Names of the golden values the observation does not match."""
    return [key for key, want in job.golden.items()
            if observed.get(key, _MISSING) != want]


def run_gated(job: Job, seed: int, inputs: dict, call=None):
    """Run one job; return (observed or None, failure list).

    ``call(fn, *args)`` wraps the job call (the tracer uses it to open the
    job span); a raised exception is a failure, reported by type.
    """
    try:
        observed = call(job.run, seed, inputs) if call else job.run(seed, inputs)
    except Exception as exc:  # a raising job is a failed job, not a crashed benchmark
        return None, [f"raised {type(exc).__name__}: {exc}"]
    return observed, gate(job, observed)


# -- case jobs -------------------------------------------------------------


def _failed_verdicts(verdicts: dict) -> list:
    return [k for k, v in verdicts.items() if not v]


def case_job(case: str, params: dict, label: str, tables=(), extra=None,
             golden=None, fixed_seed: bool = False) -> Job:
    """``run_case`` job: every verdict must hold and the listed tables must match."""

    def run(seed, inputs):
        rep = ls.run_case(case, dict(params), seed=CASE_SEED if fixed_seed else seed)
        obs = {"failed_verdicts": _failed_verdicts(rep.verdicts), "timings_ms": rep.timings_ms}
        obs.update({k: rep.tables[k] for k in tables})
        if extra:
            obs.update(extra(rep))
        return obs

    want = {"failed_verdicts": []}
    want.update(golden or {})
    return Job(f"case.{label}", run, want, span="zalgebra.run_case",
               metric=f"zalgebra.run_case.{label}_s", case=label, stages=STAGES[case])


# -- desk checks -----------------------------------------------------------


def _sl_diag(g, diag):
    """Coordinates of a traceless diagonal matrix in the sl builder basis."""
    v = [ls.QQ(0)] * g.dim
    run = ls.QQ(0)
    for k, i in enumerate(g.triangular.cartan):
        run += diag[k]
        v[i] = run
    return v


def _unit(dim, positions, values=None):
    v = [ls.QQ(0)] * dim
    for t, i in enumerate(positions):
        v[i] = ls.QQ(1 if values is None else values[t])
    return v


def _gl4_blocks(gl4, sizes):
    order = [(i, j) for i in range(4) for j in range(4) if i < j]
    order += [(i, i) for i in range(4)]
    order += [(i, j) for i in range(4) for j in range(4) if i > j]
    bounds, start = [], 0
    for s in sizes:
        bounds.append((start, start + s))
        start += s
    return [k for k, (i, j) in enumerate(order)
            if any(a <= i < b and a <= j < b for a, b in bounds)]


def _ggs_gl4(seed, inputs):
    gl4 = ls.build_gl(4)
    trace = ls.hilbert_basis(gl4, "trace_powers")
    charp = ls.hilbert_basis(gl4, "charpoly")
    d13 = ls.make_decomposition(gl4, _gl4_blocks(gl4, [1, 3]))
    d22 = ls.make_decomposition(gl4, _gl4_blocks(gl4, [2, 2]))
    r_t = ls.ggs_check(d13, trace, seed=seed)
    r_c = ls.ggs_check(d13, charp, seed=seed)
    return {
        "d13_trace": (r_t.sum_m, r_t.dim_m, r_t.verdict),
        "d13_charpoly": (r_c.sum_m, r_c.dim_m, r_c.verdict),
        "d22_verdicts": (ls.ggs_check(d22, trace, seed=seed).verdict,
                         ls.ggs_check(d22, charp, seed=seed).verdict),
    }


def _sl4_splitting():
    g = ls.build_sl(4)
    cart = g.triangular.cartan
    t0 = [_unit(g.dim, [cart[0], cart[2]], [1, -1])]
    t1 = [_sl_diag(g, d) for d in ([1, 0, 0, -1], [0, 1, -1, 0])]
    return g, t1, t0


def _elim_sl4(seed, inputs):
    g, t1, t0 = _sl4_splitting()
    S = ls.horospherical_splitting(g, t1, t0_basis=t0)
    B = ls.transport_basis(ls.hilbert_basis(g, "trace_powers"), S)
    mod = ls.eliminate_on_subspace(B, S, keep=[0])
    P2, P3, P4 = B.polys
    return {
        "quartic_is_P4_minus_quarter_P2_sq": mod.polys[2] == P4 - ls.QQ(1, 4) * P2 * P2,
        "cubic_kept": mod.polys[1] == P3,
        "modified_is_ggs": ls.ggs_check(S, mod, side="h", seed=seed).verdict,
    }


def _index_splittings():
    """(label, splitting builder) for the index-law cases of the acceptance suite."""

    def sl2():
        g = ls.build_sl(2)
        return ls.horospherical_splitting(g, [_unit(3, [1])])

    def sl3():
        g = ls.build_sl(3)
        return ls.horospherical_splitting(g, [_unit(8, g.triangular.cartan)])

    def double_sl2():
        d = ls.build_double(ls.build_sl(2))
        return ls.horospherical_splitting(d, [_unit(4, [1, 3], [1, -1])])

    def sl4():
        g, t1, _ = _sl4_splitting()
        return ls.horospherical_splitting(g, t1)

    def so8():
        g = ls.build_so_even(4)
        return ls.horospherical_splitting(g, [_unit(28, [i]) for i in g.triangular.cartan[:3]])

    return [("sl2", sl2), ("sl3", sl3), ("double_sl2", double_sl2), ("sl4", sl4), ("so8", so8)]


def _index_job(label, build, rank) -> Job:
    def run(seed, inputs):
        S = build()
        out = []
        for s in range(5 * seed, 5 * seed + 5):
            for side in ("keep_h", "keep_r"):
                out.append(ls.index_estimate(ls.contract(S, side), trials=5, seed=s).claimed_index)
        return {"indices": out}

    return Job(f"index.{label}", run, {"indices": [rank] * 10})


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    doc = json.loads(buf.getvalue())
    return {"exit_code": code, "failed_verdicts": _failed_verdicts(doc["verdicts"]),
            "tables": doc["tables"]}


def _cli_index(seed, inputs):
    out = _cli(["index", "--algebra", inputs["so8_json"], "--seed", str(seed)])
    return {"exit_code": out["exit_code"], "claimed_index": out["tables"]["claimed_index"]}


def _cli_ggs(algebra, h, basis):
    def run(seed, inputs):
        out = _cli(["check-ggs", "--algebra", algebra, "--h", h, "--basis", basis,
                    "--seed", str(seed)])
        return {"exit_code": out["exit_code"], "failed_verdicts": out["failed_verdicts"],
                "sum_dim_m": (out["tables"]["sum_m"], out["tables"]["dim_m"])}

    return run


# -- workloads -------------------------------------------------------------


def _brackets():
    return [
        case_job("so2n", {"n": 4}, "so2n_n4", fixed_seed=True,
                 tables=("restrictions", "sum_m", "dim_m", "per_generator_deg_m"),
                 golden={"restrictions": {"Delta_2": "-c^2", "Delta_4": "0",
                                          "Delta_6": "0", "Pf": "0"},
                         "sum_m": 13, "dim_m": 13, "per_generator_deg_m": [2, 3, 5, 3]}),
        case_job("sl2n1", {"n": 2}, "sl2n1_n2", fixed_seed=True),
        case_job("double", {"n": 2}, "double_n2", fixed_seed=True,
                 tables=("m_tilde_count", "b", "trdeg", "common_ggs"),
                 extra=lambda rep: {"parameter_count": len(rep.tables["parameters"])},
                 golden={"m_tilde_count": 7, "b": 7, "trdeg": 7, "common_ggs": False,
                         "parameter_count": 8}),
    ]


def _weyl_e6():
    def per_degree(rep):
        table = {d: (im, inv) for d, im, inv in rep.tables["per_degree"]}
        return {"per_degree_2_3": (table.get(2), table.get(3))}

    return [
        case_job("e6_weyl", {}, "e6_weyl", fixed_seed=True,
                 tables=("orders", "element_orders"), extra=per_degree,
                 golden={"orders": [51840, 1152, 192, 6],
                         "element_orders": {"1": 1, "2": 3, "3": 2},
                         "per_degree_2_3": ((1, 1), (0, 1))}),
    ]


def _desk_checks():
    jobs = [
        case_job("borel", {"n": 2}, "borel_n2"),
        case_job("horo", {"n": 3, "t1": ((1, 0, -1),)}, "horo_n3",
                 tables=("s0", "s_inf"), golden={"s0": 1, "s_inf": 1}),
        case_job("double", {"n": 1}, "double_n1",
                 tables=("m_tilde_count", "b", "trdeg", "common_ggs", "all_degrees_even"),
                 golden={"m_tilde_count": 3, "b": 3, "trdeg": 3, "common_ggs": True,
                         "all_degrees_even": True}),
        case_job("sl2n", {"n": 2}, "sl2n_n2", fixed_seed=True),
        case_job("sl2n1", {"n": 1}, "sl2n1_n1", tables=("restrictions",),
                 golden={"restrictions": {"P2": "6*c^2", "P3": "-6*c^3"}}),
        case_job("aks", {"n": 2}, "aks_n2"),
        case_job("aks", {"n": 3}, "aks_n3"),
        Job("ggs.gl4_dichotomy", _ggs_gl4,
            {"d13_trace": (8, 6, False), "d13_charpoly": (6, 6, True),
             "d22_verdicts": (True, True)}),
        Job("elim.sl4_quartic", _elim_sl4,
            {"quartic_is_P4_minus_quarter_P2_sq": True, "cubic_kept": True,
             "modified_is_ggs": True}),
    ]
    ranks = {"sl2": 1, "sl3": 2, "double_sl2": 2, "sl4": 3, "so8": 4}
    jobs += [_index_job(label, build, ranks[label]) for label, build in _index_splittings()]
    jobs += [
        Job("cli.index_so8", _cli_index, {"exit_code": 0, "claimed_index": 4},
            span="cli.main", metric="cli.main.index_s"),
        Job("cli.check_ggs_gl4", _cli_ggs("gl:4", "glblocks:1,3", "charpoly"),
            {"exit_code": 0, "failed_verdicts": [], "sum_dim_m": (6, 6)},
            span="cli.main", metric="cli.main.check-ggs_s"),
        Job("cli.check_ggs_sl4", _cli_ggs("sl:4", "borel", "charpoly"),
            {"exit_code": 0, "failed_verdicts": []},
            span="cli.main", metric="cli.main.check-ggs_s"),
    ]
    return jobs


WORKLOADS = {
    "brackets": _brackets,
    "weyl_e6": _weyl_e6,
    "desk_checks": _desk_checks,
}

# rough seconds per pass (2-vCPU VM, pure kernels, fractions); fixes the pass count
NOMINAL_PASS_S = {"brackets": 35.0, "weyl_e6": 22.0, "desk_checks": 5.0}


def pass_count(workload: str, seconds: float) -> int:
    """Whole passes that fill ``seconds`` at the nominal pass time; at least one.

    The count depends only on the arguments, so every run of a workload
    does the same work and peak memory compares like with like.
    """
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def job_list(workload: str) -> list[Job]:
    return WORKLOADS[workload]()


def prepare_inputs(workload: str, workdir: str) -> dict:
    """Files the jobs read; the so(8) constants file for the CLI ``index`` job."""
    if workload != "desk_checks":
        return {}
    path = os.path.join(workdir, f"so8-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ls.algebra_to_json(ls.build_so_even(4)))
    return {"so8_json": path}


def discard_inputs(inputs: dict) -> None:
    for path in inputs.values():
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def metric_names() -> set:
    """Every per-job metric name any workload can report."""
    names = set()
    for make in WORKLOADS.values():
        for job in make():
            if job.metric:
                names.add(job.metric)
            names.update(f"zalgebra.stage.{job.case}.{s}_s" for s in job.stages)
    return names
