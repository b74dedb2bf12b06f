"""Tests of the benchmark's own code: tracer, exactness gate, runner contract.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import jobs
import liesplit
import liesplit.invariants
import liesplit.poisson
import liesplit.zalgebra
import speed
from liesplit.poly import Polynomial
from speed import SpeedProbe
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent.parent


def _sl3_inputs():
    g = liesplit.build_sl(3)
    B = liesplit.hilbert_basis(g, "charpoly")
    x = [Polynomial.variable(g.dim, i) for i in range(g.dim)]
    F = B.polys[1] * x[0] + x[3] * x[5]
    G = B.polys[0] * x[1] - x[2]
    return g, F, G


def test_wrapped_calls_return_exactly_what_unwrapped_calls_return():
    g, F, G = _sl3_inputs()
    m = liesplit.Matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    plain = (
        liesplit.poisson_bracket(g, F, G),
        F * G, 3 * F, F.eval(list(range(1, 9))),
        liesplit.rank_and_nullspace(m),
        liesplit.index_estimate(g, trials=3, seed=5),
    )
    with Tracer() as tr:
        traced = (
            liesplit.poisson.poisson_bracket(g, F, G),
            F * G, 3 * F, F.eval(list(range(1, 9))),
            liesplit.rank_and_nullspace(m),
            liesplit.index_estimate(g, trials=3, seed=5),
        )
    assert traced == plain
    assert tr.stat("poisson.poisson_bracket")[0] == 1
    assert tr.stat("poly.mul")[0] >= 2
    assert tr.stat("kernels.mul_terms")[0] > 0


def test_every_binding_is_wrapped_by_name_and_restored():
    before = {
        ("zalgebra", "poisson_bracket"): liesplit.zalgebra.poisson_bracket,
        ("invariants", "poisson_bracket"): liesplit.invariants.poisson_bracket,
        ("invariants", "rank"): liesplit.invariants.rank,
        ("package", "run_case"): liesplit.run_case,
        ("poly", "__mul__"): Polynomial.__dict__["__mul__"],
        ("poly", "eval"): Polynomial.__dict__["eval"],
    }
    with Tracer():
        assert liesplit.zalgebra.poisson_bracket is liesplit.invariants.poisson_bracket
        assert liesplit.zalgebra.poisson_bracket is not before[("zalgebra", "poisson_bracket")]
        assert liesplit.invariants.rank.__wrapped__ is before[("invariants", "rank")]
        assert Polynomial.__dict__["__mul__"] is Polynomial.__dict__["__rmul__"]
        assert Polynomial.__dict__["eval"] is not before[("poly", "eval")]
    after = {
        ("zalgebra", "poisson_bracket"): liesplit.zalgebra.poisson_bracket,
        ("invariants", "poisson_bracket"): liesplit.invariants.poisson_bracket,
        ("invariants", "rank"): liesplit.invariants.rank,
        ("package", "run_case"): liesplit.run_case,
        ("poly", "__mul__"): Polynomial.__dict__["__mul__"],
        ("poly", "eval"): Polynomial.__dict__["eval"],
    }
    assert after == before


def test_self_time_bounded_by_total_and_sums_to_job_duration():
    tr = Tracer()
    with tr:
        tr.run_job("sl2n1", liesplit.run_case, "sl2n1", {"n": 1}, 3)
        tr.run_job("index", liesplit.index_estimate, liesplit.build_sl(3), 4, 1)
    for name in tr.names:
        calls, total, self_ = tr.stat(name)
        assert 0.0 <= self_ <= total + 1e-12, name
    selfs = tr.self_times()
    job_sid = tr.names.index("job")
    for job in range(len(tr.job_names)):
        spans = [i for i in range(len(selfs)) if tr.span_job[i] == job]
        root = [i for i in spans if tr.span_name[i] == job_sid]
        assert len(root) == 1
        duration = tr.span_end[root[0]] - tr.span_start[root[0]]
        assert math.isclose(sum(selfs[i] for i in spans), duration, rel_tol=1e-9)
    assert tr.job_totals("zalgebra.run_case")[0] > 0
    assert tr.job_totals("zalgebra.run_case")[1] == 0


def test_jacobi_triple_counter_counts_up_to_the_first_violation():
    from itertools import combinations
    from types import SimpleNamespace

    from tracer import _jacobi_triples

    dim = 7
    triples = list(combinations(range(dim), 3))
    for violation in ((0, 1, 2), (1, 2, 4), (2, 5, 6), (4, 5, 6)):
        result = SimpleNamespace(passed=False, first_violation=violation)
        assert _jacobi_triples((dim, {}), {}, result) == triples.index(violation) + 1
    assert _jacobi_triples((dim, {}), {}, SimpleNamespace(passed=True)) == len(triples)


def test_spans_are_written_with_every_column(tmp_path):
    tr = Tracer()
    with tr:
        tr.run_job("aks", liesplit.run_case, "aks", {"n": 2}, 0)
    path = tmp_path / "spans.bin"
    tr.write(path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        body = fh.read()
    assert header["spans"] == len(tr.span_start) > 1
    assert header["jobs"] == ["aks"]
    assert len(body) == header["spans"] * sum(size for _, _, size in header["columns"])


def _job(name):
    for make in jobs.WORKLOADS.values():
        for job in make():
            if job.name == name:
                return job
    raise KeyError(name)


def test_gate_passes_golden_and_fails_a_wrong_golden_value():
    job = _job("case.sl2n1_n1")
    observed, failures = jobs.run_gated(job, 0, {})
    assert failures == []
    wrong = dataclasses.replace(
        job, golden=dict(job.golden, restrictions={"P2": "6*c^2", "P3": "6*c^3"}))
    assert jobs.gate(wrong, observed) == ["restrictions"]
    _, failures = jobs.run_gated(wrong, 0, {})
    assert failures == ["restrictions"]


def test_gate_counts_a_raising_job_as_failed():
    def boom(seed, inputs):
        raise ValueError("no such case")

    _, failures = jobs.run_gated(jobs.Job("boom", boom, {}), 0, {})
    assert failures and failures[0].startswith("raised ValueError")


def test_gate_fails_a_false_verdict():
    job = jobs.Job("v", lambda seed, inputs: {"failed_verdicts": ["z_commutes"]},
                   {"failed_verdicts": []})
    assert jobs.gate(job, job.run(0, {})) == ["failed_verdicts"]


def test_speed_probe_removes_its_own_time_and_rescales():
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.6:
            sum(range(1000))
        t1 = time.perf_counter()
    assert len(probe.durations) >= speed.MIN_SAMPLES
    mean = sum(probe.durations) / len(probe.durations)
    net = (t1 - t0) - sum(probe.durations)
    assert math.isclose(probe.rescale(t0, t1), net * speed.REF_SAMPLE_S / mean, rel_tol=1e-9)
    assert probe.rescale(t1 - 1e-6, t1, fallback=(t0, t1)) > 0
    with pytest.raises(ValueError):
        probe.rescale(t1, t1 + 1.0)


def _trace_worker(workdir):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", "desk_checks",
         "--seed", "2", "--mode", "trace", "--workdir", str(workdir), "--root", str(ROOT)],
        capture_output=True, text=True, env=env, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "ready"
    return json.loads(lines[-1])


def test_exact_counters_repeat_across_traced_runs(tmp_path):
    first, second = _trace_worker(tmp_path), _trace_worker(tmp_path)
    assert first["failed"] == 0 and second["failed"] == 0
    for name in ("kernels.mul_terms.term_pairs", "kernels.matmul_i8.calls",
                 "liealg.jacobi_report.triples", "weyl.enumerate_weyl.elements"):
        assert first["values"][name] > 0, name
        assert first["values"][name] == second["values"][name], name
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = set(first["known"]) | set(first["values"]) | {"trace.overhead_frac"}
    assert not [m["name"] for m in spec["per_layer"] if m["name"] not in known]


def test_runner_fails_without_liesplit_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_checks", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

