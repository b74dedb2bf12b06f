"""One benchmark worker: a fresh, single-threaded process for one workload.

Started by ``run.py``; not meant to be run by hand.  The worker imports
``liesplit`` from the checkout's ``src``, prepares the workload's inputs
and prints ``ready``; the parent times that as set-up.  Then, by mode:

``setup``    exit.
``measure``  run ``jobs.pass_count`` passes over the job list: as many
             nominal passes as fit in ``--seconds``, at least one.
``trace``    run one pass under the outside-in tracer and write its spans.

The last stdout line is the worker's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from functools import partial

import jobs as jobs_mod
from speed import SpeedProbe
from tracer import COUNTERS, JOB_SPAN, Tracer, traceable_names


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def _run_pass(jobs, seed, inputs, tracer=None):
    """One pass over the job list under the speed probe.

    Returns (timings, failures, observations); timings holds the raw and
    reference-speed seconds of the pass and of every job.
    """
    times, ref_times, failures, observed, spans = {}, {}, {}, {}, {}
    with SpeedProbe() as probe:
        c_pass = time.process_time()
        t_pass = time.perf_counter()
        for job in jobs:
            call = partial(tracer.run_job, job.name) if tracer else None
            t0 = time.perf_counter()
            obs, fails = jobs_mod.run_gated(job, seed, inputs, call)
            spans[job.name] = (t0, time.perf_counter())
            observed[job.name] = obs
            if fails:
                failures[job.name] = fails
        t_end = time.perf_counter()
        cpu = time.process_time() - c_pass
    for name, (t0, t1) in spans.items():
        times[name] = t1 - t0
        ref_times[name] = probe.rescale(t0, t1, fallback=(t_pass, t_end))
    timings = {
        "wall_s": t_end - t_pass,
        "wall_ref_s": probe.rescale(t_pass, t_end),
        "cpu_s": cpu,
        "jobs_s": times,
        "jobs_ref_s": ref_times,
        "probe_samples": len(probe.durations),
    }
    return timings, failures, observed


def _stage_seconds(jobs, observed) -> dict:
    """Per-stage seconds from each case report's ``timings_ms``."""
    out = {}
    for job in jobs:
        obs = observed.get(job.name)
        if not job.case or obs is None:
            continue
        got = tuple(obs["timings_ms"])
        if got != job.stages:
            raise RuntimeError(f"{job.name}: report stages {got} != expected {job.stages}")
        for stage, ms in obs["timings_ms"].items():
            out[f"zalgebra.stage.{job.case}.{stage}_s"] = ms / 1000.0
    return out


def measure(jobs, seed, inputs, count) -> dict:
    passes, attempted, failed, failures = [], 0, 0, {}
    for _ in range(count):
        timings, fails, observed = _run_pass(jobs, seed, inputs)
        passes.append(timings)
        attempted += len(jobs)
        failed += len(fails)
        for name, f in fails.items():
            failures.setdefault(name, f)
    return {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "stages": _stage_seconds(jobs, observed),
    }


def trace(jobs, seed, inputs, spans_path) -> dict:
    """One traced pass; the probe's samples land in the self time of the open span."""
    tracer = Tracer()
    with tracer:
        timings, failures, observed = _run_pass(jobs, seed, inputs, tracer)
    tracer.write(spans_path)

    values = {}
    for sid, name in enumerate(tracer.names):
        if name == JOB_SPAN:
            continue
        values[f"{name}.calls"] = tracer.calls[sid]
        values[f"{name}.total_s"] = tracer.total_s[sid]
        values[f"{name}.self_s"] = tracer.self_s[sid]
    values.update(tracer.counters)
    for job in jobs:
        if job.metric:
            values[job.metric] = 0.0
    for span in {job.span for job in jobs if job.span}:
        totals = tracer.job_totals(span)
        for job_id, job in enumerate(jobs):
            if job.span == span:
                values[job.metric] += totals[job_id]
    # share of the traced wall spent in spans below each job's top-level call
    job_sid = tracer.names.index(JOB_SPAN)
    selfs = tracer.self_times()
    covered = sum(t for i, t in enumerate(selfs)
                  if tracer.span_parent[i] >= 0
                  and tracer.span_name[tracer.span_parent[i]] != job_sid)
    values["trace.covered_frac"] = covered / timings["wall_s"]

    known = {f"{n}.{k}" for n in traceable_names() for k in ("calls", "total_s", "self_s")}
    known |= {rule[0] for rule in COUNTERS.values()}
    known |= jobs_mod.metric_names()
    return {
        "passes": [timings],
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures,
        "spans": len(tracer.span_start),
        "values": values,
        "known": sorted(known),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--root", required=True, help="checkout whose src/liesplit must be measured")
    args = ap.parse_args(argv)
    import liesplit

    src = os.path.join(os.path.realpath(args.root), "src", "")
    if not os.path.realpath(liesplit.__file__).startswith(src):
        raise SystemExit(f"liesplit imported from {liesplit.__file__}, not from {src}")

    jobs = jobs_mod.job_list(args.workload)
    inputs = jobs_mod.prepare_inputs(args.workload, args.workdir)
    try:
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "measure":
            count = jobs_mod.pass_count(args.workload, args.seconds)
            result = measure(jobs, args.seed, inputs, count)
        else:
            spans = os.path.join(args.workdir, f"spans-{args.workload}-seed{args.seed}.bin")
            result = trace(jobs, args.seed, inputs, spans)
            result["spans_file"] = spans
    finally:
        jobs_mod.discard_inputs(inputs)
    from liesplit import _kernels, rationals

    result["peak_rss_mb"] = _peak_rss_mb()
    result["environment"] = {
        "python": sys.version.split()[0],
        "rational_backend": rationals.RATIONAL_BACKEND,
        "kernels_compiled": bool(_kernels.COMPILED),
        "liesplit_version": liesplit.__version__,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
