"""liesplit benchmark: exactness-gated workloads timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload brackets --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Workloads (see ``jobs.py`` for the job lists and why each exists):
``brackets``, ``weyl_e6``, ``desk_checks``.  Each run uses fresh
single-threaded worker processes, one at a time, and imports liesplit
from ``src/`` of the checkout.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
Times are seconds at the reference machine speed: the measured time with
the speed probe's own time removed, rescaled by the machine speed the
probe saw meanwhile (see ``speed.py``; the shared machines this runs on
drift by tens of percent within a minute).

    wall_s       median over passes of the wall time of one pass
    job_max_s    median over passes of the slowest job in the pass
    setup_s      median, over nine workers, of the time from process start
                 until liesplit is imported and the inputs are ready
    peak_rss_mb  peak resident memory of the measuring worker

It also prints the raw times ``wall_raw_s``, ``job_max_raw_s`` and
``setup_raw_s``, and ``failed_frac`` (failed / attempted jobs; the JSON
carries ``failed`` and ``attempted``).
A job fails when it raises or any golden value differs.  Each run makes
``jobs.pass_count`` passes: as many nominal passes as fit in
``--seconds``, at least one.

``--trace 1`` runs one untraced pass and one traced pass, each in its own
fresh worker, and reports the per-layer metrics of ``BENCHMARK.json``:
calls, inclusive and self seconds and exact counters per layer function,
per-case and per-stage seconds, ``trace.overhead_frac`` (traced wall over
untraced wall at reference speed, minus 1) and ``trace.covered_frac`` (share of the traced
wall in spans below each job's top-level call).  Spans are written to
``.bench_build/perfbench/``, with a JSON record of every run.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import speed_now

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("brackets", "weyl_e6", "desk_checks")
SETUP_REPEATS = 9
SETUP_PROBE_S = 0.04
WORKER_TIMEOUT_S = 170.0
# printed with every untraced run but left out of BENCHMARK.json: raw times
# drift with the shared machine's speed, and failed_frac is 0 when correct
UNBOUNDED = (("wall_raw_s", "s"), ("job_max_raw_s", "s"), ("setup_raw_s", "s"),
             ("failed_frac", "frac"))


class BenchError(RuntimeError):
    pass


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _worker(workload, seed, mode, seconds=0.0):
    """Start one worker; return (seconds until ready, result dict or None)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
           "--workdir", str(WORKDIR), "--root", str(ROOT)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} failed (exit {proc.returncode})")
    if mode == "setup":
        return ready, None
    return ready, json.loads(rest.strip().splitlines()[-1])


def _run_untraced(workload, seed, seconds):
    setups, setups_raw = [], []
    for i in range(SETUP_REPEATS):
        factor = speed_now(SETUP_PROBE_S)
        last = i == SETUP_REPEATS - 1
        ready, res = _worker(workload, seed, "measure" if last else "setup", seconds)
        setups_raw.append(ready)
        setups.append(ready * factor)
    passes = res["passes"]
    values = {
        "wall_s": statistics.median(p["wall_ref_s"] for p in passes),
        "job_max_s": statistics.median(max(p["jobs_ref_s"].values()) for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "wall_raw_s": statistics.median(p["wall_s"] for p in passes),
        "job_max_raw_s": statistics.median(max(p["jobs_s"].values()) for p in passes),
        "setup_raw_s": statistics.median(setups_raw),
        "failed_frac": res["failed"] / res["attempted"],
    }
    res["setup_samples_s"] = setups
    res["setup_raw_samples_s"] = setups_raw
    return values, res


def _run_traced(workload, seed):
    _, plain = _worker(workload, seed, "measure", 0.0)
    _, traced = _worker(workload, seed, "trace")
    values = dict(plain["stages"])
    values.update(traced["values"])
    values["trace.overhead_frac"] = (traced["passes"][0]["wall_ref_s"]
                                     / plain["passes"][0]["wall_ref_s"] - 1.0)
    known = set(traced["known"]) | {"trace.overhead_frac", "trace.covered_frac"}
    res = dict(traced, untraced=plain)
    res["attempted"] = plain["attempted"] + traced["attempted"]
    res["failed"] = plain["failed"] + traced["failed"]
    res["failures"] = {**plain["failures"], **traced["failures"]}
    return values, known, res


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    spec = _spec()
    if traced:
        values, known, res = _run_traced(workload, seed)
        wanted = spec["per_layer"]
    else:
        values, res = _run_untraced(workload, seed, seconds)
        known = set(values)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in values:
            value = values[name]
        elif name in known:
            value = 0  # a layer or job this workload never reaches
        else:
            raise BenchError(f"BENCHMARK.json names unknown metric {name!r}")
        metrics[name] = {"value": value, "unit": m["unit"]}

    env = dict(res["environment"], git_commit=_git_commit(), nproc=os.cpu_count())
    summary = {"correct": res["failed"] == 0, "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
              "environment": env, "failures": res["failures"], "result": summary,
              "detail": {k: v for k, v in res.items() if k not in ("known", "values")}}
    path = WORKDIR / f"result-{workload}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"# {workload} seed={seed} trace={int(traced)} environment={json.dumps(env)}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    if not traced:
        for name, unit in UNBOUNDED:
            print(f"  {name:44s} {values[name]:>16.6g} {unit}  (not bounded)")
        print(f"  {res['failed']}/{res['attempted']} jobs failed over {len(res['passes'])} passes")
    for job, why in res["failures"].items():
        print(f"  FAILED {job}: {why}")
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "liesplit" / "__init__.py").is_file():
        print(f"error: no liesplit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
        WORKDIR.mkdir(parents=True, exist_ok=True)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in workloads:
            summary = run(workload, args.seed, seconds, bool(args.trace))
            print(json.dumps(summary), flush=True)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
