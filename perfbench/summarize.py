"""Summarize the run records that ``run.py`` leaves in ``.bench_build/perfbench``.

    python3 perfbench/summarize.py                 # print the summary
    python3 perfbench/summarize.py --out FILE      # also write it as JSON

For each workload: the seeds run, and per end-to-end metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(upper minus lower quartile, over the median).  Traced runs contribute
the median of each per-layer metric.  The environment records of all
runs must agree; the summary carries that record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

WORKDIR = Path(__file__).resolve().parent.parent / ".bench_build" / "perfbench"


def summarize(records: list[dict]) -> dict:
    envs = {json.dumps(r["environment"], sort_keys=True) for r in records}
    if len(envs) != 1:
        raise ValueError(f"runs come from {len(envs)} different environments")
    out = {"environment": records[0]["environment"], "workloads": {}}
    for rec in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        w = out["workloads"].setdefault(rec["workload"], {"end_to_end": {}, "per_layer": {}})
        key = "per_layer" if rec["trace"] else "end_to_end"
        w.setdefault(f"{key}_seeds", []).append(rec["seed"])
        w.setdefault(f"{key}_correct", True)
        w[f"{key}_correct"] &= rec["result"]["correct"]
        for name, m in rec["result"]["metrics"].items():
            w[key].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for w in out["workloads"].values():
        for name, m in w["end_to_end"].items():
            v = m.pop("values")
            med = statistics.median(v)
            m["median"] = med
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
                m.update(q1=q1, q3=q3, spread=(q3 - q1) / med)
        for name, m in w["per_layer"].items():
            m["median"] = statistics.median(m.pop("values"))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", help="write the summary to this JSON file")
    args = ap.parse_args(argv)
    records = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(WORKDIR.glob("result-*.json"))]
    if not records:
        print(f"no run records under {WORKDIR}", file=sys.stderr)
        return 1
    summary = summarize(records)
    for name, w in summary["workloads"].items():
        print(f"{name}: seeds {w.get('end_to_end_seeds', [])}")
        for metric, m in w["end_to_end"].items():
            spread = f"spread {m['spread']:.4f}" if "spread" in m else ""
            print(f"  {metric:14s} median {m['median']:12.6g} {m['unit']:5s} {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
