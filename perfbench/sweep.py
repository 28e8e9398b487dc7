#!/usr/bin/env python3
"""Run the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/sweep.py --traced-seeds 2 --out perfbench/baseline/<tag>.json

It runs every workload in BENCHMARK.json with seeds 1-10.  For every
workload and end-to-end metric it prints the median of the per-seed values
and the spread (distance between the first and third quartile over the
median).  A spread above a third of the metric's bound is flagged, one
above the bound fails.  The first ``--traced-seeds`` seeds are also run
traced, twice: every ``.calls`` count must repeat and the traced output
digest must match the untraced one.  ``--compare`` fails a median when it
or an earlier report's median exceeds the other by more than the bound.
Exits 1 on any failed check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".perfbench_work" / "results"
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(RESULTS / f"{workload}-seed{seed}-trace{trace}.json", encoding="utf-8") as fh:
        record = json.load(fh)
    keep = ("digest", "error_rate", "flags", "metrics", "per_process", "per_rep", "provenance")
    return result, {"seed": seed, "trace": trace, **{k: record[k] for k in keep}}


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--traced-seeds", type=int, default=0,
                        help="how many of the seeds to also run traced")
    parser.add_argument("--out", help="write medians, spreads and records here")
    parser.add_argument("--compare", help="an earlier --out file; flag medians that differ by "
                                          "more than the bound")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "seeds": SEEDS, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        entry = report["workloads"][workload] = {"records": []}
        values = {name: [] for name in bounds}
        for seed in SEEDS:
            result, record = run(workload, seed, bench["run_seconds"], 0)
            ok &= result["correct"]
            entry["records"].append(record)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            if seed in SEEDS[:args.traced_seeds]:
                traced, trecord = run(workload, seed, bench["run_seconds"], 1)
                again, _ = run(workload, seed, bench["run_seconds"], 1)
                calls = {k: v["value"] for k, v in traced["metrics"].items() if k.endswith(".calls")}
                calls_again = {k: v["value"] for k, v in again["metrics"].items() if k.endswith(".calls")}
                same_digest = trecord["digest"] == record["digest"] and traced["correct"]
                ok &= traced["correct"] and calls == calls_again and same_digest
                print(f"{workload} seed {seed}: traced digest matches {same_digest}, "
                      f"calls repeat {calls == calls_again}")
                for name, m in traced["metrics"].items():
                    print(f"{workload} seed {seed} {name} {m['value']:.6g} {m['unit']}")
                entry["records"].append(trecord)
        entry["end_to_end"] = {name: spread(v) for name, v in values.items()}
        for rec in entry["records"]:
            report.setdefault("provenance", dict(rec["provenance"], seed=None))
            del rec["provenance"]
        for name, s in entry["end_to_end"].items():
            within = s["spread"] <= bounds[name]
            ok &= within
            verdict = ("ok" if s["spread"] < bounds[name] / 3 else
                       "UNSTEADY" if within else "OUTSIDE")
            print(f"{workload:18s} {name:12s} median {s['median']:10.4f}  "
                  f"spread {s['spread']:.4f}  bound {bounds[name]}  {verdict}")
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            before = json.load(fh)["workloads"]
        for workload, entry in report["workloads"].items():
            for name, s in entry["end_to_end"].items():
                old = before[workload]["end_to_end"][name]["median"]
                change = s["median"] / old - 1.0
                # Symmetric: the check passes or fails alike with the sets swapped.
                within = max(s["median"] / old, old / s["median"]) - 1.0 <= bounds[name]
                ok &= within
                print(f"{workload:18s} {name:12s} median {old:10.4f} -> {s['median']:10.4f}  "
                      f"{change:+.4f}  bound {bounds[name]}  {'ok' if within else 'OUTSIDE'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
