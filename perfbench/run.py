#!/usr/bin/env python3
"""pinlab benchmark: three experiment workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload chain-thresholds --seed 1 --seconds 30 --trace 0

Run from the repository root.  The run starts fresh processes
(perfbench/child.py) until ``--seconds`` is spent, at least MIN_CHILDREN.
Each imports pinlab from ``src/``, which gives one set-up time, and then
does REPS_PER_CHILD cold runs: every config of the workload through
``pinlab.harness.run_experiment`` into an empty output directory.

``--trace 0`` reports the end-to-end metrics, medians over processes or
cold runs.  ``--trace 1`` adds one traced process (perfbench/spans.py) and
reports the per-layer metrics.  The first process checks every cell, and
every cold run's output digest must match the first.  The last stdout line
is the JSON result; the full record, with provenance, goes to
.perfbench_work/results/.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_CHILDREN = 3  # fresh processes per run; each times REPS_PER_CHILD cold runs
REPS_PER_CHILD = {"gibbs-sampling": 1, "chain-thresholds": 2, "replica-sweep": 2}
RESUME_REPS = 3
DEADLINE_S = 170.0  # the whole run must end within 180 s

# Shapes follow the experiments' acceptance configs; replica and sample
# counts are scaled so that one process's cold runs cost 6-9 CPU seconds
# on 2 cores.  Each entry is (config, number of independent realizations).
WORKLOADS = {
    # Serial, one-row cells: the exact backward sampler and PinnedSet/Hausdorff
    # per draw, plus one forward table per cell; no chain DP, subordinator or
    # thread pool.  n_samples is set so the draws cost more than the forward
    # tables.  The cost per draw follows the size of the sampled sets, which
    # one heavy-tailed disorder moves by 4x, so the workload runs four
    # independent disorders, each over the whole N ladder.
    "gibbs-sampling": [
        ({"experiment": "concentration", "alpha": 0.5, "gamma": 0.5, "beta_hat": 1.0,
          "h": 1.0, "N_list": [64, 128, 256, 512, 1024, 2048], "n_samples": 350}, 4),
    ],
    # Parametric (Dinkelbach) chain DPs of varmax and polymer through the pool,
    # plus the vectorized enumeration at k=16 and scalar tent entropies.
    "chain-thresholds": [
        ({"experiment": "threshold-pinning", "alpha": 0.5, "gamma": 0.5,
          "k_list": [16, 128, 512], "replicas": 50}, 1),
        ({"experiment": "threshold-polymer", "alpha": 0.8, "k_list": [32, 128, 512],
          "replicas": 25}, 1),
    ],
    # Many short replicas through the pool (tie-breaking solve_dp, grid
    # coupling, growth envelopes) and the largest cell write (20,000 rows).
    "replica-sweep": [
        ({"experiment": "convergence", "alpha": 0.5, "gamma": 0.5, "beta_hat": 1.0,
          "N_list": [64, 256, 1024], "k_list": [256], "replicas": 10}, 1),
        ({"experiment": "subordinator-growth", "alpha": 0.5, "q": 1.5, "k_list": [1000],
          "replicas": 32}, 1),
        ({"experiment": "renewal-asymptotics", "gamma": 0.5, "c": 1.0, "k_inf": 0.3,
          "n_eval": 20000}, 1),
    ],
}
EXPERIMENTS = ("concentration", "convergence", "threshold-pinning", "threshold-polymer",
               "renewal-asymptotics", "subordinator-growth")


def workload_configs(workload: str, seed: int) -> list[dict]:
    """The workload's configs with the seed written in; realization j of a
    repeated config gets seed * 1000 + j."""
    return [dict(cfg, seed=seed if n == 1 else seed * 1000 + j)
            for cfg, n in WORKLOADS[workload] for j in range(n)]


def child_env() -> tuple[dict, int]:
    """Environment for the repetitions: the harness's default pool size,
    never above the CPUs this process may run on."""
    env = dict(os.environ)
    env.pop("PINLAB_THREADS", None)
    env.pop("PYTHONPATH", None)
    affinity = len(os.sched_getaffinity(0))
    workers = os.cpu_count() or 1
    if workers > affinity:
        env["PINLAB_THREADS"] = str(affinity)
        workers = affinity
    return env, workers


def host_steal() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole host, when the kernel reports them."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (ticks[7], sum(ticks)) if len(ticks) > 7 else None


def run_child(spec: dict, rep_dir: Path, env: dict, deadline: float) -> dict:
    """One fresh process; adds its set-up wall time and the host's steal share."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    steal0 = host_steal()
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py")], input=json.dumps(spec), cwd=rep_dir,
        env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark process exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_wall_s"] = result["ready"] - spawned
    steal1 = host_steal()
    result["steal_frac"] = ((steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
                            if steal0 and steal1 else 0.0)
    return result


def command_output(args: list[str], **kwargs) -> str | None:
    try:
        proc = subprocess.run(args, capture_output=True, text=True, **kwargs)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int, workers: int, versions: dict) -> dict:
    # The ceiling keeps git from reporting an enclosing repository's revision.
    rev = command_output(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    nproc = command_output(["nproc"])
    src = hashlib.sha256()
    for path in sorted((SRC / "pinlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": rev or "unknown",
        "source_sha256": src.hexdigest(),
        "nproc": int(nproc) if nproc else None,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "harness_workers": workers,
        "machine": platform.machine(),
        "seed": seed,
        **versions,
    }


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "pinlab" / "__init__.py").is_file():
        print(f"no pinlab sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)

    work = WORK / args.workload
    rep_dir = work / "rep"
    env, workers = child_env()
    spec = {"src": str(SRC), "configs": workload_configs(args.workload, args.seed)}
    children = []
    start = time.monotonic()
    while len(children) < MIN_CHILDREN or (
            time.monotonic() - start) * (len(children) + 1) / len(children) <= args.seconds:
        first = not children
        children.append(run_child(dict(spec, reps=REPS_PER_CHILD[args.workload],
                                       checks=first,
                                       resume_reps=RESUME_REPS if first and args.trace else 0),
                                  rep_dir, env, deadline))
    reps = [rep for child in children for rep in child["reps"]]
    traced = None
    if args.trace:
        traced = run_child(dict(spec, trace=True, spans_path=str(work / "spans.csv.gz")),
                           rep_dir, env, deadline)
    shutil.rmtree(rep_dir, ignore_errors=True)

    first_child = children[0]
    all_reps = reps + (traced["reps"] if traced else [])
    digest = reps[0]["digest"]
    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(r["failed"] if r["digest"] == digest else r["attempted"] for r in all_reps)
    if args.trace and first_child["resume_digest"] != digest:
        failed += 1

    cpu = median(r["cpu_s"] for r in reps)
    values = {
        "setup_s": median(c["setup_cpu_s"] for c in children),
        "cpu_s": cpu,
        "peak_rss_mb": median(c["peak_rss_mb"] for c in children),
    }
    experiment_s = {
        f"{exp.replace('-', '_')}_s": median(r["experiment_cpu_s"].get(exp, 0.0) for r in reps)
        for exp in EXPERIMENTS
    }
    wall = median(r["wall_s"] for r in reps)
    steal = median(c["steal_frac"] for c in children)
    if traced:
        # The traced process does one cold run, so it is compared with the
        # untraced processes' first cold runs only.
        first_cpu = median(c["reps"][0]["cpu_s"] for c in children)
        values.update(traced["layers"])
        values.update(experiment_s)
        values.update({
            "wall_s": wall,
            "harness.cells_written": traced["cells_written"],
            "harness.bytes_written": traced["bytes_written"],
            "harness.resume_s": first_child["resume_s"],
            "trace.overhead": traced["reps"][0]["cpu_s"] / first_cpu,
        })
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"benchmark computes no value for {', '.join(missing)}")

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed, workers, first_child["versions"]),
        "configs": spec["configs"],
        "repetitions": len(reps),
        "digest": digest,
        "digests": [r["digest"] for r in all_reps],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "errors": [e for r in all_reps for e in r["errors"]],
        "check_failures": first_child["check_failures"],
        "flags": first_child["flags"],
        "checks_s": first_child["checks_s"],
        "per_process": {k: [c[k] for c in children]
                        for k in ("setup_cpu_s", "setup_wall_s", "peak_rss_mb", "steal_frac")},
        "per_rep": {k: [r[k] for r in reps] for k in ("cpu_s", "wall_s")},
        "experiment_cpu_s": experiment_s,
        "host_steal_frac": steal,
        "metrics": {name: values[name] for name in units},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)} "
          f"in {len(children)} processes  harness workers {workers}")
    print(f"digest {digest}")
    print(f"error_rate {failed / attempted:.6g} ({failed}/{attempted} cells)")
    for msgs in first_child["check_failures"].values():
        for msg in msgs:
            print(f"check failed: {msg}")
    for exp, flags in first_child["flags"].items():
        print(f"flags {exp}: " + ", ".join(f"{k}={v}" for k, v in flags.items()))
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name, unit in ({**e2e_units, **units} if args.trace else units).items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"host steal share {steal:.3f}")
    if not args.trace:
        print(f"wall_s {wall:.6g} s")
        for name, value in experiment_s.items():
            if value:
                print(f"{name} {value:.6g} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
