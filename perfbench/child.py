"""One benchmark process, started by run.py with a JSON spec on stdin.

It imports pinlab from the checkout (its set-up), then does ``reps`` cold
runs of the workload's configs into ``out/`` under the current directory,
optionally under the span tracer, and prints one JSON result line.
Correctness checks and the resume reruns happen outside the timed sections.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback

import numpy as np
import scipy

#: Bisection stops once its bracket is narrower than this (varmax, polymer).
BISECT_TOL = 1e-9

HEADERS = {
    "convergence": ["N", "replica", "d_H"],
    "concentration": ["N", "n_samples", "exceed", "p_hat", "wilson_lo", "wilson_hi"],
    "threshold-pinning": ["k", "replica", "beta_c"],
    "threshold-polymer": ["k", "replica", "beta_c"],
    "renewal-asymptotics": ["n", "K", "u", "u_over_K", "q2_over_q", "q3_over_q"],
    "subordinator-growth": ["replica", "sup_coarse", "sup_fine", "min_w_minus_u",
                            "inc0", "inc1", "inc2"],
}

#: Summary entries that depend on the seed at benchmark sizes: reported, never failures.
FLAGS = ("monotone_ok", "negative_at_95", "all_positive", "strictly_decreasing",
         "w_ge_u_ok", "homogeneity_ok_3sigma")


def expected_cells(cfg) -> int:
    if cfg.experiment in ("convergence", "concentration"):
        return len(cfg.N_list)
    if cfg.experiment.startswith("threshold-"):
        return len(cfg.k_list)
    return 1


def output_files(root: str = "out") -> list[str]:
    """Every cell CSV and summary.json under root, in sorted path order."""
    return sorted(os.path.join(dirpath, n) for dirpath, _, names in os.walk(root)
                  for n in names if n.endswith(".csv") or n == "summary.json")


def output_digest(root: str = "out") -> str:
    """sha256 over the relative path and bytes of every output file."""
    h = hashlib.sha256()
    for path in output_files(root):
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def read_cell(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def check_rows(cfg, name: str, rows: list[list[float]]) -> list[str]:
    """Row count and value ranges of one cell."""
    exp = cfg.experiment
    want = {"concentration": 1, "renewal-asymptotics": cfg.n_eval}.get(exp, cfg.replicas)
    if len(rows) != want:
        return [f"{name}: {len(rows)} rows, expected {want}"]
    errs = []
    for i, r in enumerate(rows):
        if not all(math.isfinite(v) for v in r):
            errs.append(f"{name} row {i}: non-finite value")
        elif exp == "convergence" and not (r[1] == i and 0.0 <= r[2] <= 1.0):
            errs.append(f"{name} row {i}: d_H {r[2]} outside [0,1]")
        elif exp == "concentration" and not (
                r[1] == cfg.n_samples and 0 <= r[2] <= r[1] and r[3] == r[2] / r[1]
                and 0.0 <= r[4] <= r[3] <= r[5] <= 1.0):
            errs.append(f"{name}: Wilson interval [{r[4]}, {r[5]}] does not hold p_hat {r[3]}")
        elif exp.startswith("threshold-") and not (r[1] == i and r[2] >= 0.0):
            errs.append(f"{name} row {i}: beta_c {r[2]} negative")
        elif exp == "renewal-asymptotics" and not (r[0] == i + 1 and r[1] > 0.0 and 0.0 < r[2] <= 1.0):
            errs.append(f"{name} row {i}: u {r[2]} outside (0,1] or K {r[1]} <= 0")
        elif exp == "subordinator-growth" and not (r[0] == i and r[1] >= 0.0 and r[2] >= 0.0):
            errs.append(f"{name} row {i}: negative growth supremum")
    return errs


def rederive(cfg, k: int, r: int, method: str = "auto") -> float:
    """Recompute threshold replica r at size k through the public API."""
    import pinlab
    from pinlab.disorder import BUFFER_MIN
    from pinlab.streams import substream

    rng = substream(cfg.seed, cfg.experiment, r)
    if cfg.experiment == "threshold-pinning":
        T, Y = pinlab.draw_base(max(max(cfg.k_list), BUFFER_MIN), rng)
        return pinlab.beta_critical(Y[:k], T[:k] ** (-1.0 / cfg.alpha), cfg.gamma,
                                    method=method)
    env = pinlab.PolymerEnvironment.sample(cfg.alpha, max(cfg.k_list), rng)
    return pinlab.polymer_beta_critical(env.truncate(k), method=method)


def check_thresholds(cfg, k: int, rows: list[list[float]]) -> list[str]:
    """First and last replica: exact rederivation, bisection, and at small k
    the parametric DP against the enumerated cell value."""
    import pinlab

    errs = []
    name = f"{cfg.experiment} k={k}"
    for r in (0, len(rows) - 1):
        cell = rows[r][2]
        if rederive(cfg, k, r) != cell:
            errs.append(f"{name} replica {r}: rederived value differs from cell {cell!r}")
        bis = rederive(cfg, k, r, "bisect")
        if abs(bis - cell) > BISECT_TOL:
            errs.append(f"{name} replica {r}: bisect {bis!r} vs cell {cell!r}")
        if cfg.experiment == "threshold-pinning" and k <= pinlab.varmax.BRUTEFORCE_MAX:
            par = rederive(cfg, k, r, "parametric")
            if not math.isclose(par, cell, rel_tol=1e-12):
                errs.append(f"{name} replica {r}: parametric {par!r} vs enumerated {cell!r}")
    return errs


def check_outputs(cfg, cells: list[str]) -> tuple[dict, dict]:
    """Failure messages per cell path, plus the summary's statistical flags."""
    failures = {}
    for path in cells:
        name = os.path.basename(path)
        try:
            header, rows = read_cell(path)
            errs = [] if header == HEADERS[cfg.experiment] else [f"{name}: header {header}"]
            errs = errs or check_rows(cfg, name, rows)
            if not errs and cfg.experiment.startswith("threshold-"):
                errs = check_thresholds(cfg, int(rows[0][0]), rows)
        except Exception as exc:  # a malformed cell is a failed cell, not a crash
            errs = [f"{name}: {type(exc).__name__}: {exc}"]
        if errs:
            failures[path] = errs
    with open(os.path.join(os.path.dirname(cells[0]), "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)["summary"]
    flags = {k: summary[k] for k in FLAGS if k in summary}
    return failures, flags


def process_cpu() -> float:
    """User plus system CPU seconds of this process, all threads."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def versions() -> dict:
    import pinlab

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")
                    if deps[k].get(f) is not None} for k in ("blas", "lapack") if k in deps}
    except Exception as exc:  # show_config's layout is not a stable API
        blas = {"error": repr(exc)}
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "pinlab": pinlab.__version__, "blas": blas}


def cold_run(harness, configs) -> tuple[dict, dict]:
    """Run every config into an empty ./out; returns the rep's measurements
    and the cell paths of each config that finished."""
    shutil.rmtree("out", ignore_errors=True)
    cpu_s, cells, errors = {}, {}, []
    start, start_cpu = time.perf_counter(), process_cpu()
    for i, cfg in enumerate(configs):
        c0 = process_cpu()
        try:
            cells[i] = list(harness.run_experiment(cfg).cells)
        except Exception:
            errors.append(traceback.format_exc())
        cpu_s[cfg.experiment] = cpu_s.get(cfg.experiment, 0.0) + process_cpu() - c0
    rep = {
        "wall_s": time.perf_counter() - start,
        "cpu_s": process_cpu() - start_cpu,
        "experiment_cpu_s": cpu_s,
        "digest": output_digest(),
        "attempted": sum(expected_cells(c) for c in configs),
        "failed": sum(expected_cells(c) for i, c in enumerate(configs) if i not in cells),
        "errors": errors,
    }
    return rep, cells


def main() -> dict:
    spec = json.loads(sys.stdin.read())
    sys.path.insert(0, spec["src"])
    from pinlab import harness

    configs = [harness.config_from_mapping(dict(c, out_dir="out")) for c in spec["configs"]]
    result = {"ready": time.monotonic(), "setup_cpu_s": process_cpu(), "versions": versions()}
    tracer = None
    if spec.get("trace"):
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    result["reps"] = []
    for r in range(spec.get("reps", 1)):
        rep, cells = cold_run(harness, configs)
        result["reps"].append(rep)
        if r == 0:
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if r == 0 and spec.get("checks"):
            t = time.perf_counter()
            failures, flags = {}, {}
            for i, cfg_cells in cells.items():
                cfg = configs[i]
                f, flags[f"{cfg.experiment} seed {cfg.seed}"] = check_outputs(cfg, cfg_cells)
                failures.update(f)
            result["check_failures"] = failures
            result["flags"] = flags
            rep["failed"] += len(failures)
            result["checks_s"] = time.perf_counter() - t
    files = output_files()
    result["cells_written"] = sum(path.endswith(".csv") for path in files)
    result["bytes_written"] = sum(os.path.getsize(path) for path in files)

    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.dump(spec["spans_path"])
    if spec.get("resume_reps"):
        # Every cell is on disk now; a rerun only reads cells and rewrites summaries.
        times = []
        for _ in range(spec["resume_reps"]):
            t = time.perf_counter()
            for cfg in configs:
                harness.run_experiment(cfg)
            times.append(time.perf_counter() - t)
        result["resume_s"] = float(np.median(times))
        result["resume_digest"] = output_digest()
    return result


if __name__ == "__main__":
    print(json.dumps(main()))
