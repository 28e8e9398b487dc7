"""Batch experiment runner: seeded, resumable, file-based workflows.

Each experiment writes per-cell CSV files (atomically, skipping cells that
already exist) plus a summary JSON embedding the config and library
version.  Reports are a pure function of (config, seed): replica r of
experiment E always uses the RNG substream (seed, E, cell, r), and rows
are emitted in replica order regardless of how many workers ran them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import stats

from . import __version__
from .disorder import BUFFER_MIN, DisorderLaw, couple, draw_base
from .geometry import hausdorff
from .gibbs import PinningModel, concentration_probability
from .polymer import PolymerEnvironment, polymer_beta_critical
from .renewal import build_law, renewal_function, tilt
from .streams import substream
from .subordinator import MarkedPointSet, band_process, edge_jump_times, edge_process, growth_check
from .varmax import EnergyLandscape, beta_critical, solve_dp

EXPERIMENTS = (
    "convergence",
    "concentration",
    "threshold-pinning",
    "threshold-polymer",
    "renewal-asymptotics",
    "subordinator-growth",
)


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    alpha: float = 0.5
    gamma: float = 0.5
    beta_hat: float = 1.0
    h: float = 0.5
    c: float = 1.0
    rho: float = 0.0
    k_inf: float = 0.3
    N_list: tuple[int, ...] = ()
    k_list: tuple[int, ...] = ()
    replicas: int = 0  # 0 = use the experiment's default
    seed: int = 0
    out_dir: str = "pinlab-out"
    delta: float = 0.1
    n_samples: int = 20_000
    n_eval: int = 2000
    n_max: int = 100_000
    q: float = 1.5
    t_lo: float = 1e-4
    t_hi: float = 1e-1
    t_points: int = 40

    def with_defaults(self) -> "ExperimentConfig":
        """Fill experiment-specific default grids where none were given."""
        defaults = {
            "convergence": {"N_list": (64, 256, 1024), "k_list": (256,), "replicas": 200},
            "concentration": {"N_list": (64, 128, 256, 512, 1024, 2048), "replicas": 1},
            "threshold-pinning": {"k_list": (128, 512), "replicas": 500},
            "threshold-polymer": {"k_list": (32, 128, 512), "replicas": 200},
            "renewal-asymptotics": {"replicas": 1},
            "subordinator-growth": {"k_list": (1000,), "replicas": 1000},
        }.get(self.experiment, {})
        updates = {}
        for key, val in defaults.items():
            if not getattr(self, key):
                updates[key] = val
        return dataclasses.replace(self, **updates) if updates else self

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; choose from {', '.join(EXPERIMENTS)}"
            )
        if not 0.0 < self.alpha < 1.0 and self.experiment != "threshold-polymer":
            raise ConfigError("disorder.DisorderLaw requires 0 < alpha < 1")
        if self.experiment == "threshold-polymer" and not 0.0 < self.alpha < 2.0:
            raise ConfigError("polymer.PolymerEnvironment requires 0 < alpha < 2")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("geometry.set_entropy requires 0 < gamma < 1")
        if self.beta_hat < 0.0:
            raise ConfigError("varmax.EnergyLandscape requires beta >= 0")
        if self.c <= 0.0:
            raise ConfigError("renewal.build_law requires c > 0")
        if not 0.0 <= self.k_inf < 1.0:
            raise ConfigError("renewal.build_law requires K_inf_target in [0,1)")
        if self.replicas < 1:
            raise ConfigError("replicas must be >= 1")
        if any(n < 2 for n in self.N_list):
            raise ConfigError("disorder.sample_coupled requires N >= 2")
        if any(k < 1 for k in self.k_list):
            raise ConfigError("disorder.sample_coupled requires k >= 1")
        if self.experiment == "concentration":
            if self.h <= 0.0:
                raise ConfigError("renewal.tilt requires h > 0 to terminate the renewal")
            if self.N_list and self.n_max < max(self.N_list):
                raise ConfigError("gibbs.log_partition requires the horizon within n_max")
        if self.n_samples < 1:
            raise ConfigError("gibbs.concentration_probability requires n_samples >= 1")
        if self.experiment == "renewal-asymptotics" and self.n_eval < 3:
            raise ConfigError("renewal.subexp_diagnostics requires n_eval >= 3")
        if self.experiment == "renewal-asymptotics" and self.n_eval + 1 > self.n_max:
            raise ConfigError("renewal.subexp_diagnostics requires n + k_shift <= n_max")
        if self.experiment == "subordinator-growth":
            if self.q <= 1.0:
                raise ConfigError("subordinator.growth_check requires q > 1")
            if not 0.0 < self.t_lo <= self.t_hi <= 0.1:
                raise ConfigError("subordinator.growth_check requires the grid in (0, 0.1]")


_LIST_KEYS = {"N_list", "k_list"}
_INT_KEYS = {"replicas", "seed", "n_samples", "n_eval", "n_max", "t_points"}
_STR_KEYS = {"experiment", "out_dir"}


def config_from_mapping(data: dict) -> ExperimentConfig:
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - fields
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "experiment" not in data:
        raise ConfigError("config must name an experiment")
    kwargs = {}
    for key, value in data.items():
        try:
            if key in _LIST_KEYS:
                if isinstance(value, str):
                    value = [v for v in value.replace(",", " ").split() if v]
                kwargs[key] = tuple(int(v) for v in value)
            elif key in _INT_KEYS:
                kwargs[key] = int(value)
            elif key in _STR_KEYS:
                kwargs[key] = str(value)
            else:
                kwargs[key] = float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    cfg = ExperimentConfig(**kwargs).with_defaults()
    cfg.validate()
    return cfg


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse a config file: a JSON object, or flat `key = value` lines."""
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("JSON config must be an object")
        return config_from_mapping(data)
    data = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        sep = "=" if "=" in line else (":" if ":" in line else None)
        if sep is None:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition(sep)
        data[key.strip()] = value.strip()
    return config_from_mapping(data)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    summary: dict
    cells: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# file plumbing


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_cell(path: str, header: list[str], rows: list[list]) -> None:
    """Atomic CSV write; concurrent reruns see either nothing or the full file."""
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(_fmt(v) for v in row) + "\n"
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_cell(path: str) -> list[list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [line.split(",") for line in lines[1:]]


def _ensure_cell(path: str, header: list[str], compute) -> list[list]:
    """Return the cell's rows, computing and writing them only if absent."""
    if os.path.exists(path):
        return _read_cell(path)
    rows = compute()
    _write_cell(path, header, rows)
    return [[_fmt(v) for v in row] for row in rows]


def _workers() -> int:
    env = os.environ.get("PINLAB_THREADS", "")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"PINLAB_THREADS must be an integer, got {env!r}") from None
    return max(1, os.cpu_count() or 1)


def _replica_map(fn, replicas: int) -> list:
    """Run fn(replica) for each replica, results in replica order."""
    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        return list(pool.map(fn, range(replicas)))


def _median_ci(values: np.ndarray, level: float = 0.95) -> tuple[float, float]:
    """Order-statistic confidence interval for the median."""
    x = np.sort(values)
    n = x.size
    lo_idx = stats.binom.ppf((1 - level) / 2, n, 0.5)
    hi_idx = stats.binom.ppf(1 - (1 - level) / 2, n, 0.5)
    lo = x[int(max(0, lo_idx))]
    hi = x[int(min(n - 1, hi_idx))]
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# experiments


def _run_convergence(cfg: ExperimentConfig, out: str) -> tuple[dict, list[str]]:
    law = DisorderLaw(cfg.alpha)
    k = cfg.k_list[0]
    cells = []
    medians = {}
    cis = {}

    def cell_rows(N: int) -> list[list]:
        def one(r: int) -> float:
            rng = substream(cfg.seed, "convergence", r)
            T, Y = draw_base(max(max(cfg.N_list), k, BUFFER_MIN), rng)
            ref_land = EnergyLandscape.from_marks(
                Y[:k], T[:k] ** (-1.0 / cfg.alpha), cfg.beta_hat, cfg.gamma
            )
            ref = solve_dp(ref_land).maximizer
            d = couple(law, T, Y, N, k)
            land = EnergyLandscape.from_marks(d.Y_disc, d.M_disc, cfg.beta_hat, cfg.gamma)
            sol = solve_dp(land)
            return hausdorff(sol.maximizer, ref)

        values = _replica_map(one, cfg.replicas)
        return [[N, r, v] for r, v in enumerate(values)]

    for N in cfg.N_list:
        path = os.path.join(out, f"convergence_N{N}.csv")
        rows = _ensure_cell(path, ["N", "replica", "d_H"], lambda N=N: cell_rows(N))
        cells.append(path)
        vals = np.array([float(r[2]) for r in rows])
        medians[str(N)] = float(np.median(vals))
        cis[str(N)] = _median_ci(vals)

    ordered = [medians[str(N)] for N in cfg.N_list]
    inversions = []
    for i in range(len(ordered) - 1):
        if ordered[i + 1] > ordered[i]:
            lo_next = cis[str(cfg.N_list[i + 1])][0]
            hi_prev = cis[str(cfg.N_list[i])][1]
            inversions.append({
                "from_N": cfg.N_list[i], "to_N": cfg.N_list[i + 1],
                "within_mc_error": bool(lo_next <= hi_prev),
            })
    summary = {
        "medians": medians,
        "median_ci95": {k_: list(v) for k_, v in cis.items()},
        "inversions": inversions,
        "monotone_ok": len(inversions) <= 1 and all(i["within_mc_error"] for i in inversions),
    }
    return summary, cells


def _run_concentration(cfg: ExperimentConfig, out: str) -> tuple[dict, list[str]]:
    law0 = build_law(cfg.gamma, cfg.c, cfg.rho, 0.0, n_max=cfg.n_max)
    terminating = tilt(law0, cfg.h)
    cells = []
    rows_all = []

    def cell_rows(N: int) -> list[list]:
        rng_dis = substream(cfg.seed, "concentration", "disorder")
        law = DisorderLaw(cfg.alpha)
        T, Y = draw_base(max(max(cfg.N_list), BUFFER_MIN), rng_dis)
        d = couple(law, T, Y, N, max(1, N - 1))
        omega = np.zeros(N - 1)
        slots = np.rint(d.Y_disc * N).astype(int)
        omega[slots - 1] = d.M_disc * d.b_N
        land = EnergyLandscape.from_marks(d.Y_disc, d.M_disc, cfg.beta_hat, cfg.gamma)
        ref = solve_dp(land).maximizer
        beta_bare = cfg.beta_hat * N**cfg.gamma / d.b_N
        model = PinningModel(law=terminating, omega=omega, beta=beta_bare, h=0.0, N=N)
        est = concentration_probability(
            model, ref, cfg.delta, cfg.n_samples, substream(cfg.seed, "concentration", N)
        )
        return [[N, est.n_samples, est.exceed, est.estimate, est.lo, est.hi]]

    header = ["N", "n_samples", "exceed", "p_hat", "wilson_lo", "wilson_hi"]
    for N in cfg.N_list:
        path = os.path.join(out, f"concentration_N{N}.csv")
        rows = _ensure_cell(path, header, lambda N=N: cell_rows(N))
        cells.append(path)
        rows_all.extend(rows)

    Ns = np.array([float(r[0]) for r in rows_all])
    p = np.array([float(r[3]) for r in rows_all])
    n_s = np.array([float(r[1]) for r in rows_all])
    p_eff = np.maximum(p, 0.5 / n_s)  # zero counts enter at half a count
    x = Ns**cfg.gamma
    summary = {"p_by_N": {str(int(N)): float(pp) for N, pp in zip(Ns, p)}}
    if len(x) >= 3:
        fit = stats.linregress(x, np.log(p_eff))
        tq = stats.t.ppf(0.975, len(x) - 2)
        ci = (float(fit.slope - tq * fit.stderr), float(fit.slope + tq * fit.stderr))
        summary.update({
            "slope": float(fit.slope),
            "stderr": float(fit.stderr),
            "slope_ci95": list(ci),
            "negative_at_95": bool(ci[1] < 0.0),
        })
    return summary, cells


def _run_threshold_pinning(cfg: ExperimentConfig, out: str) -> tuple[dict, list[str]]:
    cells = []
    per_k = {}

    def cell_rows(k: int) -> list[list]:
        def one(r: int) -> float:
            rng = substream(cfg.seed, "threshold-pinning", r)
            T, Y = draw_base(max(max(cfg.k_list), BUFFER_MIN), rng)
            return beta_critical(Y[:k], T[:k] ** (-1.0 / cfg.alpha), cfg.gamma)

        values = _replica_map(one, cfg.replicas)
        return [[k, r, v] for r, v in enumerate(values)]

    for k in cfg.k_list:
        path = os.path.join(out, f"threshold_pinning_k{k}.csv")
        rows = _ensure_cell(path, ["k", "replica", "beta_c"], lambda k=k: cell_rows(k))
        cells.append(path)
        per_k[k] = np.array([float(r[2]) for r in rows])

    summary = {"per_k": {}, "all_positive": True}
    for k, vals in per_k.items():
        summary["per_k"][str(k)] = {
            "min": float(vals.min()),
            "q25": float(np.percentile(vals, 25)),
            "median": float(np.median(vals)),
            "q75": float(np.percentile(vals, 75)),
            "p05": float(np.percentile(vals, 5)),
        }
        summary["all_positive"] &= bool(np.all(vals > 0.0))
    ks = sorted(per_k)
    if len(ks) >= 2:
        p05 = [summary["per_k"][str(k)]["p05"] for k in ks]
        summary["p05_rel_change"] = [
            abs(b - a) / a if a > 0 else math.inf for a, b in zip(p05, p05[1:])
        ]
    return summary, cells


def _run_threshold_polymer(cfg: ExperimentConfig, out: str) -> tuple[dict, list[str]]:
    cells = []
    per_k = {}

    def cell_rows(k: int) -> list[list]:
        def one(r: int) -> float:
            rng = substream(cfg.seed, "threshold-polymer", r)
            env = PolymerEnvironment.sample(cfg.alpha, max(cfg.k_list), rng)
            return polymer_beta_critical(env.truncate(k))

        values = _replica_map(one, cfg.replicas)
        return [[k, r, v] for r, v in enumerate(values)]

    for k in cfg.k_list:
        path = os.path.join(out, f"threshold_polymer_k{k}.csv")
        rows = _ensure_cell(path, ["k", "replica", "beta_c"], lambda k=k: cell_rows(k))
        cells.append(path)
        per_k[k] = np.array([float(r[2]) for r in rows])

    ks = sorted(per_k)
    medians = {str(k): float(np.median(per_k[k])) for k in ks}
    med = [medians[str(k)] for k in ks]
    summary = {
        "medians": medians,
        "median_rel_change": [abs(b - a) / a for a, b in zip(med, med[1:])],
        "strictly_decreasing": all(b < a for a, b in zip(med, med[1:])),
    }
    return summary, cells


def _run_renewal_asymptotics(cfg: ExperimentConfig, out: str) -> tuple[dict, list[str]]:
    law = build_law(cfg.gamma, cfg.c, cfg.rho, cfg.k_inf, n_max=cfg.n_max)
    n_eval = cfg.n_eval

    def cell_rows() -> list[list]:
        u = renewal_function(law, n_eval)
        q = law.q[1 : n_eval + 1]
        conv2 = np.convolve(q, q)
        conv3 = np.convolve(conv2[: n_eval + 1], q)
        rows = []
        for n in range(1, n_eval + 1):
            q2 = conv2[n - 2] if n >= 2 else 0.0
            q3 = conv3[n - 3] if n >= 3 else 0.0
            qn = q[n - 1]
            rows.append([
                n, law.K[n], u[n], u[n] / law.K[n], q2 / qn, q3 / qn,
            ])
        return rows

    path = os.path.join(out, "renewal_asymptotics.csv")
    header = ["n", "K", "u", "u_over_K", "q2_over_q", "q3_over_q"]
    rows = _ensure_cell(path, header, cell_rows)
    # the n = n_eval row already holds renewal.subexp_diagnostics' ratios, and
    # its repr-written floats read back exactly
    diag = dict(zip(("u_over_K", "conv2_ratio", "conv3_ratio"), map(float, rows[-1][3:])))
    diag["shift_ratio"] = float(law.q[n_eval + 1] / law.q[n_eval])
    target = 1.0 / law.K_inf**2 if law.K_inf > 0 else math.inf
    summary = {
        "n_eval": n_eval,
        "diagnostics": diag,
        "u_over_K_target": target,
        "u_over_K_rel_err": abs(diag["u_over_K"] - target) / target if math.isfinite(target) else None,
        "conv2_rel_err": abs(diag["conv2_ratio"] - 2.0) / 2.0,
    }
    return summary, [path]


def _run_subordinator_growth(cfg: ExperimentConfig, out: str) -> tuple[dict, list[str]]:
    k = cfg.k_list[0]
    coarse = np.geomspace(cfg.t_lo, cfg.t_hi, cfg.t_points)
    fine = np.geomspace(cfg.t_lo, cfg.t_hi, cfg.t_points * 10)
    inc_ts = (0.0, 1.0 / 16.0, 1.0 / 8.0)
    s = 1.0 / 32.0

    def one(r: int) -> list:
        rng = substream(cfg.seed, "subordinator-growth", r)
        T, Y = draw_base(k, rng)
        mps = MarkedPointSet(T ** (-1.0 / cfg.alpha), Y)
        jumps = edge_jump_times(mps)
        ev = lambda t: edge_process(mps, t)
        sup_c = growth_check(ev, cfg.alpha, cfg.q, coarse, jumps)
        sup_f = growth_check(ev, cfg.alpha, cfg.q, fine, jumps)
        env = PolymerEnvironment.sample(cfg.alpha, k, substream(cfg.seed, "subordinator-band", r))
        band = MarkedPointSet(env.w, np.column_stack([env.x, env.y]))
        wu_min = math.inf
        for t in np.linspace(0.0, 0.25, 11):
            U, W = band_process(band, float(t))
            wu_min = min(wu_min, W - U)
        incs = []
        for t0 in inc_ts:
            _, w1 = band_process(band, t0 + s)
            _, w0 = band_process(band, t0)
            incs.append(w1 - w0)
        return [r, sup_c, sup_f, wu_min] + incs

    path = os.path.join(out, "subordinator_growth.csv")
    header = ["replica", "sup_coarse", "sup_fine", "min_w_minus_u", "inc0", "inc1", "inc2"]
    rows = _ensure_cell(path, header, lambda: _replica_map(one, cfg.replicas))

    sup_c = np.array([float(r[1]) for r in rows])
    sup_f = np.array([float(r[2]) for r in rows])
    wu = np.array([float(r[3]) for r in rows])
    incs = np.array([[float(r[4]), float(r[5]), float(r[6])] for r in rows])
    p95_c = float(np.percentile(sup_c, 95))
    p95_f = float(np.percentile(sup_f, 95))
    homo = {}
    ok3 = True
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        dvals = incs[:, i] - incs[:, j]
        se = float(np.std(dvals, ddof=1) / math.sqrt(len(dvals)))
        z = float(np.mean(dvals) / se) if se > 0 else 0.0
        homo[f"t{i}_vs_t{j}"] = {"mean_diff": float(np.mean(dvals)), "se": se, "z": z}
        ok3 &= abs(z) <= 3.0
    summary = {
        "p95_coarse": p95_c,
        "p95_fine": p95_f,
        "refinement_ratio": p95_f / p95_c if p95_c > 0 else math.inf,
        "w_ge_u_ok": bool(np.all(wu >= 0.0)),
        "homogeneity": homo,
        "homogeneity_ok_3sigma": ok3,
    }
    return summary, [path]


_RUNNERS = {
    "convergence": _run_convergence,
    "concentration": _run_concentration,
    "threshold-pinning": _run_threshold_pinning,
    "threshold-polymer": _run_threshold_polymer,
    "renewal-asymptotics": _run_renewal_asymptotics,
    "subordinator-growth": _run_subordinator_growth,
}


def _config_key(cfg: ExperimentConfig) -> str:
    """Cells are keyed by everything but out_dir, so one directory can hold
    runs of several configs without stale-cell contamination."""
    d = dataclasses.asdict(cfg)
    d.pop("out_dir")
    return hashlib.sha1(json.dumps(d, sort_keys=True).encode()).hexdigest()[:12]


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run one experiment end to end, reusing any cells already on disk."""
    cfg = cfg.with_defaults()
    cfg.validate()
    out = os.path.join(cfg.out_dir, cfg.experiment, _config_key(cfg))
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    summary, cells = _RUNNERS[cfg.experiment](cfg, out)
    report = {
        "config": dataclasses.asdict(cfg),
        "version": __version__,
        "summary": summary,
    }
    payload = json.dumps(report, indent=2, sort_keys=True)
    fd, tmp = tempfile.mkstemp(dir=out, suffix=".tmp")
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")
    os.replace(tmp, os.path.join(out, "summary.json"))
    return ExperimentReport(config=cfg, summary=summary, cells=tuple(cells))
