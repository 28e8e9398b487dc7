"""Batch experiment runner: seeded, resumable, file-based workflows.

The experiments are one table, SPECS, keyed by name.  Each entry holds a
description, the default grids, the config keys it reads (other fields but
seed and out_dir keep their defaults), cells(cfg) and summarize(cfg, tables).
cells(cfg) lists every CSV cell as (file name, header, row count, compute),
where compute() returns the cell's columns.  run_experiment is the only cell
loop: it reuses each well-formed cell on disk, computes and atomically
writes the others, hands summarize the cells' float columns by header name,
and atomically writes a summary JSON embedding the config and library version.
Reports are a pure function of (config, seed): replica r of experiment E
always uses the RNG substream (seed, E, cell, r), and replicas run one
after another in replica order.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import math
import os
import tempfile
import typing
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import numpy.ma  # np.median loads it on first call; load it with pinlab, not in a run

from . import __version__
from .disorder import BUFFER_MIN, DisorderLaw, compute_b_N, couple, draw_base
from .geometry import hausdorff
from .gibbs import PinningModel, concentration_probability
from .polymer import PolymerEnvironment, polymer_beta_critical
from .renewal import build_law, ratio_table, tilt
from .streams import substream
from .subordinator import (
    MarkedPointSet, band_process, edge_evaluator, edge_jump_times, growth_check,
)
from .varmax import EnergyLandscape, beta_critical, solve_dp

log = logging.getLogger(__name__)


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

    def __post_init__(self):
        # -0.0 reads as 0.0 everywhere but in json.dumps, which would key it apart
        for key, kind in typing.get_type_hints(ExperimentConfig).items():
            if kind is float and getattr(self, key) == 0.0:
                object.__setattr__(self, key, abs(getattr(self, key)))

    def with_defaults(self) -> "ExperimentConfig":
        """Fill experiment-specific default grids where none were given."""
        spec = SPECS.get(self.experiment)
        updates = {key: val for key, val in (spec.defaults.items() if spec else ())
                   if not getattr(self, key)}
        return dataclasses.replace(self, **updates) if updates else self

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; choose from {', '.join(EXPERIMENTS)}"
            )
        kinds = typing.get_type_hints(ExperimentConfig)
        for key, kind in kinds.items():
            if kind is float and not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)!r}")
        # an unread field keeps its default, as repr writes it, so it cannot move _config_key
        default = ExperimentConfig(self.experiment).with_defaults()
        for key in sorted(kinds.keys() - {*SPECS[self.experiment].keys, "seed", "out_dir"}):
            want = getattr(default, key)
            if repr(getattr(self, key)) != repr(want):
                raise ConfigError(f"{self.experiment} does not read {key}: keep it at {want!r}")
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
        if self.replicas < (2 if self.experiment == "subordinator-growth" else 1):
            raise ConfigError("replicas must be >= 1, and >= 2 for subordinator-growth's z-scores")
        if any(n < 2 for n in self.N_list):
            raise ConfigError("disorder.sample_coupled requires N >= 2")
        if any(k < 1 for k in self.k_list):
            raise ConfigError("k_list sizes must be >= 1")
        for key in ("N_list", "k_list"):
            sizes = getattr(self, key)
            if any(b <= a for a, b in zip(sizes, sizes[1:])):
                raise ConfigError(f"{key} must be strictly increasing, got {list(sizes)}")
        if self.experiment in ("convergence", "subordinator-growth") and len(self.k_list) != 1:
            raise ConfigError(f"{self.experiment} takes exactly one k, got {list(self.k_list)}")
        if not 0.0 <= self.delta < 0.5:
            raise ConfigError("delta must lie in [0, 1/2): d_H between sets holding 0 and 1 "
                              "is at most 1/2")
        if self.h <= 0.0:
            raise ConfigError("renewal.tilt requires h > 0 to terminate the renewal")
        if self.experiment in ("convergence", "concentration") and self.N_list:
            try:
                compute_b_N(DisorderLaw(self.alpha), max(self.N_list))
            except OverflowError:
                raise ConfigError(f"alpha = {self.alpha!r} is too small: the scale "
                                  f"N^(1/alpha) overflows at N = {max(self.N_list)}") from None
        if self.experiment == "concentration" and self.N_list and self.n_max < max(self.N_list):
            raise ConfigError("gibbs.log_partition requires the horizon within n_max")
        if self.n_samples < 1:
            raise ConfigError("gibbs.concentration_probability requires n_samples >= 1")
        if self.n_eval < 3:
            raise ConfigError("renewal.subexp_diagnostics requires n_eval >= 3")
        if self.experiment == "renewal-asymptotics" and self.n_eval + 1 > self.n_max:
            raise ConfigError("renewal.subexp_diagnostics requires n_eval + 1 <= n_max")
        if self.experiment == "subordinator-growth":
            if not 0.0 < self.t_lo <= self.t_hi:
                raise ConfigError("subordinator.growth_check requires 0 < t_lo <= t_hi")
            try:
                for grid in _growth_grids(self):
                    growth_check(lambda t: 0.0, self.alpha, self.q, grid)
            except ValueError as exc:
                raise ConfigError(f"subordinator.growth_check rejected the grids: {exc}") from exc
        if self.experiment in ("renewal-asymptotics", "concentration"):
            try:
                _renewal_law(self)
            except ValueError as exc:
                raise ConfigError(f"renewal law rejected: {exc}") from exc


def _coerce(kind: type, value):
    """value as kind; a bool is not a number, and an int takes no fraction."""
    if isinstance(value, bool) and kind is not str:
        raise TypeError(f"{value!r} is not a number")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return kind(value)


def config_from_mapping(data: dict) -> ExperimentConfig:
    """Build and validate a config, coercing each value to its field's
    annotated type; a tuple field also takes a comma- or space-separated
    string.  Booleans and non-integral numbers for int fields are rejected."""
    kinds = typing.get_type_hints(ExperimentConfig)
    unknown = set(data) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "experiment" not in data:
        raise ConfigError("config must name an experiment")
    kwargs = {}
    for key, value in data.items():
        kind = kinds[key]
        try:
            if typing.get_origin(kind) is tuple:
                if isinstance(value, str):
                    value = value.replace(",", " ").split()
                kwargs[key] = tuple(_coerce(typing.get_args(kind)[0], v) for v in value)
            else:
                kwargs[key] = _coerce(kind, value)
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
        try:
            return parse_config_text(fh.read())
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not UTF-8 text: {exc}") from exc


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    summary: dict
    cells: tuple[str, ...] = ()


#: One CSV cell of an experiment; compute() returns its columns.
Cell = namedtuple("Cell", "name header rows compute")
#: One experiment; keys name the config fields it reads besides experiment and
#: seed, and summarize(cfg, tables) reads cells(cfg)'s float columns by header.
#: schema is the cell-schema version, raised by any change that may alter the
#: experiment's cell bytes, so cells of older code are never reused.
Spec = namedtuple("Spec", "description defaults keys cells summarize schema", defaults=(0,))


# ---------------------------------------------------------------------------
# file plumbing


def _write_atomic(path: str, text: str) -> None:
    """Write text to path atomically: concurrent reruns see either the old
    file or the full new one, and a failed write leaves no temporary file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _ensure_cell(path: str, cell: Cell) -> dict:
    """Return the cell's float columns by header name, computing and writing
    the cell only if it is absent or malformed.  A cell on disk is reused only
    with the expected header and row count, every row of the header's width
    and every value a float; repr-written floats read back exactly.  A computed
    column is written as repr over its array's tolist() (str of an int, repr
    of a float) and returned as float without a parse-back."""
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
        if (rows[:1] == [cell.header] and len(rows) == cell.rows + 1
                and all(len(r) == len(cell.header) for r in rows)):
            try:
                return {h: np.array([float(v) for v in col])
                        for h, col in zip(cell.header, zip(*rows[1:]))}
            except ValueError:
                pass
        log.warning("recomputing malformed cell %s", path)
    columns = [np.asarray(col) for col in cell.compute()]
    rows = zip(*(map(repr, col.tolist()) for col in columns))
    _write_atomic(path, "\n".join([",".join(cell.header), *map(",".join, rows)]) + "\n")
    return {h: col.astype(float, copy=False) for h, col in zip(cell.header, columns)}


def _replica_cells(cfg: ExperimentConfig, stem: str, header: list[str], sizes, one) -> list[Cell]:
    """One cell per size of a one-value-per-replica experiment, with the rows
    (size, replica, one(size, replica))."""
    n = cfg.replicas
    return [Cell(f"{stem}{s}.csv", header, n,
                 lambda s=s: [[s] * n, range(n), [one(s, r) for r in range(n)]])
            for s in sizes]


@functools.lru_cache(maxsize=4)
def _law(gamma: float, c: float, rho: float, k_inf: float, n_max: int):
    """renewal.build_law, built once per parameter set (its K is read-only)."""
    return build_law(gamma, c, rho, k_inf, n_max=n_max)


def _renewal_law(cfg: ExperimentConfig):
    """The law a renewal-based experiment runs on: concentration tilts the
    proper law by h into a terminating one, renewal-asymptotics keeps the
    atom k_inf."""
    if cfg.experiment == "concentration":
        return tilt(_law(cfg.gamma, cfg.c, cfg.rho, 0.0, cfg.n_max), cfg.h)
    return _law(cfg.gamma, cfg.c, cfg.rho, cfg.k_inf, cfg.n_max)


_UNDERFLOW = "alpha = {!r} is too small: a weight T^(-1/alpha) underflows to 0"


def _marks(T: np.ndarray, alpha: float) -> np.ndarray:
    """The weights T^(-1/alpha) of increasing arrival times T.  They decrease,
    and none may underflow to 0, which no kernel accepts as a weight; as T
    is random, validate cannot see this, so the run stops here instead."""
    w = T ** (-1.0 / alpha)
    if w[-1] == 0.0:
        raise ConfigError(_UNDERFLOW.format(alpha))
    return w


def _environment(alpha: float, k: int, rng: np.random.Generator) -> PolymerEnvironment:
    """PolymerEnvironment.sample, which rejects a charge weight T^(-1/alpha)
    that underflows to 0, its only failure at a valid alpha."""
    try:
        return PolymerEnvironment.sample(alpha, k, rng)
    except ValueError as exc:
        raise ConfigError(f"{_UNDERFLOW.format(alpha)} ({exc})") from None


def _binom_half_ppf(q: float, n: int) -> int:
    """The q-quantile of Bin(n, 1/2): the smallest k with P(X <= k) >= q,
    decided exactly in integers as sum_{j<=k} C(n, j) * den >= num * 2^n for
    q = num/den."""
    num, den = q.as_integer_ratio()
    target = num << n
    cdf, coef = 0, 1  # coef = C(n, k)
    for k in range(n):
        cdf += coef * den
        if cdf >= target:
            return k
        coef = coef * (n - k) // (k + 1)
    return n


def _median_ci(values: np.ndarray, level: float = 0.95) -> tuple[float, float]:
    """Order-statistic confidence interval for the median."""
    x = np.sort(values)
    n = x.size
    lo = x[_binom_half_ppf((1 - level) / 2, n)]
    hi = x[min(n - 1, _binom_half_ppf(1 - (1 - level) / 2, n))]
    return float(lo), float(hi)


#: repr of scipy.stats.t.ppf(0.975, df) for df = 1..30.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378,
)


def _t975(df: int) -> float:
    """The 0.975 quantile of Student's t with df degrees of freedom."""
    if df <= len(_T975):
        return _T975[df - 1]
    from scipy.special import stdtrit  # only for fits of more than 32 points

    return float(stdtrit(df, 0.975))


def _defined(x: float) -> float | None:
    """x as a float, or None (JSON null) where it is nan or infinite."""
    return float(x) if math.isfinite(x) else None


def _slope_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and its standard error, in scipy.stats.linregress's
    steps and floats (needs at least three points)."""
    if np.amax(x) == np.amin(x):
        raise ValueError("Cannot calculate a linear regression if all x values are identical")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = ssxym / np.sqrt(ssxm * ssym)
        r = 1.0 if r > 1.0 else -1.0 if r < -1.0 else r
    return ssxym / ssxm, np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2))


# ---------------------------------------------------------------------------
# experiments


def _convergence_cells(cfg: ExperimentConfig) -> list[Cell]:
    law = DisorderLaw(cfg.alpha)
    k = cfg.k_list[0]
    refs = {}  # replica -> continuum maximizer, which does not depend on N

    def one(N: int, r: int) -> float:
        rng = substream(cfg.seed, "convergence", r)
        T, Y = draw_base(max(max(cfg.N_list), k, BUFFER_MIN), rng)
        if r not in refs:
            ref_land = EnergyLandscape.from_marks(
                Y[:k], _marks(T[:k], cfg.alpha), cfg.beta_hat, cfg.gamma, cfg.c
            )
            refs[r] = solve_dp(ref_land).maximizer
        d = couple(law, T, Y, N)
        land = EnergyLandscape.from_marks(d.Y_disc, d.M_disc, cfg.beta_hat, cfg.gamma, cfg.c)
        return hausdorff(solve_dp(land).maximizer, refs[r])

    return _replica_cells(cfg, "convergence_N", ["N", "replica", "d_H"], cfg.N_list, one)


def _convergence_summary(cfg: ExperimentConfig, tables: list[dict]) -> dict:
    medians = {}
    cis = {}
    for N, t in zip(cfg.N_list, tables):
        medians[str(N)] = float(np.median(t["d_H"]))
        cis[str(N)] = _median_ci(t["d_H"])
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
    return {
        "medians": medians,
        "median_ci95": {k_: list(v) for k_, v in cis.items()},
        "inversions": inversions,
        "monotone_ok": len(inversions) <= 1 and all(i["within_mc_error"] for i in inversions),
    }


def _concentration_cells(cfg: ExperimentConfig) -> list[Cell]:
    terminating = _renewal_law(cfg)

    def columns(N: int) -> list:
        rng_dis = substream(cfg.seed, "concentration", "disorder")
        law = DisorderLaw(cfg.alpha)
        T, Y = draw_base(max(max(cfg.N_list), BUFFER_MIN), rng_dis)
        d = couple(law, T, Y, N)
        omega = np.zeros(N - 1)
        slots = np.rint(d.Y_disc * N).astype(int)
        omega[slots - 1] = d.M_disc * d.b_N
        land = EnergyLandscape.from_marks(d.Y_disc, d.M_disc, cfg.beta_hat, cfg.gamma, cfg.c)
        ref = solve_dp(land).maximizer
        beta_bare = cfg.beta_hat * N**cfg.gamma / d.b_N
        model = PinningModel(law=terminating, omega=omega, beta=beta_bare, N=N)
        est = concentration_probability(
            model, ref, cfg.delta, cfg.n_samples, substream(cfg.seed, "concentration", N)
        )
        return [[v] for v in (N, est.n_samples, est.exceed, est.estimate, est.lo, est.hi)]

    header = ["N", "n_samples", "exceed", "p_hat", "wilson_lo", "wilson_hi"]
    return [Cell(f"concentration_N{N}.csv", header, 1, lambda N=N: columns(N))
            for N in cfg.N_list]


def _concentration_summary(cfg: ExperimentConfig, tables: list[dict]) -> dict:
    Ns, n_s, p = (np.concatenate([t[h] for t in tables]) for h in ("N", "n_samples", "p_hat"))
    p_eff = np.maximum(p, 0.5 / n_s)  # zero counts enter at half a count
    x = Ns**cfg.gamma
    summary = {"p_by_N": {str(int(N)): float(pp) for N, pp in zip(Ns, p)}}
    if len(x) >= 3:
        slope, stderr = _slope_fit(x, np.log(p_eff))
        tq = _t975(len(x) - 2)
        ci = (float(slope - tq * stderr), float(slope + tq * stderr))
        summary.update({
            "slope": float(slope),
            "stderr": _defined(stderr),
            "slope_ci95": [_defined(v) for v in ci],
            "negative_at_95": bool(ci[1] < 0.0),
        })
    return summary


def _threshold_pinning_cells(cfg: ExperimentConfig) -> list[Cell]:
    def one(k: int, r: int) -> float:
        rng = substream(cfg.seed, "threshold-pinning", r)
        T, Y = draw_base(max(max(cfg.k_list), BUFFER_MIN), rng)
        return beta_critical(Y[:k], _marks(T[:k], cfg.alpha), cfg.gamma, cfg.c)

    return _replica_cells(cfg, "threshold_pinning_k", ["k", "replica", "beta_c"], cfg.k_list, one)


def _threshold_pinning_summary(cfg: ExperimentConfig, tables: list[dict]) -> dict:
    per_k = {k: t["beta_c"] for k, t in zip(cfg.k_list, tables)}
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
            abs(b - a) / a if a > 0 else None for a, b in zip(p05, p05[1:])
        ]
    return summary


def _threshold_polymer_cells(cfg: ExperimentConfig) -> list[Cell]:
    def one(k: int, r: int) -> float:
        rng = substream(cfg.seed, "threshold-polymer", r)
        env = _environment(cfg.alpha, max(cfg.k_list), rng)
        return polymer_beta_critical(env.truncate(k))

    return _replica_cells(cfg, "threshold_polymer_k", ["k", "replica", "beta_c"], cfg.k_list, one)


def _threshold_polymer_summary(cfg: ExperimentConfig, tables: list[dict]) -> dict:
    per_k = {k: t["beta_c"] for k, t in zip(cfg.k_list, tables)}
    ks = sorted(per_k)
    medians = {str(k): float(np.median(per_k[k])) for k in ks}
    med = [medians[str(k)] for k in ks]
    return {
        "medians": medians,
        "median_rel_change": [abs(b - a) / a for a, b in zip(med, med[1:])],
        "strictly_decreasing": all(b < a for a, b in zip(med, med[1:])),
    }


def _renewal_cells(cfg: ExperimentConfig) -> list[Cell]:
    n = cfg.n_eval
    header = ["n", "K", "u", "u_over_K", "q2_over_q", "q3_over_q"]
    return [Cell("renewal_asymptotics.csv", header, n,
                 lambda: [range(1, n + 1), *ratio_table(_renewal_law(cfg), n)])]


def _renewal_summary(cfg: ExperimentConfig, tables: list[dict]) -> dict:
    law = _renewal_law(cfg)
    n_eval = cfg.n_eval
    # the n = n_eval row holds renewal.subexp_diagnostics' ratios
    (t,) = tables
    diag = {
        "u_over_K": float(t["u_over_K"][-1]),
        "conv2_ratio": float(t["q2_over_q"][-1]),
        "conv3_ratio": float(t["q3_over_q"][-1]),
        "shift_ratio": float(law.q[n_eval + 1] / law.q[n_eval]),
    }
    target = 1.0 / law.K_inf**2 if law.K_inf**2 > 0 else math.inf  # inf below K_inf ~ 1e-154
    return {
        "n_eval": n_eval,
        "diagnostics": diag,
        "u_over_K_target": _defined(target),
        "u_over_K_rel_err": _defined(abs(diag["u_over_K"] - target) / target),
        "conv2_rel_err": abs(diag["conv2_ratio"] - 2.0) / 2.0,
    }


def _growth_grids(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """subordinator-growth's coarse grid and the one ten times finer."""
    return (np.geomspace(cfg.t_lo, cfg.t_hi, cfg.t_points),
            np.geomspace(cfg.t_lo, cfg.t_hi, cfg.t_points * 10))


def _subordinator_cells(cfg: ExperimentConfig) -> list[Cell]:
    k = cfg.k_list[0]
    coarse, fine = _growth_grids(cfg)
    inc_ts = (0.0, 1.0 / 16.0, 1.0 / 8.0)
    s = 1.0 / 32.0

    def one(r: int) -> list:
        rng = substream(cfg.seed, "subordinator-growth", r)
        T, Y = draw_base(k, rng)
        mps = MarkedPointSet(_marks(T, cfg.alpha), Y)
        jumps = edge_jump_times(mps)
        ev = edge_evaluator(mps)  # shared by both grids
        sup_c = growth_check(ev, cfg.alpha, cfg.q, coarse, jumps)
        sup_f = growth_check(ev, cfg.alpha, cfg.q, fine, jumps)
        env = _environment(cfg.alpha, k, substream(cfg.seed, "subordinator-band", r))
        wu_min = math.inf
        for t in np.linspace(0.0, 0.25, 11):
            U, W = band_process(env, float(t))
            wu_min = min(wu_min, W - U)
        incs = []
        for t0 in inc_ts:
            _, w1 = band_process(env, t0 + s)
            _, w0 = band_process(env, t0)
            incs.append(w1 - w0)
        return [r, sup_c, sup_f, wu_min] + incs

    header = ["replica", "sup_coarse", "sup_fine", "min_w_minus_u", "inc0", "inc1", "inc2"]
    return [Cell("subordinator_growth.csv", header, cfg.replicas,
                 lambda: zip(*map(one, range(cfg.replicas))))]


def _subordinator_summary(cfg: ExperimentConfig, tables: list[dict]) -> dict:
    (t,) = tables
    p95_c = float(np.percentile(t["sup_coarse"], 95))
    p95_f = float(np.percentile(t["sup_fine"], 95))
    homo = {}
    ok3 = True
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        dvals = t[f"inc{i}"] - t[f"inc{j}"]
        se = float(np.std(dvals, ddof=1) / math.sqrt(len(dvals)))
        z = float(np.mean(dvals) / se) if se > 0 else 0.0
        homo[f"t{i}_vs_t{j}"] = {"mean_diff": float(np.mean(dvals)), "se": se, "z": z}
        ok3 &= abs(z) <= 3.0
    return {
        "p95_coarse": p95_c,
        "p95_fine": p95_f,
        "refinement_ratio": p95_f / p95_c if p95_c > 0 else None,
        "w_ge_u_ok": bool(np.all(t["min_w_minus_u"] >= 0.0)),
        "homogeneity": homo,
        "homogeneity_ok_3sigma": ok3,
    }


SPECS = {
    "convergence": Spec(
        "coupled discrete maximizers vs the truncated continuum one",
        {"N_list": (64, 256, 1024), "k_list": (256,), "replicas": 200},
        ("N_list", "alpha", "beta_hat", "c", "gamma", "k_list", "replicas"),
        _convergence_cells, _convergence_summary),
    "concentration": Spec(
        "Gibbs exceedance probability of the favorite set vs N",
        {"N_list": (64, 128, 256, 512, 1024, 2048), "replicas": 1},
        ("N_list", "alpha", "beta_hat", "c", "delta", "gamma", "h", "n_max", "n_samples", "rho"),
        _concentration_cells, _concentration_summary),
    "threshold-pinning": Spec(
        "distribution of the pinning critical coupling over realizations",
        {"k_list": (128, 512), "replicas": 500},
        ("alpha", "c", "gamma", "k_list", "replicas"),
        _threshold_pinning_cells, _threshold_pinning_summary),
    "threshold-polymer": Spec(
        "distribution of the polymer critical coupling over environments",
        {"k_list": (32, 128, 512), "replicas": 200},
        ("alpha", "k_list", "replicas"),
        _threshold_polymer_cells, _threshold_polymer_summary),
    "renewal-asymptotics": Spec(
        "renewal-function and convolution-ratio diagnostics",
        {"replicas": 1},
        ("c", "gamma", "k_inf", "n_eval", "n_max", "rho"),
        _renewal_cells, _renewal_summary, schema=1),
    "subordinator-growth": Spec(
        "growth envelopes and band-process checks",
        {"k_list": (1000,), "replicas": 1000},
        ("alpha", "k_list", "q", "replicas", "t_hi", "t_lo", "t_points"),
        _subordinator_cells, _subordinator_summary),
}
EXPERIMENTS = tuple(SPECS)


def _config_key(cfg: ExperimentConfig) -> str:
    """Cells are keyed by everything but out_dir, so one directory can hold
    runs of several configs without stale-cell contamination, and by the
    experiment's schema version, so cells written by older code are not
    reused.  Version 0 adds nothing to the key, which keeps the directory
    names from before versions existed."""
    d = dataclasses.asdict(cfg)
    d.pop("out_dir")
    if SPECS[cfg.experiment].schema:
        d["schema"] = SPECS[cfg.experiment].schema
    return hashlib.sha1(json.dumps(d, sort_keys=True).encode()).hexdigest()[:12]


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run one experiment end to end, reusing any cells already on disk."""
    cfg = cfg.with_defaults()
    cfg.validate()
    spec = SPECS[cfg.experiment]
    out = os.path.join(cfg.out_dir, cfg.experiment, _config_key(cfg))
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    cells = [(os.path.join(out, cell.name), cell) for cell in spec.cells(cfg)]
    summary = spec.summarize(cfg, [_ensure_cell(path, cell) for path, cell in cells])
    report = {
        "config": dataclasses.asdict(cfg),
        "version": __version__,
        "summary": summary,
    }
    _write_atomic(os.path.join(out, "summary.json"),
                  json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return ExperimentReport(config=cfg, summary=summary, cells=tuple(path for path, _ in cells))
