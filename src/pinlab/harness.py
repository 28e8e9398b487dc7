"""Batch experiment runner: seeded, resumable, file-based workflows.

The experiments are one table, SPECS, keyed by name.  Each entry holds a
description, the default grids, the config keys it reads (other fields but
seed and out_dir keep their defaults), cells(cfg) and summarize(cfg, tables).
cells(cfg, present) lists every CSV cell as (file name, header, row count,
compute), where compute() returns the cell's columns and present(cell) tells
whether a well-formed copy of a cell is on disk.  run_experiment is the only
cell loop: it reuses each well-formed cell on disk, computes and atomically
writes the others, hands summarize the cells' float columns by header name,
and atomically writes a summary JSON embedding the config and library version.
Reports are a pure function of (config, seed): replica r of experiment E
always draws from the RNG substreams keyed by (seed, E, r), once for all
the sizes of the config, and replicas run one after another in replica
order, each over every size before the next starts.  A config takes its
experiment's default grids when it is built; validate rejects bad input
before anything is allocated, and a weight T^(-1/alpha) that a kernel
rejects, which only the run can see, stops the run with a ConfigError as
well.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import itertools
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
from .disorder import (
    BUFFER_MIN,
    DisorderLaw,
    _assign_grid,
    compute_b_N,
    couple,
    draw_base,
    rescaled_maxima,
)
from .geometry import hausdorff
from .gibbs import K_FLOOR, PinningModel, concentration_probability
from .polymer import PolymerEnvironment, polymer_beta_critical
from .renewal import build_law, ratio_table, tilt
from .streams import substream
from .subordinator import MarkedPointSet, band_process, growth_check
from .varmax import EnergyLandscape, beta_critical, grid_ranks, pinned_set, solve_dp

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


# Bounds that validate puts on sizes a run would otherwise fail to allocate.
SIZE_MAX = 2**22  # N and k: 4x past the paper-scale N = 2^20 and k = 10^6
# threshold-polymer's cost table holds kept^2/2 floats over the charges the
# tent bound keeps, and at alpha = 0.3 it keeps nearly all of them (14180 of
# k = 2^14 seen, an 875 MB peak): k^2/2 floats, 1 GiB at the cap
POLYMER_K_MAX = 2**14
REPLICAS_MAX = 10**6  # a cell row per replica: 1000x the largest default


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

    def __post_init__(self):
        # -0.0 reads as 0.0 everywhere but in json.dumps, which would key it apart
        for key, kind in _KINDS.items():
            if kind is float and getattr(self, key) == 0.0:
                object.__setattr__(self, key, abs(getattr(self, key)))
        # an unset grid (empty, or 0 replicas) takes the experiment's default
        spec = SPECS.get(self.experiment)
        for key, val in (spec.defaults.items() if spec else ()):
            if not getattr(self, key):
                object.__setattr__(self, key, val)

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; choose from {', '.join(EXPERIMENTS)}"
            )
        for key, kind in _KINDS.items():
            if kind is float and not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)!r}")
        # an unread field keeps its default, as repr writes it: _config_key does not hash it
        default = ExperimentConfig(self.experiment)
        for key in sorted(_KINDS.keys() - {*SPECS[self.experiment].keys, "seed", "out_dir"}):
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
        least = 2 if self.experiment == "subordinator-growth" else 1
        if not least <= self.replicas <= REPLICAS_MAX:
            raise ConfigError(f"replicas must lie in [1, {REPLICAS_MAX}], and be >= 2 for "
                              "subordinator-growth's z-scores")
        if any(n < 2 for n in self.N_list):
            raise ConfigError("disorder.couple requires N >= 2")
        if any(k < 1 for k in self.k_list):
            raise ConfigError("k_list sizes must be >= 1")
        size_max = POLYMER_K_MAX if self.experiment == "threshold-polymer" else SIZE_MAX
        if any(size > size_max for size in (*self.N_list, *self.k_list)):
            raise ConfigError(f"{self.experiment} takes sizes up to {size_max}")
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
            raise ConfigError("gibbs.forward_table requires the horizon within n_max")
        if self.n_samples < 1:
            raise ConfigError("gibbs.concentration_probability requires n_samples >= 1")
        if self.n_eval < 3:
            raise ConfigError("renewal.ratio_table requires n_eval >= 3")
        if self.experiment == "renewal-asymptotics" and self.n_eval + 1 > self.n_max:
            raise ConfigError("the renewal summary reads q(n_eval + 1), so n_eval + 1 <= n_max")
        if self.experiment == "subordinator-growth":
            try:  # no marks: this checks only q, t_lo, t_hi and the envelope
                growth_check(MarkedPointSet(np.empty(0), np.empty(0)),
                             self.alpha, self.q, self.t_lo, self.t_hi)
            except ValueError as exc:
                raise ConfigError(f"subordinator.growth_check rejected the config: {exc}") from exc
        if self.experiment in ("renewal-asymptotics", "concentration"):
            try:
                law = _renewal_law(self)
            except ValueError as exc:
                raise ConfigError(f"renewal law rejected: {exc}") from exc
        if self.experiment == "concentration" and law.K[1 : max(self.N_list) + 1].min() < K_FLOOR:
            raise ConfigError("gibbs.PinningModel requires K(j) >= 2^-969 for j <= N; "
                              "lower c or the largest N")


#: Each config field's annotated type, read once: get_type_hints evaluates
#: the string annotations anew on every call.
_KINDS = typing.get_type_hints(ExperimentConfig)


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
    unknown = set(data) - set(_KINDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "experiment" not in data:
        raise ConfigError("config must name an experiment")
    kwargs = {}
    for key, value in data.items():
        kind = _KINDS[key]
        try:
            if typing.get_origin(kind) is tuple:
                if isinstance(value, str):
                    value = value.replace(",", " ").split()
                kwargs[key] = tuple(_coerce(typing.get_args(kind)[0], v) for v in value)
            else:
                kwargs[key] = _coerce(kind, value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    cfg = ExperimentConfig(**kwargs)
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
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key = value")
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
#: seed, and summarize(cfg, tables) reads cells(cfg, present)'s float columns
#: by header.  Only the replica ladders (_replica_cells) read present: cells
#: computed together compute only those missing from disk.
#: schema is the cell-schema version, raised by any change that may alter the
#: experiment's cell bytes, so cells of older code are never reused.
Spec = namedtuple("Spec", "description defaults keys cells summarize schema", defaults=(0,))


# ---------------------------------------------------------------------------
# file plumbing


#: Rows of a cell formatted or parsed at a time, so a cell's text is never
#: held whole: a write or a resume holds the cell's float columns and one
#: block's strings.
_CELL_BLOCK = 1024


def _write_atomic(path: str, chunks: typing.Iterable[str]) -> None:
    """Write the concatenated chunks to path atomically: concurrent reruns
    see either the old file or the full new one, and a failed write, also
    one that fails while the chunks are being produced, leaves no temporary
    file and the old file as it was."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell_text(header: list[str], columns: list[np.ndarray]) -> typing.Iterator[str]:
    """The header line, then the rows _CELL_BLOCK at a time, each value as
    repr over its column's tolist() (str of an int, repr of a float) and
    every line ended by a newline."""
    yield ",".join(header) + "\n"
    for r0 in range(0, len(columns[0]), _CELL_BLOCK):
        rows = zip(*(map(repr, col[r0 : r0 + _CELL_BLOCK].tolist()) for col in columns))
        yield "".join([",".join(row) + "\n" for row in rows])


def _read_cell(path: str, cell: Cell) -> dict | None:
    """The float columns of the cell on disk by header name, or None unless
    the file is UTF-8 with the expected header and row count, every row of
    the header's width and every value a finite float.  Lines are those of
    str.splitlines over the whole text read with universal newlines: no \\r
    is left, so each newline-ended line splits on its own.  The rows are
    parsed by float() _CELL_BLOCK at a time into preallocated columns."""
    cols = np.empty((len(cell.header), cell.rows))
    r0 = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = (part for line in fh for part in line.splitlines())
            if next(lines, "").split(",") != cell.header:
                return None
            while rows := [line.split(",") for line in itertools.islice(lines, _CELL_BLOCK)]:
                r1 = r0 + len(rows)
                if r1 > cell.rows or any(len(row) != len(cell.header) for row in rows):
                    return None
                for col, values in zip(cols, zip(*rows)):
                    col[r0:r1] = [float(v) for v in values]
                if not np.isfinite(cols[:, r0:r1]).all():
                    return None
                r0 = r1
    except ValueError:  # a value that is not a float, or bytes that are not UTF-8
        return None
    return dict(zip(cell.header, cols)) if r0 == cell.rows else None


def _ensure_cell(path: str, cell: Cell) -> dict:
    """Return the cell's float columns by header name, computing and writing
    the cell only if it is absent or malformed (_read_cell); repr-written
    floats read back exactly.  A computed cell is streamed to disk
    _CELL_BLOCK rows at a time (_cell_text) and its columns are returned as
    float without a parse-back, so neither a write nor a resume holds the
    cell's text whole."""
    if os.path.exists(path):
        cols = _read_cell(path, cell)
        if cols is not None:
            return cols
        log.warning("recomputing malformed cell %s", path)
    columns = [np.asarray(col) for col in cell.compute()]
    _write_atomic(path, _cell_text(cell.header, columns))
    return {h: col.astype(float, copy=False) for h, col in zip(cell.header, columns)}


def _replica_cells(cfg: ExperimentConfig, stem: str, header: list[str], sizes, one,
                   present) -> list[Cell]:
    """One cell per size of a one-value-per-replica experiment, with the rows
    (size, replica, value).  one(r, ks) returns replica r's values at the
    sizes ks, in size order, and draws replica r's randomness once for all
    of them.  The first cell that is not on disk computes the replicas x
    sizes table, in replica order, over its own size and every size whose
    cell present(cell) does not find on disk (all sizes when present is
    None), and keeps the columns for those cells; a cell on disk is read,
    never recomputed."""
    n = cfg.replicas
    columns = {}

    def compute(i: int) -> list:
        if i not in columns:
            todo = [j for j, cell in enumerate(cells)
                    if j == i or present is None or not present(cell)]
            table = np.array([one(r, [sizes[j] for j in todo]) for r in range(n)], dtype=float)
            columns.update(zip(todo, table.reshape(n, len(todo)).T))
        return [[sizes[i]] * n, range(n), columns.pop(i)]

    cells = [Cell(f"{stem}{s}.csv", header, n, functools.partial(compute, i))
             for i, s in enumerate(sizes)]
    return cells


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


@contextlib.contextmanager
def _too_small(alpha: float):
    """Turn a ValueError from a block that takes the weights T^(-1/alpha)
    into a ConfigError naming alpha.  At a small alpha a weight underflows
    to 0 or overflows to inf, which every kernel taking weights rejects; T
    is random, so validate cannot see it.  At a config validate accepted,
    nothing else there raises: the sizes and shape parameters are checked,
    and positions are uniform draws in [0, 1) (one at 0 or two equal has
    probability below k^2 2^-53)."""
    try:
        with np.errstate(over="ignore"):
            yield
    except ValueError as exc:
        raise ConfigError(f"alpha = {alpha!r} is too small: a weight T^(-1/alpha) "
                          f"underflows to 0 or overflows to inf ({exc})") from None


def _binom_half_ppf(q: float, n: int) -> int:
    """The q-quantile of Bin(n, 1/2): the smallest k with P(X <= k) >= q.

    The CDF is formed in floats from C(n, j) / C(n, n // 2), products of the
    ratios (j + 1) / (n - j) outward from the centre, so nothing overflows.
    Each term takes at most n + 1 roundings, each prefix sum n more, and the
    normalization by the full sum one; the far tails that underflow add less
    than 2^-1000.  So every float value is within a relative 5 (n + 1) 2^-53
    of the CDF, and within tol = 8 (n + 1) 2^-53 with room for the
    comparisons' own roundings.  A k whose value clears q by tol, while its
    predecessor's falls short by tol, is the answer.  Otherwise q lies within
    tol of a CDF value, and the exact integer decision, sum_{j<=k} C(n, j) *
    den >= num * 2^n for q = num/den, decides: a loop on n-bit integers,
    quadratic in n.
    """
    m = n // 2
    left = np.arange(m - 1, -1, -1, dtype=float)  # C(n, j) = C(n, j + 1) (j + 1) / (n - j)
    right = np.arange(m + 1, n + 1, dtype=float)  # C(n, j) = C(n, j - 1) (n - j + 1) / j
    cdf = np.concatenate((np.cumprod((left + 1) / (n - left))[::-1], [1.0],
                          np.cumprod((n - right + 1) / right))).cumsum()
    cdf /= cdf[-1]
    k = int(cdf.searchsorted(q))
    tol = 8 * (n + 1) * 2.0**-53
    if cdf[k] - tol >= q and (k == 0 or cdf[k - 1] + tol < q):
        return k
    num, den = q.as_integer_ratio()
    target = num << n
    cdf, coef = 0, 1  # coef = C(n, k)
    for k in range(n):
        cdf += coef * den
        if cdf >= target:
            return k
        coef = coef * (n - k) // (k + 1)
    return n


def _median_ci(values: np.ndarray) -> tuple[float, float]:
    """Order-statistic 95% confidence interval for the median."""
    x = np.sort(values)
    n, tail = x.size, (1 - 0.95) / 2  # the mass outside it on either side
    lo = x[_binom_half_ppf(tail, n)]
    hi = x[min(n - 1, _binom_half_ppf(1 - tail, n))]
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


def _convergence_cells(cfg: ExperimentConfig, present=None) -> list[Cell]:
    """d_H between the size-N maximizer and the continuum one over the k
    leading marks.  The size-N landscape holds only the R leading ranks
    that varmax.grid_ranks keeps, with their grid slots; solve_dp on it
    returns the maximizer over all N - 1 ranks (proof there), so only R
    slots are assigned."""
    k = cfg.k_list[0]
    law = DisorderLaw(cfg.alpha)

    def one(r: int, Ns: list[int]) -> list[float]:
        rng = substream(cfg.seed, "convergence", r)
        T, Y = draw_base(max(max(cfg.N_list), k, BUFFER_MIN), rng)
        with _too_small(cfg.alpha):
            ref_land = EnergyLandscape.from_marks(
                Y[:k], T[:k] ** (-1.0 / cfg.alpha), cfg.beta_hat, cfg.gamma, cfg.c
            )
        ref = pinned_set(ref_land, solve_dp(ref_land))
        out = []
        for N in Ns:
            with _too_small(cfg.alpha):
                M = rescaled_maxima(law, T, N)
                R = grid_ranks(M, cfg.beta_hat, cfg.gamma, cfg.c, N)
                land = EnergyLandscape.from_marks(_assign_grid(Y, N, R) / float(N), M[:R],
                                                  cfg.beta_hat, cfg.gamma, cfg.c)
            out.append(hausdorff(pinned_set(land, solve_dp(land)), ref))
        return out

    return _replica_cells(cfg, "convergence_N", ["N", "replica", "d_H"], cfg.N_list, one,
                          present)


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


def _concentration_cells(cfg: ExperimentConfig, present=None) -> list[Cell]:
    terminating = _renewal_law(cfg)

    @functools.cache
    def base() -> tuple[np.ndarray, np.ndarray]:  # one disorder for every N, drawn once
        return draw_base(max(max(cfg.N_list), BUFFER_MIN),
                         substream(cfg.seed, "concentration", "disorder"))

    def columns(N: int) -> list:
        T, Y = base()
        with _too_small(cfg.alpha):
            d = couple(DisorderLaw(cfg.alpha), T, Y, N)
            land = EnergyLandscape.from_marks(d.Y_disc, d.M_disc, cfg.beta_hat, cfg.gamma, cfg.c)
        ref = pinned_set(land, solve_dp(land))
        beta_bare = cfg.beta_hat * N**cfg.gamma / d.b_N
        model = PinningModel(law=terminating, omega=d.omega, beta=beta_bare, N=N)
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


def _threshold_pinning_cells(cfg: ExperimentConfig, present=None) -> list[Cell]:
    def one(r: int, ks: list[int]) -> list[float]:
        rng = substream(cfg.seed, "threshold-pinning", r)
        T, Y = draw_base(max(max(cfg.k_list), BUFFER_MIN), rng)
        with _too_small(cfg.alpha):
            return [beta_critical(Y[:k], T[:k] ** (-1.0 / cfg.alpha), cfg.gamma, cfg.c)
                    for k in ks]

    return _replica_cells(cfg, "threshold_pinning_k", ["k", "replica", "beta_c"], cfg.k_list, one,
                          present)


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


def _threshold_polymer_cells(cfg: ExperimentConfig, present=None) -> list[Cell]:
    def one(r: int, ks: list[int]) -> list[float]:
        rng = substream(cfg.seed, "threshold-polymer", r)
        with _too_small(cfg.alpha):
            env = PolymerEnvironment.sample(cfg.alpha, max(cfg.k_list), rng)
        return [polymer_beta_critical(env.truncate(k)) for k in ks]

    return _replica_cells(cfg, "threshold_polymer_k", ["k", "replica", "beta_c"], cfg.k_list, one,
                          present)


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


def _renewal_cells(cfg: ExperimentConfig, present=None) -> list[Cell]:
    n = cfg.n_eval
    header = ["n", "K", "u", "u_over_K", "q2_over_q", "q3_over_q"]
    return [Cell("renewal_asymptotics.csv", header, n,
                 lambda: [range(1, n + 1), *ratio_table(_renewal_law(cfg), n)])]


def _renewal_summary(cfg: ExperimentConfig, tables: list[dict]) -> dict:
    law = _renewal_law(cfg)
    n_eval = cfg.n_eval
    # the n = n_eval row holds renewal.subexp_diagnostics' ratios
    (t,) = tables
    q_n, q_next = law.q(n_eval, n_eval + 2)
    diag = {
        "u_over_K": float(t["u_over_K"][-1]),
        "conv2_ratio": float(t["q2_over_q"][-1]),
        "conv3_ratio": float(t["q3_over_q"][-1]),
        "shift_ratio": float(q_next / q_n),
    }
    target = 1.0 / law.K_inf**2 if law.K_inf**2 > 0 else math.inf  # inf below K_inf ~ 1e-154
    return {
        "n_eval": n_eval,
        "diagnostics": diag,
        "u_over_K_target": _defined(target),
        "u_over_K_rel_err": _defined(abs(diag["u_over_K"] - target) / target),
        "conv2_rel_err": abs(diag["conv2_ratio"] - 2.0) / 2.0,
    }


def _subordinator_cells(cfg: ExperimentConfig, present=None) -> list[Cell]:
    """sup_coarse and sup_fine both hold the growth supremum over
    [t_lo, t_hi]; the header stays as readers of the cell format pin it.
    The band process is read in one call per replica, at the 11 grid times
    of min_w_minus_u, then at t0 + 1/32 and at t0 for the increments."""
    k = cfg.k_list[0]
    inc_ts = np.array([0.0, 1.0 / 16.0, 1.0 / 8.0])
    ts = np.concatenate((np.linspace(0.0, 0.25, 11), inc_ts + 1.0 / 32.0, inc_ts))

    def one(r: int) -> list:
        rng = substream(cfg.seed, "subordinator-growth", r)
        T, Y = draw_base(k, rng)
        with _too_small(cfg.alpha):
            points = MarkedPointSet(T ** (-1.0 / cfg.alpha), Y)
            env = PolymerEnvironment.sample(cfg.alpha, k,
                                            substream(cfg.seed, "subordinator-band", r))
        sup = growth_check(points, cfg.alpha, cfg.q, cfg.t_lo, cfg.t_hi)
        U, W = band_process(env, ts)
        return [r, sup, sup, float((W[:11] - U[:11]).min()), *(W[11:14] - W[14:]).tolist()]

    header = ["replica", "sup_coarse", "sup_fine", "min_w_minus_u", "inc0", "inc1", "inc2"]
    return [Cell("subordinator_growth.csv", header, cfg.replicas,
                 lambda: zip(*map(one, range(cfg.replicas))))]


def _subordinator_summary(cfg: ExperimentConfig, tables: list[dict]) -> dict:
    (t,) = tables
    homo = {}
    ok3 = True
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        dvals = t[f"inc{i}"] - t[f"inc{j}"]
        se = float(np.std(dvals, ddof=1) / math.sqrt(len(dvals)))
        z = float(np.mean(dvals) / se) if se > 0 else 0.0
        homo[f"t{i}_vs_t{j}"] = {"mean_diff": float(np.mean(dvals)), "se": se, "z": z}
        ok3 &= abs(z) <= 3.0
    return {
        "p95_coarse": float(np.percentile(t["sup_coarse"], 95)),
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
        _concentration_cells, _concentration_summary, schema=3),
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
        _renewal_cells, _renewal_summary, schema=3),
    "subordinator-growth": Spec(
        "growth envelopes and band-process checks",
        {"k_list": (1000,), "replicas": 1000},
        ("alpha", "k_list", "q", "replicas", "t_hi", "t_lo"),
        _subordinator_cells, _subordinator_summary, schema=2),
}
EXPERIMENTS = tuple(SPECS)


def _config_key(cfg: ExperimentConfig) -> str:
    """Cells are keyed by the experiment, the seed and the keys it reads
    (validate holds every other field at its default), so one directory can
    hold runs of several configs without stale-cell contamination, and by
    the experiment's schema version, so cells written by older code are not
    reused."""
    spec = SPECS[cfg.experiment]
    d = {key: getattr(cfg, key) for key in ("experiment", "seed", *spec.keys)}
    d["schema"] = spec.schema
    return hashlib.sha1(json.dumps(d, sort_keys=True).encode()).hexdigest()[:12]


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run one experiment end to end, reusing any cells already on disk."""
    cfg.validate()
    spec = SPECS[cfg.experiment]
    out = os.path.join(cfg.out_dir, cfg.experiment, _config_key(cfg))
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc

    def present(cell: Cell) -> bool:
        path = os.path.join(out, cell.name)
        return os.path.exists(path) and _read_cell(path, cell) is not None

    cells = [(os.path.join(out, cell.name), cell) for cell in spec.cells(cfg, present)]
    summary = spec.summarize(cfg, [_ensure_cell(path, cell) for path, cell in cells])
    report = {
        "config": dataclasses.asdict(cfg),
        "version": __version__,
        "summary": summary,
    }
    _write_atomic(os.path.join(out, "summary.json"),
                  [json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"])
    return ExperimentReport(config=cfg, summary=summary, cells=tuple(path for path, _ in cells))
