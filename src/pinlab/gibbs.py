"""Pinning Gibbs measure on the rescaled zero set.

Exact log-space partition function by forward recursion, exact backward
sampling of the pinned configuration, and Monte Carlo estimation of
concentration probabilities with Wilson intervals.  All arithmetic is in
log space: site weights exp(beta*omega) overflow doubles for heavy-tailed
omega long before the recursion becomes expensive.  A reward h enters as
renewal.tilt(law, h): the measure of site weights exp(beta*omega - h), log Z less h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PinnedSet, grid_hausdorff
from .renewal import RenewalLaw


@dataclass(frozen=True)
class PinningModel:
    """Renewal bridge over {0,1/N,...,1} reweighted by exp(beta*omega_n)."""

    law: RenewalLaw
    omega: np.ndarray
    beta: float
    N: int

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float)
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if om.shape != (self.N - 1,):
            raise ValueError(f"omega must have length N-1 = {self.N - 1}")
        if not np.all(np.isfinite(om)):
            raise ValueError("omega must be finite")
        if np.any(om < 0.0):
            raise ValueError("omega must be nonnegative")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        om.setflags(write=False)
        object.__setattr__(self, "omega", om)
        with np.errstate(over="ignore"):
            finite = np.all(np.isfinite(self.site_log_weights))
        if not finite:
            raise ValueError("site log-weights beta*omega overflow; they must be finite")

    @property
    def site_log_weights(self) -> np.ndarray:
        """Per-site log factor beta*omega_n at interior sites n=1..N-1."""
        return self.beta * self.omega


@dataclass(frozen=True)
class GibbsSample:
    """Grid-aligned pinned configuration, stored as indices n with point n/N."""

    indices: tuple[int, ...]
    N: int

    def __post_init__(self):
        if not self.indices or self.indices[0] != 0 or self.indices[-1] != self.N:
            raise ValueError("a sample must contain both endpoints 0 and N")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("indices must be strictly increasing")

    @property
    def set(self) -> PinnedSet:
        return PinnedSet(np.asarray(self.indices, dtype=float) / self.N)


def _logsumexp(a: np.ndarray) -> np.float64:
    """scipy.special.logsumexp of a 1-d float array, step for step.

    The maxima are split off and counted, the rest is summed shifted, and
    a non-finite result falls back to log(sum(exp(a))), as scipy does; the
    floats are scipy's, without its array-API dispatch.  Call it under
    np.errstate(all="ignore") for scipy's silence on -inf and nan rows.
    """
    a_max = a.max()
    top = a == a_max
    cnt = np.float64(np.count_nonzero(top))
    s = np.exp(np.where(top, -np.inf, a) - a_max).sum()
    if s != 0:
        s = s / cnt
    out = np.log1p(s) + np.log(cnt) + a_max
    if not np.isfinite(out):
        out = np.log(np.exp(a).sum())
    return out


def _log_kernel(model: PinningModel) -> np.ndarray:
    """log K(0..N), with log K(0) = -inf."""
    N = model.N
    logK = np.full(N + 1, -np.inf)
    logK[1:] = np.log(model.law.K[1 : N + 1])
    return logK


def forward_table(model: PinningModel) -> np.ndarray:
    """log Z_0..log Z_N where Z_n sums path weights of bridges ending at n.

    Z_0 = 1; interior Z_n carry the site weight at n, the endpoint N does
    not (the energy runs over n = 1..N-1 only).
    """
    N = model.N
    if N > model.law.n_max:
        raise ValueError(f"horizon N={N} exceeds law support n_max={model.law.n_max}")
    logK = _log_kernel(model)
    site = model.site_log_weights
    logZ = np.empty(N + 1)
    logZ[0] = 0.0
    # each row needs every row before it, so the loop over n stays
    with np.errstate(all="ignore"):
        for n in range(1, N + 1):
            inner = _logsumexp(logZ[:n] + logK[n:0:-1])
            logZ[n] = inner + (site[n - 1] if n < N else 0.0)
    return logZ


def log_partition(model: PinningModel) -> float:
    """log of the partition function (the normalizer over bridges)."""
    return float(forward_table(model)[model.N])


def set_log_weight(model: PinningModel, sample) -> float:
    """Unnormalized log weight of a configuration: renewal prior + site terms.

    A gap outside the law support carries K = 0 and yields -inf.
    """
    idx = sample.indices if isinstance(sample, GibbsSample) else tuple(sample)
    if not idx or idx[0] != 0 or idx[-1] != model.N:
        raise ValueError("configuration must contain 0 and N")
    gaps = np.diff(np.asarray(idx))
    if np.any(gaps <= 0):
        raise ValueError("indices must be strictly increasing")
    if np.any(gaps > model.law.n_max):
        return -math.inf
    out = float(np.sum(np.log(model.law.K[gaps])))
    site = model.site_log_weights
    interior = np.asarray(idx[1:-1], dtype=int)
    if interior.size:
        out += float(np.sum(site[interior - 1]))
    return out


def _backward_cdf(table: np.ndarray, logK: np.ndarray, n: int) -> np.ndarray:
    """CDF over the point m < n before n, P(m) proportional to Z_m * K(n-m).

    Built with the arithmetic of Generator.choice(n, p=p): normalize p,
    cumsum, then divide by the last entry.
    """
    logits = table[:n] + logK[n:0:-1]
    p = np.exp(logits - logits.max())
    total = p.sum()
    if not total >= 1.0:  # the largest term is exp(0) = 1, so only nan fails
        raise ValueError("backward probabilities contain NaN")
    p /= total
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


#: Floats of backward CDF rows below row N that one sampler keeps (512 KiB).
ROW_BUDGET = 1 << 16
#: Draws scored per grid_hausdorff call in concentration_probability.
SCORE_BLOCK = 1024


class ExactSampler:
    """Exact draws from one model's pinned Gibbs measure by backward decomposition.

    From n, the previous point is m with probability proportional to
    Z_m * K(n-m); iterating down to 0 gives an exact draw because each Z_m
    already accounts for everything left of m.  Every draw starts from the
    CDF of row N.  A row n < N is kept in ``rows`` if its n floats still fit
    in ROW_BUDGET; none is ever evicted, so the rows of the first draws stay
    and a row first built after the budget is spent is rebuilt at each
    visit.  A kept row is the array a rebuild would give, so keeping rows
    changes no draw.
    """

    def __init__(self, model: PinningModel, table: np.ndarray | None = None):
        self._table = forward_table(model) if table is None else table
        self._logK = _log_kernel(model)
        self._cdf_N = _backward_cdf(self._table, self._logK, model.N)
        self.rows: dict[int, np.ndarray] = {}
        self._free = ROW_BUDGET

    def draws(self, rng: np.random.Generator, count: int) -> list[tuple[int, ...]]:
        """Indices 0..N of `count` successive draws.

        One uniform per step, mapped as Generator.choice maps it, so the
        draws and the generator's state match rng.choice(n, p=p) step by step.
        """
        table, logK, rows, random = self._table, self._logK, self.rows, rng.random
        out = []
        for _ in range(count):
            points = [table.size - 1]
            cdf = self._cdf_N
            while True:
                n = int(cdf.searchsorted(random(), side="right"))
                points.append(n)
                if n == 0:
                    break
                cdf = rows.get(n)
                if cdf is None:
                    cdf = _backward_cdf(table, logK, n)
                    if n <= self._free:
                        rows[n] = cdf
                        self._free -= n
            out.append(tuple(reversed(points)))
        return out


def exact_sample(model: PinningModel, rng: np.random.Generator,
                 table: np.ndarray | None = None) -> GibbsSample:
    """One exact draw from the pinned Gibbs measure (see ExactSampler)."""
    (indices,) = ExactSampler(model, table).draws(rng, 1)
    return GibbsSample(indices=indices, N=model.N)


def enumerate_distribution(model: PinningModel) -> dict[tuple[int, ...], float]:
    """Exact probabilities of every configuration (exponential in N; N <= 20)."""
    N = model.N
    if N > 20:
        raise ValueError("full enumeration is capped at N = 20")
    logw = {}
    for mask in range(1 << (N - 1)):
        idx = (0,) + tuple(i + 1 for i in range(N - 1) if mask >> i & 1) + (N,)
        logw[idx] = set_log_weight(model, idx)
    with np.errstate(all="ignore"):
        norm = _logsumexp(np.array(list(logw.values())))
    return {idx: math.exp(lw - norm) for idx, lw in logw.items()}


@dataclass(frozen=True)
class ConcentrationEstimate:
    """Monte Carlo exceedance frequency with a 95% Wilson score interval."""

    estimate: float
    lo: float
    hi: float
    exceed: int
    n_samples: int


_Z95 = 1.959963984540054


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = _Z95
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def concentration_probability(model: PinningModel, ref: PinnedSet, delta: float,
                              n_samples: int, rng: np.random.Generator,
                              table: np.ndarray | None = None) -> ConcentrationEstimate:
    """Estimate P(d_H(I, ref) > delta) under the model by exact sampling.

    One ExactSampler serves every draw, so the CDF rows below N that fit in
    ROW_BUDGET floats (2^16, 512 KiB) are built once per call; the first
    rows built are kept and none is evicted.  Draws are scored SCORE_BLOCK
    at a time by grid_hausdorff, which keeps memory independent of
    n_samples and gives each draw the distance hausdorff would give.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    sampler = ExactSampler(model, table)
    exceed = 0
    for done in range(0, n_samples, SCORE_BLOCK):
        sets = sampler.draws(rng, min(SCORE_BLOCK, n_samples - done))
        exceed += int(np.count_nonzero(grid_hausdorff(sets, model.N, ref) > delta))
    lo, hi = wilson_interval(exceed, n_samples)
    return ConcentrationEstimate(exceed / n_samples, lo, hi, exceed, n_samples)
