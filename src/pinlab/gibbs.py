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
        om = np.array(self.omega, dtype=float)
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if om.shape != (self.N - 1,):
            raise ValueError(f"omega must have length N-1 = {self.N - 1}")
        if not np.all(np.isfinite(om)):
            raise ValueError("omega must be finite")
        if not np.all(om >= 0.0):
            raise ValueError("omega must be nonnegative")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not self.beta >= 0.0:
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


def _logsumexp(a: np.ndarray) -> np.float64:
    """scipy.special.logsumexp of a 1-d float array, in place: a is overwritten.

    The maxima are split off and counted, the rest is shifted by the maximum
    a_max and exponentiated in place, and the sum is log1p(s) + a_max.  With
    one maximum this is scipy's log1p(s / 1) + log(1) + a_max exactly; with
    tied maxima it takes scipy's steps, s / count and log(count).  A
    non-finite result returns a_max, which is scipy's fallback
    log(sum(exp(a))): with a_max finite there is no nan (argmax would pick
    it), every shifted entry is at most 0, and log1p(s) + log(count), about
    log(len(a)) at most, cannot carry a_max past the largest double.  So a
    non-finite result has a_max nan, where the fallback is nan, +inf, where
    it is +inf, or -inf with every entry -inf, where it is log(0) = -inf.
    Call it under np.errstate(all="ignore") for scipy's silence on -inf and
    nan rows.
    """
    i = a.argmax()
    a_max = a[i]
    top = a == a_max
    cnt = np.count_nonzero(top)
    a[i if cnt == 1 else top] = -np.inf
    a -= a_max
    s = np.exp(a, out=a).sum()
    if cnt == 1:
        out = np.log1p(s) + a_max
    else:
        if s != 0:
            s = s / np.float64(cnt)
        out = np.log1p(s) + np.log(np.float64(cnt)) + a_max
    return out if math.isfinite(out) else a_max


def forward_table(model: PinningModel) -> np.ndarray:
    """log Z_0..log Z_N where Z_n sums path weights of bridges ending at n.

    Z_0 = 1; interior Z_n carry the site weight at n, the endpoint N does
    not (the energy runs over n = 1..N-1 only).  Row n is _logsumexp of
    logZ[:n] + rev[N - n:], with rev = log K(N..1) reversed once per model,
    formed in one scratch buffer that the kernel overwrites.
    """
    N = model.N
    if N > model.law.n_max:
        raise ValueError(f"horizon N={N} exceeds law support n_max={model.law.n_max}")
    rev = np.log(model.law.K[1 : N + 1])[::-1].copy()  # rev[N-n:] is log K(n..1)
    site = model.site_log_weights.tolist() + [0.0]
    logZ = np.empty(N + 1)
    logZ[0] = 0.0
    buf = np.empty(N)
    # each row needs every row before it, so the loop over n stays
    with np.errstate(all="ignore"):
        for n in range(1, N + 1):
            logZ[n] = _logsumexp(np.add(logZ[:n], rev[N - n:], out=buf[:n])) + site[n - 1]
    return logZ


def set_log_weight(model: PinningModel, indices) -> float:
    """Unnormalized log weight of a configuration, given as its index
    sequence 0 < ... < N: renewal prior + site terms.

    A gap outside the law support carries K = 0 and yields -inf.
    """
    idx = tuple(indices)
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


def _backward_cdf(table: np.ndarray, rev: np.ndarray, n: int) -> np.ndarray:
    """CDF over the point m < n before n, P(m) proportional to Z_m * K(n-m),
    read from rev = log K(N..1) as forward_table reads it, rev[N - n:].

    Built with the arithmetic of Generator.choice(n, p=p): normalize p,
    cumsum, then divide by the last entry.
    """
    logits = table[:n] + rev[rev.size - n:]
    p = np.exp(logits - logits.max())
    total = p.sum()
    if not total >= 1.0:  # the largest term is exp(0) = 1, so only nan fails
        raise ValueError("backward probabilities contain NaN")
    p /= total
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


#: Draws per backward sweep in concentration_probability, each block scored
#: by one grid_hausdorff call.
SCORE_BLOCK = 1024


def backward_sweep(model: PinningModel, table: np.ndarray, rng: np.random.Generator,
                   count: int) -> list[tuple[int, ...]]:
    """Indices 0..N of `count` exact, independent draws, given table = forward_table(model).

    From n, the previous point is m with probability proportional to
    Z_m * K(n-m); iterating down to 0 gives an exact draw, because each Z_m
    already accounts for everything left of m.  Every draw starts at N.  The
    sweep visits in descending order only the rows n at which some draw
    sits, builds row n's CDF once, and moves the k draws at n with one
    rng.random(k), each uniform mapped as Generator.choice(n, p=p) maps it.
    So uniforms go to (draw, step) pairs by rows descending and, within a
    row, by ascending draw index.  Each step takes a fresh uniform, so the
    draws are exact and i.i.d.; with one draw the order is rng.choice's step
    by step.  No row outlives its visit.  count = 0 gives [] and draws no uniform.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rev = np.log(model.law.K[1 : model.N + 1])[::-1].copy()
    pos = np.full(count, model.N)
    paths = [[model.N] for _ in range(count)]
    n = model.N if count else 0
    while n > 0:
        at = np.flatnonzero(pos == n)
        to = _backward_cdf(table, rev, n).searchsorted(rng.random(at.size), side="right")
        pos[at] = to
        for i, m in zip(at.tolist(), to.tolist()):
            paths[i].append(m)
        n = int(pos.max())
    return [tuple(reversed(path)) for path in paths]


def exact_sample(model: PinningModel, rng: np.random.Generator) -> tuple[int, ...]:
    """Indices 0..N of one exact draw from the pinned Gibbs measure (see backward_sweep)."""
    (indices,) = backward_sweep(model, forward_table(model), rng, 1)
    return indices


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
    """95% Wilson score interval for a binomial proportion; exactly 0.0 and
    1.0 at no and at n successes, its exact ends, which rounding misses."""
    z = _Z95
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return (0.0 if successes == 0 else center - half), (1.0 if successes == n else center + half)


def concentration_probability(model: PinningModel, ref: PinnedSet, delta: float,
                              n_samples: int, rng: np.random.Generator) -> ConcentrationEstimate:
    """Estimate P(d_H(I, ref) > delta) under the model by exact sampling.

    One forward table serves every draw.  Draws come SCORE_BLOCK at a time
    from one backward_sweep each, which builds each CDF row it visits once,
    and each block is scored by grid_hausdorff: memory stays independent of
    n_samples, and each draw gets hausdorff's distance.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    table = forward_table(model)
    exceed = 0
    for done in range(0, n_samples, SCORE_BLOCK):
        sets = backward_sweep(model, table, rng, min(SCORE_BLOCK, n_samples - done))
        exceed += int(np.count_nonzero(grid_hausdorff(sets, model.N, ref) > delta))
    lo, hi = wilson_interval(exceed, n_samples)
    return ConcentrationEstimate(exceed / n_samples, lo, hi, exceed, n_samples)
