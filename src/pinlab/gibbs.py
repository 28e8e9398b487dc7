"""Pinning Gibbs measure on the rescaled zero set.

Log-space partition function by a blocked forward recursion, exact
backward sampling of the pinned configuration, and Monte Carlo estimation
of concentration probabilities with Wilson intervals.  The forward table
runs in blocks of B rows: a row sums only its block's terms, and each
finished block folds into every later row with one convolution; the table
is within a proved bound of the exact log Z (forward_table), under two
conditions PinningModel checks.  The partition function is kept in logs:
site weights exp(beta*omega) overflow doubles for heavy-tailed omega long
before the recursion becomes expensive.  A reward h enters as
renewal.tilt(law, h): the measure of site weights exp(beta*omega - h), log Z less h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PinnedSet, grid_hausdorff
from .renewal import RenewalLaw


#: Largest sum of site log-weights, and least K(j) for j <= N, that a
#: PinningModel takes: the conditions of forward_table's error bound.
SITE_SUM_MAX = 2.0**1020
K_FLOOR = 2.0**-969


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
        # forward_table's error bound holds under these two (proof there)
        with np.errstate(over="ignore"):
            total = float(np.sum(self.site_log_weights))
        if not total <= SITE_SUM_MAX:
            raise ValueError("site log-weights beta*omega overflow: their sum must be finite "
                             f"and at most 2^1020, got {total}")
        if not self.law.K[1 : self.N + 1].min() >= K_FLOOR:
            raise ValueError("K(j) falls below 2^-969 within the horizon N")

    @property
    def site_log_weights(self) -> np.ndarray:
        """Per-site log factor beta*omega_n at interior sites n=1..N-1."""
        return self.beta * self.omega


#: Rows per block of forward_table: a row sums at most B terms in Python
#: floats, and each finished block folds into every later row with one
#: convolution.  16 measured fastest on the gibbs-sampling workload's 24
#: tables (8, 16, 32 and 48 were tried).
B = 16


def forward_table(model: PinningModel) -> np.ndarray:
    """log Z_0..log Z_N where Z_n sums path weights of bridges ending at n.

    Z_0 = 1 and Z_n = e^(s_n) sum_{m<n} Z_m K(n-m), with s_n = beta*omega_n
    at interior n and s_N = 0 (the energy runs over n = 1..N-1 only).  Rows
    go in blocks [b0, b1) of B.  A[n] holds log sum_{m<b0} Z_m K(n-m), the
    finished blocks' part of row n, and row n of the block is s_n + mx +
    log sum_t exp(t - mx) over the at most B terms t in {A[n]} and
    {log Z_m + log K(n-m) : b0 <= m < n}, summed with math.exp and math.log.
    When the block ends, with c = max log Z[b0:b1] and E = exp(log Z[b0:b1]
    - c), one np.convolve(K[1:N-b0+1], E, "valid") gives sum_{m in block}
    E_m K(n-m) at every n >= b1, and A[b1:] = logaddexp(A[b1:], c + log of
    it).  No numpy call runs per row.

    Error.  PinningModel holds K(j) >= 2^-969 for j <= N and S = sum s_n <=
    2^1020.  K is a sub-probability, so sum_paths prod K = P(n visited) <= 1
    and -672 < log K(n) <= log Z_n <= S.  Let u = 2^-53, take exp, log and
    log1p within 2 ulp (relative 4u), and let L = 1024 + max |l_m| + max
    s_n over the computed table l; every value rounded below is at most L
    in size (the headroom holds log B and log N <= 14, as N <= n_max <=
    renewal.MAX_SUPPORT = 10^6).
    - Propagation: row n is F(l_0..l_{n-1}) + eta_n, where F(x) = s_n + log
      sum_m e^(x_m) K(n-m) is monotone and moves by at most max |dx_m|.  So
      |l_n - log Z_n| <= sum_{k<=n} max |eta_k|.
    - Sums of positive terms: k of them in any order are within 1 +- gamma_k,
      gamma_k = ku/(1-ku) (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., lemma 3.1 and section 4.2), as in
      renewal.renewal_function.
    - Shifted exponentials: fl(x) = x(1+theta), |theta| <= u, for x = t - mx
      <= 0, so e^x moves by at most u|x|e^(x(1-u)) + 4u e^x <= 4.4u, and a
      row's sum is at least e^0 = 1.
    In units of u, eta_n takes: a term log Z_m + fl(log K), L + 4*672 <= 4L;
    the row's B exponentials 4.4B, their sum 1.01B, its log 4 log B, and
    mx + log(.) + s_n, 2L: at most 2.1L.  A[n] enters as one term.  A fold
    takes: each E_m moves by a factor 1 +- 750u (shift of at most 745 and
    exp), or, once below 2^-1022, by 2^-1073 at most, as does a product E_m
    K that underflows; the block's sum is at least K(n - m*) >= 2^-969,
    where E_m* = 1, so 2B such errors stay below B 2^-103 of it; products
    and sum 1.01(B+1); the log of a sum within [2^-969, B], 4*672; and + c,
    L: at most 4.4L.  Each logaddexp adds L + 8 (the difference is
    relative, exp, log1p, the final add).  With J = floor(n/B) finished
    blocks, |eta_n| <= (max(4L, 4.4L + J(L + 8)) + 2.1L) u <= (2J + 8) L u,
    and so
        |l_n - log Z_n| <= n ((n + 1)/B + 8) 2^-53 L.
    The floor on K is all the fold needs.  For build_law's K it is also why
    an entry of E that underflows is negligible: over one block, B
    consecutive gaps, log K varies by at most c B^gamma + |rho| log B (x^gamma
    is subadditive), so such an entry carries less than 2^-1074
    e^(c B^gamma + |rho| log B) of the block's largest term.
    """
    N = model.N
    if N > model.law.n_max:
        raise ValueError(f"horizon N={N} exceeds law support n_max={model.law.n_max}")
    K = model.law.K[: N + 1]
    rev = np.log(K[1 : B + 1]).tolist()[::-1]  # rev[len(rev) - k:] is log K(k..1)
    site = model.site_log_weights.tolist() + [0.0]
    logZ = np.empty(N + 1)
    A = np.full(N + 1, -np.inf)
    exp, log = math.exp, math.log
    for b0 in range(0, N + 1, B):
        b1 = min(b0 + B, N + 1)
        rows = [0.0] if b0 == 0 else []  # log Z[b0:n]
        folded = A[b0:b1].tolist()
        for n in range(max(b0, 1), b1):
            k = n - b0
            t = [z + w for z, w in zip(rows, rev[len(rev) - k:])]
            t.append(folded[k])
            mx = max(t)
            rows.append(mx + log(sum([exp(x - mx) for x in t])) + site[n - 1])
        logZ[b0:b1] = rows
        if b1 <= N:
            c = max(rows)
            E = np.exp(np.subtract(rows, c))
            fold = np.convolve(K[1 : N - b0 + 1], E, mode="valid")  # n = b1..N
            np.log(fold, out=fold)
            fold += c
            np.logaddexp(A[b1:], fold, out=A[b1:])
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
    read from rev = log K(N..1), whose last n entries are log K(n..1).

    Built with the arithmetic of Generator.choice(n, p=p): normalize p,
    cumsum, then divide by the last entry.  Every step after the logits
    writes into their one array.
    """
    p = np.add(table[:n], rev[rev.size - n:])
    np.subtract(p, np.maximum.reduce(p), out=p)
    np.exp(p, out=p)
    total = np.add.reduce(p)
    if not total >= 1.0:  # the largest term is exp(0) = 1, so only nan fails
        raise ValueError("backward probabilities contain NaN")
    np.divide(p, total, out=p)
    np.add.accumulate(p, out=p)  # the cumsum, without its wrapper
    np.divide(p, p[-1], out=p)
    return p


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
        (at,) = (pos == n).nonzero()
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
    lw = np.array(list(logw.values()))
    top = lw.max()
    norm = top + math.log(np.exp(lw - top).sum())
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
