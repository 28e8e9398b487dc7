"""Heavy-tailed disorder under a single coupling.

One exponential/uniform stream drives both the discrete size-N order
statistics and their continuum limit, so per-index convergence holds
pathwise: the i-th rescaled maximum M_disc[i] -> M_inf[i] = T_i^(-1/alpha)
and the grid position Y_disc[i] -> Y_inf[i] as N grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Minimum length of the internal exponential/uniform buffer.
BUFFER_MIN = 4096


@dataclass(frozen=True)
class DisorderLaw:
    """Pure Pareto disorder: P(omega > t) = t^(-alpha) for t >= 1.

    The scale is 1: any scale s cancels in the rescaled maxima
    F^(-1)(1 - T_i/T_N) / b_N, because b_N = s * N^(1/alpha) carries it too.
    """

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")

    def survival(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.where(t < 1.0, 1.0, t ** (-self.alpha))


def pareto_quantile(law: DisorderLaw, p) -> float | np.ndarray:
    """Inverse CDF: F^(-1)(p) = (1-p)^(-1/alpha), strictly increasing."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0.0) or np.any(p >= 1.0):
        raise ValueError("quantile level must lie in [0,1)")
    out = (1.0 - p) ** (-1.0 / law.alpha)
    return float(out) if out.ndim == 0 else out


def compute_b_N(law: DisorderLaw, N: int) -> float:
    """Rescaling constant solving P(omega > b_N) = 1/N: b_N = N^(1/alpha)."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return float(N) ** (1.0 / law.alpha)


@dataclass(frozen=True)
class CoupledDisorder:
    """Discrete and continuum rescaled maxima built from one random stream.

    T holds cumulative sums of unit-mean exponentials; M_inf[i] = T[i]^(-1/alpha)
    exactly, while M_disc uses the order-statistics representation
    b_N^(-1) * quantile(1 - T_i/T_N), so its marginal law equals that of
    ranked i.i.d. Pareto maxima divided by b_N.  Y_disc is a bijection onto
    the interior grid {1/N, ..., (N-1)/N} obtained by snapping Y_inf.
    """

    law: DisorderLaw
    N: int
    T: np.ndarray
    M_inf: np.ndarray
    Y_inf: np.ndarray
    M_disc: np.ndarray
    Y_disc: np.ndarray
    b_N: float

    def __post_init__(self):
        for name in ("T", "M_inf", "Y_inf", "M_disc", "Y_disc"):
            getattr(self, name).setflags(write=False)


def draw_base(size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw the shared randomness: cumulative exponentials T and uniforms Y."""
    T = np.cumsum(rng.standard_exponential(size))
    Y = rng.uniform(0.0, 1.0, size)
    return T, Y


def _find(nxt: list[int], j: int) -> int:
    """Follow "next free slot" pointers from j, halving the path as it goes."""
    while nxt[j] != j:
        nxt[j] = nxt[nxt[j]]
        j = nxt[j]
    return j


def _assign_grid(y_inf: np.ndarray, N: int) -> np.ndarray:
    """Snap each rank's uniform position to the nearest free interior grid slot.

    Slots are taken in order of distance to x = N*y, preferring the left
    side on exact distance ties; with N-1 ranks and N-1 slots this is a
    bijection.  The nearest free slot L <= floor(x) and R > floor(x) come
    from union-find pointers over the slots (0 and N are sentinels for "no
    free slot"), and L wins when x - L <= R - x: float subtraction is
    monotone, so this is exactly the slot an outward scan would reach first.
    """
    left = list(range(N + 1))   # left[j]: largest free slot <= j, or 0
    right = list(range(N + 1))  # right[j]: smallest free slot >= j, or N
    left[N] = N - 1
    right[0] = 1
    slots = np.empty(N - 1, dtype=np.int64)
    xs = N * y_inf[: N - 1]
    for i, (x, lo) in enumerate(zip(xs.tolist(), np.floor(xs).tolist())):
        lo = int(lo)
        L = _find(left, min(max(lo, 0), N))
        R = _find(right, min(max(lo + 1, 0), N))
        j = L if R == N or (L != 0 and x - L <= R - x) else R
        left[j] = j - 1
        right[j] = j + 1
        slots[i] = j
    return slots


def couple(law: DisorderLaw, T: np.ndarray, Y_inf: np.ndarray, N: int) -> CoupledDisorder:
    """Build the coupled pair of disorders from shared base randomness.

    T and Y_inf must have length >= N; reusing the same base across several
    N values is what makes the discrete-to-continuum convergence hold per
    index on a single realization.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if T.shape[0] < N or Y_inf.shape[0] < N:
        raise ValueError(f"base buffer too short: need {N}, have {T.shape[0]}")
    b_N = compute_b_N(law, N)
    M_inf = T ** (-1.0 / law.alpha)
    M_disc = pareto_quantile(law, 1.0 - T[: N - 1] / T[N - 1]) / b_N
    M_disc = np.atleast_1d(M_disc)
    slots = _assign_grid(Y_inf, N)
    Y_disc = slots / float(N)
    return CoupledDisorder(
        law=law, N=N, T=T.copy(), M_inf=M_inf, Y_inf=Y_inf.copy(),
        M_disc=M_disc, Y_disc=Y_disc, b_N=b_N,
    )


def sample_coupled(law: DisorderLaw, N: int, rng: np.random.Generator) -> CoupledDisorder:
    """Sample a coupled disorder; the internal buffer is sized max(N, BUFFER_MIN)."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    T, Y = draw_base(max(N, BUFFER_MIN), rng)
    return couple(law, T, Y, N)


def truncation_residual(d: CoupledDisorder, k: int) -> float:
    """Sum of discrete rescaled maxima of rank > k; identically 0 for k >= N-1."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return float(np.sum(d.M_disc[k:]))


def continuum_residual(d: CoupledDisorder, k: int) -> tuple[float, float]:
    """Continuum mark mass beyond rank k within the buffer, plus a tail bound.

    The bound (alpha/(1-alpha)) * T_last^(1 - 1/alpha) dominates the mass the
    finite buffer cannot see, by comparing the summable T_i^(-1/alpha) tail
    with its integral.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    partial = float(np.sum(d.M_inf[k:]))
    a = d.law.alpha
    t_last = float(d.T[-1])
    bound = (a / (1.0 - a)) * t_last ** (1.0 - 1.0 / a)
    return partial, bound
