"""Heavy-tailed disorder under a single coupling.

One exponential/uniform stream (T, Y) drives both the discrete size-N
order statistics and their continuum limit, so per-index convergence holds
pathwise: the i-th rescaled maximum M_disc[i] -> T_i^(-1/alpha) and the
grid position Y_disc[i] -> Y_i as N grows.
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


def pareto_quantile(law: DisorderLaw, p) -> float | np.ndarray:
    """Inverse CDF: F^(-1)(p) = (1-p)^(-1/alpha), strictly increasing."""
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p < 1.0)):
        raise ValueError("quantile level must lie in [0,1)")
    out = (1.0 - p) ** (-1.0 / law.alpha)
    return float(out) if out.ndim == 0 else out


def compute_b_N(law: DisorderLaw, N: int) -> float:
    """Rescaling constant solving P(omega > b_N) = 1/N: b_N = N^(1/alpha)."""
    if not N >= 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return float(N) ** (1.0 / law.alpha)


@dataclass(frozen=True)
class CoupledDisorder:
    """The size-N disorder built from one random stream (T, Y).

    M_disc uses the order-statistics representation b_N^(-1) * quantile(1 -
    T_i/T_N), so its marginal law equals that of ranked i.i.d. Pareto maxima
    divided by b_N.  slots is a bijection onto the interior sites 1..N-1
    obtained by snapping Y, and Y_disc = slots/N.  The continuum side, the
    marks T_i^(-1/alpha) at Y_i, is the stream itself.
    """

    law: DisorderLaw
    N: int
    M_disc: np.ndarray
    Y_disc: np.ndarray
    slots: np.ndarray
    b_N: float

    def __post_init__(self):
        for name in ("M_disc", "Y_disc", "slots"):
            getattr(self, name).setflags(write=False)

    @property
    def omega(self) -> np.ndarray:
        """Site disorder on 1..N-1: the maximum M_disc[i] * b_N at site slots[i]."""
        out = np.zeros(self.N - 1)
        out[self.slots - 1] = self.M_disc * self.b_N
        return out


def draw_base(size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw the shared randomness: cumulative exponentials T and uniforms Y."""
    T = np.cumsum(rng.standard_exponential(size))
    Y = rng.uniform(0.0, 1.0, size)
    return T, Y


def _find(nxt: dict[int, int], j: int) -> int:
    """Follow "next free slot" pointers from j, halving the path as it goes;
    an absent key points to itself."""
    while (k := nxt.get(j, j)) != j:
        nxt[j] = nxt.get(k, k)
        j = nxt[j]
    return j


def _assign_grid(y_inf: np.ndarray, N: int, count: int) -> np.ndarray:
    """Snap each of the first count ranks' uniform positions to the nearest
    free interior grid slot.

    Slots are taken in rank order and, for each rank, in order of distance
    to x = N*y, preferring the left side on exact distance ties; with
    count = N-1 ranks and N-1 slots this is a bijection.  A rank's slot
    depends only on the ranks before it, so the first count slots are those
    of the full assignment.  The nearest free slot L <= floor(x) and
    R > floor(x) come from union-find pointers over the slots, kept in two
    dicts in which an absent key is a free slot (0 and N are sentinels for
    "no free slot"), so the work and memory follow count, not N.  L wins
    when x - L <= R - x: float subtraction is monotone, so this is exactly
    the slot an outward scan would reach first.
    """
    left: dict[int, int] = {}   # left[j]: largest free slot <= j, or 0
    right: dict[int, int] = {}  # right[j]: smallest free slot >= j, or N
    slots = np.empty(count, dtype=np.int64)
    xs = N * y_inf[:count]
    for i, (x, lo) in enumerate(zip(xs.tolist(), np.floor(xs).tolist())):
        lo = int(lo)
        L = _find(left, min(max(lo, 0), N))
        R = _find(right, min(max(lo + 1, 0), N))
        j = L if R == N or (L != 0 and x - L <= R - x) else R
        left[j] = j - 1
        right[j] = j + 1
        slots[i] = j
    return slots


def rescaled_maxima(law: DisorderLaw, T: np.ndarray, N: int) -> np.ndarray:
    """M_disc over the ranks 1..N-1: quantile(1 - T_i/T_N) / b_N, the ranked
    maxima of N-1 i.i.d. Pareto draws over b_N, non-increasing in rank."""
    return pareto_quantile(law, 1.0 - T[: N - 1] / T[N - 1]) / compute_b_N(law, N)


def couple(law: DisorderLaw, T: np.ndarray, Y: np.ndarray, N: int) -> CoupledDisorder:
    """Build the size-N disorder from the shared base randomness (T, Y).

    T and Y must have length >= N; reusing the same base across several
    N values is what makes the discrete-to-continuum convergence hold per
    index on a single realization.  Every rank gets its grid slot
    (_assign_grid over N-1 ranks), since the site disorder omega holds them
    all; a caller that needs only the leading ranks' slots takes
    rescaled_maxima and _assign_grid itself.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if T.shape[0] < N or Y.shape[0] < N:
        raise ValueError(f"base buffer too short: need {N}, have {min(T.shape[0], Y.shape[0])}")
    slots = _assign_grid(Y, N, N - 1)
    return CoupledDisorder(law=law, N=N, M_disc=rescaled_maxima(law, T, N),
                           Y_disc=slots / float(N), slots=slots, b_N=compute_b_N(law, N))


def sample_coupled(law: DisorderLaw, N: int, rng: np.random.Generator) -> CoupledDisorder:
    """Sample a coupled disorder; the internal buffer is sized max(N, BUFFER_MIN)."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    T, Y = draw_base(max(N, BUFFER_MIN), rng)
    return couple(law, T, Y, N)
