"""Energy-entropy maximization over pinned sets.

An instance is a weighted point cloud in (0,1); the objective of a pinned
set I is beta * (weight captured by I) - c * sum(gap^gamma).  Because the
entropy is strictly increasing under insertion, the maximizer only ever
uses weighted positions, so it can be found exactly by subset enumeration
(small instances) or by a quadratic dynamic program over positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import chain_dp, check_method, enumerate_best, min_ratio
from .geometry import PinnedSet, set_entropy

#: enumeration is capped at 2^25 subsets
BRUTEFORCE_MAX = 25


@dataclass(frozen=True)
class EnergyLandscape:
    """Weighted interior positions plus the coupling and entropy parameters."""

    positions: np.ndarray
    weights: np.ndarray
    beta: float
    gamma: float
    c_entropy: float = 1.0

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        w = np.array(self.weights, dtype=float)
        if pos.shape != w.shape or pos.ndim != 1:
            raise ValueError("positions and weights must be 1-d arrays of equal length")
        if pos.size and not (pos[0] > 0.0 and pos[-1] < 1.0):
            raise ValueError("positions must lie strictly inside (0,1)")
        if not np.all(np.diff(pos) > 0.0):
            raise ValueError("positions must be strictly increasing")
        if not np.all((w > 0.0) & np.isfinite(w)):
            raise ValueError("weights must be positive and finite")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0,1), got {self.gamma}")
        if not 0.0 < self.c_entropy < math.inf:
            raise ValueError(f"c_entropy must be positive and finite, got {self.c_entropy}")
        pos.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_marks(cls, positions, weights, beta, gamma, c_entropy=1.0):
        """Build a landscape from unordered (position, weight) marks."""
        pos = np.asarray(positions, dtype=float)
        w = np.asarray(weights, dtype=float)
        order = np.argsort(pos)
        return cls(pos[order], w[order], beta, gamma, c_entropy)

    @property
    def size(self) -> int:
        return int(self.positions.size)


def pinned_set(L: EnergyLandscape, idx) -> PinnedSet:
    """The pinned set {0, positions[idx], 1} of a tuple of position indices."""
    return PinnedSet(np.concatenate(([0.0], L.positions[list(idx)], [1.0])))


def objective(L: EnergyLandscape, idx) -> float:
    """beta * (weight at the positions idx) - c * entropy of pinned_set(L, idx)."""
    I = pinned_set(L, idx)
    return L.beta * float(np.sum(L.weights[list(idx)])) - L.c_entropy * set_entropy(I, L.gamma)


def _gap_column(positions, gamma: float):
    """Column accessor of the gap powers (p_j - p_i)^gamma, i < j, over the
    endpoint-augmented nodes, computed each time it is read.  Every caller
    but the bisect oracle runs on the few positions _prune keeps or on at
    most BRUTEFORCE_MAX positions, so a table would not pay for itself."""
    ext = np.concatenate(([0.0], positions, [1.0]))
    return lambda j: (ext[j] - ext[:j]) ** gamma


def solve_bruteforce(L: EnergyLandscape) -> tuple[int, ...]:
    """Indices of the exact maximizer by exhaustive subset enumeration
    (<= 25 positions).

    Ties are broken as in solve_dp: fewer points, then the smallest last
    index, then the smallest index before it, and so on; exact ties have
    probability zero in theory but do occur in floating point for symmetric
    instances.
    """
    m = L.size
    if m > BRUTEFORCE_MAX:
        raise ValueError(f"instance has {m} positions, enumeration capped at {BRUTEFORCE_MAX}")
    return enumerate_best(L.weights, L.beta, _gap_column(L.positions, L.gamma), L.c_entropy)


def _prune(positions, weights, beta: float, gamma: float, c: float) -> np.ndarray:
    """Indices of the positions that may lie on a maximizing chain at beta.

    Exactness.  Let j lie on a maximizer I, with gaps a and b to its
    neighbours in I.  Removing j must not raise the objective, so
    beta * w_j >= c * D(a, b) with D(a, b) = a^gamma + b^gamma - (a+b)^gamma.
    D grows in a and in b, and the neighbours of j in I lie in every
    superset of I (or are the endpoints 0 and 1), so the gaps to the
    nearest kept candidates bound D(a, b) from below.  Each pass therefore
    drops every j with beta * w_j < c * D(nearest kept gaps), recomputes the
    gaps over the kept set, and the passes repeat until nothing is dropped;
    no maximizer loses a point.  More: take any chain S through dropped
    points and remove them in the order of the pass that dropped them,
    earliest first.  Every point left in S is still kept when the pass that
    drops the next one starts, so each removal raises the exact score by at
    least G = c * D(nearest kept gaps) - beta * w_j, and S without its
    dropped points scores at least G above S.  The gain c * D - b * w_j only
    grows as b falls, so this holds at every coupling b <= beta as well.

    The float margin.  A position is dropped only when the computed
    c * D - beta * w_j exceeds tol = 8 (m + 16) u P, with u = 2^-53 and
    P = beta * sum(w) + c * (m + 1)^(1 - gamma).  P bounds the captured
    weight times beta and the entropy c * C(S) of every chain S (a chain has
    at most m + 1 gaps, and sum(gap^gamma) over n gaps is at most
    n^(1 - gamma)), so it bounds every partial sum the chain DP forms.
    - Each float gap power is within 16u of the exact power of the exact
      gap: the difference rounds by u (less after the power gamma < 1), and
      the budget allows numpy's pow 4 ulp (at most 0.68 ulp was measured
      against mpmath; gamma = 0.5 takes the correctly rounded sqrt).
    - The test itself: D is summed from three such powers, each at most 1,
      so the computed c * D - beta * w_j is off by at most 57u P.  The true
      gain of a dropped point is thus G > tol - 57u P = (8m + 71) u P.
    - The DP scores a chain node by node, two roundings per node on sums
      bounded by P, one per product, plus the gap powers: its float score
      is within (2m + 19) u P of the exact one.  G exceeds twice that, so
      every chain through a dropped point scores strictly below the same
      chain without them, in floats as in exact arithmetic.
    Ties keep a position, and an infinite or NaN bound (from an infinite
    weight) keeps every position.
    """
    m = positions.size
    P = beta * float(np.sum(weights)) + c * (m + 1) ** (1.0 - gamma)
    tol = 8 * (m + 16) * 2.0**-53 * P
    keep = np.arange(m)
    while keep.size:
        ext = np.concatenate(([0.0], positions[keep], [1.0]))
        # the same float gap powers the DP forms: differences of the same
        # floats, raised by the same operator
        gp = np.diff(ext) ** gamma
        gain = c * ((gp[:-1] + gp[1:]) - (ext[2:] - ext[:-2]) ** gamma) - beta * weights[keep]
        drop = gain > tol
        if not drop.any():
            break
        keep = keep[~drop]
    return keep


def grid_ranks(weights, beta: float, gamma: float, c: float, N: int) -> int:
    """How many leading ranks may lie on a maximizer, for weights in
    non-increasing order that sit on distinct sites j/N of the grid: one
    past the last rank with beta * w_j >= c * (2 - 2^gamma) * N^(-gamma) -
    tol, where tol = 8 (m + 16) 2^-53 P is _prune's over all m = N - 1
    weights (0 if none passes).

    Exactness.  Every position is a float j/N within 2^-54 of j/N, so two
    of them, or one and an endpoint, lie at least g >= 1/N - 2^-53 apart,
    and in any chain a point's gaps a, b to its neighbours satisfy
    D(a, b) >= D(g, g) = (2 - 2^gamma) g^gamma, as D grows in both gaps.
    With u = 2^-53: g^gamma >= N^(-gamma) (1 - N u) costs at most
    c N^(1-gamma) u <= uP; the computed bound (2 - 2^gamma is exact by
    Sterbenz, 2^gamma and N^(-gamma) within 4 ulp) is within 19uc <= 19uP
    of the exact one, and beta * w_j within uP.  So a rank j past the count
    gains more than tol - 21uP = (8m + 107)uP > (8m + 71)uP in the exact
    score when it leaves any chain, and removing such ranks one at a time
    leaves every remaining gap at least g, so each removal gains that much.
    That is the margin _prune's proof needs, with the same m and P: every
    chain through a rank past the count scores strictly below the same
    chain without it, in floats, and by solve_dp's argument the DP over the
    leading ranks picks the chain the DP over all N - 1 picks, with the
    same tie sets in the same order (both landscapes order their points by
    position).  solve_dp on the landscape of the leading ranks thus returns
    the maximizer over all ranks, the empty chain {0, 1} when the count is
    0.  Weights that are not all positive and finite raise ValueError, as
    the landscape over all ranks would.
    """
    w = np.asarray(weights, dtype=float)
    if not np.all((w > 0.0) & np.isfinite(w)):
        raise ValueError("weights must be positive and finite")
    P = beta * float(np.sum(w)) + c * N ** (1.0 - gamma)
    tol = 8 * (N + 15) * 2.0**-53 * P
    above = np.flatnonzero(beta * w >= c * (2.0 - 2.0**gamma) * float(N) ** -gamma - tol)
    return int(above[-1]) + 1 if above.size else 0


def solve_dp(L: EnergyLandscape) -> tuple[int, ...]:
    """Indices of the exact maximizer by dynamic programming; agrees with
    solve_bruteforce.

    The chain DP runs on the positions that _prune keeps at L.beta, and
    returns the same indices as the DP over all positions.  Every chain
    through a dropped position scores strictly below a chain of kept ones
    in floats (see _prune), so no maximal-score chain uses one.  The DP's
    value at a node that lies on a maximal-score chain is then attained by
    kept predecessors only, and its tie sets (equal scores, then fewer
    points, then the smallest predecessor) are the same over both sets, in
    the same order.  Gap powers are computed one column at a time, so
    memory stays linear.
    """
    keep = _prune(L.positions, L.weights, L.beta, L.gamma, L.c_entropy)
    sel = chain_dp(L.weights[keep], L.beta, _gap_column(L.positions[keep], L.gamma), L.c_entropy)
    return tuple(int(keep[i]) for i in sel)


def beta_critical(positions, weights, gamma: float, c_entropy: float = 1.0,
                  method: str = "auto") -> float:
    """Smallest coupling at which the maximizer leaves {0,1}.

    Equals min over nonempty subsets A of c * (E(Y_A) - 1) / sum of weights
    in A, computed by the parametric (Dinkelbach) DP iteration ("auto" and
    "parametric").  The oracles run over all positions: "enumerate" scans
    every subset (at most 25 positions), "bisect" halves the coupling via
    the chain DP to tolerance 1e-9.  Returns +inf for an empty landscape.

    The iteration runs on the positions that _prune keeps at beta0, the
    best single-point ratio, and returns the same float as over all
    positions.  beta0 is computed with the arithmetic of the threshold's own
    single-point bound, so the point attaining it survives (its computed
    gain is at most 77u P, below the margin).  Dinkelbach starts at beta0
    and solves the DP only at couplings at or below it.  At each, every
    chain through a dropped point scores below a kept chain (see _prune), so
    the DP over the survivors selects the same chain with the same sums.
    """
    check_method(method, np.size(positions), BRUTEFORCE_MAX)
    L = EnergyLandscape.from_marks(positions, weights, 0.0, gamma, c_entropy)
    if L.size == 0:
        return math.inf
    p, w = L.positions, L.weights
    if method in ("auto", "parametric"):
        # min_ratio's single-point bound, with the same floats
        beta0 = float((c_entropy * (p**gamma + (1.0 - p) ** gamma - 1.0) / w).min())
        keep = _prune(p, w, beta0, gamma, c_entropy)
        p, w = p[keep], w[keep]
    return min_ratio(w, _gap_column(p, gamma), c_entropy, method)
