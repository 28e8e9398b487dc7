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
from itertools import combinations

import numpy as np

from .chain import chain_dp, enumerate_best, min_ratio
from .geometry import PinnedSet, hausdorff, set_entropy

MEMBER_TOL = 1e-12

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
        pos = np.asarray(self.positions, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pos.shape != w.shape or pos.ndim != 1:
            raise ValueError("positions and weights must be 1-d arrays of equal length")
        if pos.size and (pos[0] <= 0.0 or pos[-1] >= 1.0):
            raise ValueError("positions must lie strictly inside (0,1)")
        if pos.size > 1 and np.any(np.diff(pos) <= 0.0):
            raise ValueError("positions must be strictly increasing")
        if np.any(w <= 0.0):
            raise ValueError("weights must be positive")
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0,1), got {self.gamma}")
        if self.c_entropy <= 0.0:
            raise ValueError(f"c_entropy must be positive, got {self.c_entropy}")
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


@dataclass(frozen=True)
class VarSolution:
    """Maximizer, its objective value, and the selected position indices."""

    maximizer: PinnedSet
    value: float
    selected: tuple[int, ...] = ()


def energy(L: EnergyLandscape, I: PinnedSet) -> float:
    """Total weight of landscape positions captured by I (tolerance 1e-12)."""
    if L.size == 0:
        return 0.0
    pts = I.points
    idx = np.searchsorted(pts, L.positions)
    left = pts[np.clip(idx - 1, 0, pts.size - 1)]
    right = pts[np.clip(idx, 0, pts.size - 1)]
    dist = np.minimum(np.abs(L.positions - left), np.abs(L.positions - right))
    return float(np.sum(L.weights[dist <= MEMBER_TOL]))


def objective(L: EnergyLandscape, I: PinnedSet) -> float:
    """beta * energy(I) - c * entropy(I); I may only use landscape positions.

    Interior points that are not landscape positions strictly lower the
    objective and are rejected rather than silently scored.
    """
    for x in I.interior:
        if L.size == 0 or np.min(np.abs(L.positions - x)) > MEMBER_TOL:
            raise ValueError(f"interior point {x} is not a landscape position")
    return L.beta * energy(L, I) - L.c_entropy * set_entropy(I, L.gamma)


def _pinned_from_indices(L: EnergyLandscape, idx) -> PinnedSet:
    return PinnedSet(np.concatenate(([0.0], L.positions[list(idx)], [1.0])))


def _canonical_value(L: EnergyLandscape, idx) -> float:
    I = _pinned_from_indices(L, idx)
    return L.beta * float(np.sum(L.weights[list(idx)])) - L.c_entropy * set_entropy(I, L.gamma)


def _gap_powers(L: EnergyLandscape) -> np.ndarray:
    """(m+2)x(m+2) matrix of (p_j - p_i)^gamma over endpoint-augmented nodes."""
    ext = np.concatenate(([0.0], L.positions, [1.0]))
    diff = ext[None, :] - ext[:, None]
    return np.where(diff > 0.0, np.abs(diff) ** L.gamma, 0.0)


def solve_bruteforce(L: EnergyLandscape) -> VarSolution:
    """Exact maximizer by exhaustive subset enumeration (<= 25 positions).

    Ties are broken as in solve_dp: fewer points, then the smallest last
    index, then the smallest index before it, and so on; exact ties have
    probability zero in theory but do occur in floating point for symmetric
    instances.
    """
    m = L.size
    if m > BRUTEFORCE_MAX:
        raise ValueError(f"instance has {m} positions, enumeration capped at {BRUTEFORCE_MAX}")
    idx = enumerate_best(L.weights, L.beta, _gap_powers(L), L.c_entropy)
    return VarSolution(_pinned_from_indices(L, idx), _canonical_value(L, idx), idx)


def solve_dp(L: EnergyLandscape) -> VarSolution:
    """Exact maximizer by dynamic programming; agrees with solve_bruteforce.

    Gap powers are computed one column at a time, so memory stays linear.
    """
    ext = np.concatenate(([0.0], L.positions, [1.0]))
    idx = chain_dp(L.weights, L.beta, lambda j: (ext[j] - ext[:j]) ** L.gamma, L.c_entropy)
    return VarSolution(_pinned_from_indices(L, idx), _canonical_value(L, idx), idx)


def constrained_max(L: EnergyLandscape, ref: VarSolution, delta: float) -> float:
    """Best objective among subsets at Hausdorff distance >= delta from ref.

    Returns -inf when no subset qualifies (e.g. delta exceeds the diameter).
    Brute force only: the distance constraint breaks the DP decomposition.
    """
    m = L.size
    if m > BRUTEFORCE_MAX:
        raise ValueError(f"instance has {m} positions, enumeration capped at {BRUTEFORCE_MAX}")
    ref_pts = ref.maximizer.points
    best = -math.inf
    for r in range(m + 1):
        for idx in combinations(range(m), r):
            I = _pinned_from_indices(L, idx)
            if hausdorff(I.points, ref_pts) >= delta:
                best = max(best, _canonical_value(L, idx))
    return best


def beta_critical(positions, weights, gamma: float, c_entropy: float = 1.0,
                  method: str = "auto") -> float:
    """Smallest coupling at which the maximizer leaves {0,1}.

    Equals min over nonempty subsets A of c * (E(Y_A) - 1) / sum of weights
    in A; computed by exact ratio enumeration up to 25 positions and by the
    parametric (Dinkelbach) DP iteration above that.  "bisect" is kept as a
    cross-check oracle: plain bisection on the coupling via the chain DP,
    tolerance 1e-9, about 10x more DP solves.  Returns +inf for an empty
    landscape.
    """
    L = EnergyLandscape.from_marks(positions, weights, 0.0, gamma, c_entropy)
    if L.size == 0:
        return math.inf
    return min_ratio(L.weights, _gap_powers(L), c_entropy, method, BRUTEFORCE_MAX)
