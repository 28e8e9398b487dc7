"""Pure-jump increasing processes built from truncated heavy-tailed marks.

Covers the edge-interval sum process of the pinning disorder, the pathwise
growth-envelope check t^(1/alpha) log^(q/alpha)(1/t), and the band process
of the polymer environment together with the reparameterization that makes
its increments homogeneous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import CoupledDisorder


@dataclass(frozen=True)
class MarkedPointSet:
    """Positive marks at locations in [0,1] (interval case) or in the diamond
    D = {(x,y): |y| <= min(x, 1-x)} (band case)."""

    marks: np.ndarray
    locations: np.ndarray

    def __post_init__(self):
        marks = np.asarray(self.marks, dtype=float)
        loc = np.asarray(self.locations, dtype=float)
        if np.any(~np.isfinite(marks)) or np.any(marks <= 0.0):
            raise ValueError("marks must be positive and finite")
        if loc.ndim == 1:
            if marks.shape != loc.shape:
                raise ValueError("marks and locations must have equal length")
            if loc.size and (loc.min() < 0.0 or loc.max() > 1.0):
                raise ValueError("interval locations must lie in [0,1]")
        elif loc.ndim == 2 and loc.shape[1] == 2:
            if marks.shape[0] != loc.shape[0]:
                raise ValueError("marks and locations must have equal length")
            x, y = loc[:, 0], loc[:, 1]
            if loc.size and np.any(np.abs(y) > np.minimum(x, 1.0 - x)):
                raise ValueError("band locations must lie in the diamond |y| <= min(x,1-x)")
        else:
            raise ValueError("locations must be (k,) or (k,2)")
        marks.setflags(write=False)
        loc.setflags(write=False)
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "locations", loc)

    @classmethod
    def from_pinning(cls, d: CoupledDisorder, k: int) -> "MarkedPointSet":
        """First k continuum marks of a coupled disorder, at their positions."""
        return cls(d.M_inf[:k], d.Y_inf[:k])

    @property
    def size(self) -> int:
        return int(self.marks.size)


def edge_process(points: MarkedPointSet, t: float) -> float:
    """Mark mass within distance t of either endpoint of [0,1].

    Non-decreasing and right-continuous in t; at t = 1/2 it is the full sum.
    """
    if not 0.0 <= t <= 0.5:
        raise ValueError(f"t must lie in [0, 1/2], got {t}")
    loc = points.locations
    if loc.ndim != 1:
        raise ValueError("edge_process needs interval locations")
    inside = (loc <= t) | (loc >= 1.0 - t)
    return float(np.sum(points.marks[inside]))


def edge_evaluator(points: MarkedPointSet):
    """t -> edge_process(points, t), evaluated once per distinct edge set.

    The set (loc <= t) | (loc >= 1 - t) is fixed by two counts over the
    sorted locations, those <= t and those < 1 - t; equal counts select
    the same marks in the same order, so the memoized sum is the same float.
    """
    loc = np.sort(points.locations)
    if loc.ndim != 1:
        raise ValueError("edge_process needs interval locations")
    memo = {}

    def evaluate(t: float) -> float:
        if not 0.0 <= t <= 0.5:
            raise ValueError(f"t must lie in [0, 1/2], got {t}")
        key = (int(loc.searchsorted(t, "right")), int(loc.searchsorted(1.0 - t, "left")))
        if key not in memo:
            memo[key] = edge_process(points, t)
        return memo[key]

    return evaluate


def edge_jump_times(points: MarkedPointSet) -> np.ndarray:
    """Sorted t values at which the edge process jumps."""
    loc = points.locations
    return np.sort(np.minimum(loc, 1.0 - loc))


def growth_check(evaluator, alpha: float, q: float, t_grid,
                 jump_times=()) -> float:
    """sup over the grid of X_t / (t^(1/alpha) log^(q/alpha)(1/t)).

    Known jump times inside the grid range are added automatically: the
    process is a step function and the envelope is increasing on (0, 0.1],
    so the supremum over the whole range is attained at grid points or
    jumps.
    """
    if q <= 1.0:
        raise ValueError(f"q must exceed 1, got {q}")
    ts = np.asarray(t_grid, dtype=float)
    if ts.size == 0:
        raise ValueError("t_grid must be nonempty")
    if np.any(ts <= 0.0) or np.any(ts > 0.1):
        raise ValueError("t_grid must lie in (0, 0.1]")
    jumps = np.asarray(jump_times, dtype=float)
    if jumps.size:
        inside = jumps[(jumps >= ts.min()) & (jumps <= ts.max())]
        ts = np.unique(np.concatenate([ts, inside]))
    h = ts ** (1.0 / alpha) * np.log(1.0 / ts) ** (q / alpha)
    ratios = [evaluator(float(t)) / ht for t, ht in zip(ts, h)]
    return float(max(ratios))


def band_area_phi(t: float) -> float:
    """Reparameterization 1/2 (1 - sqrt(1 - 4t)) of the band half-width.

    Maps [0, 1/4] onto [0, 1/2] with phi(t) > t in between; composing the
    band process with phi makes its increments homogeneous in t (each mark
    enters at a time uniform over [0, 1/4]).
    """
    if not 0.0 <= t <= 0.25:
        raise ValueError(f"t must lie in [0, 1/4], got {t}")
    return 0.5 * (1.0 - math.sqrt(1.0 - 4.0 * t))


def band_u(env: MarkedPointSet, t: float) -> float:
    """Mark mass of the horizontal band |y| <= t of the diamond."""
    if not 0.0 <= t <= 0.5:
        raise ValueError(f"t must lie in [0, 1/2], got {t}")
    loc = env.locations
    if loc.ndim != 2:
        raise ValueError("band_u needs diamond locations")
    return float(np.sum(env.marks[np.abs(loc[:, 1]) <= t]))


def band_process(env: MarkedPointSet, t: float) -> tuple[float, float]:
    """(U_t, W_t) with W_t = U_{phi(t)}; W_t >= U_t pointwise since phi(t) >= t."""
    return band_u(env, t), band_u(env, band_area_phi(t))
