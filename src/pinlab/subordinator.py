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

from .polymer import PolymerEnvironment


@dataclass(frozen=True)
class MarkedPointSet:
    """Positive marks at locations in [0,1]."""

    marks: np.ndarray
    locations: np.ndarray

    def __post_init__(self):
        marks = np.array(self.marks, dtype=float)
        loc = np.array(self.locations, dtype=float)
        if not np.all((marks > 0.0) & np.isfinite(marks)):
            raise ValueError("marks must be positive and finite")
        if marks.ndim != 1 or marks.shape != loc.shape:
            raise ValueError("marks and locations must be 1-d arrays of equal length")
        if not np.all((loc >= 0.0) & (loc <= 1.0)):
            raise ValueError("locations must lie in [0,1]")
        marks.setflags(write=False)
        loc.setflags(write=False)
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "locations", loc)


def edge_process(points: MarkedPointSet, t: float) -> float:
    """Mark mass within distance t of either endpoint of [0,1].

    Non-decreasing and right-continuous in t, jumping at the edge distances
    min(y, 1 - y) (computed exactly: 1 - y is exact for y in [1/2, 1]); at
    t = 1/2 it is the full sum.
    """
    if not 0.0 <= t <= 0.5:
        raise ValueError(f"t must lie in [0, 1/2], got {t}")
    loc = points.locations
    return float(np.sum(points.marks[np.minimum(loc, 1.0 - loc) <= t]))


def edge_jump_times(points: MarkedPointSet) -> np.ndarray:
    """Sorted t values at which the edge process jumps."""
    loc = points.locations
    return np.sort(np.minimum(loc, 1.0 - loc))


def growth_check(points: MarkedPointSet, alpha: float, q: float,
                 t_lo: float, t_hi: float) -> float:
    """sup over [t_lo, t_hi] of X_t / h(t), X the edge process of points and
    h(t) = t^(1/alpha) log^(q/alpha)(1/t).

    X is the cumulative sum of the marks sorted by edge distance, so one
    sort and one cumsum give it at every jump time.  h rises up to
    t = e^(-q) and falls after it (on all of (0, 0.1] only if q <= ln 10),
    so on each stretch where X is constant, X/h is largest at an end of the
    stretch, a jump time or t_lo or t_hi, and X does not fall at a jump: the
    largest ratio over those points is the supremum over all of
    [t_lo, t_hi].  Marks at one distance share the jump time, and the last
    partial sum among them, the largest, is X there.  For the same reason
    h on [t_lo, t_hi] lies between its values at the ends and at its peak
    min(max(e^(-q), t_lo), t_hi); raises ValueError where one of those is 0
    or not finite.
    """
    if not q > 1.0:
        raise ValueError(f"q must exceed 1, got {q}")
    if not 0.0 < t_lo <= t_hi <= 0.1:
        raise ValueError(f"need 0 < t_lo <= t_hi <= 0.1, got t_lo={t_lo}, t_hi={t_hi}")
    peak = min(max(math.exp(-q), t_lo), t_hi)
    h = _envelope(np.array([t_lo, peak, t_hi]), alpha, q)
    if not np.all((h > 0.0) & np.isfinite(h)):
        raise ValueError(f"envelope at alpha={alpha}, q={q} is 0 or not finite "
                         f"on [{t_lo}, {t_hi}]")
    loc = points.locations
    dist = np.minimum(loc, 1.0 - loc)
    order = np.argsort(dist, kind="stable")
    ts = dist[order]
    X = np.cumsum(np.concatenate(([0.0], points.marks[order])))  # X[i]: the i nearest marks
    lo, hi = ts.searchsorted(t_lo, "right"), ts.searchsorted(t_hi, "right")
    # X at t_lo, at each jump time in (t_lo, t_hi], and at t_hi
    at = np.concatenate(([t_lo], ts[lo:hi], [t_hi]))
    return float((np.append(X[lo:hi + 1], X[hi]) / _envelope(at, alpha, q)).max())


def _envelope(ts: np.ndarray, alpha: float, q: float) -> np.ndarray:
    """h(t) = t^(1/alpha) log^(q/alpha)(1/t), 0 or inf where it under- or overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return ts ** (1.0 / alpha) * np.log(1.0 / ts) ** (q / alpha)


def band_area_phi(t):
    """Reparameterization 1/2 (1 - sqrt(1 - 4t)) of the band half-width, of
    a float or elementwise over an array.

    Maps [0, 1/4] onto [0, 1/2] with phi(t) > t in between; composing the
    band process with phi makes its increments homogeneous in t (each mark
    enters at a time uniform over [0, 1/4]).
    """
    ts = np.asarray(t, dtype=float)
    if not np.all((ts >= 0.0) & (ts <= 0.25)):
        raise ValueError(f"t must lie in [0, 1/4], got {t}")
    out = 0.5 * (1.0 - np.sqrt(1.0 - 4.0 * ts))
    return float(out) if out.ndim == 0 else out


def band_process(env: PolymerEnvironment, t):
    """(U_t, W_t) at a time t in [0, 1/4], or elementwise over an array of
    them: U_t is the charge mass of the horizontal band |y| <= t of the
    diamond, and W_t = U_{phi(t)}.

    |y| is sorted once (stable) and the weights summed in that order, so U
    at any t is one entry of that cumulative sum, at the count of charges
    with |y| <= t (searchsorted "right").  W reads it at max(phi(t), t):
    phi(t) >= t, and the max only covers a float phi(t) that rounds below t
    (where 4t is under 2^-53).  Its index is then at least U's, and the
    cumulative sum of positive weights never falls, so W_t >= U_t holds
    exactly, not only up to rounding.
    """
    ts = np.asarray(t, dtype=float)
    phi = np.maximum(band_area_phi(ts), ts)
    dist = np.abs(env.y)
    order = np.argsort(dist, kind="stable")
    mass = np.concatenate(([0.0], np.cumsum(env.w[order])))
    U, W = (mass[dist[order].searchsorted(x, "right")] for x in (ts, phi))
    return (float(U), float(W)) if ts.ndim == 0 else (U, W)
