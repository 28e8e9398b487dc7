"""Finite pinned subsets of [0,1]: gap entropy and Hausdorff distance."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

#: Two points closer than this are treated as duplicates and rejected.
DUPLICATE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PinnedSet:
    """Strictly increasing points in [0,1] containing both endpoints.

    Construction sorts its input and then validates; points closer than
    DUPLICATE_TOL raise instead of being merged, so caller bugs surface
    immediately.
    """

    points: np.ndarray

    def __init__(self, points):
        pts = np.sort(np.asarray(points, dtype=float))
        if pts.size < 2:
            raise ValueError("a pinned set needs at least the two endpoints")
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise ValueError("a pinned set must contain 0 and 1")
        if np.any(np.diff(pts) <= DUPLICATE_TOL):
            raise ValueError(
                f"points closer than {DUPLICATE_TOL} (duplicates are rejected, not merged)"
            )
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PinnedSet):
            return NotImplemented
        return self.points.size == other.points.size and bool(
            np.all(self.points == other.points)
        )

    @property
    def gaps(self) -> np.ndarray:
        return np.diff(self.points)

    def insert(self, x: float) -> "PinnedSet":
        return PinnedSet(np.append(self.points, x))

    def reflect(self) -> "PinnedSet":
        return PinnedSet(1.0 - self.points)


def set_entropy(I: PinnedSet, gamma: float) -> float:
    """Sum of gap^gamma over consecutive gaps of I.

    Always >= 1, with equality exactly for {0,1}; strictly increasing under
    insertion of new points because gamma < 1 makes x^gamma superadditive.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")
    return float(np.sum(I.gaps**gamma))


def nearest_distances(x: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Distance from each entry of x to the nearest entry of sorted pts."""
    idx = np.searchsorted(pts, x)
    left = pts[np.maximum(idx - 1, 0)]
    right = pts[np.minimum(idx, pts.size - 1)]
    return np.minimum(np.abs(x - left), np.abs(x - right))


def _sorted_points(A) -> np.ndarray:
    return A.points if isinstance(A, PinnedSet) else np.sort(np.asarray(A, dtype=float))


def _directed(a: np.ndarray, b: np.ndarray) -> float:
    # sup over a of distance to b, both arrays sorted
    return float(np.max(nearest_distances(a, b)))


def hausdorff(A, B) -> float:
    """Hausdorff distance between two finite point sets.

    max over either set of the distance from a point to the other set;
    accepts PinnedSet or sorted/unsorted arrays.
    """
    a, b = _sorted_points(A), _sorted_points(B)
    return max(_directed(a, b), _directed(b, a))


def grid_hausdorff(sets, N: int, B) -> np.ndarray:
    """hausdorff(np.asarray(s) / N, B) for every set s in one vectorized pass.

    Each s is a nonempty, strictly increasing sequence of integers in
    [0, N].  The distances equal the per-set ones bit for bit: both
    directions pick the same points and take the same differences.  From s
    to B, nearest_distances runs over all sets' points at once and
    np.maximum.reduceat takes each set's maximum.  From B to s, the
    insertion point of y in s/N is the count of entries k < g(y), with
    g(y) = searchsorted(arange(N + 1) / N, y), found by one search of the
    integer keys set_id*(N + 1) + k.
    """
    b = _sorted_points(B)
    sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
    if sizes.size == 0:
        return np.empty(0)
    if sizes.min() < 1:
        raise ValueError("every set needs at least one point")
    flat = np.fromiter(itertools.chain.from_iterable(sets), dtype=np.int64,
                       count=int(sizes.sum()))
    starts = np.zeros_like(sizes)
    np.cumsum(sizes[:-1], out=starts[1:])
    x = flat / N
    to_b = np.maximum.reduceat(nearest_distances(x, b), starts)
    offset = np.arange(sizes.size, dtype=np.int64) * (N + 1)
    keys = np.repeat(offset, sizes) + flat
    g = np.searchsorted(np.arange(N + 1) / N, b)
    pos = np.searchsorted(keys, offset[:, None] + g)
    left = x[np.maximum(pos - 1, starts[:, None])]
    right = x[np.minimum(pos, (starts + sizes - 1)[:, None])]
    from_b = np.minimum(np.abs(b - left), np.abs(b - right)).max(axis=1)
    return np.maximum(to_b, from_b)
