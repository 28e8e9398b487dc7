"""Finite pinned subsets of [0,1]: gap entropy and Hausdorff distance."""

from __future__ import annotations

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

    def __len__(self) -> int:
        return int(self.points.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PinnedSet):
            return NotImplemented
        return self.points.size == other.points.size and bool(
            np.all(self.points == other.points)
        )

    def __hash__(self):
        return hash(self.points.tobytes())

    @property
    def interior(self) -> np.ndarray:
        return self.points[1:-1]

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


def _directed(a: np.ndarray, b: np.ndarray) -> float:
    # sup over a of distance to b, both arrays sorted
    return float(np.max(nearest_distances(a, b)))


def hausdorff(A, B) -> float:
    """Hausdorff distance between two finite point sets.

    max over either set of the distance from a point to the other set;
    accepts PinnedSet or sorted/unsorted arrays.
    """
    a = A.points if isinstance(A, PinnedSet) else np.sort(np.asarray(A, dtype=float))
    b = B.points if isinstance(B, PinnedSet) else np.sort(np.asarray(B, dtype=float))
    return max(_directed(a, b), _directed(b, a))
