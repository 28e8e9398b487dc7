"""Ground state of a directed polymer among heavy-tailed point charges.

Charges live in the diamond D = {(x,y): |y| <= min(x, 1-x)}; a path is
1-Lipschitz, pinned to height 0 at both ends, and pays the binary-entropy
rate of its slope.  Because that rate is convex, an optimal path is
piecewise linear with vertices on the charges it collects, which reduces
the ground-state problem to a DP over charges sorted by x.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .chain import chain_dp, enumerate_best, min_ratio

ON_PATH_TOL = 1e-12

ENUM_MAX = 20  # enumeration cap (oracle and threshold); the DP handles anything larger


def binary_entropy_rate(x):
    """e(x) = ((1+x)log(1+x) + (1-x)log(1-x))/2 on [-1,1], with 0 log 0 = 0.

    Even and convex with e(0) = 0 and e(+-1) = log 2; slopes outside [-1,1]
    are Lipschitz violations and rejected.  Uses log1p so the ~x^2/2 behavior
    near 0 survives the cancellation between the two terms.
    """
    arr = np.asarray(x, dtype=float)
    ax = np.abs(arr)
    if np.any(ax > 1.0):
        raise ValueError("slope outside [-1,1]")
    safe = np.where(ax == 1.0, 0.0, arr)
    val = 0.5 * ((1.0 + safe) * np.log1p(safe) + (1.0 - safe) * np.log1p(-safe))
    out = np.where(ax == 1.0, math.log(2.0), val)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PolymerEnvironment:
    """Charges (x_i, y_i, w_i) in the diamond with weights decreasing in i."""

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    alpha: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if not (x.shape == y.shape == w.shape) or x.ndim != 1:
            raise ValueError("x, y, w must be 1-d arrays of equal length")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0,2), got {self.alpha}")
        if x.size and np.any(np.abs(y) > np.minimum(x, 1.0 - x)):
            raise ValueError("charges must lie in the diamond |y| <= min(x,1-x)")
        if np.any(w <= 0.0) or (w.size > 1 and np.any(np.diff(w) >= 0.0)):
            raise ValueError("weights must be positive and strictly decreasing")
        for a in (x, y, w):
            a.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w", w)

    @property
    def size(self) -> int:
        return int(self.x.size)

    @classmethod
    def sample(cls, alpha: float, k: int, rng: np.random.Generator) -> "PolymerEnvironment":
        """k charges: weights T_i^(-1/alpha) from cumulative exponentials,
        locations uniform on the diamond (by rejection from its bounding box)."""
        T = np.cumsum(rng.standard_exponential(k))
        xs = np.empty(k)
        ys = np.empty(k)
        have = 0
        while have < k:
            n = 2 * (k - have) + 8
            cx = rng.uniform(0.0, 1.0, n)
            cy = rng.uniform(-0.5, 0.5, n)
            ok = np.abs(cy) <= np.minimum(cx, 1.0 - cx)
            take = min(int(ok.sum()), k - have)
            xs[have : have + take] = cx[ok][:take]
            ys[have : have + take] = cy[ok][:take]
            have += take
        return cls(xs, ys, T ** (-1.0 / alpha), alpha)

    def truncate(self, k: int) -> "PolymerEnvironment":
        """Keep the k heaviest charges (a prefix, since weights decrease)."""
        return PolymerEnvironment(self.x[:k], self.y[:k], self.w[:k], self.alpha)

    def to_json(self) -> str:
        return json.dumps([[xi, yi, wi] for xi, yi, wi in zip(self.x, self.y, self.w)])

    @classmethod
    def from_json(cls, text: str, alpha: float) -> "PolymerEnvironment":
        rows = json.loads(text)
        arr = np.asarray(rows, dtype=float).reshape(-1, 3)
        return cls(arr[:, 0], arr[:, 1], arr[:, 2], alpha)


@dataclass(frozen=True)
class PolymerPath:
    """Piecewise-linear 1-Lipschitz path from (0,0) to (1,0)."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 2:
            raise ValueError("vertices must be an (m,2) array with m >= 2")
        if tuple(v[0]) != (0.0, 0.0) or tuple(v[-1]) != (1.0, 0.0):
            raise ValueError("path must run from (0,0) to (1,0)")
        dx = np.diff(v[:, 0])
        dy = np.diff(v[:, 1])
        if np.any(dx <= 0.0):
            raise ValueError("x must be strictly increasing (no zero-length segments)")
        if np.any(np.abs(dy) > dx):
            raise ValueError("segments must satisfy |dy| <= dx (1-Lipschitz)")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @classmethod
    def through(cls, points) -> "PolymerPath":
        """Path with the given interior vertices, endpoints added."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return cls(np.vstack([[0.0, 0.0], pts, [1.0, 0.0]]))

    @classmethod
    def flat(cls) -> "PolymerPath":
        return cls(np.array([[0.0, 0.0], [1.0, 0.0]]))

    def to_json(self) -> str:
        return json.dumps([[xi, yi] for xi, yi in self.vertices])


def path_entropy(p: PolymerPath) -> float:
    """Integral of the slope entropy rate: sum over segments of dx * e(dy/dx)."""
    dx = np.diff(p.vertices[:, 0])
    dy = np.diff(p.vertices[:, 1])
    return float(np.sum(dx * binary_entropy_rate(dy / dx)))


def env_energy(env: PolymerEnvironment, p: PolymerPath) -> float:
    """Total weight of charges on the path's graph (within 1e-12 vertically)."""
    if env.size == 0:
        return 0.0
    on_path = np.interp(env.x, p.vertices[:, 0], p.vertices[:, 1])
    return float(np.sum(env.w[np.abs(on_path - env.y) <= ON_PATH_TOL]))


def tent_path(x: float, y: float) -> PolymerPath:
    """Linear interpolation through the single interior vertex (x, y)."""
    return PolymerPath.through([[x, y]])


def tent_entropy(x: float, y: float) -> float:
    """Entropy of the tent through (x,y): x e(y/x) + (1-x) e(y/(1-x))."""
    if y == 0.0:
        return 0.0
    return x * binary_entropy_rate(y / x) + (1.0 - x) * binary_entropy_rate(y / (1.0 - x))


def _sorted_nodes(env: PolymerEnvironment):
    """Charges in (x, y) order as endpoint-augmented coordinates, and weights."""
    order = np.lexsort((env.y, env.x))
    ex = np.concatenate(([0.0], env.x[order], [1.0]))
    ey = np.concatenate(([0.0], env.y[order], [0.0]))
    return ex, ey, env.w[order]


def _segment_entropy(dx, dy):
    """Entropy cost dx * e(dy/dx) of straight segments; +inf where infeasible."""
    feasible = (dx > 0.0) & (np.abs(dy) <= dx)
    slope = np.where(feasible, dy / np.where(dx > 0.0, dx, 1.0), 0.0)
    return np.where(feasible, dx * binary_entropy_rate(slope), np.inf)


def _segment_entropy_matrix(ex, ey) -> np.ndarray:
    """Entropy cost between endpoint-augmented nodes; +inf where infeasible."""
    return _segment_entropy(ex[None, :] - ex[:, None], ey[None, :] - ey[:, None])


def _solution(ex, ey, ws, beta, sel) -> tuple[PolymerPath, float]:
    """Path through the selected charges and its value."""
    nodes = [0, *(i + 1 for i in sel), ex.size - 1]
    path = PolymerPath(np.column_stack([ex[nodes], ey[nodes]]))
    return path, beta * float(np.sum(ws[list(sel)])) - path_entropy(path)


def solve_polymer(env: PolymerEnvironment, beta: float) -> tuple[PolymerPath, float]:
    """Ground-state path and value u = max(beta * collected - entropy) >= 0.

    Vertices are restricted to charge locations: straightening a path
    between the charges it touches never loses energy and never raises the
    entropy, by convexity of the slope rate.  Segment costs are computed one
    column at a time, so memory stays linear.
    """
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    ex, ey, ws = _sorted_nodes(env)
    sel = chain_dp(ws, beta, lambda j: _segment_entropy(ex[j] - ex[:j], ey[j] - ey[:j]))
    return _solution(ex, ey, ws, beta, sel)


def solve_polymer_bruteforce(env: PolymerEnvironment, beta: float) -> tuple[PolymerPath, float]:
    """Exhaustive search over feasible charge chains (oracle, small k only)."""
    if env.size > ENUM_MAX:
        raise ValueError(f"brute force capped at {ENUM_MAX} charges")
    ex, ey, ws = _sorted_nodes(env)
    sel = enumerate_best(ws, beta, _segment_entropy_matrix(ex, ey))
    return _solution(ex, ey, ws, beta, sel)


def polymer_beta_critical(env: PolymerEnvironment, method: str = "auto") -> float:
    """Threshold coupling below which the ground state stays flat.

    min over feasible nonempty chains of path entropy / collected weight;
    0 as soon as a charge sits on the axis, +inf for an empty environment.
    Ratio enumeration up to 20 charges; above that a parametric
    (Dinkelbach) iteration on the chain DP lands on the minimizing ratio
    exactly.  "bisect" is kept as a cross-check oracle: plain bisection on
    the coupling via the chain DP, tolerance 1e-9.
    """
    if env.size == 0:
        return math.inf
    if np.any(np.abs(env.y) <= ON_PATH_TOL):
        return 0.0
    ex, ey, ws = _sorted_nodes(env)
    return min_ratio(ws, _segment_entropy_matrix(ex, ey), 1.0, method, ENUM_MAX)
