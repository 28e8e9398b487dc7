"""Ground state of a directed polymer among heavy-tailed point charges.

Charges live in the diamond D = {(x,y): |y| <= min(x, 1-x)}; a path is
1-Lipschitz, pinned to height 0 at both ends, and pays the binary-entropy
rate of its slope.  Because that rate is convex, an optimal path is
piecewise linear with vertices on the charges it collects, which reduces
the ground-state problem to a DP over charges sorted by x.  A ground state
is the tuple of indices into the environment of the charges its path
collects, in path order, and objective scores such a tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import chain_dp, check_method, enumerate_best, lower_columns, min_ratio

ON_PATH_TOL = 1e-12

ENUM_MAX = 20  # enumeration cap of the oracles; the DP handles anything larger


def binary_entropy_rate(x):
    """e(x) = ((1+x)log(1+x) + (1-x)log(1-x))/2 on [-1,1], with 0 log 0 = 0.

    Even and convex with e(0) = 0 and e(+-1) = log 2; slopes outside [-1,1]
    are Lipschitz violations and rejected.  Uses log1p so the ~x^2/2 behavior
    near 0 survives the cancellation between the two terms.  Computed in
    three arrays of x's size, each product and sum in place, with the
    operands of the formula as written, so in the same floats.
    """
    arr = np.asarray(x, dtype=float)
    safe = np.abs(arr).reshape(-1)
    if not np.all(safe <= 1.0):
        raise ValueError("slope outside [-1,1]")
    edge = safe == 1.0
    np.copyto(safe, arr.reshape(-1))
    safe[edge] = 0.0
    out = np.log1p(safe)
    rest = np.add(1.0, safe)
    out *= rest
    np.negative(safe, out=rest)
    np.log1p(rest, out=rest)
    np.subtract(1.0, safe, out=safe)
    rest *= safe
    out += rest
    out *= 0.5
    out[edge] = math.log(2.0)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


@dataclass(frozen=True)
class PolymerEnvironment:
    """Charges (x_i, y_i, w_i) in the diamond with weights decreasing in i."""

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    alpha: float

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=float)
        w = np.array(self.w, dtype=float)
        if not (x.shape == y.shape == w.shape) or x.ndim != 1:
            raise ValueError("x, y, w must be 1-d arrays of equal length")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0,2), got {self.alpha}")
        if not np.all(np.abs(y) <= np.minimum(x, 1.0 - x)):
            raise ValueError("charges must lie in the diamond |y| <= min(x,1-x)")
        if not (np.all((w > 0.0) & np.isfinite(w)) and np.all(np.diff(w) < 0.0)):
            raise ValueError("weights must be positive, finite and strictly decreasing")
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


def tent_entropy(x, y):
    """Entropy of the tent through (x,y): x e(y/x) + (1-x) e(y/(1-x)).

    Elementwise over arrays, a float for scalars; exactly 0.0 on the axis
    (y = 0, where x may be 0 or 1).  Off the axis these are the floats of
    the segment costs C[0, j] + C[j, k+1] that the threshold's single-charge
    bound adds up: the same differences x - 0 and 1 - x, and e is evaluated
    symmetrically, so e(-s) and e(s) are the same float.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    off = np.where(y == 0.0, 0.5, x)  # on the axis x may be 0 or 1: divide by 1/2
    out = np.where(y == 0.0, 0.0, off * binary_entropy_rate(y / off)
                   + (1.0 - off) * binary_entropy_rate(y / (1.0 - off)))
    return float(out) if out.ndim == 0 else out


def _sorted_nodes(env: PolymerEnvironment):
    """Charges in (x, y) order as endpoint-augmented coordinates, and weights."""
    order = np.lexsort((env.y, env.x))
    ex = np.concatenate(([0.0], env.x[order], [1.0]))
    ey = np.concatenate(([0.0], env.y[order], [0.0]))
    return ex, ey, env.w[order]


def _segment_entropy(dx, dy):
    """Entropy cost dx * e(dy/dx) of straight segments; +inf where infeasible.

    The entropy rate is evaluated on the feasible segments only, those with
    dx > 0 and |dy| <= dx (for uniform charges, about half of each column),
    and the slope and the product are formed in place on those."""
    f = np.abs(dy) <= dx
    f &= dx > 0.0
    out = np.full(dx.shape, np.inf)
    dxf, slope = dx[f], dy[f]
    slope /= dxf
    cost = binary_entropy_rate(slope)
    cost *= dxf
    out[f] = cost
    return out


def _segment_entropy_matrix(ex, ey):
    """Column accessor of the entropy cost between endpoint-augmented nodes,
    +inf where infeasible, computed once for every column (every Dinkelbach
    step reads all of them) and a block of rows at a time (chain.lower_columns)."""
    return lower_columns(ex.size, lambda j0, j1: _segment_entropy(
        ex[j0:j1, None] - ex[None, :j1], ey[j0:j1, None] - ey[None, :j1]))


def objective(env: PolymerEnvironment, beta: float, idx) -> float:
    """beta * (weight collected) - (path entropy) of the path from (0,0) through
    the charges idx of env, in path order, to (1,0); -inf if no 1-Lipschitz
    path visits them in that order."""
    i = list(idx)
    dx = np.diff(np.concatenate(([0.0], env.x[i], [1.0])))
    dy = np.diff(np.concatenate(([0.0], env.y[i], [0.0])))
    return beta * float(np.sum(env.w[i])) - float(np.sum(_segment_entropy(dx, dy)))


def solve_polymer(env: PolymerEnvironment, beta: float) -> tuple[int, ...]:
    """Indices into env of the charges a ground-state path collects, in path
    order; objective(env, beta, idx) is its value u = max(beta * collected -
    entropy) >= 0, and () is the flat path.  The DP runs over _sorted_nodes'
    (x, y) order, which is path order on any chain (a path's x increases).

    Vertices are restricted to charge locations: straightening a path
    between the charges it touches never loses energy and never raises the
    entropy, by convexity of the slope rate.  Segment costs are computed one
    column at a time, so memory stays linear.
    """
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    ex, ey, ws = _sorted_nodes(env)
    sel = chain_dp(ws, beta, lambda j: _segment_entropy(ex[j] - ex[:j], ey[j] - ey[:j]))
    return tuple(np.lexsort((env.y, env.x))[list(sel)].tolist())


def solve_polymer_bruteforce(env: PolymerEnvironment, beta: float) -> tuple[int, ...]:
    """Exhaustive search over feasible charge chains (oracle, small k only)."""
    if env.size > ENUM_MAX:
        raise ValueError(f"brute force capped at {ENUM_MAX} charges")
    ex, ey, ws = _sorted_nodes(env)
    sel = enumerate_best(ws, beta, _segment_entropy_matrix(ex, ey))
    return tuple(np.lexsort((env.y, env.x))[list(sel)].tolist())


def _prune(ex, ey, ws) -> np.ndarray:
    """Indices of the charges (into ws) that may lie on a chain the threshold's
    Dinkelbach iteration selects; the charges lie off the axis.

    The bound.  A 1-Lipschitz path through charge j = (x, y) has entropy at
    least tent_j = tent_entropy(x, y), by Jensen's inequality on each side
    of j, since e is convex.  beta0 = min_j tent_j / w_j is the iteration's
    first coupling, and it solves the DP at couplings beta <= beta0 only.
    A chain S with beta W(S) - H(S) >= 0 there has, for each of its charges,
    tent_j <= H(S) <= beta0 W(S).  Each pass drops every charge with tent_j >
    beta0 W(kept) and recomputes W over the kept charges, until nothing
    drops; by induction over the passes (S lies in the kept set, so W(S) <=
    W(kept)), no such chain loses a charge.

    The float margin.  A charge is dropped only when the computed tent_j -
    beta0 W(kept) exceeds tol = 8 (m + 64) u P, with u = 2^-53, m charges and
    P = beta0 sum(w) + 1, which bounds every partial sum of a chain's score
    (a chain's entropy is at most log 2).
    - A float segment cost is within 71 u dx of dx e(clip(dy/dx)), with the
      exact dx and dy of its floats and the slope clipped to [-1, 1]: the
      slope rounds by 3.01 u relative, which moves e by at most
      (d/2)(1 + log(2/d)) <= 57 u at d = 3.02 u (e' = atanh is largest at
      the slope 1); e's evaluation costs 12 u at most with log1p within
      4 ulp (0.57 ulp measured against mpmath); the product 2 u.
    - Jensen on the clipped slopes of S (their mean moves by 3.02 u at most)
      gives H(S) >= T_j - 57 u, with T_j the tent of clipped exact slopes; the
      computed tent_j is the two segment costs from 0 and to the far end, so
      it is within 72 u of T_j.
    - The DP scores S node by node, two roundings per node on sums bounded
      by P, one per product, plus the costs (71 u over the chain, whose dx
      sum to 1): within (2m + 3) u P + 71 u.  The test itself, with W summed
      in any order and beta0 possibly underflowed (2^-1075 W <= 4 u), is off
      by (m + 1) u P + 72 u + 4 u.
    So a chain with a float score >= 0 at beta <= beta0 has tent_j - beta0
    W(kept) <= (3m + 208) u P for each of its charges in the computed test,
    below tol: none is dropped.  Ties keep a charge, and a NaN bound keeps
    every one.  The charge attaining beta0 stays: its computed test value is
    at most (m + 3) u P + 4 u.
    """
    m = ws.size
    tent = tent_entropy(ex[1:-1], ey[1:-1])
    beta0 = float((tent / ws).min())
    tol = 8 * (m + 64) * 2.0**-53 * (beta0 * float(np.sum(ws)) + 1.0)
    keep = np.arange(m)
    while True:
        drop = tent[keep] - beta0 * float(np.sum(ws[keep])) > tol
        if not drop.any():
            return keep
        keep = keep[~drop]


def polymer_beta_critical(env: PolymerEnvironment, method: str = "auto") -> float:
    """Threshold coupling below which the ground state stays flat.

    min over feasible nonempty chains of path entropy / collected weight;
    0 as soon as a charge sits on the axis, +inf for an empty environment.
    A parametric (Dinkelbach) iteration on the chain DP lands on the
    minimizing ratio exactly ("auto" and "parametric").  The oracles run
    over all charges: "enumerate" scans every chain (at most 20 charges),
    "bisect" halves the coupling via the chain DP to tolerance 1e-9.

    The iteration runs on the charges that _prune keeps, in the same node
    order, so its cost table covers those only, and it returns the same
    float as over all charges.  Its first coupling is the same: each
    single-charge bound (C[0, j] + C[j, k+1] - C[0, k+1]) / w_j is the float
    tent_j / w_j (C[0, k+1] = 0.0), and the charge attaining the minimum is
    kept.  At each step, the empty chain scores exactly 0.0, so the full
    DP's first-argmax chain scores >= 0 and lies in the kept set (_prune).
    The reduced DP scores every kept chain with the same floats, in the
    same order; its value at a kept node can only be lower, and it equals
    the full one along that chain, so the first argmax at each of its nodes
    is the same predecessor.  The reduced DP thus returns the same chain with
    the same value and sums, and the iterates and the result are equal.
    """
    check_method(method, env.size, ENUM_MAX)
    if env.size == 0:
        return math.inf
    if np.any(np.abs(env.y) <= ON_PATH_TOL):
        return 0.0
    ex, ey, ws = _sorted_nodes(env)
    if method in ("auto", "parametric"):
        keep = _prune(ex, ey, ws)
        nodes = np.concatenate(([0], keep + 1, [ws.size + 1]))
        ex, ey, ws = ex[nodes], ey[nodes], ws[keep]
    return min_ratio(ws, _segment_entropy_matrix(ex, ey), 1.0, method)
