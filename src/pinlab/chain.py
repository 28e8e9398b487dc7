"""Best chains of weighted points under a pairwise cost.

Both variational problems of the package are one task over the
endpoint-augmented nodes 0, 1..m, m+1: a chain 0 < j_1 < ... < j_r < m+1
scores beta * (w_j1 + ... + w_jr) - c * (C[0,j_1] + ... + C[j_r,m+1]).
Pinning (varmax) uses the gap powers (p_j - p_i)^gamma; the directed
polymer (polymer) uses the segment entropies, +inf where infeasible, with
c = 1.  Both thresholds are the minimum over nonempty chains of
c * (C(chain) - C(empty)) / W(chain).  Costs are summed unscaled in
ascending node order everywhere, so every path gets the same floats.
"""

from __future__ import annotations

import math

import numpy as np

#: subset enumeration works through 2^CHUNK_BITS subsets at a time
CHUNK_BITS = 16

BISECT_TOL = 1e-9
METHODS = ("auto", "enumerate", "parametric", "bisect")


def chain_dp(w, beta: float, column, c: float = 1.0) -> tuple[int, ...]:
    """Indices (into w) of a maximizing chain; column(j) gives C[:j, j].

    Ties are broken by fewer points, then by the smallest predecessor.
    Nodes that no finite chain reaches score -inf and so never win a tie.
    """
    m = w.size
    wx = np.append(w, 0.0)
    best = np.zeros(m + 2)
    cnt = np.zeros(m + 2, dtype=np.int64)
    bp = np.zeros(m + 2, dtype=np.int64)
    for j in range(1, m + 2):
        cand = best[:j] + beta * wx[j - 1] - c * column(j)
        vmax = cand.max()
        tie = np.flatnonzero(cand == vmax)
        i = int(tie[np.argmin(cnt[tie])])
        best[j] = vmax
        cnt[j] = cnt[i] + 1
        bp[j] = i
    sel = []
    node = int(bp[m + 1])
    while node != 0:
        sel.append(node - 1)
        node = int(bp[node])
    return tuple(reversed(sel))


def _argmax_sums(w, beta: float, cost: np.ndarray, c: float):
    """(value, weight sum, cost sum) of the first-argmax chain, no tie-breaks."""
    m = w.size
    wx = np.append(w, 0.0)
    best = np.zeros(m + 2)
    wsum = np.zeros(m + 2)
    csum = np.zeros(m + 2)
    for j in range(1, m + 2):
        cand = best[:j] + beta * wx[j - 1] - c * cost[:j, j]
        i = int(np.argmax(cand))
        best[j] = cand[i]
        wsum[j] = wsum[i] + wx[j - 1]
        csum[j] = csum[i] + cost[i, j]
    return best[m + 1], wsum[m + 1], csum[m + 1]


def _subsets(w, cost: np.ndarray):
    """Yield (first mask, weight sums, chain costs) over all 2^m subsets.

    Bit i of a mask selects node i+1.  The low CHUNK_BITS bits are built
    once by doubling; each chunk extends them by one fixed set of high bits.
    """
    m = w.size
    b = min(m, CHUNK_BITS)
    wsum = np.zeros(1 << b)
    csum = np.zeros(1 << b)
    top = np.zeros(1 << b, dtype=np.int64)  # last chosen node, 0 = left endpoint
    for hb in range(b):
        lo = 1 << hb
        wsum[lo : 2 * lo] = wsum[:lo] + w[hb]
        csum[lo : 2 * lo] = csum[:lo] + cost[top[:lo], hb + 1]
        top[lo : 2 * lo] = hb + 1
    for high in range(1 << (m - b)):
        hw, hc, last = wsum, csum, top
        for p in range(b, m):
            if high >> (p - b) & 1:
                hw = hw + w[p]
                hc = hc + cost[last, p + 1]
                last = p + 1
        yield high << b, hw, hc + cost[last, m + 1]


def enumerate_best(w, beta: float, cost: np.ndarray, c: float = 1.0) -> tuple[int, ...]:
    """Maximizing chain by exhaustive enumeration, with chain_dp's ranking
    of ties: fewer points, then the smallest last index, then the smallest
    index before it, and so on (the smallest predecessor at every node)."""
    best, ties = -math.inf, []
    for first, wsum, csum in _subsets(w, cost):
        values = beta * wsum - c * csum
        vmax = values.max()
        if vmax > best:
            best, ties = vmax, []
        if vmax == best:
            ties.extend(first + np.flatnonzero(values == vmax))
    chains = (tuple(i for i in range(w.size) if int(t) >> i & 1) for t in ties)
    return min(chains, key=lambda ix: (len(ix), ix[::-1]))


def min_ratio(w, cost: np.ndarray, c: float, method: str, enum_max: int) -> float:
    """min over nonempty chains of c * (C(chain) - C(empty)) / W(chain).

    "enumerate" scans every chain (at most enum_max points); "parametric"
    is Dinkelbach's iteration on the chain DP, exact after finitely many
    solves; "bisect" halves the coupling until the tie-breaking DP's
    verdict (empty or not) is pinned to BISECT_TOL.  "auto" enumerates up
    to enum_max points and iterates above.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    m = w.size
    base = cost[0, m + 1]
    # each single point bounds the threshold from above
    single = c * (cost[0, 1 : m + 1] + cost[1 : m + 1, m + 1] - base) / w
    if method == "enumerate" or (method == "auto" and m <= enum_max):
        if m > enum_max:
            raise ValueError(f"enumeration capped at {enum_max} points")
        best = math.inf
        for first, wsum, csum in _subsets(w, cost):
            skip = 1 if first == 0 else 0  # the empty chain has no ratio
            best = min(best, float((c * (csum[skip:] - base) / wsum[skip:]).min()))
        return best
    if method == "bisect":
        hi = float(single.min()) * (1.0 + 1e-6) + 1e-12
        lo = 0.0
        if not chain_dp(w, hi, lambda j: cost[:j, j], c):  # numerical guard; widen once
            hi *= 1.0 + 1e-3
        while hi - lo > BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if chain_dp(w, mid, lambda j: cost[:j, j], c):  # the maximizer is not empty
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)
    # Dinkelbach: from above the threshold, each step jumps to the ratio of
    # the current maximizing chain; the iterate decreases strictly and lands
    # on the minimizing ratio after finitely many DP solves (typically < 10)
    beta = float(single.min())
    for _ in range(100):
        value, wsum, csum = _argmax_sums(w, beta, cost, c)
        # the empty chain scores exactly -c * C(empty)
        if wsum <= 0.0 or value <= -c * base:
            return beta
        new_beta = float(c * (csum - base) / wsum)
        if new_beta >= beta - 1e-15 * max(1.0, beta):
            return new_beta
        beta = new_beta
    return beta
