"""Best chains of weighted points under a pairwise cost.

Both variational problems of the package are one task over the
endpoint-augmented nodes 0, 1..m, m+1: a chain 0 < j_1 < ... < j_r < m+1
scores beta * (w_j1 + ... + w_jr) - c * (C[0,j_1] + ... + C[j_r,m+1]).
Pinning (varmax) uses the gap powers (p_j - p_i)^gamma; the directed
polymer (polymer) uses the segment entropies, +inf where infeasible, with
c = 1.  Both thresholds are the minimum over nonempty chains of
c * (C(chain) - C(empty)) / W(chain).  Every routine reads the costs
through an accessor, column(j) = C[:j, j], and sums them unscaled in
ascending node order, so every path gets the same floats.  Pinning
computes each column as it reads it; only the polymer's thresholds and
oracles read a table (lower_columns), the Dinkelbach threshold's over the
charges its tent-entropy bound keeps.
"""

from __future__ import annotations

import math

import numpy as np

#: subset enumeration works through 2^CHUNK_BITS subsets at a time
CHUNK_BITS = 16

#: cost tables are built BLOCK rows at a time
BLOCK = 64

BISECT_TOL = 1e-9
METHODS = ("auto", "enumerate", "parametric", "bisect")


def check_method(method: str, size: int, enum_max: int) -> None:
    """Reject an unknown threshold method, and an enumeration over more than
    enum_max points, before any cost is computed."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "enumerate" and size > enum_max:
        raise ValueError(f"enumeration capped at {enum_max} points")


def lower_columns(n: int, rows):
    """Column accessor, column(j) = C[:j, j] for j < n, of a cost table built
    BLOCK rows at a time: rows(j0, j1) returns the (j1 - j0) x j1 block whose
    row r holds column j0 + r (its entries at and past the diagonal are never
    read).  The part below the diagonal is copied, block by block, into one
    packed buffer of n (n - 1) / 2 floats, column j at tri[j (j - 1) / 2 :
    j (j + 1) / 2], and no temporary of rows() needs more than BLOCK * n.  No
    block outlives its copy, so repeated tables reuse the same memory.  Its
    callers are the polymer's thresholds and oracles, which read every column
    at every step, so the column views are made once; n counts the charges
    the tent bound keeps, plus the endpoints, for the Dinkelbach threshold.
    """
    tri = np.empty(n * (n - 1) // 2)
    for j0 in range(0, n, BLOCK):
        block = rows(j0, min(j0 + BLOCK, n))
        for j, row in enumerate(block, j0):
            tri[j * (j - 1) // 2 : j * (j + 1) // 2] = row[:j]
    return [tri[j * (j - 1) // 2 : j * (j + 1) // 2] for j in range(n)].__getitem__


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
        i = int(cand.argmax())
        vmax = cand[i]
        tie = (cand == vmax).nonzero()[0]
        if tie.size > 1:
            i = int(tie[cnt[tie].argmin()])
        best[j] = vmax
        cnt[j] = cnt[i] + 1
        bp[j] = i
    sel = []
    node = int(bp[m + 1])
    while node != 0:
        sel.append(node - 1)
        node = int(bp[node])
    return tuple(reversed(sel))


def _argmax_sums(w, beta: float, column, c: float):
    """(value, weight sum, cost sum) of the first-argmax chain, no tie-breaks."""
    m = w.size
    wx = np.append(w, 0.0)
    best = np.zeros(m + 2)
    wsum = np.zeros(m + 2)
    csum = np.zeros(m + 2)
    for j in range(1, m + 2):
        col = column(j)
        cand = best[:j] + beta * wx[j - 1] - c * col
        i = int(cand.argmax())
        best[j] = cand[i]
        wsum[j] = wsum[i] + wx[j - 1]
        csum[j] = csum[i] + col[i]
    return best[m + 1], wsum[m + 1], csum[m + 1]


def _subsets(w, column, beta=None, c=1.0):
    """Yield (first mask, weight sums, chain costs, scores) over all 2^m subsets.

    Bit i of a mask selects node i+1.  The low CHUNK_BITS bits are built
    once by doubling; each chunk extends them by one fixed set of high bits.
    Scores are None unless beta is given; then each chain is scored as
    chain_dp scores it, (v + beta * w_j) - c * C[i,j] node by node, closed
    by (v + beta * 0.0) - c * C[last, m+1].
    """
    m = w.size
    b = min(m, CHUNK_BITS)
    wsum = np.zeros(1 << b)
    csum = np.zeros(1 << b)
    score = None if beta is None else np.zeros(1 << b)
    top = np.zeros(1 << b, dtype=np.int64)  # last chosen node, 0 = left endpoint
    for hb in range(b):
        lo = 1 << hb
        edge = column(hb + 1)[top[:lo]]
        wsum[lo : 2 * lo] = wsum[:lo] + w[hb]
        csum[lo : 2 * lo] = csum[:lo] + edge
        if score is not None:
            score[lo : 2 * lo] = (score[:lo] + beta * w[hb]) - c * edge
        top[lo : 2 * lo] = hb + 1
    for high in range(1 << (m - b)):
        hw, hc, hs, last = wsum, csum, score, top
        for p in range(b, m):
            if high >> (p - b) & 1:
                edge = column(p + 1)[last]
                hw = hw + w[p]
                hc = hc + edge
                if hs is not None:
                    hs = (hs + beta * w[p]) - c * edge
                last = p + 1
        edge = column(m + 1)[last]
        if hs is not None:
            hs = (hs + beta * 0.0) - c * edge
        yield high << b, hw, hc + edge, hs


def enumerate_best(w, beta: float, column, c: float = 1.0) -> tuple[int, ...]:
    """Maximizing chain by exhaustive enumeration, with chain_dp's scores
    and its ranking of ties: fewer points, then the smallest last index,
    then the smallest index before it, and so on (the smallest predecessor
    at every node)."""
    best, ties = -math.inf, []
    for first, _, _, values in _subsets(w, column, beta, c):
        vmax = values.max()
        if vmax > best:
            best, ties = vmax, []
        if vmax == best:
            ties.extend(first + np.flatnonzero(values == vmax))
    chains = (tuple(i for i in range(w.size) if int(t) >> i & 1) for t in ties)
    return min(chains, key=lambda ix: (len(ix), ix[::-1]))


def min_ratio(w, column, c: float, method: str) -> float:
    """min over nonempty chains of c * (C(chain) - C(empty)) / W(chain).

    "auto" and "parametric" are Dinkelbach's iteration on the chain DP,
    exact after finitely many solves.  The oracles: "enumerate" scans every
    chain; "bisect" halves the coupling until the tie-breaking DP's verdict
    (empty or not) is pinned to BISECT_TOL.  The callers reject an unknown
    method, and cap the enumeration, by check_method before they compute
    the costs behind column.
    """
    m = w.size
    last = column(m + 1)
    base = last[0]
    # each single point bounds the threshold from above
    opening = np.array([column(j)[0] for j in range(1, m + 1)])
    single = c * (opening + last[1:] - base) / w
    if method == "enumerate":
        best = math.inf
        for first, wsum, csum, _ in _subsets(w, column):
            skip = 1 if first == 0 else 0  # the empty chain has no ratio
            best = min(best, float((c * (csum[skip:] - base) / wsum[skip:]).min()))
        return best
    if method == "bisect":
        hi = float(single.min()) * (1.0 + 1e-6) + 1e-12
        lo = 0.0
        if not chain_dp(w, hi, column, c):  # numerical guard; widen once
            hi *= 1.0 + 1e-3
        while hi - lo > BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if chain_dp(w, mid, column, c):  # the maximizer is not empty
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)
    # Dinkelbach: from above the threshold, each step jumps to the ratio of
    # the current maximizing chain; the iterate decreases strictly and lands
    # on the minimizing ratio after finitely many DP solves (typically < 10)
    beta = float(single.min())
    for _ in range(100):
        value, wsum, csum = _argmax_sums(w, beta, column, c)
        # the empty chain scores exactly -c * C(empty)
        if wsum <= 0.0 or value <= -c * base:
            return beta
        new_beta = float(c * (csum - base) / wsum)
        if new_beta >= beta - 1e-15 * max(1.0, beta):
            return new_beta
        beta = new_beta
    return beta
