"""Stretched-exponential inter-arrival laws with a possible atom at infinity.

Provides exact construction of K(n) = C n^rho exp(-c n^gamma) on a truncated
support whose dropped tail mass a closed-form upper bound keeps within
budget, exponential tilting into a terminating law, the renewal function by
a blocked convolution recursion, and the heavy-tail convolution diagnostics
q^{*m}(n)/q(n) -> m.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

#: Fraction of the finite mass allowed beyond the truncated support.
TAIL_BUDGET = 1e-10

_NORM_TOL = 1e-12

#: Block length of renewal_function and _convolve_head: no BLAS dot product
#: they ask for is longer.
_BLOCK = 1024

#: Largest support build_law takes: it holds two float arrays of n_max + 1
#: entries at once (16 MB at the cap, the traced peak of build_law there),
#: and renewal_function's time grows as n^2 (about 1 s at n = 1.28e5, so a
#: minute at the cap).
MAX_SUPPORT = 10**6


@dataclass(frozen=True)
class RenewalLaw:
    """Inter-arrival law on {1..n_max} plus an atom K_inf at infinity.

    K[n] is the mass at n (index 0 is a zero sentinel).  The shape parameters
    (gamma, c, rho) and the normalizing constant are kept so diagnostics can
    check log K(n)/n^gamma -> -c against the closed form.  K is copied, so a
    caller's array stays its own; build_law and tilt hand over the arrays
    they just built (_owned=True), which are frozen in place instead.
    """

    gamma: float
    c: float
    rho: float
    K: np.ndarray
    K_inf: float
    n_max: int
    norm_const: float
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        if not _owned:
            object.__setattr__(self, "K", np.array(self.K, dtype=float))
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0,1), got {self.gamma}")
        if not self.c > 0.0:
            raise ValueError(f"c must be positive, got {self.c}")
        # K_inf can round to exactly 1.0 under extreme tilts while the finite
        # part stays positive, so the closed upper endpoint is tolerated
        if not 0.0 <= self.K_inf <= 1.0:
            raise ValueError(f"K_inf must lie in [0,1], got {self.K_inf}")
        if self.K.shape[0] != self.n_max + 1 or self.K[0] != 0.0:
            raise ValueError("K must be indexed 0..n_max with K[0] == 0")
        if not np.all(self.K[1:] > 0.0):
            raise ValueError("K(n) must be positive up to n_max (underflow? reduce n_max)")
        total = float(np.sum(self.K)) + self.K_inf
        if not abs(total - 1.0) <= _NORM_TOL:
            raise ValueError(f"K must sum to 1 with the atom, off by {total - 1.0:.3e}")
        # closed form gives |log K(n)/n^g + c| == |rho log n + log C| / n^g exactly
        n = self.n_max
        lhs = abs(math.log(self.K[n]) / n**self.gamma + self.c)
        rhs = (abs(self.rho) * math.log(n) + abs(math.log(self.norm_const))) / n**self.gamma
        if not lhs <= rhs * (1.0 + 1e-9) + 1e-12:
            raise ValueError("K table is inconsistent with its stretched-exponential shape")
        self.K.setflags(write=False)

    def q(self, lo: int, hi: int) -> np.ndarray:
        """Conditional law on finite values, q(n) = K(n) / (1 - K_inf), for
        lo <= n < hi: each entry the one division of the whole table, and
        only the entries asked for formed."""
        if self.K_inf >= 1.0:
            raise ValueError("conditional law undefined: the atom carries all mass")
        return self.K[lo:hi] / (1.0 - self.K_inf)


def _log_upper_gamma_bound(s: float, y: float) -> float:
    """An upper bound on log Gamma(s, y), for real s and y > 0, in the three
    closed-form cases that build_law's docstring proves."""
    log_y = math.log(y)
    if s > 1.0:
        gap = y - (s - 1.0)
        return s * log_y - y - math.log(gap) if gap > 0.0 else math.lgamma(s)
    log_bound = (s - 1.0) * log_y - y + math.log((y + 1.0) / (y + 2.0 - s))
    return min(log_bound, s * log_y - math.log(-s)) if s < 0.0 else log_bound


def build_law(gamma: float, c: float, rho: float = 0.0, K_inf_target: float = 0.0,
              n_max: int = 100_000) -> RenewalLaw:
    """Normalize K(n) = C n^rho exp(-c n^gamma) over 1..n_max to mass 1 - K_inf.

    n_max is checked against MAX_SUPPORT before anything is allocated.  The
    tail mass beyond n_max must stay below TAIL_BUDGET of the finite mass,
    otherwise n_max is too small and construction fails.  Where the density
    is decreasing, that mass is at most C * int_{n_max}^inf x^rho
    exp(-c x^gamma) dx = C * Gamma(s, y) / (gamma c^s), with s = (rho+1)/gamma
    and y = c n_max^gamma (substitute u = c x^gamma).  The check needs only
    an upper bound on Gamma(s, y) = int_y^inf u^(s-1) e^(-u) du, so it takes
    one in closed form (_log_upper_gamma_bound), never below the exact value:

    - s > 1, y > s - 1: Gamma(s, y) <= y^s e^(-y) / (y + 1 - s).  For any a
      and y + 1 - a > 0, G(y) = Gamma(a, y) - y^a e^(-y) / (y + 1 - a) has
      G'(y) = -y^(a-1) e^(-y) (1 - a) / (y + 1 - a)^2 and G(inf) = 0; at
      a = s > 1, G' > 0 on (s - 1, inf), so G < 0 there.
    - s > 1, y <= s - 1: Gamma(s, y) <= Gamma(s), the whole integral.
    - s <= 1: by parts, Gamma(s, y) = y^(s-1) e^(-y) + (s - 1) Gamma(s - 1, y).
      At a = s - 1 < 1 the same G has G' < 0, so G > 0: Gamma(s - 1, y) >=
      y^(s-1) e^(-y) / (y + 2 - s), and as s - 1 <= 0,
      Gamma(s, y) <= y^(s-1) e^(-y) (y + 1) / (y + 2 - s), exact at s = 1.
      For s < 0 also Gamma(s, y) <= int_y^inf u^(s-1) du = y^s / (-s), and
      the smaller bound is taken.

    Everything is carried in logs, so no case overflows.  A bound can only
    make the check stricter than the exact tail would.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")
    if not c > 0.0:
        raise ValueError(f"c must be positive, got {c}")
    if not math.isfinite(rho):
        raise ValueError(f"rho must be finite, got {rho}")
    if not 0.0 <= K_inf_target < 1.0:
        raise ValueError(f"K_inf_target must lie in [0,1), got {K_inf_target}")
    if not 10 <= n_max <= MAX_SUPPORT:
        raise ValueError(f"n_max must lie in [10, {MAX_SUPPORT}], got {n_max}")
    if rho > 0.0 and c * gamma * n_max**gamma <= rho:
        raise ValueError("density not yet decreasing at n_max; enlarge n_max")

    # in two arrays, K and log K, each step one operation of the formula
    # log K(n) = rho log n - c n^gamma, K = exp(log K + log_norm), in place
    K = np.arange(0, n_max + 1, dtype=float)
    n = K[1:]
    logk = np.log(n)
    logk *= rho
    n **= gamma
    n *= c
    logk -= n
    m = logk.max()
    np.subtract(logk, m, out=n)
    raw_sum = float(np.exp(n, out=n).sum())
    log_norm = math.log1p(-K_inf_target) - (m + math.log(raw_sum))
    np.add(logk, log_norm, out=n)
    del logk
    np.exp(n, out=n)
    if n.min() == 0.0:
        raise ValueError("K underflows before n_max; reduce n_max or c")
    # exact renormalization so the law invariant holds to 1e-12
    K[1:] *= (1.0 - K_inf_target) / K[1:].sum()

    norm_const = math.exp(log_norm)
    s = (rho + 1.0) / gamma
    log_tail = (log_norm + _log_upper_gamma_bound(s, c * n_max**gamma)
                - math.log(gamma) - s * math.log(c))
    tail = math.exp(log_tail) if log_tail < 709.0 else math.inf
    if tail > TAIL_BUDGET * (1.0 - K_inf_target):
        raise ValueError(
            f"tail mass beyond n_max is at most {tail:.3e}, "
            f"over budget {TAIL_BUDGET * (1.0 - K_inf_target):.3e}; n_max too small"
        )
    return RenewalLaw(gamma=gamma, c=c, rho=rho, K=K, K_inf=K_inf_target,
                      n_max=n_max, norm_const=norm_const, _owned=True)


def tilt(law: RenewalLaw, h: float) -> RenewalLaw:
    """Scale the finite part by exp(-h), moving mass to the atom at infinity.

    h > 0 turns a proper law into a terminating one; h < 0 is allowed only
    while the finite mass stays below 1.
    """
    scale = math.exp(-h)
    finite = scale * (1.0 - law.K_inf)
    if finite > 1.0 + _NORM_TOL:
        raise ValueError(f"tilt by h={h} would give finite mass {finite} > 1")
    K = law.K * scale
    K[0] = 0.0
    return RenewalLaw(gamma=law.gamma, c=law.c, rho=law.rho, K=K,
                      K_inf=1.0 - min(finite, 1.0), n_max=law.n_max,
                      norm_const=law.norm_const * scale, _owned=True)


def renewal_function(law: RenewalLaw, n: int) -> np.ndarray:
    """Return the table u(0..n) of visit probabilities, u(0) = 1.

    u(m) = sum_{j=1}^{m} K(j) u(m-j): each value conditions on the first
    arrival, so everything stays in (0,1].  Every term is summed; the
    horizons are split into blocks [b0, b1) of _BLOCK, b0 = 1, 1 + _BLOCK,
    ...  For each block, the finished prefix u[0:b0] is added first, as one
    np.convolve(..., mode="valid") per chunk of _BLOCK entries of the
    prefix, into old(i) = sum_{j > i} K(j) u(b0+i-j), i = b1 - b0 - 1 at
    most.  The first block's prefix is u(0) = 1 alone, so old(i) = K(i+1),
    and it is finished row by row: u(m) = K(m) + K[1:m] @ u[m-1:0:-1], a
    dot product over a negative-stride view that numpy sums term by term
    from j = 1, so u(m) = K(m) + sum_{j<m} K(j) u(m-j) in the row order, and
    u(0..n) is bit-equal to the row loop u[m] = K[1:m+1] @ u[m-1::-1] for
    n <= _BLOCK.  Inside any block v(i) = u(b0+i) solves the renewal
    equation v = old + K*v, whose solution is v = u*old: so each later block
    is v(i) = sum_{l<=i} u(l) old(i-l), one np.convolve(u[:B], old)[:B] over
    values of the first block (B = b1 - b0 <= _BLOCK < b0), with no step
    per n.

    Error.  All terms are positive, so a computed sum of k products is the
    exact sum over its computed inputs times 1 + theta, |theta| <= gamma_k =
    k 2^-53 / (1 - k 2^-53), and (1 + gamma_a)(1 + gamma_b) <= 1 +
    gamma_{a+b} (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., lemma 3.3).  In the row order, u(m) is thus within e_m =
    prod_{k<=m} (1 + gamma_k) - 1 of the exact value.  The blocked table
    keeps this bound: the first block is the row order; old(i) sums b0
    products of values within e_{b0-1}; v(0) = 1 * old(0) is exact in
    old(0), and for 1 <= i < B, v(i) sums i + 1 products of old with u(l),
    l <= i, each within e_i <= gamma_{i(i+1)/2}.  So the factor 1 + e_{b0-1}
    of the prefix grows to at most (1 + gamma_{b0})(1 + e_i)(1 +
    gamma_{i+1}) <= 1 + gamma_S, S = b0 + i + 1 + i(i+1)/2, where the row
    order allows prod_{k=b0}^{b0+i} (1 + gamma_k) >= 1 + (i+1) b0 2^-53.
    As i < B <= b0 - 1, (i+1) b0 - S = i (b0 - 1 - (i+1)/2) - 1 >= 511 i,
    far more than gamma_S's excess S^2 2^-106 / (1 - S 2^-53) over S 2^-53
    for any n up to MAX_SUPPORT, so every u(m) stays within e_m of the
    exact value.  No dot product numpy hands to BLAS is longer than _BLOCK,
    below OpenBLAS's threading cut-off, so the bytes do not depend on the
    BLAS thread count.
    """
    if n > law.n_max:
        raise ValueError(f"horizon {n} exceeds law support n_max={law.n_max}")
    if n < 0:
        raise ValueError("horizon must be >= 0")
    u = np.empty(n + 1)
    u[0] = 1.0
    K = law.K
    for m in range(1, min(1 + _BLOCK, n + 1)):
        u[m] = K[m] + K[1:m] @ u[m - 1 : 0 : -1]
    for b0 in range(1 + _BLOCK, n + 1, _BLOCK):
        b1 = min(b0 + _BLOCK, n + 1)
        old = np.zeros(b1 - b0)
        for c0 in range(0, b0, _BLOCK):
            c1 = min(c0 + _BLOCK, b0)
            old += np.convolve(K[b0 - c1 + 1 : b1 - c0], u[c0:c1], mode="valid")
        u[b0:b1] = np.convolve(u[: b1 - b0], old)[: b1 - b0]
    return u


def _convolve_head(a: np.ndarray, v: np.ndarray, count: int) -> np.ndarray:
    """The first count entries of the convolution a*v, for count <= len(v).

    a is cut into blocks of _BLOCK entries, and block s adds
    np.convolve(a[s:s+_BLOCK], v[:count-s]) to out[s:], so nothing past
    count is computed and no dot product numpy hands to BLAS is longer than
    _BLOCK: below OpenBLAS's threading cut-off, so the bytes do not depend on
    the BLAS thread count.  With count <= _BLOCK there is one block, and the
    result has the bytes of np.convolve(a, v[:count])[:count].
    """
    out = np.zeros(count)
    for s in range(0, min(count, a.size), _BLOCK):
        out[s:] += np.convolve(a[s : s + _BLOCK], v[: count - s])[: count - s]
    return out


def ratio_table(law: RenewalLaw, n: int) -> tuple[np.ndarray, ...]:
    """Columns K, u, u/K, q*2/q and q*3/q over 1..n for q = K/(1-K_inf).

    q*2 and q*3 are summed directly and read as 0 below 2 and 3, so their
    ratio columns start with one and two zeros; needs n >= 3.  Only their
    values up to n are formed (_convolve_head): each value is a sum over
    blocks of _BLOCK positions of the first factor, so for n > _BLOCK + 1
    the summation order differs from a single np.convolve (within a
    relative 4 n 2^-53, all terms being positive), and the bytes are the
    same at any BLAS thread count.
    """
    if n < 3:
        raise ValueError("need n >= 3 for the convolution ratios")
    u = renewal_function(law, n)[1:]
    K = law.K[1 : n + 1]
    q = law.q(1, n + 1)  # q[i] = q(i+1)
    conv2 = _convolve_head(q, q, n - 1)  # index j <-> mass at j+2
    conv3 = _convolve_head(conv2, q, n - 2)  # index j <-> mass at j+3
    q2_over_q = np.zeros(n)
    np.divide(conv2, q[1:], out=q2_over_q[1:])
    del conv2
    q3_over_q = np.zeros(n)
    np.divide(conv3, q[2:], out=q3_over_q[2:])
    return K, u, u / K, q2_over_q, q3_over_q


def subexp_diagnostics(law: RenewalLaw, n: int) -> dict[str, float]:
    """Heavy-tail convolution ratios at n for q = K/(1-K_inf).

    Returns q(n+1)/q(n), q*2(n)/q(n), q*3(n)/q(n) (the last row of
    ratio_table) and u(n)/K(n); the first three approach 1, 2, 3 and the
    last 1/K_inf^2 for terminating laws.
    """
    if n + 1 > law.n_max:
        raise ValueError(f"n + 1 = {n + 1} exceeds n_max={law.n_max}")
    _, _, u_over_K, conv2_ratio, conv3_ratio = ratio_table(law, n)
    q_n, q_next = law.q(n, n + 2)
    return {
        "shift_ratio": float(q_next / q_n),
        "conv2_ratio": float(conv2_ratio[-1]),
        "conv3_ratio": float(conv3_ratio[-1]),
        "u_over_K": float(u_over_K[-1]),
    }
